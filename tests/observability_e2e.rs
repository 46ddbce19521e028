//! End-to-end observability: a live cluster REST server over real TCP,
//! scraped like Prometheus would.
//!
//! Builds an observability-enabled two-node domain, deploys a split
//! chain, drives traffic and a failure through it, then issues raw
//! HTTP `GET /metrics` / `GET /domain/events` against the socket. The
//! exposition body is run through a strict line-by-line parser (every
//! non-comment line must be `name{labels} value`), and the key series
//! the dashboards would sit on must be present.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::{Arc, Mutex};

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig};
use un_nffg::NfFgBuilder;
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_rest::{serve_cluster, DomainHandle};
use un_sim::mem::mb;

/// Build the observed fleet: two nodes, a chain pinned across both,
/// 16 frames through it. Failing n2 is left to the tests — the repair
/// moves everything onto n1 and collapses the overlay link (and its
/// wire series with it), so scrape order matters.
fn observed_domain() -> DomainHandle {
    let mut d = Domain::new(DomainConfig {
        observability: true,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth1");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);

    let g = NfFgBuilder::new("svc", "observed")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("acc", "bridge", 2)
        .nf("upl", "bridge", 2)
        .chain("lan", &["acc", "upl"], "wan")
        .build();
    let hints = DeployHints {
        endpoint_node: BTreeMap::new(),
        nf_node: [
            ("acc".to_string(), "n1".to_string()),
            ("upl".to_string(), "n2".to_string()),
        ]
        .into(),
        strategy: None,
    };
    d.deploy_with(&g, &hints).expect("deploy");

    let burst: Vec<_> = (0..16)
        .map(|_| {
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
                .udp(5000, 5001)
                .payload(&[0x42; 128])
                .build();
            ("n1".to_string(), "eth0".to_string(), pkt)
        })
        .collect();
    let io = d.inject_batch(burst, 1);
    assert_eq!(io.emitted.len(), 16, "traffic must flow before scraping");

    Arc::new(Mutex::new(d))
}

/// One raw HTTP/1.1 round trip; returns (status-line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// One raw HTTP/1.1 POST round trip; returns (status-line, body).
fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, resp_body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let (status, _) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), resp_body.to_string())
}

/// Strict exposition-format check: every non-empty line is a comment
/// (`# TYPE name counter|gauge|histogram`) or a sample
/// (`name{labels} value` / `name value`) with a parseable number.
/// Every sample resolves to a family declared by a `# TYPE` line
/// (`_bucket` / `_sum` / `_count` to their histogram), and each
/// family's samples are one contiguous group — the format's grouping
/// rule, which a scraper may enforce by rejecting the whole document.
/// Returns the set of sample series names seen.
fn parse_exposition(body: &str) -> BTreeMap<String, usize> {
    let mut series: BTreeMap<String, usize> = BTreeMap::new();
    let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
    // Families in order of first sample; the last one is still open.
    let mut groups: Vec<&str> = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type line has a name");
            let kind = parts.next().expect("type line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "line {lineno}: bad metric kind {kind:?}"
            );
            assert!(
                kinds.insert(name, kind).is_none(),
                "line {lineno}: family {name} declared twice"
            );
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "line {lineno}: unexpected comment {line:?}"
        );
        let (series_part, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line {lineno}: sample without a value: {line:?}"));
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("line {lineno}: unparseable value {value:?} in {line:?}"));
        let name = series_part.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "line {lineno}: bad metric name {name:?}"
        );
        if let Some(labels) = series_part.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "line {lineno}: malformed labels {labels:?}"
                );
            }
        }
        let family = match kinds.get_key_value(name) {
            Some((family, _)) => *family,
            None => ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find_map(|base| kinds.get_key_value(base))
                .filter(|(_, kind)| **kind == "histogram")
                .map(|(family, _)| *family)
                .unwrap_or_else(|| panic!("line {lineno}: no # TYPE declares {name}")),
        };
        if groups.last() != Some(&family) {
            assert!(
                !groups.contains(&family),
                "line {lineno}: family {family} reappears after {}: its samples are not one group",
                groups.last().unwrap()
            );
            groups.push(family);
        }
        *series.entry(name.to_string()).or_default() += 1;
    }
    series
}

/// The instrumentation is live under `observability = on`: metrics
/// actually record (`un_nf_deliver_ns_count`, the span histograms) and
/// the conservation ledger balances, before and after a repair.
#[test]
fn metrics_endpoint_serves_parseable_exposition_over_tcp() {
    let domain = observed_domain();
    let server = serve_cluster(domain.clone(), "127.0.0.1:0").expect("bind");
    let (status, headers, body) = http_get(server.addr(), "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(
        headers.contains("Content-Type: text/plain"),
        "exposition is text, not JSON: {headers}"
    );

    let series = parse_exposition(&body);
    for name in [
        "un_classifier_lookups_total",
        "un_flow_table_entries",
        "un_node_serving",
        "un_link_frames_total",
        "un_link_hop_frames_total",
        "un_domain_events_total",
        "un_node_events_total",
        "un_conservation_frames_total",
        "un_conservation_balanced",
        "un_nf_deliver_ns_bucket",
        "un_nf_deliver_ns_sum",
        "un_nf_deliver_ns_count",
        "un_node_burst_frames_bucket",
        "un_span_duration_ns_bucket",
        "un_nf_deliver_ns_q",
        "un_span_duration_ns_q",
        "un_events_dropped_total",
    ] {
        assert!(
            series.contains_key(name),
            "missing series {name}; got {:?}",
            series.keys().collect::<Vec<_>>()
        );
    }
    // Every exported histogram carries the full p50/p95/p99 gauge
    // family next to its buckets.
    for q in ["0.5", "0.95", "0.99"] {
        assert!(
            body.contains(&format!("quantile=\"{q}\"")),
            "missing quantile {q}: {body}"
        );
    }
    // The deploy-time plan span is there; the ledger balanced over
    // real traffic.
    assert!(body.contains("un_span_duration_ns_count{span=\"domain.plan\"}"));
    assert!(body.contains("un_conservation_balanced 1\n"), "{body}");

    // A failure repairs the chain onto n1; the next scrape still
    // parses, gains the repair span, and stays balanced.
    domain
        .lock()
        .unwrap()
        .fail_node("n2")
        .expect("repairable failure");
    let (status, _, body) = http_get(server.addr(), "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    parse_exposition(&body);
    assert!(body.contains("un_span_duration_ns_count{span=\"domain.repair\"}"));
    assert!(body.contains("un_conservation_balanced 1\n"), "{body}");
    server.shutdown();
}

#[test]
fn events_endpoint_serves_the_ring_as_json() {
    let domain = observed_domain();
    domain
        .lock()
        .unwrap()
        .fail_node("n2")
        .expect("repairable failure");
    let server = serve_cluster(domain, "127.0.0.1:0").expect("bind");
    let (status, headers, body) = http_get(server.addr(), "/domain/events");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(
        headers.contains("Content-Type: application/json"),
        "{headers}"
    );

    let doc = un_nffg::jsonval::parse(&body).expect("events doc parses as JSON");
    let rendered = doc.render();
    assert!(rendered.contains("\"enabled\":true"), "{rendered}");
    for name in [
        "domain.plan",
        "domain.partition",
        "domain.node.failed",
        "domain.repair",
    ] {
        assert!(rendered.contains(name), "missing event {name}: {rendered}");
    }
    server.shutdown();
}

#[test]
fn events_endpoint_filters_over_http() {
    let domain = observed_domain();
    domain
        .lock()
        .unwrap()
        .fail_node("n2")
        .expect("repairable failure");
    let server = serve_cluster(domain, "127.0.0.1:0").expect("bind");

    // kind= narrows to one event family; matched counts the full ring.
    let (status, _, body) = http_get(server.addr(), "/domain/events?kind=span");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let doc = un_nffg::jsonval::parse(&body).expect("filtered doc parses");
    let rendered = doc.render();
    assert!(rendered.contains("domain.plan"), "{rendered}");
    assert!(!rendered.contains("domain.node.failed"), "{rendered}");

    // limit= pages to the newest N, while matched reports the total.
    let (status, _, body) = http_get(server.addr(), "/domain/events?limit=1");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let doc = un_nffg::jsonval::parse(&body).expect("paged doc parses");
    let events = doc.get("events").and_then(|e| e.as_arr()).expect("array");
    assert_eq!(events.len(), 1);
    let matched = doc
        .get("matched")
        .and_then(|m| m.as_u64())
        .expect("matched");
    assert!(matched > 1, "limit must not shrink matched: {matched}");

    // A since= in the far future filters everything out.
    let far = format!("/domain/events?since={}", u64::MAX - 1);
    let (status, _, body) = http_get(server.addr(), &far);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let doc = un_nffg::jsonval::parse(&body).expect("empty doc parses");
    let events = doc.get("events").and_then(|e| e.as_arr()).expect("array");
    assert!(events.is_empty(), "{body}");

    // Bad parameters are rejected, not ignored.
    for bad in [
        "/domain/events?since=yesterday",
        "/domain/events?limit=-3",
        "/domain/events?frobnicate=1",
    ] {
        let (status, _, _) = http_get(server.addr(), bad);
        assert!(status.starts_with("HTTP/1.1 400"), "{bad}: {status}");
    }
    server.shutdown();
}

#[test]
fn trace_endpoints_over_http() {
    let domain = observed_domain();
    let server = serve_cluster(domain.clone(), "127.0.0.1:0").expect("bind");

    // A synthetic ghost probe renders the full walk...
    let (status, body) = http_post(
        server.addr(),
        "/domain/trace",
        "{\"node\":\"n1\",\"port\":\"eth0\"}",
    );
    assert!(status.starts_with("HTTP/1.1 200"), "{status}: {body}");
    let doc = un_nffg::jsonval::parse(&body).expect("trace doc parses");
    let rendered = doc.render();
    assert!(rendered.contains("\"ghost\":true"), "{rendered}");
    assert!(rendered.contains("ingress"), "{rendered}");
    let hops = doc.get("hops").and_then(|h| h.as_u64()).expect("hops");
    assert!(hops >= 3, "walk too short: {rendered}");

    // ...and moves no counters: the ledger still balances on exactly
    // the 16 real frames the fixture injected.
    let report = domain.lock().unwrap().conservation_report();
    assert_eq!(report.ingress, 16, "ghost probe leaked into the ledger");

    // The ghost probe never lands in the recent-trace ring.
    let (status, _, body) = http_get(server.addr(), "/domain/traces");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let doc = un_nffg::jsonval::parse(&body).expect("ring doc parses");
    let traces = doc.get("traces").and_then(|t| t.as_arr()).expect("array");
    assert!(traces.is_empty(), "{body}");

    // Malformed specs are rejected.
    let (status, _) = http_post(server.addr(), "/domain/trace", "{\"node\":\"n1\"}");
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    server.shutdown();
}

#[test]
fn disabled_observability_serves_empty_but_valid_documents() {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(512));
    n1.add_physical_port("eth0");
    d.add_node(n1);
    let server = serve_cluster(Arc::new(Mutex::new(d)), "127.0.0.1:0").expect("bind");

    // Scrape-time series (health, tables, ledger) still render; the
    // registry contributes nothing because no handle was ever created.
    let (status, _, body) = http_get(server.addr(), "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let series = parse_exposition(&body);
    assert!(series.contains_key("un_node_serving"));
    assert!(!series.contains_key("un_span_duration_ns_bucket"));

    let (status, _, body) = http_get(server.addr(), "/domain/events");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let doc = un_nffg::jsonval::parse(&body).expect("valid JSON");
    assert!(doc.render().contains("\"enabled\":false"));
    server.shutdown();
}
