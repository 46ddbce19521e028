//! The cluster-level API: one REST surface for a whole domain.
//!
//! Mirrors the per-node API one layer up:
//!
//! | Method | Path                        | Meaning                            |
//! |--------|-----------------------------|------------------------------------|
//! | GET    | `/domain`                   | fleet + graphs + links document    |
//! | GET    | `/domain/topology`          | fabric topology + per-link overlay paths |
//! | GET    | `/domain/shared`            | shared-NNF registry: instances, hosts, leases |
//! | GET    | `/domain/availability`      | modeled vs measured availability per graph |
//! | GET    | `/domain/nodes`             | nodes with health (alive/suspect/failed) |
//! | POST   | `/domain/nodes/<n>/fail`    | declare a node failed (repair)     |
//! | POST   | `/domain/nodes/<n>/recover` | bring a failed node back, retry pending |
//! | GET    | `/domain/nffg`              | deployed graph ids                 |
//! | GET    | `/domain/nffg/<id>`         | the original (whole) NF-FG         |
//! | PUT    | `/domain/nffg/<id>`         | deploy or update a graph           |
//! | DELETE | `/domain/nffg/<id>`         | undeploy everywhere                |
//! | GET    | `/metrics`                  | Prometheus text exposition (fleet metrics) |
//! | GET    | `/domain/events`            | recent control-plane events (JSON ring; `?since=&kind=&limit=`) |
//! | GET    | `/domain/verify`            | static network-state verification report |
//! | POST   | `/domain/trace`             | ghost-walk a synthetic frame, return its hop-by-hop trace |
//! | GET    | `/domain/traces`            | ring of recent real traces ([`Domain::inject_traced`]) |
//!
//! This file is the route table: it maps a request onto a
//! [`Domain`] call and picks the status code. Every body it answers
//! with — the JSON documents, the Prometheus exposition, the
//! blast-radius document a `fail` returns (per-graph
//! [`un_domain::RepairOutcome`]) — and both request-side formats (the
//! events query, the probe spec) live in [`crate::render`].

use std::io;
use std::sync::{Arc, Mutex};

use un_domain::Domain;

use crate::http::{serve_with, Request, Response, Server, StatusCode};
use crate::render::{self, EventQuery};

/// A shareable handle to the domain.
pub type DomainHandle = Arc<Mutex<Domain>>;

/// Handle one request against the domain (pure function; used directly
/// by unit tests and by the TCP server loop). Routing and status codes
/// only: every body is built (and every request body parsed) by
/// [`crate::render`].
pub fn handle_cluster(domain: &DomainHandle, req: &Request) -> Response {
    // Poisoned only if an earlier handler panicked holding the domain,
    // possibly mid-update: failing here too is the honest answer. No
    // handler panics on its input (`tests/hostile_input.rs`).
    let mut domain = domain
        .lock()
        .expect("a request handler panicked mid-update");
    let (path, query) = crate::http::split_query(&req.path);
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    let ok = |doc: un_nffg::Json| Response::json(StatusCode::Ok, doc.render());
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => Response::text(StatusCode::Ok, render::metrics(&domain)),
        ("GET", ["domain", "events"]) => match EventQuery::parse(&query) {
            Ok(query) => ok(render::events(&domain, &query)),
            Err(msg) => Response::error(StatusCode::BadRequest, &msg),
        },
        ("GET", ["domain", "traces"]) => ok(render::traces(&domain)),
        ("POST", ["domain", "trace"]) => match render::probe_request(&req.body) {
            Ok((node, port, spec)) => ok(render::trace(&domain.trace_probe(&node, &port, &spec))),
            Err(msg) => Response::error(StatusCode::BadRequest, &msg),
        },
        ("GET", ["domain", "verify"]) => ok(render::verify(&domain)),
        ("GET", ["domain"]) => ok(render::domain(&domain)),
        ("GET", ["domain", "topology"]) => ok(render::topology(&domain)),
        ("GET", ["domain", "shared"]) => ok(render::shared(&domain)),
        ("GET", ["domain", "availability"]) => ok(render::availability(&domain)),
        ("GET", ["domain", "nodes"]) => ok(render::nodes(&domain)),
        ("POST", ["domain", "nodes", name, "fail"]) => match domain.fail_node(name) {
            Ok(report) => ok(render::repair_report(name, &report)),
            Err(e) => Response::error(StatusCode::NotFound, &e.to_string()),
        },
        ("POST", ["domain", "nodes", name, "recover"]) => match domain.recover_node(name) {
            Ok(retried) => ok(render::recovery(name, &retried)),
            Err(e) => Response::error(StatusCode::NotFound, &e.to_string()),
        },
        ("GET", ["domain", "nffg"]) => ok(render::graph_ids(&domain)),
        ("GET", ["domain", "nffg", id]) => match domain.graph(id) {
            Some(g) => Response::json(StatusCode::Ok, un_nffg::to_json(g)),
            None => Response::error(StatusCode::NotFound, &format!("no such graph '{id}'")),
        },
        ("PUT", ["domain", "nffg", id]) => {
            let body = String::from_utf8_lossy(&req.body);
            let graph = match un_nffg::from_json(&body) {
                Ok(g) => g,
                Err(e) => {
                    return Response::error(StatusCode::BadRequest, &format!("bad NF-FG: {e}"))
                }
            };
            if graph.id != *id {
                return Response::error(
                    StatusCode::BadRequest,
                    &format!("path id '{id}' != body id '{}'", graph.id),
                );
            }
            let (result, status) = if domain.graph(id).is_some() {
                (domain.update(&graph), StatusCode::Ok)
            } else {
                (domain.deploy(&graph), StatusCode::Created)
            };
            match result {
                Ok(report) => Response::json(status, render::deploy_report(&report).render()),
                Err(e) => Response::error(StatusCode::BadRequest, &e.to_string()),
            }
        }
        ("DELETE", ["domain", "nffg", id]) => match domain.undeploy(id) {
            Ok(()) => Response::json(StatusCode::Ok, "{\"status\":\"undeployed\"}"),
            Err(e) => Response::error(StatusCode::NotFound, &e.to_string()),
        },
        ("GET", _) | ("PUT", _) | ("DELETE", _) | ("POST", _) => {
            Response::error(StatusCode::NotFound, "unknown resource")
        }
        _ => Response::error(StatusCode::MethodNotAllowed, "unsupported method"),
    }
}

/// The cluster API's server handle.
pub type ClusterServer = Server;

/// Start serving the domain's API on `bind` (e.g. `"127.0.0.1:0"`).
pub fn serve_cluster(domain: DomainHandle, bind: &str) -> io::Result<ClusterServer> {
    serve_with(bind, move |req| handle_cluster(&domain, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use un_core::UniversalNode;
    use un_domain::DeployHints;
    use un_nffg::{Json, NfFgBuilder};
    use un_sim::mem::mb;

    fn domain_handle() -> DomainHandle {
        let mut d = Domain::with_defaults();
        let mut n1 = UniversalNode::new("n1", mb(2048));
        n1.add_physical_port("eth0");
        let mut n2 = UniversalNode::new("n2", mb(2048));
        n2.add_physical_port("eth1");
        d.add_node(n1);
        d.add_node(n2);
        Arc::new(Mutex::new(d))
    }

    fn chain_json(id: &str) -> String {
        let g = NfFgBuilder::new(id, "chain")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("br1", "bridge", 2)
            .nf("br2", "bridge", 2)
            .chain("lan", &["br1", "br2"], "wan")
            .build();
        un_nffg::to_json(&g)
    }

    fn frame() -> un_packet::Packet {
        un_packet::PacketBuilder::new()
            .ethernet(
                un_packet::ethernet::MacAddr::local(1),
                un_packet::ethernet::MacAddr::local(2),
            )
            .ipv4(
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(192, 0, 2, 9),
            )
            .udp(5000, 5001)
            .payload(&[0xAB; 64])
            .build()
    }

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn cluster_deploy_describe_delete() {
        let d = domain_handle();
        let r = handle_cluster(&d, &req("PUT", "/domain/nffg/g1", &chain_json("g1")));
        assert_eq!(r.status, StatusCode::Created, "{}", r.body);
        assert!(r.body.contains("overlay-links"));

        let r = handle_cluster(&d, &req("GET", "/domain", ""));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("\"g1\""));
        let r = handle_cluster(&d, &req("GET", "/domain/nodes", ""));
        assert!(r.body.contains("n1") && r.body.contains("n2"));
        let r = handle_cluster(&d, &req("GET", "/domain/nffg/g1", ""));
        assert!(r.body.contains("forwarding-graph"));

        let r = handle_cluster(&d, &req("DELETE", "/domain/nffg/g1", ""));
        assert_eq!(r.status, StatusCode::Ok);
        let r = handle_cluster(&d, &req("GET", "/domain/nffg/g1", ""));
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn cluster_fail_endpoint_reports_replacement() {
        let d = domain_handle();
        // Give n1 the wan interface so re-placement can succeed, and
        // split the graph so n2 actually hosts a part.
        d.lock()
            .unwrap()
            .node_mut("n1")
            .unwrap()
            .add_physical_port("eth1");
        {
            let mut domain = d.lock().unwrap();
            let g = un_nffg::from_json(&chain_json("g1")).unwrap();
            let hints = DeployHints {
                nf_node: [
                    ("br1".to_string(), "n1".to_string()),
                    ("br2".to_string(), "n2".to_string()),
                ]
                .into(),
                ..DeployHints::default()
            };
            domain.deploy_with(&g, &hints).unwrap();
        }
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/n2/fail", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"replaced\":[\"g1\"]"), "{}", r.body);
        // The blast-radius document rides along: one NF moved, one kept.
        assert!(r.body.contains("\"nfs-moved\":1"), "{}", r.body);
        assert!(r.body.contains("\"nfs-preserved\":1"), "{}", r.body);
        assert!(r.body.contains("\"full-replace\":false"), "{}", r.body);
        // Timing rides along: both clocks are stamped by the repair
        // sweep, so they must be present (and the duration non-zero).
        assert!(r.body.contains("\"repair-duration-ns\":"), "{}", r.body);
        assert!(r.body.contains("\"downtime-estimate-ns\":"), "{}", r.body);
        assert!(!r.body.contains("\"repair-duration-ns\":0,"), "{}", r.body);
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/ghost/fail", ""));
        assert_eq!(r.status, StatusCode::NotFound);

        // Health listing shows the carcass; recover brings it back.
        let r = handle_cluster(&d, &req("GET", "/domain/nodes", ""));
        assert!(r.body.contains("\"n2\""), "{}", r.body);
        assert!(r.body.contains("\"failed\""), "{}", r.body);
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/n2/recover", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"recovered\":\"n2\""), "{}", r.body);
        let r = handle_cluster(&d, &req("GET", "/domain/nodes", ""));
        assert!(!r.body.contains("\"failed\""), "{}", r.body);
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/ghost/recover", ""));
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn cluster_metrics_and_events_endpoints() {
        use un_domain::DomainConfig;

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
        let d: DomainHandle = Arc::new(Mutex::new(d));
        {
            let mut domain = d.lock().unwrap();
            let g = un_nffg::from_json(&chain_json("g1")).unwrap();
            let hints = DeployHints {
                nf_node: [
                    ("br1".to_string(), "n1".to_string()),
                    ("br2".to_string(), "n2".to_string()),
                ]
                .into(),
                ..DeployHints::default()
            };
            domain.deploy_with(&g, &hints).unwrap();
            // Drive one frame through so link/classifier series exist.
            domain.inject("n1", "eth0", frame());
        }
        // Scrape before the failure: the repair moves br2 onto n1,
        // which collapses the overlay link (and its hop series).
        let r = handle_cluster(&d, &req("GET", "/metrics", ""));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(
            r.content_type.starts_with("text/plain"),
            "{}",
            r.content_type
        );
        for series in [
            "# TYPE un_classifier_lookups_total counter",
            "# TYPE un_link_frames_total counter",
            "un_link_hop_frames_total{",
            "# TYPE un_conservation_balanced gauge",
            "un_conservation_balanced 1",
            "un_span_duration_ns_bucket{",
            "un_domain_events_total{",
        ] {
            assert!(r.body.contains(series), "missing {series} in:\n{}", r.body);
        }

        // A failure exercises the repair span + failure event.
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/n2/fail", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        let r = handle_cluster(&d, &req("GET", "/metrics", ""));
        assert!(
            r.body
                .contains("un_span_duration_ns_bucket{span=\"domain.repair\""),
            "{}",
            r.body
        );

        let r = handle_cluster(&d, &req("GET", "/domain/events", ""));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("\"enabled\":true"), "{}", r.body);
        assert!(r.body.contains("domain.plan"), "{}", r.body);
        assert!(r.body.contains("domain.node.failed"), "{}", r.body);
        assert!(r.body.contains("domain.repair"), "{}", r.body);
    }

    #[test]
    fn cluster_events_filters_and_pagination() {
        use un_domain::DomainConfig;
        let mut d = Domain::new(DomainConfig {
            observability: true,
            ..DomainConfig::default()
        });
        let mut n1 = UniversalNode::new("n1", mb(2048));
        n1.add_physical_port("eth0");
        n1.add_physical_port("eth1");
        d.add_node(n1);
        let d: DomainHandle = Arc::new(Mutex::new(d));
        let r = handle_cluster(&d, &req("PUT", "/domain/nffg/g1", &chain_json("g1")));
        assert_eq!(r.status, StatusCode::Created, "{}", r.body);

        // Unfiltered: plan + deploy spans are in the ring.
        let r = handle_cluster(&d, &req("GET", "/domain/events", ""));
        assert!(r.body.contains("domain.plan"), "{}", r.body);
        let all = un_nffg::jsonval::parse(&r.body).unwrap();
        let total = all.req_u64("matched").unwrap();
        assert!(total >= 2, "{}", r.body);

        // kind filter keeps only spans; a bogus kind matches nothing.
        let r = handle_cluster(&d, &req("GET", "/domain/events?kind=span", ""));
        let doc = un_nffg::jsonval::parse(&r.body).unwrap();
        assert!(doc.req_u64("matched").unwrap() >= 1, "{}", r.body);
        let r = handle_cluster(&d, &req("GET", "/domain/events?kind=nope", ""));
        let doc = un_nffg::jsonval::parse(&r.body).unwrap();
        assert_eq!(doc.req_u64("matched").unwrap(), 0, "{}", r.body);
        assert!(r.body.contains("\"events\":[]"), "{}", r.body);

        // limit pages down to the newest N but reports the full match
        // count; since drops everything at/before the given offset.
        let r = handle_cluster(&d, &req("GET", "/domain/events?limit=1", ""));
        let doc = un_nffg::jsonval::parse(&r.body).unwrap();
        assert_eq!(doc.req_u64("matched").unwrap(), total, "{}", r.body);
        let Some(Json::Arr(events)) = doc.get("events") else {
            panic!("no events array: {}", r.body);
        };
        assert_eq!(events.len(), 1, "{}", r.body);
        let r = handle_cluster(
            &d,
            &req("GET", "/domain/events?since=18446744073709551614", ""),
        );
        let doc = un_nffg::jsonval::parse(&r.body).unwrap();
        assert_eq!(doc.req_u64("matched").unwrap(), 0, "{}", r.body);

        // Bad parameter values are a 400, not a silent full listing.
        for bad in [
            "/domain/events?since=soon",
            "/domain/events?limit=-1",
            "/domain/events?color=red",
        ] {
            let r = handle_cluster(&d, &req("GET", bad, ""));
            assert_eq!(r.status, StatusCode::BadRequest, "{bad}: {}", r.body);
        }

        // The event-ring overflow counter is exported.
        let r = handle_cluster(&d, &req("GET", "/metrics", ""));
        assert!(
            r.body.contains("# TYPE un_events_dropped_total counter"),
            "{}",
            r.body
        );
        assert!(r.body.contains("\nun_events_dropped_total "), "{}", r.body);
    }

    #[test]
    fn cluster_trace_endpoints() {
        let d = domain_handle();
        d.lock()
            .unwrap()
            .node_mut("n1")
            .unwrap()
            .add_physical_port("eth1");
        {
            let mut domain = d.lock().unwrap();
            let g = un_nffg::from_json(&chain_json("g1")).unwrap();
            let hints = DeployHints {
                nf_node: [
                    ("br1".to_string(), "n1".to_string()),
                    ("br2".to_string(), "n2".to_string()),
                ]
                .into(),
                ..DeployHints::default()
            };
            domain.deploy_with(&g, &hints).unwrap();
        }

        // Ghost probe: full walk, counters untouched.
        let before = d.lock().unwrap().conservation_report();
        let r = handle_cluster(
            &d,
            &req(
                "POST",
                "/domain/trace",
                "{\"node\":\"n1\",\"port\":\"eth0\"}",
            ),
        );
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        let doc = un_nffg::jsonval::parse(&r.body).unwrap();
        assert_eq!(doc.get("ghost"), Some(&Json::Bool(true)), "{}", r.body);
        assert!(doc.req_u64("hops").unwrap() >= 3, "{}", r.body);
        let rendered = doc.get("rendered").unwrap().as_str().unwrap();
        assert!(rendered.contains("ingress"), "{rendered}");
        assert!(rendered.contains("classify"), "{rendered}");
        assert!(rendered.contains("overlay"), "{rendered}");
        let after = d.lock().unwrap().conservation_report();
        assert_eq!(before.ingress, after.ingress, "ghost moved the ledger");
        assert_eq!(before.egress, after.egress, "ghost moved the ledger");

        // Ghost probes never land in the ring; a traced inject does.
        let r = handle_cluster(&d, &req("GET", "/domain/traces", ""));
        assert!(r.body.contains("\"traces\":[]"), "{}", r.body);
        d.lock().unwrap().inject_traced("n1", "eth0", frame(), 1);
        let r = handle_cluster(&d, &req("GET", "/domain/traces", ""));
        assert!(r.body.contains("\"ghost\":false"), "{}", r.body);
        assert!(r.body.contains("\"origin-node\":\"n1\""), "{}", r.body);

        // Bad probe specs are rejected.
        for bad in [
            "not json",
            "{\"node\":\"n1\"}",
            "{\"node\":\"n1\",\"port\":\"eth0\",\"src-ip\":\"home\"}",
        ] {
            let r = handle_cluster(&d, &req("POST", "/domain/trace", bad));
            assert_eq!(r.status, StatusCode::BadRequest, "{bad}: {}", r.body);
        }
        // Probing an unknown node is a clean drop trace, not an error.
        let r = handle_cluster(
            &d,
            &req(
                "POST",
                "/domain/trace",
                "{\"node\":\"ghost\",\"port\":\"eth0\"}",
            ),
        );
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("inject_unknown_node"), "{}", r.body);
    }

    #[test]
    fn cluster_verify_endpoint_reports_clean_state() {
        let d = domain_handle();
        let r = handle_cluster(&d, &req("PUT", "/domain/nffg/g1", &chain_json("g1")));
        assert_eq!(r.status, StatusCode::Created, "{}", r.body);

        let r = handle_cluster(&d, &req("GET", "/domain/verify", ""));
        assert_eq!(r.status, StatusCode::Ok);
        let doc = un_nffg::jsonval::parse(&r.body).expect("verify doc parses");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", r.body);
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("full"));
        assert!(doc.req_u64("graphs-checked").unwrap() >= 1);
        assert!(doc.req_u64("rules-checked").unwrap() > 0);
        assert_eq!(doc.get("violations"), Some(&Json::Arr(Vec::new())));

        // Nothing changed since: the second pass is incremental and
        // reuses every cached result.
        let r = handle_cluster(&d, &req("GET", "/domain/verify", ""));
        let doc = un_nffg::jsonval::parse(&r.body).expect("verify doc parses");
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("incremental"));
        assert_eq!(doc.req_u64("graphs-checked").unwrap(), 0);
        assert!(doc.req_u64("graphs-reused").unwrap() >= 1);
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", r.body);
    }

    #[test]
    fn cluster_reports_topology_and_paths() {
        use un_domain::{DomainConfig, EdgeAttrs, Topology};
        use un_sim::mem::mb as mbytes;
        let mut d = Domain::new(DomainConfig {
            topology: Topology::line(&["n1", "n2", "n3"], EdgeAttrs::default()),
            ..DomainConfig::default()
        });
        let mut n1 = UniversalNode::new("n1", mbytes(2048));
        n1.add_physical_port("eth0");
        let n2 = UniversalNode::new("n2", mbytes(2048));
        let mut n3 = UniversalNode::new("n3", mbytes(2048));
        n3.add_physical_port("eth1");
        d.add_node(n1);
        d.add_node(n2);
        d.add_node(n3);
        let d: DomainHandle = Arc::new(Mutex::new(d));

        // Before any deploy: mode + edges, no paths.
        let r = handle_cluster(&d, &req("GET", "/domain/topology", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"explicit\""), "{}", r.body);
        assert!(r.body.contains("\"latency-ns\""), "{}", r.body);
        assert!(r.body.contains("\"capacity-bps\""), "{}", r.body);

        // A deploy split across the ends pins multi-hop paths over n2.
        {
            let g = un_nffg::from_json(&chain_json("g1")).unwrap();
            let hints = DeployHints {
                nf_node: [
                    ("br1".to_string(), "n1".to_string()),
                    ("br2".to_string(), "n3".to_string()),
                ]
                .into(),
                ..DeployHints::default()
            };
            d.lock().unwrap().deploy_with(&g, &hints).unwrap();
        }
        let r = handle_cluster(&d, &req("GET", "/domain/topology", ""));
        assert!(
            r.body.contains("\"path\":[\"n1\",\"n2\",\"n3\"]"),
            "{}",
            r.body
        );
        assert!(r.body.contains("\"hops\":2"), "{}", r.body);
        // The links section of /domain carries the path too.
        let r = handle_cluster(&d, &req("GET", "/domain", ""));
        assert!(r.body.contains("\"path\""), "{}", r.body);
    }

    #[test]
    fn cluster_reports_shared_registry_and_lease_docs() {
        use un_domain::{DomainConfig, SharingConfig};
        let mut d = Domain::new(DomainConfig {
            sharing: SharingConfig::for_types(&["nat"]),
            ..DomainConfig::default()
        });
        for name in ["n1", "n2"] {
            let mut n = UniversalNode::new(name, mb(2048));
            n.add_physical_port("eth0");
            n.add_physical_port("eth1");
            d.add_node(n);
        }
        let d: DomainHandle = Arc::new(Mutex::new(d));

        // Empty registry before any tenant.
        let r = handle_cluster(&d, &req("GET", "/domain/shared", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"enabled\":true"), "{}", r.body);
        assert!(r.body.contains("\"instances\":[]"), "{}", r.body);

        // Two tenants on two nodes share one instance.
        for (i, node) in ["n1", "n2"].iter().enumerate() {
            let cfg = un_nffg::NfConfig::default()
                .with_param("lan-addr", "192.168.1.1/24")
                .with_param("wan-addr", &format!("203.0.113.{}/24", i + 1));
            let g = NfFgBuilder::new(&format!("t{}", i + 1), "nat service")
                .vlan_endpoint("lan", "eth0", 11 + i as u16)
                .vlan_endpoint("wan", "eth1", 11 + i as u16)
                .nf_with_config("nat", "nat", 2, cfg)
                .chain("lan", &["nat"], "wan")
                .build();
            let hints = DeployHints {
                endpoint_node: [
                    ("lan".to_string(), node.to_string()),
                    ("wan".to_string(), node.to_string()),
                ]
                .into(),
                ..DeployHints::default()
            };
            d.lock().unwrap().deploy_with(&g, &hints).unwrap();
        }
        let r = handle_cluster(&d, &req("GET", "/domain/shared", ""));
        assert!(r.body.contains("\"type\":\"nat\""), "{}", r.body);
        assert!(r.body.contains("\"host\":\"n1\""), "{}", r.body);
        assert!(r.body.contains("\"tenants\":2"), "{}", r.body);
        assert!(r.body.contains("\"graph\":\"t2\""), "{}", r.body);
        // Per-graph lease docs ride the fleet document.
        let r = handle_cluster(&d, &req("GET", "/domain", ""));
        assert!(r.body.contains("\"shared-leases\""), "{}", r.body);

        // Failing the host surfaces the shared blast radius.
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/n1/fail", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"shared-nfs-moved\":1"), "{}", r.body);
        assert!(r.body.contains("\"instance\":\"nat\""), "{}", r.body);
        let r = handle_cluster(&d, &req("GET", "/domain/shared", ""));
        assert!(r.body.contains("\"host\":\"n2\""), "{}", r.body);
    }

    #[test]
    fn cluster_reports_availability_and_standby_promotion() {
        let d = domain_handle();
        // n1 also carries eth1 so the repair can collapse onto it.
        d.lock()
            .unwrap()
            .node_mut("n1")
            .unwrap()
            .add_physical_port("eth1");
        {
            let mut domain = d.lock().unwrap();
            let g = un_nffg::from_json(&chain_json("g1")).unwrap();
            let hints = DeployHints {
                nf_node: [
                    ("br1".to_string(), "n1".to_string()),
                    ("br2".to_string(), "n2".to_string()),
                ]
                .into(),
                ..DeployHints::default()
            };
            domain.deploy_with(&g, &hints).unwrap();
        }
        // Before any repair: predictions only.
        let r = handle_cluster(&d, &req("GET", "/domain/availability", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"node-mtbf-ns\""), "{}", r.body);
        assert!(r.body.contains("\"repair-events\":0"), "{}", r.body);
        assert!(r.body.contains("\"predicted-availability\""), "{}", r.body);
        assert!(r.body.contains("\"standby-ready\":false"), "{}", r.body);

        // Suspect → fail: the blast-radius doc reports the promotion
        // and the availability doc records both downtime streams.
        d.lock().unwrap().suspect_node("n2").unwrap();
        let r = handle_cluster(&d, &req("GET", "/domain/availability", ""));
        assert!(r.body.contains("\"standby-ready\":true"), "{}", r.body);
        let r = handle_cluster(&d, &req("POST", "/domain/nodes/n2/fail", ""));
        assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
        assert!(r.body.contains("\"standby-promoted\":true"), "{}", r.body);
        assert!(r.body.contains("\"modeled-downtime-ns\":"), "{}", r.body);
        let r = handle_cluster(&d, &req("GET", "/domain/availability", ""));
        assert!(r.body.contains("\"repair-events\":1"), "{}", r.body);
        assert!(r.body.contains("\"standby-promotions\":1"), "{}", r.body);
        assert!(
            !r.body.contains("\"measured-downtime-ns\":0,"),
            "{}",
            r.body
        );
    }

    /// A fleet that exercises every branch of the renderers: an
    /// explicit line fabric (multi-hop paths), a shared NAT lease, a
    /// split chain with traffic on its wires, one suspect and one
    /// failed node, observability on.
    fn golden_domain() -> DomainHandle {
        use un_domain::{DomainConfig, EdgeAttrs, SharingConfig, Topology};
        let mut d = Domain::new(DomainConfig {
            topology: Topology::line(&["n1", "n2", "n3", "n4"], EdgeAttrs::default()),
            sharing: SharingConfig::for_types(&["nat"]),
            observability: true,
            ..DomainConfig::default()
        });
        for name in ["n1", "n2", "n3", "n4"] {
            let mut n = UniversalNode::new(name, mb(2048));
            if name == "n1" || name == "n3" {
                n.add_physical_port("eth0");
                n.add_physical_port("eth1");
            }
            d.add_node(n);
        }
        let g = un_nffg::from_json(&chain_json("g1")).unwrap();
        let hints = DeployHints {
            nf_node: [
                ("br1".to_string(), "n1".to_string()),
                ("br2".to_string(), "n3".to_string()),
            ]
            .into(),
            endpoint_node: [
                ("lan".to_string(), "n1".to_string()),
                ("wan".to_string(), "n3".to_string()),
            ]
            .into(),
            ..DeployHints::default()
        };
        d.deploy_with(&g, &hints).unwrap();
        let cfg = un_nffg::NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24");
        let t = NfFgBuilder::new("t1", "nat service")
            .vlan_endpoint("lan", "eth0", 11)
            .vlan_endpoint("wan", "eth1", 11)
            .nf_with_config("nat", "nat", 2, cfg)
            .chain("lan", &["nat"], "wan")
            .build();
        let hints = DeployHints {
            endpoint_node: [
                ("lan".to_string(), "n3".to_string()),
                ("wan".to_string(), "n3".to_string()),
            ]
            .into(),
            ..DeployHints::default()
        };
        d.deploy_with(&t, &hints).unwrap();
        for _ in 0..3 {
            assert_eq!(d.inject("n1", "eth0", frame()).emitted.len(), 1);
        }
        d.suspect_node("n2").unwrap();
        d.fail_node("n4").unwrap();
        Arc::new(Mutex::new(d))
    }

    /// Zero the two wall-clock fields (`at-ns`, `duration-ns`): the
    /// only parts of a document that differ between two runs.
    fn without_clocks(body: &str) -> String {
        let mut out = String::with_capacity(body.len());
        let mut rest = body;
        while let Some(at) = ["\"at-ns\":", "\"duration-ns\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|i| i + key.len()))
            .min()
        {
            let (head, tail) = rest.split_at(at);
            out.push_str(head);
            out.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    /// The wire format is frozen: every document below was captured
    /// from the renderers `un-domain` carried before they moved to
    /// [`crate::render`], on exactly this fleet, and must stay
    /// byte-identical (wall-clock fields zeroed).
    #[test]
    fn documents_match_the_goldens_captured_before_the_move() {
        let d = golden_domain();
        for (route, golden) in [
            ("/domain", include_str!("../golden/domain.json")),
            ("/domain/nodes", include_str!("../golden/nodes.json")),
            ("/domain/topology", include_str!("../golden/topology.json")),
            ("/domain/shared", include_str!("../golden/shared.json")),
            (
                "/domain/availability",
                include_str!("../golden/availability.json"),
            ),
            ("/domain/events", include_str!("../golden/events.json")),
            (
                "/domain/events?kind=span&limit=2",
                include_str!("../golden/events_filtered.json"),
            ),
            ("/domain/verify", include_str!("../golden/verify.json")),
        ] {
            let r = handle_cluster(&d, &req("GET", route, ""));
            assert_eq!(r.status, StatusCode::Ok, "{route}");
            assert_eq!(without_clocks(&r.body), golden, "{route}");
        }

        // `/metrics`: the scraped section (everything up to the
        // registry's wall-clock histograms) carries the same lines;
        // only their order inside the link families moved, so that
        // each family is one contiguous group.
        let r = handle_cluster(&d, &req("GET", "/metrics", ""));
        let golden = include_str!("../golden/metrics_scrape.txt");
        // Same lines in another order: same length.
        let mut lines: Vec<&str> = r.body[..golden.len()].lines().collect();
        let mut golden: Vec<&str> = golden.lines().collect();
        assert_ne!(lines, golden, "the parent interleaved the link families");
        lines.sort_unstable();
        golden.sort_unstable();
        assert_eq!(lines, golden);

        // Tear g1's egress part out from under the domain: the verify
        // document then carries violations.
        d.lock()
            .unwrap()
            .node_mut("n3")
            .unwrap()
            .undeploy("g1")
            .unwrap();
        let r = handle_cluster(&d, &req("GET", "/domain/verify", ""));
        assert_eq!(
            without_clocks(&r.body),
            include_str!("../golden/verify_broken.json")
        );
    }

    #[test]
    fn cluster_rejects_bad_requests() {
        let d = domain_handle();
        let r = handle_cluster(&d, &req("PUT", "/domain/nffg/g1", "not json"));
        assert_eq!(r.status, StatusCode::BadRequest);
        let r = handle_cluster(&d, &req("PUT", "/domain/nffg/other", &chain_json("g1")));
        assert_eq!(r.status, StatusCode::BadRequest);
        let r = handle_cluster(&d, &req("PATCH", "/domain", ""));
        assert_eq!(r.status, StatusCode::MethodNotAllowed);
        let r = handle_cluster(&d, &req("GET", "/teapot", ""));
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn cluster_serves_over_real_tcp() {
        use std::io::{Read, Write};
        let d = domain_handle();
        let server = serve_cluster(d, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let body = chain_json("g1");
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "PUT /domain/nffg/g1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 201 Created"), "{resp}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /domain HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("\"g1\""), "{resp}");

        server.shutdown();
    }
}
