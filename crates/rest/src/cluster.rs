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
//! The fail response carries the per-graph [`un_domain::RepairOutcome`]
//! (`repairs`: NFs moved/preserved, links rewired/kept, nodes touched,
//! whether the repair fell back to a full re-place, the
//! shared-tenancy share — NFs that moved because a shared instance was
//! re-hosted — plus the wall-clock `repair-duration-ns` and the
//! `downtime-estimate-ns` from failure declaration to that graph's
//! repair completing) so operators can see each failure's blast radius.
//! The `/domain` document lists each graph's shared-NNF leases.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use un_domain::{Domain, NodeHealth, ProbeSpec, ReplacementReport};
use un_nffg::Json;

use crate::http::{read_request, write_response, Request, Response, StatusCode};

/// A shareable handle to the domain.
pub type DomainHandle = Arc<Mutex<Domain>>;

/// Serialize a failure's repair report (the blast-radius document).
fn repair_report_json(name: &str, report: &ReplacementReport) -> String {
    Json::obj()
        .set("failed", name)
        .set(
            "replaced",
            Json::Arr(
                report
                    .replaced
                    .iter()
                    .map(|g| Json::from(g.as_str()))
                    .collect(),
            ),
        )
        .set(
            "stranded",
            Json::Arr(
                report
                    .stranded
                    .iter()
                    .map(|g| Json::from(g.as_str()))
                    .collect(),
            ),
        )
        .set(
            "repairs",
            Json::Arr(
                report
                    .repairs
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("graph", r.graph.as_str())
                            .set("nfs-moved", r.nfs_moved)
                            .set("nfs-preserved", r.nfs_preserved)
                            .set("links-rewired", r.links_rewired)
                            .set("links-kept", r.links_kept)
                            .set("nodes-touched", r.nodes_touched)
                            .set("full-replace", r.full_replace)
                            .set("shared-nfs-moved", r.shared_nfs_moved)
                            .set("standby-promoted", r.standby_promoted)
                            .set("repair-duration-ns", r.repair_duration_ns)
                            .set("downtime-estimate-ns", r.downtime_estimate_ns)
                            .set("modeled-downtime-ns", r.modeled_downtime_ns)
                            .set(
                                "shared-migrated",
                                Json::Arr(
                                    r.shared_migrated
                                        .iter()
                                        .map(|(key, host)| {
                                            Json::obj()
                                                .set("instance", key.as_str())
                                                .set("host", host.as_str())
                                        })
                                        .collect(),
                                ),
                            )
                    })
                    .collect(),
            ),
        )
        .render()
}

/// Handle one request against the domain (pure function; used directly
/// by unit tests and by the TCP server loop).
pub fn handle_cluster(domain: &DomainHandle, req: &Request) -> Response {
    let mut domain = domain
        .lock()
        .expect("a request handler panicked mid-update");
    let (path, query) = crate::http::split_query(&req.path);
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["metrics"]) => Response::text(StatusCode::Ok, domain.metrics_prometheus()),
        ("GET", ["domain", "events"]) => {
            let mut since = None;
            let mut kind = None;
            let mut limit = None;
            for (k, v) in &query {
                match *k {
                    "since" => match v.parse::<u64>() {
                        Ok(n) => since = Some(n),
                        Err(_) => {
                            return Response::error(
                                StatusCode::BadRequest,
                                &format!("bad 'since' value '{v}' (want ns offset)"),
                            )
                        }
                    },
                    "kind" => kind = Some(*v),
                    "limit" => match v.parse::<usize>() {
                        Ok(n) => limit = Some(n),
                        Err(_) => {
                            return Response::error(
                                StatusCode::BadRequest,
                                &format!("bad 'limit' value '{v}' (want a count)"),
                            )
                        }
                    },
                    other => {
                        return Response::error(
                            StatusCode::BadRequest,
                            &format!("unknown query parameter '{other}'"),
                        )
                    }
                }
            }
            Response::json(
                StatusCode::Ok,
                domain.events_doc_filtered(since, kind, limit).render(),
            )
        }
        ("GET", ["domain", "traces"]) => {
            Response::json(StatusCode::Ok, domain.traces_doc().render())
        }
        ("POST", ["domain", "trace"]) => {
            let body = String::from_utf8_lossy(&req.body);
            let doc = match un_nffg::jsonval::parse(&body) {
                Ok(doc) => doc,
                Err(e) => {
                    return Response::error(StatusCode::BadRequest, &format!("bad probe spec: {e}"))
                }
            };
            let (node, port) = match (doc.req_str("node"), doc.req_str("port")) {
                (Ok(n), Ok(p)) => (n, p),
                _ => {
                    return Response::error(
                        StatusCode::BadRequest,
                        "probe spec needs 'node' and 'port'",
                    )
                }
            };
            let mut spec = ProbeSpec::default();
            if let Some(n) = doc.get("payload-len").and_then(Json::as_u64) {
                spec.payload_len = n as usize;
            }
            if let Some(n) = doc.get("src-port").and_then(Json::as_u64) {
                spec.src_port = n as u16;
            }
            if let Some(n) = doc.get("dst-port").and_then(Json::as_u64) {
                spec.dst_port = n as u16;
            }
            if let Some(n) = doc.get("vlan").and_then(Json::as_u64) {
                spec.vlan = Some(n as u16);
            }
            for (key, slot) in [("src-ip", &mut spec.src_ip), ("dst-ip", &mut spec.dst_ip)] {
                if let Some(s) = doc.get(key).and_then(Json::as_str) {
                    match s.parse() {
                        Ok(ip) => *slot = ip,
                        Err(_) => {
                            return Response::error(
                                StatusCode::BadRequest,
                                &format!("bad '{key}' value '{s}'"),
                            )
                        }
                    }
                }
            }
            let trace = domain.trace_probe(&node, &port, &spec);
            Response::json(StatusCode::Ok, Domain::trace_doc(&trace).render())
        }
        ("GET", ["domain", "verify"]) => {
            Response::json(StatusCode::Ok, domain.verify_doc().render())
        }
        ("GET", ["domain"]) => Response::json(StatusCode::Ok, domain.describe().render()),
        ("GET", ["domain", "topology"]) => {
            Response::json(StatusCode::Ok, domain.topology_doc().render())
        }
        ("GET", ["domain", "shared"]) => {
            Response::json(StatusCode::Ok, domain.shared_doc().render())
        }
        ("GET", ["domain", "availability"]) => {
            Response::json(StatusCode::Ok, domain.availability_doc().render())
        }
        ("GET", ["domain", "nodes"]) => {
            let nodes: Vec<Json> = domain
                .node_names()
                .iter()
                .map(|name| {
                    let health = match domain.health(name) {
                        Some(NodeHealth::Alive) => "alive",
                        Some(NodeHealth::Suspect) => "suspect",
                        _ => "failed",
                    };
                    Json::obj().set("name", name.as_str()).set("health", health)
                })
                .collect();
            Response::json(StatusCode::Ok, Json::Arr(nodes).render())
        }
        ("POST", ["domain", "nodes", name, "fail"]) => match domain.fail_node(name) {
            Ok(report) => Response::json(StatusCode::Ok, repair_report_json(name, &report)),
            Err(e) => Response::error(StatusCode::NotFound, &e.to_string()),
        },
        ("POST", ["domain", "nodes", name, "recover"]) => match domain.recover_node(name) {
            Ok(retried) => {
                let body = Json::obj().set("recovered", *name).set(
                    "retried",
                    Json::Arr(retried.iter().map(|g| Json::from(g.as_str())).collect()),
                );
                Response::json(StatusCode::Ok, body.render())
            }
            Err(e) => Response::error(StatusCode::NotFound, &e.to_string()),
        },
        ("GET", ["domain", "nffg"]) => {
            let ids = domain.graph_ids();
            let body = Json::Arr(ids.iter().map(|i| Json::from(i.as_str())).collect());
            Response::json(StatusCode::Ok, body.render())
        }
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
            let exists = domain.graph(id).is_some();
            let result = if exists {
                domain.update(&graph)
            } else {
                domain.deploy(&graph)
            };
            match result {
                Ok(report) => {
                    let body = Json::obj()
                        .set("graph", report.graph.as_str())
                        .set("overlay-links", report.overlay_links)
                        .set(
                            "nodes",
                            Json::Arr(
                                report
                                    .per_node
                                    .iter()
                                    .map(|(node, r)| {
                                        Json::obj()
                                            .set("node", node.as_str())
                                            .set("flow-entries", r.flow_entries)
                                            .set("placements", r.placements.len())
                                    })
                                    .collect(),
                            ),
                        );
                    let status = if exists {
                        StatusCode::Ok
                    } else {
                        StatusCode::Created
                    };
                    Response::json(status, body.render())
                }
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

/// A running cluster REST server (thread per connection).
pub struct ClusterServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ClusterServer {
    /// The bound address (use port 0 to pick a free one).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the acceptor thread (same teardown as
    /// `Drop`; this form just makes the stop explicit at call sites).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Start serving the domain's API on `bind` (e.g. `"127.0.0.1:0"`).
pub fn serve_cluster(domain: DomainHandle, bind: &str) -> io::Result<ClusterServer> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop2.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let domain = domain.clone();
            std::thread::spawn(move || {
                let Ok(peer_read) = stream.try_clone() else {
                    return;
                };
                if let Some(req) = read_request(peer_read) {
                    let resp = handle_cluster(&domain, &req);
                    let _ = write_response(&stream, &resp);
                }
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
        }
    });
    Ok(ClusterServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_core::UniversalNode;
    use un_domain::DeployHints;
    use un_nffg::NfFgBuilder;
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
        use un_packet::ethernet::MacAddr;
        use un_packet::PacketBuilder;

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
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(
                    std::net::Ipv4Addr::new(10, 0, 0, 1),
                    std::net::Ipv4Addr::new(192, 0, 2, 9),
                )
                .udp(5000, 5001)
                .payload(&[0xAB; 64])
                .build();
            domain.inject("n1", "eth0", pkt);
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
        {
            use un_packet::ethernet::MacAddr;
            use un_packet::PacketBuilder;
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(
                    std::net::Ipv4Addr::new(10, 0, 0, 1),
                    std::net::Ipv4Addr::new(192, 0, 2, 9),
                )
                .udp(5000, 5001)
                .payload(&[0xAB; 64])
                .build();
            d.lock().unwrap().inject_traced("n1", "eth0", pkt, 1);
        }
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
