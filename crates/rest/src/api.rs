//! The orchestrator API over TCP.

use std::io;
use std::sync::{Arc, Mutex};

use un_core::UniversalNode;
use un_nffg::Json;

use crate::http::{serve_with, Request, Response, Server, StatusCode};

/// A shareable handle to the node.
pub type NodeHandle = Arc<Mutex<UniversalNode>>;

/// Handle one request against the node (pure function; used directly by
/// unit tests and by the TCP server loop).
pub fn handle(node: &NodeHandle, req: &Request) -> Response {
    let mut node = node.lock().expect("a request handler panicked mid-update");
    let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["node"]) => {
            let desc = node.describe();
            Response::json(StatusCode::Ok, desc.to_json())
        }
        ("GET", ["nffg"]) => {
            let ids = node.graph_ids();
            let list = Json::Arr(ids.iter().map(|i| Json::from(i.as_str())).collect());
            Response::json(StatusCode::Ok, list.render())
        }
        ("GET", ["nffg", id]) => match node.graph(id) {
            Some(g) => Response::json(StatusCode::Ok, un_nffg::to_json(g)),
            None => Response::error(StatusCode::NotFound, &format!("no such graph '{id}'")),
        },
        ("PUT", ["nffg", id]) => {
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
            let exists = node.graph(id).is_some();
            let result = if exists {
                node.update(&graph)
            } else {
                node.deploy(&graph)
            };
            match result {
                Ok(report) => {
                    let placements: Vec<Json> = report
                        .placements
                        .iter()
                        .map(|(nf, flavor, inst, shared)| {
                            Json::obj()
                                .set("nf", nf.as_str())
                                .set("flavor", flavor.to_string())
                                .set("instance", inst.to_string())
                                .set("shared", *shared)
                        })
                        .collect();
                    let body = Json::obj()
                        .set("graph", report.graph.as_str())
                        .set("flow-entries", report.flow_entries)
                        .set("placements", Json::Arr(placements));
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
        ("DELETE", ["nffg", id]) => match node.undeploy(id) {
            Ok(()) => Response::json(StatusCode::Ok, "{\"status\":\"undeployed\"}"),
            Err(e) => Response::error(StatusCode::NotFound, &e.to_string()),
        },
        ("GET", _) | ("PUT", _) | ("DELETE", _) => {
            Response::error(StatusCode::NotFound, "unknown resource")
        }
        _ => Response::error(StatusCode::MethodNotAllowed, "unsupported method"),
    }
}

/// The node API's server handle.
pub type RestServer = Server;

/// Start serving the node's API on `bind` (e.g. `"127.0.0.1:0"`).
pub fn serve(node: NodeHandle, bind: &str) -> io::Result<RestServer> {
    serve_with(bind, move |req| handle(&node, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use un_nffg::NfFgBuilder;
    use un_sim::mem::mb;

    fn node_handle() -> NodeHandle {
        let mut n = UniversalNode::new("rest-cpe", mb(2048));
        n.add_physical_port("eth0");
        n.add_physical_port("eth1");
        Arc::new(Mutex::new(n))
    }

    fn bridge_json(id: &str) -> String {
        let g = NfFgBuilder::new(id, "l2")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("br", "bridge", 2)
            .chain("lan", &["br"], "wan")
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
    fn deploy_get_delete_cycle() {
        let node = node_handle();
        // Deploy.
        let r = handle(&node, &req("PUT", "/nffg/g1", &bridge_json("g1")));
        assert_eq!(r.status, StatusCode::Created, "{}", r.body);
        assert!(r.body.contains("\"native\""));
        // List + fetch.
        let r = handle(&node, &req("GET", "/nffg", ""));
        assert!(r.body.contains("g1"));
        let r = handle(&node, &req("GET", "/nffg/g1", ""));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("forwarding-graph"));
        // Update (idempotent PUT → 200).
        let r = handle(&node, &req("PUT", "/nffg/g1", &bridge_json("g1")));
        assert_eq!(r.status, StatusCode::Ok);
        // Delete.
        let r = handle(&node, &req("DELETE", "/nffg/g1", ""));
        assert_eq!(r.status, StatusCode::Ok);
        let r = handle(&node, &req("GET", "/nffg/g1", ""));
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn rejects_bad_requests() {
        let node = node_handle();
        let r = handle(&node, &req("PUT", "/nffg/g1", "not json"));
        assert_eq!(r.status, StatusCode::BadRequest);
        let r = handle(&node, &req("PUT", "/nffg/other-id", &bridge_json("g1")));
        assert_eq!(r.status, StatusCode::BadRequest);
        let r = handle(&node, &req("DELETE", "/nffg/ghost", ""));
        assert_eq!(r.status, StatusCode::NotFound);
        let r = handle(&node, &req("POST", "/nffg/g1", ""));
        assert_eq!(r.status, StatusCode::MethodNotAllowed);
        let r = handle(&node, &req("GET", "/teapot", ""));
        assert_eq!(r.status, StatusCode::NotFound);
    }

    #[test]
    fn node_description_endpoint() {
        let node = node_handle();
        let r = handle(&node, &req("GET", "/node", ""));
        assert_eq!(r.status, StatusCode::Ok);
        assert!(r.body.contains("\"native\""));
        assert!(r.body.contains("rest-cpe"));
        // Data-plane fast-path counters ride the same document.
        assert!(r.body.contains("\"flow_cache_hits\""), "{}", r.body);
        assert!(r.body.contains("\"flow_cache_misses\""), "{}", r.body);
    }

    #[test]
    fn serves_over_real_tcp() {
        let node = node_handle();
        let server = serve(node, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let body = bridge_json("g1");
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "PUT /nffg/g1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 201 Created"), "{resp}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /node HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("\"graphs\":[\"g1\"]"), "{resp}");

        server.shutdown();
    }
}
