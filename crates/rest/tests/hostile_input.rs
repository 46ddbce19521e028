//! Hostile REST input: 256 PUTs of mutated NF-FG documents and paths
//! through the node API and the cluster API, called directly (no TCP).
//!
//! Every answer is a 2xx or a 4xx, never a panic. A refused PUT leaves
//! the node — and every node of the domain — exactly as it found it:
//! graphs, namespaces, interfaces, memory and instances. An accepted one
//! is deleted again, and the substrate returns to where it started.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use un_core::UniversalNode;
use un_domain::Domain;
use un_nffg::{NfConfig, NfFg, NfFgBuilder};
use un_rest::api::{handle, NodeHandle};
use un_rest::{handle_cluster, DomainHandle, Request, StatusCode};
use un_sim::mem::mb;
use un_sim::DetRng;

const CASES: usize = 256;

fn rule(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn nat() -> NfConfig {
    let mut c = NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "203.0.113.1/24")
        .with_param("wan-gw", "203.0.113.254");
    let web = [
        ("kind", "dnat"),
        ("dport", "8080"),
        ("to", "192.168.1.20"),
        ("to-port", "80"),
    ];
    c.rules.push(rule(&web));
    c
}

fn ipsec() -> NfConfig {
    NfConfig::default()
        .with_param("psk", "hunter2")
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24")
}

fn firewall() -> NfConfig {
    let mut c = NfConfig::default()
        .with_param("addr0", "10.0.0.1/24")
        .with_param("addr1", "10.0.1.1/24")
        .with_param("gw", "10.0.1.254")
        .with_param("policy", "accept");
    let telnet = [("action", "drop"), ("proto", "tcp"), ("dport", "23")];
    c.rules.push(rule(&telnet));
    c
}

/// An NF of a graph: its id, its functional type and its config.
type Nf = (&'static str, &'static str, fn() -> NfConfig);

/// One of four valid graphs from `lan` on eth0 to `wan` on eth1: a NAT,
/// an IPsec CPE, a firewall, or all three in a chain.
fn valid_graph(rng: &mut DetRng, id: &str) -> NfFg {
    let nfs: &[Nf] = match rng.index(4) {
        0 => &[("nat", "nat", nat)],
        1 => &[("vpn", "ipsec", ipsec)],
        2 => &[("fw", "firewall", firewall)],
        _ => &[
            ("fw", "firewall", firewall),
            ("nat", "nat", nat),
            ("vpn", "ipsec", ipsec),
        ],
    };
    let mut b = NfFgBuilder::new(id, "hostile")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for (nf, functional_type, config) in nfs {
        b = b.nf_with_config(nf, functional_type, 2, config());
    }
    let chain: Vec<&str> = nfs.iter().map(|(nf, ..)| *nf).collect();
    b.chain("lan", &chain, "wan").build()
}

/// A value no parser takes for an address, a prefix or a port.
fn garbled(rng: &mut DetRng) -> String {
    let values = [
        "300.1.2.3",
        "10.0.0.1/33",
        "99999",
        "-1",
        "",
        "abc",
        "1.2.3",
        "::1",
    ];
    values[rng.index(values.len())].to_string()
}

/// A valid graph, mutated one of seven ways or left valid, and the path
/// it is PUT to (relative to the API's graph collection).
fn hostile(rng: &mut DetRng) -> (String, Vec<u8>) {
    let id = "t";
    let mut graph = valid_graph(rng, id);
    let mut path = id.to_string();
    let nf = rng.index(graph.nfs.len());
    let config = &mut graph.nfs[nf].config;
    let mutation = rng.index(8);
    match mutation {
        // A required parameter dropped.
        0 => {
            let keys: Vec<String> = config.params.keys().cloned().collect();
            config.params.remove(&keys[rng.index(keys.len())]);
        }
        // A garbled address or port, in the params or a rule.
        1 => {
            let value = garbled(rng);
            match config.rules.first_mut().filter(|_| rng.chance(0.5)) {
                Some(r) => {
                    let keys: Vec<String> = r.keys().cloned().collect();
                    r.insert(keys[rng.index(keys.len())].clone(), value);
                }
                None => {
                    let keys: Vec<String> = config.params.keys().cloned().collect();
                    config
                        .params
                        .insert(keys[rng.index(keys.len())].clone(), value);
                }
            }
        }
        // An unknown functional type.
        2 => graph.nfs[nf].functional_type = "quantum-fw".into(),
        // A mutated path or query.
        3 => {
            let paths = [
                format!("{id}?x=%zz"),
                format!("{id}/extra"),
                format!("/{id}//"),
                String::new(),
                format!("{id}\u{0}"),
                "../node".to_string(),
                format!("{id}?{}", "&".repeat(64)),
            ];
            path = paths[rng.index(paths.len())].clone();
        }
        _ => {}
    }
    let mut body = un_nffg::to_json(&graph).into_bytes();
    let len = body.len();
    match mutation {
        // Byte flips.
        4 => {
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(len);
                body[at] ^= 1 << rng.index(8);
            }
        }
        // A truncation.
        5 => body.truncate(rng.index(len)),
        // A splice: one stretch of the document copied over another.
        6 => {
            let (from, to) = (rng.index(len), rng.index(len));
            let n = rng.index(len - from.max(to)).min(64);
            let stretch = body[from..from + n].to_vec();
            body.splice(to..to + n, stretch);
        }
        _ => {}
    }
    (path, body)
}

/// What a refused PUT must leave as it was, on one node.
#[derive(Debug, PartialEq)]
struct State {
    graphs: Vec<String>,
    namespaces: usize,
    ifaces: usize,
    memory: u64,
    instances: usize,
}

fn state(n: &UniversalNode) -> State {
    State {
        graphs: n.graph_ids(),
        namespaces: n.host.namespace_count(),
        ifaces: n.host.iface_count(),
        memory: n.memory_used(),
        instances: n.total_instances(),
    }
}

fn domain_state(d: &Domain) -> (Vec<String>, Vec<State>) {
    let nodes = d
        .node_names()
        .iter()
        .map(|n| state(d.node(n).unwrap()))
        .collect();
    (d.graph_ids(), nodes)
}

fn node() -> UniversalNode {
    let mut n = UniversalNode::new("cpe", mb(2048));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    n
}

fn request(method: &str, path: &str, body: Vec<u8>) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        body,
    }
}

/// 2xx or 4xx; never a 5xx.
fn answered(status: StatusCode) -> bool {
    matches!(status.parts().0, 200..=299 | 400..=499)
}

#[test]
fn a_hostile_put_is_a_4xx_that_changes_nothing_or_a_2xx() {
    let node: NodeHandle = Arc::new(Mutex::new(node()));
    let domain: DomainHandle = Arc::new(Mutex::new({
        let mut d = Domain::with_defaults();
        let (mut n1, mut n2) = (
            UniversalNode::new("n1", mb(2048)),
            UniversalNode::new("n2", mb(2048)),
        );
        n1.add_physical_port("eth0");
        n2.add_physical_port("eth1");
        d.add_node(n1);
        d.add_node(n2);
        d
    }));
    let node_empty = state(&node.lock().unwrap());
    let domain_empty = domain_state(&domain.lock().unwrap());
    let mut rng = DetRng::new(38);
    let mut refused = 0;
    for case in 0..CASES {
        let (path, body) = hostile(&mut rng);
        let tag = format!(
            "case {case}: PUT {path:?} {}",
            String::from_utf8_lossy(&body)
        );

        let r = handle(
            &node,
            &request("PUT", &format!("/nffg/{path}"), body.clone()),
        );
        assert!(answered(r.status), "{tag}: node answered {:?}", r.status);
        if r.status.parts().0 >= 400 {
            refused += 1;
            assert_eq!(
                state(&node.lock().unwrap()),
                node_empty,
                "{tag}: node\n{}",
                r.body
            );
        } else {
            let r = handle(&node, &request("DELETE", "/nffg/t", Vec::new()));
            assert_eq!(r.status, StatusCode::Ok, "{tag}");
            assert_eq!(
                state(&node.lock().unwrap()),
                node_empty,
                "{tag}: node residue"
            );
        }

        let put = request("PUT", &format!("/domain/nffg/{path}"), body);
        let r = handle_cluster(&domain, &put);
        assert!(answered(r.status), "{tag}: domain answered {:?}", r.status);
        if r.status.parts().0 >= 400 {
            assert_eq!(
                domain_state(&domain.lock().unwrap()),
                domain_empty,
                "{tag}: domain\n{}",
                r.body
            );
        } else {
            let r = handle_cluster(&domain, &request("DELETE", "/domain/nffg/t", Vec::new()));
            assert_eq!(r.status, StatusCode::Ok, "{tag}");
            assert_eq!(
                domain_state(&domain.lock().unwrap()),
                domain_empty,
                "{tag}: domain residue"
            );
        }
    }
    // The mutations are hostile: most documents are refused, and some
    // still deploy.
    assert!(refused > CASES / 2, "{refused} of {CASES} refused");
    assert!(refused < CASES, "every document refused");
}
