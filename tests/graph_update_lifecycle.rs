//! NF-FG lifecycle over the REST API and in-place updates.

use std::sync::{Arc, Mutex};

use un_core::UniversalNode;
use un_nffg::{NfFgBuilder, RuleAction, TrafficMatch};
use un_packet::{MacAddr, PacketBuilder};
use un_rest::{NodeHandle, Request, StatusCode};
use un_sim::mem::mb;

fn handle_for_node() -> NodeHandle {
    let mut n = UniversalNode::new("lifecycle", mb(4096));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    Arc::new(Mutex::new(n))
}

fn req(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
    }
}

fn bridge_graph() -> un_nffg::NfFg {
    NfFgBuilder::new("life", "bridge")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build()
}

fn frame() -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1, 2)
        .payload(b"x")
        .build()
}

#[test]
fn full_rest_lifecycle() {
    let node = handle_for_node();
    let g = bridge_graph();

    // Deploy via PUT.
    let r = un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g)));
    assert_eq!(r.status, StatusCode::Created, "{}", r.body);

    // Traffic flows.
    assert_eq!(
        node.lock().unwrap().inject("eth0", frame()).emitted.len(),
        1
    );

    // GET returns a graph that round-trips.
    let r = un_rest::api::handle(&node, &req("GET", "/nffg/life", ""));
    let fetched = un_nffg::from_json(&r.body).unwrap();
    assert_eq!(fetched, g);

    // Rule-only update via PUT: drop the reverse path.
    let mut g2 = g.clone();
    g2.flow_rules.retain(|r| !r.id.ends_with("rev"));
    let r = un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g2)));
    assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
    // Forward still works; reverse is now unrouted inside the graph LSI.
    assert_eq!(
        node.lock().unwrap().inject("eth0", frame()).emitted.len(),
        1
    );
    assert_eq!(
        node.lock().unwrap().inject("eth1", frame()).emitted.len(),
        0
    );

    // DELETE tears down.
    let r = un_rest::api::handle(&node, &req("DELETE", "/nffg/life", ""));
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(node.lock().unwrap().memory_used(), 0);
}

#[test]
fn update_narrows_classifier_in_place() {
    let node = handle_for_node();
    let mut g = bridge_graph();
    un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g)));

    // Narrow the LAN→NF rule to UDP port 2000 only.
    let idx = g.flow_rules.iter().position(|r| r.id == "c0-fwd").unwrap();
    g.flow_rules[idx].matches = TrafficMatch {
        port_in: g.flow_rules[idx].matches.port_in.clone(),
        ip_proto: Some(17),
        dst_port: Some(2000),
        ..Default::default()
    };
    g.flow_rules[idx].actions = vec![RuleAction::Output(un_nffg::PortRef::Nf("br".into(), 0))];
    let r = un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g)));
    assert_eq!(r.status, StatusCode::Ok, "{}", r.body);

    // Port 2000 passes; other ports no longer match the narrowed rule.
    let mk = |dport: u16| {
        PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1, dport)
            .payload(b"x")
            .build()
    };
    assert_eq!(
        node.lock().unwrap().inject("eth0", mk(2000)).emitted.len(),
        1
    );
    assert_eq!(
        node.lock().unwrap().inject("eth0", mk(9999)).emitted.len(),
        0
    );
}

#[test]
fn structural_update_swaps_flavor() {
    let node = handle_for_node();
    let g = bridge_graph();
    un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g)));
    assert_eq!(
        node.lock().unwrap().instance_of("life", "br").unwrap().1,
        un_compute::Flavor::Native
    );

    // Change the NF's flavor hint: a structural update (redeploy).
    let mut g2 = g.clone();
    g2.nfs[0].flavor = Some("docker".into());
    let r = un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g2)));
    assert_eq!(r.status, StatusCode::Ok, "{}", r.body);
    assert_eq!(
        node.lock().unwrap().instance_of("life", "br").unwrap().1,
        un_compute::Flavor::Docker
    );
    // Still forwards.
    assert_eq!(
        node.lock().unwrap().inject("eth0", frame()).emitted.len(),
        1
    );
}

#[test]
fn noop_update_changes_nothing() {
    let node = handle_for_node();
    let g = bridge_graph();
    un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g)));
    let flows_before = node.lock().unwrap().total_flows();
    let r = un_rest::api::handle(&node, &req("PUT", "/nffg/life", &un_nffg::to_json(&g)));
    assert_eq!(r.status, StatusCode::Ok);
    assert_eq!(node.lock().unwrap().total_flows(), flows_before);
    assert_eq!(
        node.lock()
            .unwrap()
            .trace
            .counter("graph_updates_structural"),
        0
    );
}
