//! Acceptance test for the domain layer: a 2-node partitioned NF-FG
//! deploys, forwards traffic end-to-end across the overlay link, and
//! survives single-node failure via re-placement.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, NodeHealth, PlacementStrategy};
use un_nffg::{NfFg, NfFgBuilder};
use un_obs::DropReason;
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_rest::{handle_cluster, Request, StatusCode};
use un_sim::mem::mb;

fn fleet(protect: bool) -> Domain {
    let mut d = Domain::new(DomainConfig {
        protect_overlay: protect,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("edge-a", mb(2048));
    n1.add_physical_port("eth0"); // LAN lives on edge-a
    let mut n2 = UniversalNode::new("edge-b", mb(2048));
    n2.add_physical_port("eth1"); // WAN lives on edge-b
    d.add_node(n1);
    d.add_node(n2);
    d
}

fn split_chain() -> NfFg {
    NfFgBuilder::new("svc", "cpe-chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        // Two transparent L2 hops: the *steering and overlay*, not NF
        // semantics, are under test here.
        .nf("fw", "bridge", 2)
        .nf("br", "bridge", 2)
        .chain("lan", &["fw", "br"], "wan")
        .build()
}

fn hints() -> DeployHints {
    DeployHints {
        endpoint_node: BTreeMap::new(),
        nf_node: [
            ("fw".to_string(), "edge-a".to_string()),
            ("br".to_string(), "edge-b".to_string()),
        ]
        .into(),
        strategy: Some(PlacementStrategy::Spread),
    }
}

fn lan_frame(seq: u16) -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(203, 0, 113, 9))
        .udp(40_000 + seq, 443)
        .payload(&[0x42; 256])
        .build()
}

#[test]
fn two_node_graph_deploys_and_forwards_end_to_end() {
    let mut d = fleet(false);
    let report = d.deploy_with(&split_chain(), &hints()).unwrap();
    assert_eq!(report.per_node.len(), 2, "one part per node");
    assert!(report.overlay_links >= 2, "both directions stitched");

    // Each node holds its half.
    assert_eq!(d.assignment_of("svc").unwrap()["fw"], "edge-a");
    assert_eq!(d.assignment_of("svc").unwrap()["br"], "edge-b");
    assert!(d.node("edge-a").unwrap().graph("svc").is_some());
    assert!(d.node("edge-b").unwrap().graph("svc").is_some());

    // LAN→WAN crosses the overlay once and exits on edge-b.
    for seq in 0..20 {
        let io = d.inject("edge-a", "eth0", lan_frame(seq));
        assert_eq!(io.emitted.len(), 1, "frame {seq} lost");
        let (node, port, pkt) = &io.emitted[0];
        assert_eq!((node.as_str(), port.as_str()), ("edge-b", "eth1"));
        assert_eq!(pkt.vlan_id(), None, "overlay tag must not leak out");
        assert_eq!(io.overlay_hops, 1);
        assert!(io.cost.as_nanos() > 0, "virtual time must be charged");
    }
    // WAN→LAN uses the reverse overlay link.
    let io = d.inject("edge-b", "eth1", lan_frame(99));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "edge-a");
    assert_eq!(io.emitted[0].1, "eth0");
    assert!(d.trace.counter("overlay_frames") >= 21);
}

#[test]
fn esp_protected_overlay_forwards_and_charges_crypto() {
    let mut d = fleet(true);
    d.deploy_with(&split_chain(), &hints()).unwrap();
    let io = d.inject("edge-a", "eth0", lan_frame(0));
    assert_eq!(io.emitted.len(), 1);
    assert!(io.protected_bytes > 0, "frame must cross the ESP wire");
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayEspVerifyFail), 0);
}

#[test]
fn single_node_failure_replaces_the_lost_partition() {
    let mut d = fleet(false);
    // edge-a can host the WAN side too once edge-b dies.
    d.node_mut("edge-a").unwrap().add_physical_port("eth1");
    d.deploy_with(&split_chain(), &hints()).unwrap();

    let report = d.fail_node("edge-b").unwrap();
    assert_eq!(report.replaced, vec!["svc".to_string()]);
    assert!(report.stranded.is_empty());
    assert_eq!(d.health("edge-b"), Some(NodeHealth::Failed));

    // The whole chain now runs on the survivor; traffic still flows.
    let assignment = d.assignment_of("svc").unwrap();
    assert!(assignment.values().all(|n| n == "edge-a"), "{assignment:?}");
    let io = d.inject("edge-a", "eth0", lan_frame(0));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "edge-a");
    assert_eq!(io.emitted[0].1, "eth1");
    assert_eq!(io.overlay_hops, 0, "no overlay after consolidation");

    // Frames aimed at the dead node vanish without a panic.
    let io = d.inject("edge-b", "eth1", lan_frame(1));
    assert!(io.emitted.is_empty());
    assert_eq!(d.frame_ledger().drops(DropReason::InjectDeadNode), 1);
}

#[test]
fn cluster_rest_round_trip_over_the_domain() {
    let d = Arc::new(Mutex::new(fleet(false)));
    let body = un_nffg::to_json(&split_chain());
    let req = |method: &str, path: &str, body: &str| Request {
        method: method.into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
    };

    let r = handle_cluster(&d, &req("PUT", "/domain/nffg/svc", &body));
    assert_eq!(r.status, StatusCode::Created, "{}", r.body);
    let r = handle_cluster(&d, &req("GET", "/domain", ""));
    assert!(r.body.contains("\"svc\""));
    assert!(r.body.contains("edge-a") && r.body.contains("edge-b"));

    // The deployed domain forwards (REST and data plane share state).
    let io = d.lock().unwrap().inject("edge-a", "eth0", lan_frame(3));
    assert_eq!(io.emitted.len(), 1);

    let r = handle_cluster(&d, &req("DELETE", "/domain/nffg/svc", ""));
    assert!(r.body.contains("undeployed"));
    assert!(d.lock().unwrap().graph_ids().is_empty());
}
