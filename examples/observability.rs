//! Fleet-wide observability: metrics, per-hop link counters, spans.
//!
//! A three-rack line hosts a service chain split across its ends, so
//! every frame rides a two-hop overlay through the middle rack. With
//! `DomainConfig::observability` on, the domain records classifier
//! outcomes, per-hop wire counters, NF deliver latencies, and
//! control-plane spans (plan / partition / repair) — all exported in
//! Prometheus text exposition by `un_rest::render::metrics()` (the
//! document `GET /metrics` serves, rendered from `Domain`'s typed
//! reports) and as a bounded event ring via `Domain::recent_events()`
//! (`GET /domain/events`).
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, EdgeAttrs, Topology};
use un_nffg::NfFgBuilder;
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;

fn main() {
    // ---- The fabric: a line with a spare detour (for the repair) ----
    let mut topology = Topology::explicit();
    let edge = EdgeAttrs::default();
    topology.add_edge("rack-a", "rack-b", edge);
    topology.add_edge("rack-b", "rack-c", edge);
    topology.add_edge("rack-a", "rack-d", edge);
    topology.add_edge("rack-d", "rack-c", edge);
    let mut domain = Domain::new(DomainConfig {
        topology,
        observability: true,
        ..DomainConfig::default()
    });
    let mut rack_a = UniversalNode::new("rack-a", mb(1024));
    rack_a.add_physical_port("eth0");
    let mut rack_c = UniversalNode::new("rack-c", mb(1024));
    rack_c.add_physical_port("eth1");
    domain.add_node(rack_a);
    domain.add_node(UniversalNode::new("rack-b", mb(1024)));
    domain.add_node(rack_c);
    domain.add_node(UniversalNode::new("rack-d", mb(1024)));

    let graph = NfFgBuilder::new("svc", "observed chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("acc", "bridge", 2)
        .nf("upl", "bridge", 2)
        .chain("lan", &["acc", "upl"], "wan")
        .build();
    let hints = DeployHints {
        endpoint_node: BTreeMap::new(),
        nf_node: [
            ("acc".to_string(), "rack-a".to_string()),
            ("upl".to_string(), "rack-c".to_string()),
        ]
        .into(),
        strategy: None,
    };
    domain.deploy_with(&graph, &hints).expect("deploy");

    // ---- Drive a burst end to end (two fabric hops per frame) ----
    let burst: Vec<_> = (0..32)
        .map(|_| {
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
                .udp(5000, 5001)
                .payload(&[0x42; 256])
                .build();
            ("rack-a".to_string(), "eth0".to_string(), pkt)
        })
        .collect();
    let io = domain.inject_batch(burst, 1);
    assert_eq!(io.emitted.len(), 32, "every frame must egress");

    // ---- Per-hop wire counters: the forward wire saw every frame
    // at *both* hops (the reverse wire idles — nothing flowed back) --
    println!("per-hop overlay wire counters:");
    let mut forward_wires = 0;
    for l in domain.link_reports() {
        for (i, hp) in l.hop_packets.iter().enumerate() {
            println!(
                "  vid {} ({}) hop {i} {} → {}: {hp} frame(s)",
                l.vid,
                l.graph,
                l.path[i],
                l.path[i + 1]
            );
        }
        if l.hop_packets == [32, 32] {
            forward_wires += 1;
        }
    }
    assert_eq!(forward_wires, 1, "one wire carried all 32 frames per hop");

    // ---- A failure stamps repair timing and emits spans ----
    let report = domain.fail_node("rack-b").expect("known node");
    let repair = &report.repairs[0];
    println!(
        "\nrack-b failed: '{}' repaired in {} ns (downtime estimate {} ns)",
        repair.graph, repair.repair_duration_ns, repair.downtime_estimate_ns
    );
    assert!(repair.repair_duration_ns > 0);
    assert!(repair.downtime_estimate_ns >= repair.repair_duration_ns);

    // ---- The Prometheus document (what GET /metrics serves) ----
    let text = un_rest::render::metrics(&domain);
    println!("\nselected /metrics series:");
    for line in text.lines().filter(|l| {
        l.starts_with("un_classifier_lookups_total{node=\"rack-a\"")
            || l.starts_with("un_link_frames_total")
            || l.starts_with("un_conservation_")
            || (l.starts_with("un_span_duration_ns_count") && l.contains("domain."))
    }) {
        println!("  {line}");
    }
    for series in [
        "un_classifier_lookups_total{",
        "un_nf_deliver_ns_bucket{",
        "un_node_burst_frames_bucket{",
        "un_span_duration_ns_bucket{span=\"domain.plan\"",
        "un_span_duration_ns_bucket{span=\"domain.repair\"",
        "un_conservation_balanced 1",
    ] {
        assert!(text.contains(series), "missing series {series}");
    }

    // ---- The event ring (what GET /domain/events serves) ----
    println!("\nrecent control-plane events:");
    let events = domain.recent_events();
    for e in &events {
        let dur = e
            .duration_ns
            .map(|d| format!(" ({d} ns)"))
            .unwrap_or_default();
        println!("  +{:>9} ns  {:5}  {}{dur}", e.at_ns, e.kind, e.name);
    }
    for name in ["domain.plan", "domain.node.failed", "domain.repair"] {
        assert!(
            events.iter().any(|e| e.name == name),
            "missing event {name}"
        );
    }
    println!("\nobservability example: OK");
}
