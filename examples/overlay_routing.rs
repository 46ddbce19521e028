//! Multi-hop overlay routing over an explicit fabric topology.
//!
//! Three racks wired in a line — `rack-a – rack-b – rack-c` — host a
//! service chain whose NFs sit on the two *ends*. The cut edge between
//! them cannot ride a direct wire (the ends are not adjacent), so the
//! domain's path engine pins it over rack-b and installs **transit
//! flow rules** there: rack-b forwards the tagged overlay frames
//! without hosting a single NF of the service.
//!
//! Then a redundant rack-d is wired in (`rack-a – rack-d – rack-c`)
//! and rack-b is killed: the incremental repair *reroutes* the kept
//! overlay wires over rack-d — same VLAN ids, zero NFs moved — and
//! traffic keeps flowing.
//!
//! ```sh
//! cargo run --release --example overlay_routing
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
    // ---- The fabric: a line of three racks, plus a spare detour ----
    let mut topology = Topology::explicit();
    let edge = EdgeAttrs {
        latency_ns: 5_000,
        capacity_bps: 10_000_000_000,
    };
    topology.add_edge("rack-a", "rack-b", edge);
    topology.add_edge("rack-b", "rack-c", edge);
    topology.add_edge("rack-a", "rack-d", edge);
    topology.add_edge("rack-d", "rack-c", edge);

    let mut domain = Domain::new(DomainConfig {
        topology,
        ..DomainConfig::default()
    });
    let mut rack_a = UniversalNode::new("rack-a", mb(1024));
    rack_a.add_physical_port("eth0"); // LAN
    let mut rack_c = UniversalNode::new("rack-c", mb(1024));
    rack_c.add_physical_port("eth1"); // WAN
    domain.add_node(rack_a);
    domain.add_node(UniversalNode::new("rack-b", mb(1024)));
    domain.add_node(rack_c);
    domain.add_node(UniversalNode::new("rack-d", mb(1024)));

    // ---- The service: lan → access bridge → uplink bridge → wan ----
    let graph = NfFgBuilder::new("svc", "cross-rack chain")
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
    let report = domain.deploy_with(&graph, &hints).expect("deploy");
    println!(
        "deployed '{}' across {} node(s), {} overlay link(s):",
        report.graph,
        report.per_node.len(),
        report.overlay_links
    );
    for l in domain.link_reports() {
        println!(
            "  vid {}: {} → {}, pinned path {}",
            l.vid,
            l.from,
            l.to,
            l.path.join(" – ")
        );
    }
    let transit_part = &domain.partition_of("svc").expect("deployed").parts["rack-b"];
    println!(
        "rack-b is transit-only: {} NFs, {} transit rule(s)\n",
        transit_part.nfs.len(),
        transit_part.flow_rules.len()
    );

    // ---- A frame crosses two fabric hops ----
    let frame = || {
        PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
            .udp(5000, 5001)
            .payload(&[0x42; 256])
            .build()
    };
    let io = domain.inject("rack-a", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
    println!(
        "lan frame egressed at {}/{} after {} overlay hop(s), {} ns simulated",
        io.emitted[0].0,
        io.emitted[0].1,
        io.overlay_hops,
        io.cost.as_nanos()
    );

    // ---- The transit rack dies: reroute, don't move ----
    let report = domain.fail_node("rack-b").expect("known node");
    let repair = &report.repairs[0];
    println!(
        "\nrack-b failed: repaired '{}' — {} NF(s) moved, {} link(s) kept, \
         {} node(s) touched, rerouted paths:",
        repair.graph, repair.nfs_moved, repair.links_kept, repair.nodes_touched
    );
    for l in domain.link_reports() {
        println!("  vid {}: {}", l.vid, l.path.join(" – "));
        assert!(!l.path.contains(&"rack-b".to_string()));
    }
    assert_eq!(repair.nfs_moved, 0, "transit failure moves no NF");

    let io = domain.inject("rack-a", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "traffic survives the reroute");
    println!(
        "post-repair frame egressed at {}/{} after {} overlay hop(s) — detour live",
        io.emitted[0].0, io.emitted[0].1, io.overlay_hops
    );
}
