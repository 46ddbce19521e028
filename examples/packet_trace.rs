//! Per-frame flight recorder: hop-by-hop packet tracing.
//!
//! Deploys a chain split across two Universal Nodes, then shows the
//! recorder's two modes:
//!
//! 1. **Traced injection** (`Domain::inject_traced`) — a real frame,
//!    fully counted, whose walk (ingress → classifier stages → NF
//!    deliveries → overlay crossings → egress) lands in the per-domain
//!    ring of recent traces.
//! 2. **Ghost probe** (`Domain::trace_probe`) — a synthesized frame
//!    that takes every decision the real one would, records the same
//!    walk, and moves **none of the orchestrator's** counters: the
//!    conservation ledger is bit-identical before and after. (The NAT
//!    it crosses runs for real, so state inside the NF can move.)
//!
//! ```sh
//! cargo run --release --example packet_trace
//! ```

use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, ProbeSpec};
use un_nffg::NfFgBuilder;
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;

fn main() {
    // Two nodes, one chain split across both: lan and fw ride n1, nat
    // and wan ride n2, so every frame crosses the overlay wire.
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);

    let g = NfFgBuilder::new("traced", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("fw", "bridge", 2)
        .nf("nat", "bridge", 2)
        .chain("lan", &["fw", "nat"], "wan")
        .build();
    let hints = DeployHints {
        nf_node: [
            ("fw".to_string(), "n1".to_string()),
            ("nat".to_string(), "n2".to_string()),
        ]
        .into(),
        ..Default::default()
    };
    d.deploy_with(&g, &hints).expect("split chain deploys");

    // 1. A real, counted, traced injection.
    let pkt = PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
        .udp(5000, 5001)
        .payload(&[0x42; 128])
        .build();
    let (io, trace) = d.inject_traced("n1", "eth0", pkt, 1);
    assert_eq!(io.emitted.len(), 1, "the chain must forward");
    assert!(!trace.ghost);
    println!("traced injection (counted, recorded):\n{}", trace.render());

    // 2. A ghost probe: same walk, zero counter movement.
    let ledger = d.conservation_report();
    let probe = d.trace_probe("n1", "eth0", &ProbeSpec::default());
    assert!(probe.ghost);
    assert!(probe.egress_count() >= 1, "the ghost still walks the chain");
    assert_eq!(
        d.conservation_report(),
        ledger,
        "ghost probes must not move the ledger"
    );
    println!(
        "\nghost probe (recorded, never counted):\n{}",
        probe.render()
    );

    // 3. Only the real injection sits in the recent-trace ring.
    let ring = d.recent_traces();
    assert_eq!(ring.len(), 1, "ghosts never enter the ring");
    println!("\nrecent-trace ring: {} walk(s) retained", ring.len());
}
