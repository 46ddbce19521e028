//! Sharded/batched data-plane equivalence.
//!
//! The batched shuttle (`Domain::inject_batch`), with any worker count,
//! must emit the same multiset of `(node, port, frame)` egresses, the
//! same overlay per-link byte counters, and the same total virtual-time
//! cost as driving every frame through the sequential single-packet
//! `Domain::inject` path — on random chain graphs, random splits across
//! the fleet, random traffic, with and without ESP-protected overlay
//! links.
//!
//! The same machinery also proves **repair equivalence**: a domain that
//! lost a node and was incrementally repaired must forward traffic
//! exactly like a fresh domain that deployed the equivalent placement
//! directly — same egress multiset, same overlay hops, same virtual
//! cost (overlay VLAN ids may differ; nothing observable may).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, PlacementStrategy};
use un_nffg::{NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::{Packet, PacketBuilder};
use un_sim::mem::mb;

#[derive(Debug, Clone)]
struct Scenario {
    /// Chain length (NFs).
    len: usize,
    /// Per-NF node choice (index into ["n1", "n2"]).
    split: Vec<u8>,
    /// ESP-protect the overlay links.
    protect: bool,
    /// Traffic: (destination last octet, payload length) per frame.
    frames: Vec<(u8, u16)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        1usize..4,
        prop::collection::vec(0u8..2, 3),
        any::<bool>(),
        prop::collection::vec((0u8..4, 32u16..400), 1..24),
    )
        .prop_map(|(len, split, protect, frames)| Scenario {
            len,
            split,
            protect,
            frames,
        })
}

fn chain_graph(len: usize) -> NfFg {
    let ids: Vec<String> = (0..len).map(|i| format!("br{i}")).collect();
    let mut b = NfFgBuilder::new("g-eq", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

fn build_domain(s: &Scenario) -> Domain {
    let mut d = Domain::new(DomainConfig {
        protect_overlay: s.protect,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    let nf_node: BTreeMap<String, String> = (0..s.len)
        .map(|i| {
            // The last NF must sit with the wan endpoint's owner only if
            // placement cannot route it — it can (overlay links), so any
            // random split is legal.
            let node = if s.split[i] == 0 { "n1" } else { "n2" };
            (format!("br{i}"), node.to_string())
        })
        .collect();
    let hints = DeployHints {
        nf_node,
        strategy: Some(PlacementStrategy::Spread),
        ..Default::default()
    };
    d.deploy_with(&chain_graph(s.len), &hints)
        .expect("random split chain deploys");
    d
}

fn frame(last_octet: u8, payload: u16) -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, last_octet),
        )
        .udp(5000, 5001)
        .payload(&vec![0x5A; payload as usize])
        .build()
}

/// Canonical, order-independent view of a domain run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Sorted multiset of (node, port, frame bytes).
    emitted: Vec<(String, String, Vec<u8>)>,
    /// Sorted per-link (vid, packets, bytes) counters.
    links: Vec<(u16, u64, u64)>,
    overlay_hops: u32,
    protected_bytes: u64,
    cost_ns: u64,
}

fn outcome(d: &Domain, io: &un_domain::DomainIo) -> Outcome {
    let mut emitted: Vec<(String, String, Vec<u8>)> = io
        .emitted
        .iter()
        .map(|(n, p, pkt)| (n.to_string(), p.to_string(), pkt.data().to_vec()))
        .collect();
    emitted.sort();
    let mut links: Vec<(u16, u64, u64)> = d
        .link_reports()
        .iter()
        .map(|l| (l.vid, l.packets, l.bytes))
        .collect();
    links.sort();
    Outcome {
        emitted,
        links,
        overlay_hops: io.overlay_hops,
        protected_bytes: io.protected_bytes,
        cost_ns: io.cost.as_nanos(),
    }
}

// ----------------------------------------------------------------------
// Repair equivalence
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RepairScenario {
    /// Chain length (NFs).
    len: usize,
    /// Per-NF node choice (index into ["n1", "n2", "n3"]); n3 dies.
    split: Vec<u8>,
    /// ESP-protect the overlay links.
    protect: bool,
    /// Traffic: (destination last octet, payload length) per frame.
    frames: Vec<(u8, u16)>,
}

fn repair_scenario_strategy() -> impl Strategy<Value = RepairScenario> {
    (
        1usize..5,
        prop::collection::vec(0u8..3, 4),
        any::<bool>(),
        prop::collection::vec((0u8..4, 32u16..400), 1..16),
    )
        .prop_map(|(len, split, protect, frames)| RepairScenario {
            len,
            split,
            protect,
            frames,
        })
}

/// Fleet for the repair scenario: lan rides n1, wan rides n3 (the
/// victim, first eth1 owner in name order) with n4 as the standby
/// eth1 owner the repair must fall over to.
fn repair_fleet(protect: bool, with_victim: bool) -> Domain {
    let mut d = Domain::new(DomainConfig {
        protect_overlay: protect,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    d.add_node(n1);
    d.add_node(UniversalNode::new("n2", mb(2048)));
    if with_victim {
        let mut n3 = UniversalNode::new("n3", mb(2048));
        n3.add_physical_port("eth1");
        d.add_node(n3);
    }
    let mut n4 = UniversalNode::new("n4", mb(2048));
    n4.add_physical_port("eth1");
    d.add_node(n4);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Incremental repair ≡ fresh deploy of the equivalent placement:
    /// end-to-end traffic through the repaired split chain produces
    /// the same egress multiset (and hops, cost, protected bytes) as a
    /// domain that never saw the failure.
    #[test]
    fn repaired_domain_equals_fresh_deploy(s in repair_scenario_strategy()) {
        let graph = chain_graph(s.len);
        // Deploy split across n1/n2/n3, then lose n3 (always affected:
        // it anchors the wan endpoint, plus any NFs the split put there).
        let mut repaired = repair_fleet(s.protect, true);
        let nf_node: BTreeMap<String, String> = (0..s.len)
            .map(|i| {
                let node = ["n1", "n2", "n3"][s.split[i] as usize];
                (format!("br{i}"), node.to_string())
            })
            .collect();
        let lost: usize = nf_node.values().filter(|n| *n == "n3").count();
        let hints = DeployHints {
            nf_node,
            strategy: Some(PlacementStrategy::Spread),
            ..Default::default()
        };
        repaired.deploy_with(&graph, &hints).expect("split deploys");

        let report = repaired.fail_node("n3").expect("victim exists");
        prop_assert_eq!(report.replaced, vec![graph.id.clone()]);
        prop_assert_eq!(report.repairs[0].nfs_moved, lost, "{:?}", report.repairs);
        let after = repaired.assignment_of(&graph.id).expect("deployed").clone();
        prop_assert!(after.values().all(|n| n != "n3"));

        // The control: a fleet that never contained n3, deploying the
        // repaired placement directly.
        let mut fresh = repair_fleet(s.protect, false);
        let fresh_hints = DeployHints {
            nf_node: after,
            strategy: Some(PlacementStrategy::Spread),
            ..Default::default()
        };
        fresh.deploy_with(&graph, &fresh_hints).expect("fresh deploys");

        let ingress = |s: &RepairScenario| -> Vec<(String, String, Packet)> {
            s.frames
                .iter()
                .map(|&(octet, len)| {
                    ("n1".to_string(), "eth0".to_string(), frame(octet, len))
                })
                .collect()
        };
        let io_repaired = repaired.inject_batch(ingress(&s), 1);
        let io_fresh = fresh.inject_batch(ingress(&s), 1);
        prop_assert!(
            !io_fresh.emitted.is_empty(),
            "chains must forward: {:?}",
            s
        );

        // Same observable dataplane, modulo VLAN ids: egress multiset,
        // overlay work, virtual cost, per-link counter multiset.
        let canon = |io: &un_domain::DomainIo, d: &Domain| {
            let mut emitted: Vec<(String, String, Vec<u8>)> = io
                .emitted
                .iter()
                .map(|(n, p, pkt)| (n.to_string(), p.to_string(), pkt.data().to_vec()))
                .collect();
            emitted.sort();
            let mut links: Vec<(String, String, u64, u64)> = d
                .link_reports()
                .iter()
                .map(|l| (l.from.clone(), l.to.clone(), l.packets, l.bytes))
                .collect();
            links.sort();
            (
                emitted,
                links,
                io.overlay_hops,
                io.protected_bytes,
                io.cost.as_nanos(),
            )
        };
        prop_assert_eq!(
            canon(&io_repaired, &repaired),
            canon(&io_fresh, &fresh),
            "scenario: {:?}",
            s
        );
    }

    /// inject_batch(workers = 1, 2, 4) ≡ sequential per-packet inject.
    #[test]
    fn sharded_batch_equals_sequential(s in scenario_strategy()) {
        // Reference: one frame at a time through the single-packet API.
        let mut seq = build_domain(&s);
        let mut seq_io = un_domain::DomainIo::default();
        for &(octet, len) in &s.frames {
            let io = seq.inject("n1", "eth0", frame(octet, len));
            seq_io.emitted.extend(io.emitted);
            seq_io.cost += io.cost;
            seq_io.overlay_hops += io.overlay_hops;
            seq_io.protected_bytes += io.protected_bytes;
        }
        let reference = outcome(&seq, &seq_io);
        prop_assert!(
            !reference.emitted.is_empty(),
            "chains must forward: {s:?}"
        );

        for workers in [1usize, 2, 4] {
            let mut batched = build_domain(&s);
            let ingress: Vec<(String, String, Packet)> = s
                .frames
                .iter()
                .map(|&(octet, len)| {
                    ("n1".to_string(), "eth0".to_string(), frame(octet, len))
                })
                .collect();
            let io = batched.inject_batch(ingress, workers);
            prop_assert_eq!(
                &outcome(&batched, &io),
                &reference,
                "workers = {}, scenario = {:?}",
                workers,
                s
            );
        }
    }
}
