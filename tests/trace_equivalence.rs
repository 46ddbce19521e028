//! Flight-recorder equivalence: tracing is a pure observer.
//!
//! Attaching a `TraceSink` to an injection must not change anything
//! observable — same egress multiset, same overlay per-link counters,
//! same virtual-time cost — at any worker count. And a ghost probe
//! (`Domain::trace_frame`) must move **zero** counters anywhere: the
//! frame walks the full pipeline, the walk is recorded, and the
//! domain's books are untouched.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, DomainIo, PlacementStrategy};
use un_nffg::{NfFg, NfFgBuilder};
use un_obs::{DropReason, HopKind};
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
        prop::collection::vec((0u8..4, 32u16..400), 1..12),
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
    let mut b = NfFgBuilder::new("g-tr", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

fn build_domain(s: &Scenario) -> Domain {
    build_domain_with(
        s,
        DomainConfig {
            protect_overlay: s.protect,
            ..DomainConfig::default()
        },
    )
}

fn build_domain_with(s: &Scenario, config: DomainConfig) -> Domain {
    let mut d = Domain::new(config);
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    let nf_node: BTreeMap<String, String> = (0..s.len)
        .map(|i| {
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
    emitted: Vec<(String, String, Vec<u8>)>,
    links: Vec<(u16, u64, u64)>,
    overlay_hops: u32,
    protected_bytes: u64,
    cost_ns: u64,
}

fn outcome(d: &Domain, io: &DomainIo) -> Outcome {
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

fn fold(into: &mut DomainIo, io: DomainIo) {
    into.emitted.extend(io.emitted);
    into.cost += io.cost;
    into.overlay_hops += io.overlay_hops;
    into.protected_bytes += io.protected_bytes;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `inject_traced` ≡ `inject_batch` of the same frame, at every
    /// worker count: same egress multiset, link counters, and cost.
    /// The recorder watches; it never steers.
    #[test]
    fn traced_equals_untraced(s in scenario_strategy()) {
        for workers in [1usize, 2, 4] {
            let mut plain = build_domain(&s);
            let mut traced = build_domain(&s);
            let mut plain_io = DomainIo::default();
            let mut traced_io = DomainIo::default();
            for &(octet, len) in &s.frames {
                let io = plain.inject_batch(
                    vec![("n1".to_string(), "eth0".to_string(), frame(octet, len))],
                    workers,
                );
                fold(&mut plain_io, io);
                let (io, trace) =
                    traced.inject_traced("n1", "eth0", frame(octet, len), workers);
                prop_assert!(!trace.ghost, "a real injection is not a ghost");
                prop_assert!(
                    matches!(
                        trace.hops.first().map(|h| &h.kind),
                        Some(HopKind::Ingress { .. })
                    ),
                    "trace must open with the ingress hop: {}",
                    trace.render()
                );
                // The recorder is live when attached: a whole walk has
                // ingress, classifier verdicts and one egress hop per
                // port the frame left by — the real one, plus the
                // fabric port at every overlay crossing.
                prop_assert!(
                    trace.hops.len() >= 3 && trace.egress_count() as u32 == 1 + io.overlay_hops,
                    "recorded walk too short: {}",
                    trace.render()
                );
                fold(&mut traced_io, io);
            }
            prop_assert_eq!(
                &outcome(&plain, &plain_io),
                &outcome(&traced, &traced_io),
                "workers = {}, scenario = {:?}",
                workers,
                s
            );
            // Every traced walk landed in the recent-trace ring.
            prop_assert_eq!(
                traced.recent_traces().len(),
                s.frames.len().min(un_obs::DEFAULT_TRACE_CAPACITY)
            );
            prop_assert!(plain.recent_traces().is_empty());
        }
    }

    /// A ghost probe walks the full pipeline but moves no counters:
    /// conservation ledger, per-link stats, and the recent-trace ring
    /// are bit-identical before and after.
    #[test]
    fn ghost_probe_moves_no_counters(s in scenario_strategy()) {
        let mut d = build_domain(&s);
        let ingress: Vec<(String, String, Packet)> = s
            .frames
            .iter()
            .map(|&(octet, len)| {
                ("n1".to_string(), "eth0".to_string(), frame(octet, len))
            })
            .collect();
        let io = d.inject_batch(ingress, 2);
        prop_assert!(!io.emitted.is_empty(), "chains must forward: {s:?}");

        let ledger_before = d.conservation_report();
        let links_before = d.link_reports();
        let ring_before = d.recent_traces();

        let trace = d.trace_frame("n1", "eth0", frame(s.frames[0].0, 64));
        prop_assert!(trace.ghost);
        prop_assert!(
            !trace.hops.is_empty(),
            "ghost walks still record their hops"
        );

        prop_assert_eq!(d.conservation_report(), ledger_before);
        prop_assert_eq!(d.link_reports(), links_before);
        prop_assert_eq!(d.recent_traces().len(), ring_before.len());
    }
}

/// One way a frame can die, reachable through the public API: the
/// domain to kill it in, where to inject it, and the drop it must die
/// of — typed reason, the node the drop is booked at, and the detail
/// string the REST trace documents print.
struct DropCase {
    build: fn() -> Domain,
    node: &'static str,
    port: &'static str,
    reason: DropReason,
    at: &'static str,
    /// `None`: the detail names the overlay vid, which the walk itself
    /// tells us (the crossing recorded right before the drop).
    detail: Option<&'static str>,
}

/// The two-bridge chain with br0 on n2 and br1 on n1: lan (n1) → br0
/// (n2) → br1 (n1) → wan (n2), three overlay crossings per frame.
fn zigzag() -> Scenario {
    Scenario {
        len: 2,
        split: vec![1, 0, 0],
        protect: false,
        frames: vec![],
    }
}

fn zigzag_domain() -> Domain {
    build_domain(&zigzag())
}

fn drop_cases() -> Vec<DropCase> {
    vec![
        DropCase {
            build: zigzag_domain,
            node: "nowhere",
            port: "eth0",
            reason: DropReason::InjectUnknownNode,
            at: "nowhere",
            detail: Some(""),
        },
        DropCase {
            build: || {
                let mut d = zigzag_domain();
                d.fail_node("n2").expect("n2 is in the fleet");
                d
            },
            node: "n2",
            port: "eth1",
            reason: DropReason::InjectDeadNode,
            at: "n2",
            detail: Some(""),
        },
        DropCase {
            build: zigzag_domain,
            node: "n1",
            port: "eth9",
            reason: DropReason::InjectUnknownPort,
            at: "n1",
            detail: Some("no port 'eth9'"),
        },
        DropCase {
            // One crossing allowed, three needed: the frame is counted
            // on the wire of its second crossing, then dies.
            build: || {
                build_domain_with(
                    &zigzag(),
                    DomainConfig {
                        overlay_ttl: 1,
                        ..DomainConfig::default()
                    },
                )
            },
            node: "n1",
            port: "eth0",
            reason: DropReason::OverlayLoop,
            at: "n2",
            detail: None,
        },
        DropCase {
            // A node still tags frames with a vid the domain has freed:
            // the chain is undeployed (its links go, its vids return to
            // the pool), then n1 is handed a stale part that sends lan
            // traffic out the fabric port under the first pool vid.
            build: || {
                let mut d = zigzag_domain();
                d.undeploy("g-tr").expect("chain is deployed");
                let stale = NfFgBuilder::new("stale", "stale part")
                    .interface_endpoint("lan", "eth0")
                    .vlan_endpoint("wire", "fab0", 3000)
                    .rule_through("out", 10, "lan", "wire")
                    .build();
                d.node_mut("n1")
                    .expect("n1 is in the fleet")
                    .deploy(&stale)
                    .expect("stale part deploys on the node");
                d
            },
            node: "n1",
            port: "eth0",
            reason: DropReason::OverlayUnroutable,
            at: "n1",
            detail: Some("no overlay link for vid 3000"),
        },
        DropCase {
            // Node-level: a bridge whose output is steered straight
            // back into its input spends the fabric TTL.
            build: || {
                let mut d = zigzag_domain();
                d.undeploy("g-tr").expect("chain is deployed");
                let looped = NfFgBuilder::new("looped", "self-loop")
                    .interface_endpoint("lan", "eth0")
                    .nf("br", "bridge", 2)
                    .rule_through("in", 10, "lan", ("br", 0))
                    .rule_through("again", 10, ("br", 1), ("br", 0))
                    .build();
                d.deploy(&looped).expect("looping graph deploys");
                d
            },
            node: "n1",
            port: "eth0",
            reason: DropReason::FabricLoop,
            at: "n1",
            detail: Some(""),
        },
    ]
}

/// Booked drops of `reason` anywhere in the domain (the ledger sums the
/// domain trace and every node's).
fn booked(d: &Domain, reason: DropReason) -> u64 {
    d.conservation_report()
        .drops
        .get(reason.as_str())
        .copied()
        .unwrap_or(0)
}

/// `(node, detail)` of every recorded drop hop of `reason`, in order.
fn drop_hops(trace: &un_obs::PacketTrace, reason: DropReason) -> Vec<(String, String)> {
    trace
        .hops
        .iter()
        .filter_map(|h| match &h.kind {
            HopKind::Drop { reason: r, detail } if *r == reason => {
                Some((h.node.clone(), detail.clone()))
            }
            _ => None,
        })
        .collect()
}

/// Drop parity, one row per cause: an untraced and a traced injection
/// book the same drop; the traced walk records exactly one typed drop
/// hop per booked frame, at the right node, with the detail string the
/// trace documents print; a ghost walk of the same frame records the
/// same drop hops and books nothing; and the ledger balances after
/// each of the three.
#[test]
fn every_drop_cause_is_booked_and_recorded_alike() {
    for case in drop_cases() {
        let reason = case.reason;
        let pkt = || frame(1, 64);

        let mut plain = (case.build)();
        let before = booked(&plain, reason);
        let io = plain.inject(case.node, case.port, pkt());
        assert!(io.emitted.is_empty(), "{reason}: the frame must die");
        assert_eq!(booked(&plain, reason) - before, 1, "{reason}: untraced");
        let ledger = plain.conservation_report();
        assert!(ledger.balanced(), "{reason}: untraced ledger {ledger:?}");

        let mut traced = (case.build)();
        let before = booked(&traced, reason);
        let (io, trace) = traced.inject_traced(case.node, case.port, pkt(), 1);
        assert!(io.emitted.is_empty(), "{reason}: the frame must die");
        assert_eq!(booked(&traced, reason) - before, 1, "{reason}: traced");
        assert_eq!(traced.conservation_report(), ledger, "{reason}: ledgers");
        assert_eq!(trace.drops(), vec![reason], "{}", trace.render());
        let detail = match case.detail {
            Some(detail) => detail.to_string(),
            None => {
                let crossed = trace.hops.iter().rev().find_map(|h| match h.kind {
                    HopKind::OverlayHop { vid, .. } => Some(vid),
                    _ => None,
                });
                let vid = crossed.expect("the frame is on the wire before it dies");
                format!("overlay TTL expired on vid {vid}")
            }
        };
        let hops = drop_hops(&trace, reason);
        assert_eq!(hops, vec![(case.at.to_string(), detail)], "{reason}");

        let links = traced.link_reports();
        let ghost = traced.trace_frame(case.node, case.port, pkt());
        assert!(ghost.ghost);
        assert_eq!(drop_hops(&ghost, reason), hops, "{reason}: ghost hops");
        assert_eq!(traced.conservation_report(), ledger, "{reason}: ghost");
        assert_eq!(traced.link_reports(), links, "{reason}: ghost wires");
    }
}
