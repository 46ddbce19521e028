//! ESP-protected overlay links over more than one hop.
//!
//! A protected link seals a frame once at its head and opens it once at
//! its tail; transit nodes switch the sealed frame on its outer vid.
//! `dataplane_equivalence` runs ESP over two adjacent nodes only and the
//! chaos suites leave it off, so this suite is where the multi-hop wire
//! is held to the same standards: on random chain splits over line and
//! ring fabrics of 3–6 nodes,
//!
//! * batched `inject_batch` ≡ per-frame `inject` (egress multiset, link
//!   counters hop by hop, overlay hops, protected bytes, virtual cost);
//! * the egress is byte-for-byte an unprotected twin's, every hop of a
//!   protected path carried the same sealed bytes, nothing failed to
//!   open and the conservation ledger balances;
//! * after a transit node and then an endpoint node fail, every frame
//!   still opens — a rerouted link on the SA it had, a link with a new
//!   end on a new one.
//!
//! And one named case for the behaviour that differs from sealing per
//! hop: a frame duplicated in transit dies as a replay at the tail.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, DomainIo, EdgeAttrs, Topology};
use un_nffg::{NfFg, NfFgBuilder, PortRef};
use un_obs::DropReason;
use un_packet::ethernet::MacAddr;
use un_packet::{Packet, PacketBuilder};
use un_sim::mem::mb;

const GRAPH: &str = "g-esp";

#[derive(Debug, Clone)]
struct Scenario {
    /// Fleet size; nodes are `n1..`.
    nodes: usize,
    /// Ring fabric (a line otherwise).
    ring: bool,
    /// Node index of each NF of the chain, reduced modulo `nodes`.
    split: Vec<usize>,
    /// Node index of the `wan` endpoint, reduced likewise (`lan` is n1).
    wan_at: usize,
    /// Traffic: (destination last octet, payload length) per frame.
    frames: Vec<(u8, u16)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        3usize..7,
        any::<bool>(),
        prop::collection::vec(0usize..6, 1..5),
        1usize..6,
        prop::collection::vec((0u8..4, 32u16..400), 1..24),
    )
        .prop_map(|(nodes, ring, split, wan_at, frames)| Scenario {
            nodes,
            ring,
            split,
            wan_at,
            frames,
        })
}

fn node_name(i: usize) -> String {
    format!("n{}", i + 1)
}

fn chain_graph(len: usize) -> NfFg {
    let ids: Vec<String> = (0..len).map(|i| format!("br{i}")).collect();
    let mut b = NfFgBuilder::new(GRAPH, "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

/// The scenario's fleet with its chain deployed. Every node exposes
/// both interfaces, so an endpoint can follow a repair anywhere.
fn build_domain(s: &Scenario, protect_overlay: bool) -> Domain {
    let names: Vec<String> = (0..s.nodes).map(node_name).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let topology = if s.ring {
        Topology::ring(&names, EdgeAttrs::default())
    } else {
        Topology::line(&names, EdgeAttrs::default())
    };
    let mut d = Domain::new(DomainConfig {
        topology,
        protect_overlay,
        ..DomainConfig::default()
    });
    for name in &names {
        let mut n = UniversalNode::new(name, mb(2048));
        n.add_physical_port("eth0");
        n.add_physical_port("eth1");
        d.add_node(n);
    }
    let pin = |id: &str, at: usize| (id.to_string(), node_name(at % s.nodes));
    let hints = DeployHints {
        endpoint_node: [pin("lan", 0), pin("wan", s.wan_at)].into(),
        nf_node: (s.split.iter().enumerate())
            .map(|(i, at)| pin(&format!("br{i}"), *at))
            .collect(),
        strategy: None,
    };
    d.deploy_with(&chain_graph(s.split.len()), &hints)
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

fn burst(s: &Scenario) -> Vec<(&'static str, &'static str, Packet)> {
    let frames = s.frames.iter();
    frames
        .map(|&(octet, len)| ("n1", "eth0", frame(octet, len)))
        .collect()
}

/// Sorted multiset of (node, port, frame bytes).
fn egress(io: &DomainIo) -> Vec<(String, String, Vec<u8>)> {
    let emitted = io.emitted.iter();
    let mut out: Vec<_> = emitted
        .map(|(n, p, pkt)| (n.to_string(), p.to_string(), pkt.data().to_vec()))
        .collect();
    out.sort();
    out
}

/// Canonical, order-independent view of a domain run.
#[derive(Debug, PartialEq)]
struct Outcome {
    emitted: Vec<(String, String, Vec<u8>)>,
    /// Per link: vid, frames, bytes, bytes per hop.
    links: Vec<(u16, u64, u64, Vec<u64>)>,
    overlay_hops: u32,
    protected_bytes: u64,
    cost_ns: u64,
}

fn outcome(d: &Domain, io: &DomainIo) -> Outcome {
    let links = d.link_reports().into_iter();
    Outcome {
        emitted: egress(io),
        links: links
            .map(|l| (l.vid, l.packets, l.bytes, l.hop_bytes))
            .collect(),
        overlay_hops: io.overlay_hops,
        protected_bytes: io.protected_bytes,
        cost_ns: io.cost.as_nanos(),
    }
}

/// Nodes strictly inside some link's path that host nothing of the
/// graph but transit rules.
fn transit_only_nodes(d: &Domain) -> Vec<String> {
    let parts = &d.partition_of(GRAPH).expect("deployed").parts;
    let transit_only = |node: &String| {
        let part = &parts[node];
        part.nfs.is_empty() && part.endpoints.iter().all(|e| e.id.starts_with("ovl-"))
    };
    let reports = d.link_reports();
    let inner = reports.iter().flat_map(|l| &l.path[1..l.path.len() - 1]);
    let mut nodes: Vec<String> = inner.filter(|n| transit_only(n)).cloned().collect();
    nodes.sort();
    nodes.dedup();
    nodes
}

fn assert_sound(d: &Domain, when: &str) {
    assert_eq!(
        d.frame_ledger().drops(DropReason::OverlayEspVerifyFail),
        0,
        "{when}: a frame failed to open"
    );
    assert_eq!(
        d.frame_ledger().drops(DropReason::OverlayEspSealFail),
        0,
        "{when}"
    );
    let ledger = d.conservation_report();
    assert!(ledger.balanced(), "{when}: {ledger:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multihop_esp_is_transparent_and_batches_like_it_drains(s in scenario_strategy()) {
        // Reference: one frame at a time through the single-frame API.
        let mut seq = build_domain(&s, true);
        let mut seq_io = DomainIo::default();
        for (node, port, pkt) in burst(&s) {
            let io = seq.inject(node, port, pkt);
            seq_io.emitted.extend(io.emitted);
            seq_io.cost += io.cost;
            seq_io.overlay_hops += io.overlay_hops;
            seq_io.protected_bytes += io.protected_bytes;
        }
        let mut sealed = build_domain(&s, true);
        let io = sealed.inject_batch(burst(&s), 1);
        prop_assert_eq!(&outcome(&sealed, &io), &outcome(&seq, &seq_io), "{:?}", s);
        assert_sound(&sealed, "first burst");

        // Transparent: an unprotected twin hands out the same bytes.
        let mut plain = build_domain(&s, false);
        let plain_io = plain.inject_batch(burst(&s), 1);
        prop_assert_eq!(egress(&io), egress(&plain_io), "{:?}", s);
        prop_assert_eq!(io.emitted.len(), s.frames.len(), "chains must forward");
        prop_assert_eq!(io.overlay_hops, plain_io.overlay_hops);
        prop_assert_eq!(plain_io.protected_bytes, 0);

        // Sealed once, carried as sealed: every hop of a path saw the
        // same bytes, more of them than the unprotected twin's.
        let crossed = io.overlay_hops > 0;
        prop_assert_eq!(io.protected_bytes > 0, crossed);
        for (l, twin) in sealed.link_reports().iter().zip(plain.link_reports()) {
            prop_assert!(l.protected && l.path == twin.path);
            prop_assert!(l.hop_bytes.iter().all(|b| *b == l.hop_bytes[0]), "{:?}", l);
            prop_assert_eq!(&l.hop_packets, &twin.hop_packets);
            prop_assert!(l.packets == 0 || l.hop_bytes[0] > twin.hop_bytes[0]);
        }

        // A transit node dies (a ring routes around it; a line falls
        // apart and parks the graph on both twins alike): no link has a
        // new end, so none gets a new SA, and every frame still opens.
        if let Some(casualty) = transit_only_nodes(&sealed).first() {
            let rekeyed = fail_on_both(&mut sealed, &mut plain, casualty);
            let rerouted = !sealed.graph_ids().is_empty();
            prop_assert_eq!(rerouted, s.ring, "{:?}", s);
            prop_assert_eq!(rekeyed, Rekeyed { minted: 0, due: 0 }, "a reroute: {:?}", s);
            let io = sealed.inject_batch(burst(&s), 1);
            prop_assert_eq!(egress(&io), egress(&plain.inject_batch(burst(&s), 1)));
            prop_assert_eq!(io.emitted.len(), if rerouted { s.frames.len() } else { 0 });
            assert_sound(&sealed, "after the transit failure");
        }

        // The node under `wan` dies: the endpoint moves, and every link
        // that comes out of the repair with a new end — or is new — runs
        // on a new SA.
        if let Some(parts) = sealed.partition_of(GRAPH).map(|p| p.parts.clone()) {
            let hosts_wan = |part: &NfFg| part.endpoints.iter().any(|e| e.id == "wan");
            let (casualty, _) = parts.iter().find(|(_, p)| hosts_wan(p)).expect("a wan");
            let rekeyed = fail_on_both(&mut sealed, &mut plain, casualty);
            prop_assert!(rekeyed.minted >= rekeyed.due, "{:?}: {:?}", rekeyed, s);
            // lan may have died with wan: both twins then drop alike.
            let io = sealed.inject_batch(burst(&s), 1);
            prop_assert_eq!(egress(&io), egress(&plain.inject_batch(burst(&s), 1)));
            if !sealed.graph_ids().is_empty() && casualty != "n1" {
                prop_assert_eq!(io.emitted.len(), s.frames.len(), "{:?}", s);
            }
            assert_sound(&sealed, "after the endpoint failure");
        }
    }
}

/// What one node failure did to the protected twin's SAs.
#[derive(Debug, PartialEq)]
struct Rekeyed {
    /// SA pairs minted by the repair.
    minted: u64,
    /// Links that came out of it new, or with an end on another node.
    due: u64,
}

/// Fail `casualty` on both twins; report the protected one's rekeying.
fn fail_on_both(sealed: &mut Domain, plain: &mut Domain, casualty: &str) -> Rekeyed {
    let ends = |d: &Domain| -> BTreeMap<u16, (String, String)> {
        let links = d.link_reports().into_iter();
        links.map(|l| (l.vid, (l.from, l.to))).collect()
    };
    let (minted, before) = (sealed.trace.counter("overlay_sas_minted"), ends(sealed));
    sealed.fail_node(casualty).expect("a fleet member");
    plain.fail_node(casualty).expect("a fleet member");
    let after = ends(sealed);
    let new_end = after.iter().filter(|(vid, e)| before.get(vid) != Some(e));
    Rekeyed {
        minted: sealed.trace.counter("overlay_sas_minted") - minted,
        due: new_end.count() as u64,
    }
}

/// The line `n1–n2–n3` with `lan, br1 @ n1` and `br2, wan @ n3`, and
/// n2's transit of the forward link re-plumbed through a three-port
/// learning bridge: an unknown destination floods out of two ports, both
/// wired back onto the link, so n2 sends every frame on **twice**.
fn line_with_a_flooding_transit(protect_overlay: bool) -> Domain {
    let s = Scenario {
        nodes: 3,
        ring: false,
        split: vec![0, 2],
        wan_at: 2,
        frames: Vec::new(),
    };
    let mut d = build_domain(&s, protect_overlay);
    let fwd = d.link_reports().into_iter().find(|l| l.from == "n1");
    let fwd = fwd.expect("a forward link");
    assert_eq!(fwd.path, ["n1", "n2", "n3"]);
    let ovl = PortRef::Endpoint(format!("ovl-{}", fwd.vid));
    let mut part = d.partition_of(GRAPH).unwrap().parts["n2"].clone();
    part.flow_rules
        .retain(|r| r.id != format!("ovl-{}-transit", fwd.vid));
    let flooded = NfFgBuilder::new(GRAPH, "flood")
        .nf("dup", "bridge", 3)
        .rule_through("dup-in", 10, ovl.clone(), ("dup", 0))
        .rule_through("dup-out1", 10, ("dup", 1), ovl.clone())
        .rule_through("dup-out2", 10, ("dup", 2), ovl)
        .build();
    part.nfs.extend(flooded.nfs);
    part.flow_rules.extend(flooded.flow_rules);
    d.node_mut("n2").unwrap().update(&part).unwrap();
    d
}

/// Sealing per hop re-sealed each copy of a frame duplicated in transit
/// and delivered both. One seal per link gives both copies one sequence
/// number: the first opens, the second is a replay — dropped at the
/// tail, counted, and on the ledger.
#[test]
fn a_frame_duplicated_in_transit_dies_as_a_replay_at_the_tail() {
    const FRAMES: u64 = 4;
    let send = |d: &mut Domain| -> Vec<DomainIo> {
        let frames = (0..FRAMES as u8).map(|i| frame(i, 100));
        frames.map(|f| d.inject("n1", "eth0", f)).collect()
    };
    let mut plain = line_with_a_flooding_transit(false);
    for io in send(&mut plain) {
        assert_eq!(io.emitted.len(), 2, "unprotected: both copies arrive");
    }

    let mut sealed = line_with_a_flooding_transit(true);
    for (i, io) in send(&mut sealed).iter().enumerate() {
        assert_eq!(io.emitted.len(), 1, "frame {i}: one copy opens");
        assert_eq!(io.emitted[0].0.as_str(), "n3");
        assert_eq!(io.emitted[0].2.data(), frame(i as u8, 100).data());
        assert_eq!(io.overlay_hops, 3, "n1→n2 once, n2→n3 twice");
    }
    assert_eq!(
        sealed
            .frame_ledger()
            .drops(DropReason::OverlayEspVerifyFail),
        FRAMES
    );
    let ledger = sealed.conservation_report();
    assert!(ledger.balanced(), "{ledger:?}");
    assert_eq!(ledger.fanout_extra, FRAMES);
    let by_reason: BTreeMap<_, _> = ledger.drops.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(by_reason, [("overlay_esp_verify_fail", FRAMES)].into());

    // The flight recorder tells the same story, at the node it happened.
    let (io, trace) = sealed.inject_traced("n1", "eth0", frame(9, 100), 1);
    assert_eq!(io.emitted.len(), 1);
    let story = trace.render();
    assert!(story.contains("anti-replay rejection"), "{story}");
    let died_at: Vec<&str> = (trace.hops.iter())
        .filter(|h| matches!(h.kind, un_obs::HopKind::Drop { .. }))
        .map(|h| h.node.as_str())
        .collect();
    assert_eq!(died_at, ["n3"], "{story}");
}
