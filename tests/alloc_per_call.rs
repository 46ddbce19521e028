//! Allocations per `UniversalNode::inject` and `Domain::inject` call,
//! pinned.
//!
//! A warm node walk works in buffers the node keeps between calls —
//! its NF crossings included: `ComputeManager::deliver_into` drains the
//! walk's frame buffer into its flat output buffer, and the NF's kernel
//! emits straight into it — so a one-frame `UniversalNode::inject`
//! allocates only what the NF's own work allocates (ESP's sealed
//! buffer) and the `emitted` vector it returns.
//!
//! What the domain layer adds on top of the nodes a frame visits: its
//! result. The shuttle's work list — a queue per touched node, the
//! ready FIFO, the fabric buckets, the survivors of a crossing — is the
//! domain's, lent to each call and handed back empty, each node's name
//! is interned once when it joins, and the per-call books are a
//! fixed-size ledger delta: none of them allocates on a warm call.
//! Measured as allocations of one `Domain::inject` minus allocations of
//! the same frame driven through the same nodes of a twin fleet by
//! hand, so node-level changes cancel out.
//!
//! On the control plane, one `Domain::update` and the incremental
//! `Domain::verify` after it are pinned whole on a fleet shaped like the
//! benchmark's `tenant_churn`: the planner's node views borrow the
//! nodes' names and the verifier's snapshot shares the graphs, rules
//! and links it checks, so neither pays for a copy of the fleet.
//!
//! The workspace forbids `unsafe`, and counting allocations needs one
//! `GlobalAlloc` implementation; an integration test is a crate of its
//! own, so the counter lives here (the pattern of
//! `crates/switch/tests/alloc_per_frame.rs`). It counts per thread:
//! the test harness runs tests, and prints, on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig};
use un_nffg::{NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::{Packet, PacketBuilder};
use un_sim::mem::mb;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor outlives its thread, and
// `realloc`/`alloc_zeroed` keep their default implementations, which
// call `alloc`/`dealloc` here.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller guarantees `layout` has non-zero size, the
        // only requirement of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from `alloc` above —
        // that is, from `System.alloc` — with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `Domain::inject` allocates beyond the node it drives, on a
/// chain that stays on its ingress node: the result's `emitted` vector.
/// (6 while the work list — the node's name, its queue's and TTL's map
/// nodes, the burst vector, the ready FIFO — was built per call.)
const DOMAIN_ALLOCS_ONE_NODE: u64 = 1;

/// What each further touched node adds: nothing — its queue, the fabric
/// bucket that carried the frame there and the survivors of the
/// crossing are warm buffers of the domain's work list. (6 while each
/// was built per call.)
const DOMAIN_ALLOCS_PER_FURTHER_NODE: u64 = 0;

/// A warm one-frame `UniversalNode::inject` through the native IPsec
/// CPE (`un_bench::build_ipsec_node`): the buffer ESP seals into, and
/// the node's `emitted` vector. Sealing in place, into the frame's own
/// buffer, is out of scope, so the sealed buffer stays. (21 while the
/// walk built its work list, buckets and buffers per call; 5 while each
/// NF crossing built a frame vector, an outcome vector and the host's
/// `emitted` vector.)
const NODE_ALLOCS_IPSEC_CPE: u64 = 2;

/// The same on `chain()` with both bridges on one node: the node's
/// `emitted` vector, and nothing per NF crossing — the frame's
/// destination MAC is never learned, and each bridge floods it by
/// walking its member list in place. (30 while the walk built its work
/// list, buckets and buffers per call; 9 while each crossing also built
/// a frame vector, an outcome vector, the bridge kernel's flood list
/// and its `emitted` vector.)
const NODE_ALLOCS_TWO_BRIDGES: u64 = 1;

const CALLS: usize = 16;

/// One `Domain::update` growing or shrinking a tenant's chain on
/// `churn_fleet`: plan, commit, the node calls and the verify marks.
/// (1345 while the planner's node views copied every functional type
/// and port name of every serving node into owned sets; 1219 while a
/// node rebuilt a whole part — every NF, port and rule — on any change
/// to its NFs or endpoints, and its memory admission walked every
/// account on the node; 889 while a graph diff collected both graphs'
/// endpoint ids into vectors to compare them; 881 while a node's flip
/// wrote only what changed straight into its tables, before each update
/// lowered the whole part into an `LsiProgram` — its port keys and flow
/// entries — and applied the diff from the old one; 902 while that diff
/// compared every old entry with every new one and collected each
/// side's leftovers, and a fresh link copied its graph's id.)
const DOMAIN_UPDATE_ALLOCS: u64 = 893;

/// The incremental `Domain::verify` after that update: lowering the
/// touched graph and its hosts, and checking them. (510 while lowering
/// copied each re-checked graph's NF-FG and parts, each rule's action
/// list, and each link's graph id and path; 288 while `rule_cookie`
/// formatted `<graph>/<rule>` into a string to hash it; 252 while a
/// pass lowered and audited a touched node's whole LSI-0, every other
/// tenant's entries included, copied the name of every node, graph and
/// graph LSI it left out, and kept the vid ledger in ordered sets; 158
/// while a graph LSI was audited whole, into a book of its own kind,
/// rather than per traffic class into the book every LSI keeps.)
const DOMAIN_VERIFY_ALLOCS: u64 = 157;

fn chain() -> NfFg {
    NfFgBuilder::new("g1", "alloc-chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build()
}

fn frame() -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
        .udp(5000, 5001)
        .payload(&[0xAB; 64])
        .build()
}

/// A fleet `n1 … n<nodes>` with eth0 on the first node and eth1 on the
/// last, the chain's halves pinned to those two.
fn fleet(nodes: usize) -> Domain {
    let mut d = Domain::new(DomainConfig::default());
    for i in 1..=nodes {
        let mut n = UniversalNode::new(&format!("n{i}"), mb(2048));
        if i == 1 {
            n.add_physical_port("eth0");
        }
        if i == nodes {
            n.add_physical_port("eth1");
        }
        d.add_node(n);
    }
    let hints = DeployHints {
        nf_node: [
            ("br1".to_string(), "n1".to_string()),
            ("br2".to_string(), format!("n{nodes}")),
        ]
        .into(),
        ..DeployHints::default()
    };
    d.deploy_with(&chain(), &hints).unwrap();
    d
}

/// Allocations of one call of `f` on a frame from `make`, which must
/// be the same on every one of `CALLS` warm calls; and what the last
/// call returned.
fn allocs_per_call<T>(make: impl Fn() -> Packet, mut f: impl FnMut(Packet) -> T) -> (u64, T) {
    let mut last = f(make());
    let frames: Vec<Packet> = (0..CALLS).map(|_| make()).collect();
    let mut per_call = Vec::with_capacity(CALLS);
    for pkt in frames {
        let before = ALLOCS.with(Cell::get);
        last = black_box(f(pkt));
        per_call.push(ALLOCS.with(Cell::get) - before);
    }
    assert!(
        per_call.iter().all(|n| *n == per_call[0]),
        "every warm call costs the same: {per_call:?}"
    );
    (per_call[0], last)
}

/// `Domain::inject` on `fleet(nodes)` minus the same frame carried
/// through a twin fleet's nodes by hand.
fn domain_overhead(nodes: usize) -> u64 {
    let mut d = fleet(nodes);
    let (through_domain, io) = allocs_per_call(frame, |pkt| d.inject("n1", "eth0", pkt));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.overlay_hops as usize, nodes - 1);

    let mut twin = fleet(nodes);
    let fabric = twin.config.fabric_port.clone();
    let mut by_hand = 0;
    // What the previous node put on the wire, for the next to pick up.
    let mut on_wire = frame();
    for i in 1..=nodes {
        let node = twin.node_mut(&format!("n{i}")).unwrap();
        let port = if i == 1 { "eth0" } else { fabric.as_str() };
        let (allocs, mut io) = allocs_per_call(|| on_wire.clone(), |pkt| node.inject(port, pkt));
        assert_eq!(io.emitted.len(), 1);
        by_hand += allocs;
        on_wire = io.emitted.remove(0).1;
    }
    through_domain - by_hand
}

#[test]
fn a_warm_node_inject_allocates_a_pinned_count() {
    let (mut cpe, _) = un_bench::build_ipsec_node("native");
    let spec = un_bench::lan_spec(&cpe);
    let (allocs, io) = allocs_per_call(|| spec.frame(1500, 0), |pkt| cpe.inject("eth0", pkt));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(allocs, NODE_ALLOCS_IPSEC_CPE, "the IPsec CPE");

    let mut d = fleet(1);
    let node = d.node_mut("n1").unwrap();
    let (allocs, io) = allocs_per_call(frame, |pkt| node.inject("eth0", pkt));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(allocs, NODE_ALLOCS_TWO_BRIDGES, "the two-bridge chain");
}

#[test]
fn a_one_node_inject_allocates_a_small_constant_over_the_node() {
    assert_eq!(domain_overhead(1), DOMAIN_ALLOCS_ONE_NODE);
}

#[test]
fn each_further_touched_node_adds_a_constant() {
    assert_eq!(
        domain_overhead(2),
        DOMAIN_ALLOCS_ONE_NODE + DOMAIN_ALLOCS_PER_FURTHER_NODE
    );
}

/// The four-bridge chain of tenant `t` (five bridges when `grown`),
/// between two VLAN endpoints on eth0.
fn tenant_chain(t: usize, grown: bool) -> NfFg {
    let ids: Vec<String> = (0..4 + usize::from(grown))
        .map(|i| format!("t{t}-br{i}"))
        .collect();
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let vid = 100 + t as u16;
    let mut b = NfFgBuilder::new(&format!("tenant-{t}"), "tenant")
        .vlan_endpoint("a", "eth0", vid)
        .vlan_endpoint("b", "eth0", vid);
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    b.chain("a", &refs, "b").build()
}

/// A fleet shaped like the benchmark's `tenant_churn`: four edge nodes
/// with eth0 and no room for an NF, twelve compute nodes, and 32
/// tenants, each spread from edge `t % 4` to another edge; verified
/// once, so the next pass is incremental.
fn churn_fleet() -> Domain {
    let mut d = Domain::new(DomainConfig::default());
    for i in 0..4 {
        let mut n = UniversalNode::new(&format!("e{i}"), mb(1));
        n.add_physical_port("eth0");
        d.add_node(n);
    }
    for i in 0..12 {
        d.add_node(UniversalNode::new(&format!("c{i}"), mb(2048)));
    }
    for t in 0..32 {
        let egress = (t + 1 + (t / 4) % 3) % 4;
        let hints = DeployHints {
            endpoint_node: [("a", t % 4), ("b", egress)]
                .map(|(ep, edge)| (ep.to_string(), format!("e{edge}")))
                .into(),
            strategy: Some(un_domain::PlacementStrategy::Spread),
            ..DeployHints::default()
        };
        d.deploy_with(&tenant_chain(t, false), &hints).unwrap();
    }
    assert!(d.verify_full().ok());
    d
}

/// Allocations of one call of `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn a_control_call_and_the_pass_after_it_allocate_a_pinned_count() {
    let mut d = churn_fleet();
    // Grow and shrink one tenant: once to warm the buffers the calls
    // reuse, then twice measured. The two measured cycles must agree,
    // so the count is the call's own.
    let mut counts = Vec::new();
    for _ in 0..3 {
        for grown in [true, false] {
            let graph = tenant_chain(7, grown);
            let (update, report) = allocs_of(|| d.update(&graph));
            report.unwrap();
            let (verify, report) = allocs_of(|| d.verify());
            assert!(report.ok() && report.mode == "incremental");
            counts.push((update, verify));
        }
    }
    assert_eq!(counts[2..4], counts[4..], "each warm cycle costs the same");
    let (update, verify) = counts[2];
    assert_eq!(update, DOMAIN_UPDATE_ALLOCS, "one update");
    assert_eq!(
        verify, DOMAIN_VERIFY_ALLOCS,
        "the incremental verify after it"
    );
}
