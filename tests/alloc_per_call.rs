//! Allocations per `Domain::inject` call, pinned.
//!
//! What the domain layer adds on top of the nodes a frame visits: the
//! shuttle's per-call work list (a queue per touched node, the ready
//! FIFO) and its result. The per-call books are a fixed-size ledger
//! delta and allocate nothing. Measured as allocations of one `Domain::inject`
//! minus allocations of the same frame driven through the same nodes
//! of a twin fleet by hand, so node-level changes cancel out.
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
/// chain that stays on its ingress node: the node's interned name, its
/// queue's map node, the TTL map node behind it, the ready FIFO and the
/// `emitted` vector. (The one-frame burst vector is the node's own
/// cost: `UniversalNode::inject` builds one too.)
const DOMAIN_ALLOCS_ONE_NODE: u64 = 5;

/// What each further touched node adds: its queue (name and TTL map
/// node — the queue's own map node is shared), the fabric bucket that
/// carried the frame there (map node + vector) and the survivors
/// vector of the crossing.
const DOMAIN_ALLOCS_PER_FURTHER_NODE: u64 = 5;

const CALLS: usize = 16;

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
