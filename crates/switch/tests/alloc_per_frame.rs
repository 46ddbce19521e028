//! Allocations per frame on the switch fast path, pinned.
//!
//! `un-switch` forbids `unsafe`, and counting allocations needs one
//! `GlobalAlloc` implementation; an integration test is a crate of its
//! own, so the counter lives here. It counts per thread (the test
//! harness runs tests, and prints, on other threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

use un_packet::ethernet::MacAddr;
use un_packet::{Packet, PacketBuilder};
use un_sim::CostModel;
use un_switch::{Backend, FlowAction, FlowEntry, FlowMatch, LogicalSwitch, PortNo, ProcessOptions};

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

const FRAMES: u64 = 256;

/// Which entry point of the one pipeline a measurement drives.
#[derive(Clone, Copy)]
enum Form {
    /// `process`: the wrapper that owns (and returns) the outputs vector.
    Owning,
    /// `process_into`: one caller-owned vector reused across the burst.
    Sink,
}

/// Allocations per frame of the pipeline on a warm microflow hit, for
/// a rule that runs `actions` on `frame`.
fn allocs_per_frame(form: Form, actions: Vec<FlowAction>, frame: &Packet) -> u64 {
    let mut sw = LogicalSwitch::new("LSI-alloc", 1, Backend::SingleTableCached);
    sw.add_port(PortNo(1), "in").unwrap();
    sw.add_port(PortNo(2), "out").unwrap();
    sw.install(
        0,
        FlowEntry::new(10, FlowMatch::in_port(PortNo(1)), actions),
    )
    .unwrap();
    let costs = CostModel::default();
    // Warm the microflow cache and the sink, and build every input up
    // front.
    let mut sink = Vec::new();
    sw.process_into(
        PortNo(1),
        frame.clone(),
        &costs,
        ProcessOptions::default(),
        &mut sink,
    );
    assert_eq!(sink.drain(..).count(), 1);
    let frames: Vec<Packet> = (0..FRAMES).map(|_| frame.clone()).collect();
    let hits_before = sw.cache_stats().cache_hits;

    let before = ALLOCS.with(Cell::get);
    for f in frames {
        match form {
            Form::Owning => {
                black_box(sw.process(PortNo(1), f, &costs));
            }
            Form::Sink => {
                black_box(sw.process_into(
                    PortNo(1),
                    f,
                    &costs,
                    ProcessOptions::default(),
                    &mut sink,
                ));
                black_box(sink.drain(..).count());
            }
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(sw.cache_stats().cache_hits - hits_before, FRAMES);
    assert_eq!(allocs % FRAMES, 0, "every frame costs the same: {allocs}");
    allocs / FRAMES
}

/// The hit path itself allocates nothing — no action-list clone, no
/// frame copy for the last `Output`, and a tag pushed into (or popped
/// back to) the frame's headroom is free — so a burst through the sink
/// form costs zero allocations per forwarded frame, and the owning
/// wrapper costs its `outputs` vector and nothing else.
#[test]
fn fast_path_allocates_only_the_outputs_vector() {
    let plain = PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .udp(1000, 2000)
        .payload(b"payload")
        .build();
    let mut tagged = plain.clone();
    tagged.vlan_push(7).unwrap();
    let out = FlowAction::Output(PortNo(2));

    for (form, pin) in [(Form::Sink, 0), (Form::Owning, 1)] {
        assert_eq!(allocs_per_frame(form, vec![out.clone()], &plain), pin);
        assert_eq!(
            allocs_per_frame(form, vec![FlowAction::PushVlan(42), out.clone()], &plain),
            pin
        );
        assert_eq!(
            allocs_per_frame(form, vec![FlowAction::PopVlan, out.clone()], &tagged),
            pin
        );
    }
}
