//! Allocations per frame on the host's IP path, pinned.
//!
//! `un-linux` forbids `unsafe`, and counting allocations needs one
//! `GlobalAlloc` implementation; an integration test is a crate of its
//! own, so the counter lives here. It counts per thread (the test
//! harness runs tests, and prints, on other threads).
//!
//! The host carries one `Packet` from `Host::inject` to emission and
//! floods a bridge by walking its member list in place, so a warm frame
//! allocates only what the call must build: through XFRM, the buffer
//! ESP seals into or opens into; and, through the owning
//! `Host::inject`, the `emitted` vector of its result.
//! `Host::inject_into` pushes onto a vector the caller reuses, so a
//! routed or bridged forward through it allocates nothing. (ESP sealing
//! in place, into the frame's own buffer, is not attempted: the sealed
//! buffer stays.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
use un_linux::{Host, IfaceId, NsId, MAIN_TABLE};
use un_packet::ethernet::MacAddr;
use un_packet::{Ipv4Cidr, Packet, PacketBuilder};
use un_sim::CostModel;

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
const PAYLOAD: usize = 1400;

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

/// A forwarding namespace with a LAN port (tag 1) and a WAN port
/// (tag 2), both up.
struct Nf {
    host: Host,
    ns: NsId,
    lan: IfaceId,
    wan: IfaceId,
}

fn forwarder(lan_addr: &str, wan_addr: &str) -> Nf {
    let mut host = Host::new("alloc", CostModel::default());
    let ns = host.add_namespace("nf");
    let lan = host.add_external(ns, "port0", 1).unwrap();
    let wan = host.add_external(ns, "port1", 2).unwrap();
    host.addr_add(lan, cidr(lan_addr)).unwrap();
    host.addr_add(wan, cidr(wan_addr)).unwrap();
    host.set_up(lan, true).unwrap();
    host.set_up(wan, true).unwrap();
    host.sysctl_ip_forward(ns, true).unwrap();
    Nf { host, ns, lan, wan }
}

/// One end of the `cpe_ipsec` tunnel, configured the way the IPsec NNF
/// configures its namespace: LAN and WAN addresses, the remote
/// protected prefix routed toward the peer out the WAN port,
/// forwarding, an outbound and an inbound SA, and the outbound policy.
fn tunnel_end(lan_addr: &str, wan_addr: &str, local: [u8; 4], peer: [u8; 4], cpe: bool) -> Nf {
    let mut b = forwarder(lan_addr, wan_addr);
    let (local, peer) = (Ipv4Addr::from(local), Ipv4Addr::from(peer));
    let (cpe_lan, gw_lan) = (cidr("192.168.1.0/24"), cidr("172.16.0.0/16"));
    let (prot_local, prot_remote) = if cpe {
        (cpe_lan, gw_lan)
    } else {
        (gw_lan, cpe_lan)
    };
    let (spi_out, spi_in) = if cpe { (0x100, 0x200) } else { (0x200, 0x100) };
    let key = |spi: u32| [spi as u8 ^ 0x5A; 32];
    b.host
        .route_add(b.ns, MAIN_TABLE, prot_remote, Some(peer), b.wan, 0)
        .unwrap();
    let x = b.host.xfrm_mut(b.ns).unwrap();
    x.sad.install(SecurityAssociation::outbound(
        spi_out,
        local,
        peer,
        key(spi_out),
        [1, 2, 3, 4],
    ));
    x.sad.install(SecurityAssociation::inbound(
        spi_in,
        peer,
        local,
        key(spi_in),
        [1, 2, 3, 4],
    ));
    x.spd.install(SecurityPolicy {
        selector: TrafficSelector::between(prot_local, prot_remote),
        direction: PolicyDirection::Out,
        action: PolicyAction::Protect(spi_out),
        priority: 10,
    });
    b
}

/// A 1400-byte UDP frame from a LAN client into `b`'s LAN port.
fn lan_frame(b: &Nf, src: [u8; 4], dst: [u8; 4]) -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(50), b.host.iface(b.lan).unwrap().mac)
        .ipv4(Ipv4Addr::from(src), Ipv4Addr::from(dst))
        .udp(5000, 5201)
        .payload(&[0xA5; PAYLOAD])
        .build()
}

/// How a test drives the host: the owning `Host::inject`, or
/// `Host::inject_into` onto one vector reused across frames.
#[derive(Clone, Copy)]
enum Call {
    Owning,
    Into,
}

/// Allocations per frame of `call` over `frames` on `port`, after one
/// warm-up frame (neighbor, conntrack and SA state settled, the reused
/// vector grown); every frame must leave the host as exactly one frame.
fn allocs_per_frame(host: &mut Host, port: IfaceId, mut frames: Vec<Packet>, call: Call) -> u64 {
    let mut reused = Vec::new();
    let mut step = |host: &mut Host, f: Packet| match call {
        Call::Owning => black_box(host.inject(port, f)).emitted.len(),
        Call::Into => {
            reused.clear();
            black_box(host.inject_into(port, f, &mut reused));
            reused.len()
        }
    };
    let warm = frames.remove(0);
    assert_eq!(step(host, warm), 1);
    let n = frames.len() as u64;
    let mut emitted = 0;
    let before = ALLOCS.with(Cell::get);
    for f in frames {
        emitted += step(host, f);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(emitted as u64, n, "every frame forwards");
    assert_eq!(allocs % n, 0, "every frame costs the same: {allocs}");
    allocs / n
}

/// A forwarder routing everything to a resolved default gateway out of
/// its WAN port.
fn router() -> Nf {
    let mut b = forwarder("192.168.1.1/24", "203.0.113.1/24");
    let gw = Ipv4Addr::new(203, 0, 113, 254);
    b.host
        .route_add(b.ns, MAIN_TABLE, cidr("0.0.0.0/0"), Some(gw), b.wan, 0)
        .unwrap();
    b.host.neigh_add(b.ns, gw, MacAddr::local(99)).unwrap();
    b
}

/// Frames a LAN client routes through `router()`.
fn routed_frames(b: &Nf) -> Vec<Packet> {
    (0..=FRAMES)
        .map(|_| lan_frame(b, [192, 168, 1, 10], [8, 8, 8, 8]))
        .collect()
}

/// A plain routed forward allocates the `emitted` vector and nothing
/// else: the Ethernet header is stripped into the frame's headroom and
/// pushed back out of it, and TTL and checksum are edited in place.
#[test]
fn a_routed_forward_allocates_only_the_emitted_vector() {
    let mut b = router();
    let frames = routed_frames(&b);
    assert_eq!(
        allocs_per_frame(&mut b.host, b.lan, frames, Call::Owning),
        1
    );
}

/// Onto a vector the caller reuses, the same forward allocates nothing.
#[test]
fn a_routed_forward_into_a_reused_vector_allocates_nothing() {
    let mut b = router();
    let frames = routed_frames(&b);
    assert_eq!(allocs_per_frame(&mut b.host, b.lan, frames, Call::Into), 0);
}

/// A frame flooded across a two-member bridge — its destination MAC is
/// never learned — allocates the `emitted` vector through `inject` (2
/// while the bridge collected its flood targets into a list per frame),
/// and nothing onto a reused vector.
#[test]
fn a_bridged_forward_allocates_only_the_emitted_vector() {
    let mut host = Host::new("alloc", CostModel::default());
    let ns = host.add_namespace("br");
    let br = host.add_bridge(ns, "br0").unwrap();
    let lan = host.add_external(ns, "port0", 1).unwrap();
    let wan = host.add_external(ns, "port1", 2).unwrap();
    for i in [br, lan, wan] {
        host.set_up(i, true).unwrap();
    }
    for p in [lan, wan] {
        host.bridge_attach(br, p).unwrap();
    }
    for (call, pinned) in [(Call::Owning, 1), (Call::Into, 0)] {
        let frames = (0..=FRAMES)
            .map(|_| {
                PacketBuilder::new()
                    .ethernet(MacAddr::local(50), MacAddr::local(51))
                    .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                    .udp(5000, 5201)
                    .payload(&[0xA5; PAYLOAD])
                    .build()
            })
            .collect();
        assert_eq!(allocs_per_frame(&mut host, lan, frames, call), pinned);
    }
}

/// Frames sealed by the CPE end toward the gateway's WAN port, each
/// under its own sequence number.
fn sealed_frames(cpe: &mut Nf, n: u64) -> Vec<Packet> {
    let lan = cpe.lan;
    (0..n)
        .map(|_| {
            let f = lan_frame(cpe, [192, 168, 1, 10], [172, 16, 0, 9]);
            let mut out = cpe.host.inject(lan, f).emitted;
            assert_eq!(out.len(), 1);
            out.pop().unwrap().1
        })
        .collect()
}

fn tunnel() -> (Nf, Nf) {
    let mut cpe = tunnel_end(
        "192.168.1.1/24",
        "192.0.2.1/24",
        [192, 0, 2, 1],
        [192, 0, 2, 2],
        true,
    );
    let mut gw = tunnel_end(
        "172.16.0.1/16",
        "192.0.2.2/24",
        [192, 0, 2, 2],
        [192, 0, 2, 1],
        false,
    );
    let gw_wan_mac = gw.host.iface(gw.wan).unwrap().mac;
    cpe.host
        .neigh_add(cpe.ns, Ipv4Addr::new(192, 0, 2, 2), gw_wan_mac)
        .unwrap();
    gw.host
        .neigh_add(gw.ns, Ipv4Addr::new(172, 16, 0, 9), MacAddr::local(88))
        .unwrap();
    (cpe, gw)
}

/// Through an XFRM tunnel policy the frame costs the buffer ESP seals
/// it into — laid out with room for the outer IPv4 and Ethernet
/// headers — plus the `emitted` vector.
#[test]
fn an_xfrm_tunnel_forward_allocates_the_sealed_buffer_and_the_emitted_vector() {
    let (mut cpe, _) = tunnel();
    let frames = (0..=FRAMES)
        .map(|_| lan_frame(&cpe, [192, 168, 1, 10], [172, 16, 0, 9]))
        .collect();
    let lan = cpe.lan;
    assert_eq!(
        allocs_per_frame(&mut cpe.host, lan, frames, Call::Owning),
        2
    );
    assert_eq!(cpe.host.trace.counter("xfrm_encap"), FRAMES + 1);
}

/// Onto a reused vector the sealed buffer is all that is left. Sealing
/// in place, into the frame's own buffer, is out of scope, so 1 is this
/// path's floor.
#[test]
fn an_xfrm_tunnel_forward_into_a_reused_vector_allocates_only_the_sealed_buffer() {
    let (mut cpe, _) = tunnel();
    let frames = (0..=FRAMES)
        .map(|_| lan_frame(&cpe, [192, 168, 1, 10], [172, 16, 0, 9]))
        .collect();
    let lan = cpe.lan;
    assert_eq!(allocs_per_frame(&mut cpe.host, lan, frames, Call::Into), 1);
    assert_eq!(cpe.host.trace.counter("xfrm_encap"), FRAMES + 1);
}

/// The gateway end opens the frame into one buffer behind the default
/// headroom and forwards the inner packet out of it: the opened buffer
/// plus the `emitted` vector (5 before the host carried one packet).
#[test]
fn a_decapsulate_and_forward_allocates_the_opened_buffer_and_the_emitted_vector() {
    let (mut cpe, mut gw) = tunnel();
    let frames = sealed_frames(&mut cpe, FRAMES + 1);
    let wan = gw.wan;
    assert_eq!(allocs_per_frame(&mut gw.host, wan, frames, Call::Owning), 2);
    assert_eq!(gw.host.trace.counter("xfrm_decap"), FRAMES + 1);
}

/// Onto a reused vector the opened buffer is all that is left.
#[test]
fn a_decapsulate_and_forward_into_a_reused_vector_allocates_only_the_opened_buffer() {
    let (mut cpe, mut gw) = tunnel();
    let frames = sealed_frames(&mut cpe, FRAMES + 1);
    let wan = gw.wan;
    assert_eq!(allocs_per_frame(&mut gw.host, wan, frames, Call::Into), 1);
    assert_eq!(gw.host.trace.counter("xfrm_decap"), FRAMES + 1);
}
