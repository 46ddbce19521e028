//! Property-based tests for packet codecs.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use un_packet::esp::EspPacket;
use un_packet::ethernet::{EtherType, EthernetFrame, MacAddr};
use un_packet::icmp::{IcmpKind, IcmpMessage};
use un_packet::ipv4::{IpProtocol, Ipv4Packet};
use un_packet::mutate::{mutants, refilled, Mutation};
use un_packet::tcp::TcpSegment;
use un_packet::udp::UdpDatagram;
use un_packet::{Ipv4Cidr, Packet, PacketBuilder, VlanTag, VLAN_HEADER_LEN};
use un_sim::DetRng;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    /// Built frames always parse back with the same fields, and the
    /// checksums always verify.
    #[test]
    fn udp_frame_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
        ttl in 1u8..=255,
    ) {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(src, dst)
            .ttl(ttl)
            .udp(sport, dport)
            .payload(&payload)
            .build();
        let eth = EthernetFrame::new_checked(pkt.data()).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        prop_assert!(ip.verify_checksum());
        prop_assert_eq!(ip.src(), src);
        prop_assert_eq!(ip.dst(), dst);
        prop_assert_eq!(ip.ttl(), ttl);
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        prop_assert!(udp.verify_checksum(src, dst));
        prop_assert_eq!(udp.src_port(), sport);
        prop_assert_eq!(udp.dst_port(), dport);
        prop_assert_eq!(udp.payload(), &payload[..]);
    }

    /// VLAN push then pop restores the original bytes, for any stack of
    /// pushes in LIFO order.
    #[test]
    fn vlan_stack_roundtrip(
        vids in prop::collection::vec(1u16..4095, 1..4),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .payload(&payload)
            .build();
        let original = pkt.data().to_vec();
        for vid in &vids {
            pkt.vlan_push(*vid).unwrap();
        }
        for vid in vids.iter().rev() {
            prop_assert_eq!(pkt.vlan_pop().unwrap(), *vid);
        }
        prop_assert_eq!(pkt.data(), &original[..]);
    }

    /// A CIDR contains exactly the addresses sharing its masked prefix.
    #[test]
    fn cidr_membership(addr in any::<u32>(), probe in any::<u32>(), len in 0u8..=32) {
        let cidr = Ipv4Cidr::new(Ipv4Addr::from(addr), len);
        let mask = cidr.mask();
        let expected = (addr & mask) == (probe & mask);
        prop_assert_eq!(cidr.contains(Ipv4Addr::from(probe)), expected);
    }

    /// Corrupting any header byte breaks at least one checksum.
    #[test]
    fn corruption_detected(
        payload in prop::collection::vec(any::<u8>(), 8..256),
        corrupt in any::<prop::sample::Index>(),
    ) {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let pkt = PacketBuilder::new()
            .ipv4(src, dst)
            .udp(1111, 2222)
            .payload(&payload)
            .build();
        let mut bytes = pkt.data().to_vec();
        let idx = corrupt.index(bytes.len());
        bytes[idx] ^= 0xFF;
        let ok = match Ipv4Packet::new_checked(&bytes[..]) {
            Err(_) => false,
            Ok(ip) => {
                ip.verify_checksum()
                    && match UdpDatagram::new_checked(ip.payload()) {
                        Err(_) => false,
                        Ok(udp) => udp.verify_checksum(ip.src(), ip.dst()),
                    }
            }
        };
        prop_assert!(!ok, "corruption at byte {idx} must be detected");
    }
}

/// One genuine frame per case: UDP, TCP, ICMP echo or ESP over IPv4,
/// with 0 to 199 random payload bytes.
fn genuine(rng: &mut DetRng) -> Packet {
    let mut payload = vec![0; rng.index(200)];
    rng.fill(&mut payload);
    let b = PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let b = match rng.index(4) {
        0 => b.udp(rng.range_u16(1, u16::MAX), 53),
        1 => b.tcp_data(rng.range_u16(1, u16::MAX), 80, rng.next_u32(), 1),
        2 => b.icmp_echo(IcmpKind::EchoRequest, 7, 1),
        _ => b.ip_proto(IpProtocol::Esp),
    };
    b.payload(&payload).build()
}

/// Reads every field of every checked view `frame` admits, from the
/// Ethernet header in, counting each view that parsed into `seen`
/// (Ethernet, VLAN, IPv4, UDP, TCP, ICMP, ESP). Every transport
/// view is tried on every IPv4 payload whatever its protocol field, so
/// each one meets every kind of damage.
fn read_every_view(frame: &Packet, seen: &mut [usize; 7]) {
    let Ok(eth) = frame.ethernet() else { return };
    seen[0] += 1;
    let _ = (eth.dst(), eth.src());
    let mut l3 = eth.payload();
    if eth.ethertype() == EtherType::Vlan {
        let Ok(tag) = VlanTag::new_checked(l3) else {
            return;
        };
        seen[1] += 1;
        let _ = (tag.pcp(), tag.dei(), tag.vid(), tag.inner_ethertype());
        l3 = &l3[VLAN_HEADER_LEN..];
    }
    let Ok(ip) = Ipv4Packet::new_checked(l3) else {
        return;
    };
    seen[2] += 1;
    let _ = (ip.version(), ip.header_len(), ip.tos(), ip.total_len());
    let _ = (
        ip.ident(),
        ip.dont_frag(),
        ip.more_frags(),
        ip.frag_offset(),
    );
    let _ = (ip.ttl(), ip.protocol(), ip.header_checksum());
    let _ = ip.verify_checksum();
    let (src, dst, body) = (ip.src(), ip.dst(), ip.payload());
    if let Ok(udp) = UdpDatagram::new_checked(body) {
        seen[3] += 1;
        let _ = (udp.src_port(), udp.dst_port(), udp.length());
        let _ = (
            udp.checksum_field(),
            udp.payload(),
            udp.verify_checksum(src, dst),
        );
    }
    if let Ok(tcp) = TcpSegment::new_checked(body) {
        seen[4] += 1;
        let _ = (tcp.src_port(), tcp.dst_port(), tcp.seq(), tcp.ack_num());
        let _ = (
            tcp.header_len(),
            tcp.flags(),
            tcp.window(),
            tcp.checksum_field(),
        );
        let _ = (tcp.payload(), tcp.verify_checksum(src, dst));
    }
    if let Ok(icmp) = IcmpMessage::new_checked(body) {
        seen[5] += 1;
        let _ = (icmp.kind(), icmp.code(), icmp.echo_ident(), icmp.echo_seq());
        let _ = (icmp.payload(), icmp.verify_checksum());
    }
    if let Ok(esp) = EspPacket::new_checked(body) {
        seen[6] += 1;
        let _ = (esp.spi(), esp.seq(), esp.body());
    }
}

/// Typed error, never panic: 256 genuine frames, each cut into the
/// five mutants of `un_packet::mutate` (fed as they are and with their
/// IPv4 checksum refilled), untagged and behind an 802.1Q tag, through
/// every checked view, `vlan_id` and `vlan_pop`. A tag pushed onto a
/// mutant reads back and pops off to the very bytes it went onto; an
/// untagged mutant refuses to pop.
#[test]
fn a_hostile_frame_is_a_typed_error_or_a_view() {
    let mut rng = DetRng::new(0x9ac4e7);
    let mut seen = [0usize; 7];
    for _ in 0..256 {
        let frame = genuine(&mut rng);
        let m = Mutation::draw(&mut rng);
        let vid = rng.range_u16(1, 4095);
        for mutant in mutants(&frame, &m) {
            for fed in [mutant.clone(), refilled(mutant)] {
                read_every_view(&fed, &mut seen);
                assert_eq!(fed.vlan_id(), None);
                assert!(fed.clone().vlan_pop().is_err(), "an untagged frame pops");
                let mut tagged = fed.clone();
                if tagged.vlan_push(vid).is_err() {
                    assert!(fed.ethernet().is_err(), "only a runt refuses a tag");
                    continue;
                }
                read_every_view(&tagged, &mut seen);
                assert_eq!(tagged.vlan_id(), Some(vid));
                assert_eq!(tagged.vlan_pop(), Ok(vid));
                assert_eq!(tagged.data(), fed.data());
            }
        }
    }
    assert!(seen.iter().all(|n| *n > 0), "a view never parsed: {seen:?}");
}
