//! Property-based tests for routing and NAT invariants, and for the
//! host's IP path under hostile frames.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
use un_linux::conntrack::{Conntrack, CtDirection, FlowTuple};
use un_linux::route::{Route, RouteTable};
use un_linux::{Chain, Host, IfaceId, IoResult, NfRule, NfTable, RuleMatch, Target, MAIN_TABLE};
use un_packet::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN as ETH};
use un_packet::ipv4::{Ipv4Packet, IPV4_HEADER_LEN};
use un_packet::mutate::{mutants, refilled, Mutation};
use un_packet::{Ipv4Cidr, Packet, PacketBuilder};
use un_sim::CostModel;

const LAN_HOST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
const WAN_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const PEER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);
const REMOTE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
const KEY: [u8; 32] = [0x42; 32];
const SALT: [u8; 4] = [9, 8, 7, 6];

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

/// An edge namespace with everything the IP path can do to a frame:
/// routes whose next hops all have static neighbors (so nothing but
/// IPv4 ever leaves), masquerade out the WAN, a DNAT of port 8080 to a
/// LAN host, and an XFRM tunnel to `PEER` for 172.16.0.0/16 with an
/// inbound SA for the way back. Returns the host, LAN port, WAN port.
fn edge() -> (Host, IfaceId, IfaceId) {
    let mut h = Host::new("edge", CostModel::default());
    let ns = h.add_namespace("edge");
    let lan = h.add_external(ns, "lan", 1).unwrap();
    let wan = h.add_external(ns, "wan", 2).unwrap();
    h.addr_add(lan, cidr("192.168.1.1/32")).unwrap();
    h.addr_add(wan, cidr("203.0.113.1/32")).unwrap();
    for i in [lan, wan] {
        h.set_up(i, true).unwrap();
    }
    h.sysctl_ip_forward(ns, true).unwrap();
    let gw = Ipv4Addr::new(203, 0, 113, 254);
    for (dst, via, dev, mac) in [
        ("192.168.1.0/24", LAN_HOST, lan, 10),
        ("172.16.0.0/16", PEER, wan, 11),
        ("0.0.0.0/0", gw, wan, 12),
    ] {
        h.route_add(ns, MAIN_TABLE, cidr(dst), Some(via), dev, 0)
            .unwrap();
        h.neigh_add(ns, via, MacAddr::local(mac)).unwrap();
    }
    h.nf_append(
        ns,
        NfTable::Nat,
        Chain::Postrouting,
        NfRule::new(
            RuleMatch {
                out_iface: Some(wan),
                ..Default::default()
            },
            Target::Masquerade,
        ),
    )
    .unwrap();
    h.nf_append(
        ns,
        NfTable::Nat,
        Chain::Prerouting,
        NfRule::new(
            RuleMatch {
                dport: Some(8080),
                ..Default::default()
            },
            Target::Dnat {
                to: LAN_HOST,
                port: Some(80),
            },
        ),
    )
    .unwrap();
    let x = h.xfrm_mut(ns).unwrap();
    x.sad.install(SecurityAssociation::outbound(
        0x100, WAN_IP, PEER, KEY, SALT,
    ));
    x.sad
        .install(SecurityAssociation::inbound(0x200, PEER, WAN_IP, KEY, SALT));
    x.spd.install(SecurityPolicy {
        selector: TrafficSelector::between(cidr("192.168.1.0/24"), cidr("172.16.0.0/16")),
        direction: PolicyDirection::Out,
        action: PolicyAction::Protect(0x100),
        priority: 10,
    });
    (h, lan, wan)
}

/// One of four genuine frames, each taking a different way through
/// [`edge`], and the port it enters by: LAN → internet (masquerade),
/// internet → port 8080 (DNAT), LAN → 172.16/16 (XFRM seal), and
/// `PEER`'s ESP to us (XFRM open, then forward), sealed under
/// sequence number `seq`.
fn genuine(
    h: &Host,
    lan: IfaceId,
    wan: IfaceId,
    kind: usize,
    seq: u32,
    payload: &[u8],
) -> (IfaceId, Packet) {
    let udp = |port: IfaceId, src: Ipv4Addr, dst: Ipv4Addr, dport: u16| {
        PacketBuilder::new()
            .ethernet(MacAddr::local(60), h.iface(port).unwrap().mac)
            .ipv4(src, dst)
            .udp(4000, dport)
            .payload(payload)
            .build()
    };
    match kind {
        0 => (lan, udp(lan, LAN_HOST, REMOTE, 53)),
        1 => (wan, udp(wan, REMOTE, WAN_IP, 8080)),
        2 => (lan, udp(lan, LAN_HOST, Ipv4Addr::new(172, 16, 0, 9), 5201)),
        _ => {
            let inner = udp(wan, Ipv4Addr::new(172, 16, 0, 9), LAN_HOST, 5201);
            let mut sa = SecurityAssociation::outbound(0x200, PEER, WAN_IP, KEY, SALT);
            sa.seq_out = seq - 1;
            let buf = esp::encapsulate_into(&mut sa, &inner.data()[ETH..], ETH + IPV4_HEADER_LEN)
                .unwrap();
            let mut frame = Packet::from_buffer(buf, 0);
            let (eth, ip) = frame.data_mut().split_at_mut(ETH);
            eth.copy_from_slice(&inner.data()[..ETH]);
            esp::fill_tunnel_header(&sa, ip);
            (wan, frame)
        }
    }
}

/// Every frame the host emitted is Ethernet + IPv4 with a valid header
/// checksum; returns how many there were.
fn emitted_ipv4(out: &IoResult) -> usize {
    for (_, frame) in &out.emitted {
        let eth = EthernetFrame::new_checked(frame.data()).expect("emitted Ethernet");
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = Ipv4Packet::new_checked(eth.payload()).expect("emitted IPv4");
        assert!(ip.verify_checksum(), "emitted IPv4 header checksum");
    }
    out.emitted.len()
}

proptest! {
    /// LPM lookup agrees with a brute-force reference.
    #[test]
    fn lpm_matches_reference(
        routes in prop::collection::vec((any::<u32>(), 0u8..=32, 0u32..8, 0u32..4), 0..32),
        probes in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let mut table = RouteTable::new();
        for (addr, plen, dev, metric) in &routes {
            table.add(Route {
                dst: Ipv4Cidr::new(Ipv4Addr::from(*addr), *plen),
                via: None,
                dev: IfaceId(*dev),
                metric: *metric,
            });
        }
        for probe in &probes {
            let ip = Ipv4Addr::from(*probe);
            let got = table.lookup(ip).map(|r| (r.dst.prefix_len(), r.metric));
            // Reference: max prefix length among containing routes, then
            // min metric.
            let reference = routes
                .iter()
                .filter(|(addr, plen, _, _)| {
                    Ipv4Cidr::new(Ipv4Addr::from(*addr), *plen).contains(ip)
                })
                .map(|(_, plen, _, metric)| (*plen, *metric))
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            prop_assert_eq!(got, reference);
        }
    }

    /// Masquerade translations to one public IP never collide: distinct
    /// flows get distinct (ip, port) translations within a zone, and
    /// every reply maps back to exactly the right flow.
    #[test]
    fn nat_translations_never_collide(
        flows in prop::collection::hash_set((any::<u32>(), 1024u16..60000, 1u16..3), 1..64),
    ) {
        let public = Ipv4Addr::new(203, 0, 113, 1);
        let mut ct = Conntrack::new();
        let mut translations = std::collections::HashSet::new();
        let mut ids = Vec::new();
        for (src, sport, zone) in &flows {
            let tuple = FlowTuple {
                src: Ipv4Addr::from(*src),
                dst: Ipv4Addr::new(8, 8, 8, 8),
                proto: 17,
                sport: *sport,
                dport: 53,
            };
            // Skip duplicate tuples within a zone (same flow).
            if ct.find(*zone, &tuple).is_some() {
                continue;
            }
            let id = ct.begin(*zone, tuple);
            ct.set_snat(id, public, None);
            ct.confirm(id);
            let trans = ct.rewrite(id, CtDirection::Original);
            prop_assert!(
                translations.insert((*zone, trans.src, trans.sport)),
                "collision on {:?}", (trans.src, trans.sport)
            );
            ids.push((id, *zone, tuple, trans));
        }
        // Every reply finds its flow and maps back to the original.
        for (id, zone, orig, trans) in ids {
            let (found, dir) = ct.find(zone, &trans.reversed()).unwrap();
            prop_assert_eq!(found, id);
            prop_assert_eq!(dir, CtDirection::Reply);
            prop_assert_eq!(ct.rewrite(found, dir), orig.reversed());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile frames never panic the host. A genuine frame — one of
    /// four that masquerade, DNAT, seal and open — is cut anywhere,
    /// has a byte behind its Ethernet header flipped, has noise spliced
    /// in, and has its IPv4 total length and IHL overwritten
    /// (`un_packet::mutate`, which the node's own property uses too); every
    /// mutant that still parses is also fed with its header checksum
    /// refilled, so it reaches the stages behind the checksum. Whatever
    /// the host emits is Ethernet + IPv4 with a valid header checksum,
    /// and a genuine frame still forwards afterwards.
    #[test]
    fn a_hostile_frame_never_panics_the_host(
        kind in 0usize..4,
        payload in prop::collection::vec(any::<u8>(), 0..200),
        at in any::<u16>(),
        flip in 1u8..=255,
        cut in any::<u16>(),
        noise in prop::collection::vec(any::<u8>(), 1..40),
        total_len in any::<u16>(),
        ihl in 0u8..16,
    ) {
        let (mut h, lan, wan) = edge();
        let (port, frame) = genuine(&h, lan, wan, kind, 1, &payload);
        let m = Mutation { at, flip, cut, noise, total_len, ihl };
        for mutant in mutants(&frame, &m) {
            for fed in [mutant.clone(), refilled(mutant)] {
                if fed != frame {
                    emitted_ipv4(&h.inject(port, fed));
                }
            }
        }

        let (port, frame) = genuine(&h, lan, wan, kind, 2, &payload);
        prop_assert_eq!(emitted_ipv4(&h.inject(port, frame)), 1, "the genuine frame forwards");
    }
}
