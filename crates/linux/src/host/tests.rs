//! End-to-end tests of the simulated kernel pipeline.

use super::*;
use crate::netfilter::{NfRule, RuleMatch, Target};
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

/// Two namespaces joined by a veth: 10.0.0.1 (a) <-> 10.0.0.2 (b).
fn two_ns_host() -> (Host, NsId, NsId) {
    let mut h = Host::new("t", CostModel::default());
    let a = h.add_namespace("a");
    let b = h.add_namespace("b");
    let (va, vb) = h.add_veth(a, "veth-a", b, "veth-b").unwrap();
    h.addr_add(va, cidr("10.0.0.1/24")).unwrap();
    h.addr_add(vb, cidr("10.0.0.2/24")).unwrap();
    h.set_up(va, true).unwrap();
    h.set_up(vb, true).unwrap();
    (h, a, b)
}

#[test]
fn ping_across_veth_with_real_arp() {
    let (mut h, a, _b) = two_ns_host();
    let echo = un_packet::PacketBuilder::new()
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 7, 1)
        .payload(b"abcdefgh")
        .build();
    let res = h.raw_send(a, echo).unwrap();
    // Everything stays inside the host (veth), nothing emitted externally.
    assert!(res.emitted.is_empty());
    assert!(res.cost.as_nanos() > 0);
    // ARP happened, echo was answered, reply delivered back to ns a.
    assert_eq!(h.trace.counter("arp_requests"), 1);
    assert_eq!(h.trace.counter("arp_replies"), 1);
    assert_eq!(h.trace.counter("icmp_echo_requests"), 1);
    assert_eq!(h.trace.counter("icmp_other"), 1, "echo reply delivered");
}

#[test]
fn second_packet_skips_arp() {
    let (mut h, a, _b) = two_ns_host();
    let echo = || {
        un_packet::PacketBuilder::new()
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 7, 1)
            .build()
    };
    h.raw_send(a, echo()).unwrap();
    h.raw_send(a, echo()).unwrap();
    assert_eq!(h.trace.counter("arp_requests"), 1, "neighbor cached");
    assert_eq!(h.trace.counter("icmp_echo_requests"), 2);
}

#[test]
fn udp_send_recv_across_veth() {
    let (mut h, a, b) = two_ns_host();
    let server = h.udp_bind(b, Ipv4Addr::UNSPECIFIED, 5201).unwrap();
    let client = h.udp_bind(a, Ipv4Addr::UNSPECIFIED, 5001).unwrap();
    h.udp_send(client, Ipv4Addr::new(10, 0, 0, 2), 5201, b"measurement")
        .unwrap();
    let dg = h.udp_recv(server).expect("datagram delivered");
    assert_eq!(dg.payload, b"measurement");
    assert_eq!(dg.src, Ipv4Addr::new(10, 0, 0, 1));
    assert_eq!(dg.sport, 5001);
    // And the reverse direction.
    h.udp_send(server, dg.src, dg.sport, b"ack").unwrap();
    let back = h.udp_recv(client).expect("reply delivered");
    assert_eq!(back.payload, b"ack");
}

/// client ns -- veth -- router ns -- veth -- server ns, router forwards.
/// client: 192.168.1.10/24, router LAN 192.168.1.1, router WAN 203.0.113.1,
/// server: 203.0.113.9/24.
fn routed_host() -> (Host, NsId, NsId, NsId) {
    let mut h = Host::new("r", CostModel::default());
    let client = h.add_namespace("client");
    let router = h.add_namespace("router");
    let server = h.add_namespace("server");
    let (c0, r0) = h.add_veth(client, "eth0", router, "lan").unwrap();
    let (r1, s0) = h.add_veth(router, "wan", server, "eth0").unwrap();
    h.addr_add(c0, cidr("192.168.1.10/24")).unwrap();
    h.addr_add(r0, cidr("192.168.1.1/24")).unwrap();
    h.addr_add(r1, cidr("203.0.113.1/24")).unwrap();
    h.addr_add(s0, cidr("203.0.113.9/24")).unwrap();
    for i in [c0, r0, r1, s0] {
        h.set_up(i, true).unwrap();
    }
    h.sysctl_ip_forward(router, true).unwrap();
    // Default routes.
    h.route_add(
        client,
        crate::route::MAIN_TABLE,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(192, 168, 1, 1)),
        c0,
        0,
    )
    .unwrap();
    h.route_add(
        server,
        crate::route::MAIN_TABLE,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(203, 0, 113, 1)),
        s0,
        0,
    )
    .unwrap();
    (h, client, router, server)
}

#[test]
fn forwarding_with_masquerade_nat() {
    let (mut h, client, router, server) = routed_host();
    // Masquerade everything leaving the WAN side.
    let wan = h.iface_by_name(router, "wan").unwrap().id;
    h.nf_append(
        router,
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

    let srv = h.udp_bind(server, Ipv4Addr::UNSPECIFIED, 53).unwrap();
    let cli = h.udp_bind(client, Ipv4Addr::UNSPECIFIED, 5000).unwrap();
    h.udp_send(cli, Ipv4Addr::new(203, 0, 113, 9), 53, b"query")
        .unwrap();

    let dg = h.udp_recv(srv).expect("query forwarded");
    assert_eq!(
        dg.src,
        Ipv4Addr::new(203, 0, 113, 1),
        "source must be the router's WAN address after masquerade"
    );
    assert_eq!(dg.payload, b"query");

    // Reply to the translated source; NAT must reverse it.
    h.udp_send(srv, dg.src, dg.sport, b"answer").unwrap();
    let counters: Vec<_> = h.trace.counters().collect();
    let back = h
        .udp_recv(cli)
        .unwrap_or_else(|| panic!("reply de-NATed and delivered; counters: {counters:?}"));
    assert_eq!(back.payload, b"answer");
    assert_eq!(back.src, Ipv4Addr::new(203, 0, 113, 9));
    assert_eq!(h.namespace(router).unwrap().forwarded, 2);
}

#[test]
fn stateful_firewall_allows_replies_only() {
    let (mut h, client, router, server) = routed_host();
    // FORWARD policy DROP; allow LAN->WAN new, and only ESTABLISHED back.
    h.nf_policy(router, NfTable::Filter, Chain::Forward, false)
        .unwrap();
    let lan = h.iface_by_name(router, "lan").unwrap().id;
    h.nf_append(
        router,
        NfTable::Filter,
        Chain::Forward,
        NfRule::new(
            RuleMatch {
                in_iface: Some(lan),
                ..Default::default()
            },
            Target::Accept,
        ),
    )
    .unwrap();
    h.nf_append(
        router,
        NfTable::Filter,
        Chain::Forward,
        NfRule::new(
            RuleMatch {
                ct_state: Some(CtState::Established),
                ..Default::default()
            },
            Target::Accept,
        ),
    )
    .unwrap();

    let srv = h.udp_bind(server, Ipv4Addr::UNSPECIFIED, 53).unwrap();
    let cli = h.udp_bind(client, Ipv4Addr::UNSPECIFIED, 5000).unwrap();

    // Unsolicited WAN->LAN traffic must be dropped.
    h.udp_send(srv, Ipv4Addr::new(192, 168, 1, 10), 5000, b"unsolicited")
        .unwrap();
    assert!(h.udp_recv(cli).is_none(), "firewall must block unsolicited");

    // Client-initiated flow passes, and its reply passes (ESTABLISHED).
    h.udp_send(cli, Ipv4Addr::new(203, 0, 113, 9), 53, b"query")
        .unwrap();
    let dg = h.udp_recv(srv).expect("outbound allowed");
    h.udp_send(srv, dg.src, dg.sport, b"answer").unwrap();
    assert!(h.udp_recv(cli).is_some(), "reply must pass as ESTABLISHED");
}

#[test]
fn policy_routing_by_fwmark() {
    // Router with two WAN externals; mark decides which one.
    let mut h = Host::new("pr", CostModel::default());
    let r = h.add_namespace("router");
    let wan1 = h.add_external(r, "wan1", 101).unwrap();
    let wan2 = h.add_external(r, "wan2", 102).unwrap();
    let lan = h.add_external(r, "lan", 100).unwrap();
    h.addr_add(wan1, cidr("198.51.100.1/24")).unwrap();
    h.addr_add(wan2, cidr("203.0.113.1/24")).unwrap();
    h.addr_add(lan, cidr("192.168.1.1/24")).unwrap();
    for i in [wan1, wan2, lan] {
        h.set_up(i, true).unwrap();
    }
    h.sysctl_ip_forward(r, true).unwrap();
    h.route_add(
        r,
        crate::route::MAIN_TABLE,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(198, 51, 100, 254)),
        wan1,
        0,
    )
    .unwrap();
    h.route_add(
        r,
        102,
        cidr("0.0.0.0/0"),
        Some(Ipv4Addr::new(203, 0, 113, 254)),
        wan2,
        0,
    )
    .unwrap();
    h.rule_add(
        r,
        IpRule {
            priority: 100,
            fwmark: Some(2),
            table: 102,
        },
    )
    .unwrap();
    h.neigh_add(r, Ipv4Addr::new(198, 51, 100, 254), MacAddr::local(900))
        .unwrap();
    h.neigh_add(r, Ipv4Addr::new(203, 0, 113, 254), MacAddr::local(901))
        .unwrap();
    // Mark traffic from 192.168.2.0/24 with 2 (mangle PREROUTING).
    h.nf_append(
        r,
        NfTable::Mangle,
        Chain::Prerouting,
        NfRule::new(
            RuleMatch {
                src: Some(cidr("192.168.2.0/24")),
                ..Default::default()
            },
            Target::SetMark(2),
        ),
    )
    .unwrap();

    let lan_mac = h.iface(lan).unwrap().mac;
    let mk_pkt = move |src: [u8; 4]| {
        let mut p = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(50), lan_mac)
            .ipv4(Ipv4Addr::from(src), Ipv4Addr::new(8, 8, 8, 8))
            .udp(1234, 53)
            .payload(b"q")
            .build();
        p.meta = PacketMeta::default();
        p
    };

    let res1 = h.inject(lan, mk_pkt([192, 168, 1, 50]));
    assert_eq!(res1.emitted.len(), 1);
    assert_eq!(res1.emitted[0].0, 101, "unmarked goes out wan1");

    let res2 = h.inject(lan, mk_pkt([192, 168, 2, 50]));
    assert_eq!(res2.emitted.len(), 1);
    assert_eq!(res2.emitted[0].0, 102, "marked goes out wan2");
}

#[test]
fn bridge_learns_and_forwards() {
    let mut h = Host::new("br", CostModel::default());
    let r = h.add_namespace("bridge-ns");
    let br = h.add_bridge(r, "br0").unwrap();
    let p1 = h.add_external(r, "p1", 1).unwrap();
    let p2 = h.add_external(r, "p2", 2).unwrap();
    let p3 = h.add_external(r, "p3", 3).unwrap();
    for i in [br, p1, p2, p3] {
        h.set_up(i, true).unwrap();
    }
    for p in [p1, p2, p3] {
        h.bridge_attach(br, p).unwrap();
    }

    let ha = MacAddr::local(10);
    let hb = MacAddr::local(11);
    let frame = |src: MacAddr, dst: MacAddr| {
        un_packet::PacketBuilder::new()
            .ethernet(src, dst)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .build()
    };

    // Unknown dst: flood to the other two ports.
    let res = h.inject(p1, frame(ha, hb));
    let mut tags: Vec<u64> = res.emitted.iter().map(|(t, _)| *t).collect();
    tags.sort();
    assert_eq!(tags, vec![2, 3]);

    // Reply learns hb on p2; now traffic to ha is directed to p1 only.
    let res = h.inject(p2, frame(hb, ha));
    let tags: Vec<u64> = res.emitted.iter().map(|(t, _)| *t).collect();
    assert_eq!(tags, vec![1], "learned unicast must not flood");
}

#[test]
fn vlan_subinterface_demux_and_tagging() {
    let mut h = Host::new("vl", CostModel::default());
    let r = h.add_namespace("ns");
    let eth = h.add_external(r, "eth0", 9).unwrap();
    let sub = h.add_vlan_sub(eth, 100, "eth0.100").unwrap();
    h.addr_add(sub, cidr("10.10.0.1/24")).unwrap();
    h.set_up(eth, true).unwrap();
    h.set_up(sub, true).unwrap();
    // Duplicate VID rejected.
    assert!(matches!(
        h.add_vlan_sub(eth, 100, "dup"),
        Err(HostError::VlanInUse(100))
    ));

    // Tagged echo request arrives on eth0; sub-iface answers, reply
    // leaves tagged again.
    let sub_mac = h.iface(sub).unwrap().mac;
    let echo = un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(77), sub_mac)
        .vlan(100)
        .ipv4(Ipv4Addr::new(10, 10, 0, 2), Ipv4Addr::new(10, 10, 0, 1))
        .icmp_echo(un_packet::icmp::IcmpKind::EchoRequest, 1, 1)
        .build();
    // Static neighbor so the reply needs no ARP.
    h.neigh_add(r, Ipv4Addr::new(10, 10, 0, 2), MacAddr::local(77))
        .unwrap();
    let res = h.inject(eth, echo);
    assert_eq!(res.emitted.len(), 1);
    let (tag, reply) = &res.emitted[0];
    assert_eq!(*tag, 9);
    assert_eq!(reply.vlan_id(), Some(100), "reply must be re-tagged");
}

#[test]
fn xfrm_tunnel_between_two_hosts() {
    // Host A (CPE) and host B (gateway) joined by their external ifaces.
    let costs = CostModel::default();
    let key = [5u8; 32];
    let salt = [0, 1, 2, 3];

    let mk = |name: &str, my_ip: &str| {
        let mut h = Host::new(name, costs.clone());
        let ns = NsId(0);
        let ext = h.add_external(ns, "wan", 1).unwrap();
        h.addr_add(ext, cidr(my_ip)).unwrap();
        h.set_up(ext, true).unwrap();
        (h, ext)
    };
    let a_ip = Ipv4Addr::new(192, 0, 2, 1);
    let b_ip = Ipv4Addr::new(192, 0, 2, 2);
    let (mut ha, ext_a) = mk("a", "192.0.2.1/24");
    let (mut hb, ext_b) = mk("b", "192.0.2.2/24");
    // Static neighbors with each other's real MACs (the node fabric
    // normally lets ARP do this; here the wire is hand-carried).
    let mac_a = ha.iface(ext_a).unwrap().mac;
    let mac_b = hb.iface(ext_b).unwrap().mac;
    ha.neigh_add(NsId(0), b_ip, mac_b).unwrap();
    hb.neigh_add(NsId(0), a_ip, mac_a).unwrap();

    // A protects traffic to 172.16.0.0/16 via SPI 0x700.
    {
        let x = ha.xfrm_mut(NsId(0)).unwrap();
        x.sad
            .install(SecurityAssociation::outbound(0x700, a_ip, b_ip, key, salt));
        x.spd.install(SecurityPolicy {
            selector: TrafficSelector::between(cidr("0.0.0.0/0"), cidr("172.16.0.0/16")),
            direction: PolicyDirection::Out,
            action: PolicyAction::Protect(0x700),
            priority: 10,
        });
    }
    {
        let x = hb.xfrm_mut(NsId(0)).unwrap();
        x.sad
            .install(SecurityAssociation::inbound(0x700, a_ip, b_ip, key, salt));
    }
    // A routes the protected subnet toward the gateway (the SPD then
    // decides to encapsulate).
    ha.route_add(
        NsId(0),
        crate::route::MAIN_TABLE,
        cidr("172.16.0.0/16"),
        Some(b_ip),
        ext_a,
        0,
    )
    .unwrap();
    // B owns 172.16.0.1 locally (simulating the protected service) and a
    // UDP socket on it.
    let svc = hb.add_external(NsId(0), "svc", 2).unwrap();
    hb.addr_add(svc, cidr("172.16.0.1/16")).unwrap();
    hb.set_up(svc, true).unwrap();
    let sock = hb.udp_bind(NsId(0), Ipv4Addr::UNSPECIFIED, 4000).unwrap();

    // A sends a datagram to the protected subnet.
    let payload = vec![0xEE; 256];
    let inner = un_packet::PacketBuilder::new()
        .ipv4(a_ip, Ipv4Addr::new(172, 16, 0, 1))
        .udp(111, 4000)
        .payload(&payload)
        .build();
    let res = ha.raw_send(NsId(0), inner).unwrap();
    assert_eq!(res.emitted.len(), 1, "encapsulated packet leaves host A");
    let (_, wire) = &res.emitted[0];

    // The frame on the wire is ESP, not plaintext.
    let eth = wire.ethernet().unwrap();
    let outer = Ipv4Packet::new_checked(eth.payload()).unwrap();
    assert_eq!(outer.protocol(), IpProtocol::Esp);
    let wire_bytes = wire.data().to_vec();
    assert!(
        !wire_bytes.windows(payload.len()).any(|w| w == &payload[..]),
        "payload must not appear in cleartext on the wire"
    );

    // Deliver to host B: it decapsulates and the socket receives.
    hb.inject(ext_b, wire.clone());
    let dg = hb.udp_recv(sock).expect("decapsulated datagram delivered");
    assert_eq!(dg.payload, payload);
    assert_eq!(ha.trace.counter("xfrm_encap"), 1);
    assert_eq!(hb.trace.counter("xfrm_decap"), 1);
    let _ = ext_a;
}

#[test]
fn ttl_expiry_drops() {
    let (mut h, client, router, _server) = routed_host();
    let c0 = h.iface_by_name(client, "eth0").unwrap().id;
    let _ = c0;
    // Build a TTL=1 packet from the client; router decrements to 0.
    let sock = h.udp_bind(client, Ipv4Addr::UNSPECIFIED, 5000).unwrap();
    let _ = sock;
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(203, 0, 113, 9),
        )
        .ttl(1)
        .udp(5000, 53)
        .build();
    h.raw_send(client, pkt).unwrap();
    assert_eq!(h.trace.counter("ttl_expired"), 1);
    // The counter is host-wide; the router is where the frame stopped.
    assert_eq!(h.namespace(router).unwrap().forwarded, 0);
    assert_eq!(h.iface_by_name(router, "wan").unwrap().tx_packets, 0);
}

#[test]
fn forwarding_disabled_drops() {
    let (mut h, client, router, _server) = routed_host();
    h.sysctl_ip_forward(router, false).unwrap();
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(203, 0, 113, 9),
        )
        .udp(5000, 53)
        .build();
    h.raw_send(client, pkt).unwrap();
    assert_eq!(h.trace.counter("rx_not_for_us"), 1);
}

#[test]
fn arp_pending_queue_bounded() {
    let mut h = Host::new("q", CostModel::default());
    let ns = h.add_namespace("ns");
    let ext = h.add_external(ns, "eth0", 1).unwrap();
    h.addr_add(ext, cidr("10.0.0.1/24")).unwrap();
    h.set_up(ext, true).unwrap();
    // Send 5 packets to an unresolvable neighbor: 1 ARP request out,
    // NEIGH_QUEUE_MAX parked, rest dropped.
    for i in 0..5u16 {
        let p = un_packet::PacketBuilder::new()
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 99))
            .udp(1000 + i, 9)
            .build();
        h.raw_send(ns, p).unwrap();
    }
    assert_eq!(h.trace.counter("arp_requests"), 1);
    assert_eq!(
        h.trace.counter("neigh_queue_drops"),
        (5 - NEIGH_QUEUE_MAX) as u64 - 1 + 1
    );

    // The ARP reply arrives: parked packets flush out.
    let my_mac = h.iface(ext).unwrap().mac;
    let mut reply = Packet::zeroed(ETHERNET_HEADER_LEN + ARP_LEN);
    {
        let buf = reply.data_mut();
        let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
        e.set_dst(my_mac);
        e.set_src(MacAddr::local(42));
        e.set_ethertype(EtherType::Arp);
        let mut a = ArpPacket::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
        a.init();
        a.set_op(ArpOp::Reply);
        a.set_sender_mac(MacAddr::local(42));
        a.set_sender_ip(Ipv4Addr::new(10, 0, 0, 99));
        a.set_target_mac(my_mac);
        a.set_target_ip(Ipv4Addr::new(10, 0, 0, 1));
    }
    let res = h.inject(ext, reply);
    assert_eq!(res.emitted.len(), NEIGH_QUEUE_MAX, "parked packets flushed");
}

#[test]
fn config_errors() {
    let mut h = Host::new("e", CostModel::default());
    let ns = h.add_namespace("ns");
    let ext = h.add_external(ns, "eth0", 1).unwrap();
    assert!(matches!(
        h.add_external(ns, "eth0", 2),
        Err(HostError::IfaceNameInUse(_))
    ));
    assert!(matches!(
        h.add_external(NsId(99), "x", 3),
        Err(HostError::NoSuchNamespace(99))
    ));
    assert!(matches!(
        h.bridge_attach(ext, ext),
        Err(HostError::WrongIfaceKind(_))
    ));
    h.udp_bind(ns, Ipv4Addr::UNSPECIFIED, 53).unwrap();
    assert!(matches!(
        h.udp_bind(ns, Ipv4Addr::UNSPECIFIED, 53),
        Err(HostError::AddrInUse(_))
    ));
}

#[test]
fn down_iface_refuses_traffic() {
    let (mut h, a, _b) = two_ns_host();
    let va = h.iface_by_name(a, "veth-a").unwrap().id;
    h.set_up(va, false).unwrap();
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .udp(1, 2)
        .build();
    h.raw_send(a, pkt).unwrap();
    assert_eq!(h.trace.counter("icmp_echo_requests"), 0);
    assert!(h.trace.counter("tx_down_iface") >= 1 || h.trace.counter("no_route") >= 1);
}

#[test]
fn costs_accumulate_along_path() {
    let (mut h, a, b) = two_ns_host();
    let srv = h.udp_bind(b, Ipv4Addr::UNSPECIFIED, 7).unwrap();
    let cli = h.udp_bind(a, Ipv4Addr::UNSPECIFIED, 8).unwrap();
    let res = h
        .udp_send(cli, Ipv4Addr::new(10, 0, 0, 2), 7, &[0u8; 1000])
        .unwrap();
    // user/kernel crossing + ip + veth + l4 at least.
    let floor =
        CostModel::default().user_kernel_crossing_ns + CostModel::default().veth_crossing_ns;
    assert!(
        res.cost.as_nanos() > floor,
        "cost {} too small",
        res.cost.as_nanos()
    );
    assert!(h.udp_recv(srv).is_some());
    let _ = cli;
}

#[test]
fn removed_namespace_leaves_no_residue_and_its_handles_are_reused() {
    let mut h = Host::new("t", CostModel::default());
    let keep = h.add_namespace("keep");
    let br = h.add_bridge(keep, "br0").unwrap();
    let (ns_before, if_before) = (h.namespace_count(), h.iface_count());

    // A namespace wired the way the NNF plugins wire theirs, plus a
    // veth into `keep` that is bridged and routed there.
    let gone = h.add_namespace("gone");
    let port = h.add_external(gone, "port0", 7).unwrap();
    h.add_vlan_sub(port, 100, "port0.100").unwrap();
    let (inner, outer) = h.add_veth(gone, "up", keep, "down").unwrap();
    h.addr_add(inner, cidr("10.9.0.1/24")).unwrap();
    h.addr_add(outer, cidr("10.9.0.2/24")).unwrap();
    h.bridge_attach(br, outer).unwrap();
    h.udp_bind(gone, Ipv4Addr::UNSPECIFIED, 500).unwrap();

    h.remove_namespace(gone).unwrap();
    assert_eq!(h.namespace_count(), ns_before);
    assert_eq!(h.iface_count(), if_before, "peer end must go with the veth");
    assert!(h.namespace(gone).is_none());
    assert!(h.iface(port).is_none() && h.iface(outer).is_none());
    assert!(h.iface_by_name(keep, "down").is_none());
    let kept = h.namespace(keep).unwrap();
    assert!(!kept.ifaces.contains(&outer));
    assert!(
        kept.routing.lookup(Ipv4Addr::new(10, 9, 0, 1), 0).is_none(),
        "route through the removed peer survived"
    );
    assert!(
        matches!(&h.iface(br).unwrap().kind, IfaceKind::Bridge { members, .. } if members.is_empty())
    );
    assert!(matches!(
        h.remove_namespace(gone),
        Err(HostError::NoSuchNamespace(_))
    ));
    assert!(matches!(
        h.add_external(gone, "x", 1),
        Err(HostError::NoSuchNamespace(_))
    ));
    assert_eq!(h.remove_namespace(NsId(0)), Err(HostError::RootNamespace));

    // The next namespace takes over the freed handle, starts empty, and
    // does not inherit the old one's socket.
    let again = h.add_namespace("again");
    assert_eq!(again, gone);
    assert_eq!(h.namespace(again).unwrap().ifaces.len(), 1, "just lo");
    h.udp_bind(again, Ipv4Addr::UNSPECIFIED, 500).unwrap();
    h.remove_namespace(again).unwrap();
    assert_eq!(
        (h.namespace_count(), h.iface_count()),
        (ns_before, if_before)
    );
}

/// A bridge `br0` (10.0.0.1/24) over three external members tagged 1,
/// 2 and 3, in that order, everything up.
fn three_port_bridge() -> (Host, NsId, IfaceId) {
    let mut h = Host::new("br3", CostModel::default());
    let ns = h.add_namespace("bridge-ns");
    let br = h.add_bridge(ns, "br0").unwrap();
    let ports = [1, 2, 3].map(|tag| h.add_external(ns, &format!("p{tag}"), tag).unwrap());
    for i in [br].into_iter().chain(ports) {
        h.set_up(i, true).unwrap();
    }
    for p in ports {
        h.bridge_attach(br, p).unwrap();
    }
    h.addr_add(br, cidr("10.0.0.1/24")).unwrap();
    (h, ns, ports[0])
}

/// What a call emitted, as `(tag, frame bytes in hex)` in emission
/// order.
fn emissions(res: &IoResult) -> Vec<(u64, String)> {
    let hex = |p: &Packet| p.data().iter().map(|b| format!("{b:02x}")).collect();
    res.emitted.iter().map(|(tag, p)| (*tag, hex(p))).collect()
}

/// `frame` out of each of `tags`, in that order.
fn to_each(tags: &[u64], frame: &str) -> Vec<(u64, String)> {
    tags.iter().map(|&t| (t, frame.to_string())).collect()
}

/// Both floods of a three-member bridge — a frame received for a MAC
/// the FDB has not learned, and a frame sent out of the bridge itself
/// toward one — reach their members in member order with the bytes
/// unchanged. The sequences are the ones the bridge emitted when each
/// flood still cloned the frame for every target.
#[test]
fn a_bridge_floods_in_member_order_with_the_frame_unchanged() {
    let (mut h, ns, p1) = three_port_bridge();
    let frame = |dst: MacAddr| {
        un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(10), dst)
            .ipv4(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 0, 0, 9))
            .udp(1, 2)
            .payload(b"flood")
            .build()
    };
    const IP_UDP: &str = "08004500002100000000401166bf0a0000050a00000900010002000db1e7666c6f6f64";

    // Received on p1 for an unknown MAC: out every other member.
    let res = h.inject(p1, frame(MacAddr::local(11)));
    let unicast = format!("02000000000b02000000000a{IP_UDP}");
    assert_eq!(emissions(&res), to_each(&[2, 3], &unicast));

    // Broadcast: the same, and up the bridge's own stack too, which
    // does not forward it.
    let res = h.inject(p1, frame(MacAddr::BROADCAST));
    let broadcast = format!("ffffffffffff02000000000a{IP_UDP}");
    assert_eq!(emissions(&res), to_each(&[2, 3], &broadcast));
    assert_eq!(h.trace.counter("rx_not_for_us"), 1);

    // Sent out of the bridge toward a neighbour the FDB has not
    // learned: out every member.
    h.neigh_add(ns, Ipv4Addr::new(10, 0, 0, 9), MacAddr::local(77))
        .unwrap();
    let pkt = un_packet::PacketBuilder::new()
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 9))
        .udp(3, 4)
        .payload(b"egress")
        .build();
    let res = h.raw_send(ns, pkt).unwrap();
    let egress = "02000000004d020000000003\
        08004500002200000000401166c20a0000010a00000900030004000ea081656772657373";
    assert_eq!(emissions(&res), to_each(&[1, 2, 3], egress));
}

/// A UDP frame `src → dst` on the bridge's subnet.
fn bridged(src: MacAddr, dst: MacAddr) -> Packet {
    un_packet::PacketBuilder::new()
        .ethernet(src, dst)
        .ipv4(Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 0, 0, 9))
        .udp(1, 2)
        .build()
}

/// The tags a call emitted on, in emission order.
fn tags(res: &IoResult) -> Vec<u64> {
    res.emitted.iter().map(|(tag, _)| *tag).collect()
}

/// The learned-MAC count of `bridge`'s FDB.
fn fdb_len(h: &Host, bridge: IfaceId) -> usize {
    match &h.iface(bridge).unwrap().kind {
        IfaceKind::Bridge { fdb, .. } => fdb.len(),
        other => panic!("not a bridge: {other:?}"),
    }
}

/// Linux's bridge drops a frame whose source is not a station address
/// — multicast, broadcast or all-zero (`br_handle_frame`,
/// `!is_valid_ether_addr`) — before it learns anything: the frame is
/// neither learned nor forwarded, and is booked once under
/// `rx_invalid_src_mac`.
#[test]
fn a_bridge_neither_learns_nor_forwards_an_invalid_source() {
    let (mut h, ns, p1) = three_port_bridge();
    let br = h.iface_by_name(ns, "br0").unwrap().id;
    let multicast = MacAddr([0x01, 0x00, 0x5e, 0x00, 0x00, 0x01]);
    for src in [MacAddr::BROADCAST, multicast, MacAddr::ZERO] {
        let res = h.inject(p1, bridged(src, MacAddr::local(11)));
        assert!(res.emitted.is_empty(), "{src:?} was forwarded");
    }
    assert_eq!(h.trace.counter("rx_invalid_src_mac"), 3);
    assert_eq!(fdb_len(&h, br), 0, "an invalid source was learned");

    // A station address is learned, and its frame floods as before.
    let res = h.inject(p1, bridged(MacAddr::local(10), MacAddr::local(11)));
    assert_eq!(tags(&res), [2, 3]);
    assert_eq!(fdb_len(&h, br), 1);
}

/// A MAC learned on a member that leaves the bridge is forgotten with
/// it, memo included: a frame for it floods, also when a new member
/// takes the departed member's handle.
#[test]
fn a_mac_learned_on_a_detached_member_floods() {
    let (mut h, ns, p1) = three_port_bridge();
    let br = h.iface_by_name(ns, "br0").unwrap().id;
    let p2 = h.iface_by_name(ns, "p2").unwrap().id;
    let (a, b) = (MacAddr::local(20), MacAddr::local(21));
    assert_eq!(
        tags(&h.inject(p2, bridged(a, b))),
        [1, 3],
        "unknown: floods"
    );
    assert_eq!(tags(&h.inject(p1, bridged(b, a))), [2], "learned on p2");
    assert_eq!(tags(&h.inject(p1, bridged(b, a))), [2], "and again");

    h.remove_iface(p2).unwrap();
    assert_eq!(tags(&h.inject(p1, bridged(b, a))), [3], "p2 left: floods");

    let p4 = h.add_external(ns, "p4", 4).unwrap();
    assert_eq!(p4, p2, "the departed member's handle is reused");
    h.set_up(p4, true).unwrap();
    h.bridge_attach(br, p4).unwrap();
    assert_eq!(tags(&h.inject(p1, bridged(b, a))), [3, 4]);
}

/// The FDB's memo is invisible: over random learn / forward /
/// member-detach sequences on `three_port_bridge` — a detached member
/// half the time replaced by a new one on its handle — every frame
/// leaves on exactly the members a plain `HashMap` FDB picks, in member
/// order.
#[test]
fn the_fdb_memo_is_invisible() {
    let mut rng = un_sim::DetRng::new(0xfdb);
    for _ in 0..64 {
        let (mut h, ns, _) = three_port_bridge();
        let br = h.iface_by_name(ns, "br0").unwrap().id;
        let bridge_mac = h.iface(br).unwrap().mac;
        let mut members: Vec<(IfaceId, u64)> = (1..=3)
            .map(|tag| (h.iface_by_name(ns, &format!("p{tag}")).unwrap().id, tag))
            .collect();
        let mut next_tag = 4;
        let mut model: HashMap<MacAddr, IfaceId> = HashMap::new();
        // Few stations, so learns repeat, move and get looked up.
        let station = |rng: &mut un_sim::DetRng| MacAddr::local(10 + rng.index(4) as u32);
        for _ in 0..64 {
            if rng.index(8) == 0 {
                let (gone, _) = members.remove(rng.index(members.len()));
                h.remove_iface(gone).unwrap();
                model.retain(|_, port| *port != gone);
                if members.is_empty() || rng.chance(0.5) {
                    let tag = next_tag;
                    next_tag += 1;
                    let id = h.add_external(ns, &format!("p{tag}"), tag).unwrap();
                    h.set_up(id, true).unwrap();
                    h.bridge_attach(br, id).unwrap();
                    members.push((id, tag));
                }
                continue;
            }
            let (ingress, _) = members[rng.index(members.len())];
            let src = station(&mut rng);
            let dst = match rng.index(8) {
                0 => MacAddr::BROADCAST,
                1 => bridge_mac,
                _ => station(&mut rng),
            };
            model.insert(src, ingress);
            let others = || {
                members
                    .iter()
                    .filter(|(id, _)| *id != ingress)
                    .map(|&(_, tag)| tag)
                    .collect::<Vec<_>>()
            };
            let want = if dst == bridge_mac {
                Vec::new()
            } else if dst.is_broadcast() {
                others()
            } else {
                match model.get(&dst) {
                    Some(&out) if out == ingress => Vec::new(),
                    Some(&out) => members
                        .iter()
                        .filter(|(id, _)| *id == out)
                        .map(|&(_, tag)| tag)
                        .collect(),
                    None => others(),
                }
            };
            let res = h.inject(ingress, bridged(src, dst));
            assert_eq!(tags(&res), want, "{src:?} → {dst:?} in on {ingress}");
            assert_eq!(fdb_len(&h, br), model.len());
        }
    }
}

/// A sender cycling source MACs fills a bridge's FDB to
/// `FDB_MAX_LEARNED` and no further: 10,000 random sources all get
/// through, flooding, the ones past the bound are counted under
/// `fdb_learn_refused`, and stations learned before the flood are still
/// reached unicast.
#[test]
fn a_full_fdb_learns_no_new_source_and_still_forwards() {
    use crate::iface::FDB_MAX_LEARNED;
    let (mut h, ns, p1) = three_port_bridge();
    let br = h.iface_by_name(ns, "br0").unwrap().id;
    let p2 = h.iface_by_name(ns, "p2").unwrap().id;
    let p3 = h.iface_by_name(ns, "p3").unwrap().id;
    let (station, peer) = (MacAddr::local(20), MacAddr::local(21));
    assert_eq!(tags(&h.inject(p2, bridged(station, peer))), [1, 3]);

    let mut rng = un_sim::DetRng::new(0xfdb);
    for _ in 0..10_000 {
        let mut octets = [0u8; 6];
        octets.iter_mut().for_each(|o| *o = rng.index(256) as u8);
        octets[0] = (octets[0] & 0xfe) | 0x02; // unicast, locally administered
        let res = h.inject(p1, bridged(MacAddr(octets), peer));
        assert_eq!(tags(&res), [2, 3], "an unknown destination floods");
    }
    let learned = fdb_len(&h, br);
    assert_eq!(learned, FDB_MAX_LEARNED);
    let refused = h.trace.counter("fdb_learn_refused");
    assert_eq!(refused, 10_000 - (FDB_MAX_LEARNED as u64 - 1));

    // What the bridge learned before the flood still goes unicast, and
    // a known station may still move.
    assert_eq!(tags(&h.inject(p1, bridged(peer, station))), [2]);
    assert_eq!(tags(&h.inject(p3, bridged(station, peer))), [1, 2]);
    assert_eq!(
        tags(&h.inject(p1, bridged(peer, station))),
        [3],
        "moved to p3"
    );
    assert_eq!(fdb_len(&h, br), FDB_MAX_LEARNED);
}

/// One tenant opening more flows of one protocol than its masquerade
/// has ports: the first flow keeps its source port 1000, the next
/// 32,768 take 32768–65535, and the 32,770th — whose port probe once
/// never returned, hanging the node — is dropped promptly under
/// `nat_ports_exhausted`. The earlier flows keep their translations.
/// Run on a thread with a timeout, so that a hang fails the test.
#[test]
fn an_exhausted_nat_drops_the_flow_and_keeps_the_rest() {
    const FLOWS: u32 = 32_770;
    let (tx, rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let mut h = Host::new("nat", CostModel::default());
        let ns = h.add_namespace("nat");
        let lan = h.add_external(ns, "lan", 1).unwrap();
        let wan = h.add_external(ns, "wan", 2).unwrap();
        h.addr_add(lan, cidr("10.0.0.1/8")).unwrap();
        h.addr_add(wan, cidr("203.0.113.1/24")).unwrap();
        for i in [lan, wan] {
            h.set_up(i, true).unwrap();
        }
        h.sysctl_ip_forward(ns, true).unwrap();
        let gw = Ipv4Addr::new(203, 0, 113, 254);
        let main = crate::route::MAIN_TABLE;
        h.route_add(ns, main, cidr("0.0.0.0/0"), Some(gw), wan, 0)
            .unwrap();
        h.neigh_add(ns, gw, MacAddr::local(9)).unwrap();
        let masquerade = NfRule::new(
            RuleMatch {
                out_iface: Some(wan),
                ..Default::default()
            },
            Target::Masquerade,
        );
        h.nf_append(ns, NfTable::Nat, Chain::Postrouting, masquerade)
            .unwrap();
        let lan_mac = h.iface(lan).unwrap().mac;
        // Flow `i` is UDP from 10.0.1.0 + i, port 1000, to one server;
        // what leaves is its translated source port.
        let send = |h: &mut Host, i: u32| {
            let pkt = un_packet::PacketBuilder::new()
                .ethernet(MacAddr::local(1), lan_mac)
                .ipv4(
                    Ipv4Addr::from(0x0a00_0100 + i),
                    Ipv4Addr::new(198, 51, 100, 7),
                )
                .udp(1000, 53)
                .payload(b"q")
                .build();
            let out = h.inject(lan, pkt).emitted;
            let udp = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
            out.first()
                .map(|(_, p)| u16::from_be_bytes([p.data()[udp], p.data()[udp + 1]]))
        };
        let first: Vec<Option<u16>> = (0..FLOWS).map(|i| send(&mut h, i)).collect();
        let again: Vec<Option<u16>> = [0, 5, FLOWS - 2].map(|i| send(&mut h, i)).into();
        let _ = tx.send((first, again, h.trace.nat_ports_exhausted));
    });
    let timeout = std::time::Duration::from_secs(120);
    let (first, again, exhausted) = rx.recv_timeout(timeout).expect("the NAT answers");
    run.join().expect("the run ends once it has answered");
    assert_eq!(first[0], Some(1000));
    for (i, port) in first.iter().enumerate().take(FLOWS as usize - 1).skip(1) {
        assert_eq!(*port, Some(32_767 + i as u16), "flow {i}");
    }
    assert_eq!(
        first[FLOWS as usize - 1],
        None,
        "the 32,770th flow is dropped"
    );
    assert_eq!(exhausted, 1);
    assert_eq!(again, [Some(1000), Some(32_772), Some(65_535)]);
}
