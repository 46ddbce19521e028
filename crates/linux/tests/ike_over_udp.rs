//! Control-plane integration: the IKE-lite daemons (the strongSwan
//! stand-ins) negotiate over real simulated UDP/500, install the
//! resulting SAs into kernel XFRM, and the data plane flows — the full
//! strongSwan workflow end-to-end on the simulated substrate.

use std::net::Ipv4Addr;

use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
use un_ipsec::{IkeConfig, IkeInitiator, IkeResponder};
use un_linux::{Host, MAIN_TABLE};
use un_packet::Ipv4Cidr;
use un_sim::{CostModel, DetRng};

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().unwrap()
}

#[test]
fn ike_negotiation_over_simulated_udp_then_esp_flows() {
    // One host, two namespaces joined by a veth — the CPE (initiator)
    // and the gateway (responder).
    let mut h = Host::new("ike-e2e", CostModel::default());
    let cpe = h.add_namespace("cpe");
    let gw = h.add_namespace("gw");
    let (c_wan, g_wan) = h.add_veth(cpe, "wan", gw, "wan").unwrap();
    h.addr_add(c_wan, cidr("192.0.2.1/24")).unwrap();
    h.addr_add(g_wan, cidr("192.0.2.2/24")).unwrap();
    h.set_up(c_wan, true).unwrap();
    h.set_up(g_wan, true).unwrap();

    let cpe_ip = Ipv4Addr::new(192, 0, 2, 1);
    let gw_ip = Ipv4Addr::new(192, 0, 2, 2);

    // IKE daemons bind UDP/500 in their namespaces.
    let cpe_sock = h.udp_bind(cpe, Ipv4Addr::UNSPECIFIED, 500).unwrap();
    let gw_sock = h.udp_bind(gw, Ipv4Addr::UNSPECIFIED, 500).unwrap();

    let mut rng_i = DetRng::new(100);
    let mut rng_r = DetRng::new(200);
    let mut initiator = IkeInitiator::new(
        IkeConfig {
            psk: b"over-the-wire".to_vec(),
            local_id: "cpe.example".into(),
            local_addr: cpe_ip,
            peer_addr: gw_ip,
        },
        &mut rng_i,
    );
    let mut responder = IkeResponder::new(IkeConfig {
        psk: b"over-the-wire".to_vec(),
        local_id: "gw.example".into(),
        local_addr: gw_ip,
        peer_addr: cpe_ip,
    });

    // msg1 travels CPE → GW over the simulated network (ARP included).
    let m1 = initiator.initial_message();
    h.udp_send(cpe_sock, gw_ip, 500, &m1).unwrap();
    let rx = h.udp_recv(gw_sock).expect("msg1 delivered over UDP");
    assert_eq!(rx.payload, m1);
    assert_eq!(rx.src, cpe_ip);

    // GW processes, installs its SAs, replies.
    let (m2, gw_sas, peer_id) = responder.handle_initial(&rx.payload, &mut rng_r).unwrap();
    assert_eq!(peer_id, "cpe.example");
    h.udp_send(gw_sock, rx.src, rx.sport, &m2).unwrap();
    let rx2 = h.udp_recv(cpe_sock).expect("msg2 delivered over UDP");
    let cpe_sas = initiator.handle_response(&rx2.payload).unwrap();

    // Both daemons install kernel state (the `ip xfrm` step).
    {
        let x = h.xfrm_mut(cpe).unwrap();
        let spi_out = cpe_sas.outbound.spi;
        x.sad.install(cpe_sas.outbound);
        x.sad.install(cpe_sas.inbound);
        x.spd.install(SecurityPolicy {
            selector: TrafficSelector::between(cidr("10.1.0.0/16"), cidr("10.2.0.0/16")),
            direction: PolicyDirection::Out,
            action: PolicyAction::Protect(spi_out),
            priority: 10,
        });
    }
    {
        let x = h.xfrm_mut(gw).unwrap();
        x.sad.install(gw_sas.outbound);
        x.sad.install(gw_sas.inbound);
    }

    // Data plane: a packet for the protected subnet is encrypted by the
    // CPE kernel and decrypted by the gateway kernel.
    h.route_add(cpe, MAIN_TABLE, cidr("10.2.0.0/16"), Some(gw_ip), c_wan, 0)
        .unwrap();
    // The gateway terminates the tunnel and owns a protected address.
    let lo_svc = h.add_external(gw, "svc", 99).unwrap();
    h.addr_add(lo_svc, cidr("10.2.0.1/16")).unwrap();
    h.set_up(lo_svc, true).unwrap();
    let svc_sock = h.udp_bind(gw, Ipv4Addr::UNSPECIFIED, 7777).unwrap();

    let inner = un_packet::PacketBuilder::new()
        .ipv4("10.1.0.5".parse().unwrap(), "10.2.0.1".parse().unwrap())
        .udp(4000, 7777)
        .payload(b"negotiated end-to-end")
        .build();
    let res = h.raw_send(cpe, inner).unwrap();
    assert!(res.emitted.is_empty(), "stays inside the host (veth)");

    let dg = h.udp_recv(svc_sock).expect("decrypted datagram delivered");
    assert_eq!(dg.payload, b"negotiated end-to-end");
    assert_eq!(h.trace.counter("xfrm_encap"), 1);
    assert_eq!(h.trace.counter("xfrm_decap"), 1);

    // Wrong-PSK initiator is refused by the responder's auth tag.
    let mut rogue = IkeInitiator::new(
        IkeConfig {
            psk: b"wrong".to_vec(),
            local_id: "rogue".into(),
            local_addr: cpe_ip,
            peer_addr: gw_ip,
        },
        &mut rng_i,
    );
    let m1 = rogue.initial_message();
    let (m2, _, _) = responder.handle_initial(&m1, &mut rng_r).unwrap();
    assert!(
        rogue.handle_response(&m2).is_err(),
        "PSK mismatch must fail"
    );
}

#[test]
fn ike_messages_are_not_plaintext_keys() {
    // Sanity: the handshake never puts derived keys on the wire.
    let mut rng = DetRng::new(1);
    let cfg = IkeConfig {
        psk: b"secret-psk".to_vec(),
        local_id: "a".into(),
        local_addr: Ipv4Addr::new(1, 1, 1, 1),
        peer_addr: Ipv4Addr::new(2, 2, 2, 2),
    };
    let mut init = IkeInitiator::new(cfg.clone(), &mut rng);
    let mut resp = IkeResponder::new(IkeConfig {
        local_addr: cfg.peer_addr,
        peer_addr: cfg.local_addr,
        ..cfg
    });
    let m1 = init.initial_message();
    let (m2, _, _) = resp.handle_initial(&m1, &mut rng).unwrap();
    let sas = init.handle_response(&m2).unwrap();
    for msg in [&m1, &m2] {
        assert!(!msg
            .windows(sas.outbound.key.len())
            .any(|w| w == sas.outbound.key));
        assert!(!msg
            .windows(sas.inbound.key.len())
            .any(|w| w == sas.inbound.key));
        assert!(!msg.windows(10).any(|w| w == b"secret-psk"));
    }
}
