//! The paper's IPsec CPE use case, lifted one layer up: the chain is
//! split across **two Universal Nodes** by the domain orchestrator,
//! with the cut edge carried over a VLAN-tagged inter-node overlay
//! link — and traffic measured end-to-end through it.
//!
//! ```sh
//! cargo run --release --example domain_split_chain
//! ```
//!
//! `edge-a` holds the LAN side and an access bridge NNF; `edge-b` holds the
//! IPsec endpoint NNF and the WAN uplink. A LAN frame enters edge-a,
//! crosses the access bridge and the overlay wire to edge-b, gets ESP-sealed by
//! the IPsec NNF, and leaves edge-b's WAN port — where a simulated
//! remote gateway terminates the tunnel and counts only bytes that
//! decrypt and verify (iperf counting received bytes).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, PlacementStrategy};
use un_ipsec::sa::SecurityAssociation;
use un_nffg::{NfConfig, NfFgBuilder};
use un_nnf::translate::derive_psk_tunnel;
use un_obs::DropReason;
use un_packet::ipv4::{IpProtocol, Ipv4Packet};
use un_packet::Packet;
use un_sim::mem::mb;
use un_sim::SimTime;
use un_traffic::{FrameSpec, StreamGenerator};

const PSK: &str = "domain-split-demo";

fn main() {
    // ---- The fleet ----
    let mut domain = Domain::new(DomainConfig {
        // Protect the inter-node wire as well: the overlay crosses a
        // real network in production, so seal it with ESP too.
        protect_overlay: true,
        ..DomainConfig::default()
    });
    let mut edge_a = UniversalNode::new("edge-a", mb(1024));
    edge_a.add_physical_port("eth0"); // LAN
    let mut edge_b = UniversalNode::new("edge-b", mb(1024));
    edge_b.add_physical_port("eth1"); // WAN
    domain.add_node(edge_a);
    domain.add_node(edge_b);

    // ---- The service: lan → firewall → ipsec → wan ----
    let ipsec_config = NfConfig::default()
        .with_param("psk", PSK)
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24");

    let graph = NfFgBuilder::new("cpe-split", "distributed IPsec CPE")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("acc", "bridge", 2)
        .nf_with_config("vpn", "ipsec", 2, ipsec_config)
        .with_flavor("native")
        .chain("lan", &["acc", "vpn"], "wan")
        .build();

    let hints = DeployHints {
        endpoint_node: BTreeMap::new(),
        nf_node: [
            ("acc".to_string(), "edge-a".to_string()),
            ("vpn".to_string(), "edge-b".to_string()),
        ]
        .into(),
        strategy: Some(PlacementStrategy::Spread),
    };
    let report = domain.deploy_with(&graph, &hints).expect("domain deploy");
    println!(
        "deployed '{}' across {} nodes:",
        report.graph,
        report.per_node.len()
    );
    for (node, part) in &report.per_node {
        println!(
            "  {node}: {} NF placement(s), {} flow entries",
            part.placements.len(),
            part.flow_entries
        );
    }
    println!(
        "  {} overlay link(s), ESP-protected: {}\n",
        report.overlay_links, domain.config.protect_overlay
    );

    // ---- Peer plumbing on the IPsec node ----
    let vpn_node = domain.node_mut("edge-b").unwrap();
    let (instance, flavor) = vpn_node.instance_of("cpe-split", "vpn").unwrap();
    println!("IPsec endpoint runs as: {flavor} on edge-b");
    let ns = vpn_node.compute.namespace_of(instance).unwrap();
    vpn_node
        .host
        .neigh_add(
            ns,
            Ipv4Addr::new(192, 0, 2, 2),
            un_packet::MacAddr::local(0x6A),
        )
        .unwrap();
    let lan_nf_mac = vpn_node.host.iface_by_name(ns, "port0").unwrap().mac;

    // ---- One frame, narrated ----
    let spec = FrameSpec::udp(
        Ipv4Addr::new(192, 168, 1, 10),
        Ipv4Addr::new(172, 16, 0, 9),
        5001,
        5201,
    )
    .with_macs(un_packet::MacAddr::local(0xC1), lan_nf_mac);
    let mut generator = StreamGenerator::new(spec, 1400);

    let io = domain.inject("edge-a", "eth0", generator.next_frame());
    assert_eq!(io.emitted.len(), 1, "the frame must exit exactly once");
    let (node, port, wire) = &io.emitted[0];
    let eth = wire.ethernet().unwrap();
    let outer = Ipv4Packet::new_checked(eth.payload()).unwrap();
    println!(
        "LAN frame crossed {} overlay hop(s) ({} B sealed once at the link head), \
         left {node}/{port} as {} → {} proto {}",
        io.overlay_hops,
        io.protected_bytes,
        outer.src(),
        outer.dst(),
        outer.protocol()
    );
    assert_eq!(outer.protocol(), IpProtocol::Esp);

    // ---- Remote gateway terminates the tunnel ----
    let (_ko, _so, key_in, salt_in, _spo, spi_in) = derive_psk_tunnel(PSK.as_bytes(), false);
    let mut gw_sa = SecurityAssociation::inbound(
        spi_in,
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(192, 0, 2, 2),
        key_in,
        salt_in,
    );
    let inner = un_ipsec::decapsulate(&mut gw_sa, outer.payload()).unwrap();
    println!(
        "remote gateway decapsulated {} inner bytes successfully\n",
        inner.len()
    );

    // ---- iperf-like end-to-end measurement through the overlay ----
    let frames = 1_000u64;
    let mut clock = SimTime::ZERO;
    let mut delivered_bytes = 0u64;
    let mut delivered = 0u64;
    let mut overlay_hops = 0u64;
    let mut peer = move |p: &Packet| -> u64 {
        let Ok(eth) = p.ethernet() else { return 0 };
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            return 0;
        };
        if ip.protocol() != IpProtocol::Esp {
            return 0;
        }
        un_ipsec::decapsulate(&mut gw_sa, ip.payload())
            .map(|v| v.len() as u64)
            .unwrap_or(0)
    };
    // Drive the traffic through the batched shuttle in bursts: the
    // whole burst crosses the overlay (and is ESP-sealed per link)
    // in one `inject_batch` call.
    const BURST: u64 = 50;
    let mut sent = 0u64;
    while sent < frames {
        domain.set_time(clock);
        let n = BURST.min(frames - sent);
        sent += n;
        let ingress: Vec<(String, String, Packet)> = (0..n)
            .map(|_| {
                (
                    "edge-a".to_string(),
                    "eth0".to_string(),
                    generator.next_frame(),
                )
            })
            .collect();
        let io = domain.inject_batch(ingress, 1);
        clock += io.cost.duration();
        overlay_hops += u64::from(io.overlay_hops);
        for (_node, port, pkt) in &io.emitted {
            if port == "eth1" {
                let bytes = peer(pkt);
                if bytes > 0 {
                    delivered += 1;
                    delivered_bytes += bytes;
                }
            }
        }
    }
    let secs = clock.duration_since(SimTime::ZERO).as_secs_f64();
    println!(
        "iperf-like run: {frames} frames, {delivered} delivered end-to-end, \
         {:.0} Mbps (virtual time), {overlay_hops} overlay hops",
        delivered_bytes as f64 * 8.0 / 1e6 / secs
    );
    assert_eq!(delivered, frames, "a lossless split chain");
    println!(
        "overlay counters: {} frames shuttled, 0 ESP failures: {}",
        domain.trace.counter("overlay_frames"),
        domain
            .frame_ledger()
            .drops(DropReason::OverlayEspVerifyFail)
            == 0
    );
}
