//! The paper's headline use case: "a customer activates an IPSec
//! endpoint VNF on his domestic CPE".
//!
//! ```sh
//! cargo run --release -p un-core --example ipsec_cpe
//! ```
//!
//! Deploys the IPSec endpoint as a **Native NF** (strongSwan-style: a
//! control-plane daemon plus kernel XFRM processing), sends LAN traffic
//! toward the protected remote subnet, shows it leaving the WAN port as
//! ESP, terminates the tunnel at a simulated remote gateway, and runs a
//! short iperf-like measurement.

use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_ipsec::sa::SecurityAssociation;
use un_nffg::{NfConfig, NfFgBuilder};
use un_nnf::translate::derive_psk_tunnel;
use un_packet::ipv4::{IpProtocol, Ipv4Packet};
use un_sim::mem::mb;
use un_traffic::{measure_via_peer, FrameSpec, StreamGenerator};

const PSK: &str = "home-cpe-demo";

fn main() {
    let mut node = UniversalNode::new("home-cpe", mb(1024));
    node.add_physical_port("eth0"); // LAN
    node.add_physical_port("eth1"); // WAN

    let config = NfConfig::default()
        .with_param("psk", PSK)
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24");

    let graph = NfFgBuilder::new("ipsec-home", "domestic IPsec endpoint")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf_with_config("ipsec", "ipsec", 2, config)
        .with_flavor("native")
        .chain("lan", &["ipsec"], "wan")
        .build();
    let report = node.deploy(&graph).expect("deploys");
    let (_, flavor) = node.instance_of("ipsec-home", "ipsec").unwrap();
    println!("IPSec endpoint deployed as: {flavor}");
    println!(
        "RAM: {:.1} MB, image: {:.1} MB\n",
        node.nf_ram_usage("ipsec-home", "ipsec") as f64 / 1e6,
        node.nf_image_footprint("ipsec-home", "ipsec") as f64 / 1e6,
    );
    let _ = report;

    // The NNF's namespace needs a neighbor for the (off-node) peer.
    let (instance, _) = node.instance_of("ipsec-home", "ipsec").unwrap();
    let ns = node.compute.namespace_of(instance).unwrap();
    node.host
        .neigh_add(
            ns,
            Ipv4Addr::new(192, 0, 2, 2),
            un_packet::MacAddr::local(0x6A),
        )
        .unwrap();

    // One LAN frame toward the protected subnet.
    let lan_mac = node.host.iface_by_name(ns, "port0").unwrap().mac;
    let spec = FrameSpec::udp(
        Ipv4Addr::new(192, 168, 1, 10),
        Ipv4Addr::new(172, 16, 0, 9),
        5001,
        5201,
    )
    .with_macs(un_packet::MacAddr::local(0xC1), lan_mac);
    let mut generator = StreamGenerator::new(spec, 1500);

    let io = node.inject("eth0", generator.next_frame());
    let (port, wire) = &io.emitted[0];
    let eth = wire.ethernet().unwrap();
    let outer = Ipv4Packet::new_checked(eth.payload()).unwrap();
    println!(
        "LAN frame (1500 B UDP) left '{port}' as {} → {} protocol {} ({} B on the wire)",
        outer.src(),
        outer.dst(),
        outer.protocol(),
        wire.len()
    );
    assert_eq!(outer.protocol(), IpProtocol::Esp);

    // The remote gateway terminates the tunnel (responder keys from the
    // same PSK — "predefined configuration script" mode).
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

    // iperf-like saturation run.
    let mut gw_sa2 = SecurityAssociation::inbound(
        spi_in,
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(192, 0, 2, 2),
        key_in,
        salt_in,
    );
    let mut peer = |p: &un_packet::Packet| {
        let Ok(eth) = p.ethernet() else { return 0 };
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            return 0;
        };
        if ip.protocol() != IpProtocol::Esp {
            return 0;
        }
        un_ipsec::decapsulate(&mut gw_sa2, ip.payload())
            .map(|v| v.len() as u64)
            .unwrap_or(0)
    };
    let m = measure_via_peer(&mut node, "eth0", "eth1", &mut generator, 1000, &mut peer);
    println!(
        "iperf-like run: {} frames, {:.0} Mbps (virtual time), loss {:.1}%, mean latency {}",
        m.sent,
        m.mbps(),
        m.loss() * 100.0,
        m.mean_latency,
    );
    println!("(the paper's Table 1 measures 1094 Mbps for this flavor)");
}
