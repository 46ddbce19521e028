//! One function, three flavors. Native, Docker and VM instances built
//! from one config are the same NF: for random frames into the LAN port
//! (and, for IPsec, sealed frames from the peer into the WAN port), each
//! flavor emits the same frames on the same ports, byte for byte from the
//! IPv4 header on. Only the Ethernet header, which carries the flavor's
//! own MACs, may differ.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use un_compute::{ComputeManager, FlavorSpec, InstanceId, NodeEnv};
use un_container::{Image, Layer};
use un_hypervisor::DiskImage;
use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_linux::Host;
use un_nffg::NfConfig;
use un_nnf::translate::derive_psk_tunnel;
use un_packet::ethernet::ETHERNET_HEADER_LEN;
use un_packet::ipv4::IPV4_HEADER_LEN;
use un_packet::{MacAddr, Packet, PacketBuilder};
use un_sim::mem::mb;
use un_sim::{CostModel, DetRng, MemLedger};

const CASES: usize = 128;
const PSK: &str = "hunter2";

/// Next hops and LAN hosts every instance resolves without ARP, so what
/// a flavor emits is the NF's forwarding, never an ARP request that
/// names the flavor's MAC.
const NEIGHBOURS: [[u8; 4]; 7] = [
    [192, 0, 2, 2],
    [10, 0, 0, 254],
    [203, 0, 113, 254],
    [192, 168, 1, 10],
    [192, 168, 1, 11],
    [192, 168, 1, 12],
    [192, 168, 1, 13],
];

/// What leaves an instance for one frame: (port, bytes from the IPv4
/// header on), in order.
type Emitted = Vec<(u32, Vec<u8>)>;

/// One running instance on a host of its own, behind its flavor's
/// driver.
struct Instance {
    host: Host,
    ledger: MemLedger,
    costs: CostModel,
    mgr: ComputeManager,
    id: InstanceId,
}

impl Instance {
    fn new(flavor: &str, functional_type: &str, config: &NfConfig) -> Self {
        let mut mgr = ComputeManager::new();
        let spec = match flavor {
            "native" => FlavorSpec::Native,
            "docker" => {
                mgr.docker.registry.push(Image {
                    name: functional_type.into(),
                    tag: "latest".into(),
                    layers: vec![Layer::new("sha256:base-os", mb(235))],
                });
                FlavorSpec::Docker {
                    image: functional_type.into(),
                    tag: "latest".into(),
                    process_rss: 0,
                }
            }
            _ => {
                mgr.vm.hypervisor.images.add(DiskImage {
                    name: "guest".into(),
                    size: mb(518),
                });
                FlavorSpec::Vm {
                    image: "guest".into(),
                    vcpus: 1,
                    mem_mb: 256,
                }
            }
        };
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let costs = CostModel::default();
        let node = ledger.create_account("node", None);
        let mut env = NodeEnv {
            host: &mut host,
            ledger: &mut ledger,
            costs: &costs,
        };
        let program = compiled(functional_type, config);
        let id = mgr
            .create(
                &mut env,
                "nf",
                functional_type,
                &spec,
                2,
                &program,
                false,
                node,
            )
            .expect(flavor);
        mgr.start(&mut env, id).expect(flavor);
        let ns = mgr.namespace_of(id).expect("the NF runs in a namespace");
        for (i, ip) in NEIGHBOURS.into_iter().enumerate() {
            let mac = MacAddr::local(0x900 + i as u32);
            host.neigh_add(ns, Ipv4Addr::from(ip), mac).unwrap();
        }
        Instance {
            host,
            ledger,
            costs,
            mgr,
            id,
        }
    }

    /// Send the IPv4 packet `ip` into `port`, addressed to that port's
    /// MAC.
    fn send(&mut self, port: u32, ip: &[u8]) -> Emitted {
        let iface = self.mgr.port_iface(self.id, port).expect("port exists");
        let dst = self.host.iface(iface).expect("port is up").mac;
        let mut frame = Packet::from_slice(ip);
        let mut eth = [dst.octets(), MacAddr::local(0xC1).octets()].concat();
        eth.extend_from_slice(&[0x08, 0x00]); // IPv4
        frame.push_front(&eth);
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let io = self
            .mgr
            .deliver_batch(&mut env, self.id, vec![(port, frame)]);
        let outputs = io.into_iter().flat_map(|io| io.outputs);
        outputs
            .map(|(port, pkt)| (port, pkt.data()[ETHERNET_HEADER_LEN..].to_vec()))
            .collect()
    }
}

/// What `config` compiles to for a two-port `functional_type` NF: its
/// command list, empty for a type without a program.
fn compiled(functional_type: &str, config: &NfConfig) -> Vec<un_nnf::NnfCommand> {
    let graph = un_nffg::NfFgBuilder::new("g", "one NF")
        .nf_with_config("nf", functional_type, 2, config.clone())
        .build();
    let mut programs = un_nnf::compile(&graph).expect("the config compiles");
    programs
        .remove("nf")
        .map_or_else(Vec::new, |c| c.commands.to_vec())
}

/// A random packet from a LAN host: toward the tunnel's remote prefix,
/// a next hop, the NF itself or anywhere; UDP or TCP, to a well-known or
/// random port; random length.
fn lan_packet(rng: &mut DetRng) -> Vec<u8> {
    let src = Ipv4Addr::new(192, 168, 1, 10 + rng.index(4) as u8);
    let [a, b] = [rng.index(256) as u8, rng.index(256) as u8];
    let dst = match rng.index(4) {
        0 => Ipv4Addr::new(172, 16, a, b),
        1 => Ipv4Addr::new(198, 51, 100, b),
        2 => Ipv4Addr::from(NEIGHBOURS[rng.index(3)]),
        _ => Ipv4Addr::new(192, 168, 1, 1),
    };
    let sport = rng.range_u16(1024, u16::MAX);
    let dport = [53, 80, 443, rng.range_u16(1, u16::MAX)][rng.index(4)];
    let mut payload = vec![0; rng.index(1200)];
    rng.fill(&mut payload);
    let packet = PacketBuilder::new().ipv4(src, dst);
    let packet = match rng.chance(0.5) {
        true => packet.udp(sport, dport),
        false => packet.tcp(sport, dport, rng.next_u32(), 0, 0x02),
    };
    packet.payload(&payload).build().data().to_vec()
}

/// The tunnel peer's outbound SA toward an initiator configured with
/// [`PSK`].
fn peer_sa() -> SecurityAssociation {
    let (key, salt, _, _, spi, _) = derive_psk_tunnel(PSK.as_bytes(), false);
    let (peer, local) = (Ipv4Addr::new(192, 0, 2, 2), Ipv4Addr::new(192, 0, 2, 1));
    SecurityAssociation::outbound(spi, peer, local, key, salt)
}

/// A random packet from the far side toward a LAN host, sealed by the
/// peer; one in eight arrives with a flipped byte.
fn esp_packet(rng: &mut DetRng, sa: &mut SecurityAssociation) -> Vec<u8> {
    let src = Ipv4Addr::new(172, 16, rng.index(256) as u8, rng.index(256) as u8);
    let dst = Ipv4Addr::new(192, 168, 1, 10 + rng.index(4) as u8);
    let mut payload = vec![0; rng.index(1200)];
    rng.fill(&mut payload);
    let inner = PacketBuilder::new()
        .ipv4(src, dst)
        .udp(rng.range_u16(1, u16::MAX), rng.range_u16(1, u16::MAX))
        .payload(&payload)
        .build();
    let mut outer = esp::encapsulate_into(sa, inner.data(), IPV4_HEADER_LEN).unwrap();
    esp::fill_tunnel_header(sa, &mut outer);
    if rng.chance(0.125) {
        let at = IPV4_HEADER_LEN + rng.index(outer.len() - IPV4_HEADER_LEN);
        outer[at] ^= 0x01;
    }
    outer
}

/// Run one case set through native, Docker and VM instances of
/// `functional_type` built from `config`.
fn same_in_every_flavor(functional_type: &str, config: &NfConfig, seed: u64) {
    let mut flavors = ["native", "docker", "vm"].map(|f| Instance::new(f, functional_type, config));
    let mut rng = DetRng::new(seed);
    let mut peer = (functional_type == "ipsec").then(peer_sa);
    let mut emitted = 0;
    for case in 0..CASES {
        let (port, ip) = match &mut peer {
            Some(sa) if rng.chance(0.3) => (1, esp_packet(&mut rng, sa)),
            _ => (0, lan_packet(&mut rng)),
        };
        let [native, docker, vm] = flavors.each_mut().map(|inst| inst.send(port, &ip));
        assert_eq!(docker, native, "{functional_type} case {case}: docker");
        assert_eq!(vm, native, "{functional_type} case {case}: vm");
        emitted += native.len();
    }
    assert!(emitted > 0, "{functional_type}: nothing got through");
}

/// One `rules` entry of a generic config.
fn rule(entries: &[(&str, &str)]) -> BTreeMap<String, String> {
    entries
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn an_ipsec_nnf_is_one_function_in_every_flavor() {
    let config = NfConfig::default()
        .with_param("psk", PSK)
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24");
    same_in_every_flavor("ipsec", &config, 1);
}

#[test]
fn a_firewall_is_one_function_in_every_flavor() {
    let mut config = NfConfig::default()
        .with_param("addr0", "192.168.1.1/24")
        .with_param("addr1", "10.0.0.1/24")
        .with_param("gw", "10.0.0.254")
        .with_param("policy", "drop");
    config
        .rules
        .push(rule(&[("proto", "udp"), ("dport", "53")]));
    config
        .rules
        .push(rule(&[("proto", "tcp"), ("dport", "80")]));
    same_in_every_flavor("firewall", &config, 2);
}

#[test]
fn a_nat_is_one_function_in_every_flavor() {
    let config = NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "203.0.113.1/24")
        .with_param("wan-gw", "203.0.113.254");
    same_in_every_flavor("nat", &config, 3);
}

#[test]
fn a_bridge_is_one_function_in_every_flavor() {
    same_in_every_flavor("bridge", &NfConfig::default(), 4);
}

#[test]
fn a_router_is_one_function_in_every_flavor() {
    let mut config = NfConfig::default()
        .with_param("addr0", "192.168.1.1/24")
        .with_param("addr1", "10.0.0.1/24");
    config.rules.push(rule(&[
        ("dst", "172.16.0.0/16"),
        ("via", "10.0.0.254"),
        ("port", "1"),
    ]));
    same_in_every_flavor("router", &config, 5);
}
