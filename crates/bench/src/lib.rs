//! # un-bench — harnesses that regenerate the paper's evaluation
//!
//! The central artifact is the **Table 1 harness**: deploy the same
//! IPSec endpoint NF-FG three times — as a KVM/QEMU VM, a Docker
//! container and a Native NF — drive iperf-like saturating traffic
//! through each, terminate the ESP tunnel at a simulated remote
//! gateway, and report throughput / RAM / image size per flavor.
//!
//! Binaries (`cargo run -p un-bench --bin <name>`):
//!
//! * `table1` — regenerates Table 1.
//! * `repair_sweep` — reactive vs make-before-break repair downtime
//!   (`BENCH_repair.json`).
//! * `sharing_sweep` — one fleet-wide shared NNF vs per-graph
//!   instances (`BENCH_sharing.json`).
//! * `benchmark` — the unified performance ledger `BENCHMARK.json`
//!   runs (its own detached package under `src/bin/benchmark/`; see the
//!   README there). Every wall-clock figure comes from it; the two
//!   sweeps above are the only figures it has no successor for yet.
//!
//! Criterion micro-benches live in `benches/`.

#![forbid(unsafe_code)]
#![deny(warnings)]

use std::net::Ipv4Addr;

use un_core::{DeployReport, UniversalNode};
use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_nffg::{NfConfig, NfFg, NfFgBuilder};
use un_nnf::translate::derive_psk_tunnel;
use un_packet::ipv4::{IpProtocol, Ipv4Packet};
use un_packet::Packet;
use un_sim::mem::mb;
use un_traffic::{measure_via_peer, FrameSpec, Measurement, StreamGenerator};

/// The PSK used throughout the Table 1 scenario.
pub const PSK: &str = "table1-psk";

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Platform name as in the paper.
    pub platform: &'static str,
    /// Measured throughput (virtual-time Mbps of delivered inner bytes).
    pub mbps: f64,
    /// RAM allocated at runtime for the NF instance (bytes).
    pub ram_bytes: u64,
    /// NF image size (bytes).
    pub image_bytes: u64,
}

/// The generic IPSec endpoint configuration (identical across flavors —
/// that is the point of the abstraction).
pub fn ipsec_config() -> NfConfig {
    NfConfig::default()
        .with_param("psk", PSK)
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24")
        .with_param("role", "initiator")
}

/// The Table 1 NF-FG: customer LAN → IPSec endpoint → WAN.
pub fn ipsec_graph(id: &str, flavor_hint: &str) -> NfFg {
    NfFgBuilder::new(id, "ipsec-cpe")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf_with_config("ipsec", "ipsec", 2, ipsec_config())
        .with_flavor(flavor_hint)
        .chain("lan", &["ipsec"], "wan")
        .build()
}

/// Build a CPE node and deploy the IPSec graph with the given flavor.
pub fn build_ipsec_node(flavor_hint: &str) -> (UniversalNode, DeployReport) {
    let mut node = UniversalNode::new("cpe", mb(4096));
    node.add_physical_port("eth0");
    node.add_physical_port("eth1");
    let graph = ipsec_graph("g-ipsec", flavor_hint);
    let report = node.deploy(&graph).expect("ipsec graph deploys");

    // The kernel-backed flavors need a neighbor entry for the tunnel
    // peer (the node fabric carries the frames; the remote gateway is
    // off-node, so ARP cannot resolve it inside the simulation).
    let (instance, _) = node.instance_of("g-ipsec", "ipsec").expect("placed");
    if let Some(ns) = node.compute.namespace_of(instance) {
        node.host
            .neigh_add(
                ns,
                Ipv4Addr::new(192, 0, 2, 2),
                un_packet::MacAddr::local(0xBEEF),
            )
            .expect("namespace exists");
    }
    (node, report)
}

/// The frame spec for the LAN-side client traffic, with the destination
/// MAC matching the NF's LAN port (kernel flavors L2-filter).
pub fn lan_spec(node: &UniversalNode) -> FrameSpec {
    let spec = FrameSpec::udp(
        Ipv4Addr::new(192, 168, 1, 10),
        Ipv4Addr::new(172, 16, 0, 9),
        5001,
        5201,
    );
    let (instance, _) = node.instance_of("g-ipsec", "ipsec").expect("placed");
    let lan_port = node.compute.port_iface(instance, 0);
    match lan_port.and_then(|iface| node.host.iface(iface)) {
        Some(iface) => spec.with_macs(un_packet::MacAddr::local(0xC1), iface.mac),
        None => spec,
    }
}

/// The remote security gateway terminating the tunnel: decapsulates
/// every ESP frame leaving the node's WAN and returns the inner bytes
/// delivered (0 for anything it cannot authenticate).
pub struct GatewayPeer {
    sa_in: SecurityAssociation,
    /// Frames successfully decapsulated.
    pub accepted: u64,
    /// Frames rejected (not ESP / auth failure / replay).
    pub rejected: u64,
}

impl GatewayPeer {
    /// A gateway sharing the scenario PSK (responder role).
    pub fn new() -> Self {
        let (_ko, _so, key_in, salt_in, _spo, spi_in) = derive_psk_tunnel(PSK.as_bytes(), false);
        GatewayPeer {
            sa_in: SecurityAssociation::inbound(
                spi_in,
                Ipv4Addr::new(192, 0, 2, 1),
                Ipv4Addr::new(192, 0, 2, 2),
                key_in,
                salt_in,
            ),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Try to terminate one wire frame; returns delivered inner bytes.
    pub fn receive(&mut self, frame: &Packet) -> u64 {
        let Ok(eth) = frame.ethernet() else {
            self.rejected += 1;
            return 0;
        };
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            self.rejected += 1;
            return 0;
        };
        if ip.protocol() != IpProtocol::Esp {
            self.rejected += 1;
            return 0;
        }
        match esp::decapsulate(&mut self.sa_in, ip.payload()) {
            Ok(inner) => {
                self.accepted += 1;
                inner.len() as u64
            }
            Err(_) => {
                self.rejected += 1;
                0
            }
        }
    }
}

impl Default for GatewayPeer {
    fn default() -> Self {
        Self::new()
    }
}

/// Run the Table 1 measurement for one flavor.
pub fn run_table1_flavor(flavor_hint: &str, frame_len: usize, packets: u64) -> Table1Row {
    let (mut node, _report) = build_ipsec_node(flavor_hint);
    let spec = lan_spec(&node);
    let mut generator = StreamGenerator::new(spec, frame_len);
    let mut gateway = GatewayPeer::new();
    let mut peer = |p: &Packet| gateway.receive(p);
    let m: Measurement = measure_via_peer(
        &mut node,
        "eth0",
        "eth1",
        &mut generator,
        packets,
        &mut peer,
    );

    let platform = match flavor_hint {
        "vm" => "KVM/QEMU",
        "docker" => "Docker",
        "native" => "Native NF",
        other => Box::leak(other.to_string().into_boxed_str()),
    };
    Table1Row {
        platform,
        mbps: m.mbps(),
        ram_bytes: node.nf_ram_usage("g-ipsec", "ipsec"),
        image_bytes: node.nf_image_footprint("g-ipsec", "ipsec"),
    }
}

/// Render rows in the paper's format.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: Results with IPSec client VNFs\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>10} {:>12}\n",
        "Platform", "Through.", "RAM", "Image size"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8.0} Mbps {:>7.1} MB {:>9.1} MB\n",
            r.platform,
            r.mbps,
            r.ram_bytes as f64 / 1e6,
            r.image_bytes as f64 / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_terminates_native_flavor() {
        let (mut node, report) = build_ipsec_node("native");
        assert_eq!(report.placements[0].1, un_compute::Flavor::Native);
        let spec = lan_spec(&node);
        let mut generator = StreamGenerator::new(spec, 1500);
        let mut gw = GatewayPeer::new();
        let mut peer = |p: &Packet| gw.receive(p);
        let m = measure_via_peer(&mut node, "eth0", "eth1", &mut generator, 50, &mut peer);
        assert_eq!(m.delivered, 50, "all frames decrypt at the gateway");
        assert!(m.mbps() > 100.0);
    }

    #[test]
    fn table1_shape_holds() {
        let rows = [
            run_table1_flavor("vm", 1500, 60),
            run_table1_flavor("docker", 1500, 60),
            run_table1_flavor("native", 1500, 60),
        ];
        let (vm, docker, native) = (&rows[0], &rows[1], &rows[2]);
        // Throughput: VM well below the other two; Docker ≈ Native.
        assert!(
            vm.mbps < docker.mbps * 0.85,
            "{} vs {}",
            vm.mbps,
            docker.mbps
        );
        assert!((docker.mbps - native.mbps).abs() / native.mbps < 0.05);
        // RAM: VM ≫ Docker > Native.
        assert!(vm.ram_bytes > 10 * docker.ram_bytes);
        assert!(docker.ram_bytes > native.ram_bytes);
        // Image: 522 / 240 / 5 MB.
        assert_eq!(vm.image_bytes, mb(522));
        assert_eq!(docker.image_bytes, mb(240));
        assert_eq!(native.image_bytes, mb(5));
    }
}
