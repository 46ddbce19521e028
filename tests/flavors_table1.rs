//! Integration check of the Table 1 reproduction: the *shape* of the
//! paper's results must hold (who wins, by roughly what factor), and
//! the resource columns must match the composition documented in
//! `Repository::standard` (`crates/compute/src/repository.rs`).

use un_bench::{run_table1_flavor, GatewayPeer};
use un_core::UniversalNode;
use un_nffg::NfFgBuilder;
use un_sim::mem::{mb, mb_f};
use un_traffic::{measure_chain, FrameSpec, StreamGenerator};

#[test]
fn table1_throughput_ordering_and_ratio() {
    let vm = run_table1_flavor("vm", 1500, 150);
    let docker = run_table1_flavor("docker", 1500, 150);
    let native = run_table1_flavor("native", 1500, 150);

    // Docker ≈ Native (paper: 1095 vs 1094 — same kernel data path).
    let rel = (docker.mbps - native.mbps).abs() / native.mbps;
    assert!(
        rel < 0.05,
        "docker {} vs native {}",
        docker.mbps,
        native.mbps
    );

    // VM ≈ 0.73× of native (paper: 796/1094 = 0.727). Allow ±10%.
    let ratio = vm.mbps / native.mbps;
    assert!(
        (0.63..=0.83).contains(&ratio),
        "VM/native ratio {ratio} out of the paper's shape"
    );

    // Absolute scale: the calibrated model lands near the paper's Mbps.
    assert!((900.0..1300.0).contains(&native.mbps), "{}", native.mbps);
    assert!((650.0..950.0).contains(&vm.mbps), "{}", vm.mbps);
}

#[test]
fn table1_ram_column_composition() {
    let vm = run_table1_flavor("vm", 1500, 10);
    let docker = run_table1_flavor("docker", 1500, 10);
    let native = run_table1_flavor("native", 1500, 10);

    // Native: the charon daemon RSS (19.4 MB in the paper).
    assert_eq!(native.ram_bytes, mb_f(19.4));
    // Docker: daemon + runtime shim (24.2 MB in the paper).
    assert_eq!(docker.ram_bytes, mb_f(19.4) + mb_f(4.8));
    // VM: guest RAM + hypervisor process (390.6 MB in the paper).
    assert_eq!(vm.ram_bytes, mb(320) + mb_f(70.6));
}

#[test]
fn table1_image_column() {
    let vm = run_table1_flavor("vm", 1500, 10);
    let docker = run_table1_flavor("docker", 1500, 10);
    let native = run_table1_flavor("native", 1500, 10);
    assert_eq!(vm.image_bytes, mb(522));
    assert_eq!(docker.image_bytes, mb(240));
    assert_eq!(native.image_bytes, mb(5));
}

#[test]
fn gateway_rejects_tampered_traffic() {
    // The measurement only counts authentically delivered bytes: a
    // corrupted wire frame contributes zero.
    use un_bench::{build_ipsec_node, lan_spec};
    use un_traffic::StreamGenerator;

    let (mut node, _) = build_ipsec_node("native");
    let spec = lan_spec(&node);
    let mut generator = StreamGenerator::new(spec, 1000);
    let mut gw = GatewayPeer::new();

    let io = node.inject("eth0", generator.next_frame());
    let (_, wire) = &io.emitted[0];
    let mut tampered = wire.clone();
    let len = tampered.len();
    tampered.data_mut()[len - 20] ^= 0x01;
    assert_eq!(gw.receive(&tampered), 0);
    assert_eq!(gw.rejected, 1);
    // The genuine frame still decrypts (auth failure must not have
    // advanced the replay window).
    assert!(gw.receive(wire) > 0);
    assert_eq!(gw.accepted, 1);
}

#[test]
fn frame_size_sweep_preserves_ordering() {
    // The VM-slower-than-native shape must hold across frame sizes, not
    // just at 1500 B (small frames make per-packet overheads dominate).
    for frame_len in [256usize, 512, 1500] {
        let vm = run_table1_flavor("vm", frame_len, 80);
        let native = run_table1_flavor("native", frame_len, 80);
        assert!(
            vm.mbps < native.mbps,
            "at {frame_len}B: vm {} !< native {}",
            vm.mbps,
            native.mbps
        );
    }
}

/// Mbps of 1500-byte frames through a chain of `chain_len` transparent
/// bridges, every one deployed as `flavor`.
fn bridge_chain_mbps(chain_len: usize, flavor: &str, packets: u64) -> f64 {
    let mut node = UniversalNode::new("cpe", mb(16_384));
    node.add_physical_port("eth0");
    node.add_physical_port("eth1");
    let nf_ids: Vec<String> = (0..chain_len).map(|i| format!("br{i}")).collect();
    let mut b = NfFgBuilder::new("g", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for id in &nf_ids {
        b = b.nf(id, "bridge", 2).with_flavor(flavor);
    }
    let refs: Vec<&str> = nf_ids.iter().map(String::as_str).collect();
    node.deploy(&b.chain("lan", &refs, "wan").build())
        .expect("chain deploys");
    let spec = FrameSpec::udp(
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        5001,
        5201,
    );
    let mut generator = StreamGenerator::new(spec, 1500);
    measure_chain(&mut node, "eth0", "eth1", &mut generator, packets).mbps()
}

#[test]
fn the_flavor_gap_compounds_with_chain_length() {
    // Bridges do no crypto, so per-hop overhead is all there is: every
    // further hop costs a VM more than it costs a native component, and
    // the longer the chain, the stronger the case for native.
    let us_per_frame = |mbps: f64| 1500.0 * 8.0 / mbps;
    let mut last = (0.0, 0.0);
    for len in 1..=5 {
        let native = bridge_chain_mbps(len, "native", 60);
        let docker = bridge_chain_mbps(len, "docker", 60);
        let vm = bridge_chain_mbps(len, "vm", 60);
        // Docker bridges ride the same kernel data path as native ones.
        assert!(
            native >= docker && docker > vm,
            "{len} NFs: native {native} docker {docker} vm {vm}"
        );
        let gap = (us_per_frame(vm) - us_per_frame(native), native / vm);
        assert!(
            gap.0 > last.0 && gap.1 > last.1,
            "{len} NFs: (µs per frame, ratio) {gap:?} after {last:?}"
        );
        last = gap;
    }
}

/// Memory used by an 8 GB node after each of up to `max` single-bridge
/// graphs of `flavor`, ending early at the first one admission control
/// refuses.
fn node_memory_curve(flavor: &str, max: u32) -> Vec<u64> {
    let mut node = UniversalNode::new("cpe", mb(8_192));
    node.add_physical_port("eth0");
    node.add_physical_port("eth1");
    let mut curve = Vec::new();
    for i in 1..=max {
        let g = NfFgBuilder::new(&format!("g{i}"), "bridge")
            .vlan_endpoint("lan", "eth0", (100 + i) as u16)
            .vlan_endpoint("wan", "eth1", (100 + i) as u16)
            .nf("br", "bridge", 2)
            .with_flavor(flavor)
            .chain("lan", &["br"], "wan")
            .build();
        if node.deploy(&g).is_err() {
            break;
        }
        curve.push(node.memory_used());
    }
    curve
}

#[test]
fn node_memory_grows_by_the_flavor_footprint_per_graph() {
    // Table 1's RAM column as a slope: every further graph costs its
    // flavor's footprint, no more and no less.
    let slope = |curve: &[u64]| {
        let per_graph = curve[0];
        assert!(curve.windows(2).all(|w| w[1] - w[0] == per_graph));
        per_graph
    };
    let [native, docker, vm] = ["native", "docker", "vm"].map(|f| node_memory_curve(f, 30));
    let per_graph = [slope(&native), slope(&docker), slope(&vm)];
    assert!(
        per_graph[0] < per_graph[1] && per_graph[1] < per_graph[2],
        "per graph (native, docker, vm): {per_graph:?}"
    );
    // "Not suitable for low-cost devices": the VM column is the first
    // admission control refuses — exactly where 8 GB runs out — while
    // thirty native or Docker graphs fit with room to spare.
    assert_eq!(vm.len() as u64, mb(8_192) / per_graph[2]);
    assert_eq!((native.len(), docker.len()), (30, 30));
}
