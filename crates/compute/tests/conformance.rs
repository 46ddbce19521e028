//! Driver conformance: the paper's claim that an NF is the same thing
//! to the orchestrator whatever technology runs it, as one test body
//! over `&mut dyn ComputeDriver`, run for all four drivers.

use un_compute::drivers::{DockerDriver, DpdkDriver, NativeDriver, VmDriver};
use un_compute::{
    ComputeDriver, ComputeError, CreateRequest, FlavorSpec, GuestAppKind, InstanceId, NodeEnv,
};
use un_container::{Image, Layer};
use un_hypervisor::DiskImage;
use un_linux::Host;
use un_nffg::NfConfig;
use un_packet::{MacAddr, Packet, PacketBuilder};
use un_sim::mem::mb;
use un_sim::{CostModel, MemLedger};

const ID: InstanceId = InstanceId(7);

fn frame() -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1000, 2000)
        .payload(b"conformance")
        .build()
}

/// Everything an instance can hold outside its driver.
fn residue(host: &Host, ledger: &MemLedger, driver: &dyn ComputeDriver) -> [usize; 4] {
    [
        host.namespace_count(),
        host.iface_count(),
        ledger.live_accounts(),
        driver.instance_count(),
    ]
}

fn unknown(result: Result<(), ComputeError>) -> bool {
    result == Err(ComputeError::NoSuchInstance(ID.0))
}

/// The whole life of one transparent two-port NF of `functional_type`,
/// realized from `spec`, with the test in the compute manager's place.
fn conforms(driver: &mut dyn ComputeDriver, functional_type: &str, spec: &FlavorSpec) {
    let who = driver.label();
    let mut host = Host::new("cpe", CostModel::default());
    let mut ledger = MemLedger::new();
    let costs = CostModel::default();
    let node = ledger.create_account("node", None);
    let baseline = residue(&host, &ledger, driver);
    let account = ledger.create_account("nf", Some(node));
    let mut env = NodeEnv {
        host: &mut host,
        ledger: &mut ledger,
        costs: &costs,
    };
    assert!(driver.estimate_ram(spec) > 0, "{who}");

    // Nothing answers to the id yet.
    assert!(unknown(driver.start(&mut env, ID)), "{who}");
    assert!(unknown(driver.stop(&mut env, ID)), "{who}");
    assert!(unknown(driver.destroy(&mut env, ID)), "{who}");
    assert_eq!(driver.image_footprint(ID), 0, "{who}");
    let outs = driver.deliver_batch(&mut env, ID, vec![(0, frame())]);
    assert_eq!(outs.len(), 1, "{who}: one outcome per frame");
    assert!(outs[0].outputs.is_empty(), "{who}");

    let req = CreateRequest {
        id: ID,
        account,
        name: "nf",
        functional_type,
        spec,
        n_ports: 2,
        config: &NfConfig::default(),
        shared: false,
    };
    driver.create(&mut env, &req).expect(who);
    assert_eq!(driver.instance_count(), baseline[3] + 1, "{who}");
    assert!(driver.image_footprint(ID) > 0, "{who}");
    // A namespace and the ports inside it come together.
    let in_kernel = driver.namespace_of(ID).is_some();
    assert_eq!(driver.port_iface(ID, 0).is_some(), in_kernel, "{who}");
    assert_eq!(driver.port_iface(ID, 2), None, "{who}");

    driver.start(&mut env, ID).expect(who);
    assert!(env.ledger.usage(account) > 0, "{who}: running takes RAM");

    // Port 0 to port 1, the frame untouched; no such port, no output.
    let outs = driver.deliver_batch(&mut env, ID, vec![(0, frame()), (9, frame())]);
    assert_eq!(outs.len(), 2, "{who}");
    let through: Vec<_> = outs[0]
        .outputs
        .iter()
        .map(|(p, f)| (*p, f.data()))
        .collect();
    assert_eq!(through, [(1, frame().data())], "{who}");
    assert!(outs[0].cost.as_nanos() > 0, "{who}");
    assert!(outs[1].outputs.is_empty(), "{who}: unknown port");

    // A running instance is not destroyed, and keeps serving.
    assert!(driver.destroy(&mut env, ID).is_err(), "{who}");
    assert_eq!(driver.instance_count(), baseline[3] + 1, "{who}");
    let outs = driver.deliver_batch(&mut env, ID, vec![(1, frame())]);
    assert_eq!(outs[0].outputs.len(), 1, "{who}");
    assert_eq!(outs[0].outputs[0].0, 0, "{who}: and back");

    driver.stop(&mut env, ID).expect(who);
    assert_eq!(
        env.ledger.usage(account),
        0,
        "{who}: stopping gives it back"
    );
    driver.destroy(&mut env, ID).expect(who);
    assert!(unknown(driver.start(&mut env, ID)), "{who}");
    ledger.free_account(account);
    assert_eq!(residue(&host, &ledger, driver), baseline, "{who}");
    assert_eq!(ledger.usage(node), 0, "{who}");
}

#[test]
fn native_driver_conforms() {
    conforms(&mut NativeDriver::default(), "bridge", &FlavorSpec::Native);
}

#[test]
fn docker_driver_conforms() {
    let mut d = DockerDriver::default();
    d.registry.push(Image {
        name: "bridge".into(),
        tag: "latest".into(),
        layers: vec![Layer::new("sha256:base-os", mb(235))],
    });
    let spec = FlavorSpec::Docker {
        image: "bridge".into(),
        tag: "latest".into(),
        process_rss: mb(3),
    };
    conforms(&mut d, "bridge", &spec);
}

#[test]
fn vm_driver_conforms() {
    let mut d = VmDriver::default();
    d.hypervisor.images.add(DiskImage {
        name: "bridge-vm".into(),
        size: mb(518),
    });
    let spec = FlavorSpec::Vm {
        image: "bridge-vm".into(),
        vcpus: 1,
        mem_mb: 256,
        app: GuestAppKind::L2Forward,
    };
    conforms(&mut d, "bridge", &spec);
}

#[test]
fn dpdk_driver_conforms() {
    let spec = FlavorSpec::Dpdk {
        cores: 1,
        hugepages_mb: 256,
    };
    conforms(&mut DpdkDriver::default(), "l2fwd-fast", &spec);
}

/// What a driver does not offer it refuses, and the four are told
/// apart by name only.
#[test]
fn defaults_refuse_and_labels_differ() {
    let mut host = Host::new("cpe", CostModel::default());
    let mut ledger = MemLedger::new();
    let costs = CostModel::default();
    let mut env = NodeEnv {
        host: &mut host,
        ledger: &mut ledger,
        costs: &costs,
    };
    let mut dpdk = DpdkDriver::default();
    let binding = un_nnf::GraphBinding::default();
    assert!(matches!(
        dpdk.bind_graph(&mut env, ID, &binding),
        Err(ComputeError::Unsupported(_))
    ));
    assert!(matches!(
        dpdk.unbind_graph(&mut env, ID, "g"),
        Err(ComputeError::Unsupported(_))
    ));
    let mgr = un_compute::ComputeManager::new();
    let mut labels = mgr.drivers().map(|d| d.label()).to_vec();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), 4);
}
