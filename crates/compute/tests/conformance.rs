//! Driver conformance: the paper's claim that an NF is the same thing
//! to the orchestrator whatever technology runs it, as one lifecycle
//! body through a `ComputeManager`, run for all four drivers.

use un_compute::{ComputeError, ComputeManager, Flavor, FlavorSpec, InstanceId, NodeEnv};
use un_container::{Image, Layer};
use un_hypervisor::DiskImage;
use un_linux::Host;
use un_nffg::NfConfig;
use un_packet::{MacAddr, Packet, PacketBuilder};
use un_sim::mem::mb;
use un_sim::{CostModel, MemLedger};

const ID: InstanceId = InstanceId(7);

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

fn frame() -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1000, 2000)
        .payload(b"conformance")
        .build()
}

/// Everything an instance can hold outside the manager.
fn residue(host: &Host, ledger: &MemLedger, mgr: &ComputeManager, flavor: Flavor) -> [usize; 4] {
    [
        host.namespace_count(),
        host.iface_count(),
        ledger.live_accounts(),
        mgr.drivers()[flavor as usize].instance_count(),
    ]
}

fn unknown(id: InstanceId, result: Result<(), ComputeError>) -> bool {
    result == Err(ComputeError::NoSuchInstance(id.0))
}

/// The whole life of one transparent two-port NF of `functional_type`,
/// realized from `spec` by `mgr`.
fn conforms(mut mgr: ComputeManager, functional_type: &str, spec: &FlavorSpec) {
    let flavor = spec.flavor();
    let who = mgr.drivers()[flavor as usize].label();
    let mut host = Host::new("cpe", CostModel::default());
    let mut ledger = MemLedger::new();
    let costs = CostModel::default();
    let node = ledger.create_account("node", None);
    let baseline = residue(&host, &ledger, &mgr, flavor);
    let mut env = NodeEnv {
        host: &mut host,
        ledger: &mut ledger,
        costs: &costs,
    };
    assert!(mgr.estimate_ram(spec) > 0, "{who}");

    // Nothing answers to the id yet.
    assert!(unknown(ID, mgr.start(&mut env, ID)), "{who}");
    assert!(unknown(ID, mgr.stop(&mut env, ID)), "{who}");
    assert!(unknown(ID, mgr.destroy(&mut env, ID)), "{who}");
    assert_eq!(mgr.image_footprint(ID), 0, "{who}");
    let outs = mgr.deliver_batch(&mut env, ID, vec![(0, frame())]);
    assert_eq!(outs.len(), 1, "{who}: one outcome per frame");
    assert!(outs[0].outputs.is_empty(), "{who}");

    let program = compiled(functional_type, &NfConfig::default());
    let id = mgr
        .create(
            &mut env,
            "nf",
            functional_type,
            spec,
            2,
            &program,
            false,
            node,
        )
        .expect(who);
    let count = |mgr: &ComputeManager| mgr.drivers()[flavor as usize].instance_count();
    assert_eq!(count(&mgr), baseline[3] + 1, "{who}");
    assert!(mgr.image_footprint(id) > 0, "{who}");
    // Every flavor runs its NF in a namespace, with the ports inside it.
    assert!(mgr.namespace_of(id).is_some(), "{who}");
    assert!(mgr.port_iface(id, 0).is_some(), "{who}");
    assert_eq!(mgr.port_iface(id, 2), None, "{who}");

    mgr.start(&mut env, id).expect(who);
    assert!(
        mgr.ram_usage(env.ledger, id) > 0,
        "{who}: running takes RAM"
    );

    // Port 0 to port 1, the frame untouched; no such port, no output.
    let outs = mgr.deliver_batch(&mut env, id, vec![(0, frame()), (9, frame())]);
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
    assert!(mgr.destroy(&mut env, id).is_err(), "{who}");
    assert_eq!(count(&mgr), baseline[3] + 1, "{who}");
    let outs = mgr.deliver_batch(&mut env, id, vec![(1, frame())]);
    assert_eq!(outs[0].outputs.len(), 1, "{who}");
    assert_eq!(outs[0].outputs[0].0, 0, "{who}: and back");

    mgr.stop(&mut env, id).expect(who);
    assert_eq!(
        mgr.ram_usage(env.ledger, id),
        0,
        "{who}: stopping gives it back"
    );
    // A stopped instance does not restart, and the refusal takes
    // nothing.
    let stopped = residue(env.host, env.ledger, &mgr, flavor);
    assert!(
        matches!(mgr.start(&mut env, id), Err(ComputeError::BadState(_))),
        "{who}: a restart"
    );
    assert_eq!(mgr.ram_usage(env.ledger, id), 0, "{who}");
    assert_eq!(
        residue(env.host, env.ledger, &mgr, flavor),
        stopped,
        "{who}"
    );
    mgr.destroy(&mut env, id).expect(who);
    assert!(unknown(id, mgr.start(&mut env, id)), "{who}");
    assert_eq!(residue(&host, &ledger, &mgr, flavor), baseline, "{who}");
    assert_eq!(ledger.usage(node), 0, "{who}");
}

#[test]
fn native_driver_conforms() {
    conforms(ComputeManager::new(), "bridge", &FlavorSpec::Native);
}

#[test]
fn docker_driver_conforms() {
    let mut mgr = ComputeManager::new();
    mgr.docker.registry.push(Image {
        name: "bridge".into(),
        tag: "latest".into(),
        layers: vec![Layer::new("sha256:base-os", mb(235))],
    });
    let spec = FlavorSpec::Docker {
        image: "bridge".into(),
        tag: "latest".into(),
        process_rss: mb(3),
    };
    conforms(mgr, "bridge", &spec);
}

#[test]
fn vm_driver_conforms() {
    let mut mgr = ComputeManager::new();
    mgr.vm.hypervisor.images.add(DiskImage {
        name: "bridge-vm".into(),
        size: mb(518),
    });
    let spec = FlavorSpec::Vm {
        image: "bridge-vm".into(),
        vcpus: 1,
        mem_mb: 256,
    };
    conforms(mgr, "bridge", &spec);
}

#[test]
fn dpdk_driver_conforms() {
    let spec = FlavorSpec::Dpdk {
        cores: 1,
        hugepages_mb: 256,
    };
    conforms(ComputeManager::new(), "l2fwd-fast", &spec);
}

/// A binding is refused by an instance that is not shared, and the
/// four drivers are told apart by name only.
#[test]
fn defaults_refuse_and_labels_differ() {
    let mut host = Host::new("cpe", CostModel::default());
    let mut ledger = MemLedger::new();
    let costs = CostModel::default();
    let node = ledger.create_account("node", None);
    let mut env = NodeEnv {
        host: &mut host,
        ledger: &mut ledger,
        costs: &costs,
    };
    let mut mgr = ComputeManager::new();
    let spec = FlavorSpec::Dpdk {
        cores: 1,
        hugepages_mb: 256,
    };
    let program = compiled("l2fwd-fast", &NfConfig::default());
    let dpdk = mgr
        .create(
            &mut env,
            "fast",
            "l2fwd-fast",
            &spec,
            2,
            &program,
            false,
            node,
        )
        .unwrap();
    let binding = un_nnf::GraphBinding::default();
    assert!(matches!(
        mgr.bind_graph(&mut env, dpdk, &binding),
        Err(ComputeError::Unsupported(_))
    ));
    assert!(matches!(
        mgr.unbind_graph(&mut env, dpdk, &binding),
        Err(ComputeError::Unsupported(_))
    ));
    let mut labels = mgr.drivers().map(|d| d.label()).to_vec();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), 4);
}
