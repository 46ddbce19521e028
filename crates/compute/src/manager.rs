//! The compute manager: one instance table over all drivers.

use std::collections::BTreeMap;

use un_linux::{IfaceId, NsId};
use un_nnf::{GraphBinding, NnfCommand};
use un_packet::Packet;
use un_sim::{AccountId, MemLedger};

use crate::drivers::{
    ComputeDriver, CreateRequest, DockerDriver, DpdkDriver, NativeDriver, NodeEnv, VmDriver,
};
use crate::repository::Repository;
use crate::types::{ComputeError, Crossing, Flavor, FlavorSpec, InstanceId, IoOutcome};

#[derive(Debug)]
struct InstanceInfo {
    name: String,
    functional_type: String,
    flavor: Flavor,
    account: AccountId,
}

/// The compute manager: the node's repository, the flavor-independent
/// instance table, and the four drivers every per-instance call is
/// forwarded to. Whether an instance runs is its driver's knowledge, not
/// the table's.
pub struct ComputeManager {
    /// VM driver (public for its image store).
    pub vm: VmDriver,
    /// Docker driver (public for its registry).
    pub docker: DockerDriver,
    /// DPDK driver.
    pub dpdk: DpdkDriver,
    /// Native NNF driver (public for its shared instances' bindings).
    pub native: NativeDriver,
    repository: Repository,
    instances: BTreeMap<InstanceId, InstanceInfo>,
    next_id: u64,
}

impl Default for ComputeManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeManager {
    /// A manager with all four drivers available, the standard
    /// repository, and the image of each of its VNFs in the drivers'
    /// stores.
    pub fn new() -> Self {
        let repository = Repository::standard();
        let (mut vm, mut docker) = (VmDriver::default(), DockerDriver::default());
        repository.provision(&mut vm, &mut docker);
        ComputeManager {
            vm,
            docker,
            dpdk: DpdkDriver::default(),
            native: NativeDriver::default(),
            repository,
            instances: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// The node's repository: every network function it offers, with
    /// every implementation of each.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// The driver of a technology.
    fn driver(&mut self, flavor: Flavor) -> &mut dyn ComputeDriver {
        match flavor {
            Flavor::Vm => &mut self.vm,
            Flavor::Docker => &mut self.docker,
            Flavor::Dpdk => &mut self.dpdk,
            Flavor::Native => &mut self.native,
        }
    }

    /// All drivers, in [`Flavor`] declaration order.
    pub fn drivers(&self) -> [&dyn ComputeDriver; 4] {
        [&self.vm, &self.docker, &self.dpdk, &self.native]
    }

    /// The driver serving an instance, for queries.
    fn serving(&self, id: InstanceId) -> Option<&dyn ComputeDriver> {
        let info = self.instances.get(&id)?;
        Some(self.drivers()[info.flavor as usize])
    }

    /// The driver serving an instance, for operations.
    fn serving_mut(&mut self, id: InstanceId) -> Result<&mut dyn ComputeDriver, ComputeError> {
        let flavor = self.flavor(id).ok_or(ComputeError::NoSuchInstance(id.0))?;
        Ok(self.driver(flavor))
    }

    /// Create an NF instance with the chosen flavor, to run `program`.
    /// The request carries the type's native descriptor from the
    /// repository, which every driver that runs an NNF instance builds
    /// it from.
    ///
    /// `shared_native` asks for a shared native instance, which graphs
    /// bind to ([`CreateRequest::shared`]).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        name: &str,
        functional_type: &str,
        spec: &FlavorSpec,
        n_ports: usize,
        program: &[NnfCommand],
        shared_native: bool,
        parent_account: AccountId,
    ) -> Result<InstanceId, ComputeError> {
        let (id, flavor) = (InstanceId(self.next_id), spec.flavor());
        let nf = self.repository.nnf(functional_type).copied();
        let account = env
            .ledger
            .create_account(&format!("{flavor}:{name}"), Some(parent_account));
        let req = CreateRequest {
            id,
            account,
            name,
            functional_type,
            spec,
            n_ports,
            program,
            nf: nf.as_ref(),
            shared: shared_native,
        };
        // A refusal gives the account just opened back.
        self.driver(flavor)
            .create(env, &req)
            .inspect_err(|_| env.ledger.free_account(account))?;
        let info = InstanceInfo {
            name: name.to_string(),
            functional_type: functional_type.to_string(),
            flavor,
            account,
        };
        self.instances.insert(id, info);
        self.next_id += 1;
        Ok(id)
    }

    /// Start an instance.
    pub fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        self.serving_mut(id)?.start(env, id)
    }

    /// Stop an instance.
    pub fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        self.serving_mut(id)?.stop(env, id)
    }

    /// Destroy an instance that does not run (its driver refuses one
    /// that does) and free its accounts.
    pub fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        self.serving_mut(id)?.destroy(env, id)?;
        let info = self.instances.remove(&id).expect("served above");
        env.ledger.free_account(info.account);
        Ok(())
    }

    /// Deliver a burst of packets to one instance, draining `frames`
    /// into `out` ([`ComputeDriver::deliver_into`]): table and driver
    /// resolve once for the whole burst, and every input frame closes
    /// its own entry of `out`, so per-frame accounting stays exact.
    pub fn deliver_into(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: &mut Vec<(u32, Packet)>,
        out: &mut Crossing,
    ) {
        match self.serving_mut(id) {
            Ok(driver) => driver.deliver_into(env, id, frames, out),
            Err(_) => out.refuse(frames),
        }
    }

    /// [`ComputeManager::deliver_into`] in owning form: one
    /// [`IoOutcome`] per input frame, in order.
    pub fn deliver_batch(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        mut frames: Vec<(u32, Packet)>,
    ) -> Vec<IoOutcome> {
        let mut out = Crossing::default();
        self.deliver_into(env, id, &mut frames, &mut out);
        out.into_outcomes()
    }

    /// Bind a service graph to a shared instance.
    pub fn bind_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        self.serving_mut(id)?.bind_graph(env, id, binding)
    }

    /// Unbind a binding from a shared instance.
    pub fn unbind_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        self.serving_mut(id)?.unbind_graph(env, id, binding)
    }

    /// RAM allocated to an instance right now (the paper's RAM column).
    pub fn ram_usage(&self, ledger: &MemLedger, id: InstanceId) -> u64 {
        self.instances
            .get(&id)
            .map_or(0, |i| ledger.usage(i.account))
    }

    /// Image footprint of an instance (the paper's image-size column).
    pub fn image_footprint(&self, id: InstanceId) -> u64 {
        self.serving(id).map_or(0, |d| d.image_footprint(id))
    }

    /// RAM a new instance of `spec` would take (a scheduler estimate).
    pub fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        self.drivers()[spec.flavor() as usize].estimate_ram(spec)
    }

    /// The host namespace an instance's NF runs in (a VM's guest kernel
    /// is one), if its technology configures one.
    pub fn namespace_of(&self, id: InstanceId) -> Option<NsId> {
        self.serving(id)?.namespace_of(id)
    }

    /// The host interface behind an instance port, if there is one.
    pub fn port_iface(&self, id: InstanceId, port: u32) -> Option<IfaceId> {
        self.serving(id)?.port_iface(id, port)
    }

    /// The name of the driver serving an instance.
    pub fn driver_label(&self, id: InstanceId) -> Option<&'static str> {
        self.serving(id).map(|d| d.label())
    }

    /// Instance flavor.
    pub fn flavor(&self, id: InstanceId) -> Option<Flavor> {
        self.instances.get(&id).map(|i| i.flavor)
    }

    /// Instance name.
    pub fn name(&self, id: InstanceId) -> Option<&str> {
        self.instances.get(&id).map(|i| i.name.as_str())
    }

    /// Functional type of an instance.
    pub fn functional_type(&self, id: InstanceId) -> Option<&str> {
        self.instances.get(&id).map(|i| i.functional_type.as_str())
    }

    /// Iterate (id, flavor, name) of all instances.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, Flavor, &str)> {
        self.instances
            .iter()
            .map(|(k, v)| (*k, v.flavor, v.name.as_str()))
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if no instances exist.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::testkit::{ipsec_config, program};
    use un_container::{Image, Layer};
    use un_hypervisor::vm::QEMU_OVERHEAD_MB;
    use un_hypervisor::DiskImage;
    use un_linux::Host;
    use un_sim::mem::{mb, mb_f};
    use un_sim::CostModel;

    fn provision(mgr: &mut ComputeManager) {
        mgr.vm.hypervisor.images.add(DiskImage {
            name: "strongswan-vm".into(),
            size: mb(522),
        });
        mgr.docker.registry.push(Image {
            name: "strongswan".into(),
            tag: "latest".into(),
            layers: vec![
                Layer::new("sha256:base", mb(235)),
                Layer::new("sha256:swan", mb(5)),
            ],
        });
    }

    /// The three flavors of Table 1, created through one manager, with
    /// the resource ordering the paper reports.
    #[test]
    fn three_flavors_resource_ordering() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let node = ledger.create_account("node", None);
        let costs = CostModel::default();
        let mut mgr = ComputeManager::new();
        provision(&mut mgr);
        let mut env = NodeEnv {
            host: &mut host,
            ledger: &mut ledger,
            costs: &costs,
        };

        let vm = mgr
            .create(
                &mut env,
                "ipsec-vm",
                "ipsec",
                &FlavorSpec::Vm {
                    image: "strongswan-vm".into(),
                    vcpus: 1,
                    mem_mb: 320,
                },
                2,
                &program("ipsec", &ipsec_config()).unwrap(),
                false,
                node,
            )
            .unwrap();
        let docker = mgr
            .create(
                &mut env,
                "ipsec-docker",
                "ipsec",
                &FlavorSpec::Docker {
                    image: "strongswan".into(),
                    tag: "latest".into(),
                    process_rss: mb_f(19.4) - mb_f(0.9), // plugin adds tooling RSS
                },
                2,
                &program("ipsec", &ipsec_config()).unwrap(),
                false,
                node,
            )
            .unwrap();
        let native = mgr
            .create(
                &mut env,
                "ipsec-native",
                "ipsec",
                &FlavorSpec::Native,
                2,
                &program("ipsec", &ipsec_config()).unwrap(),
                false,
                node,
            )
            .unwrap();

        for id in [vm, docker, native] {
            mgr.start(&mut env, id).unwrap();
        }

        let ram_vm = mgr.ram_usage(env.ledger, vm);
        let ram_docker = mgr.ram_usage(env.ledger, docker);
        let ram_native = mgr.ram_usage(env.ledger, native);
        assert!(ram_vm > ram_docker, "{ram_vm} vs {ram_docker}");
        assert!(ram_docker > ram_native, "{ram_docker} vs {ram_native}");

        let img_vm = mgr.image_footprint(vm);
        let img_docker = mgr.image_footprint(docker);
        let img_native = mgr.image_footprint(native);
        assert_eq!(img_vm, mb(522));
        assert_eq!(img_docker, mb(240));
        assert_eq!(img_native, mb(5));

        // Teardown.
        for id in [vm, docker, native] {
            mgr.stop(&mut env, id).unwrap();
            mgr.destroy(&mut env, id).unwrap();
        }
        assert!(mgr.is_empty());
    }

    /// `estimate_ram` reaches the driver of the spec's flavor (the
    /// others price a foreign spec at 0), at the numbers fleet
    /// placement has always used.
    #[test]
    fn each_flavor_reaches_its_own_driver() {
        let mgr = ComputeManager::new();
        let vm = FlavorSpec::Vm {
            image: "img".into(),
            vcpus: 1,
            mem_mb: 320,
        };
        let docker = FlavorSpec::Docker {
            image: "img".into(),
            tag: "latest".into(),
            process_rss: mb(3),
        };
        let dpdk = FlavorSpec::Dpdk {
            cores: 1,
            hugepages_mb: 256,
        };
        assert_eq!(mgr.estimate_ram(&vm), mb(320) + mb_f(QEMU_OVERHEAD_MB));
        assert_eq!(mgr.estimate_ram(&docker), mb(3) + mb(25));
        assert_eq!(mgr.estimate_ram(&dpdk), mb(256));
        assert_eq!(mgr.estimate_ram(&FlavorSpec::Native), mb(24));
    }

    #[test]
    fn dpdk_flavor_through_manager() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let node = ledger.create_account("node", None);
        let costs = CostModel::default();
        let mut mgr = ComputeManager::new();
        let mut env = NodeEnv {
            host: &mut host,
            ledger: &mut ledger,
            costs: &costs,
        };
        let id = mgr
            .create(
                &mut env,
                "fastpath",
                "l2fwd",
                &FlavorSpec::Dpdk {
                    cores: 1,
                    hugepages_mb: 256,
                },
                2,
                &[],
                false,
                node,
            )
            .unwrap();
        mgr.start(&mut env, id).unwrap();
        let io = mgr.deliver_batch(&mut env, id, vec![(0, Packet::from_slice(&[0u8; 128]))]);
        assert_eq!(io[0].outputs.len(), 1);
        assert_eq!(mgr.flavor(id), Some(Flavor::Dpdk));
        assert_eq!(mgr.ram_usage(env.ledger, id), mb(256));
    }

    #[test]
    fn deliver_batch_matches_per_frame_semantics() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let node = ledger.create_account("node", None);
        let costs = CostModel::default();
        let mut mgr = ComputeManager::new();
        let mut env = NodeEnv {
            host: &mut host,
            ledger: &mut ledger,
            costs: &costs,
        };
        let id = mgr
            .create(
                &mut env,
                "fastpath",
                "l2fwd",
                &FlavorSpec::Dpdk {
                    cores: 1,
                    hugepages_mb: 256,
                },
                2,
                &[],
                false,
                node,
            )
            .unwrap();
        mgr.start(&mut env, id).unwrap();
        let frames: Vec<(u32, Packet)> = (0..4)
            .map(|i| (i % 2, Packet::from_slice(&[i as u8; 64])))
            .collect();
        let outs = mgr.deliver_batch(&mut env, id, frames);
        assert_eq!(outs.len(), 4, "one outcome per input frame");
        for (i, io) in outs.iter().enumerate() {
            // l2fwd crosses ports 0<->1, charged per packet.
            assert_eq!(io.outputs[0].0, ((i as u32) % 2) ^ 1);
            assert_eq!(io.cost.as_nanos(), costs.pmd_per_packet_ns);
        }
        // Unknown instances yield one default outcome per frame.
        let outs = mgr.deliver_batch(
            &mut env,
            InstanceId(999),
            vec![(0, Packet::from_slice(&[0]))],
        );
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
    }

    #[test]
    fn destroy_guards_and_unknown_ids() {
        let mut host = Host::new("cpe", CostModel::default());
        let mut ledger = MemLedger::new();
        let node = ledger.create_account("node", None);
        let costs = CostModel::default();
        let mut mgr = ComputeManager::new();
        provision(&mut mgr);
        let mut env = NodeEnv {
            host: &mut host,
            ledger: &mut ledger,
            costs: &costs,
        };
        let id = mgr
            .create(
                &mut env,
                "n",
                "ipsec",
                &FlavorSpec::Native,
                2,
                &program("ipsec", &ipsec_config()).unwrap(),
                false,
                node,
            )
            .unwrap();
        mgr.start(&mut env, id).unwrap();
        assert!(matches!(
            mgr.destroy(&mut env, id),
            Err(ComputeError::BadState(_))
        ));
        // A create the driver refuses keeps nothing: the singleton is
        // taken, and the account opened for the newcomer is given back.
        let accounts = env.ledger.live_accounts();
        let busy = mgr.create(
            &mut env,
            "n2",
            "ipsec",
            &FlavorSpec::Native,
            2,
            &program("ipsec", &ipsec_config()).unwrap(),
            false,
            node,
        );
        assert!(matches!(busy, Err(ComputeError::NnfBusy(_))));
        assert_eq!(env.ledger.live_accounts(), accounts);
        assert_eq!(mgr.len(), 1);
        assert!(matches!(
            mgr.start(&mut env, InstanceId(999)),
            Err(ComputeError::NoSuchInstance(999))
        ));
    }
}
