//! The compute manager: one instance table over all drivers.

use std::collections::BTreeMap;

use un_hypervisor::VmId;
use un_linux::Host;
use un_nffg::NfConfig;
use un_nnf::GraphBinding;
use un_packet::Packet;
use un_sim::{AccountId, CostModel, MemLedger};

use crate::drivers::{DockerDriver, DpdkDriver, NativeDriver, VmDriver};
use crate::types::{ComputeError, Flavor, FlavorSpec, InstanceId, InstanceState, IoOutcome};

/// Mutable node-level state every compute call threads through.
pub struct NodeEnv<'a> {
    /// The CPE's kernel (namespaces for docker/native NFs, taps).
    pub host: &'a mut Host,
    /// Memory accounting.
    pub ledger: &'a mut MemLedger,
    /// Cost model for data-path charging.
    pub costs: &'a CostModel,
}

#[derive(Debug)]
enum Handle {
    Vm(VmId),
    Docker,
    Dpdk,
    Native,
}

#[derive(Debug)]
struct InstanceInfo {
    name: String,
    functional_type: String,
    flavor: Flavor,
    handle: Handle,
    state: InstanceState,
    account: AccountId,
    /// Image identity for footprint queries.
    image_ref: (String, String),
}

/// Ports per instance are tagged `instance_id * TAG_STRIDE + port` on
/// the host side.
pub const TAG_STRIDE: u64 = 16;

/// The compute manager.
pub struct ComputeManager {
    /// VM driver (public for image-store provisioning).
    pub vm: VmDriver,
    /// Docker driver (public for registry provisioning).
    pub docker: DockerDriver,
    /// DPDK driver.
    pub dpdk: DpdkDriver,
    /// Native NNF driver.
    pub native: NativeDriver,
    instances: BTreeMap<u64, InstanceInfo>,
    next_id: u64,
}

impl Default for ComputeManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeManager {
    /// A manager with all four drivers available.
    pub fn new() -> Self {
        ComputeManager {
            vm: VmDriver::new(),
            docker: DockerDriver::new(),
            dpdk: DpdkDriver::new(),
            native: NativeDriver::new(),
            instances: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Create an NF instance with the chosen flavor.
    ///
    /// `shared_native` requests the sharable single-port mode for native
    /// NFs (ignored for other flavors).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        name: &str,
        functional_type: &str,
        spec: &FlavorSpec,
        n_ports: usize,
        config: &NfConfig,
        shared_native: bool,
        parent_account: AccountId,
    ) -> Result<InstanceId, ComputeError> {
        let id = self.next_id;
        let base_tag = id * TAG_STRIDE;
        let account = env
            .ledger
            .create_account(&format!("{}:{name}", spec.flavor()), Some(parent_account));

        // The driver call: a refusal gives the account just opened back.
        let driver = (|| match spec {
            FlavorSpec::Vm {
                image,
                vcpus,
                mem_mb,
                app,
            } => {
                let vm = self.vm.create(
                    name, image, *vcpus, *mem_mb, n_ports, *app, config, env.ledger, account,
                )?;
                Ok((Handle::Vm(vm), (image.clone(), String::new())))
            }
            FlavorSpec::Docker {
                image,
                tag,
                process_rss,
            } => {
                self.docker.create(
                    id,
                    name,
                    functional_type,
                    image,
                    tag,
                    *process_rss,
                    n_ports,
                    base_tag,
                    config,
                    env.host,
                    env.ledger,
                    account,
                )?;
                Ok((Handle::Docker, (image.clone(), tag.clone())))
            }
            FlavorSpec::Dpdk {
                cores,
                hugepages_mb,
            } => {
                self.dpdk
                    .create(id, *cores, *hugepages_mb, n_ports, account)?;
                Ok((Handle::Dpdk, (String::new(), String::new())))
            }
            FlavorSpec::Native => {
                self.native.create(
                    id,
                    name,
                    functional_type,
                    n_ports,
                    base_tag,
                    shared_native,
                    config,
                    env.host,
                    account,
                )?;
                Ok((Handle::Native, (functional_type.to_string(), String::new())))
            }
        })();
        let (handle, image_ref) =
            driver.inspect_err(|_: &ComputeError| env.ledger.free_account(account))?;

        self.instances.insert(
            id,
            InstanceInfo {
                name: name.to_string(),
                functional_type: functional_type.to_string(),
                flavor: spec.flavor(),
                handle,
                state: InstanceState::Created,
                account,
                image_ref,
            },
        );
        self.next_id += 1;
        Ok(InstanceId(id))
    }

    /// Start an instance.
    pub fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let info = self
            .instances
            .get_mut(&id.0)
            .ok_or(ComputeError::NoSuchInstance(id.0))?;
        match &info.handle {
            Handle::Vm(vm) => self.vm.start(*vm, env.ledger)?,
            Handle::Docker => self.docker.start(id.0, env.host, env.ledger)?,
            Handle::Dpdk => self.dpdk.start(id.0, env.ledger)?,
            Handle::Native => self.native.start(id.0, env.host, env.ledger)?,
        }
        info.state = InstanceState::Running;
        Ok(())
    }

    /// Stop an instance.
    pub fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let info = self
            .instances
            .get_mut(&id.0)
            .ok_or(ComputeError::NoSuchInstance(id.0))?;
        match &info.handle {
            Handle::Vm(vm) => self.vm.stop(*vm, env.ledger)?,
            Handle::Docker => self.docker.stop(id.0, env.host, env.ledger)?,
            Handle::Dpdk => self.dpdk.stop(id.0, env.ledger)?,
            Handle::Native => self.native.stop(id.0, env.host, env.ledger)?,
        }
        info.state = InstanceState::Stopped;
        Ok(())
    }

    /// Destroy a stopped instance and free its accounts.
    pub fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let info = self
            .instances
            .get(&id.0)
            .ok_or(ComputeError::NoSuchInstance(id.0))?;
        if info.state == InstanceState::Running {
            return Err(ComputeError::BadState("destroy while running"));
        }
        match &info.handle {
            Handle::Vm(vm) => self.vm.destroy(*vm)?,
            Handle::Docker => self.docker.destroy(id.0, env.host)?,
            Handle::Dpdk => self.dpdk.destroy(id.0)?,
            Handle::Native => self.native.destroy(id.0, env.host)?,
        }
        let info = self.instances.remove(&id.0).unwrap();
        env.ledger.free_account(info.account);
        Ok(())
    }

    /// Deliver a burst of packets to one instance: the instance table
    /// and driver-side dispatch resolve once for the whole burst
    /// instead of per packet. Returns one `IoOutcome` per input frame,
    /// in order, so per-frame accounting (TTL, ledger, cost) stays
    /// exact.
    pub fn deliver_batch(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: Vec<(u32, Packet)>,
    ) -> Vec<IoOutcome> {
        let Some(info) = self.instances.get(&id.0) else {
            return frames.iter().map(|_| IoOutcome::default()).collect();
        };
        match &info.handle {
            Handle::Vm(vm) => self.vm.deliver_batch(*vm, frames, env.costs),
            Handle::Docker => self.docker.deliver_batch(id.0, frames, env.host),
            Handle::Dpdk => self.dpdk.deliver_batch(id.0, frames, env.costs),
            Handle::Native => self.native.deliver_batch(id.0, frames, env.host),
        }
    }

    /// Bind a service graph to a shared native instance.
    pub fn bind_native_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        self.native.bind_graph(id.0, binding, env.host, env.ledger)
    }

    /// Unbind a service graph from a shared native instance.
    pub fn unbind_native_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        graph: &str,
    ) -> Result<(), ComputeError> {
        self.native.unbind_graph(id.0, graph, env.host, env.ledger)
    }

    /// RAM allocated to an instance right now (the paper's RAM column).
    pub fn ram_usage(&self, ledger: &MemLedger, id: InstanceId) -> u64 {
        self.instances
            .get(&id.0)
            .map(|i| ledger.usage(i.account))
            .unwrap_or(0)
    }

    /// Image footprint of an instance (the paper's image-size column).
    pub fn image_footprint(&self, id: InstanceId) -> u64 {
        let Some(info) = self.instances.get(&id.0) else {
            return 0;
        };
        match info.flavor {
            Flavor::Vm => self.vm.image_footprint(&info.image_ref.0),
            Flavor::Docker => self
                .docker
                .image_footprint(&info.image_ref.0, &info.image_ref.1),
            Flavor::Native => self.native.image_footprint(&info.image_ref.0),
            Flavor::Dpdk => 12_000_000, // statically linked DPDK app binary
        }
    }

    /// Instance state.
    pub fn state(&self, id: InstanceId) -> Option<InstanceState> {
        self.instances.get(&id.0).map(|i| i.state)
    }

    /// Instance flavor.
    pub fn flavor(&self, id: InstanceId) -> Option<Flavor> {
        self.instances.get(&id.0).map(|i| i.flavor)
    }

    /// Instance name.
    pub fn name(&self, id: InstanceId) -> Option<&str> {
        self.instances.get(&id.0).map(|i| i.name.as_str())
    }

    /// Functional type of an instance.
    pub fn functional_type(&self, id: InstanceId) -> Option<&str> {
        self.instances
            .get(&id.0)
            .map(|i| i.functional_type.as_str())
    }

    /// Iterate (id, flavor, name) of all instances.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, Flavor, &str)> {
        self.instances
            .iter()
            .map(|(k, v)| (InstanceId(*k), v.flavor, v.name.as_str()))
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
    use crate::types::GuestAppKind;
    use un_container::{Image, Layer};
    use un_hypervisor::DiskImage;
    use un_sim::mem::{mb, mb_f};

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

    fn ipsec_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "192.0.2.2")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24")
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
                    app: GuestAppKind::IpsecUserspace,
                },
                2,
                &ipsec_config(),
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
                &ipsec_config(),
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
                &ipsec_config(),
                false,
                node,
            )
            .unwrap();

        for id in [vm, docker, native] {
            mgr.start(&mut env, id).unwrap();
            assert_eq!(mgr.state(id), Some(InstanceState::Running));
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
                &NfConfig::default(),
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
                &NfConfig::default(),
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
                &ipsec_config(),
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
            &ipsec_config(),
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
