//! The compute manager: the node's one instance table and its one NF
//! data path, over four packaging drivers.

use std::collections::BTreeMap;

use un_linux::{IfaceId, NsId};
use un_nnf::{GraphBinding, NnfCommand, NnfContext, NnfError, NnfInstance};
use un_packet::Packet;
use un_sim::{AccountId, Cost, MemLedger};

use crate::drivers::sandbox::Sandbox;
use crate::drivers::{
    ComputeDriver, CreateRequest, DockerDriver, DpdkDriver, NativeDriver, NodeEnv, Packaging,
    VmDriver,
};
use crate::repository::Repository;
use crate::types::{ComputeError, Crossing, Flavor, FlavorSpec, InstanceId, IoOutcome};

/// Where an instance is in its life: created → running → stopped, then
/// destroyed. Nothing restarts a stopped instance: its namespace still
/// holds what its command list configured, and running the list again
/// over it would fail, or duplicate what is there. A start that fails
/// leaves the instance stopped, for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Created,
    Running,
    Stopped,
}

/// One instance: what it is, the sandbox its NF runs in, and the
/// packaging its flavor wraps around that sandbox.
struct Instance {
    name: String,
    spec: FlavorSpec,
    account: AccountId,
    state: State,
    sandbox: Sandbox,
    packaging: Packaging,
}

/// An NNF's refusal of a request about sharing: asked of a dedicated
/// instance or a type not sharable, it is `Unsupported`; a binding the
/// instance does not hold is a `BadState`.
fn refusal(e: NnfError) -> ComputeError {
    match e {
        NnfError::NotSharable => ComputeError::Unsupported(e.to_string()),
        NnfError::BadState(s) => ComputeError::BadState(s),
        e => ComputeError::Substrate(e.to_string()),
    }
}

/// The compute manager: the node's repository, its one instance table
/// — every instance's sandbox, lifecycle state and packaging handle —
/// and the four drivers that package instances. It runs every
/// instance's data path itself.
pub struct ComputeManager {
    /// VM driver (public for its image store).
    pub vm: VmDriver,
    /// Docker driver (public for its registry).
    pub docker: DockerDriver,
    /// DPDK driver.
    pub dpdk: DpdkDriver,
    /// Native NNF driver.
    pub native: NativeDriver,
    repository: Repository,
    instances: BTreeMap<InstanceId, Instance>,
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

    /// The driver of a technology, beside the instance table.
    fn driver(
        &mut self,
        flavor: Flavor,
    ) -> (&mut dyn ComputeDriver, &mut BTreeMap<InstanceId, Instance>) {
        let driver: &mut dyn ComputeDriver = match flavor {
            Flavor::Vm => &mut self.vm,
            Flavor::Docker => &mut self.docker,
            Flavor::Dpdk => &mut self.dpdk,
            Flavor::Native => &mut self.native,
        };
        (driver, &mut self.instances)
    }

    /// All drivers, in [`Flavor`] declaration order.
    pub fn drivers(&self) -> [&dyn ComputeDriver; 4] {
        [&self.vm, &self.docker, &self.dpdk, &self.native]
    }

    /// An instance and the driver packaging it.
    fn entry(
        &mut self,
        id: InstanceId,
    ) -> Result<(&mut Instance, &mut dyn ComputeDriver), ComputeError> {
        let flavor = self.flavor(id).ok_or(ComputeError::NoSuchInstance(id.0))?;
        let (driver, instances) = self.driver(flavor);
        let inst = instances.get_mut(&id).expect("its flavor was found");
        Ok((inst, driver))
    }

    /// Create an NF instance with the chosen flavor, to run `program`:
    /// the type's NNF instance, built from its repository row's
    /// descriptor, in a fresh sandbox, packaged by the flavor's driver.
    /// A type the repository does not offer in that flavor is refused.
    ///
    /// `shared_native` asks for a shared native instance, which graphs
    /// bind to on its one attachment port: refused for a type not
    /// sharable, and for any other flavor.
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
        let (id, flavor, ft) = (InstanceId(self.next_id), spec.flavor(), functional_type);
        let row = self.repository.resolve(ft);
        let Some(row) = row.filter(|row| row.spec_for(flavor).is_some()) else {
            return Err(match flavor {
                Flavor::Native => ComputeError::NoSuchNnf(ft.to_string()),
                _ => ComputeError::Unsupported(format!("'{ft}' has no {flavor} flavor")),
            });
        };
        let nf = row.nf;
        if shared_native && flavor != Flavor::Native {
            return Err(ComputeError::Unsupported(format!(
                "a shared {flavor} instance"
            )));
        }
        if flavor == Flavor::Native && self.existing_instance(ft).is_some() {
            return Err(ComputeError::NnfBusy(ft.to_string()));
        }
        let plugin = NnfInstance::new(&nf, shared_native).map_err(refusal)?;
        let n_ports = if shared_native { 1 } else { n_ports };
        let (ns_prefix, port_prefix) = match flavor {
            Flavor::Native => ("nnf", "port"),
            Flavor::Docker => ("docker", "eth"),
            Flavor::Vm => ("vm", "eth"),
            Flavor::Dpdk => ("dpdk", "port"),
        };
        let ns_name = format!("{ns_prefix}-{name}");
        let sandbox = Sandbox::create(
            env.host,
            id,
            &ns_name,
            port_prefix,
            n_ports,
            plugin,
            program,
        )?;
        let account = env
            .ledger
            .create_account(&format!("{flavor}:{name}"), Some(parent_account));
        let req = CreateRequest {
            account,
            name,
            spec,
            n_ports,
            ns: sandbox.ns(),
        };
        // A refusal gives back the sandbox and account just made.
        let packaging = match self.driver(flavor).0.create(env, &req) {
            Ok(packaging) => packaging,
            Err(e) => {
                env.ledger.free_account(account);
                let _ = sandbox.destroy(env.host);
                return Err(e);
            }
        };
        let inst = Instance {
            name: name.to_string(),
            spec: spec.clone(),
            account,
            state: State::Created,
            sandbox,
            packaging,
        };
        self.instances.insert(id, inst);
        self.next_id += 1;
        Ok(id)
    }

    /// Start a created instance: its packaging, then its NF's command
    /// list. A running or stopped one is refused before anything runs.
    pub fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let (inst, driver) = self.entry(id)?;
        match inst.state {
            State::Created => {}
            State::Running => return Err(ComputeError::BadState("already running")),
            State::Stopped => {
                return Err(ComputeError::BadState(
                    "a stopped instance does not restart",
                ))
            }
        }
        driver.start(env, &inst.packaging)?;
        let books = inst.packaging.books(env.ledger, inst.account);
        let started = inst.sandbox.start(env.host, books);
        if started.is_err() {
            inst.state = State::Stopped;
            let _ = driver.stop(env, &inst.packaging);
            return started;
        }
        inst.state = State::Running;
        Ok(())
    }

    /// Stop a running instance: its NF, then its packaging.
    pub fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let (inst, driver) = self.entry(id)?;
        if inst.state != State::Running {
            return Err(ComputeError::BadState("not running"));
        }
        let books = inst.packaging.books(env.ledger, inst.account);
        inst.sandbox.stop(env.host, books)?;
        inst.state = State::Stopped;
        driver.stop(env, &inst.packaging)
    }

    /// Destroy an instance that does not run, with its packaging, its
    /// namespace and its accounts.
    pub fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let (inst, driver) = self.entry(id)?;
        if inst.state == State::Running {
            return Err(ComputeError::BadState("destroy while running"));
        }
        driver.destroy(&inst.packaging)?;
        let inst = self.instances.remove(&id).expect("looked up above");
        env.ledger.free_account(inst.account);
        inst.sandbox.destroy(env.host)
    }

    /// The data path: deliver a burst of `(port, frame)`s to one
    /// instance, draining `frames` into `out` — every output, and per
    /// input frame, in order, where its outputs end and its cost. The
    /// instance resolves once for the whole burst; each frame then
    /// crosses its sandbox inside the flavor's boundary:
    ///
    /// * native and Docker: none — the kernel's charge is the cost;
    /// * VM: [`Hypervisor::deliver`](un_hypervisor::Hypervisor::deliver),
    ///   which adds the virtio charge around the guest kernel's;
    /// * DPDK: the PMD's per-packet cost in place of the kernel's, for
    ///   a frame a running process takes on a port it has; any other
    ///   frame costs nothing.
    ///
    /// A frame for an unknown instance or port ends with no output at no
    /// cost.
    pub fn deliver_into(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: &mut Vec<(u32, Packet)>,
        out: &mut Crossing,
    ) {
        let Some(inst) = self.instances.get(&id) else {
            return out.refuse(frames);
        };
        let (sandbox, host) = (&inst.sandbox, &mut *env.host);
        match &inst.packaging {
            Packaging::Native | Packaging::Docker(_) => {
                for (port, pkt) in frames.drain(..) {
                    let cost = sandbox.deliver(port, pkt, host, &mut out.outputs);
                    out.end_frame(cost);
                }
            }
            Packaging::Vm { vm, .. } => {
                let hypervisor = &mut self.vm.hypervisor;
                for (port, pkt) in frames.drain(..) {
                    let guest = |nic: usize, pkt| {
                        let mut emitted = Vec::new();
                        let cost = sandbox.deliver(nic as u32, pkt, host, &mut emitted);
                        let outputs = emitted.into_iter().map(|(p, f)| (p as usize, f));
                        (outputs.collect(), cost)
                    };
                    let io = hypervisor.deliver(*vm, port as usize, pkt, env.costs, guest);
                    let outputs = io.outputs.into_iter().map(|(nic, p)| (nic as u64, p));
                    out.outputs.extend(outputs);
                    out.end_frame(io.cost);
                }
            }
            Packaging::Dpdk { .. } => {
                let live = inst.state == State::Running;
                let pmd = Cost::from_nanos(env.costs.pmd_per_packet_ns);
                for (port, pkt) in frames.drain(..) {
                    let taken = live && sandbox.port(port).is_some();
                    if taken {
                        sandbox.deliver(port, pkt, host, &mut out.outputs);
                    }
                    out.end_frame(if taken { pmd } else { Cost::ZERO });
                }
            }
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

    /// Run `call` on an instance's NNF, in the context of its
    /// namespace and books.
    fn with_nnf(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        call: impl FnOnce(&mut NnfInstance, &mut NnfContext<'_>) -> Result<(), NnfError>,
    ) -> Result<(), ComputeError> {
        let inst = self.instances.get_mut(&id);
        let inst = inst.ok_or(ComputeError::NoSuchInstance(id.0))?;
        let (ledger, account) = inst.packaging.books(env.ledger, inst.account);
        let mut ctx = inst.sandbox.ctx(env.host, ledger, account);
        call(&mut inst.sandbox.plugin, &mut ctx).map_err(refusal)
    }

    /// Bind a service graph to a shared instance.
    pub fn bind_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        self.with_nnf(env, id, |nnf, ctx| nnf.bind_graph(ctx, binding))
    }

    /// Unbind a binding from a shared instance.
    pub fn unbind_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        self.with_nnf(env, id, |nnf, ctx| nnf.unbind_graph(ctx, binding))
    }

    /// The bindings on a shared instance, in bind order, as its
    /// adaptation layer records them (a graph with two NFs on it holds
    /// two); none on any other.
    pub fn bindings(&self, id: InstanceId) -> impl Iterator<Item = &GraphBinding> {
        let instance = self.instances.get(&id);
        instance
            .into_iter()
            .flat_map(|i| i.sandbox.plugin.bindings())
    }

    /// Bindings on an instance (shared mode).
    pub fn binding_count(&self, id: InstanceId) -> usize {
        self.bindings(id).count()
    }

    /// The live native instance of a single-instance type, if there is
    /// one: no second one is created beside it.
    pub fn existing_instance(&self, functional_type: &str) -> Option<InstanceId> {
        let row = self.repository.resolve(functional_type)?;
        if row.nf.multi_instance {
            return None;
        }
        let singleton = |inst: &Instance| {
            let nf = inst.sandbox.plugin.descriptor();
            inst.spec == FlavorSpec::Native
                && !nf.multi_instance
                && nf.functional_type == functional_type
        };
        let found = self.instances.iter().find(|(_, i)| singleton(i));
        found.map(|(id, _)| *id)
    }

    /// RAM allocated to an instance right now (the paper's RAM column).
    pub fn ram_usage(&self, ledger: &MemLedger, id: InstanceId) -> u64 {
        self.instances
            .get(&id)
            .map_or(0, |i| ledger.usage(i.account))
    }

    /// Image footprint of an instance (the paper's image-size column).
    pub fn image_footprint(&self, id: InstanceId) -> u64 {
        self.instances.get(&id).map_or(0, |i| {
            let driver = self.drivers()[i.spec.flavor() as usize];
            driver.image_footprint(&i.spec, i.sandbox.plugin.descriptor())
        })
    }

    /// RAM a new instance of `spec` would take (a scheduler estimate).
    pub fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        self.drivers()[spec.flavor() as usize].estimate_ram(spec)
    }

    /// The command list an instance was built from: what its start ran.
    pub fn program(&self, id: InstanceId) -> Option<&[NnfCommand]> {
        self.instances.get(&id).map(|i| i.sandbox.program())
    }

    /// The host namespace an instance's NF runs in, whatever its flavor
    /// (a VM's guest kernel is one). The host's counters see what it
    /// drops; like every host counter, they are host-wide.
    pub fn namespace_of(&self, id: InstanceId) -> Option<NsId> {
        self.instances.get(&id).map(|i| i.sandbox.ns())
    }

    /// The host interface behind an instance port.
    pub fn port_iface(&self, id: InstanceId, port: u32) -> Option<IfaceId> {
        self.instances.get(&id)?.sandbox.port(port)
    }

    /// The name of the driver packaging an instance.
    pub fn driver_label(&self, id: InstanceId) -> Option<&'static str> {
        let flavor = self.flavor(id)?;
        Some(self.drivers()[flavor as usize].label())
    }

    /// Instance flavor.
    pub fn flavor(&self, id: InstanceId) -> Option<Flavor> {
        self.instances.get(&id).map(|i| i.spec.flavor())
    }

    /// Instance name.
    pub fn name(&self, id: InstanceId) -> Option<&str> {
        self.instances.get(&id).map(|i| i.name.as_str())
    }

    /// Functional type of an instance.
    pub fn functional_type(&self, id: InstanceId) -> Option<&str> {
        let inst = self.instances.get(&id)?;
        Some(inst.sandbox.plugin.descriptor().functional_type)
    }

    /// Iterate (id, flavor, name) of all instances.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, Flavor, &str)> {
        self.instances
            .iter()
            .map(|(k, v)| (*k, v.spec.flavor(), v.name.as_str()))
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
pub(crate) mod tests {
    //! The harness every flavor's tests drive the manager with; each
    //! driver's own tests sit in its file and use it.

    use super::*;
    use un_container::{Image, Layer};
    use un_hypervisor::vm::QEMU_OVERHEAD_MB;
    use un_hypervisor::DiskImage;
    use un_linux::Host;
    use un_nffg::{NfConfig, NfFgBuilder};
    use un_packet::{MacAddr, PacketBuilder};
    use un_sim::mem::{mb, mb_f};
    use un_sim::CostModel;

    /// A host, ledger and cost model, and a manager to drive against them
    /// whose stores also hold the images these tests name: a 522 MB VM disk
    /// `img` and a two-layer, 240 MB Docker image `strongswan`.
    pub(crate) struct Rig {
        pub(crate) host: Host,
        pub(crate) ledger: MemLedger,
        pub(crate) costs: CostModel,
        pub(crate) node: AccountId,
        pub(crate) mgr: ComputeManager,
        created: usize,
    }

    impl Rig {
        pub(crate) fn new() -> Self {
            let mut ledger = MemLedger::new();
            let node = ledger.create_account("node", None);
            let mut mgr = ComputeManager::new();
            mgr.vm.hypervisor.images.add(DiskImage {
                name: "img".into(),
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
            Rig {
                host: Host::new("cpe", CostModel::default()),
                ledger,
                costs: CostModel::default(),
                node,
                mgr,
                created: 0,
            }
        }

        /// `call` on the manager, in the rig's node environment.
        pub(crate) fn run<R>(
            &mut self,
            call: impl FnOnce(&mut ComputeManager, &mut NodeEnv<'_>) -> R,
        ) -> R {
            let mut env = NodeEnv {
                host: &mut self.host,
                ledger: &mut self.ledger,
                costs: &self.costs,
            };
            call(&mut self.mgr, &mut env)
        }

        /// Ask for a two-port `functional_type` instance of `spec`, the
        /// rig's `k`-th, named `nf<k>`, to run `program`.
        pub(crate) fn create(
            &mut self,
            functional_type: &str,
            spec: &FlavorSpec,
            program: &[NnfCommand],
            shared: bool,
        ) -> Result<InstanceId, ComputeError> {
            self.created += 1;
            let (name, node) = (format!("nf{}", self.created), self.node);
            self.run(|m, env| m.create(env, &name, functional_type, spec, 2, program, shared, node))
        }

        pub(crate) fn start(&mut self, id: InstanceId) -> Result<(), ComputeError> {
            self.run(|m, env| m.start(env, id))
        }

        pub(crate) fn stop(&mut self, id: InstanceId) -> Result<(), ComputeError> {
            self.run(|m, env| m.stop(env, id))
        }

        pub(crate) fn destroy(&mut self, id: InstanceId) -> Result<(), ComputeError> {
            self.run(|m, env| m.destroy(env, id))
        }

        pub(crate) fn deliver(
            &mut self,
            id: InstanceId,
            frames: Vec<(u32, Packet)>,
        ) -> Vec<IoOutcome> {
            self.run(|m, env| m.deliver_batch(env, id, frames))
        }

        /// A one-frame burst on `port` of instance `id`.
        pub(crate) fn deliver_one(
            &mut self,
            id: InstanceId,
            port: u32,
            frame: Packet,
        ) -> IoOutcome {
            self.deliver(id, vec![(port, frame)]).remove(0)
        }

        pub(crate) fn ram(&self, id: InstanceId) -> u64 {
            self.mgr.ram_usage(&self.ledger, id)
        }

        /// The namespace instance `id` runs in.
        pub(crate) fn ns(&self, id: InstanceId) -> Option<NsId> {
            self.mgr.namespace_of(id)
        }

        /// The interface behind port `port` of instance `id`.
        pub(crate) fn port(&self, id: InstanceId, port: u32) -> Option<IfaceId> {
            self.mgr.port_iface(id, port)
        }

        pub(crate) fn bind(
            &mut self,
            id: InstanceId,
            b: &GraphBinding,
        ) -> Result<(), ComputeError> {
            self.run(|m, env| m.bind_graph(env, id, b))
        }

        pub(crate) fn unbind(
            &mut self,
            id: InstanceId,
            b: &GraphBinding,
        ) -> Result<(), ComputeError> {
            self.run(|m, env| m.unbind_graph(env, id, b))
        }

        /// Namespaces and interfaces on the host.
        pub(crate) fn residue(&self) -> (usize, usize) {
            (self.host.namespace_count(), self.host.iface_count())
        }
    }

    /// What `config` compiles to for a two-port `functional_type` NF: its
    /// command list, empty for a type without a program.
    pub(crate) fn program(
        functional_type: &str,
        config: &NfConfig,
    ) -> Result<Vec<NnfCommand>, NnfError> {
        let graph = NfFgBuilder::new("g", "one NF")
            .nf_with_config("nf", functional_type, 2, config.clone())
            .build();
        let mut programs = un_nnf::compile(&graph).map_err(|e| e.error)?;
        Ok(programs
            .remove("nf")
            .map_or_else(Vec::new, |c| c.commands.to_vec()))
    }

    /// The IPsec CPE's command list: [`ipsec_config`] compiled.
    pub(crate) fn ipsec() -> Vec<NnfCommand> {
        program("ipsec", &ipsec_config()).unwrap()
    }

    pub(crate) fn ipsec_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "192.0.2.2")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24")
    }

    /// DPDK's fast path's command list.
    pub(crate) fn l2fwd() -> Vec<NnfCommand> {
        program("l2fwd-fast", &NfConfig::default()).unwrap()
    }

    pub(crate) const NATIVE: &FlavorSpec = &FlavorSpec::Native;

    pub(crate) fn docker_spec(image: &str, process_rss: u64) -> FlavorSpec {
        FlavorSpec::Docker {
            image: image.into(),
            tag: "latest".into(),
            process_rss,
        }
    }

    pub(crate) fn vm_spec(image: &str) -> FlavorSpec {
        FlavorSpec::Vm {
            image: image.into(),
            vcpus: 1,
            mem_mb: 64,
        }
    }

    pub(crate) fn dpdk_spec(cores: u32, hugepages_mb: u64) -> FlavorSpec {
        FlavorSpec::Dpdk {
            cores,
            hugepages_mb,
        }
    }

    /// A valid Ethernet frame from `src` to `dst`.
    pub(crate) fn frame(src: MacAddr, dst: MacAddr, len: usize) -> Packet {
        let ip = PacketBuilder::new()
            .ethernet(src, dst)
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1000, 2000);
        let header = ip.clone().build().len();
        ip.payload(&vec![0x5A; len.saturating_sub(header)]).build()
    }

    /// The three flavors of Table 1, created through one manager, with
    /// the resource ordering the paper reports.
    #[test]
    fn three_flavors_resource_ordering() {
        let mut rig = Rig::new();
        let vm = FlavorSpec::Vm {
            image: "ipsec-vm".into(),
            vcpus: 1,
            mem_mb: 320,
        };
        let docker = FlavorSpec::Docker {
            image: "ipsec".into(),
            tag: "latest".into(),
            process_rss: mb_f(19.4) - mb_f(0.9), // plugin adds tooling RSS
        };
        let vm = rig.create("ipsec", &vm, &ipsec(), false).unwrap();
        let docker = rig.create("ipsec", &docker, &ipsec(), false).unwrap();
        let native = rig.create("ipsec", NATIVE, &ipsec(), false).unwrap();

        for id in [vm, docker, native] {
            rig.start(id).unwrap();
        }

        let (ram_vm, ram_docker, ram_native) = (rig.ram(vm), rig.ram(docker), rig.ram(native));
        assert!(ram_vm > ram_docker, "{ram_vm} vs {ram_docker}");
        assert!(ram_docker > ram_native, "{ram_docker} vs {ram_native}");

        assert_eq!(rig.mgr.image_footprint(vm), mb(522));
        assert_eq!(rig.mgr.image_footprint(docker), mb(240));
        assert_eq!(rig.mgr.image_footprint(native), mb(5));

        // Teardown.
        for id in [vm, docker, native] {
            rig.stop(id).unwrap();
            rig.destroy(id).unwrap();
        }
        assert!(rig.mgr.is_empty());
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
        let docker = docker_spec("img", mb(3));
        let dpdk = dpdk_spec(1, 256);
        assert_eq!(mgr.estimate_ram(&vm), mb(320) + mb_f(QEMU_OVERHEAD_MB));
        assert_eq!(mgr.estimate_ram(&docker), mb(3) + mb(25));
        assert_eq!(mgr.estimate_ram(&dpdk), mb(256));
        assert_eq!(mgr.estimate_ram(&FlavorSpec::Native), mb(24));
    }

    #[test]
    fn dpdk_flavor_through_manager() {
        let mut rig = Rig::new();
        let id = rig
            .create("l2fwd-fast", &dpdk_spec(1, 256), &l2fwd(), false)
            .unwrap();
        rig.start(id).unwrap();
        let io = rig.deliver_one(id, 0, frame(MacAddr::local(1), MacAddr::local(2), 128));
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(rig.mgr.flavor(id), Some(Flavor::Dpdk));
        assert_eq!(rig.ram(id), mb(256));
    }

    #[test]
    fn deliver_batch_matches_per_frame_semantics() {
        let mut rig = Rig::new();
        let id = rig
            .create("l2fwd-fast", &dpdk_spec(1, 256), &l2fwd(), false)
            .unwrap();
        rig.start(id).unwrap();
        let frames: Vec<(u32, Packet)> = (0..4)
            .map(|i| {
                let src = MacAddr::local(0x10 + i);
                (i % 2, frame(src, MacAddr::local(0x20 + i), 64))
            })
            .collect();
        let outs = rig.deliver(id, frames);
        assert_eq!(outs.len(), 4, "one outcome per input frame");
        for (i, io) in outs.iter().enumerate() {
            // l2fwd crosses ports 0<->1, charged per packet.
            assert_eq!(io.outputs[0].0, ((i as u32) % 2) ^ 1);
            assert_eq!(io.cost.as_nanos(), rig.costs.pmd_per_packet_ns);
        }
        // Unknown instances yield one default outcome per frame.
        let outs = rig.deliver(InstanceId(999), vec![(0, Packet::from_slice(&[0]))]);
        assert_eq!(outs.len(), 1);
        assert!(outs[0].outputs.is_empty());
    }

    #[test]
    fn destroy_guards_and_unknown_ids() {
        let mut rig = Rig::new();
        let id = rig.create("ipsec", NATIVE, &ipsec(), false).unwrap();
        rig.start(id).unwrap();
        assert!(matches!(rig.destroy(id), Err(ComputeError::BadState(_))));
        // A create the manager refuses keeps nothing: the singleton is
        // taken, and no account is left open for the newcomer.
        let accounts = rig.ledger.live_accounts();
        let busy = rig.create("ipsec", NATIVE, &ipsec(), false);
        assert!(matches!(busy, Err(ComputeError::NnfBusy(_))));
        assert_eq!(rig.ledger.live_accounts(), accounts);
        assert_eq!(rig.mgr.len(), 1);
        assert!(matches!(
            rig.start(InstanceId(999)),
            Err(ComputeError::NoSuchInstance(999))
        ));
    }

    /// Only a native instance is shared. A shared request for a Docker or
    /// VM spec of a sharable type is refused before anything is made.
    #[test]
    fn a_shared_instance_is_native() {
        let mut rig = Rig::new();
        let before = (rig.residue(), rig.ledger.live_accounts());
        let nat = rig.mgr.repository().resolve("nat").unwrap().clone();
        for flavor in [Flavor::Docker, Flavor::Vm] {
            let spec = nat.spec_for(flavor).unwrap().clone();
            assert!(
                matches!(
                    rig.create("nat", &spec, &[], true),
                    Err(ComputeError::Unsupported(_))
                ),
                "{flavor}"
            );
            assert_eq!((rig.residue(), rig.ledger.live_accounts()), before);
        }
        assert!(rig.mgr.is_empty());
        assert_eq!(rig.mgr.drivers().map(|d| d.instance_count()), [0; 4]);
    }

    /// A stopped instance does not restart: the manager refuses before the
    /// kernel sees anything, so the IPsec NNF's LAN port keeps the one
    /// address its start gave it.
    #[test]
    fn a_refused_restart_leaves_the_namespace_as_it_was() {
        let mut rig = Rig::new();
        let swan = rig.create("ipsec", NATIVE, &ipsec(), false).unwrap();
        rig.start(swan).unwrap();
        rig.stop(swan).unwrap();
        assert_eq!(
            rig.start(swan),
            Err(ComputeError::BadState(
                "a stopped instance does not restart"
            ))
        );
        let port0 = rig.mgr.port_iface(swan, 0).unwrap();
        let lan: un_packet::Ipv4Cidr = "192.168.1.1/24".parse().unwrap();
        assert_eq!(rig.host.iface(port0).unwrap().addrs, [lan]);
        assert_eq!(rig.ram(swan), 0);
        rig.destroy(swan).unwrap();
    }
}
