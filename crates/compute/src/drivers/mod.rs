//! The management drivers (Figure 1: "Management drivers") and the
//! abstraction all of them implement: [`ComputeDriver`].

pub mod docker;
pub mod dpdk;
pub mod native;
mod sandbox;
pub mod vm;

pub use docker::DockerDriver;
pub use dpdk::DpdkDriver;
pub use native::NativeDriver;
pub use vm::VmDriver;

use std::collections::HashMap;

use un_linux::{Host, IfaceId, NsId};
use un_nnf::{GraphBinding, NnfCommand, NnfDescriptor};
use un_packet::Packet;
use un_sim::{AccountId, CostModel, MemLedger};

use crate::types::{ComputeError, Crossing, FlavorSpec, InstanceId, IoOutcome};

/// Mutable node-level state every compute call threads through.
pub struct NodeEnv<'a> {
    /// The CPE's kernel (a namespace per native, Docker or VM NF).
    pub host: &'a mut Host,
    /// Memory accounting.
    pub ledger: &'a mut MemLedger,
    /// Cost model for data-path charging.
    pub costs: &'a CostModel,
}

/// One NF to realize: what the compute manager hands the driver of
/// `spec`'s technology, with the NF's compiled command list, never its
/// config.
#[derive(Debug, Clone, Copy)]
pub struct CreateRequest<'a> {
    /// The node-unique id the instance will answer to.
    pub id: InstanceId,
    /// The ledger account opened for the instance's memory.
    pub account: AccountId,
    /// Instance name.
    pub name: &'a str,
    /// Functional type, e.g. `"ipsec"`.
    pub functional_type: &'a str,
    /// The repository entry to realize.
    pub spec: &'a FlavorSpec,
    /// Ports the graph wires.
    pub n_ports: usize,
    /// What the NF's config compiled to; a shared instance runs its
    /// attachment program instead.
    pub program: &'a [NnfCommand],
    /// The type's native descriptor from the repository, when it has
    /// one: the native, Docker and VM drivers build the NF's
    /// [`NnfInstance`](un_nnf::NnfInstance) from it, and refuse a type
    /// without one.
    pub nf: Option<&'a NnfDescriptor>,
    /// Ask for a shared instance, which graphs bind to: refused for a
    /// type not sharable, and Docker and VM instances are dedicated.
    pub shared: bool,
}

/// "All the above drivers must implement a specific abstraction defined
/// by the local orchestrator" (§2) — this one. A driver is the node's
/// handle on one execution technology (a hypervisor, a container
/// engine, the host's native NFs), not on one instance: it keeps its
/// own record per [`InstanceId`] and answers every call from that.
pub trait ComputeDriver {
    /// The driver's name in the architecture diagram.
    fn label(&self) -> &'static str;

    /// Define an instance; it does not run yet.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<(), ComputeError>;

    /// Start a created or stopped instance.
    fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError>;

    /// Stop a running instance.
    fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError>;

    /// Remove an instance that does not run, with everything it held
    /// on the host.
    fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError>;

    /// The data path: hand a burst of `(port, frame)`s to one
    /// instance, draining `frames` into `out` — every output, and per
    /// input frame, in order, where its outputs end and its cost. A
    /// frame for an unknown instance or port ends with no output at no
    /// cost.
    fn deliver_into(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: &mut Vec<(u32, Packet)>,
        out: &mut Crossing,
    );

    /// [`deliver_into`](Self::deliver_into) in owning form: one
    /// [`IoOutcome`] per input frame, in order.
    fn deliver_batch(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        mut frames: Vec<(u32, Packet)>,
    ) -> Vec<IoOutcome> {
        let mut out = Crossing::default();
        self.deliver_into(env, id, &mut frames, &mut out);
        out.into_outcomes()
    }

    /// Size of the image the instance runs from (Table 1's image
    /// column); 0 for an unknown instance.
    fn image_footprint(&self, id: InstanceId) -> u64;

    /// RAM an instance of `spec` would take once running (a scheduler
    /// estimate; admission happens at deploy time).
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64;

    /// Instances this driver holds.
    fn instance_count(&self) -> usize;

    /// The host namespace the instance's NF runs in, for the
    /// technologies that configure one. A VM's guest kernel is a
    /// namespace of the node's host too, so the host's counters see its
    /// drops; like every host counter, they are host-wide.
    fn namespace_of(&self, _id: InstanceId) -> Option<NsId> {
        None
    }

    /// The host interface behind an instance port, where there is one.
    fn port_iface(&self, _id: InstanceId, _port: u32) -> Option<IfaceId> {
        None
    }

    /// Attach a service graph to an instance created `shared`.
    fn bind_graph(
        &mut self,
        _env: &mut NodeEnv<'_>,
        _id: InstanceId,
        _binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        Err(ComputeError::Unsupported("not a sharable instance".into()))
    }

    /// Detach a binding made with [`bind_graph`](Self::bind_graph).
    fn unbind_graph(
        &mut self,
        _env: &mut NodeEnv<'_>,
        _id: InstanceId,
        _binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        Err(ComputeError::Unsupported("not a sharable instance".into()))
    }
}

/// A driver's record of instance `id`.
fn record<T>(table: &mut HashMap<InstanceId, T>, id: InstanceId) -> Result<&mut T, ComputeError> {
    table.get_mut(&id).ok_or(ComputeError::NoSuchInstance(id.0))
}

fn substrate(e: impl std::fmt::Display) -> ComputeError {
    ComputeError::Substrate(e.to_string())
}

/// The refusal of a request for another technology's spec.
fn foreign(spec: &FlavorSpec) -> ComputeError {
    ComputeError::Unsupported(format!("a {} spec at another driver", spec.flavor()))
}

#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use un_nffg::{NfConfig, NfFgBuilder};
    use un_nnf::NnfError;

    /// A host, ledger and cost model to drive one driver against.
    pub struct Rig {
        pub host: Host,
        pub ledger: MemLedger,
        pub costs: CostModel,
    }

    impl Rig {
        pub fn new() -> Self {
            Rig {
                host: Host::new("cpe", CostModel::default()),
                ledger: MemLedger::new(),
                costs: CostModel::default(),
            }
        }

        pub fn env(&mut self) -> NodeEnv<'_> {
            NodeEnv {
                host: &mut self.host,
                ledger: &mut self.ledger,
                costs: &self.costs,
            }
        }

        /// Open an account and ask `driver` for a two-port instance
        /// `id`, named `nf<id>`, described as the standard repository
        /// describes its type, to run `program`.
        pub fn create(
            &mut self,
            driver: &mut dyn ComputeDriver,
            id: u64,
            functional_type: &str,
            spec: &FlavorSpec,
            program: &[NnfCommand],
            shared: bool,
        ) -> Result<AccountId, ComputeError> {
            let name = format!("nf{id}");
            let account = self.ledger.create_account(&name, None);
            let repository = crate::Repository::standard();
            let req = CreateRequest {
                id: InstanceId(id),
                account,
                name: &name,
                functional_type,
                spec,
                n_ports: 2,
                program,
                nf: repository.nnf(functional_type),
                shared,
            };
            driver.create(&mut self.env(), &req).map(|()| account)
        }
    }

    /// What `config` compiles to for a two-port `functional_type` NF:
    /// its command list, empty for a type without a program.
    pub fn program(functional_type: &str, config: &NfConfig) -> Result<Vec<NnfCommand>, NnfError> {
        let graph = NfFgBuilder::new("g", "one NF")
            .nf_with_config("nf", functional_type, 2, config.clone())
            .build();
        let mut programs = un_nnf::compile(&graph).map_err(|e| e.error)?;
        Ok(programs
            .remove("nf")
            .map_or_else(Vec::new, |c| c.commands.to_vec()))
    }

    /// The IPsec CPE's command list: [`ipsec_config`] compiled.
    pub fn ipsec() -> Vec<NnfCommand> {
        program("ipsec", &ipsec_config()).unwrap()
    }

    pub fn ipsec_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "192.0.2.2")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24")
    }
}
