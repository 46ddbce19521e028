//! The management drivers (Figure 1: "Management drivers") and the
//! abstraction all of them implement: [`ComputeDriver`].
//!
//! A driver is its technology's packaging around an instance, never the
//! NF inside it: every flavor runs the NF's own
//! [`NnfInstance`](un_nnf::NnfInstance) in a sandbox the compute manager
//! owns, and the driver adds what its technology wraps around that
//! sandbox — a container, a guest, pinned cores and hugepages, or, for a
//! native NF, nothing. What a driver keeps of one instance is its
//! [`Packaging`] handle, which the manager's table holds.

pub mod docker;
pub mod dpdk;
pub mod native;
pub(crate) mod sandbox;
pub mod vm;

pub use docker::DockerDriver;
pub use dpdk::DpdkDriver;
pub use native::NativeDriver;
pub use vm::VmDriver;

use un_container::ContainerId;
use un_hypervisor::VmId;
use un_linux::{Host, NsId};
use un_nnf::NnfDescriptor;
use un_sim::{AccountId, CostModel, MemLedger};

use crate::types::{ComputeError, FlavorSpec};

/// Mutable node-level state every compute call threads through.
pub struct NodeEnv<'a> {
    /// The CPE's kernel (a namespace per NF, whatever its flavor).
    pub host: &'a mut Host,
    /// Memory accounting.
    pub ledger: &'a mut MemLedger,
    /// Cost model for data-path charging.
    pub costs: &'a CostModel,
}

/// One instance to package: what the compute manager hands the driver
/// of `spec`'s technology once the instance's sandbox exists.
#[derive(Debug, Clone, Copy)]
pub struct CreateRequest<'a> {
    /// The ledger account opened for the instance's memory.
    pub account: AccountId,
    /// Instance name.
    pub name: &'a str,
    /// The repository entry to realize.
    pub spec: &'a FlavorSpec,
    /// Ports the sandbox has.
    pub n_ports: usize,
    /// The sandbox's namespace: what a container joins.
    pub ns: NsId,
}

/// What a flavor keeps of one instance: the handle its driver packages
/// the instance's sandbox by.
#[derive(Debug)]
pub enum Packaging {
    /// A native NF runs bare in its namespace.
    Native,
    /// A container around the namespace.
    Docker(ContainerId),
    /// A guest whose kernel is the namespace.
    Vm {
        /// The hypervisor's VM.
        vm: VmId,
        /// The guest's own books: what its NF allocates is guest RAM,
        /// which the node's ledger already holds.
        guest: MemLedger,
        /// The NF's account in `guest`.
        account: AccountId,
    },
    /// A poll-mode process.
    Dpdk {
        /// Cores it pins while it runs.
        cores: u32,
        /// Hugepage memory it maps while it runs, in MB.
        hugepages_mb: u64,
        /// The account its hugepages are booked on.
        account: AccountId,
    },
}

impl Packaging {
    /// The ledger and account the instance's NF books its memory on: a
    /// guest's own books, or the node's under `account`.
    pub(crate) fn books<'a>(
        &'a mut self,
        node: &'a mut MemLedger,
        account: AccountId,
    ) -> (&'a mut MemLedger, AccountId) {
        match self {
            Packaging::Vm { guest, account, .. } => (guest, *account),
            _ => (node, account),
        }
    }
}

/// "All the above drivers must implement a specific abstraction defined
/// by the local orchestrator" (§2) — this one. A driver is the node's
/// handle on one execution technology (a hypervisor, a container
/// engine, a poll-mode runtime, the host itself): the lifecycle of its
/// packaging and what that packaging costs. The compute manager keeps
/// the instance table, the lifecycle state and the data path, and calls
/// a driver only in order: `create`, `start`, `stop`, `destroy`.
pub trait ComputeDriver {
    /// The driver's name in the architecture diagram.
    fn label(&self) -> &'static str;

    /// Package an instance around its sandbox; it does not run yet.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<Packaging, ComputeError>;

    /// Bring the packaging up, before the NF inside it starts.
    fn start(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError>;

    /// Bring the packaging down, after the NF inside it stopped.
    fn stop(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError>;

    /// Remove the packaging of an instance that does not run.
    fn destroy(&mut self, packaging: &Packaging) -> Result<(), ComputeError>;

    /// Size of the image an instance of `spec`, built from `nf`, runs
    /// from (Table 1's image column).
    fn image_footprint(&self, spec: &FlavorSpec, nf: &NnfDescriptor) -> u64;

    /// RAM an instance of `spec` would take once running (a scheduler
    /// estimate; admission happens at deploy time).
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64;

    /// Instances this driver packages.
    fn instance_count(&self) -> usize;
}

fn substrate(e: impl std::fmt::Display) -> ComputeError {
    ComputeError::Substrate(e.to_string())
}

/// The refusal of a request for another technology's spec.
fn foreign(spec: &FlavorSpec) -> ComputeError {
    ComputeError::Unsupported(format!("a {} spec at another driver", spec.flavor()))
}

/// The refusal of another technology's handle.
fn foreign_handle() -> ComputeError {
    ComputeError::BadState("another driver's instance")
}
