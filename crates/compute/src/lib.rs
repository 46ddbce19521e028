//! # un-compute — the compute manager and its management drivers
//!
//! Figure 1 of the paper: "VNFs are instantiated and managed by a
//! compute manager through ad-hoc drivers matching the specific VNF
//! support technology (e.g., VM, Docker, DPDK process) … all the above
//! drivers must implement a specific abstraction defined by the local
//! orchestrator, which enables multiple drivers to coexist."
//!
//! * [`ComputeDriver`] — that abstraction: create / start / stop /
//!   destroy, deliver a burst, and what the orchestrator may ask of any
//!   technology (image footprint, RAM estimate, where an instance's
//!   ports are), with a [`CreateRequest`] and a [`NodeEnv`] as its
//!   vocabulary.
//! * [`drivers`] — its four implementations:
//!   * [`drivers::VmDriver`] — KVM/QEMU via `un-hypervisor`: the guest
//!     kernel runs the same NNF instance as native, behind the virtio
//!     boundary — which is exactly what Table 1's VM row pays for;
//!   * [`drivers::DockerDriver`] — containers via `un-container`
//!     (kernel state configured by the same NNF instances as native —
//!     which is exactly why Docker matches native throughput in Table 1);
//!   * [`drivers::DpdkDriver`] — poll-mode userspace processes (fast,
//!     but each instance pins a core);
//!   * [`drivers::NativeDriver`] — the paper's contribution: NNFs via
//!     `un-nnf` instances, namespaces and the adaptation layer.
//! * [`manager`] — the compute manager: the flavor-independent instance
//!   table; every per-instance call goes to the instance's driver
//!   through the trait, and a create carries the native descriptor from
//!   the repository.
//! * [`repository`] — the node's one list of network functions: a row
//!   per functional type with every implementation it is offered in
//!   (the native one as its [`un_nnf::NnfDescriptor`]) and the package
//!   its images are built from. The manager owns it and provisions the
//!   drivers' image stores from it.
//! * [`types`] — the data both speak in: [`Flavor`], [`FlavorSpec`],
//!   instance ids, a burst's [`Crossing`] and the owning
//!   deliver-a-packet result, errors.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod drivers;
pub mod manager;
pub mod repository;
pub mod types;

pub use drivers::{ComputeDriver, CreateRequest, NodeEnv};
pub use manager::ComputeManager;
pub use repository::{NfType, Repository};
pub use types::{ComputeError, Crossing, Flavor, FlavorSpec, InstanceId, IoOutcome};
