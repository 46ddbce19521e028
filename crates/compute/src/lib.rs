//! # un-compute — the compute manager and its management drivers
//!
//! Figure 1 of the paper: "VNFs are instantiated and managed by a
//! compute manager through ad-hoc drivers matching the specific VNF
//! support technology (e.g., VM, Docker, DPDK process) … all the above
//! drivers must implement a specific abstraction defined by the local
//! orchestrator, which enables multiple drivers to coexist."
//!
//! A flavor is packaging plus a boundary around one instance. Every NF,
//! whatever its flavor, is its type's [`un_nnf::NnfInstance`] running
//! its compiled command list in a sandbox — a namespace of the node's
//! host with the ports the graph wires — and the technology only wraps
//! that sandbox.
//!
//! * [`manager`] — the compute manager: the node's one instance table
//!   (name, type, flavor, account, the instance's sandbox and its
//!   packaging handle), the lifecycle every instance follows (created →
//!   running → stopped → destroyed), and the one data path: per frame,
//!   the sandbox inside the flavor's boundary.
//! * [`ComputeDriver`] — the abstraction of §2, shrunk to what differs
//!   per technology: the lifecycle of its packaging (create / start /
//!   stop / destroy of a container, a guest, a pinned process) and its
//!   footprint (image size, RAM estimate), with a [`CreateRequest`] and
//!   a [`NodeEnv`] as its vocabulary and a [`drivers::Packaging`] handle
//!   as what it keeps of an instance.
//! * [`drivers`] — its four implementations:
//!   * [`drivers::VmDriver`] — KVM/QEMU via `un-hypervisor`: the guest
//!     kernel is the sandbox, behind the virtio boundary — which is
//!     exactly what Table 1's VM row pays for;
//!   * [`drivers::DockerDriver`] — containers via `un-container`, joined
//!     to the sandbox's namespace (which is exactly why Docker matches
//!     native throughput in Table 1);
//!   * [`drivers::DpdkDriver`] — poll-mode userspace processes: pinned
//!     cores and hugepages, and the PMD's per-packet cost in place of
//!     the kernel's;
//!   * [`drivers::NativeDriver`] — the paper's contribution: the sandbox
//!     with nothing around it.
//! * [`repository`] — the node's one list of network functions: a row
//!   per functional type with the [`un_nnf::NnfDescriptor`] its
//!   instances are built from, every implementation it is offered in
//!   (native among them) and the package its images are built from.
//!   The manager owns it and provisions the drivers' image stores from
//!   it.
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
