//! # un-nnf — Native Network Functions
//!
//! The paper's contribution: expose the network functions a Linux CPE
//! *already ships with* (iptables, linuxbridge, kernel IPsec, policy
//! routing) through the NFV platform, so the orchestrator can deploy
//! them interchangeably with VM/Docker/DPDK VNFs.
//!
//! An NNF is its descriptor and its command list:
//!
//! * [`plugin`] — [`NnfDescriptor`], a type's characteristics
//!   (sharable? package size? daemon RSS? ports?), which the orchestrator
//!   consults when deciding NNF-vs-VNF placement; the node's repository
//!   (`un_compute::Repository`) holds one per native type. And
//!   [`NnfInstance`], built from a descriptor, the Rust equivalent of the
//!   paper's "collection of bash scripts that control the basic
//!   lifecycle (create, update, etc.)": start runs the NF's compiled
//!   command list in the NNF's namespace through [`plugins::execute`]
//!   and books its RSS; stop undoes it. An update is a fresh start from
//!   the new config's list (see [`NnfInstance`]).
//! * [`mod@translate`] — the generic-config → per-NNF-commands translation
//!   the paper leaves as future work, implemented here as an extension:
//!   the one reader of an NF's config. [`compile`] turns a whole graph's
//!   configs into command lists once, before anything is built for it
//!   (its module docs give the mapping); it holds the one map from a
//!   type's name to its program.
//! * [`adaptation`] — the paper's *adaptation layer* for sharable NNFs
//!   attached through a single port, the record of who rides one. Each
//!   binding is a compiled list, [`binding_program`]: per-graph marked
//!   VLAN sub-interfaces, a per-graph routing table ("multiple internal
//!   paths") and the NAT program a dedicated NAT runs too.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod adaptation;
pub mod plugin;
pub mod plugins;
pub mod translate;

pub use adaptation::AdaptationLayer;
pub use plugin::{GraphBinding, NnfContext, NnfDescriptor, NnfError, NnfInstance};
pub use translate::{
    binding_program, compile, CompileError, CompiledNf, NatBinding, NnfCommand, Programs,
};
