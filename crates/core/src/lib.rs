//! # un-core — the local orchestrator (the paper's compute node)
//!
//! This crate assembles the whole compute node of Figure 1:
//!
//! ```text
//!                   Local Orchestrator  ←  NF-FG (REST / API)
//!        ┌─────────────┬────────────────┬──────────────┐
//!   VNF repository   VNF scheduler   Traffic steering   Resource mgr
//!   (resolver)       (NNF vs VNF)    (LSI-0 + LSIs)    (admission)
//!        └─────────────┴───────┬────────┴──────────────┘
//!                       Compute manager
//!        VM drv │ Docker drv │ DPDK drv │ **Native drv**
//! ```
//!
//! * [`placement`] — the paper's placement policy over one row of the
//!   compute manager's repository (`un_compute::Repository`, which lists
//!   every implementation of a functional type, native included): prefer
//!   the NNF when the row has one and it is free / multi-instance /
//!   sharable; fall back to Docker, then VM; honor explicit flavor hints.
//! * [`node`] — [`node::UniversalNode`]: the CPE kernel (`un-linux`),
//!   the compute manager, LSI-0 and per-graph LSIs, virtual links, NF-FG
//!   deploy / update / undeploy, the synchronous packet fabric, resource
//!   admission, and the Figure 1 architecture description.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod node;
pub mod placement;

pub use node::{
    graph_cookie, rule_cookie, DeployError, DeployReport, Name, NodeDescription, NodeIo, PortId,
    UniversalNode,
};
pub use placement::{decide, Decision};
/// The NF config compiler and what it makes, for the layers above the
/// node (the domain's planner compiles before its first node call).
pub use un_nnf::{compile, CompileError, NnfError, Programs};
