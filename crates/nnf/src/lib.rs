//! # un-nnf — Native Network Functions
//!
//! The paper's contribution: expose the network functions a Linux CPE
//! *already ships with* (iptables, linuxbridge, kernel IPsec, policy
//! routing) through the NFV platform, so the orchestrator can deploy
//! them interchangeably with VM/Docker/DPDK VNFs.
//!
//! * [`plugin`] — the NNF plugin abstraction: the Rust equivalent of the
//!   paper's "collection of bash scripts that control the basic
//!   lifecycle (create, update, etc.)" per native function.
//! * [`catalog`] — the node's NNF catalogue with per-function
//!   characteristics (sharable? package size? daemon RSS?), which the
//!   orchestrator consults when deciding NNF-vs-VNF placement.
//! * [`plugins`] — concrete NNFs: IPsec (kernel XFRM configured by a
//!   strongSwan-like static config), firewall (iptables), NAT
//!   (MASQUERADE + conntrack zones), linuxbridge, and a static router.
//! * [`adaptation`] — the paper's *adaptation layer* for sharable NNFs
//!   attached through a single port: per-graph VLAN sub-interfaces whose
//!   ingress traffic is marked (fwmark + conntrack zone) and whose
//!   egress is re-tagged, plus per-graph routing tables ("multiple
//!   internal paths").
//! * [`mod@translate`] — the generic-config → per-NNF-commands translation
//!   the paper leaves as future work, implemented here as an extension
//!   (its module docs give the mapping).

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod adaptation;
pub mod catalog;
pub mod plugin;
pub mod plugins;
pub mod translate;

pub use adaptation::AdaptationLayer;
pub use catalog::{NnfCatalog, NnfDescriptor};
pub use plugin::{GraphBinding, NnfContext, NnfError, NnfPlugin};
pub use translate::{translate, NnfCommand, TranslateError};
