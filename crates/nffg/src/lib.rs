//! # un-nffg — the Network Functions Forwarding Graph
//!
//! The NF-FG is the deployment request the local orchestrator receives
//! (paper §2, Figure 1): a set of **network functions** (each identified
//! by a *functional type* such as `"ipsec"` or `"firewall"`, with named
//! ports), a set of **endpoints** (where traffic enters/leaves the graph:
//! a physical interface, a VLAN on an interface, …) and a set of
//! **flow rules** over a "big switch" abstraction that steer traffic
//! between endpoints and NF ports.
//!
//! The orchestrator (`un-core`) compiles the big-switch rules into
//! concrete flow entries on the per-graph LSI, chooses an execution
//! flavor for every NF (VM / Docker / DPDK / **native**), and wires
//! virtual links. This crate is pure data: model ([`model`]), JSON wire
//! format compatible in spirit with the original un-orchestrator schema
//! ([`json`]), static validation ([`mod@validate`]), structural diffing for
//! incremental updates ([`mod@diff`]) and an ergonomic builder ([`builder`]).

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod builder;
pub mod diff;
pub mod json;
pub mod jsonval;
pub mod model;
pub mod validate;

pub use builder::NfFgBuilder;
pub use diff::{diff, GraphDiff};
pub use json::{from_json, to_json, to_json_pretty};
pub use jsonval::{Json, JsonError};
pub use model::{
    Endpoint, EndpointKind, FlowRule, NetworkFunction, NfConfig, NfFg, NfPort, PortRef, RuleAction,
    TrafficMatch,
};
pub use validate::{validate, ValidationError};
