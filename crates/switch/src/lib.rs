//! # un-switch — Logical Switch Instances (LSIs)
//!
//! The compute node of the paper steers traffic with software switches:
//! one **base LSI (LSI-0)** classifies node ingress traffic and hands it
//! to the **per-graph LSIs**, each of which forwards between the NFs of
//! one service graph. The node's orchestrator programs every LSI
//! proactively from the NF-FG; there is no controller and no packet-in.
//!
//! This crate implements exactly the switch the node programs:
//!
//! * [`flow`] — typed flow matches (with CIDR/VLAN wildcards), the four
//!   actions an NF-FG compiles to (output, VLAN push, VLAN pop, fwmark)
//!   and flow entries with statistics.
//! * [`key`] — the five words ([`key::PackedKey`]) the classifier
//!   hashes, masks and compares, the equivalent of OvS's miniflow,
//!   extracted from a frame only as deep as its table's rules read; the
//!   field-by-field [`key::PacketKey`] is the reference.
//! * [`table`] — a priority-ordered flow table fronted by a two-stage
//!   fast path: a generation-stamped microflow cache keyed by the bits
//!   the table's rules read (the OvS fast path) plus one hash table per
//!   distinct match mask, with a one-entry memo of the last class
//!   resolved in front of both.
//! * [`lsi`] — the switch itself: ports, one table, per-port and
//!   per-switch counters.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod flow;
pub mod key;
pub mod lsi;
pub mod table;

pub use flow::{
    ClassVlan, CompiledMatch, FlowAction, FlowEntry, FlowMatch, TrafficClass, VlanSpec,
};
pub use key::{PackedKey, PacketKey};
pub use lsi::{
    Backend, LogicalSwitch, PipelineStep, PortNo, ProcessOptions, ProcessResult, Processed,
    SwitchStats,
};
pub use table::{FlowTable, LookupHit, LookupPath, TableStats};
