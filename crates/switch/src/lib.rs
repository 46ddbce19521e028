//! # un-switch — Logical Switch Instances (LSIs)
//!
//! The compute node of the paper steers traffic with software switches:
//! one **base LSI (LSI-0)** classifies node ingress traffic and hands it
//! to the **per-graph LSIs**, each of which forwards between the NFs of
//! one service graph. Every LSI is programmed through an OpenFlow-style
//! interface by its own controller.
//!
//! This crate implements that switching layer:
//!
//! * [`flow`] — typed flow matches (with CIDR/VLAN wildcards), actions
//!   (output, VLAN push/pop/set, fwmark, goto-table) and flow entries
//!   with statistics.
//! * [`key`] — one-pass packet header extraction into a
//!   [`key::PacketKey`], the equivalent of OvS's miniflow, and its
//!   packing into the five words ([`key::PackedKey`]) the classifier
//!   hashes, masks and compares.
//! * [`table`] — a priority-ordered flow table fronted by a two-stage
//!   fast path: a generation-stamped microflow cache keyed by the bits
//!   the table's rules read (the OvS fast path) plus one hash table per
//!   distinct match mask.
//! * [`lsi`] — the switch itself: ports, a pipeline of one or more
//!   tables, per-port and per-switch counters, controller punts.
//!   Two pipeline personalities mirror the paper's driver diversity:
//!   [`lsi::Backend::SingleTableCached`] (OvS-like) and
//!   [`lsi::Backend::MultiTable`] (xDPd-like).
//! * [`controller`] — the OpenFlow-ish controller trait plus a MAC
//!   learning controller used by LSI-0 in several examples.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod controller;
pub mod flow;
pub mod key;
pub mod lsi;
pub mod table;

pub use controller::{Controller, ControllerCmd, LearningController};
pub use flow::{CompiledMatch, FlowAction, FlowEntry, FlowMatch, VlanSpec};
pub use key::{PackedKey, PacketKey};
pub use lsi::{
    Backend, LogicalSwitch, PipelineStep, PortNo, ProcessOptions, ProcessResult, Processed,
    SwitchStats,
};
pub use table::{FlowTable, LookupHit, LookupPath, TableStats};
