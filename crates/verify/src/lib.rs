//! # un-verify — static network-state verification
//!
//! Veriflow/HSA-style analysis over a [`Snapshot`] of domain state:
//! every node's installed flow tables, the overlay links and transit
//! rules the partitioner synthesized, and the NF boundary ports of
//! each deployed graph are compiled into a port-graph of header
//! equivalence classes, then checked for:
//!
//! 1. **Reachability** — every endpoint-to-endpoint path the original
//!    (unpartitioned) NF-FG admits is still admitted by the installed
//!    parts + overlay links, and nothing *extra* appears.
//! 2. **Loop-freedom** — no equivalence class can cycle through the
//!    port graph, and no transit path revisits a node.
//! 3. **Blackhole-freedom** — no rule outputs toward a port, NF, or
//!    overlay endpoint that does not exist or has no live link behind
//!    it.
//! 4. **Shadowed/dead rules** — a rule whose match region is fully
//!    covered by higher-priority rules can never fire; it is reported
//!    together with the covering set (see [`region`]).
//! 5. **Ledger consistency** — the typed vid pool partitions exactly
//!    into free ∪ in-use ∪ standby-reserved, every vid referenced by
//!    an installed VLAN push is accounted for, and every
//!    shared-NNF lease points at a live, serving host.
//!
//! The input is a plain-data [`Snapshot`] so the checker is decoupled
//! from the orchestrator: `un-domain` builds snapshots from live
//! state, tests build corrupted ones by hand, and both run through the
//! same [`check::run`] entry point producing a [`VerifyReport`].
//!
//! A table is audited per traffic class
//! ([`un_switch::TrafficClass`], the `(in_port, VLAN)` an entry pins):
//! [`check::audit_table`] judges the entries of the classes it is told
//! to, over a table that lists those entries and every entry whose
//! class meets theirs, each at its position in the whole table
//! ([`snapshot::TableState::at`]). Entries of classes that do not meet
//! accept no common frame, so a class's audit says about it exactly
//! what an audit of the whole table says — which lets an incremental
//! caller re-audit only the classes a change touched and keep the rest.
//! The domain's incremental pass audits every LSI that way, LSI-0 and
//! each graph's alike, reading each table's own record of the classes
//! its writes touched. [`check::audit_lsi`] is the same audit with every
//! class judged: the reference [`check::run`] audits a whole snapshot
//! with.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod check;
pub mod region;
pub mod snapshot;

pub use check::{run, VerifyReport, Violation};
pub use region::{provably_disjoint, shadowed_rules, shadowed_rules_in, Region};
pub use snapshot::Snapshot;
