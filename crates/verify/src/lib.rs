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
//!    it, and no `GotoTable` jumps into a missing table.
//! 4. **Shadowed/dead rules** — a rule whose match region is fully
//!    covered by higher-priority rules can never fire; it is reported
//!    together with the covering set (see [`region`]).
//! 5. **Ledger consistency** — the typed vid pool partitions exactly
//!    into free ∪ in-use ∪ standby-reserved, every vid referenced by
//!    an installed push/set-VLAN action is accounted for, and every
//!    shared-NNF lease points at a live, serving host.
//!
//! The input is a plain-data [`Snapshot`] so the checker is decoupled
//! from the orchestrator: `un-domain` builds snapshots from live
//! state, tests build corrupted ones by hand, and both run through the
//! same [`check::run`] entry point producing a [`VerifyReport`].

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod check;
pub mod region;
pub mod snapshot;

pub use check::{run, VerifyReport, Violation};
pub use region::{provably_disjoint, shadowed_rules, Region};
pub use snapshot::Snapshot;
