//! # un-domain — the domain orchestrator above the Universal Nodes
//!
//! The paper's Universal Node is one CPE; its Figure 1 architecture
//! explicitly sits *under* an overarching orchestrator that dispatches
//! NF-FGs to many nodes. This crate is that layer:
//!
//! ```text
//!                       Domain Orchestrator  ←  NF-FG (cluster REST)
//!        ┌──────────────────┬──────────────────┬────────────────┐
//!   Fleet registry     Global placement    Graph partitioner   Overlay mgr
//!   (views, health)    (bin-pack + NNF     (per-node parts +   (VLAN wires,
//!                       preference)         cut-edge synth)     opt. ESP)
//!        └──────────────────┴────────┬─────────┴────────────────┘
//!              UniversalNode #1 │ UniversalNode #2 │ … │ #N
//! ```
//!
//! * [`placement`] — the fleet-level scheduler: assign every NF of a
//!   graph to a node, respecting per-node NNF catalogs, memory
//!   admission estimates, and sharable-NNF reuse; bin-packing (`Pack`)
//!   or load-spreading (`Spread`).
//! * [`mod@partition`] — pure graph surgery: split one NF-FG into per-node
//!   sub-graphs and synthesize endpoint pairs for every cut edge.
//!   Reassembly ([`partition::reassemble`]) is the exact inverse,
//!   which the property tests exploit.
//! * [`sharing`] — the domain-wide sharable-NNF registry: one native
//!   instance per share key serving tenant graphs across the whole
//!   fleet, with explicit per-graph leases, a host elected where the
//!   instance is first demanded, and host re-election on failure.
//! * [`topology`] — the fabric: an explicit node-adjacency graph
//!   ([`topology::Topology`], per-edge latency/capacity, full mesh by
//!   default) with a deterministic Dijkstra path engine. Overlay links
//!   between non-adjacent nodes ride pinned multi-hop paths with
//!   transit rules on the intermediate nodes.
//! * [`domain`] — [`domain::Domain`]: owns the fleet, deploys /
//!   updates / undeploys partitioned graphs, shuttles frames across
//!   **inter-node overlay links** (VLAN-tagged virtual wires on a
//!   dedicated fabric port, routed hop-by-hop over the fabric
//!   topology; optionally ESP-protected via `un-ipsec` — sealed once at
//!   the link's head, opened once at its tail, ciphertext to every
//!   transit node in between), detects node
//!   failures and re-places the lost partitions — rerouting overlay
//!   paths that traversed the casualty.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod domain;
pub mod partition;
pub mod placement;
pub mod sharing;
pub mod standby;
pub mod topology;
mod wire;

pub use domain::{
    ConservationReport, DeployHints, Domain, DomainConfig, DomainError, DomainIo, DomainReport,
    LinkReport, NodeHealth, ProbeSpec, RepairOutcome, RepairPolicy, ReplacementReport,
};
pub use partition::{
    install_transit, partition, reassemble, OverlayLink, Partition, PartitionError,
};
pub use placement::{assign, assign_endpoints, NodeView, PlaceError, PlacementStrategy};
pub use sharing::{ShareKey, SharedClaim, SharedInstance, SharingConfig, SharingError};
pub use standby::{
    AvailabilityReport, GraphAvailability, GraphPrediction, RepairCalibration, RepairKind,
    DEFAULT_REPAIR_NS, FLOW_ENTRY_CHARGE, NODE_CALL_CHARGE, PLAN_CHARGE,
};
pub use topology::{EdgeAttrs, Topology};
