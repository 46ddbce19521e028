//! Make-before-break standby plans and the availability model.
//!
//! Reactive repair pays full plan + partition + install latency as
//! downtime. The `Suspect` grace window is an early-warning signal:
//! while a node is merely suspect, [`crate::Domain`] pre-computes a
//! **standby plan** per affected graph — placement with survivors
//! pinned, overlay vids pre-reserved from the pool, transit routes
//! pre-solved — so grace expiry (or an explicit `fail_node`) becomes a
//! *swap*: the pre-staged parts install directly, skipping the whole
//! planning phase. A late heartbeat or `recover_node` discards the
//! standby and returns its vids to the pool, keeping the vid
//! conservation invariant intact. Shared-NNF replicas the suspect
//! hosts get a standby *host* pre-elected the same way, so
//! registry-level re-election at failure time is a promotion, not a
//! fresh election.
//!
//! The second half of this module is the **availability model**: a
//! running calibration of repair cost by kind ([`RepairCalibration`]),
//! a per-graph measured/modeled downtime ledger
//! ([`GraphAvailability`]), and the domain-wide
//! [`AvailabilityReport`] predicting per-graph availability from
//! exposure (nodes hosting parts), redundancy (standby ready or not),
//! and repair policy. The chaos suites validate the model empirically:
//! modeled downtime must bracket the measured `downtime_estimate_ns`
//! stream over random op sequences.

use std::collections::{BTreeMap, BTreeSet};

use crate::domain::Plan;
use crate::sharing::ShareKey;

/// Prediction for a repair kind that has never run: 50 µs, roughly one
/// small-graph repair on a release build. The first observed repair of
/// each kind replaces it, so the default only colors the very first
/// prediction of a domain's life.
pub const DEFAULT_REPAIR_NS: u64 = 50_000;

/// The three ways a graph comes back after a node failure, in
/// decreasing order of preparedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// A pre-computed standby plan was promoted (make-before-break).
    StandbySwap,
    /// Reactive incremental repair: planned at failure time, survivors
    /// pinned.
    Reactive,
    /// Full from-scratch re-placement (policy or fallback).
    FromScratch,
}

/// Running calibration of repair cost by [`RepairKind`]: event counts
/// and summed `repair_duration_ns`, updated after every repair.
#[derive(Debug, Clone, Default)]
pub struct RepairCalibration {
    /// Standby-swap promotions observed / summed duration.
    pub swap_events: u64,
    /// Total nanoseconds spent in standby swaps.
    pub swap_ns: u64,
    /// Reactive incremental repairs observed.
    pub reactive_events: u64,
    /// Total nanoseconds spent in reactive incremental repairs.
    pub reactive_ns: u64,
    /// From-scratch replacements observed.
    pub scratch_events: u64,
    /// Total nanoseconds spent in from-scratch replacements.
    pub scratch_ns: u64,
}

impl RepairCalibration {
    /// Fold one observed repair into the calibration.
    pub fn record(&mut self, kind: RepairKind, duration_ns: u64) {
        match kind {
            RepairKind::StandbySwap => {
                self.swap_events += 1;
                self.swap_ns += duration_ns;
            }
            RepairKind::Reactive => {
                self.reactive_events += 1;
                self.reactive_ns += duration_ns;
            }
            RepairKind::FromScratch => {
                self.scratch_events += 1;
                self.scratch_ns += duration_ns;
            }
        }
    }

    /// Predicted duration of one repair of `kind`: the observed mean
    /// for that kind, falling back to the overall mean across kinds,
    /// falling back to [`DEFAULT_REPAIR_NS`] before any repair ran.
    pub fn predict(&self, kind: RepairKind) -> u64 {
        let (events, ns) = match kind {
            RepairKind::StandbySwap => (self.swap_events, self.swap_ns),
            RepairKind::Reactive => (self.reactive_events, self.reactive_ns),
            RepairKind::FromScratch => (self.scratch_events, self.scratch_ns),
        };
        // `checked_div` yields `None` for a zero divisor, i.e. no
        // observations of that kind (or none at all) yet.
        let total_events = self.swap_events + self.reactive_events + self.scratch_events;
        ns.checked_div(events)
            .or_else(|| {
                (self.swap_ns + self.reactive_ns + self.scratch_ns).checked_div(total_events)
            })
            .unwrap_or(DEFAULT_REPAIR_NS)
    }

    /// Total repairs folded in, across kinds.
    pub fn events(&self) -> u64 {
        self.swap_events + self.reactive_events + self.scratch_events
    }
}

/// Per-graph availability ledger: what downtime this graph actually
/// paid (measured) and what the model predicted at each event
/// (modeled). Survives undeploy — it is history, not live state.
#[derive(Debug, Clone, Default)]
pub struct GraphAvailability {
    /// The graph id.
    pub graph: String,
    /// Repairs this graph went through.
    pub repairs: u64,
    /// Of those, standby-swap promotions.
    pub standby_promotions: u64,
    /// Summed measured `downtime_estimate_ns` across repairs.
    pub measured_downtime_ns: u64,
    /// Summed model predictions, stamped at each repair *before* it
    /// ran (queueing delay of earlier graphs in the sweep included).
    pub modeled_downtime_ns: u64,
    /// Times the graph was parked (`NoRoute` / no capacity).
    pub park_events: u64,
    /// Summed park→drain downtime, stamped when `retry_pending` (or an
    /// explicit redeploy) restored the graph.
    pub park_downtime_ns: u64,
}

impl GraphAvailability {
    /// An empty ledger for one graph.
    pub fn new(graph: &str) -> Self {
        GraphAvailability {
            graph: graph.to_string(),
            ..GraphAvailability::default()
        }
    }
}

/// One deployed graph's availability prediction.
#[derive(Debug, Clone)]
pub struct GraphPrediction {
    /// The graph id.
    pub graph: String,
    /// Nodes hosting a part of this graph — each is an independent
    /// failure exposure.
    pub exposed_nodes: usize,
    /// Is a standby plan staged for this graph right now?
    pub standby_ready: bool,
    /// Predicted per-failure downtime with the graph's current
    /// protections (standby swap when staged, the policy's reactive
    /// repair otherwise).
    pub predicted_repair_ns: u64,
    /// Predicted per-failure downtime of the policy's reactive repair
    /// (the standby column's baseline).
    pub predicted_reactive_ns: u64,
    /// Predicted availability `A = 1 − exposed · d_repair / MTBF`:
    /// each exposed node fails once per `node_mtbf_ns` on average,
    /// costing one predicted repair of downtime.
    pub predicted_availability: f64,
    /// The graph's measured/modeled history.
    pub ledger: GraphAvailability,
}

/// The domain-wide modeled-vs-measured availability report
/// (`Domain::availability_report`, served as `GET
/// /domain/availability`).
#[derive(Debug, Clone)]
pub struct AvailabilityReport {
    /// Assumed node MTBF feeding the predictions.
    pub node_mtbf_ns: u64,
    /// Repair-cost calibration the predictions draw from.
    pub calibration: RepairCalibration,
    /// Summed model predictions across every graph ever repaired.
    pub modeled_downtime_ns: u64,
    /// Summed measured `downtime_estimate_ns` across the same events.
    pub measured_downtime_ns: u64,
    /// Repair events backing the two sums.
    pub repair_events: u64,
    /// Per-deployed-graph predictions.
    pub graphs: Vec<GraphPrediction>,
}

/// One pre-staged graph repair: the plan computed while the node was
/// merely suspect, plus enough of the then-current deployment to
/// detect staleness at promotion time.
pub(crate) struct GraphStandby {
    /// The pre-computed repair plan (vids in `plan.taken` are reserved
    /// out of the pool until promotion or discard).
    pub plan: Plan,
    /// The entry's overlay vids at compute time; promotion requires
    /// them unchanged (an update/repair in between re-planned the
    /// graph and staled this standby).
    pub old_vids: Vec<u16>,
}

/// Everything pre-staged for one suspect node.
#[derive(Default)]
pub(crate) struct NodeStandby {
    /// Affected graph → its standby plan.
    pub graphs: BTreeMap<String, GraphStandby>,
    /// Shared replica on the suspect → pre-elected replacement host.
    pub shared: BTreeMap<ShareKey, String>,
}

/// Standby plans per suspect node.
#[derive(Default)]
pub(crate) struct StandbyRegistry {
    per_node: BTreeMap<String, NodeStandby>,
}

impl StandbyRegistry {
    /// Is a standby staged for this node?
    pub fn contains(&self, node: &str) -> bool {
        self.per_node.contains_key(node)
    }

    /// Stage a node's standby.
    pub fn insert(&mut self, node: String, sb: NodeStandby) {
        self.per_node.insert(node, sb);
    }

    /// Consume a node's standby (promotion or discard).
    pub fn take(&mut self, node: &str) -> Option<NodeStandby> {
        self.per_node.remove(node)
    }

    /// Take out every staged graph plan `stale(gid, plan)` selects,
    /// as `(suspect node, gid, plan)` — the caller owes each one a
    /// release of its reserved vids.
    pub fn extract(
        &mut self,
        stale: impl Fn(&str, &GraphStandby) -> bool,
    ) -> Vec<(String, String, GraphStandby)> {
        let mut out = Vec::new();
        for (node, sb) in self.per_node.iter_mut() {
            let taken = sb.graphs.extract_if(.., |gid, plan| stale(gid, plan));
            out.extend(taken.map(|(gid, plan)| (node.clone(), gid, plan)));
        }
        out
    }

    /// Total staged graph plans (the `un_standby_active` gauge).
    pub fn graph_plans(&self) -> usize {
        self.per_node.values().map(|sb| sb.graphs.len()).sum()
    }

    /// Graphs with at least one staged plan.
    pub fn ready_graphs(&self) -> BTreeSet<String> {
        self.per_node
            .values()
            .flat_map(|sb| sb.graphs.keys().cloned())
            .collect()
    }

    /// Every vid reserved by a staged plan (unsorted).
    pub fn reserved_vids(&self) -> Vec<u16> {
        self.per_node
            .values()
            .flat_map(|sb| sb.graphs.values())
            .flat_map(|g| g.plan.taken.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_predicts_per_kind_then_overall_then_default() {
        let mut c = RepairCalibration::default();
        assert_eq!(c.predict(RepairKind::StandbySwap), DEFAULT_REPAIR_NS);
        c.record(RepairKind::Reactive, 1_000);
        c.record(RepairKind::Reactive, 3_000);
        assert_eq!(c.predict(RepairKind::Reactive), 2_000, "per-kind mean");
        assert_eq!(
            c.predict(RepairKind::StandbySwap),
            2_000,
            "unseen kind falls back to the overall mean"
        );
        c.record(RepairKind::StandbySwap, 100);
        assert_eq!(c.predict(RepairKind::StandbySwap), 100);
        assert_eq!(c.events(), 3);
    }
}
