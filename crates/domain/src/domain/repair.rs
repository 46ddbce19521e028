//! The failure path: repairing graphs off a failed node, and the
//! make-before-break standby lifecycle around it.
//!
//! Nothing here installs anything itself. A repair is a way of
//! *building a plan* — survivors pinned and vids inherited
//! ([`Domain::repair_incremental`]), a plan staged while the node was
//! merely suspect ([`Domain::promote_standby`]), or no constraints at
//! all after a teardown ([`Domain::replace_from_scratch`]) — and the
//! plan goes through the same [`Domain::commit`] as a deploy or an
//! update; a rolled-back commit falls through to the next builder.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use un_sim::SimTime;

use super::control::Committed;
use super::plan::{plan, serving_hints, Constraints, FleetView, Plan};
use super::{
    Domain, DomainError, DomainGraph, NodeHealth, Parked, RepairOutcome, RepairPolicy,
    ReplacementReport,
};
use crate::sharing::{elect, ShareKey, SharedClaim};
use crate::standby::{GraphAvailability, GraphStandby, NodeStandby, RepairKind, PLAN_CHARGE};

/// NFs whose assignment differs between two plans of the same graph.
fn moved_count(old: &BTreeMap<String, String>, new: &BTreeMap<String, String>) -> usize {
    new.iter()
        .filter(|(nf, node)| old.get(*nf) != Some(node))
        .count()
}

/// Shared-tenancy blast radius of a repair from `old` to `new`, whose
/// leases were `held` before the failure and are `now` after: how many
/// of the moved NFs moved because the shared instance they ride was
/// re-hosted, and which instances migrated (`(key, new host)`).
fn shared_blast(
    held: &BTreeMap<ShareKey, SharedClaim>,
    now: &BTreeMap<ShareKey, SharedClaim>,
    old: &DomainGraph,
    new: &DomainGraph,
) -> (usize, Vec<(String, String)>) {
    let migrated: Vec<(String, String)> = now
        .iter()
        .filter(|(key, claim)| held.get(key).map(|old| &old.host) != Some(&claim.host))
        .map(|(key, claim)| (key.to_string(), claim.host.clone()))
        .collect();
    let moved = old
        .original
        .nfs
        .iter()
        .filter(|nf| {
            now.contains_key(&ShareKey::of_nf(nf))
                && old.assignment.get(&nf.id) != new.assignment.get(&nf.id)
        })
        .count();
    (moved, migrated)
}

/// Pick a replacement host for each of `keys` — shared instances
/// living on a node `view` no longer counts as serving. Demand is the
/// surviving nodes the instance's tenants occupy; keys with no
/// candidate are left out.
fn elect_replacements(view: &FleetView<'_>, keys: Vec<ShareKey>) -> BTreeMap<ShareKey, String> {
    let mut elected = BTreeMap::new();
    for key in keys {
        let demand: BTreeSet<String> = view
            .sharing
            .get(&key)
            .map(|inst| inst.leases.keys())
            .into_iter()
            .flatten()
            .filter_map(|gid| view.graphs.get(gid))
            .flat_map(|g| g.assignment.values().chain(g.endpoints.values()))
            .filter(|n| view.serving.contains(*n))
            .cloned()
            .collect();
        if let Ok(host) = elect(&key, &view.views, view.fabric_hops.as_ref(), &demand) {
            elected.insert(key, host);
        }
    }
    elected
}

impl Domain {
    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Declare a node failed and repair every partition it hosted per
    /// [`super::DomainConfig::repair`] (incremental by default: only the lost
    /// sub-partition moves; survivors keep their placements, their
    /// overlay VLAN ids, and — where their part is byte-identical —
    /// their entire local deployment). The outage is booked from now,
    /// the domain's clock: the caller detected it.
    pub fn fail_node(&mut self, name: &str) -> Result<ReplacementReport, DomainError> {
        let now = self.clock;
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        if managed.health == NodeHealth::Failed {
            // Idempotent: the partitions were already repaired when the
            // node first failed; there is nothing left to move.
            return Ok(ReplacementReport::default());
        }
        managed.health = NodeHealth::Failed;
        Ok(self.replace_lost_partitions(name, now))
    }

    /// Repair every graph hosting a part on the (already marked
    /// failed) node `name`, whose outage started at `start`.
    ///
    /// The books are virtual time. The failure is declared at
    /// `self.clock`, so `self.clock - start` of detection is downtime
    /// too; then each repair in the sweep ends one control-plane charge
    /// after the one before it, so a graph later in the sweep books the
    /// queueing delay of every attempt before it, parked ones included.
    /// The model predicts only the repair about to run: what precedes
    /// it on the sweep's clock has already happened.
    pub(super) fn replace_lost_partitions(
        &mut self,
        name: &str,
        start: SimTime,
    ) -> ReplacementReport {
        let mut at = self.clock;
        self.trace.nodes_failed += 1;
        self.obs
            .event("domain.node.failed", vec![("node", name.into())]);
        // What the failure alone changes is the node and the graphs
        // with a part on it (transit hops included); the sweep's own
        // commits mark the hosts they touch.
        self.verify_mark_node(name);
        // Standby plans staged while the node was merely suspect: the
        // make-before-break payload. Graph plans promote below; shared
        // standby hosts promote here.
        let mut node_sb = self.standby.take(name).unwrap_or_default();
        // Graphs with a part on the dead node, and the leases each holds
        // before the re-election below: what its repair report compares.
        let affected: Vec<(String, BTreeMap<ShareKey, SharedClaim>)> = self
            .graphs
            .iter()
            .filter(|(_, g)| g.partition.parts.contains_key(name))
            .map(|(id, _)| (id.clone(), self.sharing.leases_of(id)))
            .collect();
        // Shared instances the casualty hosted are re-elected **once**
        // at registry level before any tenant is repaired, so every
        // tenant plan converges on the same new home (demand = the
        // surviving nodes its tenants occupy). A standby host elected
        // at Suspect time short-circuits the election to a promotion.
        // If no candidate exists, the host stays dead: each tenant
        // plan fails, the tenants park, and the last released lease
        // drops the instance.
        if self.config.sharing.enabled {
            let mut orphaned = self.sharing.hosted_on(name);
            orphaned.retain(|key| {
                // Promote the pre-elected standby host if it still
                // serves.
                let Some(host) = node_sb.shared.remove(key) else {
                    return true;
                };
                if !self.serves(&host) {
                    return true;
                }
                self.sharing.set_host(key, &host);
                self.trace.shared_hosts_reelected += 1;
                self.trace.standby_shared_promoted += 1;
                self.obs.event(
                    "domain.standby.promoted",
                    vec![
                        ("kind", "shared".into()),
                        ("key", key.to_string().into()),
                        ("host", host.into()),
                    ],
                );
                false
            });
            // The common casualty hosts no shared instance: build no view for it.
            let elected = if orphaned.is_empty() {
                BTreeMap::new()
            } else {
                elect_replacements(&self.planner().0, orphaned)
            };
            for (key, host) in elected {
                self.sharing.set_host(&key, &host);
                self.trace.shared_hosts_reelected += 1;
                self.obs.event(
                    "domain.shared.elect",
                    vec![("key", key.to_string().into()), ("host", host.into())],
                );
            }
        }

        let mut report = ReplacementReport::default();
        for (gid, held) in affected {
            let repair_started = Instant::now();
            let charged = self.charged;
            let entry = self.graphs.remove(&gid).expect("listed above");
            // A standby plan is only promotable under the incremental
            // policy, and only while still valid (same wires, every
            // planned node still serving, every shared claim on the
            // host the re-election above left its key on). Invalid
            // plans are discarded explicitly — their reserved vids
            // must return to the pool.
            let incremental = self.config.repair == RepairPolicy::Incremental;
            let standby = match node_sb.graphs.remove(&gid) {
                Some(sb)
                    if incremental
                        && self.standby_valid(&sb, &entry)
                        && self.shared_claims_current(&sb.plan.shared) =>
                {
                    Some(sb)
                }
                Some(sb) => {
                    self.discard_standby_plan(name, &gid, sb, "stale");
                    None
                }
                None => None,
            };
            let predicted_kind = match (&standby, incremental) {
                (Some(_), _) => RepairKind::StandbySwap,
                (None, true) => RepairKind::Reactive,
                (None, false) => RepairKind::FromScratch,
            };
            let modeled = (at - start).as_nanos() + self.calibration.predict(predicted_kind);
            let pinned = match standby {
                Some(sb) => self.promote_standby(&entry, sb).ok(),
                None if incremental => self.repair_incremental(&entry).ok(),
                None => None,
            };
            // When the pinned plan cannot be held — a promotion's
            // rolled-back commit already took the survivors' parts
            // down — tear everything down and re-plan with full
            // freedom: a repack may fit where the increment could not.
            let outcome = match pinned {
                Some(o) => Ok(o),
                None => self.replace_from_scratch(&entry),
            };
            let took = self.charged - charged;
            at += took;
            match outcome {
                Ok(mut o) => {
                    o.repair_duration_ns = took.as_nanos();
                    o.downtime_estimate_ns = (at - start).as_nanos();
                    o.modeled_downtime_ns = modeled;
                    let now = self.sharing.leases_of(&gid);
                    (o.shared_nfs_moved, o.shared_migrated) =
                        shared_blast(&held, &now, &entry, &self.graphs[&gid]);
                    let actual_kind = if o.standby_promoted {
                        RepairKind::StandbySwap
                    } else if o.full_replace {
                        RepairKind::FromScratch
                    } else {
                        RepairKind::Reactive
                    };
                    self.calibration.record(actual_kind, o.repair_duration_ns);
                    let ledger = self
                        .avail
                        .entry(gid.clone())
                        .or_insert_with(|| GraphAvailability::new(&gid));
                    ledger.repairs += 1;
                    ledger.measured_downtime_ns += o.downtime_estimate_ns;
                    ledger.modeled_downtime_ns += modeled;
                    if o.standby_promoted {
                        ledger.standby_promotions += 1;
                    }
                    self.obs.span(
                        "domain.repair",
                        repair_started,
                        vec![
                            ("graph", o.graph.clone().into()),
                            ("nfs_moved", o.nfs_moved.into()),
                            ("nfs_preserved", o.nfs_preserved.into()),
                            ("links_rewired", o.links_rewired.into()),
                            ("nodes_touched", o.nodes_touched.into()),
                            ("full_replace", o.full_replace.into()),
                            ("standby_promoted", o.standby_promoted.into()),
                            ("downtime_estimate_ns", o.downtime_estimate_ns.into()),
                        ],
                    );
                    self.trace.graphs_replaced += 1;
                    self.trace.repair_nfs_moved += o.nfs_moved as u64;
                    self.trace.repair_nfs_preserved += o.nfs_preserved as u64;
                    self.trace.repair_links_rewired += o.links_rewired as u64;
                    self.trace.repair_links_kept += o.links_kept as u64;
                    if o.full_replace {
                        self.trace.repairs_full += 1;
                    } else {
                        self.trace.repairs_incremental += 1;
                    }
                    report.replaced.push(gid);
                    report.repairs.push(o);
                }
                Err(_) => {
                    // Park the spec with pins pruned to the surviving
                    // fleet so retry_pending can re-place it once
                    // capacity returns. A parked tenant is no live wire:
                    // its shared leases are released (the instance drops
                    // with its last tenant and re-registers on retry).
                    let hints = serving_hints(&entry.hints, |n| self.serves(n));
                    self.release_shared(&gid);
                    self.trace.graphs_stranded += 1;
                    self.avail
                        .entry(gid.clone())
                        .or_insert_with(|| GraphAvailability::new(&gid))
                        .park_events += 1;
                    let parked = Parked {
                        graph: Arc::unwrap_or_clone(entry.original),
                        hints,
                        since: start,
                    };
                    self.pending.insert(gid.clone(), parked);
                    report.stranded.push(gid);
                }
            }
        }
        // Standby plans for graphs the failure no longer touches (the
        // graph was undeployed since, or the policy is from-scratch):
        // discard, returning their reserved vids.
        let leftover: Vec<(String, GraphStandby)> = node_sb.graphs.into_iter().collect();
        for (gid, sb) in leftover {
            self.discard_standby_plan(name, &gid, sb, "stale");
        }
        // Standbys staged for *other* suspect nodes may reference the
        // casualty (as part host, transit hop, or shared host) or a
        // graph this sweep re-planned: re-validate them all.
        self.prune_stale_standbys();
        self.update_standby_gauge();
        report
    }

    /// What a repair cost, from what its commit did and how the
    /// re-registered graph differs from `old`. The books, the model,
    /// the shared blast and `standby_promoted` are the sweep's to stamp.
    fn repair_outcome(
        &self,
        old: &DomainGraph,
        done: Committed,
        full_replace: bool,
    ) -> RepairOutcome {
        let new = &self.graphs[&old.original.id];
        let nfs_moved = moved_count(&old.assignment, &new.assignment);
        RepairOutcome {
            graph: old.original.id.clone(),
            nfs_moved,
            nfs_preserved: new.assignment.len() - nfs_moved,
            links_rewired: done.links_rewired,
            links_kept: done.links_kept,
            nodes_touched: done.nodes_touched,
            full_replace,
            shared_nfs_moved: 0,
            shared_migrated: Vec::new(),
            repair_duration_ns: 0,
            downtime_estimate_ns: 0,
            standby_promoted: false,
            modeled_downtime_ns: 0,
        }
    }

    /// Commit a survivor-pinned `plan` over what is left of `entry`
    /// (the plan of a reactive repair, or one staged at Suspect time).
    /// A rolled-back commit leaves `entry` for the from-scratch
    /// fallback, which the sweep always runs next.
    fn commit_repair(
        &mut self,
        entry: &DomainGraph,
        plan: Plan,
    ) -> Result<RepairOutcome, DomainError> {
        let hints = serving_hints(&entry.hints, |n| self.serves(n));
        let done = self
            .commit(Some(entry), &entry.original, hints, plan)
            .inspect_err(|_| self.trace.repairs_rolled_back += 1)?;
        Ok(self.repair_outcome(entry, done, false))
    }

    /// Reactive incremental repair of one graph: plan now, inside the
    /// outage, and commit.
    fn repair_incremental(&mut self, entry: &DomainGraph) -> Result<RepairOutcome, DomainError> {
        self.charged += PLAN_CHARGE;
        let (view, vids) = self.planner();
        let c = Constraints::repair(entry, &view.serving);
        let plan = plan(&view, vids, &entry.original, &c)?;
        self.commit_repair(entry, plan)
    }

    /// From-scratch re-placement of one graph (the baseline, and the
    /// fallback when the incremental plan cannot be held): tear down
    /// what survives, then plan with only the caller's (pruned) hints.
    fn replace_from_scratch(&mut self, entry: &DomainGraph) -> Result<RepairOutcome, DomainError> {
        self.teardown(entry);
        let hints = serving_hints(&entry.hints, |n| self.serves(n));
        let done = self.deploy_fresh(&entry.original, &hints)?;
        Ok(self.repair_outcome(entry, done, true))
    }

    /// Promote a standby plan staged at Suspect time: the planning
    /// phase is skipped entirely (and charged nothing), the
    /// pre-computed plan commits as is.
    fn promote_standby(
        &mut self,
        entry: &DomainGraph,
        sb: GraphStandby,
    ) -> Result<RepairOutcome, DomainError> {
        let mut o = self
            .commit_repair(entry, sb.plan)
            .inspect_err(|_| self.trace.standby_promotes_failed += 1)?;
        o.standby_promoted = true;
        self.trace.standby_plans_promoted += 1;
        self.obs.event(
            "domain.standby.promoted",
            vec![("kind", "graph".into()), ("graph", o.graph.clone().into())],
        );
        Ok(o)
    }

    // ------------------------------------------------------------------
    // Make-before-break standby lifecycle
    // ------------------------------------------------------------------

    /// Pre-compute a standby repair plan per graph affected by the
    /// newly suspect node `name` (and pre-elect replacement hosts for
    /// shared instances it carries), so a later failure is a swap
    /// instead of a plan. Only the incremental repair policy stages
    /// one; idempotent while the suspicion lasts.
    pub(super) fn compute_standby(&mut self, name: &str) {
        if self.config.repair != RepairPolicy::Incremental || self.standby.contains(name) {
            return;
        }
        let (view, vids) = self.planner();
        let mut view = view.without(name);
        // Pre-elect a replacement host per shared instance the suspect
        // carries, so failure-time re-election is a promotion.
        if view.config.sharing.enabled {
            view.shared_standby = elect_replacements(&view, view.sharing.hosted_on(name));
        }
        // One pre-computed repair plan per graph with a part on the
        // suspect. The plan's fresh vids stay reserved (neither free
        // nor in use) until the standby promotes or is discarded.
        let mut sb = NodeStandby::default();
        let mut unplannable = 0;
        let affected = view.graphs.iter();
        for (gid, entry) in affected.filter(|(_, g)| g.partition.parts.contains_key(name)) {
            let c = Constraints::repair(entry, &view.serving);
            // The survivors may be unable to absorb this graph today;
            // a failure will then park it (or from-scratch may still
            // find a repack the pinned plan could not).
            let Ok(plan) = plan(&view, vids, &entry.original, &c) else {
                unplannable += 1;
                continue;
            };
            view.obs.event(
                "domain.standby.computed",
                vec![
                    ("graph", gid.clone().into()),
                    ("node", name.into()),
                    ("vids_reserved", plan.taken.len().into()),
                ],
            );
            let old_vids: Vec<u16> = entry.partition.links.iter().map(|l| l.vid).collect();
            sb.graphs
                .insert(gid.clone(), GraphStandby { plan, old_vids });
        }
        sb.shared = view.shared_standby;
        // `planner` held the whole domain; the counters move now.
        self.trace.standby_plans_computed += sb.graphs.len() as u64;
        self.trace.standby_plans_unplannable += unplannable;
        if !sb.graphs.is_empty() || !sb.shared.is_empty() {
            self.standby.insert(name.to_string(), sb);
        }
        self.update_standby_gauge();
    }

    /// Is a staged standby plan still promotable over the live
    /// deployment of its graph? The graph's wires must be exactly the
    /// ones the plan was computed against, and every node the plan
    /// uses (part hosts, transit hops, shared hosts) must still serve.
    fn standby_valid(&self, sb: &GraphStandby, entry: &DomainGraph) -> bool {
        entry
            .partition
            .links
            .iter()
            .map(|l| l.vid)
            .eq(sb.old_vids.iter().copied())
            && sb.plan.partition.parts.keys().all(|n| self.serves(n))
            && sb.plan.paths.values().flatten().all(|n| self.serves(n))
            && sb.plan.shared.values().all(|c| self.serves(&c.host))
    }

    /// Does every shared claim of a plan name its key's host as the
    /// registry has it now? A key with no instance may be claimed on
    /// any host. Checked at failure time, after re-election: while the
    /// node is only suspect, a staged plan claims the standby hosts,
    /// not the live ones.
    fn shared_claims_current(&self, claims: &BTreeMap<ShareKey, SharedClaim>) -> bool {
        claims
            .iter()
            .all(|(key, c)| self.sharing.get(key).is_none_or(|inst| inst.host == c.host))
    }

    /// Return one standby plan's reserved vids to the pool.
    fn discard_standby_plan(
        &mut self,
        node: &str,
        gid: &str,
        sb: GraphStandby,
        reason: &'static str,
    ) {
        let vids = sb.plan.taken.len();
        self.release_plan(sb.plan);
        self.trace.standby_plans_discarded += 1;
        self.obs.event(
            "domain.standby.discarded",
            vec![
                ("graph", gid.into()),
                ("node", node.into()),
                ("reason", reason.into()),
                ("vids_returned", vids.into()),
            ],
        );
    }

    /// Discard everything staged for `node` (late heartbeat or
    /// explicit recovery ended the suspicion).
    pub(super) fn discard_standby(&mut self, node: &str, reason: &'static str) {
        if let Some(sb) = self.standby.take(node) {
            for (gid, g) in sb.graphs {
                self.discard_standby_plan(node, &gid, g, reason);
            }
            self.update_standby_gauge();
        }
    }

    /// Discard `gid`'s standby plan on every suspect node (the graph
    /// was re-planned or taken down, so those plans are stale).
    pub(super) fn discard_graph_standby(&mut self, gid: &str) {
        let drained = self.standby.extract(|staged, _| staged == gid);
        if !drained.is_empty() {
            for (node, gid, g) in drained {
                self.discard_standby_plan(&node, &gid, g, "replanned");
            }
            self.update_standby_gauge();
        }
    }

    /// Re-validate every staged standby (after a repair sweep changed
    /// the fleet or re-planned graphs) and discard the stale ones.
    fn prune_stale_standbys(&mut self) {
        let mut staged = std::mem::take(&mut self.standby);
        let stale = staged.extract(|gid, g| {
            !self
                .graphs
                .get(gid)
                .is_some_and(|entry| self.standby_valid(g, entry))
        });
        self.standby = staged;
        for (node, gid, g) in stale {
            self.discard_standby_plan(&node, &gid, g, "stale");
        }
    }

    /// Export how many standby graph plans are staged right now.
    fn update_standby_gauge(&self) {
        if self.obs.is_enabled() {
            self.obs
                .registry()
                .gauge("un_standby_active", &[])
                .set(self.standby.graph_plans() as i64);
        }
    }
}
