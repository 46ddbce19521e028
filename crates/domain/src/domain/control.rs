//! The graph lifecycle: **plan → commit | release**.
//!
//! Every operation that changes what a graph has installed — deploy,
//! update, reactive repair, standby promotion, from-scratch
//! re-placement, retry of a parked graph — builds a [`Plan`] its own
//! way (no pins; survivor pins and exact vid reuse; the repair inputs;
//! a plan staged at Suspect time; parked hints) and hands it to the one
//! [`Domain::commit`], which reconciles the fleet against it and owns
//! the rollback. A plan that is not committed goes back through
//! [`Domain::release_plan`]. The planner itself is the sibling module
//! `plan`; `VidPool` is the only writer of the overlay vid pool.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use un_core::DeployReport;
use un_ipsec::SecurityAssociation;
use un_nffg::{validate, NfFg};

use super::plan::{plan, Constraints, Plan};
use super::{
    DeployHints, Domain, DomainConfig, DomainError, DomainGraph, DomainReport, LinkSas, LinkState,
};
use crate::partition::Partition;
use crate::sharing::{ShareKey, SharedClaim};
use crate::standby::GraphAvailability;

/// What one [`Domain::commit`] did to the fleet, for the caller's
/// report ([`DomainReport`] or a repair's blast radius).
#[derive(Default)]
pub(super) struct Committed {
    /// Deploy reports of the nodes that took a `deploy`/`update` call.
    pub(super) per_node: Vec<(String, DeployReport)>,
    /// Nodes that took any call: deployed, updated or undeployed.
    pub(super) nodes_touched: usize,
    /// Overlay links whose vid *and* node pair carried over.
    pub(super) links_kept: usize,
    /// Overlay links with a fresh vid or a changed node pair.
    pub(super) links_rewired: usize,
}

impl Committed {
    fn report(self, graph: &str) -> DomainReport {
        DomainReport {
            graph: graph.to_string(),
            overlay_links: self.links_kept + self.links_rewired,
            per_node: self.per_node,
        }
    }
}

/// Per-hop cost of one routed path: explicit edges carry their own
/// latency, full-mesh (implicit) hops cost `overlay_link_ns`. (A
/// routed path in explicit mode only ever walks explicit edges, so
/// the default fires exactly for implicit full-mesh hops.)
fn hop_latencies(config: &DomainConfig, path: &[String]) -> Vec<u64> {
    path.windows(2)
        .map(|w| {
            config
                .topology
                .edge(&w[0], &w[1])
                .map_or(config.overlay_link_ns, |e| e.latency_ns)
        })
        .collect()
}

/// Mint the SA pair of one link *incarnation*: HKDF over the domain
/// seed with `info = "un-ovl" ‖ vid ‖ epoch`. The epoch is what keeps a
/// re-used vid from re-using a (key, nonce): sequence numbers restart
/// at zero under every new pair, so no two pairs may share a key.
fn derive_link_sas(seed: u64, vid: u16, epoch: u64) -> LinkSas {
    let mut info = [0u8; 16];
    info[..6].copy_from_slice(b"un-ovl");
    info[6..8].copy_from_slice(&vid.to_be_bytes());
    info[8..].copy_from_slice(&epoch.to_be_bytes());
    let spi = 0x4f56_0000 | u32::from(vid); // 'OV' + vid
    let src = Ipv4Addr::new(10, 255, 255, 1);
    let dst = Ipv4Addr::new(10, 255, 255, 2);
    Box::new(SecurityAssociation::derive_pair(
        &seed.to_be_bytes(),
        &info,
        spi,
        src,
        dst,
    ))
}

impl Domain {
    // ------------------------------------------------------------------
    // Graph lifecycle
    // ------------------------------------------------------------------

    /// Deploy a graph with default hints.
    pub fn deploy(&mut self, graph: &NfFg) -> Result<DomainReport, DomainError> {
        self.deploy_with(graph, &DeployHints::default())
    }

    /// Deploy a graph across the fleet.
    pub fn deploy_with(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
    ) -> Result<DomainReport, DomainError> {
        let errs = validate(graph);
        if !errs.is_empty() {
            return Err(DomainError::Invalid(errs));
        }
        if self.graphs.contains_key(&graph.id) {
            return Err(DomainError::AlreadyDeployed(graph.id.clone()));
        }
        let done = self.deploy_fresh(graph, hints)?;
        // An explicit deploy supersedes any copy parked by an earlier
        // failure; otherwise retry_pending could double-deploy it. The
        // redeploy ends the park window, so stamp its downtime.
        if self.pending.remove(&graph.id).is_some() {
            self.stamp_park_drain(&graph.id);
        }
        self.trace.graphs_deployed += 1;
        Ok(done.report(&graph.id))
    }

    /// Plan `graph` with nothing pinned and no vid to inherit, and
    /// commit it onto a fleet that holds no part of it: the plan
    /// builder of deploy, retry and from-scratch re-placement.
    pub(super) fn deploy_fresh(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
    ) -> Result<Committed, DomainError> {
        let c = Constraints::fresh(hints);
        let (view, vids) = self.planner();
        let plan = plan(&view, vids, graph, &c)?;
        self.commit(None, graph, c.hints, plan)
            .inspect_err(|_| self.trace.deploys_rolled_back += 1)
    }

    /// Commit a successfully installed plan's shared claims as leases,
    /// releasing leases the graph no longer claims (dropping instances
    /// whose last tenant left).
    fn commit_shared(&mut self, gid: &str, claims: &BTreeMap<ShareKey, SharedClaim>) {
        let keep: BTreeSet<ShareKey> = claims.keys().cloned().collect();
        let dropped = self.sharing.release_except(gid, &keep);
        self.trace.shared_instances_dropped += dropped.len() as u64;
        for (key, claim) in claims {
            let (instance_new, lease_new, replicas_dropped) =
                self.sharing.commit(gid, key, &claim.host, claim.nfs);
            if instance_new {
                self.trace.shared_instances_registered += 1;
                // A new replica beside a live one is a scale-out —
                // counted here, where it becomes real, not at plan
                // time (a plan may be staged and never committed).
                if self.sharing.replicas(key).len() > 1 {
                    self.trace.shared_scale_outs += 1;
                    self.obs.event(
                        "domain.shared.scale_out",
                        vec![
                            ("key", key.render().into()),
                            ("host", claim.host.clone().into()),
                        ],
                    );
                }
            }
            // Sibling replicas a lease move emptied left the pool.
            self.trace.shared_instances_dropped += replicas_dropped as u64;
            if lease_new {
                self.trace.shared_leases_acquired += 1;
                self.obs.event(
                    "domain.lease.acquire",
                    vec![
                        ("graph", gid.into()),
                        ("key", key.render().into()),
                        ("host", claim.host.clone().into()),
                    ],
                );
            }
        }
    }

    /// Release every shared lease a graph holds (undeploy, park, or
    /// failed update), dropping instances whose last tenant left.
    pub(super) fn release_shared(&mut self, gid: &str) {
        // Only graphs that actually ride shared instances are worth an
        // event — every undeploy funnels through here.
        let held = self.sharing.instances().any(|i| i.leases.contains_key(gid));
        let dropped = self.sharing.release_graph(gid);
        if held {
            self.obs.event(
                "domain.lease.release",
                vec![
                    ("graph", gid.into()),
                    ("instances_dropped", dropped.len().into()),
                ],
            );
        }
        self.trace.shared_instances_dropped += dropped.len() as u64;
    }

    /// Install `plan` as the deployment of `graph`: the one place a
    /// partitioned graph reaches [`un_core::UniversalNode::deploy`] /
    /// `update`, whatever built the plan.
    ///
    /// `old` is what the fleet holds of the graph today (`None` for a
    /// fresh deploy); the caller took it out of `self.graphs` and keeps
    /// it. The fleet is reconciled against the plan:
    ///
    /// * a part identical to the installed one takes **no node call**;
    ///   a changed part is updated, a new one deployed, and a serving
    ///   node whose part vanished from the plan undeploys it;
    /// * an overlay vid the plan inherits **keeps its `LinkState`** —
    ///   packet/byte totals carry across — with peer routing and the
    ///   pinned path updated in place (per-hop counters restart only on
    ///   a rerouted wire). Its SA pair, sequence number and replay
    ///   window included, carries across too as long as the link still
    ///   joins the same two nodes; a kept vid whose endpoints moved is
    ///   a new wire and gets a fresh pair, as every fresh vid does.
    ///   Vids the plan dropped return to the pool;
    /// * standbys staged against `old` are released, leases follow the
    ///   plan's claims, and the hosts of old ∪ new are marked for
    ///   re-verification — on success and on failure alike.
    ///
    /// If a node rejects its part the commit **rolls back**: the graph
    /// leaves every serving node of old ∪ new, exactly `plan.taken`
    /// returns to the pool, and `old` — link state still registered,
    /// leases and standbys untouched — is the caller's to
    /// [`Domain::teardown`] (update, repair) or to ignore (deploy).
    pub(super) fn commit(
        &mut self,
        old: Option<&DomainGraph>,
        graph: &NfFg,
        hints: DeployHints,
        plan: Plan,
    ) -> Result<Committed, DomainError> {
        let gid = graph.id.as_str();
        let no_parts = BTreeMap::new();
        let old_parts = old.map_or(&no_parts, |o| &o.partition.parts);
        let hosts = || old_parts.keys().chain(plan.partition.parts.keys());
        self.verify_mark(gid, hosts());

        let mut done = Committed::default();
        for (node_name, sub) in &plan.partition.parts {
            let old_part = old_parts.get(node_name);
            if old_part.is_some_and(|o| un_nffg::diff(o, sub).is_empty()) {
                continue;
            }
            done.nodes_touched += 1;
            let node = &mut self
                .nodes
                .get_mut(node_name)
                .expect("assignment uses fleet")
                .node;
            let result = match old_part {
                Some(_) => node.update(sub),
                None => node.deploy(sub),
            };
            match result {
                Ok(report) => done.per_node.push((node_name.clone(), report)),
                Err(e) => {
                    let err = DomainError::Deploy {
                        node: node_name.clone(),
                        error: e.to_string(),
                    };
                    self.undeploy_parts(gid, hosts());
                    self.vids.release(plan.taken);
                    return Err(err);
                }
            }
        }
        // A transit-only node loses its part when the rerouted (or
        // collapsed) path no longer crosses it. The undeploy is a node
        // call, so it counts toward the blast radius.
        let vanished = old_parts
            .keys()
            .filter(|n| !plan.partition.parts.contains_key(*n));
        done.nodes_touched += self.undeploy_parts(gid, vanished);
        if let Some(old) = old {
            // The partition they were planned against is gone.
            self.discard_graph_standby(gid);
            let kept: BTreeSet<u16> = plan.partition.links.iter().map(|l| l.vid).collect();
            for link in &old.partition.links {
                if !kept.contains(&link.vid) {
                    self.links.remove(&link.vid);
                    self.vids.release([link.vid]);
                }
            }
        }
        let mut links_up = 0u64;
        let minted_before = self.link_epoch;
        let (seed, epoch) = (self.config.seed, &mut self.link_epoch);
        let mut fresh_sas = |vid| {
            *epoch += 1;
            derive_link_sas(seed, vid, *epoch)
        };
        for link in &plan.partition.links {
            let path = &plan.paths[&link.vid];
            let hops = path.len() - 1;
            match self.links.entry(link.vid) {
                Entry::Vacant(slot) => {
                    let sas = self.config.protect_overlay.then(|| fresh_sas(link.vid));
                    slot.insert(LinkState {
                        link: link.clone(),
                        graph: gid.to_string(),
                        path: path.clone(),
                        hop_latency_ns: hop_latencies(&self.config, path),
                        sas,
                        packets: 0,
                        bytes: 0,
                        hop_packets: vec![0; hops],
                        hop_bytes: vec![0; hops],
                    });
                    links_up += 1;
                }
                Entry::Occupied(mut slot) => {
                    let state = slot.get_mut();
                    if state.link.from_node == link.from_node && state.link.to_node == link.to_node
                    {
                        done.links_kept += 1;
                    } else if let Some(sas) = &mut state.sas {
                        // Another node holds an end now: it is never
                        // handed the old pair or its sequence counter.
                        *sas = fresh_sas(link.vid);
                    }
                    state.link = link.clone();
                    if state.path != *path {
                        // The hop axis changed identity; totals
                        // survive, per-hop counters restart.
                        state.path = path.clone();
                        state.hop_latency_ns = hop_latencies(&self.config, path);
                        state.hop_packets = vec![0; hops];
                        state.hop_bytes = vec![0; hops];
                        self.trace.overlay_paths_rerouted += 1;
                    }
                }
            }
        }
        done.links_rewired = plan.partition.links.len() - done.links_kept;
        self.trace.overlay_links_up += links_up;
        self.trace.overlay_sas_minted += self.link_epoch - minted_before;
        self.commit_shared(gid, &plan.shared);
        self.graphs.insert(
            gid.to_string(),
            DomainGraph {
                original: graph.clone(),
                hints,
                assignment: plan.assignment,
                endpoints: plan.endpoints,
                partition: plan.partition,
                shared: plan.shared,
            },
        );
        Ok(done)
    }

    /// Give back what a plan that will not be committed reserved. A
    /// [`Plan`] ends in exactly one of [`Domain::commit`] or here.
    pub(super) fn release_plan(&mut self, plan: Plan) {
        self.vids.release(plan.taken);
    }

    /// Undeploy `gid` from each of `nodes` that still serves (a failed
    /// node keeps its stale part until recovery purges it); returns
    /// how many node calls that took.
    fn undeploy_parts<'a>(
        &mut self,
        gid: &str,
        nodes: impl IntoIterator<Item = &'a String>,
    ) -> usize {
        let mut calls = 0;
        for name in nodes {
            if let Some(m) = self.nodes.get_mut(name) {
                if m.health.is_serving() {
                    let _ = m.node.undeploy(gid);
                    calls += 1;
                }
            }
        }
        calls
    }

    /// Take a whole deployment off the fleet: its parts leave every
    /// serving host, its link state goes and its vids return to the
    /// pool, and standbys staged against it are released. Leases are
    /// left to the caller — a from-scratch repair keeps them across
    /// the re-plan so its tenants converge on the re-elected host.
    pub(super) fn teardown(&mut self, entry: &DomainGraph) {
        let gid = entry.original.id.as_str();
        self.verify_mark(gid, entry.partition.parts.keys());
        self.undeploy_parts(gid, entry.partition.parts.keys());
        for link in &entry.partition.links {
            self.links.remove(&link.vid);
            self.vids.release([link.vid]);
        }
        self.discard_graph_standby(gid);
    }

    /// Update a deployed graph (rule-level changes update parts in
    /// place; structural changes re-plan, keeping surviving NFs on
    /// their nodes). A failed update leaves the graph undeployed: the
    /// caller holds the spec and can redeploy.
    pub fn update(&mut self, graph: &NfFg) -> Result<DomainReport, DomainError> {
        let errs = validate(graph);
        if !errs.is_empty() {
            return Err(DomainError::Invalid(errs));
        }
        let Some(existing) = self.graphs.get(&graph.id) else {
            return Err(DomainError::NoSuchGraph(graph.id.clone()));
        };
        let diff = un_nffg::diff(&existing.original, graph);
        if diff.is_empty() {
            return Ok(DomainReport {
                graph: graph.id.clone(),
                per_node: Vec::new(),
                overlay_links: existing.partition.links.len(),
            });
        }
        if diff.is_structural() {
            self.trace.graph_updates_structural += 1;
        } else {
            self.trace.graph_updates_rules += 1;
        }
        // A plan that cannot stand leaves the graph — and the standbys
        // staged for it — exactly as they were.
        let (view, vids) = self.planner();
        let c = Constraints::update(&view.graphs[&graph.id], &view.serving);
        let plan = plan(&view, vids, graph, &c)?;
        let old = self.graphs.remove(&graph.id).expect("looked up above");
        match self.commit(Some(&old), graph, c.hints, plan) {
            Ok(done) => Ok(done.report(&graph.id)),
            Err(e) => {
                self.teardown(&old);
                self.release_shared(&graph.id);
                self.trace.updates_failed += 1;
                Err(e)
            }
        }
    }

    /// Undeploy a graph from every node that hosts a part of it (and
    /// drop any copy parked for re-placement — an undeployed graph
    /// must never resurrect through `retry_pending`).
    pub fn undeploy(&mut self, graph_id: &str) -> Result<(), DomainError> {
        let parked = self.pending.remove(graph_id).is_some();
        match self.graphs.remove(graph_id) {
            Some(entry) => self.teardown(&entry),
            None if parked => {}
            None => return Err(DomainError::NoSuchGraph(graph_id.to_string())),
        }
        // The park window (if any) ends without a drain: the operator
        // gave the graph up.
        self.parked_at.remove(graph_id);
        self.release_shared(graph_id);
        self.trace.graphs_undeployed += 1;
        Ok(())
    }

    /// Deployed graph ids (pending re-placement excluded).
    pub fn graph_ids(&self) -> Vec<String> {
        self.graphs.keys().cloned().collect()
    }

    /// The original (whole) NF-FG of a deployed graph.
    pub fn graph(&self, id: &str) -> Option<&NfFg> {
        self.graphs.get(id).map(|g| &g.original)
    }

    /// The current partition of a deployed graph.
    pub fn partition_of(&self, id: &str) -> Option<&Partition> {
        self.graphs.get(id).map(|g| &g.partition)
    }

    /// Node assignment of a deployed graph's NFs.
    pub fn assignment_of(&self, id: &str) -> Option<&BTreeMap<String, String>> {
        self.graphs.get(id).map(|g| &g.assignment)
    }

    /// Graphs waiting for capacity after a failure.
    pub fn pending_graphs(&self) -> Vec<String> {
        self.pending.keys().cloned().collect()
    }

    /// Stamp the park→drain downtime of a just-restored graph into its
    /// availability ledger (closing the blind spot where parked graphs
    /// never stamped `downtime_estimate_ns`).
    fn stamp_park_drain(&mut self, gid: &str) {
        if let Some(at) = self.parked_at.remove(gid) {
            let downtime_ns = at.elapsed().as_nanos() as u64;
            let ledger = self
                .avail
                .entry(gid.to_string())
                .or_insert_with(|| GraphAvailability::new(gid));
            ledger.park_downtime_ns += downtime_ns;
            self.trace.park_drains += 1;
            self.obs.event(
                "domain.park.drained",
                vec![("graph", gid.into()), ("downtime_ns", downtime_ns.into())],
            );
        }
    }

    /// Try to deploy graphs stranded by earlier failures (call after
    /// adding capacity).
    pub fn retry_pending(&mut self) -> Vec<String> {
        let pending: Vec<(String, (NfFg, DeployHints))> =
            std::mem::take(&mut self.pending).into_iter().collect();
        let mut deployed = Vec::new();
        for (gid, (graph, hints)) in pending {
            if self.graphs.contains_key(&gid) {
                // A live deployment supersedes the parked copy (the
                // operator re-deployed it since the failure; the park
                // window was stamped then).
                self.parked_at.remove(&gid);
                continue;
            }
            match self.deploy_fresh(&graph, &hints) {
                Ok(_) => {
                    self.stamp_park_drain(&gid);
                    deployed.push(gid);
                }
                Err(_) => {
                    self.pending.insert(gid, (graph, hints));
                }
            }
        }
        deployed
    }
}
