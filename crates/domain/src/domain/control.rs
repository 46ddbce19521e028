//! The graph lifecycle: **plan → commit | release**.
//!
//! Every operation that changes what a graph has installed — deploy,
//! update, reactive repair, standby promotion, from-scratch
//! re-placement, retry of a parked graph — builds a [`Plan`] its own
//! way (no pins; survivor pins and exact vid reuse; the repair inputs;
//! a plan staged at Suspect time; parked hints) and hands it to the one
//! [`Domain::commit`], which reconciles the fleet against it and owns
//! the rollback. A plan that is not committed goes back through
//! [`Domain::release_plan`]. The overlay vid pool is written from
//! exactly four places: the allocator in [`Domain::plan_ctx`],
//! `release_plan`, `commit` and [`Domain::teardown`].

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Mutex;
use std::time::Instant;

use un_core::DeployReport;
use un_ipsec::SecurityAssociation;
use un_nffg::{validate, NfFg};
use un_sim::DetRng;

use super::{
    DeployHints, Domain, DomainConfig, DomainError, DomainGraph, DomainReport, LinkState,
    OVERLAY_VID_MAX,
};
use crate::partition::{install_transit, partition, OverlayLink, Partition, PartitionError};
use crate::placement::{assign, assign_endpoints};
use crate::sharing::{elect, ShareKey, SharedClaim, SharingError};
use crate::standby::GraphAvailability;

/// A computed (but not yet installed) deployment of one graph.
/// `pub(crate)` so [`crate::standby`] can hold pre-computed plans.
pub(crate) struct Plan {
    pub(crate) assignment: BTreeMap<String, String>,
    pub(crate) endpoints: BTreeMap<String, String>,
    pub(crate) partition: Partition,
    /// Fabric path per overlay link vid (`[from, …, to]`).
    pub(crate) paths: BTreeMap<u16, Vec<String>>,
    /// Shared-instance claims this plan rides (committed as leases once
    /// the plan installs).
    pub(crate) shared: BTreeMap<ShareKey, SharedClaim>,
    /// Vids this plan allocated fresh from the pool (reused vids stay
    /// owned by the live deployment). While a standby plan is staged,
    /// these are neither free nor in use: they are reserved.
    pub(crate) taken: Vec<u16>,
}

/// VLAN-id reuse directives for re-planning a live graph. Keys are
/// cut-edge identities; a hit keeps the vid — and with it the
/// synthesized `ovl-<vid>` endpoint id — stable, which is what lets a
/// surviving part come out of re-partitioning byte-identical.
#[derive(Default)]
pub(super) struct VidReuse {
    /// `(from, to, target)` → vid: both sides survive unchanged.
    exact: BTreeMap<(String, String, un_nffg::PortRef), u16>,
    /// `(from, target)` → vid: the sending side survives but the
    /// target's host died — the new receiver inherits the wire, so the
    /// sender's part (rules retargeted at `ovl-<vid>`) is untouched.
    from_side: BTreeMap<(String, un_nffg::PortRef), u16>,
    /// `(to, target)` → vid: the receiving side survives but the
    /// sender's host died — the receiver keeps its delivery rule and
    /// endpoint, the re-placed sender inherits the wire.
    to_side: BTreeMap<(String, un_nffg::PortRef), u16>,
}

impl VidReuse {
    /// Inheritance directives for re-planning a graph wired by `links`
    /// onto the `serving` fleet: a cut edge whose two sides survive
    /// keeps its vid, one with a single surviving side hands it to
    /// whoever replaces the other — either way the survivor's
    /// synthesized `ovl-<vid>` endpoint (and every rule referencing
    /// it) stays identical.
    pub(super) fn inherit(links: &[OverlayLink], serving: &[String]) -> Self {
        let mut reuse = VidReuse::default();
        for link in links {
            let (from, to) = (link.from_node.clone(), link.to_node.clone());
            let target = link.dst_target.clone();
            match (serving.contains(&from), serving.contains(&to)) {
                (true, true) => reuse.exact.insert((from, to, target), link.vid),
                (true, false) => reuse.from_side.insert((from, target), link.vid),
                (false, true) => reuse.to_side.insert((to, target), link.vid),
                (false, false) => None,
            };
        }
        reuse
    }

    /// The vid a new cut edge `(from, to, target)` should inherit.
    ///
    /// Side-map hits are **consumed**: two re-placed cut edges can
    /// legitimately share a surviving side (fan-in from two dead
    /// source nodes to one target), and handing the same vid to both
    /// would collide their synthesized endpoints — the second edge
    /// must take a fresh vid instead.
    fn lookup(&mut self, from: &str, to: &str, target: &un_nffg::PortRef) -> Option<u16> {
        if let Some(vid) = self
            .exact
            .get(&(from.to_string(), to.to_string(), target.clone()))
        {
            return Some(*vid);
        }
        self.from_side
            .remove(&(from.to_string(), target.clone()))
            .or_else(|| self.to_side.remove(&(to.to_string(), target.clone())))
    }
}

/// The entries of `placed` (NF or endpoint → node) whose node still
/// serves: the survivor pins of a re-plan.
pub(super) fn surviving(
    placed: &BTreeMap<String, String>,
    serving: &[String],
) -> BTreeMap<String, String> {
    placed
        .iter()
        .filter(|(_, node)| serving.contains(node))
        .map(|(id, node)| (id.clone(), node.clone()))
        .collect()
}

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

/// Derive a deterministic SA pair for one overlay link.
fn derive_link_sas(seed: u64, link: &OverlayLink) -> (SecurityAssociation, SecurityAssociation) {
    let mut rng = DetRng::new(seed ^ (u64::from(link.vid) << 16));
    let mut key = [0u8; 32];
    let mut salt = [0u8; 4];
    rng.fill(&mut key);
    rng.fill(&mut salt);
    let spi = 0x4f56_0000 | u32::from(link.vid); // 'OV' + vid
    let src = Ipv4Addr::new(10, 255, 255, 1);
    let dst = Ipv4Addr::new(10, 255, 255, 2);
    (
        SecurityAssociation::outbound(spi, src, dst, key, salt),
        SecurityAssociation::inbound(spi, src, dst, key, salt),
    )
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
        self.trace.count("graphs_deployed", 1);
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
        let none = BTreeMap::new();
        let plan = self.plan_ctx(graph, hints, &none, &none, VidReuse::default(), None, None)?;
        self.commit(None, graph, hints.clone(), plan)
            .inspect_err(|_| self.trace.count("deploys_rolled_back", 1))
    }

    /// Compute assignment + partition without touching any node; the
    /// only state a plan takes is the fresh vids it reserves.
    ///
    /// `nf_pins` / `ep_pins` force NFs and endpoints onto specific
    /// nodes (used to keep survivors in place across updates and
    /// repairs; they override the caller's hints). `reuse` maps
    /// cut-edge identities to the VLAN ids a live deployment of this
    /// graph already uses, so re-planning keeps unchanged overlay
    /// links (and their synthesized endpoint ids) stable — the
    /// property that lets rule-only updates apply in place, and that
    /// lets a repair leave surviving nodes' parts byte-identical.
    ///
    /// Standby planning adds two inputs: `exclude` pretends one
    /// (suspect) node is already dead, so the plan routes and places
    /// around it; `shared_standby` supplies pre-elected replacement
    /// hosts for shared replicas the excluded node carries.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn plan_ctx(
        &mut self,
        graph: &NfFg,
        hints: &DeployHints,
        nf_pins: &BTreeMap<String, String>,
        ep_pins: &BTreeMap<String, String>,
        mut reuse: VidReuse,
        exclude: Option<&str>,
        shared_standby: Option<&BTreeMap<ShareKey, String>>,
    ) -> Result<Plan, DomainError> {
        let plan_started = Instant::now();
        let (views, serving) = self.views_without(exclude);
        // Hop distances feed the scorer's path-length term and the
        // topology-aware endpoint/host choices; `None` in full-mesh
        // mode (every pair is one hop — skip the O(n²) matrix on big
        // fleets).
        let fabric_hops = self.config.topology.hop_matrix(&serving);
        let mut merged_ep_pins = hints.endpoint_node.clone();
        merged_ep_pins.extend(ep_pins.clone());
        let endpoint_node = assign_endpoints(graph, &views, &merged_ep_pins, fabric_hops.as_ref())?;
        let estimates = self.estimates(graph);
        let mut merged_pins = hints.nf_node.clone();
        merged_pins.extend(nf_pins.clone());
        // Fleet-level sharable-NNF claims: every enabled-type NF is
        // pinned onto the registry's host for its share key — the host
        // a live instance already has, or a freshly elected one. The
        // partitioner then cuts the tenant's edges toward that node
        // and the path engine routes them (multi-hop included), so the
        // graph rides the shared instance instead of instantiating its
        // own. An explicit `hints.nf_node` pin opts the NF out of the
        // registry; survivor pins are overridden (tenants converge on
        // the elected host).
        let mut shared: BTreeMap<ShareKey, SharedClaim> = BTreeMap::new();
        if self.config.sharing.enabled {
            let demand: BTreeSet<String> = endpoint_node.values().cloned().collect();
            for nf in &graph.nfs {
                if !self.config.sharing.types.contains(&nf.functional_type)
                    || hints.nf_node.contains_key(&nf.id)
                {
                    continue;
                }
                let key = ShareKey::of_nf(nf);
                if let Some(claim) = shared.get_mut(&key) {
                    // Second NF of the same key: same host, same lease.
                    merged_pins.insert(nf.id.clone(), claim.host.clone());
                    claim.nfs += 1;
                    continue;
                }
                // Replica choice, in decreasing order of stability:
                // (a) the replica this graph already leases (if its
                // host serves) — re-planning never migrates a tenant
                // gratuitously; (b) the serving replica with the most
                // lease headroom (fewest leases, host-name tie-break);
                // (c) a standby host pre-elected at Suspect time;
                // (d) a fresh election — the first instance of the
                // pool, a failover, or (when `scale_out` is on and
                // every serving replica is full) a second instance
                // that splits the tenancy instead of erroring.
                let standby_host: Option<String> = shared_standby
                    .and_then(|m| m.get(&key))
                    .filter(|h| serving.contains(*h))
                    .cloned();
                let mut chosen: Option<String> = self
                    .sharing
                    .replicas(&key)
                    .iter()
                    .find(|i| i.leases.contains_key(&graph.id))
                    .map(|i| i.host.clone())
                    .filter(|h| serving.contains(h));
                let mut full_host: Option<String> = None;
                if chosen.is_none() {
                    let mut best: Option<(usize, String)> = None;
                    for inst in self.sharing.replicas(&key) {
                        if !serving.contains(&inst.host) {
                            continue;
                        }
                        let leases = inst.leases.len();
                        if self
                            .config
                            .sharing
                            .max_leases
                            .is_some_and(|max| leases >= max)
                        {
                            full_host = Some(inst.host.clone());
                            continue;
                        }
                        let better = best
                            .as_ref()
                            .is_none_or(|(l, h)| leases < *l || (leases == *l && inst.host < *h));
                        if better {
                            best = Some((leases, inst.host.clone()));
                        }
                    }
                    chosen = best.map(|(_, h)| h).or(standby_host);
                }
                let host = match chosen {
                    Some(h) => h,
                    None => {
                        let scale_out = full_host.is_some();
                        if scale_out && !self.config.sharing.scale_out {
                            return Err(DomainError::Sharing(SharingError::CapacityExhausted {
                                key: key.render(),
                                host: full_host.expect("checked above"),
                                max_leases: self.config.sharing.max_leases.unwrap_or(0),
                            }));
                        }
                        // Node-level NNF singletons cannot host two
                        // instances of one type, so every host already
                        // carrying this functional type is excluded —
                        // sibling capability pools, same-key replicas
                        // (a scale-out must land elsewhere), AND the
                        // hosts this very plan claimed a few NFs ago.
                        let occupied: BTreeSet<String> = self
                            .sharing
                            .instances()
                            .filter(|i| i.key.functional_type == key.functional_type)
                            .map(|i| i.host.clone())
                            .chain(
                                shared
                                    .iter()
                                    .filter(|(k, _)| k.functional_type == key.functional_type)
                                    .map(|(_, c)| c.host.clone()),
                            )
                            .collect();
                        elect(
                            &key,
                            &self.config.sharing.election,
                            &views,
                            fabric_hops.as_ref(),
                            &demand,
                            &occupied,
                        )?
                    }
                };
                merged_pins.insert(nf.id.clone(), host.clone());
                shared.insert(key, SharedClaim { host, nfs: 1 });
            }
        }
        // Leases the graph already holds confine the scorer's per-node
        // shared-reuse bonus to the lease hosts (no double-counting;
        // one entry per capability pool).
        let mut held_leases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (key, claim) in self.sharing.leases_of(&graph.id) {
            held_leases
                .entry(key.functional_type)
                .or_default()
                .insert(claim.host);
        }
        let assignment = assign(
            graph,
            &views,
            &estimates,
            &endpoint_node,
            &merged_pins,
            &held_leases,
            hints.strategy.unwrap_or(self.config.strategy),
            fabric_hops.as_ref(),
        )?;
        // Reserve VLAN ids (fresh ones only; reused ids stay owned by
        // the live deployment), then route every cut edge over the
        // fabric: shortest usable path per link (no path may touch a
        // non-serving node). Multi-hop paths get transit rules
        // installed on intermediate nodes. Routing is capacity-aware:
        // edges already carrying pinned overlay paths repel new ones
        // in proportion to how thin they are (see
        // `Topology::shortest_path_loaded`). The graph's own live links
        // are excluded from the load map so re-planning never repels a
        // kept wire off the route it already rides.
        let fabric = self.config.fabric_port.clone();
        let mut taken: Vec<u16> = Vec::new();
        let partition_started = Instant::now();
        let staged = 'staged: {
            let part = {
                let free_vids = &mut self.free_vids;
                let next_vid = &mut self.next_vid;
                let mut alloc = |from: &str, to: &str, target: &un_nffg::PortRef| {
                    if let Some(vid) = reuse.lookup(from, to, target) {
                        return Some(vid);
                    }
                    let vid = free_vids.pop().or_else(|| {
                        if *next_vid > OVERLAY_VID_MAX {
                            None
                        } else {
                            let v = *next_vid;
                            *next_vid += 1;
                            Some(v)
                        }
                    })?;
                    taken.push(vid);
                    Some(vid)
                };
                partition(graph, &assignment, &endpoint_node, &fabric, &mut alloc)
            };
            let part = match part {
                Ok(part) => part,
                Err(PartitionError::VidExhausted) => {
                    break 'staged Err(DomainError::VidPoolExhausted)
                }
                Err(other) => break 'staged Err(other.into()),
            };
            self.obs.span(
                "domain.partition",
                partition_started,
                vec![
                    ("graph", graph.id.clone().into()),
                    ("parts", part.parts.len().into()),
                    ("links", part.links.len().into()),
                ],
            );
            let usable = |n: &str| serving.contains(n);
            let edge_key = |a: &str, b: &str| {
                if a <= b {
                    (a.to_string(), b.to_string())
                } else {
                    (b.to_string(), a.to_string())
                }
            };
            let mut edge_paths: BTreeMap<(String, String), u64> = BTreeMap::new();
            for state in self.links.values() {
                let state = state.lock().expect("link lock poisoned");
                if state.graph == graph.id {
                    continue;
                }
                for w in state.path.windows(2) {
                    *edge_paths.entry(edge_key(&w[0], &w[1])).or_insert(0) += 1;
                }
            }
            // Only *other* graphs' pinned paths load the map: the links
            // of one plan keep the old lexicographic tie-break among
            // themselves, so a graph's wires stay co-routed (and
            // re-plans stay stable).
            let edge_load =
                |a: &str, b: &str| edge_paths.get(&edge_key(a, b)).copied().unwrap_or(0);
            let mut paths: BTreeMap<u16, Vec<String>> = BTreeMap::new();
            for link in &part.links {
                let Some(path) = self.config.topology.shortest_path_loaded(
                    &link.from_node,
                    &link.to_node,
                    &usable,
                    &edge_load,
                ) else {
                    break 'staged Err(DomainError::NoRoute {
                        from: link.from_node.clone(),
                        to: link.to_node.clone(),
                    });
                };
                paths.insert(link.vid, path);
            }
            Ok((part, paths))
        };
        let (mut part, paths) = match staged {
            Ok(staged) => staged,
            Err(e) => {
                // The plan cannot stand: its fresh ids go straight back.
                self.free_vids.extend(taken);
                return Err(e);
            }
        };
        let transit_started = Instant::now();
        install_transit(graph, &mut part.parts, &part.links, &paths, &fabric);
        if self.obs.is_enabled() {
            let multi_hop = paths.values().filter(|p| p.len() > 2).count();
            self.obs.span(
                "domain.install_transit",
                transit_started,
                vec![
                    ("graph", graph.id.clone().into()),
                    ("multi_hop_links", multi_hop.into()),
                ],
            );
            self.obs.span(
                "domain.plan",
                plan_started,
                vec![
                    ("graph", graph.id.clone().into()),
                    ("parts", part.parts.len().into()),
                    ("links", part.links.len().into()),
                    ("shared_claims", shared.len().into()),
                ],
            );
        }
        Ok(Plan {
            assignment,
            endpoints: endpoint_node,
            partition: part,
            paths,
            shared,
            taken,
        })
    }

    /// Commit a successfully installed plan's shared claims as leases,
    /// releasing leases the graph no longer claims (dropping instances
    /// whose last tenant left).
    fn commit_shared(&mut self, gid: &str, claims: &BTreeMap<ShareKey, SharedClaim>) {
        let keep: BTreeSet<ShareKey> = claims.keys().cloned().collect();
        let dropped = self.sharing.release_except(gid, &keep);
        self.trace
            .count("shared_instances_dropped", dropped.len() as u64);
        for (key, claim) in claims {
            let (instance_new, lease_new, replicas_dropped) =
                self.sharing.commit(gid, key, &claim.host, claim.nfs);
            if instance_new {
                self.trace.count("shared_instances_registered", 1);
                // A new replica beside a live one is a scale-out —
                // counted here, where it becomes real, not at plan
                // time (a plan may be staged and never committed).
                if self.sharing.replicas(key).len() > 1 {
                    self.trace.count("shared_scale_outs", 1);
                    self.obs.event(
                        "domain.shared.scale_out",
                        vec![
                            ("key", key.render().into()),
                            ("host", claim.host.clone().into()),
                        ],
                    );
                }
            }
            if replicas_dropped > 0 {
                // A lease move emptied sibling replica(s) of the pool.
                self.trace
                    .count("shared_instances_dropped", replicas_dropped as u64);
            }
            if lease_new {
                self.trace.count("shared_leases_acquired", 1);
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
        let dropped = self.sharing.release_graph(gid);
        // Only graphs that actually ride shared instances are worth an
        // event — every undeploy funnels through here.
        if self.config.sharing.enabled {
            self.obs.event(
                "domain.lease.release",
                vec![
                    ("graph", gid.into()),
                    ("instances_dropped", dropped.len().into()),
                ],
            );
        }
        self.trace
            .count("shared_instances_dropped", dropped.len() as u64);
    }

    /// Scheduler RAM estimates for every NF of a graph (representative
    /// node; the fleet shares one repository).
    fn estimates(&self, graph: &NfFg) -> BTreeMap<String, u64> {
        let probe = self
            .nodes
            .values()
            .find(|m| m.health.is_serving())
            .map(|m| &m.node);
        graph
            .nfs
            .iter()
            .map(|nf| {
                let est = probe
                    .and_then(|n| n.estimate_nf_ram(&nf.functional_type, nf.flavor.as_deref()))
                    .unwrap_or(64 << 20);
                (nf.id.clone(), est)
            })
            .collect()
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
    ///   packet/byte totals, SA material and replay windows carry
    ///   across — with peer routing and the pinned path updated in
    ///   place (per-hop counters restart only on a rerouted wire);
    ///   vids the plan dropped return to the pool, fresh ones register;
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
                    self.free_vids.extend(plan.taken);
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
                    self.free_vids.push(link.vid);
                }
            }
        }
        let mut links_up = 0u64;
        for link in &plan.partition.links {
            let path = &plan.paths[&link.vid];
            let hops = path.len() - 1;
            match self.links.entry(link.vid) {
                Entry::Vacant(slot) => {
                    let sas = self
                        .config
                        .protect_overlay
                        .then(|| Box::new(derive_link_sas(self.config.seed, link)));
                    slot.insert(Mutex::new(LinkState {
                        link: link.clone(),
                        graph: gid.to_string(),
                        path: path.clone(),
                        hop_latency_ns: hop_latencies(&self.config, path),
                        sas,
                        packets: 0,
                        bytes: 0,
                        hop_packets: vec![0; hops],
                        hop_bytes: vec![0; hops],
                    }));
                    links_up += 1;
                }
                Entry::Occupied(mut slot) => {
                    let state = slot.get_mut().get_mut().expect("link lock poisoned");
                    if state.link.from_node == link.from_node && state.link.to_node == link.to_node
                    {
                        done.links_kept += 1;
                    }
                    state.link = link.clone();
                    if state.path != *path {
                        // The hop axis changed identity; totals
                        // survive, per-hop counters restart.
                        state.path = path.clone();
                        state.hop_latency_ns = hop_latencies(&self.config, path);
                        state.hop_packets = vec![0; hops];
                        state.hop_bytes = vec![0; hops];
                        self.trace.count("overlay_paths_rerouted", 1);
                    }
                }
            }
        }
        done.links_rewired = plan.partition.links.len() - done.links_kept;
        self.trace.count("overlay_links_up", links_up);
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
        self.free_vids.extend(plan.taken);
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
            self.free_vids.push(link.vid);
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
        self.trace.count(
            if diff.is_structural() {
                "graph_updates_structural"
            } else {
                "graph_updates_rules"
            },
            1,
        );
        let hints = existing.hints.clone();
        // Keep surviving NFs where they run today (suspect nodes are
        // still "today" — an unrelated update must not migrate them),
        // and unchanged cut edges on their VLAN id (and thus their
        // synthesized endpoint id), so a rules-only update leaves the
        // parts' endpoint sets intact and applies in place per node.
        let serving = self.serving_nodes();
        let pins = surviving(&existing.assignment, &serving);
        let reuse = VidReuse::inherit(&existing.partition.links, &serving);
        // A plan that cannot stand leaves the graph — and the standbys
        // staged for it — exactly as they were.
        let plan = self.plan_ctx(graph, &hints, &pins, &BTreeMap::new(), reuse, None, None)?;
        let old = self.graphs.remove(&graph.id).expect("looked up above");
        match self.commit(Some(&old), graph, hints, plan) {
            Ok(done) => Ok(done.report(&graph.id)),
            Err(e) => {
                self.teardown(&old);
                self.release_shared(&graph.id);
                self.trace.count("updates_failed", 1);
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
        self.trace.count("graphs_undeployed", 1);
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
            self.trace.count("park_drains", 1);
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
