//! Planning is a function of a view: [`plan`] compiles the graph's NF
//! configs and decides where the graph goes — endpoints, shared
//! instances, NFs, the cut, the route of every cut edge — and installs
//! nothing. It reads one [`FleetView`] (filled in by
//! [`super::Domain::planner`]; [`FleetView::without`] makes it the fleet
//! "as if that node were dead"), one [`Constraints`] says what the
//! graph's live deployment pins, and all it writes is the [`VidPool`] it
//! draws fresh overlay vids from.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use un_core::{compile, Programs, UniversalNode};
use un_nffg::{NfFg, PortRef};

use super::{DeployHints, DomainConfig, DomainError, DomainGraph};
use crate::partition::{install_transit, partition, OverlayLink, Partition, PartitionError};
use crate::placement::{assign, assign_endpoints, NodeView};
use crate::sharing::{claim_shared, ShareKey, SharedClaim, SharedRegistry};

/// Last valid VLAN id usable by the overlay pool.
const OVERLAY_VID_MAX: u16 = 4094;

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
    /// Each NF's compiled config, by NF id: what every node is handed
    /// with its part.
    pub(crate) programs: Programs,
}

/// The overlay VLAN id pool (`base..=4094`): ids handed back are
/// reused last-in-first-out before a new one is minted.
pub(super) struct VidPool {
    free_vids: Vec<u16>,
    next_vid: u16,
}

impl VidPool {
    pub(super) fn new(base: u16) -> Self {
        VidPool {
            free_vids: Vec::new(),
            next_vid: base,
        }
    }

    /// Take one id, or `None` (and nothing) when the pool is spent.
    pub(super) fn alloc(&mut self) -> Option<u16> {
        if let Some(vid) = self.free_vids.pop() {
            return Some(vid);
        }
        if self.next_vid > OVERLAY_VID_MAX {
            return None;
        }
        self.next_vid += 1;
        Some(self.next_vid - 1)
    }

    /// Hand ids back.
    pub(super) fn release(&mut self, vids: impl IntoIterator<Item = u16>) {
        self.free_vids.extend(vids);
    }

    /// `(next id to mint, free ids in ascending order)`.
    pub(super) fn accounting(&self) -> (u16, Vec<u16>) {
        let mut free = self.free_vids.clone();
        free.sort_unstable();
        (self.next_vid, free)
    }
}

/// VLAN-id reuse directives for re-planning a live graph. Keys are
/// cut-edge identities; a hit keeps the vid — and with it the
/// synthesized `ovl-<vid>` endpoint id — stable, which is what lets a
/// surviving part come out of re-partitioning byte-identical.
#[derive(Default)]
pub(super) struct VidReuse {
    /// `(from, to, target)` → vid: both sides survive unchanged.
    exact: BTreeMap<(String, String, PortRef), u16>,
    /// `(from, target)` → vid: the sending side survives but the
    /// target's host died — the new receiver inherits the wire, so the
    /// sender's part (rules retargeted at `ovl-<vid>`) is untouched.
    from_side: BTreeMap<(String, PortRef), u16>,
    /// `(to, target)` → vid: the receiving side survives but the
    /// sender's host died — the receiver keeps its delivery rule and
    /// endpoint, the re-placed sender inherits the wire.
    to_side: BTreeMap<(String, PortRef), u16>,
}

impl VidReuse {
    /// Inheritance directives for re-planning a graph wired by `links`
    /// onto the `serving` fleet: a cut edge whose two sides survive
    /// keeps its vid, one with a single surviving side hands it to
    /// whoever replaces the other — either way the survivor's
    /// synthesized `ovl-<vid>` endpoint (and every rule referencing
    /// it) stays identical.
    fn inherit(links: &[OverlayLink], serving: &BTreeSet<String>) -> Self {
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
    /// A side-map vid already in `spent` is **gone**: two re-placed cut
    /// edges can legitimately share a surviving side (fan-in from two
    /// dead source nodes to one target), and handing the same vid to
    /// both would collide their synthesized endpoints — the second edge
    /// must take a fresh vid instead.
    fn lookup(&self, from: &str, to: &str, target: &PortRef, spent: &[u16]) -> Option<u16> {
        if let Some(vid) = self
            .exact
            .get(&(from.to_string(), to.to_string(), target.clone()))
        {
            return Some(*vid);
        }
        let unspent = |vid: &&u16| !spent.contains(vid);
        self.from_side
            .get(&(from.to_string(), target.clone()))
            .filter(unspent)
            .or_else(|| {
                self.to_side
                    .get(&(to.to_string(), target.clone()))
                    .filter(unspent)
            })
            .copied()
    }
}

/// The entries of `placed` (NF or endpoint → node) whose node still
/// serves: the survivor pins of a re-plan.
fn surviving(
    placed: &BTreeMap<String, String>,
    serving: &BTreeSet<String>,
) -> BTreeMap<String, String> {
    placed
        .iter()
        .filter(|(_, node)| serving.contains(*node))
        .map(|(id, node)| (id.clone(), node.clone()))
        .collect()
}

/// `hints` with every pin that no longer points at a serving node
/// dropped, so the scheduler may move what the pin held (interface
/// availability decides).
pub(super) fn serving_hints(hints: &DeployHints, serves: impl Fn(&str) -> bool) -> DeployHints {
    let mut hints = hints.clone();
    hints.endpoint_node.retain(|_, n| serves(n));
    hints.nf_node.retain(|_, n| serves(n));
    hints
}

/// What the live deployment of a graph constrains in its next plan.
pub(super) struct Constraints {
    /// The caller's hints, as the new deployment will record them.
    pub(super) hints: DeployHints,
    /// NFs kept where they run (they override `hints`).
    nf_pins: BTreeMap<String, String>,
    /// Endpoints kept where they sit (they override `hints`).
    ep_pins: BTreeMap<String, String>,
    reuse: VidReuse,
}

impl Constraints {
    /// Deploy, retry of a parked graph, from-scratch re-placement:
    /// nothing is installed, so nothing is pinned or inherited.
    pub(super) fn fresh(hints: &DeployHints) -> Self {
        Constraints {
            hints: hints.clone(),
            nf_pins: BTreeMap::new(),
            ep_pins: BTreeMap::new(),
            reuse: VidReuse::default(),
        }
    }

    /// Update: NFs stay where they run today (a suspect node is still
    /// "today" — an unrelated update must not migrate them) and
    /// unchanged cut edges keep their vid, so a rules-only update
    /// leaves every part's endpoint set intact and applies in place.
    pub(super) fn update(live: &DomainGraph, serving: &BTreeSet<String>) -> Self {
        Constraints {
            hints: live.hints.clone(),
            nf_pins: surviving(&live.assignment, serving),
            ep_pins: BTreeMap::new(),
            reuse: VidReuse::inherit(&live.partition.links, serving),
        }
    }

    /// Incremental repair, reactive or staged at Suspect time: what
    /// survives is pinned (NFs, endpoints, the hints pruned to them)
    /// and vids are inherited across the cut, so only the nodes whose
    /// part changes are touched.
    pub(super) fn repair(live: &DomainGraph, serving: &BTreeSet<String>) -> Self {
        Constraints {
            hints: serving_hints(&live.hints, |n| serving.contains(n)),
            nf_pins: surviving(&live.assignment, serving),
            ep_pins: surviving(&live.endpoints, serving),
            reuse: VidReuse::inherit(&live.partition.links, serving),
        }
    }
}

/// Everything planning reads, gathered by [`super::Domain::planner`].
pub(crate) struct FleetView<'a> {
    /// One view per node in `serving`, in name order.
    pub(crate) views: Vec<NodeView<'a>>,
    /// The nodes a plan may place on and route through.
    pub(crate) serving: BTreeSet<String>,
    /// Hop distances between serving nodes; `None` in full-mesh mode
    /// (every pair is one hop — the O(n²) matrix is skipped).
    pub(crate) fabric_hops: Option<BTreeMap<String, BTreeMap<String, u32>>>,
    /// The owning graph of each pinned overlay path riding a fabric
    /// edge (keyed by its two ends in name order). Left empty in
    /// full-mesh mode, where routing never asks.
    pub(super) edge_riders: BTreeMap<(&'a str, &'a str), Vec<&'a str>>,
    /// Representative node for RAM estimates (one NF repository).
    pub(super) probe: Option<&'a UniversalNode>,
    pub(super) graphs: &'a BTreeMap<String, DomainGraph>,
    pub(crate) sharing: &'a SharedRegistry,
    pub(crate) config: &'a DomainConfig,
    pub(super) obs: &'a un_obs::Obs,
    /// Replacement hosts pre-elected for the shared instances on the
    /// node [`FleetView::without`] counted out.
    pub(crate) shared_standby: BTreeMap<ShareKey, String>,
}

impl FleetView<'_> {
    /// The same fleet with `node` counted out whether or not it still
    /// serves: what a plan staged for a suspect is computed against.
    pub(super) fn without(mut self, node: &str) -> Self {
        if self.serving.remove(node) {
            self.views.retain(|v| v.name != node);
            self.fabric_hops = self.config.topology.hop_matrix(&self.serving);
        }
        self
    }

    /// Scheduler RAM estimate for every NF of `graph`.
    fn estimates(&self, graph: &NfFg) -> BTreeMap<String, u64> {
        graph
            .nfs
            .iter()
            .map(|nf| {
                let est = self
                    .probe
                    .and_then(|n| n.estimate_nf_ram(&nf.functional_type, nf.flavor.as_deref()))
                    .unwrap_or(64 << 20);
                (nf.id.clone(), est)
            })
            .collect()
    }

    /// Pinned paths of graphs other than `gid` riding the `a – b` edge.
    /// A graph's own live wires do not load the map, so re-planning
    /// never repels a kept wire off the route it already rides.
    fn edge_load(&self, gid: &str, a: &str, b: &str) -> u64 {
        let riders = self.edge_riders.get(&(a.min(b), a.max(b)));
        riders.map_or(0, |r| r.iter().filter(|g| **g != gid).count() as u64)
    }
}

/// Compiled configs + assignment + partition + routes for `graph` on
/// the fleet `view` shows, under the constraints `c` of its live
/// deployment. No node and no registry is touched: all a plan takes is
/// the fresh vids it draws from `vids` (`plan.taken`), and one that
/// cannot stand gives those back before it returns its error. A config
/// that does not compile is refused first, before any vid is drawn.
pub(super) fn plan(
    view: &FleetView<'_>,
    vids: &mut VidPool,
    graph: &NfFg,
    c: &Constraints,
) -> Result<Plan, DomainError> {
    let plan_started = Instant::now();
    let programs = compile(graph)?;
    let fabric_hops = view.fabric_hops.as_ref();
    let mut ep_pins = c.hints.endpoint_node.clone();
    ep_pins.extend(c.ep_pins.clone());
    let endpoints = assign_endpoints(graph, &view.views, &ep_pins, fabric_hops)?;
    let mut nf_pins = c.hints.nf_node.clone();
    nf_pins.extend(c.nf_pins.clone());
    // An explicit `hints.nf_node` pin opts an NF out of the sharing
    // registry; survivor pins are overridden (tenants converge on the
    // elected host).
    let shared = if view.config.sharing.enabled {
        claim_shared(view, graph, &c.hints.nf_node, &endpoints, &mut nf_pins)?
    } else {
        BTreeMap::new()
    };
    // Leases the graph already holds confine the scorer's per-node
    // shared-reuse bonus to the lease host (no double-counting).
    let held_leases: BTreeMap<String, String> = view
        .sharing
        .leases_of(&graph.id)
        .into_iter()
        .map(|(key, claim)| (key.functional_type, claim.host))
        .collect();
    let assignment = assign(
        graph,
        &view.views,
        &view.estimates(graph),
        &endpoints,
        &nf_pins,
        &held_leases,
        c.hints.strategy.unwrap_or_default(),
        fabric_hops,
    )?;
    let mut taken = Vec::new();
    let (mut part, paths) = cut_and_route(
        view,
        vids,
        graph,
        &c.reuse,
        &assignment,
        &endpoints,
        &mut taken,
    )?;
    let fabric = &view.config.fabric_port;
    let transit_started = Instant::now();
    let parts = Arc::make_mut(&mut part.parts);
    install_transit(graph, parts, &part.links, &paths, fabric);
    if view.obs.is_enabled() {
        let multi_hop = paths.values().filter(|p| p.len() > 2).count();
        view.obs.span(
            "domain.install_transit",
            transit_started,
            vec![
                ("graph", graph.id.clone().into()),
                ("multi_hop_links", multi_hop.into()),
            ],
        );
        view.obs.span(
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
        endpoints,
        partition: part,
        paths,
        shared,
        taken,
        programs,
    })
}

/// Cut `graph` along its NF and endpoint assignments and route every
/// cut edge. The fresh vids drawn from `vids` are recorded
/// in `taken` (inherited ones stay owned by the live deployment); on
/// error they are already back in the pool. Every link rides the
/// shortest path over serving nodes, and edges already carrying other
/// graphs' pinned paths repel new ones in proportion to how thin they
/// are (`Topology::shortest_path_loaded`). The links of one plan keep
/// the lexicographic tie-break among themselves, so a graph's wires
/// stay co-routed and re-plans stay stable.
fn cut_and_route(
    view: &FleetView<'_>,
    vids: &mut VidPool,
    graph: &NfFg,
    reuse: &VidReuse,
    assignment: &BTreeMap<String, String>,
    endpoints: &BTreeMap<String, String>,
    taken: &mut Vec<u16>,
) -> Result<(Partition, BTreeMap<u16, Vec<String>>), DomainError> {
    let partition_started = Instant::now();
    let mut inherited = Vec::new();
    let mut alloc = |from: &str, to: &str, target: &PortRef| {
        if let Some(vid) = reuse.lookup(from, to, target, &inherited) {
            inherited.push(vid);
            return Some(vid);
        }
        let vid = vids.alloc()?;
        taken.push(vid);
        Some(vid)
    };
    let fabric = &view.config.fabric_port;
    let routed = partition(graph, assignment, endpoints, fabric, &mut alloc)
        .map_err(|e| match e {
            PartitionError::VidExhausted => DomainError::VidPoolExhausted,
            other => other.into(),
        })
        .and_then(|part| {
            view.obs.span(
                "domain.partition",
                partition_started,
                vec![
                    ("graph", graph.id.clone().into()),
                    ("parts", part.parts.len().into()),
                    ("links", part.links.len().into()),
                ],
            );
            let usable = |n: &str| view.serving.contains(n);
            let edge_load = |a: &str, b: &str| view.edge_load(&graph.id, a, b);
            let mut paths: BTreeMap<u16, Vec<String>> = BTreeMap::new();
            for link in &part.links {
                let (from, to) = (&link.from_node, &link.to_node);
                let path = view
                    .config
                    .topology
                    .shortest_path_loaded(from, to, &usable, &edge_load)
                    .ok_or_else(|| DomainError::NoRoute {
                        from: from.clone(),
                        to: to.clone(),
                    })?;
                paths.insert(link.vid, path);
            }
            Ok((part, paths))
        });
    // A plan that cannot stand gives its fresh ids straight back.
    routed.inspect_err(|_| vids.release(taken.drain(..)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_last_in_first_out_then_mints() {
        let mut pool = VidPool::new(3000);
        assert_eq!(
            [pool.alloc(), pool.alloc(), pool.alloc()],
            [Some(3000), Some(3001), Some(3002)]
        );
        pool.release([3000, 3002]);
        assert_eq!(pool.alloc(), Some(3002), "last released, first reused");
        assert_eq!(pool.alloc(), Some(3000));
        assert_eq!(pool.alloc(), Some(3003), "free list empty: mint");
    }

    #[test]
    fn spent_pool_returns_none_and_takes_nothing() {
        let mut pool = VidPool::new(OVERLAY_VID_MAX);
        assert_eq!(pool.alloc(), Some(OVERLAY_VID_MAX));
        let spent = pool.accounting();
        assert_eq!(pool.alloc(), None);
        assert_eq!(pool.accounting(), spent);
        // A release makes the id allocatable again, and only that id.
        pool.release([OVERLAY_VID_MAX]);
        assert_eq!(pool.alloc(), Some(OVERLAY_VID_MAX));
        assert_eq!(pool.alloc(), None);
    }

    #[test]
    fn accounting_partitions_base_to_next() {
        let base = 4000;
        let mut pool = VidPool::new(base);
        let mut held: Vec<u16> = (0..7).map(|_| pool.alloc().unwrap()).collect();
        pool.release([held.remove(5), held.remove(1), held.remove(2)]);
        held.push(pool.alloc().unwrap());
        let (next, free) = pool.accounting();
        assert!(free.is_sorted());
        let mut all: Vec<u16> = free.into_iter().chain(held).collect();
        all.sort_unstable();
        assert_eq!(all, (base..next).collect::<Vec<u16>>());
    }
}
