//! Fleet-level placement: which node runs each NF of a graph.
//!
//! Layered on `un_core::placement` conceptually: that module answers
//! *how* an NF runs on a node (NNF vs VNF flavor); this one answers
//! *where*. The policy mirrors the paper's preferences at domain scale:
//!
//! 1. a node already running a joinable **shared NNF** of the type is
//!    free capacity — reuse it;
//! 2. a node whose NNF catalog offers the type natively beats one that
//!    would have to fall back to Docker/VM;
//! 3. co-locating rule-adjacent NFs avoids overlay hops; when the
//!    fabric is an explicit topology, a **path-length term** extends
//!    this: placing an NF topologically far from an already-placed
//!    neighbor is penalized per extra hop, so chained NFs drift toward
//!    close racks even when they cannot share one node;
//! 4. ties break by memory: [`PlacementStrategy::Pack`] fills the
//!    fullest feasible node (classic bin-packing, frees whole nodes),
//!    [`PlacementStrategy::Spread`] picks the emptiest (load balance).
//!
//! A node is a candidate by having a [`NodeView`]; a pin to one without
//! is refused.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use un_nffg::{NfFg, PortRef};

use crate::topology::Topology;

/// What the domain scheduler knows about one node. Only a serving node
/// has a view: a node that fails, or that `FleetView::without` counts
/// out, leaves the list, so every view is a candidate. A view is built
/// per planning call, so its sets borrow the node's own type and port
/// names instead of copying them.
#[derive(Debug, Clone)]
pub struct NodeView<'a> {
    /// Node name (fleet-unique).
    pub name: String,
    /// Memory not yet committed.
    pub free_memory: u64,
    /// Total memory capacity.
    pub capacity: u64,
    /// Functional types offered as native NFs.
    pub native_types: BTreeSet<&'a str>,
    /// Functional types with a running, joinable shared NNF.
    pub shared_running: BTreeSet<&'a str>,
    /// Functional types whose catalog descriptor marks a single
    /// instance *sharable* across graphs (the nodes eligible to host a
    /// domain-shared instance).
    pub sharable_types: BTreeSet<&'a str>,
    /// Physical interface names (for endpoint placement).
    pub ports: BTreeSet<&'a str>,
}

/// Tie-breaking goal of the assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Bin-pack: fill the fullest feasible node first.
    #[default]
    Pack,
    /// Spread: place on the emptiest feasible node.
    Spread,
}

/// Why an assignment could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// No node is alive.
    NoNodes,
    /// No alive node can fit this NF (estimated bytes needed).
    NoCapacity { nf: String, needed: u64 },
    /// A pinned node is unknown or dead.
    BadPin { nf: String, node: String },
    /// An interface endpoint names an interface no alive node has.
    NoSuchInterface { endpoint: String, if_name: String },
    /// A pinned endpoint node is unknown, dead, or lacks the interface.
    BadEndpointPin { endpoint: String, node: String },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NoNodes => write!(f, "no alive nodes in the domain"),
            PlaceError::NoCapacity { nf, needed } => {
                write!(f, "no node can fit NF '{nf}' ({needed} bytes)")
            }
            PlaceError::BadPin { nf, node } => {
                write!(f, "NF '{nf}' pinned to unusable node '{node}'")
            }
            PlaceError::NoSuchInterface { endpoint, if_name } => {
                write!(
                    f,
                    "endpoint '{endpoint}': no alive node has interface '{if_name}'"
                )
            }
            PlaceError::BadEndpointPin { endpoint, node } => {
                write!(f, "endpoint '{endpoint}' pinned to unusable node '{node}'")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Interface name an endpoint needs, if any.
fn endpoint_iface(ep: &un_nffg::Endpoint) -> Option<&str> {
    match &ep.kind {
        un_nffg::EndpointKind::Interface { if_name }
        | un_nffg::EndpointKind::Vlan { if_name, .. } => Some(if_name.as_str()),
        un_nffg::EndpointKind::Internal { .. } => None,
    }
}

/// Assign every endpoint of `graph` to a node.
///
/// Pinned endpoints are honored (and verified). With an explicit
/// fabric topology (`fabric_hops` is the hop matrix), an unpinned
/// interface/VLAN endpoint goes to the **topologically closest**
/// owner of the interface — closest meaning minimum total hop distance
/// to the endpoints already assigned (pins first, then declaration
/// order), so a graph's endpoints cluster and the overlay paths
/// between them stay short. Ties, the very first endpoint, and
/// full-mesh mode (`None`) keep the old first-owner choice; internal
/// endpoints go to the anchor (first viewed) node.
pub fn assign_endpoints(
    graph: &NfFg,
    views: &[NodeView<'_>],
    pins: &BTreeMap<String, String>,
    fabric_hops: Option<&BTreeMap<String, BTreeMap<String, u32>>>,
) -> Result<BTreeMap<String, String>, PlaceError> {
    let anchor = views
        .first()
        .map(|v| v.name.clone())
        .ok_or(PlaceError::NoNodes)?;
    let mut out = BTreeMap::new();
    // Pinned endpoints first: they anchor the distance scoring below.
    for ep in &graph.endpoints {
        let Some(pin) = pins.get(&ep.id) else {
            continue;
        };
        let if_name = endpoint_iface(ep);
        let ok = views
            .iter()
            .any(|v| v.name == *pin && if_name.is_none_or(|i| v.ports.contains(i)));
        if !ok {
            return Err(PlaceError::BadEndpointPin {
                endpoint: ep.id.clone(),
                node: pin.clone(),
            });
        }
        out.insert(ep.id.clone(), pin.clone());
    }
    for ep in &graph.endpoints {
        if out.contains_key(&ep.id) {
            continue;
        }
        let node = if let Some(if_name) = endpoint_iface(ep) {
            let owners: Vec<&NodeView<'_>> =
                views.iter().filter(|v| v.ports.contains(if_name)).collect();
            if owners.is_empty() {
                return Err(PlaceError::NoSuchInterface {
                    endpoint: ep.id.clone(),
                    if_name: if_name.to_string(),
                });
            }
            match fabric_hops {
                // Full mesh: every owner is one hop from everything.
                None => owners[0].name.clone(),
                Some(_) => {
                    // Closest owner to the endpoints placed so far;
                    // stable (first-owner) on ties and when nothing is
                    // placed yet.
                    let mut best: (&NodeView<'_>, u64) = (owners[0], u64::MAX);
                    for owner in &owners {
                        let score: u64 = out
                            .values()
                            .map(|n| u64::from(Topology::hop_distance(fabric_hops, &owner.name, n)))
                            .sum();
                        if score < best.1 {
                            best = (owner, score);
                        }
                    }
                    best.0.name.clone()
                }
            }
        } else {
            anchor.clone()
        };
        out.insert(ep.id.clone(), node);
    }
    Ok(out)
}

/// Per-peer score bonus for landing on the same node as an adjacent
/// NF/endpoint (below shared/native preference, above the memory
/// tie-break).
const COLOCATE_BONUS: i64 = 10_000;
/// Per-peer, per-extra-hop penalty when the candidate node is more
/// than one fabric hop from an already-placed neighbor. Strong enough
/// to beat the memory tie-break (max 9_999) from two extra hops on,
/// and to dominate it even at one extra hop unless memory differs by
/// gigabytes.
const PATH_PENALTY_PER_HOP: i64 = 4_000;
/// Assign every NF of `graph` to a node.
///
/// `estimates` maps NF id → estimated RAM; `endpoint_node` is the
/// (already computed) endpoint assignment, used for adjacency scoring;
/// `pins` forces specific NFs onto specific nodes (used to keep
/// surviving NFs in place across updates and re-placements).
///
/// `held_leases` maps each functional type to the host of the
/// domain-shared instance this graph **already holds a lease on** (one
/// instance, so one host, per type). The per-node shared-reuse bonus
/// (and its free-capacity treatment) then applies only on that host:
/// without the restriction, two NFs of one sharable type could be
/// scattered across *different* nodes' shared instances — the graph
/// would hold one lease but consume two instances, double-counting
/// the reuse the lease accounts for.
///
/// `fabric_hops` is the hop-distance matrix of the fabric topology
/// (`Topology::hop_matrix`): `None` means full mesh — every pair one
/// hop apart, no path-length term. With an explicit topology, each
/// already-placed neighbor at distance `d > 1` costs the candidate
/// `PATH_PENALTY_PER_HOP × (d − 1)`, biasing chained NFs toward
/// topologically close nodes. Reachability is a hard preference, not
/// just a penalty: a candidate that can route to every node the graph
/// already occupies (endpoint nodes and previously placed NFs — not
/// just this NF's direct neighbors, which may all be unplaced when it
/// is scored) beats any candidate that cannot, regardless of shared/
/// native bonuses — otherwise the scorer could pick a fabric-isolated
/// node and turn a feasible deploy into a `NoRoute` failure. Fully
/// disconnected candidates stay eligible as a last resort (scored with
/// `UNREACHABLE_HOPS` per unreachable peer) so an impossible placement
/// still surfaces as the more descriptive routing error downstream.
#[allow(clippy::too_many_arguments)] // a scheduler input per concern, all orthogonal
pub fn assign(
    graph: &NfFg,
    views: &[NodeView<'_>],
    estimates: &BTreeMap<String, u64>,
    endpoint_node: &BTreeMap<String, String>,
    pins: &BTreeMap<String, String>,
    held_leases: &BTreeMap<String, String>,
    strategy: PlacementStrategy,
    fabric_hops: Option<&BTreeMap<String, BTreeMap<String, u32>>>,
) -> Result<BTreeMap<String, String>, PlaceError> {
    if views.is_empty() {
        return Err(PlaceError::NoNodes);
    }
    // A node's shared instance is only "free reuse" for this graph if
    // the graph does not already hold a lease on the same type
    // elsewhere (see `held_leases` above).
    let joinable = |view: &NodeView<'_>, functional_type: &str| {
        view.shared_running.contains(functional_type)
            && held_leases
                .get(functional_type)
                .is_none_or(|host| *host == view.name)
    };
    // Running free-memory picture as NFs are placed.
    let mut free: BTreeMap<&str, u64> = views
        .iter()
        .map(|v| (v.name.as_str(), v.free_memory))
        .collect();

    // Rule adjacency: NF ↔ NF and NF ↔ endpoint, for co-location.
    let mut adjacent: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for rule in &graph.flow_rules {
        let ends: Vec<&PortRef> = rule
            .matches
            .port_in
            .iter()
            .chain(rule.actions.iter().filter_map(|a| match a {
                un_nffg::RuleAction::Output(p) => Some(p),
                _ => None,
            }))
            .collect();
        for a in &ends {
            for b in &ends {
                if let (PortRef::Nf(na, _), other) = (a, b) {
                    let peer = match other {
                        PortRef::Nf(nb, _) if nb != na => nb.as_str(),
                        PortRef::Endpoint(e) => e.as_str(),
                        _ => continue,
                    };
                    adjacent.entry(na.as_str()).or_default().insert(peer);
                }
            }
        }
    }

    let mut out: BTreeMap<String, String> = BTreeMap::new();
    for nf in &graph.nfs {
        let needed = estimates.get(&nf.id).copied().unwrap_or(0);
        if let Some(pin) = pins.get(&nf.id) {
            if !views.iter().any(|v| v.name == *pin) {
                return Err(PlaceError::BadPin {
                    nf: nf.id.clone(),
                    node: pin.clone(),
                });
            }
            *free.entry(pin.as_str()).or_default() = free
                .get(pin.as_str())
                .copied()
                .unwrap_or(0)
                .saturating_sub(needed);
            out.insert(nf.id.clone(), pin.clone());
            continue;
        }

        // Nodes the graph already occupies: this NF (or one placed
        // after it) will eventually need overlay routes toward them,
        // so reachability to all of them is the hard preference even
        // when this NF's own neighbors are still unplaced.
        let used: BTreeSet<&str> = endpoint_node
            .values()
            .chain(out.values())
            .map(String::as_str)
            .collect();
        // (reaches every used node, score): reachability dominates, so
        // no bonus stack can elect a fabric-isolated node while a
        // routable one exists.
        let mut best: Option<(bool, i64, &NodeView<'_>)> = None;
        for view in views {
            let avail = free.get(view.name.as_str()).copied().unwrap_or(0);
            // A shared joinable instance costs nothing extra; otherwise
            // the estimate must fit.
            let reusable = joinable(view, &nf.functional_type);
            if !reusable && avail < needed {
                continue;
            }
            let routable = match fabric_hops {
                None => true,
                Some(hops) => {
                    let row = hops.get(view.name.as_str());
                    used.iter()
                        .all(|u| *u == view.name || row.is_some_and(|r| r.contains_key(*u)))
                }
            };
            let mut score: i64 = 0;
            if reusable {
                score += 1_000_000;
            }
            if view.native_types.contains(nf.functional_type.as_str()) {
                score += 100_000;
            }
            // Co-location: neighbors already resolved to this node
            // score a bonus; with an explicit fabric topology, distant
            // neighbors charge a per-extra-hop path penalty.
            if let Some(peers) = adjacent.get(nf.id.as_str()) {
                for peer in peers {
                    let peer_node = out
                        .get(*peer)
                        .or_else(|| endpoint_node.get(*peer))
                        .map(String::as_str);
                    let Some(peer_node) = peer_node else {
                        continue; // peer not placed yet
                    };
                    if peer_node == view.name.as_str() {
                        score += COLOCATE_BONUS;
                    } else if fabric_hops.is_some() {
                        let d = Topology::hop_distance(fabric_hops, peer_node, view.name.as_str());
                        score -= PATH_PENALTY_PER_HOP * i64::from(d.saturating_sub(1));
                    }
                }
            }
            // Memory tie-break, bounded to keep it below the other terms.
            let mem_term = (avail / (1 << 20)).min(9_999) as i64;
            score += match strategy {
                PlacementStrategy::Pack => -mem_term,
                PlacementStrategy::Spread => mem_term,
            };
            if best.as_ref().is_none_or(|(r, s, b)| {
                (routable, score) > (*r, *s) || (routable, score) == (*r, *s) && view.name < b.name
            }) {
                best = Some((routable, score, view));
            }
        }
        let Some((_, _, view)) = best else {
            return Err(PlaceError::NoCapacity {
                nf: nf.id.clone(),
                needed,
            });
        };
        let reusable = joinable(view, &nf.functional_type);
        if !reusable {
            let slot = free.get_mut(view.name.as_str()).expect("a viewed node");
            *slot = slot.saturating_sub(needed);
        }
        out.insert(nf.id.clone(), view.name.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_nffg::NfFgBuilder;

    fn view<'a>(
        name: &str,
        free_mb: u64,
        native: &[&'a str],
        shared: &[&'a str],
        ports: &[&'a str],
    ) -> NodeView<'a> {
        NodeView {
            name: name.into(),
            free_memory: free_mb << 20,
            capacity: free_mb << 20,
            native_types: native.iter().copied().collect(),
            shared_running: shared.iter().copied().collect(),
            sharable_types: shared.iter().copied().collect(),
            ports: ports.iter().copied().collect(),
        }
    }

    fn chain() -> NfFg {
        NfFgBuilder::new("g1", "chain")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("fw", "firewall", 2)
            .nf("gw", "ipsec", 2)
            .chain("lan", &["fw", "gw"], "wan")
            .build()
    }

    fn est(graph: &NfFg, mb: u64) -> BTreeMap<String, u64> {
        graph.nfs.iter().map(|n| (n.id.clone(), mb << 20)).collect()
    }

    /// Symmetric hop matrix from `(a, b, hops)` triples.
    fn matrix(pairs: &[(&str, &str, u32)]) -> BTreeMap<String, BTreeMap<String, u32>> {
        let mut m: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
        for (a, b, d) in pairs {
            m.entry(a.to_string())
                .or_default()
                .insert(b.to_string(), *d);
            m.entry(b.to_string())
                .or_default()
                .insert(a.to_string(), *d);
        }
        m
    }

    #[test]
    fn prefers_shared_then_native() {
        let g = chain();
        let views = vec![
            view("plain", 4096, &[], &[], &["eth0", "eth1"]),
            view("native", 4096, &["firewall", "ipsec"], &[], &[]),
            view("sharing", 64, &[], &["firewall", "ipsec"], &[]),
        ];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        let a = assign(
            &g,
            &views,
            &est(&g, 512),
            &eps,
            &BTreeMap::new(),
            &BTreeMap::new(),
            PlacementStrategy::Pack,
            None,
        )
        .unwrap();
        // Shared reuse wins even though the sharing node is almost full.
        assert_eq!(a["fw"], "sharing");
        assert_eq!(a["gw"], "sharing");
    }

    #[test]
    fn respects_capacity_and_reports_overflow() {
        let g = chain();
        let views = vec![view(
            "tiny",
            100,
            &["firewall", "ipsec"],
            &[],
            &["eth0", "eth1"],
        )];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        let err = assign(
            &g,
            &views,
            &est(&g, 512),
            &eps,
            &BTreeMap::new(),
            &BTreeMap::new(),
            PlacementStrategy::Pack,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::NoCapacity { .. }));
    }

    #[test]
    fn pack_fills_one_node_spread_distributes() {
        let g = chain();
        let views = vec![
            view("n1", 4096, &["firewall", "ipsec"], &[], &["eth0", "eth1"]),
            view("n2", 8192, &["firewall", "ipsec"], &[], &[]),
        ];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        let pack = assign(
            &g,
            &views,
            &est(&g, 512),
            &eps,
            &BTreeMap::new(),
            &BTreeMap::new(),
            PlacementStrategy::Pack,
            None,
        )
        .unwrap();
        // Pack: both NFs land together (adjacency + fullest node).
        assert_eq!(pack["fw"], pack["gw"]);

        // Spread with no adjacency pull: strip the rules so only the
        // memory term differs.
        let mut sparse = g.clone();
        sparse.flow_rules.clear();
        let spread = assign(
            &sparse,
            &views,
            &est(&g, 512),
            &eps,
            &BTreeMap::new(),
            &BTreeMap::new(),
            PlacementStrategy::Spread,
            None,
        )
        .unwrap();
        assert_eq!(spread["fw"], "n2"); // emptiest first
    }

    #[test]
    fn pins_and_dead_nodes() {
        let g = chain();
        let mut views = vec![
            view("n1", 4096, &[], &[], &["eth0", "eth1"]),
            view("n2", 4096, &[], &[], &[]),
        ];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        let pins: BTreeMap<String, String> = [("fw".to_string(), "n2".to_string())].into();
        let a = assign(
            &g,
            &views,
            &est(&g, 64),
            &eps,
            &pins,
            &BTreeMap::new(),
            PlacementStrategy::Pack,
            None,
        )
        .unwrap();
        assert_eq!(a["fw"], "n2");

        views.remove(1);
        let err = assign(
            &g,
            &views,
            &est(&g, 64),
            &eps,
            &pins,
            &BTreeMap::new(),
            PlacementStrategy::Pack,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::BadPin { .. }));
    }

    #[test]
    fn path_length_term_pulls_chained_nfs_toward_close_nodes() {
        // fw must sit with the lan endpoint on n1 (interface); gw does
        // not fit on n1. Candidates n2 (1 hop from n1) and n3 (3 hops)
        // are otherwise identical — the path term must pick n2; without
        // a matrix (full mesh) the memory tie-break favors n3.
        let g = chain();
        let views = vec![
            view("n1", 600, &[], &[], &["eth0", "eth1"]),
            view("n2", 4096, &[], &[], &["eth1"]),
            view("n3", 8192, &[], &[], &["eth1"]),
        ];
        let eps = assign_endpoints(
            &g,
            &views,
            &[("wan".to_string(), "n1".to_string())].into(),
            None,
        )
        .unwrap();
        let hops = matrix(&[("n1", "n2", 1), ("n1", "n3", 3), ("n2", "n3", 2)]);
        let place = |matrix: Option<&BTreeMap<String, BTreeMap<String, u32>>>| {
            assign(
                &g,
                &views,
                &est(&g, 512),
                &eps,
                &BTreeMap::new(),
                &BTreeMap::new(),
                PlacementStrategy::Spread,
                matrix,
            )
            .unwrap()
        };
        assert_eq!(place(Some(&hops))["gw"], "n2", "path term: close rack");
        assert_eq!(place(None)["gw"], "n3", "full mesh: memory tie-break");
    }

    #[test]
    fn reachability_beats_native_and_shared_bonuses() {
        // gw's neighbor fw is forced onto n1. Node "island" offers
        // ipsec natively *and* shares a running instance, but has no
        // fabric route to n1; plain node n2 does. The isolated node's
        // bonus stack must not win — that placement would fail at plan
        // time with NoRoute even though n2 works.
        let g = chain();
        let views = vec![
            view("n1", 600, &[], &[], &["eth0", "eth1"]),
            view("n2", 4096, &[], &[], &["eth1"]),
            view("island", 4096, &["ipsec"], &["ipsec"], &["eth1"]),
        ];
        let eps = assign_endpoints(
            &g,
            &views,
            &[("wan".to_string(), "n1".to_string())].into(),
            None,
        )
        .unwrap();
        let pins: BTreeMap<String, String> = [("fw".to_string(), "n1".to_string())].into();
        // Matrix from a topology where island has no edges: pairs
        // involving it are simply absent.
        let hops = matrix(&[("n1", "n2", 1)]);
        let a = assign(
            &g,
            &views,
            &est(&g, 512),
            &eps,
            &pins,
            &BTreeMap::new(),
            PlacementStrategy::Spread,
            Some(&hops),
        )
        .unwrap();
        assert_eq!(a["gw"], "n2", "routable node beats isolated bonuses");
    }

    #[test]
    fn reachability_guard_covers_unplaced_peer_ordering() {
        // b is declared (and scored) first, so both of its rule
        // neighbors are still-unplaced NFs at that point. The guard
        // must still keep b off the isolated island — the graph's
        // endpoints already occupy n1, which island cannot reach.
        let g = NfFgBuilder::new("g2", "chain3")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("b", "bridge", 2)
            .nf("a", "bridge", 2)
            .nf("c", "bridge", 2)
            .chain("lan", &["a", "b", "c"], "wan")
            .build();
        let views = vec![
            view("n1", 4096, &[], &[], &["eth0", "eth1"]),
            view("n2", 4096, &[], &[], &[]),
            view("island", 4096, &["bridge"], &["bridge"], &[]),
        ];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        let hops = matrix(&[("n1", "n2", 1)]);
        let a = assign(
            &g,
            &views,
            &est(&g, 512),
            &eps,
            &BTreeMap::new(),
            &BTreeMap::new(),
            PlacementStrategy::Pack,
            Some(&hops),
        )
        .unwrap();
        for nf in ["a", "b", "c"] {
            assert_ne!(a[nf], "island", "{nf} must land on a routable node");
        }
    }

    #[test]
    fn endpoint_assignment_follows_interfaces() {
        let g = chain();
        let views = vec![
            view("n1", 1024, &[], &[], &["eth0"]),
            view("n2", 1024, &[], &[], &["eth1"]),
        ];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        assert_eq!(eps["lan"], "n1");
        assert_eq!(eps["wan"], "n2");
        let err = assign_endpoints(
            &g,
            &[view("n1", 1024, &[], &[], &["eth0"])],
            &BTreeMap::new(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, PlaceError::NoSuchInterface { .. }));
    }

    #[test]
    fn endpoints_prefer_the_topologically_closest_owner() {
        // Line a–b–c–d. eth0 only on a; eth1 on d (listed first) and b.
        // The old rule takes the first alive owner (d, three hops from
        // the lan endpoint); the topology-aware rule must take b (one
        // hop). Full-mesh mode keeps the old choice.
        let g = chain();
        let views = vec![
            view("a", 1024, &[], &[], &["eth0"]),
            view("d", 1024, &[], &[], &["eth1"]),
            view("b", 1024, &[], &[], &["eth1"]),
        ];
        let hops = matrix(&[
            ("a", "b", 1),
            ("a", "c", 2),
            ("a", "d", 3),
            ("b", "c", 1),
            ("b", "d", 2),
            ("c", "d", 1),
        ]);
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), Some(&hops)).unwrap();
        assert_eq!(eps["lan"], "a");
        assert_eq!(eps["wan"], "b", "closest owner over the line fabric");
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        assert_eq!(eps["wan"], "d", "full mesh keeps first-owner order");
        // A pinned peer anchors the choice the same way.
        let pins: BTreeMap<String, String> = [("lan".to_string(), "a".to_string())].into();
        let eps = assign_endpoints(&g, &views, &pins, Some(&hops)).unwrap();
        assert_eq!(eps["wan"], "b");
    }

    #[test]
    fn held_lease_restricts_shared_bonus_to_the_lease_host() {
        // Two NFs of one sharable type; BOTH nodes run a joinable
        // shared instance. Without the lease restriction, Spread's
        // memory tie-break splits the NFs across the two instances —
        // the graph would hold one lease but consume two shared
        // instances. With the held lease on node a, both NFs must land
        // there.
        let g = NfFgBuilder::new("g", "two-nat")
            .interface_endpoint("lan", "eth0")
            .nf("x1", "nat", 2)
            .nf("x2", "nat", 2)
            .rule_through("r1", 10, "lan", ("x1", 0))
            .build();
        let views = vec![
            view("a", 1024, &[], &["nat"], &["eth0"]),
            view("b", 8192, &[], &["nat"], &[]),
        ];
        let eps = assign_endpoints(&g, &views, &BTreeMap::new(), None).unwrap();
        let place = |held: &BTreeMap<String, String>| {
            assign(
                &g,
                &views,
                &est(&g, 64),
                &eps,
                &BTreeMap::new(),
                held,
                PlacementStrategy::Spread,
                None,
            )
            .unwrap()
        };
        // The regression: no lease knowledge → the instances are
        // double-counted (x1 pulled to a by adjacency, x2 drifts to
        // b's emptier instance).
        let split = place(&BTreeMap::new());
        assert_eq!(split["x1"], "a");
        assert_eq!(split["x2"], "b", "scenario must exhibit the split");
        // Holding the lease on a confines the shared bonus there.
        let held: BTreeMap<String, String> = [("nat".to_string(), "a".to_string())].into();
        let fixed = place(&held);
        assert_eq!(fixed["x1"], "a");
        assert_eq!(fixed["x2"], "a", "one lease, one instance");
    }
}
