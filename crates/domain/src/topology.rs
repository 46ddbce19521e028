//! The fabric topology: which nodes are actually "wired" to which.
//!
//! The overlay used to assume a full mesh — every cut edge was a
//! point-to-point shuttle between its two nodes. A domain spanning
//! racks is not wired like that: frames between non-adjacent nodes
//! must transit intermediate nodes. [`Topology`] is the explicit
//! node-adjacency graph (per-edge latency and capacity), and
//! [`Topology::shortest_path`] is the path engine: deterministic
//! Dijkstra minimizing hop count first, then accumulated latency,
//! then lexicographic node order (so equal-cost paths are stable
//! across runs and across the twin domains of the chaos suite).
//!
//! The default is [`Topology::full_mesh`], which keeps every pre-fabric
//! deployment byte-identical: every pair of serving nodes is adjacent
//! and every overlay path has length one.

use std::collections::{BTreeMap, BTreeSet};

/// Hop distance assumed between nodes a hop matrix reports no path
/// for: far enough that any connected candidate wins every distance
/// comparison, without overflowing summed scores.
pub const UNREACHABLE_HOPS: u32 = 16;

/// Fixed-point congestion units charged per riding path on an edge of
/// reference capacity. An edge of half the reference capacity charges
/// twice as much per path, so thin pipes repel new overlay paths
/// sooner than fat ones.
pub const CONGESTION_SCALE: u64 = 1_000;

/// The capacity at which one riding path costs exactly
/// [`CONGESTION_SCALE`] congestion units (the `EdgeAttrs` default,
/// 10 Gb/s).
pub const REFERENCE_CAPACITY_BPS: u64 = 10_000_000_000;

/// Properties of one fabric edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeAttrs {
    /// Propagation + switching cost of crossing this edge once, in
    /// nanoseconds. Used as the per-hop cost in the data plane and as
    /// the Dijkstra tie-break among equal-hop paths.
    pub latency_ns: u64,
    /// Nominal capacity in bits per second. A routing input: the
    /// congestion charge of [`Topology::shortest_path_loaded`] scales
    /// inversely with capacity, so loaded or thin edges repel new
    /// overlay paths.
    pub capacity_bps: u64,
}

impl Default for EdgeAttrs {
    fn default() -> Self {
        EdgeAttrs {
            latency_ns: 5_000,            // one default overlay hop
            capacity_bps: 10_000_000_000, // 10 Gb/s
        }
    }
}

/// The node-adjacency graph of the fabric.
///
/// Two modes:
///
/// * **full mesh** (the default): every pair of nodes is implicitly
///   adjacent, every hop costing the domain's fixed full-mesh hop
///   latency. Backward compatible — no transit hops ever.
/// * **explicit**: only edges added via [`Topology::add_edge`] (or the
///   [`Topology::line`] / [`Topology::ring`] constructors) exist, and
///   overlay links between non-adjacent nodes are routed multi-hop.
///
/// Edges are undirected: `add_edge(a, b, …)` wires both directions.
/// A fleet node absent from an explicit topology is isolated — it can
/// host single-node graphs but no overlay link can reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    full_mesh: bool,
    /// node → neighbor → edge attributes (stored symmetrically).
    edges: BTreeMap<String, BTreeMap<String, EdgeAttrs>>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::full_mesh()
    }
}

impl Topology {
    /// Every pair of nodes is adjacent (the pre-fabric behavior).
    pub fn full_mesh() -> Self {
        Topology {
            full_mesh: true,
            edges: BTreeMap::new(),
        }
    }

    /// An explicit topology with no edges yet.
    pub fn explicit() -> Self {
        Topology {
            full_mesh: false,
            edges: BTreeMap::new(),
        }
    }

    /// A line `names[0] – names[1] – … – names[n-1]`.
    pub fn line(names: &[&str], attrs: EdgeAttrs) -> Self {
        let mut t = Topology::explicit();
        for pair in names.windows(2) {
            t.add_edge(pair[0], pair[1], attrs);
        }
        t
    }

    /// A ring: the line plus a closing `names[n-1] – names[0]` edge.
    pub fn ring(names: &[&str], attrs: EdgeAttrs) -> Self {
        let mut t = Topology::line(names, attrs);
        if names.len() > 2 {
            t.add_edge(names[names.len() - 1], names[0], attrs);
        }
        t
    }

    /// Wire `a – b` (both directions). Re-adding an edge updates its
    /// attributes. Self-loops are ignored.
    pub fn add_edge(&mut self, a: &str, b: &str, attrs: EdgeAttrs) -> &mut Self {
        if a != b {
            self.edges
                .entry(a.to_string())
                .or_default()
                .insert(b.to_string(), attrs);
            self.edges
                .entry(b.to_string())
                .or_default()
                .insert(a.to_string(), attrs);
        }
        self
    }

    /// True in full-mesh mode.
    pub fn is_full_mesh(&self) -> bool {
        self.full_mesh
    }

    /// The explicit edges, each reported once (`a < b`).
    pub fn edge_list(&self) -> Vec<(String, String, EdgeAttrs)> {
        self.edges
            .iter()
            .flat_map(|(a, nbrs)| {
                nbrs.iter()
                    .filter(move |(b, _)| a < *b)
                    .map(move |(b, attrs)| (a.clone(), b.clone(), *attrs))
            })
            .collect()
    }

    /// Are `a` and `b` directly wired? (Always true pairwise in a full
    /// mesh; a node is never adjacent to itself.)
    pub fn adjacent(&self, a: &str, b: &str) -> bool {
        if a == b {
            return false;
        }
        if self.full_mesh {
            return true;
        }
        self.edges.get(a).is_some_and(|n| n.contains_key(b))
    }

    /// Attributes of the **explicit** `a – b` edge, if one was added.
    /// Full-mesh (implicit) adjacency returns `None` — the caller owns
    /// the default cost of an implicit hop.
    pub fn edge(&self, a: &str, b: &str) -> Option<EdgeAttrs> {
        self.edges.get(a).and_then(|n| n.get(b)).copied()
    }

    /// Shortest usable path from `from` to `to` as the full node
    /// sequence (`[from, …, to]`), or `None` when disconnected.
    ///
    /// Dijkstra minimizing `(hops, total latency, lexicographic
    /// frontier)` — hop count is the primary cost, so a two-hop path
    /// over fast links never beats a direct edge. `usable` filters the
    /// nodes a path may touch (callers pass the serving set, so no
    /// path ever transits a failed node); both ends must be usable.
    pub fn shortest_path(
        &self,
        from: &str,
        to: &str,
        usable: &dyn Fn(&str) -> bool,
    ) -> Option<Vec<String>> {
        self.shortest_path_loaded(from, to, usable, &|_, _| 0)
    }

    /// Capacity-aware variant of [`Topology::shortest_path`].
    ///
    /// `edge_load(a, b)` reports how many overlay paths already ride
    /// the `a – b` edge; each riding path charges
    /// `CONGESTION_SCALE × REFERENCE_CAPACITY_BPS / capacity_bps`
    /// congestion units, so loaded edges — and thin edges under equal
    /// load — repel new paths. The cost order is `(hops, congestion,
    /// latency, lexicographic frontier)`: hop count stays primary (a
    /// detour is never taken just to dodge load), and with zero load
    /// everywhere the result is byte-identical to `shortest_path`, so
    /// the deterministic tie-break is preserved.
    pub fn shortest_path_loaded(
        &self,
        from: &str,
        to: &str,
        usable: &dyn Fn(&str) -> bool,
        edge_load: &dyn Fn(&str, &str) -> u64,
    ) -> Option<Vec<String>> {
        if !usable(from) || !usable(to) {
            return None;
        }
        if from == to {
            return Some(vec![from.to_string()]);
        }
        if self.full_mesh {
            return Some(vec![from.to_string(), to.to_string()]);
        }
        // (hops, congestion, latency, node) in a BTreeSet doubles as a
        // deterministic priority queue; fleet sizes are small enough
        // that the log-n set operations dwarf nothing.
        let mut best: BTreeMap<&str, (u32, u64, u64)> = BTreeMap::new();
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: BTreeSet<(u32, u64, u64, &str)> = BTreeSet::new();
        best.insert(from, (0, 0, 0));
        queue.insert((0, 0, 0, from));
        while let Some(&(hops, load, lat, node)) = queue.iter().next() {
            queue.remove(&(hops, load, lat, node));
            if node == to {
                break;
            }
            if best.get(node) != Some(&(hops, load, lat)) {
                continue; // stale queue entry
            }
            let Some(nbrs) = self.edges.get(node) else {
                continue;
            };
            for (next, attrs) in nbrs {
                if !usable(next) {
                    continue;
                }
                let charge = Self::congestion_charge(attrs, edge_load(node, next));
                let cand = (
                    hops + 1,
                    load.saturating_add(charge),
                    lat.saturating_add(attrs.latency_ns),
                );
                let better = match best.get(next.as_str()) {
                    None => true,
                    Some(old) => cand < *old,
                };
                if better {
                    if let Some(old) = best.insert(next.as_str(), cand) {
                        queue.remove(&(old.0, old.1, old.2, next.as_str()));
                    }
                    prev.insert(next.as_str(), node);
                    queue.insert((cand.0, cand.1, cand.2, next.as_str()));
                }
            }
        }
        best.get(to)?;
        let mut path = vec![to.to_string()];
        let mut cur = to;
        while let Some(&p) = prev.get(cur) {
            path.push(p.to_string());
            cur = p;
        }
        if cur != from {
            return None;
        }
        path.reverse();
        Some(path)
    }

    /// Congestion units charged for crossing an edge already carrying
    /// `riding_paths` overlay paths: linear in load, inverse in
    /// capacity, fixed-point so the comparison stays integral and
    /// deterministic.
    fn congestion_charge(attrs: &EdgeAttrs, riding_paths: u64) -> u64 {
        let per_path = CONGESTION_SCALE
            .saturating_mul(REFERENCE_CAPACITY_BPS)
            .checked_div(attrs.capacity_bps.max(1))
            .unwrap_or(u64::MAX);
        riding_paths.saturating_mul(per_path)
    }

    /// Hop distances from every node of `nodes` to every other, walking
    /// only `nodes` (BFS per source), keyed `src → dst → hops`;
    /// unreachable destinations are absent from the source's row.
    /// Full-mesh mode returns `None` — every distance is 1 and callers
    /// skip the O(n²) matrix entirely.
    pub fn hop_matrix(
        &self,
        nodes: &BTreeSet<String>,
    ) -> Option<BTreeMap<String, BTreeMap<String, u32>>> {
        if self.full_mesh {
            return None;
        }
        let mut out = BTreeMap::new();
        for src in nodes {
            let mut dist: BTreeMap<&str, u32> = BTreeMap::new();
            let mut frontier: Vec<&str> = vec![src.as_str()];
            dist.insert(src.as_str(), 0);
            let mut d = 0;
            while !frontier.is_empty() {
                d += 1;
                let mut next_frontier = Vec::new();
                for node in frontier {
                    let Some(nbrs) = self.edges.get(node) else {
                        continue;
                    };
                    for next in nbrs.keys() {
                        if nodes.contains(next) && !dist.contains_key(next.as_str()) {
                            dist.insert(next.as_str(), d);
                            next_frontier.push(next.as_str());
                        }
                    }
                }
                frontier = next_frontier;
            }
            let row: BTreeMap<String, u32> =
                dist.into_iter().map(|(n, d)| (n.to_string(), d)).collect();
            out.insert(src.clone(), row);
        }
        Some(out)
    }

    /// Hop distance between two nodes given an optional hop matrix
    /// (`None` = full mesh): 0 to itself, 1 between any full-mesh
    /// pair, the matrix entry otherwise, [`UNREACHABLE_HOPS`] when the
    /// matrix has no path. One definition shared by the placement
    /// scorer, endpoint assignment, and shared-NNF host election, so
    /// the three can never disagree on what "unreachable" costs.
    pub fn hop_distance(
        fabric_hops: Option<&BTreeMap<String, BTreeMap<String, u32>>>,
        a: &str,
        b: &str,
    ) -> u32 {
        if a == b {
            return 0;
        }
        match fabric_hops {
            None => 1,
            Some(hops) => hops
                .get(a)
                .and_then(|row| row.get(b))
                .copied()
                .unwrap_or(UNREACHABLE_HOPS),
        }
    }

    /// Is `path` a valid walk through this topology (consecutive nodes
    /// adjacent, no repeats)? Used by the chaos-suite invariants.
    pub fn validates_path(&self, path: &[String]) -> bool {
        if path.len() < 2 {
            return false;
        }
        let distinct: BTreeSet<&String> = path.iter().collect();
        if distinct.len() != path.len() {
            return false;
        }
        path.windows(2).all(|w| self.adjacent(&w[0], &w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usable_all(_: &str) -> bool {
        true
    }

    #[test]
    fn full_mesh_paths_are_direct() {
        let t = Topology::full_mesh();
        assert!(t.adjacent("a", "z"));
        assert_eq!(
            t.shortest_path("a", "z", &usable_all).unwrap(),
            vec!["a", "z"]
        );
        assert!(t.hop_matrix(&BTreeSet::new()).is_none());
        // Implicit adjacency carries no explicit attributes — the
        // domain owns the cost of a full-mesh hop.
        assert!(t.edge("a", "b").is_none());
    }

    #[test]
    fn line_routes_through_the_middle() {
        let t = Topology::line(&["a", "b", "c"], EdgeAttrs::default());
        assert!(t.adjacent("a", "b"));
        assert!(!t.adjacent("a", "c"));
        assert_eq!(
            t.shortest_path("a", "c", &usable_all).unwrap(),
            vec!["a", "b", "c"]
        );
        // Losing the middle disconnects the ends.
        assert!(t.shortest_path("a", "c", &|n| n != "b").is_none());
        // A failed endpoint is no path at all.
        assert!(t.shortest_path("a", "c", &|n| n != "c").is_none());
    }

    #[test]
    fn ring_reroutes_around_a_failure() {
        let t = Topology::ring(&["a", "b", "c", "d"], EdgeAttrs::default());
        // a–b–c and a–d–c tie on hops; latency ties too, so the
        // lexicographically smaller frontier wins deterministically.
        assert_eq!(
            t.shortest_path("a", "c", &usable_all).unwrap(),
            vec!["a", "b", "c"]
        );
        assert_eq!(
            t.shortest_path("a", "c", &|n| n != "b").unwrap(),
            vec!["a", "d", "c"]
        );
    }

    #[test]
    fn hops_beat_latency_latency_breaks_ties() {
        let mut t = Topology::explicit();
        let fast = EdgeAttrs {
            latency_ns: 1,
            ..EdgeAttrs::default()
        };
        let slow = EdgeAttrs {
            latency_ns: 1_000_000,
            ..EdgeAttrs::default()
        };
        // Direct slow edge vs two fast hops: hop count wins.
        t.add_edge("a", "c", slow);
        t.add_edge("a", "b", fast);
        t.add_edge("b", "c", fast);
        assert_eq!(
            t.shortest_path("a", "c", &usable_all).unwrap(),
            vec!["a", "c"]
        );
        // Two equal-hop two-hop paths: lower total latency wins.
        let mut t = Topology::explicit();
        t.add_edge("a", "b", slow);
        t.add_edge("b", "z", slow);
        t.add_edge("a", "y", fast);
        t.add_edge("y", "z", fast);
        assert_eq!(
            t.shortest_path("a", "z", &usable_all).unwrap(),
            vec!["a", "y", "z"]
        );
    }

    #[test]
    fn loaded_edges_repel_equal_hop_paths() {
        let t = Topology::ring(&["a", "b", "c", "d"], EdgeAttrs::default());
        // Unloaded, a–b–c wins the lexicographic tie-break (same as
        // shortest_path — zero load must be byte-identical).
        assert_eq!(
            t.shortest_path_loaded("a", "c", &usable_all, &|_, _| 0)
                .unwrap(),
            vec!["a", "b", "c"]
        );
        // One path already riding a–b pushes the next one to a–d–c.
        let load = |x: &str, y: &str| u64::from((x, y) == ("a", "b") || (x, y) == ("b", "a"));
        assert_eq!(
            t.shortest_path_loaded("a", "c", &usable_all, &load)
                .unwrap(),
            vec!["a", "d", "c"]
        );
        // …but never at the cost of an extra hop: the direct a–b edge
        // still beats a two-hop detour no matter how loaded it is.
        let t2 = Topology::ring(&["a", "b", "c"], EdgeAttrs::default());
        assert_eq!(
            t2.shortest_path_loaded("a", "b", &usable_all, &|_, _| 1_000)
                .unwrap(),
            vec!["a", "b"]
        );
    }

    #[test]
    fn thin_edges_charge_more_per_riding_path() {
        // Two equal-hop, equally-loaded routes; the one over the thin
        // (1 Gb/s) edge charges 10x the congestion and loses, even
        // though its latency tie-break would have won.
        let mut t = Topology::explicit();
        let thin_fast = EdgeAttrs {
            latency_ns: 1,
            capacity_bps: 1_000_000_000,
        };
        let fat_slow = EdgeAttrs {
            latency_ns: 1_000,
            ..EdgeAttrs::default()
        };
        t.add_edge("a", "b", thin_fast);
        t.add_edge("b", "z", thin_fast);
        t.add_edge("a", "y", fat_slow);
        t.add_edge("y", "z", fat_slow);
        assert_eq!(
            t.shortest_path_loaded("a", "z", &usable_all, &|_, _| 0)
                .unwrap(),
            vec!["a", "b", "z"],
            "unloaded: latency tie-break picks the fast thin route"
        );
        assert_eq!(
            t.shortest_path_loaded("a", "z", &usable_all, &|_, _| 1)
                .unwrap(),
            vec!["a", "y", "z"],
            "under load: the fat route's lower congestion charge wins"
        );
    }

    #[test]
    fn hop_matrix_matches_paths() {
        let t = Topology::line(&["a", "b", "c", "d"], EdgeAttrs::default());
        let nodes: BTreeSet<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let m = t.hop_matrix(&nodes).unwrap();
        assert_eq!(m["a"]["d"], 3);
        assert_eq!(m["a"]["a"], 0);
        assert_eq!(m["b"]["c"], 1);
        // Restricting the walkable set lengthens (or severs) routes.
        let ends: BTreeSet<String> = ["a", "d"].iter().map(|s| s.to_string()).collect();
        let m = t.hop_matrix(&ends).unwrap();
        assert!(!m["a"].contains_key("d"));
    }

    #[test]
    fn validates_path_checks_adjacency_and_loops() {
        let t = Topology::line(&["a", "b", "c"], EdgeAttrs::default());
        let path = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(t.validates_path(&path(&["a", "b", "c"])));
        assert!(!t.validates_path(&path(&["a", "c"])), "not adjacent");
        assert!(!t.validates_path(&path(&["a"])), "too short");
        assert!(!t.validates_path(&path(&["a", "b", "a"])), "repeat");
        assert!(Topology::full_mesh().validates_path(&path(&["a", "z"])));
    }

    #[test]
    fn edge_list_reports_each_edge_once() {
        let t = Topology::ring(&["a", "b", "c"], EdgeAttrs::default());
        let edges = t.edge_list();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|(a, b, _)| a < b));
    }
}
