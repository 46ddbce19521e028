//! The static checks and the [`VerifyReport`] they produce.
//!
//! Three layers, each anchored at a different artifact:
//!
//! * **Plan level** ([`check_graph`]): the partitioned parts + overlay
//!   links must realize exactly the original graph's endpoint-to-
//!   endpoint reachability (no lost paths, no phantom paths), be
//!   loop-free, and contain no structurally dead forwarding (outputs
//!   into nothing, missing delivery/transit rules). The orchestrator's
//!   install receipt is cross-checked against the rules actually
//!   sitting in the node's tables (compile consistency).
//! * **Table level** ([`audit_node`]): every installed entry must be
//!   matchable (not fully shadowed by higher-priority entries — see
//!   [`crate::region`]), output to an existing port, jump only forward
//!   in the pipeline, and reference only live overlay vids.
//! * **Ledger level** ([`check_ledger`]): the typed vid pool must
//!   partition exactly into free ∪ in-use ∪ standby-reserved, link
//!   paths must start/end where the graph thinks they do, and every
//!   shared-NNF lease must point at a live host with deployed tenants.
//!
//! [`run`] executes all three over a whole [`Snapshot`].

use std::collections::{BTreeMap, BTreeSet};

use un_nffg::{NfFg, PortRef, RuleAction};
use un_obs::{ClassifierStage, DropReason, HopKind, HopRecord, PacketTrace};
use un_switch::FlowAction;

use crate::region::shadowed_rules;
use crate::snapshot::{GraphState, NodeState, Snapshot};

/// Max region pieces per analyzed rule before the shadow analysis
/// conservatively declares the rule live (see [`shadowed_rules`]).
pub const PIECE_BUDGET: usize = 4096;

/// Stable violation codes (tests match on these).
pub mod code {
    /// An original-graph path is lost in the installed state.
    pub const UNREACHABLE: &str = "unreachable";
    /// The installed state admits a path the original graph does not.
    pub const PHANTOM_REACH: &str = "phantom-reach";
    /// An equivalence class can cycle through the port graph.
    pub const FORWARDING_LOOP: &str = "forwarding-loop";
    /// An overlay link's pinned path revisits a node.
    pub const TRANSIT_LOOP: &str = "transit-loop";
    /// A part rule references an NF/endpoint the part does not carry.
    pub const BAD_OUTPUT: &str = "bad-output";
    /// Traffic enters an overlay endpoint with no rule to carry it on.
    pub const BLACKHOLE: &str = "blackhole";
    /// An installed entry outputs to a port the LSI does not have.
    pub const DEAD_OUTPUT: &str = "dead-output";
    /// An installed entry jumps to a missing or earlier table.
    pub const BAD_GOTO: &str = "bad-goto";
    /// An installed entry can never match (fully shadowed).
    pub const SHADOWED_RULE: &str = "shadowed-rule";
    /// A compiled rule the orchestrator claims is missing from tables.
    pub const MISSING_RULE: &str = "missing-rule";
    /// A part is placed on a node that is absent or not serving.
    pub const MISSING_PART: &str = "missing-part";
    /// The vid pool does not partition into free ∪ in-use ∪ standby.
    pub const VID_LEDGER: &str = "vid-ledger";
    /// An installed action references a pool vid that is not in use.
    pub const DANGLING_VID: &str = "dangling-vid";
    /// A shared-NNF lease points at a dead host or missing tenant.
    pub const DANGLING_LEASE: &str = "dangling-lease";
}

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable machine-readable code (see [`code`]).
    pub code: &'static str,
    /// Graph the violation belongs to, when attributable.
    pub graph: Option<String>,
    /// Node the violation sits on, when attributable.
    pub node: Option<String>,
    /// Human-readable specifics. When a counterexample witness was
    /// synthesized, its rendered walk is appended here too.
    pub detail: String,
    /// Counterexample: a witness packet's hop-by-hop walk through the
    /// violating region, synthesized statically from the snapshot
    /// (reachability, blackhole and transit-loop codes). The walk's
    /// final hop demonstrates the violation: a typed drop for lost
    /// traffic, an egress for a phantom path.
    pub witness: Option<PacketTrace>,
}

impl Violation {
    fn new(code: &'static str, detail: String) -> Self {
        Violation {
            code,
            graph: None,
            node: None,
            detail,
            witness: None,
        }
    }

    fn on_graph(mut self, graph: &str) -> Self {
        self.graph = Some(graph.to_string());
        self
    }

    fn on_node(mut self, node: &str) -> Self {
        self.node = Some(node.to_string());
        self
    }

    fn with_witness(mut self, w: PacketTrace) -> Self {
        self.detail = format!("{}; counterexample:\n{}", self.detail, w.render());
        self.witness = Some(w);
        self
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.code)?;
        if let Some(g) = &self.graph {
            write!(f, " graph={g}")?;
        }
        if let Some(n) = &self.node {
            write!(f, " node={n}")?;
        }
        write!(f, " {}", self.detail)
    }
}

/// Work counters from one check pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Installed + plan rules examined.
    pub rules_checked: usize,
    /// Header equivalence-class pieces the shadow analysis examined.
    pub classes: usize,
}

impl CheckStats {
    /// Fold another pass's counters in.
    pub fn merge(&mut self, other: CheckStats) {
        self.rules_checked += other.rules_checked;
        self.classes += other.classes;
    }
}

/// The outcome of a verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// `"full"` or `"incremental"`.
    pub mode: &'static str,
    /// Graphs re-checked this run.
    pub graphs_checked: usize,
    /// Graphs whose cached result was reused.
    pub graphs_reused: usize,
    /// Nodes re-audited this run.
    pub nodes_checked: usize,
    /// Nodes whose cached audit was reused.
    pub nodes_reused: usize,
    /// Work counters (re-checked portions only).
    pub stats: CheckStats,
    /// Installed rules lowered into the snapshot the run read: the
    /// whole fleet's for a full run, the re-checked scope's otherwise.
    pub rules_lowered: usize,
    /// Wall-clock duration of the run, ns.
    pub duration_ns: u64,
    /// Every violation, re-checked and cached alike.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when no invariant is violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------
// Plan-level checks
// ---------------------------------------------------------------------

/// Direction-qualified port vertex of the reachability graph. Traffic
/// *emitted from* a port traverses a rule to *arrive at* another; NF
/// and link traversal connect the two directions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Vertex {
    /// Traffic coming out of a port (out of an endpoint into the
    /// graph, or out of an NF port).
    Emitted(usize, PortRef),
    /// Traffic delivered into a port (into an NF port, or out of the
    /// graph at an endpoint).
    Arrived(usize, PortRef),
}

/// The port graph of one deployment (or of the original, as a single
/// unnamed part).
struct PortGraph {
    verts: BTreeMap<Vertex, usize>,
    edges: Vec<Vec<usize>>,
    /// `(endpoint id, vertex)` for every real (non-`ovl-`) endpoint.
    ingress: Vec<(String, usize)>,
    /// Terminal labels: real egress endpoints (`ep:<id>`) **and** NF
    /// boundary ports (`nf:<id>:<port>`). Including NF arrivals in the
    /// relation is what catches a rewired path that still connects the
    /// right endpoints but skips an NF in between.
    egress: BTreeMap<usize, String>,
}

impl PortGraph {
    fn vert(&mut self, v: Vertex) -> usize {
        let next = self.verts.len();
        let id = *self.verts.entry(v).or_insert(next);
        if id == next {
            self.edges.push(Vec::new());
        }
        id
    }

    fn edge(&mut self, a: Vertex, b: Vertex) {
        let a = self.vert(a);
        let b = self.vert(b);
        self.edges[a].push(b);
    }

    /// Build from per-node parts plus overlay hops.
    ///
    /// `hops` are `(node_a, node_b)` pairs per link endpoint id:
    /// traffic arriving at `ovl-<vid>` on `node_a` re-emerges emitted
    /// from the same endpoint on `node_b`.
    fn build(parts: &[(usize, &NfFg)], hops: &[(String, usize, usize)]) -> PortGraph {
        let mut g = PortGraph {
            verts: BTreeMap::new(),
            edges: Vec::new(),
            ingress: Vec::new(),
            egress: BTreeMap::new(),
        };
        for (part_idx, part) in parts {
            let pi = *part_idx;
            // Rule edges.
            for rule in &part.flow_rules {
                let Some(port_in) = rule.matches.port_in.clone() else {
                    continue; // flagged structurally elsewhere
                };
                for action in &rule.actions {
                    if let RuleAction::Output(target) = action {
                        g.edge(
                            Vertex::Emitted(pi, port_in.clone()),
                            Vertex::Arrived(pi, target.clone()),
                        );
                    }
                }
            }
            // NF traversal: in one port, out any other. Every NF port
            // is also a terminal of the reachability relation.
            for nf in &part.nfs {
                for p in &nf.ports {
                    let arrived = g.vert(Vertex::Arrived(pi, PortRef::Nf(nf.id.clone(), p.id)));
                    g.egress.insert(arrived, format!("nf:{}:{}", nf.id, p.id));
                    for q in &nf.ports {
                        if p.id != q.id {
                            g.edge(
                                Vertex::Arrived(pi, PortRef::Nf(nf.id.clone(), p.id)),
                                Vertex::Emitted(pi, PortRef::Nf(nf.id.clone(), q.id)),
                            );
                        }
                    }
                }
            }
            // Real endpoints are the graph's boundary.
            for ep in &part.endpoints {
                if ep.id.starts_with("ovl-") {
                    continue;
                }
                let id = g.vert(Vertex::Emitted(pi, PortRef::Endpoint(ep.id.clone())));
                g.ingress.push((ep.id.clone(), id));
                let id = g.vert(Vertex::Arrived(pi, PortRef::Endpoint(ep.id.clone())));
                g.egress.insert(id, format!("ep:{}", ep.id));
            }
        }
        // Overlay hops.
        for (endpoint_id, a, b) in hops {
            g.edge(
                Vertex::Arrived(*a, PortRef::Endpoint(endpoint_id.clone())),
                Vertex::Emitted(*b, PortRef::Endpoint(endpoint_id.clone())),
            );
        }
        g
    }

    /// Endpoint-to-endpoint reachability pairs.
    fn reach(&self) -> BTreeSet<(String, String)> {
        let mut pairs = BTreeSet::new();
        for (ep, start) in &self.ingress {
            let mut seen = vec![false; self.edges.len()];
            let mut stack = vec![*start];
            seen[*start] = true;
            while let Some(v) = stack.pop() {
                if let Some(out) = self.egress.get(&v) {
                    pairs.insert((ep.clone(), out.clone()));
                }
                for &w in &self.edges[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        pairs
    }

    /// A vertex on a cycle reachable from any ingress, if one exists.
    fn find_cycle(&self) -> Option<&Vertex> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.edges.len()];
        let mut cyclic: Option<usize> = None;
        for (_, start) in &self.ingress {
            if color[*start] != WHITE {
                continue;
            }
            // Iterative DFS with an explicit edge cursor.
            let mut stack: Vec<(usize, usize)> = vec![(*start, 0)];
            color[*start] = GRAY;
            while let Some((v, i)) = stack.pop() {
                if i < self.edges[v].len() {
                    stack.push((v, i + 1));
                    let w = self.edges[v][i];
                    match color[w] {
                        WHITE => {
                            color[w] = GRAY;
                            stack.push((w, 0));
                        }
                        GRAY => {
                            cyclic = Some(w);
                            break;
                        }
                        _ => {}
                    }
                } else {
                    color[v] = BLACK;
                }
            }
            if cyclic.is_some() {
                break;
            }
        }
        let target = cyclic?;
        self.verts
            .iter()
            .find_map(|(v, id)| (*id == target).then_some(v))
    }

    /// BFS tree from `start`: per vertex, the predecessor it was first
    /// reached from (`None` for the root and for unreached vertices)
    /// plus whether it was reached at all.
    fn bfs(&self, start: usize) -> (Vec<Option<usize>>, Vec<bool>, Vec<usize>) {
        let mut parent = vec![None; self.edges.len()];
        let mut seen = vec![false; self.edges.len()];
        let mut order = Vec::new();
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &self.edges[v] {
                if !seen[w] {
                    seen[w] = true;
                    parent[w] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        (parent, seen, order)
    }

    /// The vertex path `start → target` (inclusive), if reachable.
    fn path_to(&self, start: usize, target: usize) -> Option<Vec<usize>> {
        let (parent, seen, _) = self.bfs(start);
        if !seen[target] {
            return None;
        }
        let mut path = vec![target];
        let mut v = target;
        while let Some(p) = parent[v] {
            path.push(p);
            v = p;
        }
        path.reverse();
        Some(path)
    }

    /// The deepest BFS path from `start`: how far any frame can get.
    /// (BFS visits in depth order, so the last-visited vertex is a
    /// deepest one.)
    fn deepest_path(&self, start: usize) -> Vec<usize> {
        let (parent, _, order) = self.bfs(start);
        let Some(&last) = order.last() else {
            return vec![start];
        };
        let mut path = vec![last];
        let mut v = last;
        while let Some(p) = parent[v] {
            path.push(p);
            v = p;
        }
        path.reverse();
        path
    }

    /// The vertex behind an id (reverse lookup; witness paths only).
    fn vertex(&self, id: usize) -> Option<&Vertex> {
        self.verts.iter().find_map(|(v, i)| (*i == id).then_some(v))
    }
}

// ---------------------------------------------------------------------
// Witness synthesis: counterexample packets
// ---------------------------------------------------------------------

/// Incremental builder for statically-synthesized witness traces.
/// Witnesses are ghost walks by definition: nothing was injected.
struct Witness {
    trace: PacketTrace,
}

impl Witness {
    fn new(node: &str, port: &str) -> Self {
        Witness {
            trace: PacketTrace {
                origin_node: node.to_string(),
                origin_port: port.to_string(),
                ghost: true,
                hops: Vec::new(),
            },
        }
    }

    fn hop(&mut self, node: &str, kind: HopKind) {
        let seq = self.trace.hops.len() as u32;
        self.trace.hops.push(HopRecord {
            seq,
            node: node.to_string(),
            kind,
        });
    }

    fn finish(self) -> PacketTrace {
        self.trace
    }
}

/// The vid behind a synthesized overlay endpoint id (`ovl-<vid>`).
fn ovl_vid(ep: &str) -> u16 {
    ep.strip_prefix("ovl-")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Witness for a transit loop: a frame rides the pinned path until it
/// re-enters a node it already crossed.
fn witness_transit_loop(vid: u16, endpoint: &str, path: &[String]) -> PacketTrace {
    let origin = path.first().map(String::as_str).unwrap_or("?");
    let mut w = Witness::new(origin, endpoint);
    w.hop(
        origin,
        HopKind::Ingress {
            port: endpoint.to_string(),
        },
    );
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    if let Some(first) = path.first() {
        seen.insert(first);
    }
    for (i, pair) in path.windows(2).enumerate() {
        w.hop(
            &pair[0],
            HopKind::OverlayHop {
                vid,
                from: pair[0].clone(),
                to: pair[1].clone(),
                hop: i,
                esp: false,
                ttl_left: (path.len() - 1 - i) as u32,
            },
        );
        if !seen.insert(&pair[1]) {
            w.hop(
                &pair[1],
                HopKind::Drop {
                    reason: DropReason::OverlayLoop,
                    detail: format!("pinned path of vid {vid} revisits '{}'", pair[1]),
                },
            );
            break;
        }
    }
    w.finish()
}

/// Witness for a blackholed overlay wire: the frame crosses the pinned
/// path and dies where the expected rule is missing — at the
/// destination's tables (`transit_at: None`) or on an intermediate
/// transit node.
fn witness_blackhole_wire(
    graph: &str,
    vid: u16,
    endpoint: &str,
    path: &[String],
    transit_at: Option<&str>,
    missing: &str,
) -> PacketTrace {
    let origin = path.first().map(String::as_str).unwrap_or("?");
    let mut w = Witness::new(origin, endpoint);
    w.hop(
        origin,
        HopKind::Ingress {
            port: endpoint.to_string(),
        },
    );
    for (i, pair) in path.windows(2).enumerate() {
        w.hop(
            &pair[0],
            HopKind::OverlayHop {
                vid,
                from: pair[0].clone(),
                to: pair[1].clone(),
                hop: i,
                esp: false,
                ttl_left: (path.len() - 1 - i) as u32,
            },
        );
        if transit_at.is_some_and(|mid| mid == pair[1]) {
            break;
        }
    }
    let dies_on = transit_at
        .or(path.last().map(String::as_str))
        .unwrap_or("?");
    w.hop(
        dies_on,
        HopKind::Classify {
            lsi: format!("{graph}@{dies_on}"),
            table: 0,
            stage: ClassifierStage::Static,
            cookie: None,
            priority: None,
            outputs: 0,
        },
    );
    w.hop(
        dies_on,
        HopKind::Drop {
            reason: DropReason::TableMiss,
            detail: missing.to_string(),
        },
    );
    w.finish()
}

/// Witness for a rule sending into an overlay endpoint with no wire:
/// the frame matches the rule, then has nowhere to go.
fn witness_blackhole_unknown_overlay(
    graph: &str,
    node: &str,
    rule_id: &str,
    port_in: &str,
    ep: &str,
) -> PacketTrace {
    let mut w = Witness::new(node, port_in);
    w.hop(
        node,
        HopKind::Ingress {
            port: port_in.to_string(),
        },
    );
    w.hop(
        node,
        HopKind::Classify {
            lsi: format!("{graph}@{node}"),
            table: 0,
            stage: ClassifierStage::Static,
            cookie: None,
            priority: None,
            outputs: 1,
        },
    );
    w.hop(
        node,
        HopKind::Drop {
            reason: DropReason::OverlayUnroutable,
            detail: format!("rule '{rule_id}' sends into unknown overlay '{ep}'"),
        },
    );
    w.finish()
}

/// Render a vertex path through the installed port graph as a witness
/// walk, closed by `terminal` (built from the final node's name).
fn witness_from_vertex_path(
    g: &PortGraph,
    part_names: &[&String],
    graph_id: &str,
    from_ep: &str,
    vpath: &[usize],
    terminal: impl FnOnce(&str) -> HopKind,
) -> PacketTrace {
    fn node_of<'a>(part_names: &[&'a String], v: &Vertex) -> &'a str {
        let (Vertex::Emitted(pi, _) | Vertex::Arrived(pi, _)) = v;
        part_names.get(*pi).map(|s| s.as_str()).unwrap_or("?")
    }
    let verts: Vec<&Vertex> = vpath.iter().filter_map(|id| g.vertex(*id)).collect();
    let origin = verts.first().map(|v| node_of(part_names, v)).unwrap_or("?");
    let mut w = Witness::new(origin, from_ep);
    w.hop(
        origin,
        HopKind::Ingress {
            port: from_ep.to_string(),
        },
    );
    for pair in verts.windows(2) {
        let (here, next) = (node_of(part_names, pair[0]), node_of(part_names, pair[1]));
        match (pair[0], pair[1]) {
            // A rule carried the frame from an emitted port to an
            // arrived one inside the same part.
            (Vertex::Emitted(pi, _), Vertex::Arrived(pj, _)) if pi == pj => {
                w.hop(
                    here,
                    HopKind::Classify {
                        lsi: format!("{graph_id}@{here}"),
                        table: 0,
                        stage: ClassifierStage::Static,
                        cookie: None,
                        priority: None,
                        outputs: 1,
                    },
                );
            }
            // The frame traversed an NF (in one port, out another).
            (Vertex::Arrived(pi, PortRef::Nf(nf, _)), Vertex::Emitted(pj, PortRef::Nf(nf2, _)))
                if pi == pj && nf == nf2 =>
            {
                w.hop(
                    here,
                    HopKind::NfDeliver {
                        instance: nf.clone(),
                        nf_type: "static".to_string(),
                        flavor: "static".to_string(),
                        latency_ns: 0,
                    },
                );
            }
            // An overlay hop re-emitted the frame on the peer part.
            (Vertex::Arrived(pi, PortRef::Endpoint(ep)), Vertex::Emitted(pj, _)) if pi != pj => {
                w.hop(
                    here,
                    HopKind::OverlayHop {
                        vid: ovl_vid(ep),
                        from: here.to_string(),
                        to: next.to_string(),
                        hop: 0,
                        esp: false,
                        ttl_left: 0,
                    },
                );
            }
            _ => {}
        }
    }
    let last = verts
        .last()
        .map(|v| node_of(part_names, v))
        .unwrap_or(origin);
    let kind = terminal(last);
    w.hop(last, kind);
    w.finish()
}

/// Resolve whether `target` names a port the part actually carries.
fn resolves(part: &NfFg, target: &PortRef) -> bool {
    match target {
        PortRef::Endpoint(id) => part.endpoints.iter().any(|e| &e.id == id),
        PortRef::Nf(nf, port) => part
            .nfs
            .iter()
            .any(|n| &n.id == nf && n.ports.iter().any(|p| p.id == *port)),
    }
}

/// Verify one deployed graph against the fleet snapshot. Reads the
/// tables of every node hosting one of its parts, so a scoped snapshot
/// must have lowered those hosts.
pub fn check_graph(snap: &Snapshot, g: &GraphState) -> (Vec<Violation>, CheckStats) {
    let mut v: Vec<Violation> = Vec::new();
    let mut stats = CheckStats::default();

    let part_names: Vec<&String> = g.parts.keys().collect();
    let part_idx: BTreeMap<&str, usize> = part_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let link_by_ep: BTreeMap<&str, &crate::snapshot::GraphLink> = g
        .links
        .iter()
        .map(|l| (l.endpoint_id.as_str(), l))
        .collect();

    // ---- Structural part checks ----
    for (node, part) in &g.parts {
        match snap.node(node) {
            None => v.push(
                Violation::new(
                    code::MISSING_PART,
                    "part placed on unknown node".to_string(),
                )
                .on_graph(&g.id)
                .on_node(node),
            ),
            Some(n) if !n.serving => v.push(
                Violation::new(code::MISSING_PART, "part placed on failed node".to_string())
                    .on_graph(&g.id)
                    .on_node(node),
            ),
            Some(_) => {}
        }
        for rule in &part.flow_rules {
            stats.rules_checked += 1;
            match &rule.matches.port_in {
                None => v.push(
                    Violation::new(
                        code::BAD_OUTPUT,
                        format!("rule '{}' has no port-in", rule.id),
                    )
                    .on_graph(&g.id)
                    .on_node(node),
                ),
                Some(p) if !resolves(part, p) => v.push(
                    Violation::new(
                        code::BAD_OUTPUT,
                        format!("rule '{}' matches missing port {p:?}", rule.id),
                    )
                    .on_graph(&g.id)
                    .on_node(node),
                ),
                Some(_) => {}
            }
            for action in &rule.actions {
                let RuleAction::Output(target) = action else {
                    continue;
                };
                if !resolves(part, target) {
                    v.push(
                        Violation::new(
                            code::BAD_OUTPUT,
                            format!("rule '{}' outputs to missing port {target:?}", rule.id),
                        )
                        .on_graph(&g.id)
                        .on_node(node),
                    );
                }
                // Sending into an overlay endpoint requires the wire.
                if let PortRef::Endpoint(ep) = target {
                    if ep.starts_with("ovl-") && !link_by_ep.contains_key(ep.as_str()) {
                        let port_in = rule
                            .matches
                            .port_in
                            .as_ref()
                            .map(|p| p.to_string())
                            .unwrap_or_else(|| "?".to_string());
                        v.push(
                            Violation::new(
                                code::BLACKHOLE,
                                format!("rule '{}' sends into unknown overlay '{ep}'", rule.id),
                            )
                            .on_graph(&g.id)
                            .on_node(node)
                            .with_witness(
                                witness_blackhole_unknown_overlay(
                                    &g.id, node, &rule.id, &port_in, ep,
                                ),
                            ),
                        );
                    }
                }
            }
        }
    }

    // ---- Overlay link checks + hop edges ----
    let mut hops: Vec<(String, usize, usize)> = Vec::new();
    for link in &g.links {
        let info = snap.link(link.vid);
        let path: Vec<String> = match info {
            Some(info) if info.graph == g.id => info.path.clone(),
            Some(info) => {
                v.push(
                    Violation::new(
                        code::VID_LEDGER,
                        format!(
                            "link vid {} claimed by graph but owned by '{}'",
                            link.vid, info.graph
                        ),
                    )
                    .on_graph(&g.id),
                );
                vec![link.from_node.clone(), link.to_node.clone()]
            }
            None => {
                v.push(
                    Violation::new(
                        code::DANGLING_VID,
                        format!("overlay link vid {} has no live wire", link.vid),
                    )
                    .on_graph(&g.id),
                );
                vec![link.from_node.clone(), link.to_node.clone()]
            }
        };
        if path.first() != Some(&link.from_node) || path.last() != Some(&link.to_node) {
            v.push(
                Violation::new(
                    code::VID_LEDGER,
                    format!(
                        "link vid {} path {:?} does not run {} → {}",
                        link.vid, path, link.from_node, link.to_node
                    ),
                )
                .on_graph(&g.id),
            );
        }
        {
            let mut seen = BTreeSet::new();
            if !path.iter().all(|n| seen.insert(n)) {
                v.push(
                    Violation::new(
                        code::TRANSIT_LOOP,
                        format!("link vid {} path {:?} revisits a node", link.vid, path),
                    )
                    .on_graph(&g.id)
                    .with_witness(witness_transit_loop(
                        link.vid,
                        &link.endpoint_id,
                        &path,
                    )),
                );
            }
        }
        // The delivery rule must exist on the last hop; a transit rule
        // on every intermediate hop.
        if let Some(dst) = g.parts.get(&link.to_node) {
            if !dst.flow_rules.iter().any(|r| r.id == link.in_rule_id) {
                v.push(
                    Violation::new(
                        code::BLACKHOLE,
                        format!(
                            "overlay vid {} has no delivery rule '{}'",
                            link.vid, link.in_rule_id
                        ),
                    )
                    .on_graph(&g.id)
                    .on_node(&link.to_node)
                    .with_witness(witness_blackhole_wire(
                        &g.id,
                        link.vid,
                        &link.endpoint_id,
                        &path,
                        None,
                        &format!(
                            "no delivery rule '{}' for vid {}",
                            link.in_rule_id, link.vid
                        ),
                    )),
                );
            }
        }
        for mid in path.iter().take(path.len().saturating_sub(1)).skip(1) {
            let has_transit = g.parts.get(mid).is_some_and(|p| {
                p.flow_rules.iter().any(|r| {
                    r.matches.port_in == Some(PortRef::Endpoint(link.endpoint_id.clone()))
                        && r.actions.iter().any(|a| {
                            *a == RuleAction::Output(PortRef::Endpoint(link.endpoint_id.clone()))
                        })
                })
            });
            if !has_transit {
                v.push(
                    Violation::new(
                        code::BLACKHOLE,
                        format!("overlay vid {} has no transit rule on '{mid}'", link.vid),
                    )
                    .on_graph(&g.id)
                    .on_node(mid)
                    .with_witness(witness_blackhole_wire(
                        &g.id,
                        link.vid,
                        &link.endpoint_id,
                        &path,
                        Some(mid),
                        &format!("no transit rule for vid {} on '{mid}'", link.vid),
                    )),
                );
            }
        }
        // Hop edges along the pinned path (degenerate paths still get
        // a best-effort from→to edge so reachability stays comparable).
        let idx_of = |n: &String| part_idx.get(n.as_str()).copied();
        let mut wired = false;
        for w in path.windows(2) {
            if let (Some(a), Some(b)) = (idx_of(&w[0]), idx_of(&w[1])) {
                hops.push((link.endpoint_id.clone(), a, b));
                wired = true;
            }
        }
        if !wired {
            if let (Some(a), Some(b)) = (idx_of(&link.from_node), idx_of(&link.to_node)) {
                hops.push((link.endpoint_id.clone(), a, b));
            }
        }
    }

    // ---- Reachability equivalence ----
    let installed_parts: Vec<(usize, &NfFg)> = g.parts.values().enumerate().collect();
    let installed = PortGraph::build(&installed_parts, &hops);
    let original = PortGraph::build(&[(0, &g.original)], &[]);
    stats.rules_checked += g.original.flow_rules.len();

    let want = original.reach();
    let have = installed.reach();
    for (from, to) in want.difference(&have) {
        // Witness: walk the installed graph from `from` as far as any
        // frame can get; the walk dead-ends short of `to`.
        let witness = installed
            .ingress
            .iter()
            .find(|(ep, _)| ep == from)
            .map(|(_, start)| {
                let vpath = installed.deepest_path(*start);
                witness_from_vertex_path(&installed, &part_names, &g.id, from, &vpath, |_| {
                    HopKind::Drop {
                        reason: DropReason::TableMiss,
                        detail: format!("static walk dead-ends; '{to}' is unreachable"),
                    }
                })
            });
        let mut viol = Violation::new(
            code::UNREACHABLE,
            format!("endpoint '{from}' no longer reaches '{to}'"),
        )
        .on_graph(&g.id);
        if let Some(w) = witness {
            viol = viol.with_witness(w);
        }
        v.push(viol);
    }
    for (from, to) in have.difference(&want) {
        // Witness: the concrete installed walk that reaches `to` even
        // though the tenant graph never connected the pair.
        let witness = installed
            .ingress
            .iter()
            .find(|(ep, _)| ep == from)
            .and_then(|(_, start)| {
                let target = installed
                    .egress
                    .iter()
                    .find(|(_, label)| *label == to)
                    .map(|(id, _)| *id)?;
                let vpath = installed.path_to(*start, target)?;
                Some(witness_from_vertex_path(
                    &installed,
                    &part_names,
                    &g.id,
                    from,
                    &vpath,
                    |_| HopKind::Egress { port: to.clone() },
                ))
            });
        let mut viol = Violation::new(
            code::PHANTOM_REACH,
            format!("installed state lets '{from}' reach '{to}' but the graph does not"),
        )
        .on_graph(&g.id);
        if let Some(w) = witness {
            viol = viol.with_witness(w);
        }
        v.push(viol);
    }

    // ---- Loop freedom ----
    if let Some(vertex) = installed.find_cycle() {
        let (dir, pi, port) = match vertex {
            Vertex::Emitted(pi, p) => ("emitted-from", *pi, p),
            Vertex::Arrived(pi, p) => ("arrived-at", *pi, p),
        };
        let node = part_names.get(pi).map(|s| s.as_str()).unwrap_or("?");
        v.push(
            Violation::new(
                code::FORWARDING_LOOP,
                format!("class cycles through {dir} {port:?} on '{node}'"),
            )
            .on_graph(&g.id),
        );
    }

    // ---- Compile consistency ----
    for exp in &g.expected_rules {
        let installed = snap.node(&exp.node).is_some_and(|n| {
            n.lsis
                .iter()
                .filter(|l| l.graph.as_deref() == Some(g.id.as_str()))
                .flat_map(|l| &l.tables)
                .flat_map(|t| &t.rules)
                .any(|r| r.cookie == exp.cookie)
        });
        if !installed {
            v.push(
                Violation::new(
                    code::MISSING_RULE,
                    format!("compiled rule '{}' not installed", exp.rule_id),
                )
                .on_graph(&g.id)
                .on_node(&exp.node),
            );
        }
    }

    (v, stats)
}

// ---------------------------------------------------------------------
// Table-level checks
// ---------------------------------------------------------------------

/// Audit one node's installed tables: shadowed rules, dead outputs,
/// pipeline jumps, and overlay-vid references.
///
/// `in_use` is the set of vids carried by live links; actions naming a
/// pool vid (`vid_base..vid_next`) outside it are dangling.
pub fn audit_node(
    node: &NodeState,
    vid_base: u16,
    vid_next: u16,
    in_use: &BTreeSet<u16>,
) -> (Vec<Violation>, CheckStats) {
    let mut v = Vec::new();
    let mut stats = CheckStats::default();

    for lsi in &node.lsis {
        let ports: BTreeSet<u32> = lsi.ports.iter().copied().collect();
        let n_tables = lsi.tables.len() as u8;
        for table in &lsi.tables {
            stats.rules_checked += table.rules.len();
            // Shadow analysis over the table in match order.
            let matches: Vec<_> = table.rules.iter().map(|r| &r.matches).collect();
            let (shadowed, classes) = shadowed_rules(&matches, PIECE_BUDGET);
            stats.classes += classes;
            for (idx, covering) in shadowed {
                let cover: Vec<String> = covering
                    .iter()
                    .map(|j| format!("#{j}(cookie {:#x})", table.rules[*j].cookie))
                    .collect();
                v.push(
                    Violation::new(
                        code::SHADOWED_RULE,
                        format!(
                            "{} table {} entry #{idx} (cookie {:#x}) is fully covered by {}",
                            lsi.name,
                            table.index,
                            table.rules[idx].cookie,
                            cover.join(", "),
                        ),
                    )
                    .on_node(&node.name),
                );
            }
            // Action sanity.
            for (idx, rule) in table.rules.iter().enumerate() {
                for action in &rule.actions {
                    match action {
                        FlowAction::Output(p) if !ports.contains(&p.0) => v.push(
                            Violation::new(
                                code::DEAD_OUTPUT,
                                format!(
                                    "{} table {} entry #{idx} outputs to missing port {}",
                                    lsi.name, table.index, p.0
                                ),
                            )
                            .on_node(&node.name),
                        ),
                        FlowAction::GotoTable(t) if *t >= n_tables => v.push(
                            Violation::new(
                                code::BAD_GOTO,
                                format!(
                                    "{} table {} entry #{idx} jumps to missing table {t}",
                                    lsi.name, table.index
                                ),
                            )
                            .on_node(&node.name),
                        ),
                        FlowAction::GotoTable(t) if *t <= table.index => v.push(
                            Violation::new(
                                code::BAD_GOTO,
                                format!(
                                    "{} table {} entry #{idx} jumps backward to table {t}",
                                    lsi.name, table.index
                                ),
                            )
                            .on_node(&node.name),
                        ),
                        FlowAction::PushVlan(vid) | FlowAction::SetVlan(vid)
                            if *vid >= vid_base && *vid < vid_next && !in_use.contains(vid) =>
                        {
                            v.push(
                                Violation::new(
                                    code::DANGLING_VID,
                                    format!(
                                        "{} table {} entry #{idx} tags pool vid {vid} with no live wire",
                                        lsi.name, table.index
                                    ),
                                )
                                .on_node(&node.name),
                            )
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    (v, stats)
}

// ---------------------------------------------------------------------
// Ledger-level checks
// ---------------------------------------------------------------------

/// Verify the vid pool and the shared-NNF lease table. Reads only the
/// fleet-wide side of the snapshot, so it is exact on a scoped one.
pub fn check_ledger(snap: &Snapshot) -> Vec<Violation> {
    let mut v = Vec::new();

    // Every minted vid (base..next) is exactly one of: free, in use by
    // a live link, or reserved by a staged standby plan.
    let free: BTreeSet<u16> = snap.free_vids.iter().copied().collect();
    let standby: BTreeSet<u16> = snap.standby_vids.iter().copied().collect();
    let in_use: BTreeSet<u16> = snap.links.iter().map(|l| l.vid).collect();
    for vid in snap.vid_base..snap.vid_next {
        let spots =
            free.contains(&vid) as u8 + standby.contains(&vid) as u8 + in_use.contains(&vid) as u8;
        if spots != 1 {
            let state = if spots == 0 {
                "leaked"
            } else {
                "double-booked"
            };
            v.push(Violation::new(
                code::VID_LEDGER,
                format!(
                    "vid {vid} is {state} (free={}, standby={}, in-use={})",
                    free.contains(&vid),
                    standby.contains(&vid),
                    in_use.contains(&vid)
                ),
            ));
        }
    }
    for vid in free.iter().chain(&standby).chain(&in_use) {
        if *vid < snap.vid_base || *vid >= snap.vid_next {
            v.push(Violation::new(
                code::VID_LEDGER,
                format!("vid {vid} was never minted by the pool"),
            ));
        }
    }

    // Links belong to deployed graphs and ride serving nodes.
    for link in &snap.links {
        if !snap.has_graph(&link.graph) {
            v.push(
                Violation::new(
                    code::DANGLING_VID,
                    format!("link vid {} owned by undeployed graph", link.vid),
                )
                .on_graph(&link.graph),
            );
        }
        for node in &link.path {
            if snap.serving(node) != Some(true) {
                v.push(
                    Violation::new(
                        code::DANGLING_VID,
                        format!("link vid {} rides non-serving node", link.vid),
                    )
                    .on_graph(&link.graph)
                    .on_node(node),
                );
            }
        }
    }

    // Shared-NNF leases point at live hosts with deployed tenants.
    for lease in &snap.leases {
        if snap.serving(&lease.host) != Some(true) {
            v.push(
                Violation::new(
                    code::DANGLING_LEASE,
                    format!("shared instance '{}' hosted on dead node", lease.key),
                )
                .on_node(&lease.host),
            );
        }
        if lease.tenants.is_empty() {
            v.push(
                Violation::new(
                    code::DANGLING_LEASE,
                    format!("shared instance '{}' has no tenants", lease.key),
                )
                .on_node(&lease.host),
            );
        }
        for tenant in &lease.tenants {
            if !snap.has_graph(tenant) {
                v.push(
                    Violation::new(
                        code::DANGLING_LEASE,
                        format!(
                            "shared instance '{}' leased by undeployed graph '{tenant}'",
                            lease.key
                        ),
                    )
                    .on_graph(tenant)
                    .on_node(&lease.host),
                );
            }
        }
    }

    v
}

/// Run every check over the whole snapshot (full verification).
/// Duration is left zero — the caller owns the clock.
pub fn run(snap: &Snapshot) -> VerifyReport {
    let mut report = VerifyReport {
        mode: "full",
        rules_lowered: snap.installed_rules(),
        ..VerifyReport::default()
    };
    report.violations.extend(check_ledger(snap));
    for g in &snap.graphs {
        let (v, stats) = check_graph(snap, g);
        report.violations.extend(v);
        report.stats.merge(stats);
        report.graphs_checked += 1;
    }
    let in_use: BTreeSet<u16> = snap.links.iter().map(|l| l.vid).collect();
    // Failed carcasses keep their installed state until recovery
    // purges it; their tables are off the traffic path and expected to
    // be stale, so only serving nodes are audited.
    for node in snap.nodes.iter().filter(|n| n.serving) {
        let (v, stats) = audit_node(node, snap.vid_base, snap.vid_next, &in_use);
        report.violations.extend(v);
        report.stats.merge(stats);
        report.nodes_checked += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::*;
    use un_nffg::{Endpoint, EndpointKind, FlowRule, NfFgBuilder, TrafficMatch};
    use un_switch::{FlowMatch, PortNo};

    fn ep(id: &str) -> PortRef {
        PortRef::Endpoint(id.to_string())
    }

    fn nf(id: &str, port: u32) -> PortRef {
        PortRef::Nf(id.to_string(), port)
    }

    fn rule(id: &str, port_in: PortRef, to: PortRef) -> FlowRule {
        FlowRule {
            id: id.to_string(),
            priority: 10,
            matches: TrafficMatch::from_port(port_in),
            actions: vec![RuleAction::Output(to)],
        }
    }

    fn ovl_ep(vid: u16) -> Endpoint {
        Endpoint {
            id: format!("ovl-{vid}"),
            kind: EndpointKind::Vlan {
                if_name: "fab0".into(),
                vlan_id: vid,
            },
        }
    }

    /// A two-NF chain (`lan ↔ fw ↔ gw ↔ wan`) partitioned by hand
    /// across two nodes exactly the way the partitioner would do it
    /// (cut edges fw:1→gw:0 on vid 3000 and gw:0→fw:1 on vid 3001),
    /// with minimal healthy installed tables — the clean fixture.
    fn healthy() -> Snapshot {
        let original = NfFgBuilder::new("g1", "chain")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("fw", "firewall", 2)
            .nf("gw", "ipsec", 2)
            .chain("lan", &["fw", "gw"], "wan")
            .build();

        let mut p1 = NfFgBuilder::new("g1", "chain@n1")
            .interface_endpoint("lan", "eth0")
            .nf("fw", "firewall", 2)
            .build();
        p1.endpoints.push(ovl_ep(3000));
        p1.endpoints.push(ovl_ep(3001));
        p1.flow_rules = vec![
            rule("c0-fwd", ep("lan"), nf("fw", 0)),
            rule("c0-rev", nf("fw", 0), ep("lan")),
            rule("c1-fwd", nf("fw", 1), ep("ovl-3000")),
            rule("ovl-3001-in", ep("ovl-3001"), nf("fw", 1)),
        ];

        let mut p2 = NfFgBuilder::new("g1", "chain@n2")
            .interface_endpoint("wan", "eth1")
            .nf("gw", "ipsec", 2)
            .build();
        p2.endpoints.push(ovl_ep(3000));
        p2.endpoints.push(ovl_ep(3001));
        p2.flow_rules = vec![
            rule("c1-rev", nf("gw", 0), ep("ovl-3001")),
            rule("c2-fwd", nf("gw", 1), ep("wan")),
            rule("c2-rev", ep("wan"), nf("gw", 1)),
            rule("ovl-3000-in", ep("ovl-3000"), nf("gw", 0)),
        ];

        let parts: BTreeMap<String, NfFg> = [("n1".to_string(), p1), ("n2".to_string(), p2)].into();
        let links = vec![
            GraphLink {
                vid: 3000,
                from_node: "n1".into(),
                to_node: "n2".into(),
                endpoint_id: "ovl-3000".into(),
                in_rule_id: "ovl-3000-in".into(),
            },
            GraphLink {
                vid: 3001,
                from_node: "n2".into(),
                to_node: "n1".into(),
                endpoint_id: "ovl-3001".into(),
                in_rule_id: "ovl-3001-in".into(),
            },
        ];
        let link_infos = vec![
            LinkInfo {
                vid: 3000,
                graph: "g1".into(),
                path: vec!["n1".into(), "n2".into()],
            },
            LinkInfo {
                vid: 3001,
                graph: "g1".into(),
                path: vec!["n2".into(), "n1".into()],
            },
        ];
        let nodes = ["n1", "n2"]
            .iter()
            .map(|n| NodeState {
                name: n.to_string(),
                serving: true,
                lsis: vec![LsiState {
                    name: "LSI-0".into(),
                    graph: None,
                    ports: vec![1, 2],
                    tables: vec![TableState {
                        index: 0,
                        rules: vec![RuleState {
                            priority: 5,
                            matches: FlowMatch::in_port(PortNo(1)),
                            actions: vec![FlowAction::Output(PortNo(2))],
                            cookie: 1,
                        }],
                    }],
                }],
            })
            .collect();

        Snapshot {
            vid_base: 3000,
            vid_next: 3002,
            free_vids: Vec::new(),
            standby_vids: Vec::new(),
            nodes,
            graphs: vec![GraphState {
                id: "g1".into(),
                original,
                parts,
                links,
                expected_rules: Vec::new(),
            }],
            links: link_infos,
            leases: Vec::new(),
            ..Snapshot::default()
        }
    }

    #[test]
    fn healthy_snapshot_verifies_clean() {
        let report = run(&healthy());
        assert!(report.ok(), "{:#?}", report.violations);
        assert!(report.stats.rules_checked > 0);
    }

    #[test]
    fn dropped_delivery_rule_breaks_reachability() {
        let mut snap = healthy();
        let g = &mut snap.graphs[0];
        let victim = g.links[0].in_rule_id.clone();
        let to_node = g.links[0].to_node.clone();
        g.parts
            .get_mut(&to_node)
            .unwrap()
            .flow_rules
            .retain(|r| r.id != victim);
        let report = run(&snap);
        assert!(report
            .violations
            .iter()
            .any(|v| v.code == code::UNREACHABLE));
        assert!(report.violations.iter().any(|v| v.code == code::BLACKHOLE));
    }

    #[test]
    fn dangling_link_vid_is_flagged() {
        let mut snap = healthy();
        let dropped = snap.links.remove(0);
        // The wire is gone but its vid is neither freed nor reserved.
        let report = run(&snap);
        assert!(
            report.violations.iter().any(
                |v| v.code == code::DANGLING_VID && v.detail.contains(&dropped.vid.to_string())
            ),
            "{:#?}",
            report.violations
        );
        assert!(report.violations.iter().any(|v| v.code == code::VID_LEDGER));
    }

    #[test]
    fn transit_loop_is_flagged() {
        let mut snap = healthy();
        let vid = snap.links[0].vid;
        snap.links[0].path = vec!["n1".into(), "n2".into(), "n1".into(), "n2".into()];
        let report = run(&snap);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.code == code::TRANSIT_LOOP && v.detail.contains(&vid.to_string())),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn rerouted_delivery_is_a_phantom_path() {
        let mut snap = healthy();
        let g = &mut snap.graphs[0];
        // Point the lan→fw rule straight at the wan-side endpoint's
        // overlay wire: traffic now skips both NFs.
        let from = g.links[0].from_node.clone();
        let ep = g.links[0].endpoint_id.clone();
        let part = g.parts.get_mut(&from).unwrap();
        let rule = part
            .flow_rules
            .iter_mut()
            .find(|r| r.matches.port_in == Some(un_nffg::PortRef::Endpoint("lan".into())))
            .expect("lan ingress rule lives on the from part");
        rule.actions = vec![RuleAction::Output(un_nffg::PortRef::Endpoint(ep))];
        let report = run(&snap);
        // Chain traffic no longer flows through fw — some original pair
        // is lost or a shortcut pair appears; either way it's caught.
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.code == code::UNREACHABLE || v.code == code::PHANTOM_REACH),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn shadowed_installed_rule_is_flagged_with_covering_set() {
        let mut snap = healthy();
        let table = &mut snap.nodes[0].lsis[0].tables[0];
        // Same match at lower priority: fully covered by entry #0.
        table.rules.push(RuleState {
            priority: 1,
            matches: FlowMatch::in_port(PortNo(1)),
            actions: vec![FlowAction::Output(PortNo(2))],
            cookie: 0xdead,
        });
        let report = run(&snap);
        let hit = report
            .violations
            .iter()
            .find(|v| v.code == code::SHADOWED_RULE)
            .expect("shadow flagged");
        assert!(hit.detail.contains("0xdead"));
        assert!(hit.detail.contains("#0"));
    }

    #[test]
    fn dead_output_and_bad_goto_are_flagged() {
        let mut snap = healthy();
        let table = &mut snap.nodes[0].lsis[0].tables[0];
        table.rules.push(RuleState {
            priority: 9,
            matches: FlowMatch::in_port(PortNo(2)),
            actions: vec![FlowAction::Output(PortNo(99)), FlowAction::GotoTable(7)],
            cookie: 2,
        });
        let report = run(&snap);
        assert!(report
            .violations
            .iter()
            .any(|v| v.code == code::DEAD_OUTPUT));
        assert!(report.violations.iter().any(|v| v.code == code::BAD_GOTO));
    }

    #[test]
    fn lease_on_dead_host_is_flagged() {
        let mut snap = healthy();
        snap.leases.push(LeaseInfo {
            key: "nat".into(),
            host: "n1".into(),
            tenants: vec!["g1".into()],
        });
        assert!(run(&snap).ok());
        snap.nodes[0].serving = false;
        let report = run(&snap);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.code == code::DANGLING_LEASE),
            "{:#?}",
            report.violations
        );
        // The dead host also strands the part placed on it.
        assert!(report
            .violations
            .iter()
            .any(|v| v.code == code::MISSING_PART));
    }

    #[test]
    fn missing_compiled_rule_is_flagged() {
        let mut snap = healthy();
        snap.graphs[0].expected_rules.push(ExpectedRule {
            node: "n1".into(),
            rule_id: "c0-fwd".into(),
            cookie: 0xbeef,
        });
        let report = run(&snap);
        assert!(report
            .violations
            .iter()
            .any(|v| v.code == code::MISSING_RULE));
    }
}
