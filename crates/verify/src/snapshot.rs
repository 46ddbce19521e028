//! Plain-data model of domain state, as seen by the verifier.
//!
//! `un-domain` builds a [`Snapshot`] from live orchestrator state
//! (`Domain::verify_snapshot`); negative tests build corrupted ones by
//! mutating a real snapshot. Keeping the model free of orchestrator
//! types means the checker in [`crate::check`] can be exercised on any
//! state — live, replayed, or hand-seeded — through one entry point.
//!
//! A snapshot may be *scoped*: an incremental pass lowers plans only
//! for the graphs it re-checks, tables only on the nodes hosting them
//! (and on nodes marked dirty or whose tables changed), and on those
//! nodes the LSIs of re-checked graphs whole and of every other LSI
//! only the traffic classes it re-audits, with the classes that meet
//! them, each entry with its position in the whole table
//! ([`TableState::at`]); a graph's LSI with no class to re-audit is
//! left out. What was left out is still named
//! ([`Snapshot::unlowered_nodes`], [`Snapshot::unlowered_graphs`],
//! [`NodeState::unlowered_lsis`]) because the ledger checks need to know
//! the fleet exists — but it carries no tables to read, and asking the
//! [`Index`] for it, or for a graph LSI lowered in part, panics rather
//! than answer "no such node" or "no such rule".
//!
//! The checker never scans the snapshot per item: one [`Index`] per
//! pass, built by [`Snapshot::index`], answers every by-name, by-vid and
//! by-id lookup from borrowed keys.
//!
//! What is bulky is shared, not copied: a rule's action list, a graph's
//! original, its parts, its links and its install receipt, a link's
//! graph id and path are the live state's own reference-counted values,
//! so lowering them bumps a count.
//! A test that corrupts one goes through `Arc::make_mut`, which copies
//! it first and leaves the live state as it was.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use un_nffg::NfFg;
use un_switch::{FlowAction, FlowMatch};

/// One installed flow entry (counters stripped: verification is about
/// structure, not traffic).
#[derive(Debug, Clone)]
pub struct RuleState {
    /// Entry priority (higher wins).
    pub priority: u16,
    /// The classifier.
    pub matches: FlowMatch,
    /// Action list, in order: the installed entry's own.
    pub actions: Arc<[FlowAction]>,
    /// The orchestrator's cookie (graph-rule hash or graph hash).
    pub cookie: u64,
}

/// One flow table, rules in **match order** (priority descending,
/// insertion order breaking ties) — the order the shadow analysis
/// consumes.
#[derive(Debug, Clone)]
pub struct TableState {
    /// Table index within the LSI (0: an LSI has one table).
    pub index: u8,
    /// Entries in match order: every entry of the table, or in a scoped
    /// snapshot those of the traffic classes an incremental pass
    /// re-audits and of the classes that meet them.
    pub rules: Vec<RuleState>,
    /// Each listed entry's position in the whole table's match order;
    /// empty when `rules` is the whole table.
    pub at: Vec<usize>,
}

/// One logical switch instance on a node.
#[derive(Debug, Clone)]
pub struct LsiState {
    /// Switch name (`"LSI-0"`, `"LSI-g1"`, …).
    pub name: String,
    /// Owning graph id; `None` for the base LSI-0.
    pub graph: Option<String>,
    /// Port numbers present on the switch.
    pub ports: Vec<u32>,
    /// The LSI's table, as a list so the snapshot keeps the shape
    /// hand-built corrupted snapshots index.
    pub tables: Vec<TableState>,
}

/// One fleet node.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Node name.
    pub name: String,
    /// True while the node hosts partitions and carries traffic
    /// (`Alive` or `Suspect`); failed nodes are snapshotted too so the
    /// checker can tell "part on a dead node" from "part on no node".
    pub serving: bool,
    /// Every LSI on the node, LSI-0 first — in a scoped snapshot, all
    /// but those of [`NodeState::unlowered_lsis`].
    pub lsis: Vec<LsiState>,
    /// Graphs whose LSI on this node a scoped snapshot left out: their
    /// graph was not re-checked and no class of the LSI is re-audited,
    /// so its cached audit stands. Shared with the domain's own names,
    /// not copied.
    pub unlowered_lsis: Vec<Arc<str>>,
}

/// One synthesized cut edge of a deployed graph (the graph-side view
/// of an overlay link).
#[derive(Debug, Clone)]
pub struct GraphLink {
    /// Fleet-unique VLAN id carrying the link.
    pub vid: u16,
    /// Node hosting the sending rule.
    pub from_node: String,
    /// Node hosting the delivery target.
    pub to_node: String,
    /// Synthesized endpoint id in both parts: `ovl-<vid>`.
    pub endpoint_id: String,
    /// Id of the delivery rule in the `to_node` part.
    pub in_rule_id: String,
}

/// A rule the orchestrator claims to have installed: used by the
/// compile-consistency check (`cookie` must exist on `node`).
#[derive(Debug, Clone)]
pub struct ExpectedRule {
    /// Node the part (and hence the rule) was installed on.
    pub node: String,
    /// NF-FG rule id within the part.
    pub rule_id: String,
    /// Cookie the compiled entry carries on that node's graph LSI.
    pub cookie: u64,
}

/// One deployed graph: intent (original), plan (parts + links), and
/// the install receipt (expected rules).
#[derive(Debug, Clone)]
pub struct GraphState {
    /// Graph id.
    pub id: String,
    /// The tenant's original, unpartitioned NF-FG.
    pub original: Arc<NfFg>,
    /// Per-node sub-graphs the partitioner produced (node → part).
    pub parts: Arc<BTreeMap<String, NfFg>>,
    /// Synthesized inter-node links, shared with the live state.
    pub links: Arc<Vec<GraphLink>>,
    /// Every compiled rule the orchestrator installed for this graph,
    /// shared likewise.
    pub expected_rules: Arc<Vec<ExpectedRule>>,
}

/// One live overlay wire, domain view (ties a vid to its pinned path).
#[derive(Debug, Clone)]
pub struct LinkInfo {
    /// VLAN id.
    pub vid: u16,
    /// Owning graph.
    pub graph: Arc<str>,
    /// Pinned fabric path `[from_node, …, to_node]`.
    pub path: Arc<[String]>,
}

/// One shared-NNF instance and its tenancy.
#[derive(Debug, Clone)]
pub struct LeaseInfo {
    /// The instance's functional type, which names it: the domain
    /// shares one instance per type, and a node runs at most one.
    pub functional_type: String,
    /// Node hosting the instance.
    pub host: String,
    /// Tenant graph ids holding a lease.
    pub tenants: Vec<String>,
}

/// A self-contained picture of domain state at one instant: the ledger
/// side (vid pool, links, leases, fleet membership) always whole, the
/// table/plan side whole or scoped.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// First vid of the overlay pool (`base..next` have been minted).
    pub vid_base: u16,
    /// Next vid the pool would mint.
    pub vid_next: u16,
    /// Minted vids currently free for reuse.
    pub free_vids: Vec<u16>,
    /// Minted vids reserved by staged standby plans.
    pub standby_vids: Vec<u16>,
    /// Fleet nodes with their tables lowered (failed ones included,
    /// flagged not serving): every node unless the snapshot is scoped.
    pub nodes: Vec<NodeState>,
    /// Deployed graphs with their plans lowered: every graph unless
    /// the snapshot is scoped.
    pub graphs: Vec<GraphState>,
    /// `(name, serving)` of the nodes a scoped snapshot left out; the
    /// names are the domain's own, shared.
    pub unlowered_nodes: Vec<(Arc<str>, bool)>,
    /// Ids of the graphs a scoped snapshot left out, shared likewise.
    pub unlowered_graphs: Vec<Arc<str>>,
    /// Every live overlay link.
    pub links: Vec<LinkInfo>,
    /// Every shared-NNF instance with its leases.
    pub leases: Vec<LeaseInfo>,
}

impl Snapshot {
    /// Build the lookups the checks share. `O(nodes + graphs + links)`,
    /// once per pass; every answer borrows from `self`.
    pub fn index(&self) -> Index<'_> {
        // Of two entries with one key, the first listed (lowered before
        // unlowered) answers.
        let fleet = self.nodes.len() + self.unlowered_nodes.len();
        let mut nodes = Names::with_capacity(fleet);
        for n in &self.nodes {
            nodes.entry(&n.name).or_insert(Lowering::Lowered(n));
        }
        for (name, serving) in &self.unlowered_nodes {
            nodes.entry(name).or_insert(Lowering::Unlowered(*serving));
        }
        let deployed = self.graphs.len() + self.unlowered_graphs.len();
        let mut graphs = Names::with_capacity(deployed);
        for g in &self.graphs {
            graphs.entry(&g.id).or_insert(Some(g));
        }
        for id in &self.unlowered_graphs {
            graphs.entry(id).or_insert(None);
        }
        let mut links: Vec<(u16, &LinkInfo)> = self.links.iter().map(|l| (l.vid, l)).collect();
        links.sort_by_key(|(vid, _)| *vid);
        links.dedup_by_key(|(vid, _)| *vid);
        Index {
            snap: self,
            nodes,
            graphs,
            links,
        }
    }

    /// Total installed rules across every lowered node and LSI.
    pub fn installed_rules(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| &n.lsis)
            .flat_map(|l| &l.tables)
            .map(|t| t.rules.len())
            .sum()
    }
}

/// A by-name table of the index.
type Names<'a, V> = HashMap<&'a str, V>;

/// A node as the index knows it: lowered, or named with its health only.
enum Lowering<'a> {
    Lowered(&'a NodeState),
    Unlowered(bool),
}

/// Borrowed lookups over one [`Snapshot`]: node by name, graph by id,
/// live link by vid. Built from the snapshot's public fields, so a
/// snapshot a test corrupted is indexed as it stands.
pub struct Index<'a> {
    snap: &'a Snapshot,
    nodes: Names<'a, Lowering<'a>>,
    /// `None`: deployed, but outside the scope.
    graphs: Names<'a, Option<&'a GraphState>>,
    /// Every live link, sorted by vid.
    links: Vec<(u16, &'a LinkInfo)>,
}

impl<'a> Index<'a> {
    /// The snapshot this index reads.
    pub fn snapshot(&self) -> &'a Snapshot {
        self.snap
    }

    /// The node with `name`, if the fleet has one.
    ///
    /// # Panics
    /// When the node exists but lies outside the snapshot's scope: its
    /// tables were never lowered, so any answer would be a guess.
    pub fn node(&self, name: &str) -> Option<&'a NodeState> {
        match self.nodes.get(name)? {
            Lowering::Lowered(n) => Some(n),
            Lowering::Unlowered(_) => panic!("node '{name}' is outside this snapshot's scope"),
        }
    }

    /// Whether node `name` is serving; `None` when the fleet has no
    /// such node. Answers for nodes outside the scope too.
    pub fn serving(&self, name: &str) -> Option<bool> {
        self.nodes.get(name).map(|n| match n {
            Lowering::Lowered(n) => n.serving,
            Lowering::Unlowered(serving) => *serving,
        })
    }

    /// The live link carrying `vid`, if any.
    pub fn link(&self, vid: u16) -> Option<&'a LinkInfo> {
        let at = self.links.binary_search_by_key(&vid, |(v, _)| *v).ok()?;
        Some(self.links[at].1)
    }

    /// The vids of every live link, ascending.
    pub fn live_vids(&self) -> impl Iterator<Item = u16> + '_ {
        self.links.iter().map(|(vid, _)| *vid)
    }

    /// The deployed graph `id`, if any.
    ///
    /// # Panics
    /// When the graph is deployed but outside the snapshot's scope.
    pub fn graph(&self, id: &str) -> Option<&'a GraphState> {
        let found = *self.graphs.get(id)?;
        assert!(
            found.is_some(),
            "graph '{id}' is outside this snapshot's scope"
        );
        found
    }

    /// Whether graph `id` is deployed, inside the scope or not.
    pub fn has_graph(&self, id: &str) -> bool {
        self.graphs.contains_key(id)
    }

    /// Whether an LSI of graph `graph` on node `node` holds an entry
    /// stamped `cookie`; `false` on a node the fleet does not have.
    ///
    /// # Panics
    /// When the node, or that graph's LSI on it, lies outside the
    /// snapshot's scope, or the LSI was lowered only in part
    /// ([`TableState::at`]): "not lowered" must never read as "missing".
    pub fn graph_rule_installed(&self, node: &str, graph: &str, cookie: u64) -> bool {
        let Some(n) = self.node(node) else {
            return false;
        };
        let tables = n
            .lsis
            .iter()
            .filter(|l| l.graph.as_deref() == Some(graph))
            .flat_map(|l| &l.tables);
        let found = tables
            .clone()
            .flat_map(|t| &t.rules)
            .any(|r| r.cookie == cookie);
        assert!(
            tables.clone().all(|t| t.at.is_empty()),
            "graph '{graph}'s LSI on node '{node}' is lowered only in part"
        );
        assert!(
            found || !n.unlowered_lsis.iter().any(|g| **g == *graph),
            "graph '{graph}'s LSI on node '{node}' is outside this snapshot's scope"
        );
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped() -> Snapshot {
        Snapshot {
            nodes: vec![NodeState {
                name: "in".into(),
                serving: true,
                lsis: Vec::new(),
                unlowered_lsis: vec!["g-out".into()],
            }],
            unlowered_nodes: vec![("out".into(), false)],
            unlowered_graphs: vec!["g-out".into()],
            ..Snapshot::default()
        }
    }

    #[test]
    fn fleet_wide_questions_are_answered_for_the_whole_fleet() {
        let snap = scoped();
        let ix = snap.index();
        assert_eq!(ix.serving("in"), Some(true));
        assert_eq!(ix.serving("out"), Some(false));
        assert_eq!(ix.serving("nowhere"), None);
        assert!(ix.has_graph("g-out") && !ix.has_graph("g-none"));
        assert!(ix.node("in").is_some());
        assert!(ix.node("nowhere").is_none() && ix.graph("g-none").is_none());
    }

    #[test]
    #[should_panic(expected = "node 'out' is outside this snapshot's scope")]
    fn reading_an_unlowered_node_panics() {
        scoped().index().node("out");
    }

    #[test]
    #[should_panic(expected = "graph 'g-out' is outside this snapshot's scope")]
    fn reading_an_unlowered_graph_panics() {
        scoped().index().graph("g-out");
    }

    #[test]
    #[should_panic(expected = "graph 'g-in's LSI on node 'in' is lowered only in part")]
    fn reading_a_partly_lowered_lsi_panics() {
        let mut snap = scoped();
        // g-in's LSI lowered for one traffic class: its one listed entry
        // sits at position 3 of the whole table.
        let rule = RuleState {
            priority: 1,
            matches: FlowMatch::default(),
            actions: Arc::from(Vec::new()),
            cookie: 7,
        };
        snap.nodes[0].lsis.push(LsiState {
            name: "LSI-g-in".into(),
            graph: Some("g-in".into()),
            ports: Vec::new(),
            tables: vec![TableState {
                index: 0,
                rules: vec![rule],
                at: vec![3],
            }],
        });
        snap.index().graph_rule_installed("in", "g-in", 8);
    }

    #[test]
    #[should_panic(expected = "graph 'g-out's LSI on node 'in' is outside this snapshot's scope")]
    fn reading_an_unlowered_lsi_panics() {
        let snap = scoped();
        let ix = snap.index();
        // A lowered LSI of another graph answers; the left-out one must not.
        assert!(!ix.graph_rule_installed("in", "g-in", 7));
        ix.graph_rule_installed("in", "g-out", 7);
    }
}
