//! Plain-data model of domain state, as seen by the verifier.
//!
//! `un-domain` builds a [`Snapshot`] from live orchestrator state
//! (`Domain::verify_snapshot`); negative tests build corrupted ones by
//! mutating a real snapshot. Keeping the model free of orchestrator
//! types means the checker in [`crate::check`] can be exercised on any
//! state — live, replayed, or hand-seeded — through one entry point.
//!
//! A snapshot may be *scoped*: an incremental pass lowers tables and
//! plans only for the nodes and graphs it re-checks. The rest of the
//! fleet is still named ([`Snapshot::unlowered_nodes`],
//! [`Snapshot::unlowered_graphs`]) because the ledger checks need to
//! know it exists — but it carries no tables to read, and asking
//! [`Snapshot::node`] / [`Snapshot::graph`] for it panics rather than
//! answer "no such node".

use std::collections::BTreeMap;

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
    /// Action list, in order.
    pub actions: Vec<FlowAction>,
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
    /// Entries in match order.
    pub rules: Vec<RuleState>,
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
    /// Every LSI on the node, LSI-0 first.
    pub lsis: Vec<LsiState>,
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
    pub original: NfFg,
    /// Per-node sub-graphs the partitioner produced (node → part).
    pub parts: BTreeMap<String, NfFg>,
    /// Synthesized inter-node links.
    pub links: Vec<GraphLink>,
    /// Every compiled rule the orchestrator installed for this graph.
    pub expected_rules: Vec<ExpectedRule>,
}

/// One live overlay wire, domain view (ties a vid to its pinned path).
#[derive(Debug, Clone)]
pub struct LinkInfo {
    /// VLAN id.
    pub vid: u16,
    /// Owning graph.
    pub graph: String,
    /// Pinned fabric path `[from_node, …, to_node]`.
    pub path: Vec<String>,
}

/// One shared-NNF instance and its tenancy.
#[derive(Debug, Clone)]
pub struct LeaseInfo {
    /// Rendered share key (functional type + capability).
    pub key: String,
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
    /// `(name, serving)` of the nodes a scoped snapshot left out.
    pub unlowered_nodes: Vec<(String, bool)>,
    /// Ids of the graphs a scoped snapshot left out.
    pub unlowered_graphs: Vec<String>,
    /// Every live overlay link.
    pub links: Vec<LinkInfo>,
    /// Every shared-NNF instance with its leases.
    pub leases: Vec<LeaseInfo>,
}

impl Snapshot {
    /// The node with `name`, if the fleet has one.
    ///
    /// # Panics
    /// When the node exists but lies outside the snapshot's scope: its
    /// tables were never lowered, so any answer would be a guess.
    pub fn node(&self, name: &str) -> Option<&NodeState> {
        let found = self.nodes.iter().find(|n| n.name == name);
        assert!(
            found.is_some() || !self.unlowered_nodes.iter().any(|(n, _)| n == name),
            "node '{name}' is outside this snapshot's scope"
        );
        found
    }

    /// Whether node `name` is serving; `None` when the fleet has no
    /// such node. Answers for nodes outside the scope too.
    pub fn serving(&self, name: &str) -> Option<bool> {
        let lowered = self.nodes.iter().map(|n| (&n.name, n.serving));
        let unlowered = self.unlowered_nodes.iter().map(|(n, s)| (n, *s));
        lowered
            .chain(unlowered)
            .find_map(|(n, serving)| (n == name).then_some(serving))
    }

    /// The live link carrying `vid`, if any.
    pub fn link(&self, vid: u16) -> Option<&LinkInfo> {
        self.links.iter().find(|l| l.vid == vid)
    }

    /// The deployed graph `id`, if any.
    ///
    /// # Panics
    /// When the graph is deployed but outside the snapshot's scope.
    pub fn graph(&self, id: &str) -> Option<&GraphState> {
        let found = self.graphs.iter().find(|g| g.id == id);
        assert!(
            found.is_some() || !self.unlowered_graphs.iter().any(|g| g == id),
            "graph '{id}' is outside this snapshot's scope"
        );
        found
    }

    /// Whether graph `id` is deployed, inside the scope or not.
    pub fn has_graph(&self, id: &str) -> bool {
        self.graphs.iter().any(|g| g.id == id) || self.unlowered_graphs.iter().any(|g| g == id)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped() -> Snapshot {
        Snapshot {
            nodes: vec![NodeState {
                name: "in".into(),
                serving: true,
                lsis: Vec::new(),
            }],
            unlowered_nodes: vec![("out".into(), false)],
            unlowered_graphs: vec!["g-out".into()],
            ..Snapshot::default()
        }
    }

    #[test]
    fn fleet_wide_questions_are_answered_for_the_whole_fleet() {
        let snap = scoped();
        assert_eq!(snap.serving("in"), Some(true));
        assert_eq!(snap.serving("out"), Some(false));
        assert_eq!(snap.serving("nowhere"), None);
        assert!(snap.has_graph("g-out") && !snap.has_graph("g-none"));
        assert!(snap.node("in").is_some());
        assert!(snap.node("nowhere").is_none() && snap.graph("g-none").is_none());
    }

    #[test]
    #[should_panic(expected = "node 'out' is outside this snapshot's scope")]
    fn reading_an_unlowered_node_panics() {
        scoped().node("out");
    }

    #[test]
    #[should_panic(expected = "graph 'g-out' is outside this snapshot's scope")]
    fn reading_an_unlowered_graph_panics() {
        scoped().graph("g-out");
    }
}
