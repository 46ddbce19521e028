//! Domain-side bridge to `un-verify` — snapshot extraction, the
//! incremental re-verification cache, and [`Domain::verify`].
//!
//! The checker itself is orchestrator-free (it consumes the plain-data
//! [`Snapshot`]); this module owns the two stateful halves:
//!
//! * **Extraction** — [`Domain::verify_snapshot`] lowers live fleet
//!   state (installed LSI tables, partitions, overlay wires, shared
//!   leases, the vid pool) into a snapshot that the checker, the REST
//!   endpoint, and the negative tests all share. The snapshot shares
//!   the live state's bulky values — each rule's action list, each
//!   graph's original and parts, each link's graph id and path, the
//!   names of what it leaves out — by reference count instead of
//!   copying them.
//! * **Incrementality** — mutations mark the graphs they touched (and
//!   the nodes hosting their parts); [`Domain::verify`] lowers and
//!   re-checks only the dirty portion and splices cached results in
//!   for the rest, so a pass costs what changed, not what is deployed.
//!
//! What a node holds is audited in units, each cached with the ports
//! and vids its entries name:
//!
//! * **A graph LSI** changes only when its graph is committed or torn
//!   down, so on a re-audited node only the LSIs of dirty graphs are
//!   lowered; every other graph LSI keeps its cached audit.
//! * **LSI-0** is shared by every tenant on the node, so it is audited
//!   per traffic class ([`TrafficClass`]): the exact `(in_port, VLAN)`
//!   an entry pins, its port's whole class when it pins a port but no
//!   one VLAN state, the whole table's when it pins no port. The table
//!   records which classes each mutation touched
//!   ([`FlowTable::changed_since`]), so no writer can change one
//!   unseen, and a node whose LSI-0 changed is re-audited whoever
//!   changed it. A pass judges the classes that changed since the
//!   node's last audit, those naming a port LSI-0 gained or lost or a
//!   vid whose state changed, those whose last audit found something,
//!   and the classes that hold a changed one; it lowers those with the
//!   classes that meet them, each entry at its position in the whole
//!   table, and splices every other class's cached audit in.
//!
//! The per-class audit is exact. Two entries of classes that do not
//! meet pin different ports, or one port and two exclusive VLAN states,
//! so they accept no common frame: neither can hide the other, and the
//! shadow analysis already never walks such a pair. Its piece count
//! charges the rules it skips by table position, so a class's count is
//! the whole table's. An entry's action check reads only the LSI's
//! ports and the fleet's live vids, which is why a class naming a port
//! or vid that changed is judged again: each node keeps a book of what
//! its classes name, so the classes naming a changed port or vid are
//! found without reading the table. A class that found something is
//! judged again whenever its node is, so a cached violation is spliced
//! only while its node's LSI-0 — and with it every table position the
//! violation names — is as it was. A full pass is the same code with
//! every class judged.
//!
//! What stays O(fleet) per pass: deciding the scope (one generation
//! compare per node, a vid bitset for the fleet, and on a re-audited
//! node a walk over LSI-0's ports) and the snapshot's
//! [`un_verify::snapshot::Index`], which names every node and graph.
//! The ledger checks are global, so they always re-run, over that
//! index and three vid bitsets. A node failure or recovery marks that
//! node and the graphs with a part on it; membership changes and raw
//! node access force a full pass because their blast radius is
//! unbounded.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use un_core::un_switch::{
    ClassVlan, FlowAction, FlowEntry, FlowTable, LogicalSwitch, TrafficClass,
};
use un_verify::check::{self, VerifyReport, Violation};
use un_verify::snapshot::{
    ExpectedRule, GraphLink, GraphState, LeaseInfo, LinkInfo, LsiState, NodeState, RuleState,
    Snapshot, TableState,
};

use super::{Domain, DomainGraph};

/// What an LSI-0 entry names that a change elsewhere can make right or
/// wrong — a port it outputs to, or a vid it pushes — as one word: the
/// port, or the vid above every port.
type Ref = u64;

fn port_ref(port: u32) -> Ref {
    u64::from(port)
}

fn vid_ref(vid: u16) -> Ref {
    1 << 32 | u64::from(vid)
}

/// What action `a` names, if a change elsewhere can make it wrong.
fn named(a: &FlowAction) -> Option<Ref> {
    match *a {
        FlowAction::Output(p) => Some(port_ref(p.0)),
        FlowAction::PushVlan(vid) => Some(vid_ref(vid)),
        FlowAction::PopVlan | FlowAction::SetFwmark(_) => None,
    }
}

/// What one LSI-0 class's entries name, held inline: a class naming
/// more than [`ClassRefs::INLINE`] refs is taken to name every one.
#[derive(Debug, Clone, Copy)]
struct ClassRefs {
    refs: [Ref; ClassRefs::INLINE],
    /// How many of `refs` are set; `WIDE` when the class names more.
    len: u8,
}

impl ClassRefs {
    const INLINE: usize = 3;
    const WIDE: u8 = u8::MAX;

    /// What the entries with action lists `actions` name.
    fn of<'e>(actions: impl Iterator<Item = &'e [FlowAction]>) -> Self {
        let mut refs = ClassRefs {
            refs: [0; ClassRefs::INLINE],
            len: 0,
        };
        for r in actions.flatten().filter_map(named) {
            if refs.names(r) {
                continue;
            }
            if usize::from(refs.len) == Self::INLINE {
                refs.len = Self::WIDE;
            } else {
                refs.refs[usize::from(refs.len)] = r;
                refs.len += 1;
            }
        }
        refs
    }

    fn wide(&self) -> bool {
        self.len == Self::WIDE
    }

    /// The refs held inline; none for a wide class.
    fn held(&self) -> &[Ref] {
        &self.refs[..usize::from(self.len).min(Self::INLINE)]
    }

    fn names(&self, r: Ref) -> bool {
        self.wide() || self.held().contains(&r)
    }
}

/// One graph LSI's audit from the last pass.
struct GraphAudit {
    /// The vids its entries push.
    vids: Box<[u16]>,
    violations: Vec<Violation>,
}

/// One node's audits from the last pass. LSI-0's are kept per traffic
/// class — what each class names, and what the flagged ones found — so
/// a class is judged again only when it, or what it names, changed.
/// The books are sorted vectors of words, kept without allocating once
/// they have grown.
#[derive(Default)]
struct NodeAudits {
    /// LSI-0's table generation at its last audit.
    seen: u64,
    /// LSI-0's ports then.
    ports: Vec<u32>,
    /// What each LSI-0 class with an entry names, by class key
    /// ([`TrafficClass::key`]).
    classes: Vec<(u64, ClassRefs)>,
    /// How many of those classes name each ref, wide ones aside, by ref.
    named: Vec<(Ref, u32)>,
    /// How many of them are wide.
    wide: usize,
    /// The LSI-0 classes whose audit found violations, with them.
    flagged: BTreeMap<TrafficClass, Vec<Violation>>,
    /// Each graph LSI's, by owning graph (its id as the domain shares
    /// it).
    graphs: BTreeMap<Arc<str>, GraphAudit>,
    /// `(vid, graph)` for each vid a graph LSI pushes, sorted.
    graph_vids: Vec<(u16, Arc<str>)>,
    /// The graph LSIs whose audit found violations.
    flagged_graphs: BTreeSet<Arc<str>>,
    /// `(class key, entry)` of a table being booked whole.
    scratch: Vec<(u64, usize)>,
}

impl NodeAudits {
    /// Whether any LSI-0 class but a wide one is counted against `r`.
    fn counts(&self, r: Ref) -> bool {
        self.named.binary_search_by_key(&r, |x| x.0).is_ok()
    }

    /// The LSI-0 classes that name `r`: a walk over what each class
    /// names, taken only when a class not already judged may name it.
    fn classes_naming(&self, r: Ref) -> impl Iterator<Item = TrafficClass> + '_ {
        let naming = self.classes.iter().filter(move |(_, refs)| refs.names(r));
        naming.map(|(key, _)| TrafficClass::from_key(*key))
    }

    /// Whether any LSI-0 class or graph LSI pushes `vid`.
    fn pushes(&self, vid: u16) -> bool {
        self.wide > 0 || self.counts(vid_ref(vid)) || self.graphs_pushing(vid).next().is_some()
    }

    /// The graph LSIs that push `vid`.
    fn graphs_pushing(&self, vid: u16) -> impl Iterator<Item = &str> {
        let run = &self.graph_vids[self.graph_vids.partition_point(|x| x.0 < vid)..];
        run.iter()
            .take_while(move |(v, _)| *v == vid)
            .map(|(_, g)| &**g)
    }

    /// Forget what LSI-0 class `class` named and found.
    fn forget_class(&mut self, class: TrafficClass) {
        self.flagged.remove(&class);
        let Ok(at) = self.classes.binary_search_by_key(&class.key(), |x| x.0) else {
            return;
        };
        let (_, refs) = self.classes.remove(at);
        if refs.wide() {
            self.wide -= 1;
        }
        for r in refs.held() {
            let at = self.named.binary_search_by_key(r, |x| x.0);
            let at = at.expect("a held ref is counted");
            self.named[at].1 -= 1;
            if self.named[at].1 == 0 {
                self.named.remove(at);
            }
        }
    }

    /// Record what LSI-0 class `class`, holding entries `entries` and
    /// forgotten or never seen, names and found.
    fn record_class<'e>(
        &mut self,
        class: TrafficClass,
        entries: impl Iterator<Item = &'e FlowEntry>,
        violations: Vec<Violation>,
    ) {
        let refs = ClassRefs::of(entries.map(|e| &e.actions[..]));
        if refs.wide() {
            self.wide += 1;
        }
        for &r in refs.held() {
            match self.named.binary_search_by_key(&r, |x| x.0) {
                Ok(at) => self.named[at].1 += 1,
                Err(at) => self.named.insert(at, (r, 1)),
            }
        }
        let at = self.classes.binary_search_by_key(&class.key(), |x| x.0);
        self.classes.insert(
            at.expect_err("a recorded class was forgotten"),
            (class.key(), refs),
        );
        if !violations.is_empty() {
            self.flagged.insert(class, violations);
        }
    }

    /// Record every class of `table` afresh, with `found`'s violations.
    fn record_base(
        &mut self,
        rules: &[RuleState],
        mut found: BTreeMap<TrafficClass, Vec<Violation>>,
    ) {
        self.classes.clear();
        self.named.clear();
        self.wide = 0;
        // The lowered table, just audited, grouped by class.
        let class_of = |(i, r): (usize, &RuleState)| (TrafficClass::of(&r.matches).key(), i);
        self.scratch.clear();
        self.scratch.extend(rules.iter().enumerate().map(class_of));
        self.scratch.sort_unstable();
        for run in self.scratch.chunk_by(|a, b| a.0 == b.0) {
            let refs = ClassRefs::of(run.iter().map(|&(_, i)| &rules[i].actions[..]));
            self.wide += usize::from(refs.wide());
            self.named.extend(refs.held().iter().map(|r| (*r, 1)));
            self.classes.push((run[0].0, refs));
        }
        self.named.sort_unstable();
        self.named.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            kept.1 += u32::from(same);
            same
        });
        self.flagged.clear();
        self.flagged.append(&mut found);
    }

    /// Forget everything, keeping the buffers.
    fn reset(&mut self) {
        self.seen = 0;
        self.ports.clear();
        self.classes.clear();
        self.named.clear();
        self.wide = 0;
        self.flagged.clear();
        self.graphs.clear();
        self.graph_vids.clear();
        self.flagged_graphs.clear();
    }

    fn forget_graph(&mut self, gid: &str) {
        if self
            .graphs
            .remove(gid)
            .is_some_and(|old| !old.vids.is_empty())
        {
            self.graph_vids.retain(|(_, g)| **g != *gid);
        }
        self.flagged_graphs.remove(gid);
    }

    fn record_graph(&mut self, gid: Arc<str>, audit: GraphAudit) {
        for vid in audit.vids.iter() {
            let at = self.graph_vids.partition_point(|x| x.0 < *vid);
            self.graph_vids.insert(at, (*vid, Arc::clone(&gid)));
        }
        if !audit.violations.is_empty() {
            self.flagged_graphs.insert(Arc::clone(&gid));
        }
        self.graphs.insert(gid, audit);
    }
}

/// Dirty-set bookkeeping between verification passes.
#[derive(Default)]
pub(super) struct VerifyCache {
    /// Re-check everything (fleet-wide mutation, or no pass yet).
    dirty_all: bool,
    /// Graphs touched since the last pass.
    graphs_dirty: BTreeSet<String>,
    /// Nodes hosting parts of a touched graph, before and after the
    /// mutation, so vacated hosts are re-audited too.
    nodes_dirty: BTreeSet<String>,
    /// Per-graph violations from the last pass.
    graph_results: BTreeMap<String, Vec<Violation>>,
    /// The graphs whose last check found violations.
    graphs_flagged: BTreeSet<String>,
    /// Per-node audits from the last pass.
    node_results: BTreeMap<String, NodeAudits>,
    /// The pool vids no live link carried at the last pass, one bit per
    /// vid from 0.
    dangling: Vec<u64>,
    /// This pass's: the buffer the next pass writes into.
    dangling_now: Vec<u64>,
    /// The vids whose bit differs between the two.
    changed_vids: Vec<u16>,
    /// False until a pass has populated the caches.
    primed: bool,
}

/// What an incremental pass re-audits on one node.
#[derive(Default)]
struct NodeScope {
    /// LSI-0's traffic classes to judge, each with an entry, sorted;
    /// `None`: every one.
    classes: Option<Vec<TrafficClass>>,
    /// Graph LSIs judged again although their graph was not touched:
    /// they push a vid whose state changed.
    graphs: BTreeSet<String>,
}

/// What an incremental pass re-checks, and therefore all it lowers in
/// depth; names borrow from the domain's own maps.
struct Scope<'a, 'c> {
    graphs: BTreeSet<&'a str>,
    nodes: BTreeMap<&'a str, NodeScope>,
    /// The cache the pass splices from.
    cache: &'c VerifyCache,
}

impl Scope<'_, '_> {
    /// Whether graph `gid`'s LSI, with a cached audit, on a node of
    /// scope `node` keeps that audit: the graph was not touched —
    /// deployed or not, so a torn-down graph's leftover LSI is audited —
    /// and the LSI pushes no vid whose state changed.
    fn reuses(&self, node: &NodeScope, gid: &str) -> bool {
        !self.graphs.contains(gid)
            && !self.cache.graphs_dirty.contains(gid)
            && !node.graphs.contains(gid)
    }
}

/// The node's LSI-0.
fn base(node: &un_core::UniversalNode) -> &LogicalSwitch {
    let (graph, lsi) = node.lsis().next().expect("every node has LSI-0");
    debug_assert!(graph.is_none());
    lsi
}

/// The match-order positions of the entries of `judged`'s classes
/// (sorted) and of every class an audit of them reads besides: a judged
/// whole-port class reads its port's classes. Ascending, once each.
fn positions_with_context(table: &FlowTable, judged: &[TrafficClass]) -> Vec<usize> {
    let mut at = Vec::new();
    let mut whole = None;
    for &class in judged {
        match class {
            TrafficClass::Port(port, _) if whole == Some(port) => continue,
            TrafficClass::Port(port, ClassVlan::Any) => {
                whole = Some(port);
                for class in table.port_classes(port) {
                    at.extend(table.class_entries(class).map(|(p, _)| p));
                }
            }
            _ => at.extend(table.class_entries(class).map(|(p, _)| p)),
        }
    }
    at.sort_unstable();
    at
}

fn rule_state(e: &FlowEntry) -> RuleState {
    RuleState {
        priority: e.priority,
        matches: e.matches.clone(),
        actions: Arc::clone(&e.actions),
        cookie: e.cookie,
    }
}

/// Lower one LSI: its whole table, or (`classes`) the entries of those
/// traffic classes and of the classes they meet, each at its position.
fn lower_lsi(
    lsi: &LogicalSwitch,
    graph: Option<&str>,
    classes: Option<&[TrafficClass]>,
) -> LsiState {
    let table = lsi.table();
    let (rules, at) = match classes {
        None => (table.entries().map(rule_state).collect(), Vec::new()),
        Some(judged) => {
            let at = positions_with_context(table, judged);
            let entry = |p: &usize| table.entry_at(*p).expect("a listed position");
            (at.iter().map(|p| rule_state(entry(p))).collect(), at)
        }
    };
    LsiState {
        name: lsi.name.clone(),
        graph: graph.map(str::to_string),
        ports: lsi.ports().map(|(no, _)| no.0).collect(),
        tables: vec![TableState {
            index: 0,
            rules,
            at,
        }],
    }
}

/// Hand `changed` each port in one of two ascending lists and not the
/// other.
fn changed_ports(was: &[u32], now: impl Iterator<Item = u32>, mut changed: impl FnMut(u32)) {
    let mut was = was.iter().copied().peekable();
    let mut now = now.peekable();
    loop {
        let port = match (was.peek().copied(), now.peek().copied()) {
            (Some(a), Some(b)) if a == b => {
                was.next();
                now.next();
                continue;
            }
            (Some(a), Some(b)) if a < b => was.next(),
            (Some(_), Some(_)) | (None, Some(_)) => now.next(),
            (Some(_), None) => was.next(),
            (None, None) => return,
        };
        changed(port.expect("peeked"));
    }
}

/// A reader of the ascending map `entries` beside an ascending walk of
/// names: handed each name in turn, it answers that name's entry, if
/// any — two sorted maps read side by side, without a lookup per name.
fn beside<'k, K: AsRef<str> + ?Sized + 'k, V: 'k>(
    entries: impl Iterator<Item = (&'k K, V)>,
) -> impl FnMut(&str) -> Option<(&'k K, V)> {
    let mut entries = entries.peekable();
    move |name| {
        while entries.next_if(|(k, _)| k.as_ref() < name).is_some() {}
        entries.next_if(|(k, _)| k.as_ref() == name)
    }
}

/// Lower one deployed graph (intent, plan, install receipt) into the
/// verifier's model. Expected-rule cookies reproduce the compiler's
/// convention so the consistency check matches installed entries. The
/// links and the receipt are built once per commit and shared after.
fn snapshot_graph(id: &str, g: &DomainGraph) -> GraphState {
    let (links, expected_rules) = g.lowered.get_or_init(|| {
        let expected_rules = g
            .partition
            .parts
            .iter()
            .flat_map(|(node, part)| {
                part.flow_rules.iter().map(move |r| ExpectedRule {
                    node: node.clone(),
                    rule_id: r.id.clone(),
                    cookie: un_core::rule_cookie(id, &r.id),
                })
            })
            .collect();
        let links = g
            .partition
            .links
            .iter()
            .map(|l| GraphLink {
                vid: l.vid,
                from_node: l.from_node.clone(),
                to_node: l.to_node.clone(),
                endpoint_id: l.endpoint_id.clone(),
                in_rule_id: l.in_rule_id.clone(),
            })
            .collect();
        (Arc::new(links), Arc::new(expected_rules))
    });
    GraphState {
        id: id.to_string(),
        original: Arc::clone(&g.original),
        parts: Arc::clone(&g.partition.parts),
        links: Arc::clone(links),
        expected_rules: Arc::clone(expected_rules),
    }
}

impl Domain {
    /// Flag one graph and `hosts` for re-verification. The transaction
    /// passes the hosts of the old **and** the new partition, so both
    /// the vacated and the new hosts get re-audited on the next
    /// [`Domain::verify`].
    pub(super) fn verify_mark<'a>(&self, gid: &str, hosts: impl IntoIterator<Item = &'a String>) {
        let mut c = self.verify_cache.lock().expect("verify cache poisoned");
        c.graphs_dirty.insert(gid.to_string());
        c.nodes_dirty.extend(hosts.into_iter().cloned());
    }

    /// Flag node `name` and every graph with a part on it: what a
    /// change of the node's health can alter. Transit hops hold parts,
    /// so a graph whose wire only crosses the node is flagged too. The
    /// node's cached audits go: whatever it holds when it next serves is
    /// audited afresh.
    pub(super) fn verify_mark_node(&self, name: &str) {
        let mut c = self.verify_cache.lock().expect("verify cache poisoned");
        for (gid, g) in &self.graphs {
            if g.partition.parts.contains_key(name) {
                c.graphs_dirty.insert(gid.clone());
            }
        }
        c.nodes_dirty.insert(name.to_string());
        c.node_results.remove(name);
    }

    /// Flag the whole domain for re-verification.
    pub(super) fn verify_mark_all(&self) {
        self.verify_cache
            .lock()
            .expect("verify cache poisoned")
            .dirty_all = true;
    }

    /// Lower live domain state into the verifier's plain-data model.
    ///
    /// Public so negative tests can corrupt a *real* snapshot and feed
    /// it straight to [`un_verify::check::run`].
    pub fn verify_snapshot(&self) -> Snapshot {
        self.lower(None)
    }

    /// A graph id as the domain shares it.
    fn shared_id(&self, gid: &str) -> Arc<str> {
        self.graphs
            .get(gid)
            .map_or_else(|| gid.into(), |g| Arc::clone(&g.id))
    }

    /// The one lowering path. The ledger side (membership, links,
    /// leases, the vid pool) is always whole; tables, plans and
    /// expected rules are lowered for everything (`scope == None`) or
    /// only for what `scope` names, the rest being recorded by name so
    /// reading it is an error rather than an empty answer.
    fn lower(&self, scope: Option<&Scope<'_, '_>>) -> Snapshot {
        let (vid_next, free_vids) = self.vids.accounting();
        let mut standby_vids = self.standby.reserved_vids();
        standby_vids.sort_unstable();
        let mut snap = Snapshot {
            vid_base: self.config.overlay_vid_base,
            vid_next,
            free_vids,
            standby_vids,
            ..Snapshot::default()
        };
        let none = (BTreeMap::new(), BTreeMap::new());
        let (scoped, cached) =
            scope.map_or((&none.0, &none.1), |s| (&s.nodes, &s.cache.node_results));
        let (mut scoped, mut cached) = (beside(scoped.iter()), beside(cached.iter()));
        for (name, managed) in &self.nodes {
            let serving = managed.health.is_serving();
            let node = scoped(name).map(|(_, node)| node);
            if scope.is_some() && node.is_none() {
                snap.unlowered_nodes.push((managed.name.shared(), serving));
                continue;
            }
            let classes = node.and_then(|n| n.classes.as_deref());
            let audits = node.and_then(|_| cached(name)).map(|(_, a)| a);
            let mut audited = beside(audits.into_iter().flat_map(|a| a.graphs.iter()));
            let (mut lsis, mut unlowered_lsis) = (Vec::new(), Vec::new());
            for (gid, lsi) in managed.node.lsis() {
                let Some(g) = gid else {
                    lsis.push(lower_lsi(lsi, None, classes));
                    continue;
                };
                match (audited(g), scope.zip(node)) {
                    (Some((id, _)), Some((scope, node))) if scope.reuses(node, g) => {
                        unlowered_lsis.push(Arc::clone(id));
                    }
                    _ => lsis.push(lower_lsi(lsi, Some(g), None)),
                }
            }
            snap.nodes.push(NodeState {
                name: name.clone(),
                serving,
                lsis,
                unlowered_lsis,
            });
        }
        for (id, g) in &self.graphs {
            if scope.is_some_and(|s| !s.graphs.contains(id.as_str())) {
                snap.unlowered_graphs.push(Arc::clone(&g.id));
            } else {
                snap.graphs.push(snapshot_graph(id, g));
            }
        }
        snap.links = self
            .links
            .iter()
            .map(|(vid, state)| LinkInfo {
                vid: *vid,
                graph: Arc::clone(&state.graph),
                path: Arc::clone(&state.path),
            })
            .collect();
        snap.leases = self
            .sharing
            .instances()
            .map(|inst| LeaseInfo {
                functional_type: inst.key.functional_type.clone(),
                host: inst.host.clone(),
                tenants: inst.leases.keys().cloned().collect(),
            })
            .collect();
        snap
    }

    /// Write into `bits` the minted pool vids no live link carries, one
    /// bit per vid from 0: what an entry pushing a vid is audited
    /// against.
    fn dangling_vids(&self, bits: &mut Vec<u64>) {
        let (base, next) = (self.config.overlay_vid_base, self.vids.next());
        bits.clear();
        bits.resize(usize::from(next).div_ceil(64), 0);
        let mut flip = |vid: u16| bits[usize::from(vid) / 64] ^= 1 << (vid % 64);
        (base..next).for_each(&mut flip);
        self.links
            .keys()
            .copied()
            .filter(|vid| (base..next).contains(vid))
            .for_each(flip);
    }

    /// What an incremental pass re-checks. Only serving nodes are
    /// audited: a failed carcass keeps its installed state (expected
    /// stale) until recovery purges it. Hosts of a re-checked graph are
    /// audited with it — its compile-consistency step reads their
    /// tables — whether or not the mutation remembered to mark them, and
    /// so is a node whose LSI-0 changed or that pushes a vid in
    /// `changed_vids`.
    ///
    /// Deciding a node's scope forgets the cached audits of the LSI-0
    /// classes it judges: the pass records them afresh.
    fn scope<'a, 'c>(&'a self, cache: &'c mut VerifyCache) -> Scope<'a, 'c> {
        let changed_vids = std::mem::take(&mut cache.changed_vids);
        let mut checked = beside(cache.graph_results.iter());
        let graphs: BTreeSet<&str> = self
            .graphs
            .keys()
            .map(String::as_str)
            .filter(|id| checked(id).is_none() || cache.graphs_dirty.contains(*id))
            .collect();
        let mut nodes: BTreeMap<&str, NodeScope> = BTreeMap::new();
        let mut cached = cache.node_results.iter_mut().peekable();
        for (name, managed) in &self.nodes {
            while cached.next_if(|(k, _)| *k < name).is_some() {}
            let audits = cached.next_if(|(k, _)| *k == name).map(|(_, a)| a);
            if !managed.health.is_serving() {
                continue;
            }
            let Some(audits) = audits else {
                nodes.insert(name, NodeScope::default());
                continue;
            };
            let vid_hit = changed_vids.iter().any(|vid| audits.pushes(*vid));
            if cache.nodes_dirty.contains(name)
                || base(&managed.node).table().generation() != audits.seen
                || vid_hit
            {
                nodes.insert(name, node_scope(&managed.node, audits, &changed_vids));
            }
        }
        for id in &graphs {
            for host in self.graphs[*id].partition.parts.keys() {
                if !nodes.contains_key(host.as_str()) {
                    let managed = self.nodes.get(host);
                    let audits = cache.node_results.get_mut(host);
                    let scope = match (managed, audits) {
                        (Some(m), Some(a)) if m.health.is_serving() => {
                            node_scope(&m.node, a, &changed_vids)
                        }
                        _ => NodeScope::default(),
                    };
                    nodes.insert(host, scope);
                }
            }
        }
        cache.changed_vids = changed_vids;
        Scope {
            graphs,
            nodes,
            cache,
        }
    }

    /// Statically verify the domain: reachability, loop-freedom,
    /// blackhole-freedom, shadowed rules, and ledger consistency over
    /// a snapshot of current state.
    ///
    /// Incremental: only graphs (and nodes, and on those nodes the
    /// touched graphs' LSIs and LSI-0's touched traffic classes) touched
    /// since the last call are lowered and re-checked; cached results
    /// cover the rest. The first call, and any call after a fleet-wide
    /// mutation, runs full.
    pub fn verify(&self) -> VerifyReport {
        self.verify_inner(false)
    }

    /// Statically verify the domain, re-checking everything.
    pub fn verify_full(&self) -> VerifyReport {
        self.verify_inner(true)
    }

    fn verify_inner(&self, force_full: bool) -> VerifyReport {
        let started = Instant::now();
        let mut guard = self.verify_cache.lock().expect("verify cache poisoned");
        let cache = &mut *guard;
        let full = force_full || cache.dirty_all || !cache.primed;

        // Cached entries for graphs/nodes that left the domain are
        // dead weight — drop them so they can never be spliced back.
        let mut deployed = beside(self.graphs.iter());
        cache.graph_results.retain(|id, _| deployed(id).is_some());
        let mut deployed = beside(self.graphs.iter());
        cache.graphs_flagged.retain(|id| deployed(id).is_some());
        let mut fleet = beside(self.nodes.iter());
        cache.node_results.retain(|name, _| fleet(name).is_some());

        // The vids whose dangling state changed since the last pass.
        self.dangling_vids(&mut cache.dangling_now);
        std::mem::swap(&mut cache.dangling, &mut cache.dangling_now);
        cache.changed_vids.clear();
        let (now, was) = (&cache.dangling, &cache.dangling_now);
        for w in 0..now.len().max(was.len()) {
            let word = |bits: &[u64]| bits.get(w).copied().unwrap_or(0);
            let mut flips = word(now) ^ word(was);
            while flips != 0 {
                let vid = (64 * w) as u16 + flips.trailing_zeros() as u16;
                cache.changed_vids.push(vid);
                flips &= flips - 1;
            }
        }

        // Derive once what this pass re-checks, and lower only that.
        let (snap, mut judged) = {
            let scope = (!full).then(|| self.scope(&mut *cache));
            let snap = self.lower(scope.as_ref());
            (snap, scope.map(|s| s.nodes).unwrap_or_default())
        };
        let ix = snap.index();

        let mut report = VerifyReport {
            mode: if full { "full" } else { "incremental" },
            rules_lowered: snap.installed_rules(),
            ..VerifyReport::default()
        };
        report.violations.extend(check::check_ledger(&ix));

        // Everything lowered is re-checked into the cache; the report
        // then reads the cache's flagged entries in fleet order, fresh
        // and reused alike.
        for g in &snap.graphs {
            let (v, stats) = check::check_graph(&ix, g);
            report.stats.merge(stats);
            if v.is_empty() {
                cache.graphs_flagged.remove(&g.id);
            } else {
                cache.graphs_flagged.insert(g.id.clone());
            }
            cache.graph_results.insert(g.id.clone(), v);
        }
        report.graphs_checked = snap.graphs.len();
        report.graphs_reused = snap.unlowered_graphs.len();
        for id in &cache.graphs_flagged {
            report
                .violations
                .extend(cache.graph_results[id].iter().cloned());
        }

        for node in snap.nodes.iter().filter(|n| n.serving) {
            let live = &self.nodes[&node.name].node;
            let classes = judged
                .get_mut(node.name.as_str())
                .and_then(|n| n.classes.take());
            if !cache.node_results.contains_key(&node.name) {
                cache
                    .node_results
                    .insert(node.name.clone(), NodeAudits::default());
            }
            let audits = cache.node_results.get_mut(&node.name).expect("inserted");
            if full {
                audits.reset();
            }
            for lsi in &node.lsis {
                let Some(gid) = &lsi.graph else {
                    let judged = classes.as_deref();
                    self.audit_base(&ix, node, lsi, base(live), judged, audits, &mut report);
                    continue;
                };
                audits.forget_graph(gid);
                let (violations, stats) = check::audit_lsi(&ix, &node.name, lsi);
                report.stats.merge(stats);
                let mut vids: Vec<u16> = lsi
                    .tables
                    .iter()
                    .flat_map(|t| &t.rules)
                    .flat_map(|r| r.actions.iter())
                    .filter_map(|a| match a {
                        FlowAction::PushVlan(vid) => Some(*vid),
                        _ => None,
                    })
                    .collect();
                vids.sort_unstable();
                vids.dedup();
                let vids = vids.into_boxed_slice();
                audits.record_graph(self.shared_id(gid), GraphAudit { vids, violations });
            }
            // A graph LSI the node no longer has drops out.
            let mut here = beside(live.lsis().filter_map(|(g, _)| g).map(|g| (g, ())));
            let gone: Vec<Arc<str>> = audits
                .graphs
                .keys()
                .filter(|g| here(g).is_none())
                .cloned()
                .collect();
            for gid in gone {
                audits.forget_graph(&gid);
            }
            report.nodes_checked += 1;
        }
        {
            let mut cached = beside(cache.node_results.iter());
            for (name, managed) in &self.nodes {
                let audits = cached(name);
                if managed.health.is_serving() {
                    let (_, audits) = audits.expect("a serving node is audited");
                    for violations in audits.flagged.values() {
                        report.violations.extend(violations.iter().cloned());
                    }
                    for gid in &audits.flagged_graphs {
                        report
                            .violations
                            .extend(audits.graphs[gid].violations.iter().cloned());
                    }
                }
            }
        }
        report.nodes_reused = snap.unlowered_nodes.iter().filter(|(_, s)| *s).count();

        cache.graphs_dirty.clear();
        cache.nodes_dirty.clear();
        cache.dirty_all = false;
        cache.primed = true;
        drop(guard);

        report.duration_ns = started.elapsed().as_nanos() as u64;
        if self.obs.is_enabled() {
            let reg = self.obs.registry();
            reg.counter("un_verify_runs_total", &[("mode", report.mode)])
                .inc();
            reg.histogram(
                "un_verify_duration_ns",
                &[],
                &un_obs::Histogram::latency_bounds(),
            )
            .record(report.duration_ns);
            reg.gauge("un_verify_violations", &[])
                .set(report.violations.len() as i64);
        }
        report
    }

    /// Audit the lowered LSI-0 of `node` — every traffic class, or the
    /// `judged` ones — into its cached audits, class by class.
    #[allow(clippy::too_many_arguments)]
    fn audit_base(
        &self,
        ix: &un_verify::snapshot::Index<'_>,
        node: &NodeState,
        lsi: &LsiState,
        live: &LogicalSwitch,
        judged: Option<&[TrafficClass]>,
        audits: &mut NodeAudits,
        report: &mut VerifyReport,
    ) {
        let table = live.table();
        let mut found: BTreeMap<TrafficClass, Vec<Violation>> = BTreeMap::new();
        for t in &lsi.tables {
            let stats = check::audit_table(ix, &node.name, lsi, t, judged, |class, v| {
                found.entry(class).or_default().push(v)
            });
            report.stats.merge(stats);
        }
        match judged {
            None => audits.record_base(&lsi.tables[0].rules, found),
            Some(judged) => {
                for &class in judged {
                    let violations = found.remove(&class).unwrap_or_default();
                    audits.record_class(class, table.class_rules(class), violations);
                }
            }
        }
        audits.seen = table.generation();
        if audits.ports != lsi.ports {
            audits.ports.clone_from(&lsi.ports);
        }
    }
}

/// The LSI-0 classes and graph LSIs of a node with cached `audits` that
/// a pass must judge: the classes its table says changed since, those
/// naming a port LSI-0 gained or lost or a vid in `changed_vids`, and
/// those flagged last time — with every class that holds one of them,
/// and under a changed whole-port class its port's classes. A change the
/// table's record no longer reaches, or a table with a class that pins
/// no port, judges every class. The judged classes' cached audits are
/// forgotten here, the changed ones first, so what the book still
/// counts against a changed port or vid is another class's.
fn node_scope(
    node: &un_core::UniversalNode,
    audits: &mut NodeAudits,
    changed_vids: &[u16],
) -> NodeScope {
    let lsi = base(node);
    let table = lsi.table();
    let mut scope = NodeScope::default();
    for vid in changed_vids {
        scope
            .graphs
            .extend(audits.graphs_pushing(*vid).map(str::to_string));
    }
    let changed = table.changed_since(audits.seen);
    let (Some(changed), false) = (changed, table.has_class(TrafficClass::Table)) else {
        return scope;
    };
    let mut seeds: Vec<TrafficClass> = changed.collect();
    seeds.extend(audits.flagged.keys().copied());
    for &class in &seeds {
        audits.forget_class(class);
    }
    // With the seeds forgotten, a ref that changed is named by another
    // class only if a class is still counted against it.
    let mut refs: Vec<Ref> = Vec::new();
    let mut counted = |r: Ref| {
        if audits.wide > 0 || audits.counts(r) {
            refs.push(r);
        }
    };
    changed_vids.iter().for_each(|vid| counted(vid_ref(*vid)));
    changed_ports(&audits.ports, lsi.ports().map(|(no, _)| no.0), |port| {
        counted(port_ref(port));
    });
    for r in refs {
        let naming: Vec<TrafficClass> = audits.classes_naming(r).collect();
        for class in naming {
            audits.forget_class(class);
            seeds.push(class);
        }
    }
    // Each seed with what holds it, and under a whole-port seed its
    // port's classes; a seed with no entry left only loses its audit.
    let mut judged = Vec::with_capacity(seeds.len() + 2);
    for &class in &seeds {
        let TrafficClass::Port(port, vlan) = class else {
            unreachable!("a table with a whole-table class judges every class");
        };
        if vlan == ClassVlan::Any {
            judged.extend(table.port_classes(port));
            continue;
        }
        if table.has_class(class) {
            judged.push(class);
        }
        let whole = TrafficClass::Port(port, ClassVlan::Any);
        if table.has_class(whole) {
            judged.push(whole);
        }
    }
    judged.sort_unstable();
    judged.dedup();
    for &class in &judged {
        audits.forget_class(class);
    }
    scope.classes = Some(judged);
    scope
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeployHints, PlacementStrategy};
    use un_core::UniversalNode;
    use un_nffg::NfFgBuilder;
    use un_sim::mem::mb;

    /// Split chain `g<k>` across the node pair n<2k>|n<2k+1>.
    fn deploy_pair(d: &mut Domain, k: usize) {
        let (a, b) = (format!("g{k}-a"), format!("g{k}-b"));
        let g = NfFgBuilder::new(&format!("g{k}"), "pair")
            .interface_endpoint("lan", &format!("p{}", 2 * k))
            .interface_endpoint("wan", &format!("p{}", 2 * k + 1))
            .nf(&a, "bridge", 2)
            .nf(&b, "bridge", 2)
            .chain("lan", &[&a, &b], "wan")
            .build();
        let hints = DeployHints {
            nf_node: [(a, format!("n{}", 2 * k)), (b, format!("n{}", 2 * k + 1))].into(),
            strategy: Some(PlacementStrategy::Spread),
            ..DeployHints::default()
        };
        d.deploy_with(&g, &hints).expect("pair deploys split");
    }

    /// `nodes / 2` split chains, one per node pair: `g0` across n0|n1,
    /// `g1` across n2|n3, …
    fn paired_fleet(nodes: usize) -> Domain {
        let mut d = Domain::with_defaults();
        for i in 0..nodes {
            let mut n = UniversalNode::new(&format!("n{i}"), mb(2048));
            n.add_physical_port(&format!("p{i}"));
            d.add_node(n);
        }
        for k in 0..nodes / 2 {
            deploy_pair(&mut d, k);
        }
        d
    }

    fn rendered(report: &VerifyReport) -> Vec<String> {
        let mut v: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        v.sort();
        v
    }

    /// The static verifier's acceptance gate: touching one graph
    /// re-checks exactly that graph and its two hosts (the rest splice
    /// from cache) and comes back clean, and an incremental pass lowers
    /// the same number of installed rules at every fleet size — the
    /// touched graph's hosts, not the fleet.
    #[test]
    fn dirty_graph_with_unmarked_hosts_pulls_them_into_scope() {
        let d = paired_fleet(4);
        assert!(d.verify().ok());
        // A mutation that forgot its hosts: only the graph id is dirty.
        d.verify_cache
            .lock()
            .unwrap()
            .graphs_dirty
            .insert("g0".to_string());
        let report = d.verify();
        assert_eq!(report.mode, "incremental");
        assert!(report.ok(), "{:#?}", report.violations);
        assert_eq!((report.graphs_checked, report.graphs_reused), (1, 1));
        assert_eq!((report.nodes_checked, report.nodes_reused), (2, 2));
        let full = check::run(&d.verify_snapshot());
        assert_eq!(rendered(&report), rendered(&full));
        assert!(report.rules_lowered > 0 && report.rules_lowered < full.rules_lowered);
        // Nothing dirty: nothing lowered, everything reused.
        let idle = d.verify();
        assert_eq!((idle.graphs_checked, idle.nodes_checked), (0, 0));
        assert_eq!(idle.rules_lowered, 0);

        // The same through a real mutation, across fleet sizes: the
        // cost of a pass follows the change, not the fleet.
        let mut lowered = BTreeSet::new();
        for nodes in [4, 8, 16] {
            let mut d = paired_fleet(nodes);
            assert!(d.verify().ok());
            d.undeploy("g0").unwrap();
            deploy_pair(&mut d, 0);
            let report = d.verify();
            assert_eq!(report.mode, "incremental");
            assert!(report.ok(), "{:#?}", report.violations);
            let graphs = nodes / 2;
            assert_eq!(
                (report.graphs_checked, report.graphs_reused),
                (1, graphs - 1)
            );
            assert_eq!(report.nodes_checked, 2);
            lowered.insert(report.rules_lowered);
        }
        assert_eq!(lowered.len(), 1, "rules lowered per pass: {lowered:?}");
    }

    /// `paired_fleet(4)` with `g1` redeployed so that its first NF sits
    /// beside `g0`'s second on n1: both graphs' entries share n1's LSI-0.
    fn shared_host_fleet() -> Domain {
        let mut d = paired_fleet(4);
        d.undeploy("g1").unwrap();
        let g1 = NfFgBuilder::new("g1", "shared-host")
            .interface_endpoint("lan", "p2")
            .interface_endpoint("wan", "p3")
            .nf("g1-a", "bridge", 2)
            .nf("g1-b", "bridge", 2)
            .chain("lan", &["g1-a", "g1-b"], "wan")
            .build();
        let hints = DeployHints {
            nf_node: [("g1-a", "n1"), ("g1-b", "n3")]
                .map(|(nf, n)| (nf.to_string(), n.to_string()))
                .into(),
            strategy: Some(PlacementStrategy::Spread),
            ..DeployHints::default()
        };
        d.deploy_with(&g1, &hints).expect("g1 deploys across n1");
        d
    }

    /// A graph LSI is scoped with its graph: on a node two graphs
    /// share, touching `g0` lowers that node's LSI-0 and `g0`'s own LSI,
    /// never `g1`'s, whose cached audit is spliced in.
    #[test]
    fn touching_a_graph_lowers_only_its_own_lsis_on_a_shared_node() {
        let mut d = shared_host_fleet();
        let rules_of = |d: &Domain, node: &str, graph: Option<&str>| -> usize {
            let lsis = d.node(node).unwrap().lsis();
            lsis.filter(|(g, _)| *g == graph)
                .map(|(_, l)| l.flow_count())
                .sum()
        };
        assert!(rules_of(&d, "n1", Some("g1")) > 0, "n1 hosts g1's LSI");
        assert!(d.verify_full().ok());

        d.undeploy("g0").unwrap();
        deploy_pair(&mut d, 0);
        let report = d.verify();
        assert_eq!(report.mode, "incremental");
        assert!(report.ok(), "{:#?}", report.violations);
        assert_eq!((report.graphs_checked, report.graphs_reused), (1, 1));
        assert_eq!((report.nodes_checked, report.nodes_reused), (2, 2));
        // On LSI-0, only g0's traffic classes: g1's entries beside them
        // on n1 keep their cached audit.
        let own_base = |node: &str| {
            let base = d.node(node).unwrap().lsis().next().unwrap().1;
            let cookie = un_core::graph_cookie("g0");
            base.table()
                .entries()
                .filter(|e| e.cookie == cookie)
                .count()
        };
        let lowered: usize = ["n0", "n1"]
            .iter()
            .map(|n| own_base(n) + rules_of(&d, n, Some("g0")))
            .sum();
        assert_eq!(report.rules_lowered, lowered);
        assert!(
            own_base("n1") < rules_of(&d, "n1", None),
            "n1's LSI-0 is shared"
        );
        let full = check::run(&d.verify_snapshot());
        assert_eq!(rendered(&report), rendered(&full));
    }

    /// Node `node`'s LSI-0, written by hand the way a faulty node would:
    /// no domain mark, only the table's own record of what changed.
    fn base_mut<'d>(d: &'d mut Domain, node: &str) -> &'d mut un_core::un_switch::LogicalSwitch {
        d.nodes.get_mut(node).unwrap().node.base_switch_mut()
    }

    /// The incremental pass after `change` reports what a full pass over
    /// the same state reports, violations and all, and what the table
    /// shows on a pass with nothing new.
    fn assert_exact(d: &Domain, tag: &str, code: &str) {
        let report = d.verify();
        assert_eq!(report.mode, "incremental", "{tag}");
        let full = check::run(&d.verify_snapshot());
        assert_eq!(rendered(&report), rendered(&full), "{tag}");
        assert!(
            report.violations.iter().any(|v| v.code == code),
            "{tag}: {:#?}",
            report.violations
        );
        let again = d.verify();
        assert_eq!(again.rules_lowered, 0, "{tag}: nothing changed since");
        assert_eq!(rendered(&again), rendered(&full), "{tag}: spliced");
    }

    /// A change can make an entry wrong outside the traffic classes it
    /// touched; each such case is judged again, and the incremental pass
    /// says exactly what a full pass says.
    ///
    /// * An untouched entry outputs to a port the change removes: g0 is
    ///   torn down and redeployed, and its old virtual links leave n1's
    ///   LSI-0 under an entry of another class.
    /// * An untouched entry pushes a vid the change releases, on a node
    ///   the change does not touch.
    /// * A new entry hides another tenant's entry of its own class; a
    ///   later change by a third party moves both in the table, and the
    ///   positions the report names move with them.
    #[test]
    fn a_change_is_judged_where_it_makes_an_entry_wrong() {
        use un_core::un_switch::{FlowAction, FlowEntry, FlowMatch, PortNo, VlanSpec};
        let tagged = |port: PortNo, vid: u16, actions: Vec<FlowAction>| {
            let m = FlowMatch::in_port(port).with_vlan(VlanSpec::Id(vid));
            FlowEntry::new(9, m, actions).with_cookie(0xbad)
        };

        // A port the change removes.
        let mut d = shared_host_fleet();
        let port_of = |d: &Domain, node: &str, name: &str| {
            let base = d.node(node).unwrap().lsis().next().unwrap().1;
            let mut ports = base.ports();
            ports.find(|(_, p)| p.name.starts_with(name)).unwrap().0
        };
        let vlink = port_of(&d, "n1", "vlink-g0-");
        let p1 = port_of(&d, "n1", "p1");
        let entry = tagged(p1, 77, vec![FlowAction::Output(vlink)]);
        base_mut(&mut d, "n1").install(0, entry).unwrap();
        assert!(d.verify_full().ok(), "the entry's port is there");
        d.undeploy("g0").unwrap();
        deploy_pair(&mut d, 0);
        assert_exact(&d, "port", un_verify::check::code::DEAD_OUTPUT);

        // A vid the change releases, pushed on a node it does not touch.
        let mut d = paired_fleet(4);
        let vid = d.partition_of("g0").unwrap().links[0].vid;
        let p3 = port_of(&d, "n3", "p3");
        let entry = tagged(
            p3,
            77,
            vec![FlowAction::PushVlan(vid), FlowAction::Output(p3)],
        );
        base_mut(&mut d, "n3").install(0, entry).unwrap();
        assert!(d.verify_full().ok(), "the vid is live");
        d.undeploy("g0").unwrap();
        assert_exact(&d, "vid", un_verify::check::code::DANGLING_VID);

        // A new entry hides another tenant's entry of its own class.
        let mut d = shared_host_fleet();
        assert!(d.verify_full().ok());
        let cookie = un_core::graph_cookie("g1");
        let base = d.node("n1").unwrap().lsis().next().unwrap().1;
        let victim = base.table().entries().find(|e| e.cookie == cookie).unwrap();
        let mut shadow = FlowEntry::new(victim.priority + 1, victim.matches.clone(), Vec::new());
        shadow.cookie = 0xbad;
        base_mut(&mut d, "n1").install(0, shadow).unwrap();
        assert_exact(&d, "shadow", un_verify::check::code::SHADOWED_RULE);
        // g0's entries come and go around them on n1: the violation's
        // table positions are those of the table as it is now.
        d.undeploy("g0").unwrap();
        assert_exact(&d, "shadow, g0 gone", un_verify::check::code::SHADOWED_RULE);
        deploy_pair(&mut d, 0);
        assert_exact(&d, "shadow, g0 back", un_verify::check::code::SHADOWED_RULE);
    }

    /// Two edge nodes shared by `n` VLAN tenants, each a two-bridge
    /// chain over the same two compute nodes: every LSI-0 of the fleet
    /// holds every tenant's entries.
    fn shared_edges(n: usize) -> Domain {
        let mut d = Domain::with_defaults();
        for edge in ["e0", "e1"] {
            let mut node = UniversalNode::new(edge, mb(1));
            node.add_physical_port("eth0");
            d.add_node(node);
        }
        for compute in ["c0", "c1"] {
            d.add_node(UniversalNode::new(compute, mb(1 << 16)));
        }
        for t in 0..n {
            d.deploy_with(&vlan_tenant(t, 2), &vlan_hints())
                .expect("tenant deploys");
        }
        d
    }

    /// Tenant `t`: `nfs` bridges from `e0` to `e1` on vid `100 + t`.
    fn vlan_tenant(t: usize, nfs: usize) -> un_nffg::NfFg {
        let ids: Vec<String> = (0..nfs).map(|i| format!("t{t}-br{i}")).collect();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let vid = 100 + t as u16;
        let mut b = NfFgBuilder::new(&format!("tenant-{t}"), "tenant")
            .vlan_endpoint("a", "eth0", vid)
            .vlan_endpoint("b", "eth0", vid);
        for id in &ids {
            b = b.nf(id, "bridge", 2);
        }
        b.chain("a", &refs, "b").build()
    }

    fn vlan_hints() -> DeployHints {
        DeployHints {
            endpoint_node: [("a", "e0"), ("b", "e1")]
                .map(|(ep, n)| (ep.to_string(), n.to_string()))
                .into(),
            strategy: Some(PlacementStrategy::Spread),
            ..DeployHints::default()
        }
    }

    /// The cost of an incremental pass follows the change, not the
    /// tenants beside it: updating one tenant of `n` that share every
    /// node's LSI-0 lowers and checks as many rules at 4, 16 and 64
    /// tenants, and says what a full pass says.
    #[test]
    fn a_tenants_update_costs_its_own_entries_however_many_share_its_nodes() {
        let mut costs = BTreeSet::new();
        for n in [4, 16, 64] {
            let mut d = shared_edges(n);
            assert!(d.verify_full().ok());
            d.update(&vlan_tenant(1, 3)).expect("tenant-1 grows");
            let report = d.verify();
            assert_eq!(report.mode, "incremental");
            assert!(report.ok(), "{n}: {:#?}", report.violations);
            let full = check::run(&d.verify_snapshot());
            assert_eq!(rendered(&report), rendered(&full), "{n}");
            assert!(report.rules_lowered < full.rules_lowered / 2, "{n}");
            costs.insert((report.rules_lowered, report.stats.rules_checked));
        }
        assert_eq!(costs.len(), 1, "(rules lowered, rules checked): {costs:?}");
    }

    /// A node failure dirties the node and the graphs with a part on
    /// it, not the fleet; so does its recovery. Both passes splice the
    /// untouched graphs from cache and agree with a full run.
    #[test]
    fn a_node_failure_and_its_recovery_verify_incrementally() {
        let mut d = paired_fleet(6);
        assert!(d.verify().ok());
        let report = d.fail_node("n1").expect("n1 fails");
        // g0's wan endpoint lives only on n1: it parks.
        assert_eq!(report.stranded, ["g0"]);
        for step in ["fail", "recover"] {
            if step == "recover" {
                assert_eq!(d.recover_node("n1").expect("n1 recovers"), ["g0"]);
            }
            let report = d.verify();
            assert_eq!(report.mode, "incremental", "{step}");
            assert!(report.ok(), "{step}: {:#?}", report.violations);
            assert_eq!(report.graphs_reused, 2, "{step}: g1 and g2 untouched");
            let full = check::run(&d.verify_snapshot());
            assert_eq!(rendered(&report), rendered(&full), "{step}");
        }
    }

    /// A snapshot shares the domain's graphs and links rather than
    /// copying them, so a test that corrupts one writes through
    /// `Arc::make_mut`, which copies first: the corrupted snapshot fails
    /// the checker, and the domain it came from is as it was.
    #[test]
    fn a_corrupted_snapshot_leaves_the_domain_as_it_was() {
        let d = paired_fleet(4);
        let original = d.graph("g0").expect("g0 deployed").clone();
        let partition = d.partition_of("g0").unwrap().clone();
        let links = d.link_reports();
        let mut snap = d.verify_snapshot();
        let g = snap.graphs.iter_mut().find(|g| g.id == "g0").unwrap();
        assert!(Arc::ptr_eq(&g.parts, &partition.parts), "parts are shared");
        for part in Arc::make_mut(&mut g.parts).values_mut() {
            part.flow_rules.clear();
        }
        Arc::make_mut(&mut g.original).flow_rules.clear();
        for link in &mut snap.links {
            Arc::make_mut(&mut link.path).reverse();
        }
        assert!(!check::run(&snap).ok(), "the corruption is seen");

        assert!(d.verify_full().ok());
        let now = d.partition_of("g0").unwrap();
        assert_eq!(*now.parts, *partition.parts);
        assert_eq!(now.links, partition.links);
        assert_eq!(*d.graph("g0").unwrap(), original);
        assert_eq!(d.link_reports(), links);
    }

    #[test]
    #[should_panic(expected = "outside this snapshot's scope")]
    fn under_scoped_snapshot_refuses_to_answer() {
        let d = paired_fleet(4);
        // g0 without its hosts: its consistency check must not be able
        // to mistake "not lowered" for "no rules installed".
        let snap = d.lower(Some(&Scope {
            graphs: ["g0"].into(),
            nodes: BTreeMap::new(),
            cache: &VerifyCache::default(),
        }));
        let ix = snap.index();
        assert_eq!(ix.serving("n0"), Some(true));
        check::check_graph(&ix, &snap.graphs[0]);
    }
}
