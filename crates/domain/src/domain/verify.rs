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
//! What a node holds is audited in one unit: an LSI — LSI-0, which
//! every tenant on the node shares, and each graph's alike — per
//! traffic class ([`TrafficClass`]): the exact `(in_port, VLAN)` an
//! entry pins, its port's whole class when it pins a port but no one
//! VLAN state, the whole table's when it pins no port. Each table
//! records which classes each mutation touched
//! ([`FlowTable::changed_since`]), and each LSI counts its port changes
//! ([`LogicalSwitch::port_generation`]), so no writer can change either
//! unseen, and a node with an LSI that changed is re-audited whoever
//! changed it. A pass judges the classes that changed since the LSI's
//! last audit, those naming a port the LSI gained or lost or a vid whose
//! state changed, those whose last audit found something, and the
//! classes that hold a changed one; it lowers those with the classes
//! that meet them, each entry at its position in the whole table, and
//! splices every other class's cached audit in. The LSIs of a graph the
//! pass re-checks are lowered and judged whole, because the graph's
//! compile-consistency check reads them whole.
//!
//! The per-class audit is exact. Two entries of classes that do not
//! meet pin different ports, or one port and two exclusive VLAN states,
//! so they accept no common frame: neither can hide the other, and the
//! shadow analysis already never walks such a pair. Its piece count
//! charges the rules it skips by table position, so a class's count is
//! the whole table's. An entry's action check reads only the LSI's
//! ports and the fleet's live vids, which is why a class naming a port
//! or vid that changed is judged again: each LSI has a book of what its
//! classes name, so the classes naming a changed port or vid are found
//! without reading the table. A class that found something is judged
//! again whenever its node is, so a cached violation is spliced only
//! while its LSI — and with it every table position the violation
//! names — is as it was. A full pass is the same code with every class
//! judged.
//!
//! What stays O(fleet) per pass: deciding the scope (a walk over each
//! node's LSIs beside their books, a vid bitset for the fleet, and on a
//! re-audited node a walk over the ports of each LSI whose ports
//! changed) and the snapshot's [`un_verify::snapshot::Index`], which
//! names every node and graph. The ledger checks are global, so they
//! always re-run, over that index and three vid bitsets. A node failure or recovery marks that
//! node and the graphs with a part on it; membership changes and raw
//! node access force a full pass because their blast radius is
//! unbounded.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use un_core::un_switch::{
    ClassVlan, FlowAction, FlowEntry, FlowTable, LogicalSwitch, TrafficClass,
};
use un_core::UniversalNode;
use un_verify::check::{self, CheckStats, VerifyReport, Violation};
use un_verify::snapshot::{
    ExpectedRule, GraphLink, GraphState, LeaseInfo, LinkInfo, LsiState, NodeState, RuleState,
    Snapshot, TableState,
};

use super::{Domain, DomainGraph};

/// What an entry names that a change elsewhere can make right or wrong
/// — a port it outputs to, or a vid it pushes — as one word: the port,
/// or the vid above every port.
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

/// What one class's entries name, held inline: a class naming more
/// than [`ClassRefs::INLINE`] refs is taken to name every one.
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

/// One LSI's audit from the last pass, kept per traffic class — what
/// each class names, and what the flagged ones found — so a class is
/// judged again only when it, or what it names, changed. The books are
/// sorted vectors of words, kept without allocating once they have
/// grown.
#[derive(Default)]
struct Book {
    /// The owning graph, its id as the domain shares it; `None` for
    /// LSI-0.
    owner: Option<Arc<str>>,
    /// The table's generation at the last audit.
    seen: u64,
    /// The LSI's port generation then.
    ports_seen: u64,
    /// The LSI's ports then.
    ports: Vec<u32>,
    /// What each class with an entry names, by class key
    /// ([`TrafficClass::key`]).
    classes: Vec<(u64, ClassRefs)>,
    /// How many of those classes name each ref, wide ones aside, by ref.
    named: Vec<(Ref, u32)>,
    /// How many of them are wide.
    wide: usize,
    /// The classes whose audit found violations, with them.
    flagged: BTreeMap<TrafficClass, Vec<Violation>>,
    /// The classes the pass under way judges, sorted, their audits
    /// forgotten; `None`: every class, the book being new or dropped.
    judged: Option<Vec<TrafficClass>>,
}

impl Book {
    /// Whether any class is counted against `r`: a wide one, or one
    /// naming it.
    fn names(&self, r: Ref) -> bool {
        self.wide > 0 || self.named.binary_search_by_key(&r, |x| x.0).is_ok()
    }

    /// The classes that name `r`: a walk over what each class names,
    /// taken only when a class not already judged may name it.
    fn classes_naming(&self, r: Ref) -> impl Iterator<Item = TrafficClass> + '_ {
        let naming = self.classes.iter().filter(move |(_, refs)| refs.names(r));
        naming.map(|(key, _)| TrafficClass::from_key(*key))
    }

    /// Forget what class `class` named and found.
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

    /// Record what class `class`, holding entries `entries` and
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

    /// Record every class of the lowered table `rules` afresh, with
    /// `found`'s violations, grouping the entries in `scratch`.
    fn record_whole(
        &mut self,
        rules: &[RuleState],
        mut found: BTreeMap<TrafficClass, Vec<Violation>>,
        scratch: &mut Vec<(u64, usize)>,
    ) {
        self.classes.clear();
        self.named.clear();
        self.wide = 0;
        let class_of = |(i, r): (usize, &RuleState)| (TrafficClass::of(&r.matches).key(), i);
        scratch.clear();
        scratch.extend(rules.iter().enumerate().map(class_of));
        scratch.sort_unstable();
        for run in scratch.chunk_by(|a, b| a.0 == b.0) {
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

    /// The classes of `lsi`, this book's LSI, that a pass must judge:
    /// the classes its table says changed since the last audit, those
    /// naming a port it gained or lost or a vid in `changed_vids`, and
    /// those flagged last time — with every class that holds one of
    /// them, and under a changed whole-port class its port's classes.
    /// `None`, every class, when the table's record no longer reaches
    /// the last audit or a class that pins no port is at stake. The
    /// judged classes' audits are forgotten here, the changed ones
    /// first, so what the book still counts against a changed port or
    /// vid is another class's.
    fn judge(&mut self, lsi: &LogicalSwitch, changed_vids: &[u16]) -> Option<Vec<TrafficClass>> {
        let table = lsi.table();
        let mut seeds: Vec<TrafficClass> = table.changed_since(self.seen)?.collect();
        seeds.extend(self.flagged.keys().copied());
        for &class in &seeds {
            self.forget_class(class);
        }
        // With the seeds forgotten, a ref that changed is named by
        // another class only if a class is still counted against it.
        let mut refs: Vec<Ref> = Vec::new();
        let mut counted = |r: Ref| {
            if self.names(r) {
                refs.push(r);
            }
        };
        changed_vids.iter().for_each(|vid| counted(vid_ref(*vid)));
        if self.ports_seen != lsi.port_generation() {
            changed_ports(&self.ports, lsi.ports().map(|(no, _)| no.0), |port| {
                counted(port_ref(port));
            });
        }
        for r in refs {
            let naming: Vec<TrafficClass> = self.classes_naming(r).collect();
            for class in naming {
                self.forget_class(class);
                seeds.push(class);
            }
        }
        if seeds.is_empty() {
            return Some(seeds);
        }
        if seeds.contains(&TrafficClass::Table) || table.has_class(TrafficClass::Table) {
            return None;
        }
        // Each seed with what holds it, and under a whole-port seed its
        // port's classes; a seed with no entry left only loses its audit.
        let mut judged = Vec::with_capacity(seeds.len() + 2);
        for &class in &seeds {
            let TrafficClass::Port(port, vlan) = class else {
                unreachable!("a class that pins no port judges every class");
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
            self.forget_class(class);
        }
        Some(judged)
    }

    /// Audit `state`, the lowered form of `lsi`, into this book: every
    /// class, or the judged ones; then take the LSI's generations.
    fn audit(
        &mut self,
        ix: &un_verify::snapshot::Index<'_>,
        node: &str,
        state: &LsiState,
        lsi: &LogicalSwitch,
        scratch: &mut Vec<(u64, usize)>,
    ) -> CheckStats {
        let judged = self.judged.take();
        let whole = judged.is_none();
        let mut stats = CheckStats::default();
        let mut found: BTreeMap<TrafficClass, Vec<Violation>> = BTreeMap::new();
        let mut flag = |class, v| found.entry(class).or_default().push(v);
        let classes = judged.as_deref();
        for t in &state.tables {
            stats.merge(check::audit_table(ix, node, state, t, classes, &mut flag));
        }
        let mut judged = match judged {
            None => {
                self.record_whole(&state.tables[0].rules, found, scratch);
                Vec::new()
            }
            Some(judged) => {
                for &class in &judged {
                    let violations = found.remove(&class).unwrap_or_default();
                    self.record_class(class, lsi.table().class_rules(class), violations);
                }
                judged
            }
        };
        judged.clear();
        self.judged = Some(judged);
        self.mark_seen(lsi, whole);
        stats
    }

    /// Take `lsi`'s table and port generations, and its ports when they
    /// changed or (`whole`) the book may be another LSI's of its owner,
    /// torn down since.
    fn mark_seen(&mut self, lsi: &LogicalSwitch, whole: bool) {
        self.seen = lsi.table().generation();
        if whole || self.ports_seen != lsi.port_generation() {
            self.ports_seen = lsi.port_generation();
            self.ports.clear();
            self.ports.extend(lsi.ports().map(|(no, _)| no.0));
        }
    }
}

/// One node's books, one per LSI in the node's order: LSI-0's first,
/// then each graph's by graph id.
#[derive(Default)]
struct NodeAudits {
    books: Vec<Book>,
    /// `(class key, entry)` of a table being booked whole.
    scratch: Vec<(u64, usize)>,
}

impl NodeAudits {
    /// Line the books up with `node`'s LSIs: drop the book of an LSI the
    /// node no longer has, and open an empty one, owned by `shared`'s id
    /// of its graph, for an LSI it has none for.
    fn align(&mut self, node: &UniversalNode, shared: impl Fn(&str) -> Arc<str>) {
        let mut at = 0;
        for (owner, _) in node.lsis() {
            let place = |b: &Book| b.owner.as_deref().cmp(&owner);
            while self.books.get(at).map(place) == Some(Ordering::Less) {
                self.books.remove(at);
            }
            if self.books.get(at).map(place) != Some(Ordering::Equal) {
                let book = Book {
                    owner: owner.map(&shared),
                    ..Book::default()
                };
                self.books.insert(at, book);
            }
            at += 1;
        }
        self.books.truncate(at);
    }

    /// Whether each of `node`'s LSIs has its book, its table and ports
    /// are as they were at its last audit, and no class of it names a
    /// vid in `changed_vids`: one walk beside the books.
    fn current(&self, node: &UniversalNode, changed_vids: &[u16]) -> bool {
        let mut books = self.books.iter();
        let as_seen = |(owner, lsi): (Option<&str>, &LogicalSwitch)| {
            books.next().is_some_and(|b| {
                b.owner.as_deref() == owner
                    && b.seen == lsi.table().generation()
                    && b.ports_seen == lsi.port_generation()
                    && !changed_vids.iter().any(|vid| b.names(vid_ref(*vid)))
            })
        };
        node.lsis().all(as_seen) && books.next().is_none()
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

/// What an incremental pass re-checks, and therefore all it lowers in
/// depth; names borrow from the domain's own maps. What it lowers of a
/// serving node's LSIs is what their books judge.
struct Scope<'a, 'c> {
    graphs: BTreeSet<&'a str>,
    nodes: BTreeSet<&'a str>,
    /// The cache the pass splices from.
    cache: &'c VerifyCache,
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
    /// only for what `scope` names — of a serving node's LSIs, the
    /// classes their books judge — the rest being recorded by name so
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
        let none = (BTreeSet::new(), BTreeMap::new());
        let (scoped, cached) =
            scope.map_or((&none.0, &none.1), |s| (&s.nodes, &s.cache.node_results));
        let mut scoped = beside(scoped.iter().map(|name| (name, ())));
        let mut cached = beside(cached.iter());
        for (name, managed) in &self.nodes {
            let serving = managed.health.is_serving();
            if scope.is_some() && scoped(name).is_none() {
                snap.unlowered_nodes.push((managed.name.shared(), serving));
                continue;
            }
            let audits = cached(name).filter(|_| serving).map(|(_, a)| a);
            let mut books = audits.into_iter().flat_map(|a| &a.books);
            let (mut lsis, mut unlowered_lsis) = (Vec::new(), Vec::new());
            for (graph, lsi) in managed.node.lsis() {
                let book = books.next();
                debug_assert!(book.is_none_or(|b| b.owner.as_deref() == graph));
                let judged = book.and_then(|b| b.judged.as_deref());
                match (book.and_then(|b| b.owner.as_ref()), judged) {
                    (Some(id), Some([])) => unlowered_lsis.push(Arc::clone(id)),
                    _ => lsis.push(lower_lsi(lsi, graph, judged)),
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
    /// stale) until recovery purges it. A serving node is audited when it
    /// is marked, was never audited, has an LSI whose table or ports
    /// changed since its audit, or names a vid in `changed_vids`; and
    /// the hosts of a re-checked graph are audited with it — its
    /// compile-consistency step reads their tables — whether or not the
    /// mutation remembered to mark them.
    ///
    /// Deciding a node's scope readies its books ([`node_scope`]).
    fn scope<'a, 'c>(&'a self, cache: &'c mut VerifyCache) -> Scope<'a, 'c> {
        let changed_vids = &cache.changed_vids;
        let mut checked = beside(cache.graph_results.iter());
        let graphs: BTreeSet<&str> = self
            .graphs
            .keys()
            .map(String::as_str)
            .filter(|id| checked(id).is_none() || cache.graphs_dirty.contains(*id))
            .collect();
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        let mut cached = beside(cache.node_results.iter());
        for (name, managed) in &self.nodes {
            let audits = cached(name).map(|(_, a)| a);
            if !managed.health.is_serving() {
                continue;
            }
            let as_audited = audits.is_some_and(|a| a.current(&managed.node, changed_vids));
            if !as_audited || cache.nodes_dirty.contains(name) {
                nodes.insert(name);
            }
        }
        drop(cached);
        for id in &graphs {
            nodes.extend(self.graphs[*id].partition.parts.keys().map(String::as_str));
        }
        let rechecked = |g: &str| graphs.contains(g) || cache.graphs_dirty.contains(g);
        for &name in &nodes {
            let serving = self.nodes.get(name).filter(|m| m.health.is_serving());
            let Some(managed) = serving else {
                continue;
            };
            if !cache.node_results.contains_key(name) {
                cache
                    .node_results
                    .insert(name.to_string(), NodeAudits::default());
            }
            let audits = cache.node_results.get_mut(name).expect("inserted");
            audits.align(&managed.node, |g| self.shared_id(g));
            node_scope(&managed.node, audits, changed_vids, rechecked);
        }
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
    /// touched traffic classes of each LSI) touched since the last call
    /// are lowered and re-checked; cached results cover the rest. The
    /// first call, and any call after a fleet-wide mutation, runs full.
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
        let snap = if full {
            self.lower(None)
        } else {
            self.lower(Some(&self.scope(&mut *cache)))
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
            if full {
                if !cache.node_results.contains_key(&node.name) {
                    cache
                        .node_results
                        .insert(node.name.clone(), NodeAudits::default());
                }
                let audits = cache.node_results.get_mut(&node.name).expect("inserted");
                audits.align(live, |g| self.shared_id(g));
                audits.books.iter_mut().for_each(|b| b.judged = None);
            }
            let audits = cache.node_results.get_mut(&node.name);
            let NodeAudits { books, scratch } = audits.expect("an audited node has its books");
            let mut lowered = node.lsis.iter().peekable();
            for ((graph, lsi), book) in live.lsis().zip(books) {
                debug_assert_eq!(book.owner.as_deref(), graph);
                match lowered.next_if(|state| state.graph.as_deref() == graph) {
                    Some(state) => {
                        let stats = book.audit(&ix, &node.name, state, lsi, scratch);
                        report.stats.merge(stats);
                    }
                    None => book.mark_seen(lsi, false),
                }
            }
            report.nodes_checked += 1;
        }
        {
            let mut cached = beside(cache.node_results.iter());
            for (name, managed) in &self.nodes {
                let audits = cached(name);
                if managed.health.is_serving() {
                    let (_, audits) = audits.expect("a serving node is audited");
                    for flagged in audits.books.iter().flat_map(|b| b.flagged.values()) {
                        report.violations.extend(flagged.iter().cloned());
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
}

/// Ready the books of `node`, which a pass re-audits, lined up with its
/// LSIs: an LSI of a graph the pass re-checks (`rechecked`), or one
/// without an audit, is judged whole; every other LSI is judged where
/// it changed ([`Book::judge`]).
fn node_scope(
    node: &UniversalNode,
    audits: &mut NodeAudits,
    changed_vids: &[u16],
    rechecked: impl Fn(&str) -> bool,
) {
    for ((graph, lsi), book) in node.lsis().zip(&mut audits.books) {
        if graph.is_some_and(&rechecked) {
            book.judged = None;
        } else if book.judged.is_some() {
            book.judged = book.judge(lsi, changed_vids);
        }
    }
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

    /// Node `node`'s LSI-0, or (`graph`) that graph's LSI, written by
    /// hand the way a faulty node would: no domain mark, only the LSI's
    /// own record of what changed.
    fn lsi_mut<'d>(
        d: &'d mut Domain,
        node: &str,
        graph: Option<&str>,
    ) -> &'d mut un_core::un_switch::LogicalSwitch {
        let node = &mut d.nodes.get_mut(node).unwrap().node;
        node.switch_mut(graph).expect("the node holds that LSI")
    }

    fn base_mut<'d>(d: &'d mut Domain, node: &str) -> &'d mut un_core::un_switch::LogicalSwitch {
        lsi_mut(d, node, None)
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

    /// A write no domain mark names is judged where it lands, in LSI-0
    /// or in a graph's LSI alike: each LSI's own records — its table's
    /// changed classes and its port generation — pull its node into the
    /// pass, and the incremental pass says exactly what a full pass says.
    ///
    /// * An entry that hides one of `g1`'s, written into `g1`'s LSI.
    /// * A port an LSI-0 entry outputs to, removed from LSI-0.
    /// * A port a `g1` entry outputs to, removed from `g1`'s LSI.
    #[test]
    fn a_write_no_mark_names_is_judged() {
        use un_core::un_switch::{FlowAction, FlowEntry, PortNo};
        let lsi_of = |d: &Domain, graph: Option<&str>| {
            let mut lsis = d.node("n1").unwrap().lsis();
            let lsi = lsis.find(|(g, _)| *g == graph).unwrap().1;
            lsi.table().entries().cloned().collect::<Vec<FlowEntry>>()
        };
        let output = |entries: &[FlowEntry]| -> PortNo {
            let outputs = entries.iter().flat_map(|e| e.actions.iter());
            let mut ports = outputs.filter_map(|a| match a {
                FlowAction::Output(port) => Some(*port),
                _ => None,
            });
            ports.next().expect("an entry outputs to a port")
        };

        let mut d = shared_host_fleet();
        assert!(d.verify_full().ok());
        let victim = lsi_of(&d, Some("g1")).swap_remove(0);
        let mut shadow = FlowEntry::new(victim.priority + 1, victim.matches.clone(), Vec::new());
        shadow.cookie = 0xbad;
        lsi_mut(&mut d, "n1", Some("g1"))
            .install(0, shadow)
            .unwrap();
        assert_exact(
            &d,
            "shadow in g1's LSI",
            un_verify::check::code::SHADOWED_RULE,
        );

        for graph in [None, Some("g1")] {
            let mut d = shared_host_fleet();
            assert!(d.verify_full().ok());
            let port = output(&lsi_of(&d, graph));
            lsi_mut(&mut d, "n1", graph).remove_port(port).unwrap();
            let tag = format!("port gone from {}", graph.unwrap_or("LSI-0"));
            assert_exact(&d, &tag, un_verify::check::code::DEAD_OUTPUT);
        }
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
            nodes: BTreeSet::new(),
            cache: &VerifyCache::default(),
        }));
        let ix = snap.index();
        assert_eq!(ix.serving("n0"), Some(true));
        check::check_graph(&ix, &snap.graphs[0]);
    }
}
