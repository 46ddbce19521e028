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
//!   graph's original and parts, each link's graph id and path — by
//!   reference count instead of copying them.
//! * **Incrementality** — mutations mark the graphs they touched (and
//!   the nodes hosting their parts); [`Domain::verify`] lowers and
//!   re-checks only the dirty portion and splices cached results in
//!   for the rest, so a pass costs what changed, not what is deployed.
//!   A graph LSI changes only when its graph is committed or torn
//!   down, so on a re-audited node only LSI-0 and the LSIs of dirty
//!   graphs are lowered; every other graph LSI keeps its cached audit.
//!   The ledger checks are global, so they always re-run, over one
//!   index of the snapshot. A node failure or recovery marks that node
//!   and the graphs with a part on it; membership changes and raw node
//!   access force a full pass because their blast radius is unbounded.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use un_verify::check::{self, CheckStats, VerifyReport, Violation};
use un_verify::snapshot::{
    ExpectedRule, GraphLink, GraphState, LeaseInfo, LinkInfo, LsiState, NodeState, RuleState,
    Snapshot, TableState,
};

use super::{Domain, DomainGraph};

/// One check's result: its violations and the work it did.
type Checked = (Vec<Violation>, CheckStats);

/// One node's table audits from the last pass, one per LSI.
#[derive(Default)]
struct NodeAudits {
    /// LSI-0's.
    base: Checked,
    /// Each graph LSI's, by owning graph.
    graphs: BTreeMap<String, Checked>,
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
    /// Per-graph results from the last pass.
    graph_results: BTreeMap<String, Checked>,
    /// Per-(node, LSI) audits from the last pass.
    node_results: BTreeMap<String, NodeAudits>,
    /// False until a pass has populated the caches.
    primed: bool,
}

/// What an incremental pass re-checks, and therefore all it lowers in
/// depth; names borrow from the domain's own maps.
struct Scope<'a> {
    graphs: BTreeSet<&'a str>,
    nodes: BTreeSet<&'a str>,
    /// The cache the pass splices from.
    cache: &'a VerifyCache,
}

impl Scope<'_> {
    /// Whether graph `gid`'s LSI on node `node` keeps its cached audit:
    /// it has one, and the graph was not touched — deployed or not, so
    /// a torn-down graph's leftover LSI is audited.
    fn reuses(&self, node: &str, gid: &str) -> bool {
        !self.graphs.contains(gid)
            && !self.cache.graphs_dirty.contains(gid)
            && self
                .cache
                .node_results
                .get(node)
                .is_some_and(|a| a.graphs.contains_key(gid))
    }
}

/// Lower one deployed graph (intent, plan, install receipt) into the
/// verifier's model. Expected-rule cookies reproduce the compiler's
/// convention so the consistency check matches installed entries.
fn snapshot_graph(id: &str, g: &DomainGraph) -> GraphState {
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
    GraphState {
        id: id.to_string(),
        original: Arc::clone(&g.original),
        parts: Arc::clone(&g.partition.parts),
        links: g
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
            .collect(),
        expected_rules,
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

    /// The one lowering path. The ledger side (membership, links,
    /// leases, the vid pool) is always whole; tables, plans and
    /// expected rules are lowered for everything (`scope == None`) or
    /// only for what `scope` names, the rest being recorded by name so
    /// reading it is an error rather than an empty answer.
    fn lower(&self, scope: Option<&Scope<'_>>) -> Snapshot {
        let (vid_base, vid_next, free_vids, _in_use, standby_vids) = self.vid_accounting();
        let mut snap = Snapshot {
            vid_base,
            vid_next,
            free_vids,
            standby_vids,
            ..Snapshot::default()
        };
        for (name, managed) in &self.nodes {
            let serving = managed.health.is_serving();
            if scope.is_some_and(|s| !s.nodes.contains(name.as_str())) {
                snap.unlowered_nodes.push((name.clone(), serving));
                continue;
            }
            let (mut lsis, mut unlowered_lsis) = (Vec::new(), Vec::new());
            for (gid, lsi) in managed.node.lsis() {
                let reused = |g: &&str| scope.is_some_and(|s| s.reuses(name, g));
                if let Some(g) = gid.filter(reused) {
                    unlowered_lsis.push(g.to_string());
                    continue;
                }
                lsis.push(LsiState {
                    name: lsi.name.clone(),
                    graph: gid.map(str::to_string),
                    ports: lsi.ports().map(|(no, _)| no.0).collect(),
                    tables: lsi
                        .tables()
                        .map(|(index, table)| TableState {
                            index,
                            rules: table
                                .entries()
                                .map(|e| RuleState {
                                    priority: e.priority,
                                    matches: e.matches.clone(),
                                    actions: Arc::clone(&e.actions),
                                    cookie: e.cookie,
                                })
                                .collect(),
                        })
                        .collect(),
                });
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
                snap.unlowered_graphs.push(id.clone());
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

    /// What an incremental pass re-checks. Only serving nodes are
    /// audited: a failed carcass keeps its installed state (expected
    /// stale) until recovery purges it. Hosts of a re-checked graph are
    /// audited with it — its compile-consistency step reads their
    /// tables — whether or not the mutation remembered to mark them.
    fn scope<'a>(&'a self, cache: &'a VerifyCache) -> Scope<'a> {
        let graphs: BTreeSet<&str> = self
            .graphs
            .keys()
            .map(String::as_str)
            .filter(|id| cache.graphs_dirty.contains(*id) || !cache.graph_results.contains_key(*id))
            .collect();
        let mut nodes: BTreeSet<&str> = self
            .nodes
            .iter()
            .filter(|(name, managed)| {
                managed.health.is_serving()
                    && (cache.nodes_dirty.contains(*name)
                        || !cache.node_results.contains_key(*name))
            })
            .map(|(name, _)| name.as_str())
            .collect();
        for id in &graphs {
            nodes.extend(self.graphs[*id].partition.parts.keys().map(String::as_str));
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
    /// Incremental: only graphs (and nodes, and on those nodes LSI-0
    /// and the touched graphs' LSIs) touched since the last call are
    /// lowered and re-checked; cached results cover the rest. The
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
        let mut cache = self.verify_cache.lock().expect("verify cache poisoned");
        let full = force_full || cache.dirty_all || !cache.primed;

        // Cached entries for graphs/nodes that left the domain are
        // dead weight — drop them so they can never be spliced back.
        cache
            .graph_results
            .retain(|id, _| self.graphs.contains_key(id));
        cache
            .node_results
            .retain(|name, _| self.nodes.contains_key(name));

        // Derive once what this pass re-checks, and lower only that.
        let snap = {
            let scope = (!full).then(|| self.scope(&cache));
            self.lower(scope.as_ref())
        };
        let ix = snap.index();

        let mut report = VerifyReport {
            mode: if full { "full" } else { "incremental" },
            rules_lowered: snap.installed_rules(),
            ..VerifyReport::default()
        };
        report.violations.extend(check::check_ledger(&ix));

        // Everything lowered is re-checked into the cache; the report
        // then reads the cache in fleet order, fresh and reused alike.
        for g in &snap.graphs {
            let (v, stats) = check::check_graph(&ix, g);
            report.stats.merge(stats);
            cache.graph_results.insert(g.id.clone(), (v, stats));
        }
        report.graphs_checked = snap.graphs.len();
        report.graphs_reused = snap.unlowered_graphs.len();
        for id in self.graphs.keys() {
            let (v, _) = &cache.graph_results[id];
            report.violations.extend(v.iter().cloned());
        }

        for node in snap.nodes.iter().filter(|n| n.serving) {
            // The node's audits are rebuilt from its LSIs as they stand:
            // fresh for every lowered LSI, the cached one for each LSI
            // left out; an LSI the node no longer has drops out.
            let (name, mut old) = cache
                .node_results
                .remove_entry(&node.name)
                .unwrap_or_else(|| (node.name.clone(), NodeAudits::default()));
            let mut fresh = NodeAudits::default();
            for lsi in &node.lsis {
                let audit = check::audit_lsi(&ix, &node.name, lsi);
                report.stats.merge(audit.1);
                match &lsi.graph {
                    None => fresh.base = audit,
                    Some(gid) => {
                        fresh.graphs.insert(gid.clone(), audit);
                    }
                }
            }
            for gid in &node.unlowered_lsis {
                let (gid, audit) = old
                    .graphs
                    .remove_entry(gid)
                    .expect("a reused LSI audit is cached");
                fresh.graphs.insert(gid, audit);
            }
            report.nodes_checked += 1;
            cache.node_results.insert(name, fresh);
        }
        for (name, managed) in &self.nodes {
            if managed.health.is_serving() {
                let audits = &cache.node_results[name];
                report.violations.extend(audits.base.0.iter().cloned());
                for (v, _) in audits.graphs.values() {
                    report.violations.extend(v.iter().cloned());
                }
            }
        }
        report.nodes_reused = snap.unlowered_nodes.iter().filter(|(_, s)| *s).count();

        cache.graphs_dirty.clear();
        cache.nodes_dirty.clear();
        cache.dirty_all = false;
        cache.primed = true;
        drop(cache);

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

    /// A graph LSI is scoped with its graph: on a node two graphs
    /// share, touching `g0` lowers that node's LSI-0 and `g0`'s own LSI,
    /// never `g1`'s, whose cached audit is spliced in.
    #[test]
    fn touching_a_graph_lowers_only_its_own_lsis_on_a_shared_node() {
        let mut d = paired_fleet(4);
        d.undeploy("g1").unwrap();
        // g1 again, its first NF now beside g0's second on n1.
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
        let lowered: usize = ["n0", "n1"]
            .iter()
            .map(|n| rules_of(&d, n, None) + rules_of(&d, n, Some("g0")))
            .sum();
        assert_eq!(report.rules_lowered, lowered);
        let full = check::run(&d.verify_snapshot());
        assert_eq!(rendered(&report), rendered(&full));
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
