//! Domain-side bridge to `un-verify` — snapshot extraction, the
//! incremental re-verification cache, and [`Domain::verify`].
//!
//! The checker itself is orchestrator-free (it consumes the plain-data
//! [`Snapshot`]); this module owns the two stateful halves:
//!
//! * **Extraction** — [`Domain::verify_snapshot`] lowers live fleet
//!   state (installed LSI tables, partitions, overlay wires, shared
//!   leases, the vid pool) into a snapshot that the checker, the REST
//!   endpoint, and the negative tests all share.
//! * **Incrementality** — mutations mark the graphs they touched (and
//!   the nodes hosting their parts); [`Domain::verify`] lowers and
//!   re-checks only the dirty portion and splices cached results in
//!   for the rest, so a pass costs what changed, not what is deployed.
//!   The ledger checks are global but cheap, so they always re-run;
//!   fleet-wide mutations (membership, health, repair, sharing policy)
//!   force a full pass because their blast radius is unbounded.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use un_verify::check::{self, CheckStats, VerifyReport, Violation};
use un_verify::snapshot::{
    ExpectedRule, GraphLink, GraphState, LeaseInfo, LinkInfo, LsiState, NodeState, RuleState,
    Snapshot, TableState,
};

use super::{Domain, DomainGraph};

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
    graph_results: BTreeMap<String, (Vec<Violation>, CheckStats)>,
    /// Per-node audits from the last pass.
    node_results: BTreeMap<String, (Vec<Violation>, CheckStats)>,
    /// False until a pass has populated the caches.
    primed: bool,
}

/// What an incremental pass re-checks, and therefore all it lowers in
/// depth; names borrow from the domain's own maps.
struct Scope<'a> {
    graphs: BTreeSet<&'a str>,
    nodes: BTreeSet<&'a str>,
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
        original: g.original.clone(),
        parts: g.partition.parts.clone(),
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
            snap.nodes.push(NodeState {
                name: name.clone(),
                serving,
                lsis: managed
                    .node
                    .lsis()
                    .map(|(gid, lsi)| LsiState {
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
                                        actions: e.actions.to_vec(),
                                        cookie: e.cookie,
                                    })
                                    .collect(),
                            })
                            .collect(),
                    })
                    .collect(),
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
                graph: state.graph.clone(),
                path: state.path.clone(),
            })
            .collect();
        snap.leases = self
            .sharing
            .instances()
            .map(|inst| LeaseInfo {
                key: inst.key.render(),
                host: inst.host.clone(),
                tenants: inst.leases.keys().cloned().collect(),
            })
            .collect();
        snap
    }

    /// Statically verify the domain: reachability, loop-freedom,
    /// blackhole-freedom, shadowed rules, and ledger consistency over
    /// a snapshot of current state.
    ///
    /// Incremental: only graphs (and nodes) touched since the last
    /// call are lowered and re-checked; cached results cover the rest.
    /// The first call, and any call after a fleet-wide mutation, runs
    /// full.
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
        // Only serving nodes are audited: a failed carcass keeps its
        // installed state (expected stale) until recovery purges it.
        // Hosts of a re-checked graph are audited with it — its
        // compile-consistency step reads their tables — whether or not
        // the mutation remembered to mark them.
        let scope = (!full).then(|| {
            let graphs: BTreeSet<&str> = self
                .graphs
                .keys()
                .map(String::as_str)
                .filter(|id| {
                    cache.graphs_dirty.contains(*id) || !cache.graph_results.contains_key(*id)
                })
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
            Scope { graphs, nodes }
        });
        let snap = self.lower(scope.as_ref());

        let mut report = VerifyReport {
            mode: if full { "full" } else { "incremental" },
            rules_lowered: snap.installed_rules(),
            ..VerifyReport::default()
        };
        report.violations.extend(check::check_ledger(&snap));

        // Everything lowered is re-checked into the cache; the report
        // then reads the cache in fleet order, fresh and reused alike.
        for g in &snap.graphs {
            let (v, stats) = check::check_graph(&snap, g);
            report.stats.merge(stats);
            cache.graph_results.insert(g.id.clone(), (v, stats));
        }
        report.graphs_checked = snap.graphs.len();
        report.graphs_reused = snap.unlowered_graphs.len();
        for id in self.graphs.keys() {
            let (v, _) = &cache.graph_results[id];
            report.violations.extend(v.iter().cloned());
        }

        let in_use: BTreeSet<u16> = snap.links.iter().map(|l| l.vid).collect();
        for node in snap.nodes.iter().filter(|n| n.serving) {
            let (v, stats) = check::audit_node(node, snap.vid_base, snap.vid_next, &in_use);
            report.stats.merge(stats);
            report.nodes_checked += 1;
            cache.node_results.insert(node.name.clone(), (v, stats));
        }
        for (name, managed) in &self.nodes {
            if managed.health.is_serving() {
                let (v, _) = &cache.node_results[name];
                report.violations.extend(v.iter().cloned());
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

    #[test]
    #[should_panic(expected = "outside this snapshot's scope")]
    fn under_scoped_snapshot_refuses_to_answer() {
        let d = paired_fleet(4);
        // g0 without its hosts: its consistency check must not be able
        // to mistake "not lowered" for "no rules installed".
        let snap = d.lower(Some(&Scope {
            graphs: ["g0"].into(),
            nodes: BTreeSet::new(),
        }));
        assert_eq!(snap.serving("n0"), Some(true));
        check::check_graph(&snap, &snap.graphs[0]);
    }
}
