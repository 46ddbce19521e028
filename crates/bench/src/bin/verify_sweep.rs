//! Verification sweep: full vs incremental static verification cost.
//!
//! The scenario scales a fleet of node pairs, each pair hosting one
//! split bridge chain (lan on the first node of the pair, wan on the
//! second — the partitioner synthesizes two overlay links per graph).
//! Per fleet size the sweep measures:
//!
//! * **full** — `Domain::verify_full()`: every graph re-checked,
//!   every serving node re-audited;
//! * **incremental** — one graph is touched (undeploy + redeploy) and
//!   `Domain::verify()` re-checks only that graph and its two hosts,
//!   splicing cached results for the rest of the fleet.
//!
//! Both modes must come back clean, the incremental pass must re-check
//! exactly one graph, and its min-of-reps latency must beat the full
//! pass at every fleet size ≥ the smallest — the acceptance gate CI
//! smoke-checks. An incremental pass must also *lower* the same number
//! of installed rules at every fleet size (the touched graph's two
//! hosts, nothing else): cost follows the change, not the fleet.
//! Writes `BENCH_verify.json`.
//!
//! ```sh
//! cargo run --release -p un-bench --bin verify_sweep
//! ```

use std::time::Instant;

use un_core::UniversalNode;
use un_domain::Domain;
use un_nffg::{Json, NfFg, NfFgBuilder};
use un_sim::mem::mb;

/// Fleet sizes (node count; graphs = nodes / 2).
const FLEETS: [usize; 3] = [4, 8, 16];
/// NFs per chain.
const CHAIN_LEN: usize = 4;
/// Measurement repetitions (min taken).
const REPS: usize = 5;

/// A chain split across one node pair: lan rides the pair's first
/// node (port `p<2k>`), wan the second (port `p<2k+1>`).
fn chain(k: usize) -> NfFg {
    let ids: Vec<String> = (0..CHAIN_LEN).map(|i| format!("g{k}-br{i}")).collect();
    let mut b = NfFgBuilder::new(&format!("g{k}"), "chain")
        .interface_endpoint("lan", &format!("p{}", 2 * k))
        .interface_endpoint("wan", &format!("p{}", 2 * k + 1));
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

fn fleet(nodes: usize) -> Domain {
    let mut d = Domain::with_defaults();
    for i in 0..nodes {
        let mut n = UniversalNode::new(&format!("n{i}"), mb(2048));
        n.add_physical_port(&format!("p{i}"));
        d.add_node(n);
    }
    for k in 0..nodes / 2 {
        d.deploy(&chain(k)).expect("split chain deploys");
    }
    d
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("verify sweep: full vs incremental static verification ({cpus} cpu)\n");
    println!(
        "{:<6} {:>7} {:>7} | {:>10} {:>12} {:>8}",
        "nodes", "graphs", "rules", "full (µs)", "incr (µs)", "speedup"
    );

    let mut rows = Vec::new();
    let mut lowered_per_pass = None;
    for &nodes in &FLEETS {
        let mut d = fleet(nodes);
        let graphs = nodes / 2;
        let snap = d.verify_snapshot();
        let rules = snap.installed_rules();

        // Full pass: everything re-checked, every rep.
        let mut full_ns = u64::MAX;
        let mut full_report = d.verify_full();
        assert!(
            full_report.ok(),
            "full verification found violations: {:#?}",
            full_report.violations
        );
        assert_eq!(full_report.graphs_checked, graphs);
        assert_eq!(full_report.rules_lowered, rules);
        for _ in 0..REPS {
            let t = Instant::now();
            full_report = d.verify_full();
            full_ns = full_ns.min(t.elapsed().as_nanos() as u64);
            assert!(full_report.ok());
        }

        // Incremental pass: touch one graph, re-verify. Only the
        // touched graph (and its two hosts) should re-check.
        let mut incr_ns = u64::MAX;
        let mut incr_report = None;
        for _ in 0..REPS {
            d.undeploy("g0").expect("undeploy touches one graph");
            d.deploy(&chain(0)).expect("redeploy");
            let t = Instant::now();
            let report = d.verify();
            incr_ns = incr_ns.min(t.elapsed().as_nanos() as u64);
            assert!(
                report.ok(),
                "incremental verification found violations: {:#?}",
                report.violations
            );
            assert_eq!(report.mode, "incremental");
            assert_eq!(
                report.graphs_checked, 1,
                "touching one graph must re-check exactly one graph"
            );
            assert_eq!(report.graphs_reused, graphs - 1);
            assert_eq!(report.nodes_checked, 2);
            assert_eq!(
                *lowered_per_pass.get_or_insert(report.rules_lowered),
                report.rules_lowered,
                "an incremental pass must lower the same rules at every fleet size ({nodes} nodes)"
            );
            incr_report = Some(report);
        }
        let incr_report = incr_report.expect("REPS > 0");

        assert!(
            incr_ns < full_ns,
            "incremental must beat full at {nodes} nodes: {incr_ns} !< {full_ns} ns"
        );
        let speedup = full_ns as f64 / incr_ns as f64;
        println!(
            "{:<6} {:>7} {:>7} | {:>10.1} {:>12.1} {:>7.1}x",
            nodes,
            graphs,
            rules,
            full_ns as f64 / 1e3,
            incr_ns as f64 / 1e3,
            speedup
        );
        rows.push(
            Json::obj()
                .set("nodes", nodes)
                .set("graphs", graphs)
                .set("installed_rules", rules)
                .set("full_ns", full_ns)
                .set("full_rules_checked", full_report.stats.rules_checked)
                .set("full_classes", full_report.stats.classes)
                .set("incremental_ns", incr_ns)
                .set("incremental_graphs_checked", incr_report.graphs_checked)
                .set("incremental_nodes_checked", incr_report.nodes_checked)
                .set("incremental_rules_checked", incr_report.stats.rules_checked)
                .set("incremental_rules_lowered", incr_report.rules_lowered)
                .set("speedup", speedup),
        );
    }

    let json = Json::obj()
        .set(
            "scenario",
            "paired split chains; touch one graph, re-verify",
        )
        .set("cpus", cpus)
        .set("chain_len", CHAIN_LEN)
        .set("reps", REPS)
        .set("fleets", Json::Arr(rows));
    std::fs::write("BENCH_verify.json", json.render_pretty()).expect("write BENCH_verify.json");
    println!("\nwrote BENCH_verify.json");
}
