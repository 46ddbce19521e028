//! Make-before-break repair: pre-stage the recovery while the node is
//! merely *suspect*, then promote it the instant the node fails.
//!
//! ```sh
//! cargo run --release --example make_before_break
//! ```
//!
//! A three-node fleet hosts a split bridge chain whose middle NF sits
//! on `edge-b`. The failure detector (or an operator) marks `edge-b`
//! suspect: the domain immediately computes a standby plan — placement
//! with the survivors pinned, overlay vids reserved from the pool,
//! transit routes pre-solved — while the graph keeps serving. When the
//! grace window expires and the node is declared failed, the repair is
//! a *swap* of the pre-staged parts, not a from-scratch plan. The same
//! scenario is then replayed on a twin fleet **without** the warning,
//! and the two downtimes (plus the model's predictions from
//! `Domain::availability_report`) are printed side by side. Both are
//! virtual time: the swap books exactly one plan charge less, and on a
//! failure a `tick` detects, both would also book the seconds of
//! silence before it.

use std::collections::BTreeMap;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, RepairOutcome};
use un_nffg::NfFgBuilder;
use un_sim::mem::mb;

fn fleet() -> Domain {
    let mut d = Domain::with_defaults();
    let mut a = UniversalNode::new("edge-a", mb(1024));
    a.add_physical_port("eth0");
    let mut b = UniversalNode::new("edge-b", mb(1024));
    b.add_physical_port("eth0");
    b.add_physical_port("eth1");
    let mut c = UniversalNode::new("edge-c", mb(1024));
    c.add_physical_port("eth1");
    d.add_node(a);
    d.add_node(b);
    d.add_node(c);
    d
}

fn deploy(d: &mut Domain) {
    let g = NfFgBuilder::new("svc", "split chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    let hints = DeployHints {
        endpoint_node: [
            ("lan".to_string(), "edge-b".to_string()),
            ("wan".to_string(), "edge-b".to_string()),
        ]
        .into(),
        nf_node: [
            ("br1".to_string(), "edge-b".to_string()),
            ("br2".to_string(), "edge-b".to_string()),
        ]
        .into(),
        ..DeployHints::default()
    };
    d.deploy_with(&g, &hints).unwrap();
}

fn outcome(d: &Domain, repairs: &[RepairOutcome]) -> String {
    let o = &repairs[0];
    let ledger = d.graph_availability("svc").unwrap();
    format!(
        "standby_promoted={} downtime_estimate={}ns modeled={}ns \
         (nfs moved {}, links {})",
        o.standby_promoted,
        o.downtime_estimate_ns,
        ledger.modeled_downtime_ns,
        o.nfs_moved,
        o.links_rewired + o.links_kept
    )
}

fn main() {
    // ---- Warned fleet: suspect → standby → fail = swap ----
    let mut warned = fleet();
    deploy(&mut warned);
    println!("deployed `svc` entirely on edge-b");

    warned.suspect_node("edge-b").unwrap();
    let (_, _, _, _, reserved) = warned.vid_accounting();
    println!(
        "edge-b suspected: {} standby plan(s) staged, vids reserved: {:?}",
        warned.standby_graphs().len(),
        reserved
    );
    let report = warned.availability_report();
    println!(
        "model: standby_ready={} predicted repair {}ns (reactive would be {}ns)",
        report.graphs[0].standby_ready,
        report.graphs[0].predicted_repair_ns,
        report.graphs[0].predicted_reactive_ns
    );

    let report = warned.fail_node("edge-b").unwrap();
    println!(
        "edge-b failed (warned):    {}",
        outcome(&warned, &report.repairs)
    );

    // ---- Surprised fleet: fail with no warning = reactive plan ----
    let mut surprised = fleet();
    deploy(&mut surprised);
    let report = surprised.fail_node("edge-b").unwrap();
    println!(
        "edge-b failed (surprised): {}",
        outcome(&surprised, &report.repairs)
    );

    // Both fleets converge on the identical placement.
    let place =
        |d: &Domain| -> BTreeMap<String, String> { d.assignment_of("svc").unwrap().clone() };
    assert_eq!(place(&warned), place(&surprised));
    println!(
        "identical final placement: {:?}",
        place(&warned).into_iter().collect::<Vec<_>>()
    );

    let warned_report = warned.availability_report();
    println!(
        "availability (warned fleet): {:.12}",
        warned_report.graphs[0].predicted_availability
    );
}
