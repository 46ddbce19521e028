//! Negative verification tests: corrupt a *real* snapshot of a
//! deployed domain and prove the static checker catches each seeded
//! defect. The positive control (the uncorrupted snapshot verifies
//! clean) pins down that every detection below is caused by the
//! corruption, not by ambient noise.

use std::sync::Arc;

use un_core::UniversalNode;
use un_domain::Domain;
use un_nffg::{FlowRule, NfFgBuilder, PortRef, RuleAction, TrafficMatch};
use un_obs::{DropReason, HopKind, PacketTrace};
use un_sim::mem::mb;
use un_verify::check::{code, run, VerifyReport};
use un_verify::Snapshot;

/// A two-node domain with one chain split across both (lan on n1,
/// wan on n2 — the partitioner must synthesize overlay links).
fn deployed_domain() -> Domain {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    let g = NfFgBuilder::new("g1", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("fw", "bridge", 2)
        .nf("nat", "bridge", 2)
        .chain("lan", &["fw", "nat"], "wan")
        .build();
    d.deploy(&g).expect("split chain deploys");
    d
}

fn codes(snap: &Snapshot) -> Vec<&'static str> {
    run(snap).violations.iter().map(|v| v.code).collect()
}

/// The counterexample walk attached to the first `code_` violation
/// carrying one, asserting the shared witness invariants along the
/// way: non-empty render, detail embeds the render, ghost marked.
fn witness_of<'a>(report: &'a VerifyReport, code_: &str) -> &'a PacketTrace {
    let viol = report
        .violations
        .iter()
        .find(|v| v.code == code_ && v.witness.is_some())
        .unwrap_or_else(|| panic!("no witness attached to any '{code_}' violation"));
    let w = viol.witness.as_ref().unwrap();
    assert!(!w.hops.is_empty(), "empty witness for '{code_}'");
    let rendered = w.render();
    assert!(!rendered.is_empty(), "blank render for '{code_}'");
    assert!(
        viol.detail.contains("counterexample:") && viol.detail.contains(&rendered),
        "detail does not embed the rendered walk: {}",
        viol.detail
    );
    assert!(w.ghost, "witness walks are synthesized, never injected");
    w
}

#[test]
fn uncorrupted_snapshot_is_clean() {
    let d = deployed_domain();
    let snap = d.verify_snapshot();
    assert!(snap.installed_rules() > 0, "snapshot captured no rules");
    assert!(
        !snap.graphs.is_empty() && !snap.links.is_empty(),
        "expected a split deployment with overlay links"
    );
    let report = run(&snap);
    assert!(
        report.ok(),
        "clean domain flagged: {:#?}",
        report.violations
    );
}

#[test]
fn seeded_shadowed_rule_is_detected() {
    let d = deployed_domain();
    let mut snap = d.verify_snapshot();

    // Append an exact duplicate of an installed entry at equal
    // priority: it sits after the original in match order, so its
    // region is fully covered and it can never fire.
    let table = snap
        .nodes
        .iter_mut()
        .flat_map(|n| &mut n.lsis)
        .flat_map(|l| &mut l.tables)
        .find(|t| !t.rules.is_empty())
        .expect("a populated table");
    let mut dup = table.rules[0].clone();
    dup.cookie = 0xdead_beef;
    table.rules.push(dup);

    let found = codes(&snap);
    assert!(
        found.contains(&code::SHADOWED_RULE),
        "seeded shadowed rule not flagged: {found:?}"
    );
}

#[test]
fn dangling_vid_is_detected() {
    let d = deployed_domain();
    let mut snap = d.verify_snapshot();

    // Drop one live link's state while its graph (and the installed
    // PushVlan rules tagging its vid) still reference it — the vid is
    // minted but now neither free, in use, nor standby-reserved.
    assert!(!snap.links.is_empty());
    snap.links.remove(0);

    let found = codes(&snap);
    assert!(
        found.contains(&code::VID_LEDGER),
        "leaked vid not flagged in the ledger: {found:?}"
    );
    assert!(
        found.contains(&code::DANGLING_VID),
        "installed rules tagging the leaked vid not flagged: {found:?}"
    );
}

#[test]
fn transit_loop_is_detected() {
    let d = deployed_domain();
    let mut snap = d.verify_snapshot();

    // Stretch a link's pinned path so it revisits both endpoints:
    // head and tail still match the link, but the walk loops.
    let link = snap.links.first_mut().expect("an overlay link");
    let from = link.path.first().expect("path head").clone();
    let to = link.path.last().expect("path tail").clone();
    link.path = vec![from.clone(), to.clone(), from, to].into();

    let report = run(&snap);
    let found: Vec<_> = report.violations.iter().map(|v| v.code).collect();
    assert!(
        found.contains(&code::TRANSIT_LOOP),
        "looping transit path not flagged: {found:?}"
    );

    // The counterexample rides the pinned path and dies the moment it
    // re-enters a node it already crossed.
    let w = witness_of(&report, code::TRANSIT_LOOP);
    assert!(matches!(
        w.hops.last().unwrap().kind,
        HopKind::Drop {
            reason: DropReason::OverlayLoop,
            ..
        }
    ));
    assert!(
        w.hops
            .iter()
            .any(|h| matches!(h.kind, HopKind::OverlayHop { .. })),
        "loop witness shows no overlay hops: {}",
        w.render()
    );
}

#[test]
fn dropped_delivery_rule_is_detected() {
    let d = deployed_domain();
    let mut snap = d.verify_snapshot();

    // Remove the overlay delivery rule from the receiving part: frames
    // arriving on the synthesized endpoint have nowhere to go, and the
    // original lan→wan path no longer exists in the installed state.
    let g = snap.graphs.first_mut().expect("a deployed graph");
    let link = g.links.first().expect("an overlay link").clone();
    let part = Arc::make_mut(&mut g.parts)
        .get_mut(&link.to_node)
        .expect("receiving part");
    let before = part.flow_rules.len();
    part.flow_rules.retain(|r| r.id != link.in_rule_id);
    assert!(part.flow_rules.len() < before, "delivery rule not found");

    let found = codes(&snap);
    assert!(
        found.contains(&code::BLACKHOLE),
        "orphaned overlay endpoint not flagged: {found:?}"
    );
    assert!(
        found.contains(&code::UNREACHABLE),
        "lost end-to-end path not flagged: {found:?}"
    );
}

#[test]
fn blackhole_and_unreachable_carry_drop_witnesses() {
    let d = deployed_domain();
    let mut snap = d.verify_snapshot();

    // Same corruption as above: remove the overlay delivery rule.
    let g = snap.graphs.first_mut().expect("a deployed graph");
    let link = g.links.first().expect("an overlay link").clone();
    let part = Arc::make_mut(&mut g.parts)
        .get_mut(&link.to_node)
        .expect("receiving part");
    part.flow_rules.retain(|r| r.id != link.in_rule_id);

    let report = run(&snap);

    // The blackhole counterexample crosses the wire and dies in the
    // destination's tables.
    let w = witness_of(&report, code::BLACKHOLE);
    assert!(matches!(
        w.hops.last().unwrap().kind,
        HopKind::Drop {
            reason: DropReason::TableMiss,
            ..
        }
    ));
    assert!(
        w.hops
            .iter()
            .any(|h| matches!(h.kind, HopKind::OverlayHop { vid, .. } if vid == link.vid)),
        "blackhole witness never crosses vid {}: {}",
        link.vid,
        w.render()
    );
    assert_eq!(w.hops.last().unwrap().node, link.to_node);

    // The unreachable counterexample walks the installed state as far
    // as any frame can get and dead-ends short of the egress.
    let w = witness_of(&report, code::UNREACHABLE);
    assert!(matches!(
        w.hops.last().unwrap().kind,
        HopKind::Drop {
            reason: DropReason::TableMiss,
            ..
        }
    ));
    assert!(matches!(
        w.hops.first().unwrap().kind,
        HopKind::Ingress { .. }
    ));
}

#[test]
fn phantom_reach_carries_egress_witness() {
    let d = deployed_domain();
    let mut snap = d.verify_snapshot();

    // Seed a hairpin in the installed state: traffic from lan turns
    // straight around and egresses at lan — a reach the tenant graph
    // never asked for.
    let g = snap.graphs.first_mut().expect("a deployed graph");
    let part = Arc::make_mut(&mut g.parts)
        .values_mut()
        .find(|p| p.endpoints.iter().any(|e| e.id == "lan"))
        .expect("the part carrying lan");
    part.flow_rules.push(FlowRule {
        id: "seeded-hairpin".to_string(),
        priority: 1,
        matches: TrafficMatch::from_port(PortRef::Endpoint("lan".to_string())),
        actions: vec![RuleAction::Output(PortRef::Endpoint("lan".to_string()))],
    });

    let report = run(&snap);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.code == code::PHANTOM_REACH),
        "seeded hairpin not flagged: {:?}",
        report.violations
    );

    // The counterexample is the concrete installed walk that makes it
    // out at the phantom egress.
    let w = witness_of(&report, code::PHANTOM_REACH);
    assert!(matches!(
        &w.hops.last().unwrap().kind,
        HopKind::Egress { port } if port == "ep:lan"
    ));
    assert!(matches!(
        w.hops.first().unwrap().kind,
        HopKind::Ingress { .. }
    ));
}
