use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_nffg::{NfFg, NfFgBuilder};
use un_obs::DropReason;
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;
use un_sim::SimTime;

use super::*;
use crate::topology::EdgeAttrs;
use crate::PlacementStrategy;

fn two_node_domain() -> Domain {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    d
}

fn split_bridge_chain() -> NfFg {
    // Two bridges so the chain can split lan→br1 | br2→wan.
    NfFgBuilder::new("g1", "split")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build()
}

fn split_hints() -> DeployHints {
    DeployHints {
        endpoint_node: BTreeMap::new(),
        nf_node: [
            ("br1".to_string(), "n1".to_string()),
            ("br2".to_string(), "n2".to_string()),
        ]
        .into(),
        strategy: Some(PlacementStrategy::Spread),
    }
}

fn frame() -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
        .udp(5000, 5001)
        .payload(&[0xAB; 64])
        .build()
}

#[test]
fn deploy_splits_across_two_nodes() {
    let mut d = two_node_domain();
    let report = d
        .deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    assert_eq!(report.per_node.len(), 2);
    assert_eq!(report.overlay_links, 2); // fwd + rev cut
    assert_eq!(d.node("n1").unwrap().graph_ids(), vec!["g1"]);
    assert_eq!(d.node("n2").unwrap().graph_ids(), vec!["g1"]);
    assert_eq!(d.assignment_of("g1").unwrap()["br1"], "n1");
    assert_eq!(d.assignment_of("g1").unwrap()["br2"], "n2");
}

#[test]
fn traffic_crosses_the_overlay_both_ways() {
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "trace: {:?}", io);
    let (node, port, _) = &io.emitted[0];
    assert_eq!((node.as_str(), port.as_str()), ("n2", "eth1"));
    assert_eq!(io.overlay_hops, 1);
    assert!(io.cost.as_nanos() > 0);

    // Reverse direction uses the other overlay link.
    let io = d.inject("n2", "eth1", frame());
    assert_eq!(io.emitted.len(), 1);
    let (node, port, _) = &io.emitted[0];
    assert_eq!((node.as_str(), port.as_str()), ("n1", "eth0"));
    assert_eq!(d.trace.counter("overlay_frames"), 2);
}

#[test]
#[should_panic(expected = "\"graphs_deploed\" is not a DomainCounters counter")]
fn a_misspelt_counter_read_panics() {
    two_node_domain().trace.counter("graphs_deploed");
}

#[test]
fn counter_names_are_disjoint_from_the_frame_ledgers() {
    // `render::metrics` merges an owner's counters and its ledger into
    // one map by name: a shared name would hide one of the two values.
    let mut terms = FrameLedger::default();
    (
        terms.ingress,
        terms.egress,
        terms.fanout_extra,
        terms.absorbed,
    ) = (1, 1, 1, 1);
    let drops = DropReason::ALL.map(DropReason::as_str);
    let ledger: BTreeSet<&str> = terms.counters().map(|(n, _)| n).chain(drops).collect();
    for name in DomainCounters::NAMES
        .iter()
        .chain(un_core::node::NodeCounters::NAMES)
    {
        assert!(!ledger.contains(name), "{name} is a ledger term too");
    }
}

#[test]
fn protected_overlay_verifies_frames_with_esp() {
    let mut d = Domain::new(DomainConfig {
        protect_overlay: true,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    let unprotected_cost = {
        let mut plain = two_node_domain();
        plain
            .deploy_with(&split_bridge_chain(), &split_hints())
            .unwrap();
        plain.inject("n1", "eth0", frame()).cost
    };
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
    assert!(io.protected_bytes > 0);
    assert!(
        io.cost > unprotected_cost,
        "ESP must charge crypto cost ({} <= {})",
        io.cost.as_nanos(),
        unprotected_cost.as_nanos()
    );
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayEspVerifyFail), 0);
}

#[test]
fn single_node_graph_needs_no_overlay() {
    let mut d = two_node_domain();
    let g = NfFgBuilder::new("solo", "local")
        .interface_endpoint("lan", "eth0")
        .nf("br", "bridge", 2)
        .rule_through("r1", 10, "lan", ("br", 0))
        .rule_through("r2", 10, ("br", 0), "lan")
        .build();
    let report = d.deploy(&g).unwrap();
    assert_eq!(report.per_node.len(), 1);
    assert_eq!(report.overlay_links, 0);
}

#[test]
fn undeploy_releases_links_and_parts() {
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    assert_eq!(d.link_reports().len(), 2);
    d.undeploy("g1").unwrap();
    assert!(d.link_reports().is_empty());
    assert!(d.node("n1").unwrap().graph_ids().is_empty());
    assert!(d.node("n2").unwrap().graph_ids().is_empty());
    // The freed VLAN ids are reused by the next deploy.
    let report = d
        .deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    assert_eq!(report.overlay_links, 2);
    assert!(d.link_reports().iter().all(|l| l.vid < 3002 + 2));
}

#[test]
fn node_failure_replaces_partition() {
    let mut d = two_node_domain();
    // n1 also exposes eth1 so the wan endpoint survives n2's death.
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    assert_eq!(d.assignment_of("g1").unwrap()["br2"], "n2");

    let report = d.fail_node("n2").unwrap();
    assert_eq!(report.replaced, vec!["g1".to_string()]);
    assert!(report.stranded.is_empty());
    // The repair was incremental: only the lost NF moved.
    assert_eq!(report.repairs.len(), 1);
    let repair = &report.repairs[0];
    assert_eq!(repair.graph, "g1");
    assert_eq!(repair.nfs_moved, 1, "only br2 was lost");
    assert_eq!(repair.nfs_preserved, 1, "br1 never moved");
    assert!(!repair.full_replace);
    // Everything now runs on n1, no overlay needed.
    let assignment = d.assignment_of("g1").unwrap();
    assert!(assignment.values().all(|n| n == "n1"));
    assert!(d.link_reports().is_empty());
    // End-to-end traffic still flows, wholly on n1.
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "n1");
    assert_eq!(io.emitted[0].1, "eth1");
    assert_eq!(io.overlay_hops, 0);
}

/// A 4-node chain: br1@n1, br2@n2, br3@n3, spare n4. Failing n3 must
/// move br3 only, and n1 — whose cut edges all connect to survivors —
/// must not see a single control-plane call: same instances, no
/// undeploy, no update, and its overlay VLAN ids intact.
#[test]
fn incremental_repair_leaves_unaffected_survivors_untouched() {
    let mut d = Domain::with_defaults();
    for (name, ports) in [
        ("n1", &["eth0"][..]),
        ("n2", &[][..]),
        ("n3", &["eth1"][..]),
        ("n4", &["eth1"][..]),
    ] {
        let mut n = UniversalNode::new(name, mb(2048));
        for p in ports {
            n.add_physical_port(p);
        }
        d.add_node(n);
    }
    let g = NfFgBuilder::new("g1", "chain3")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .nf("br3", "bridge", 2)
        .chain("lan", &["br1", "br2", "br3"], "wan")
        .build();
    let hints = DeployHints {
        nf_node: [
            ("br1".to_string(), "n1".to_string()),
            ("br2".to_string(), "n2".to_string()),
            ("br3".to_string(), "n3".to_string()),
        ]
        .into(),
        strategy: Some(PlacementStrategy::Spread),
        ..Default::default()
    };
    d.deploy_with(&g, &hints).unwrap();
    let vids_n1: Vec<u16> = d
        .link_reports()
        .iter()
        .filter(|l| l.from == "n1" || l.to == "n1")
        .map(|l| l.vid)
        .collect();
    let n1_instances = d.node("n1").unwrap().total_instances();
    let n2_instances = d.node("n2").unwrap().total_instances();

    let report = d.fail_node("n3").unwrap();
    let repair = &report.repairs[0];
    assert_eq!(repair.nfs_moved, 1, "only br3 lost: {repair:?}");
    assert_eq!(repair.nfs_preserved, 2);
    assert!(!repair.full_replace);
    let assignment = d.assignment_of("g1").unwrap();
    assert_eq!(assignment["br1"], "n1");
    assert_eq!(assignment["br2"], "n2");
    assert_ne!(assignment["br3"], "n3");

    // n1's part is byte-identical (its cut edges n1↔n2 kept their
    // vids), so the repair made *zero* calls into n1.
    let n1 = d.node("n1").unwrap();
    assert_eq!(n1.trace.counter("graphs_undeployed"), 0);
    assert_eq!(n1.trace.counter("graph_updates_structural"), 0);
    assert_eq!(n1.trace.counter("graph_updates_rules"), 0);
    assert_eq!(n1.total_instances(), n1_instances, "n1 NFs untouched");
    let vids_n1_after: Vec<u16> = d
        .link_reports()
        .iter()
        .filter(|l| l.from == "n1" || l.to == "n1")
        .map(|l| l.vid)
        .collect();
    assert_eq!(vids_n1, vids_n1_after, "n1 overlay vids stable");
    // n2 gained the cut edges to br3's new home but kept its instances
    // where the node-level reconcile allowed.
    assert!(repair.links_kept >= 2, "n1↔n2 wires survive: {repair:?}");
    let _ = n2_instances;

    // End-to-end traffic still flows through the repaired chain.
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
    assert_eq!(io.emitted[0].1, "eth1");
}

/// Fan-in repair: two source NFs on two *simultaneously* failing nodes
/// feed the same target port on a survivor. Each old cut edge offers
/// the survivor-side vid for inheritance under the same `(to, target)`
/// key — the second re-placed edge must take a fresh vid, not collide
/// (a collision duplicates the survivor's `ovl-<vid>` endpoint and
/// forces a from-scratch fallback).
#[test]
fn simultaneous_fan_in_failures_do_not_collide_overlay_vids() {
    let mut d = Domain::with_defaults();
    for (name, ports, mem) in [
        ("n1", &["eth0"][..], mb(256)),
        ("n2", &["eth2"][..], mb(256)),
        // Roomiest node: Pack prefers the fuller spares for the moved
        // sources, keeping the two fan-in edges on distinct nodes.
        ("n3", &["eth1"][..], mb(8192)),
        ("n4", &["eth0"][..], mb(256)),
        ("n5", &["eth2"][..], mb(256)),
    ] {
        let mut n = UniversalNode::new(name, mem);
        for p in ports {
            n.add_physical_port(p);
        }
        d.add_node(n);
    }
    let g = NfFgBuilder::new("fan", "fan-in")
        .interface_endpoint("lan1", "eth0")
        .interface_endpoint("lan2", "eth2")
        .interface_endpoint("wan", "eth1")
        .nf("s1", "bridge", 2)
        .nf("s2", "bridge", 2)
        .nf("d", "bridge", 2)
        .rule_through("a1", 10, "lan1", ("s1", 0))
        .rule_through("a2", 10, ("s1", 1), ("d", 0))
        .rule_through("b1", 10, "lan2", ("s2", 0))
        .rule_through("b2", 10, ("s2", 1), ("d", 0))
        .rule_through("out", 10, ("d", 1), "wan")
        .build();
    let hints = DeployHints {
        nf_node: [
            ("s1".to_string(), "n1".to_string()),
            ("s2".to_string(), "n2".to_string()),
            ("d".to_string(), "n3".to_string()),
        ]
        .into(),
        ..Default::default()
    };
    d.deploy_with(&g, &hints).unwrap();
    assert_eq!(d.link_reports().len(), 2, "two fan-in overlay wires");

    // n1 and n2 go silent together; one tick fails both before any
    // repair runs, so the repair sees both sources lost at once.
    let later = SimTime::from_nanos(d.config.heartbeat_timeout_ns + d.config.suspect_grace_ns + 1);
    for alive in ["n3", "n4", "n5"] {
        d.heartbeat(alive, later).unwrap();
    }
    let failed = d.tick(later);
    assert_eq!(failed.len(), 2);
    let repair = failed
        .iter()
        .flat_map(|(_, r)| r.repairs.iter())
        .find(|o| o.graph == "fan")
        .expect("fan repaired");
    assert!(
        !repair.full_replace,
        "incremental must survive the fan-in: {repair:?}"
    );
    assert_eq!(repair.nfs_moved, 2, "{repair:?}");

    // The two re-placed wires carry distinct vids into n3 and traffic
    // from both ingress sides still reaches the wan.
    let assignment = d.assignment_of("fan").unwrap();
    assert_ne!(assignment["s1"], assignment["s2"], "{assignment:?}");
    let into_n3: Vec<u16> = d
        .link_reports()
        .iter()
        .filter(|l| l.to == "n3")
        .map(|l| l.vid)
        .collect();
    assert_eq!(into_n3.len(), 2, "{:?}", d.link_reports());
    let s1_node = assignment["s1"].clone();
    let s2_node = assignment["s2"].clone();
    let io = d.inject(&s1_node, "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "lan1 side must forward");
    assert_eq!(io.emitted[0].1, "eth1");
    let io = d.inject(&s2_node, "eth2", frame());
    assert_eq!(io.emitted.len(), 1, "lan2 side must forward");
}

/// fail → recover → fail again: the recovered carcass must shed its
/// stale partitions (capacity release) so later repairs can land work
/// on it without graph-id collisions.
#[test]
fn fail_recover_fail_cycles_cleanly() {
    let mut d = two_node_domain();
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    d.node_mut("n2").unwrap().add_physical_port("eth0");
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    // First failure: everything consolidates on n1.
    d.fail_node("n2").unwrap();
    assert!(d.assignment_of("g1").unwrap().values().all(|n| n == "n1"));
    // Double-fail is a no-op.
    let again = d.fail_node("n2").unwrap();
    assert!(again.replaced.is_empty() && again.stranded.is_empty());

    // Recover n2: its stale g1 part is purged, memory released.
    let retried = d.recover_node("n2").unwrap();
    assert!(retried.is_empty());
    assert_eq!(d.health("n2"), Some(NodeHealth::Alive));
    assert!(d.node("n2").unwrap().graph_ids().is_empty());
    assert_eq!(d.node("n2").unwrap().memory_used(), 0);
    assert_eq!(d.trace.counter("nodes_recovered"), 1);
    assert_eq!(d.trace.counter("recover_purged_graphs"), 1);

    // Now fail n1: the graph must land cleanly on the recovered n2
    // (a stale part would collide with AlreadyDeployed here).
    let report = d.fail_node("n1").unwrap();
    assert_eq!(report.replaced, vec!["g1".to_string()]);
    assert!(d.assignment_of("g1").unwrap().values().all(|n| n == "n2"));
    let io = d.inject("n2", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);

    // recover on alive / unknown nodes behaves.
    assert!(d.recover_node("n2").unwrap().is_empty());
    assert!(matches!(
        d.recover_node("ghost"),
        Err(DomainError::NoSuchNode(_))
    ));
}

/// The from-scratch policy (the baseline) still repairs correctly and
/// reports itself as a full replace.
#[test]
fn from_scratch_policy_repairs_with_full_replace() {
    let mut d = Domain::new(DomainConfig {
        repair: RepairPolicy::FromScratch,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth1");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    let report = d.fail_node("n2").unwrap();
    assert_eq!(report.replaced, vec!["g1".to_string()]);
    assert!(report.repairs[0].full_replace);
    assert_eq!(d.trace.counter("repairs_full"), 1);
    assert_eq!(d.trace.counter("repairs_incremental"), 0);
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
}

#[test]
fn failure_without_capacity_strands_then_recovers() {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth1");
    d.add_node(n1);
    d.deploy(&split_bridge_chain()).unwrap();

    let report = d.fail_node("n1").unwrap();
    assert_eq!(report.stranded, vec!["g1".to_string()]);
    assert!(d.graph_ids().is_empty());
    assert_eq!(d.pending_graphs(), vec!["g1".to_string()]);

    // Capacity returns: a fresh node with the needed interfaces.
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth0");
    n2.add_physical_port("eth1");
    d.add_node(n2);
    assert_eq!(d.retry_pending(), vec!["g1".to_string()]);
    assert!(d.pending_graphs().is_empty());
    let io = d.inject("n2", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
}

#[test]
fn explicit_redeploy_supersedes_pending_copy() {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth1");
    d.add_node(n1);
    d.deploy(&split_bridge_chain()).unwrap();
    d.fail_node("n1").unwrap();
    assert_eq!(d.pending_graphs(), vec!["g1".to_string()]);

    // The operator re-deploys g1 on fresh capacity: the parked copy
    // must be dropped, and a later retry must not double-deploy.
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth0");
    n2.add_physical_port("eth1");
    d.add_node(n2);
    d.deploy(&split_bridge_chain()).unwrap();
    assert!(d.pending_graphs().is_empty());
    assert!(d.retry_pending().is_empty());
    assert_eq!(d.link_reports().len(), 0, "single-node redeploy, no links");

    // And an undeployed graph never resurrects from pending.
    d.fail_node("n2").unwrap();
    assert_eq!(d.pending_graphs(), vec!["g1".to_string()]);
    d.undeploy("g1").unwrap();
    let mut n3 = UniversalNode::new("n3", mb(2048));
    n3.add_physical_port("eth0");
    n3.add_physical_port("eth1");
    d.add_node(n3);
    assert!(d.retry_pending().is_empty());
    assert!(d.graph_ids().is_empty());
}

#[test]
fn undeploying_a_parked_graph_closes_its_park_window() {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth1");
    d.add_node(n1);
    d.deploy(&split_bridge_chain()).unwrap();
    d.fail_node("n1").unwrap();
    assert_eq!(d.pending_graphs(), vec!["g1".to_string()]);
    assert!(d.parked_at.contains_key("g1"));

    // The operator gives the parked graph up: same tail as undeploying
    // a live one — counted, and the park window ends without a drain.
    d.undeploy("g1").unwrap();
    assert!(d.pending_graphs().is_empty());
    assert!(d.parked_at.is_empty(), "park window left open");
    assert_eq!(d.trace.counter("graphs_undeployed"), 1);
    assert_eq!(d.undeploy("g1"), Err(DomainError::NoSuchGraph("g1".into())));

    // Nothing later drains a window that no longer exists.
    assert!(d.recover_node("n1").unwrap().is_empty());
    d.deploy(&split_bridge_chain()).unwrap();
    assert_eq!(d.trace.counter("park_drains"), 0);
    assert_eq!(d.graph_availability("g1").unwrap().park_downtime_ns, 0);
}

#[test]
fn failed_node_may_rejoin_alive_duplicate_panics() {
    let mut d = two_node_domain();
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    d.fail_node("n2").unwrap();

    // Rejoin under the failed name: clean slate, counted as a rejoin.
    let mut again = UniversalNode::new("n2", mb(2048));
    again.add_physical_port("eth1");
    d.add_node(again);
    assert_eq!(d.health("n2"), Some(NodeHealth::Alive));
    assert_eq!(d.trace.counter("nodes_rejoined"), 1);

    // Registering over an *alive* node is a programming error.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        d.add_node(UniversalNode::new("n1", mb(64)));
    }));
    assert!(result.is_err(), "duplicate alive registration must panic");
}

/// A rejoin replaces the carcass, and the carcass's share of the
/// conservation ledger must not leave with it.
#[test]
fn a_rejoin_carries_the_carcass_ledger() {
    let node = || {
        let mut n = UniversalNode::new("n1", mb(2048));
        for port in ["eth0", "eth1", "eth2", "eth3"] {
            n.add_physical_port(port);
        }
        n
    };
    let mut d = Domain::with_defaults();
    d.add_node(node());
    // A three-port bridge floods an unknown destination out of both
    // wan ports: one frame in, two out.
    let flood = NfFgBuilder::new("g1", "flood")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan1", "eth1")
        .interface_endpoint("wan2", "eth2")
        .nf("dup", "bridge", 3)
        .rule_through("in", 10, "lan", ("dup", 0))
        .rule_through("out1", 10, ("dup", 1), "wan1")
        .rule_through("out2", 10, ("dup", 2), "wan2")
        .build();
    d.deploy(&flood).unwrap();
    let send = |d: &mut Domain| {
        assert_eq!(d.inject("n1", "eth0", frame()).emitted.len(), 2);
        // No graph owns eth3: LSI-0 misses and absorbs the frame.
        assert!(d.inject("n1", "eth3", frame()).emitted.is_empty());
        // No such port: a drop the node books.
        assert!(d.inject("n1", "eth9", frame()).emitted.is_empty());
    };
    send(&mut d);
    let carcass = *d.node("n1").unwrap().frame_ledger();
    assert_eq!(carcass.fanout_extra, 1);
    assert_eq!(carcass.absorbed, 1);
    assert_eq!(carcass.drops(DropReason::InjectUnknownPort), 1);

    d.fail_node("n1").unwrap();
    let before = d.conservation_report();
    assert!(before.balanced(), "{before:?}");
    d.add_node(node());
    assert_eq!(
        *d.node("n1").unwrap().frame_ledger(),
        FrameLedger::default()
    );
    assert_eq!(
        d.conservation_report(),
        before,
        "the rejoin moved the ledger"
    );

    d.deploy(&flood).unwrap();
    send(&mut d);
    let after = d.conservation_report();
    assert!(after.balanced(), "{after:?}");
    assert_eq!(after.ingress, 2 * before.ingress);
    assert_eq!(after.fanout_extra, 2 * before.fanout_extra);
}

#[test]
fn heartbeat_timeout_suspects_then_fails() {
    let mut d = two_node_domain();
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    // n1 heartbeats; n2 goes silent past the timeout — that only makes
    // it *suspect*: it keeps its partition and no repair runs yet.
    let later = SimTime::from_nanos(d.config.heartbeat_timeout_ns + 1);
    d.heartbeat("n1", later).unwrap();
    let failed = d.tick(later);
    assert!(failed.is_empty(), "suspects are not failures");
    assert_eq!(d.health("n2"), Some(NodeHealth::Suspect));
    assert_eq!(d.suspect_nodes(), vec!["n2".to_string()]);
    assert_eq!(d.assignment_of("g1").unwrap()["br2"], "n2");
    // A suspect node still forwards traffic.
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);

    // The grace window expires: now it fails and the repair runs.
    let expiry = SimTime::from_nanos(d.config.heartbeat_timeout_ns + d.config.suspect_grace_ns + 2);
    d.heartbeat("n1", expiry).unwrap();
    let failed = d.tick(expiry);
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, "n2");
    assert_eq!(d.health("n2"), Some(NodeHealth::Failed));
    assert_eq!(d.health("n1"), Some(NodeHealth::Alive));
    assert_eq!(failed[0].1.replaced, vec!["g1".to_string()]);
    // Repeated ticks are idempotent: the failure is never re-reported
    // and the repair never re-runs (n1 keeps heartbeating).
    let much_later = SimTime::from_nanos(expiry.as_nanos() * 3);
    d.heartbeat("n1", much_later).unwrap();
    assert!(d.tick(expiry).is_empty());
    assert!(d.tick(much_later).is_empty());
    assert_eq!(d.trace.counter("graphs_replaced"), 1);
    assert_eq!(d.trace.counter("nodes_failed"), 1);
}

#[test]
fn late_heartbeat_cancels_pending_repair() {
    let mut d = two_node_domain();
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    let later = SimTime::from_nanos(d.config.heartbeat_timeout_ns + 1);
    d.heartbeat("n1", later).unwrap();
    d.tick(later);
    assert_eq!(d.health("n2"), Some(NodeHealth::Suspect));

    // The slow node's heartbeat arrives inside the grace window: the
    // pending repair is cancelled — nothing ever moved.
    let in_grace = SimTime::from_nanos(later.as_nanos() + d.config.suspect_grace_ns / 2);
    d.heartbeat("n2", in_grace).unwrap();
    assert_eq!(d.health("n2"), Some(NodeHealth::Alive));
    assert_eq!(d.trace.counter("suspects_cleared"), 1);
    d.heartbeat("n1", in_grace).unwrap();
    assert!(d.tick(in_grace).is_empty());
    assert_eq!(d.trace.counter("graphs_replaced"), 0);
    assert_eq!(d.trace.counter("nodes_failed"), 0);
    assert_eq!(d.assignment_of("g1").unwrap()["br2"], "n2");
}

#[test]
fn rule_update_rewires_overlay() {
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    let links_before = d.link_reports().len();

    // Drop the reverse path: rules now only flow lan→wan.
    let mut g = split_bridge_chain();
    g.flow_rules.retain(|r| r.id.ends_with("-fwd"));
    let report = d.update(&g).unwrap();
    assert_eq!(report.overlay_links, 1);
    assert!(report.overlay_links < links_before);
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
}

#[test]
fn rule_only_update_applies_in_place() {
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    let vids_before: Vec<u16> = d.link_reports().iter().map(|l| l.vid).collect();

    // Tweak one rule's priority: topology (NFs, endpoints, cut edges)
    // is unchanged, so the node holding the rule takes the update
    // rule-level — no instance teardown, and the overlay keeps its
    // VLAN ids — and the node whose part did not change takes no call.
    let mut g = split_bridge_chain();
    assert_eq!(g.flow_rules[0].id, "c0-fwd", "the lan→br1 rule: n1 only");
    g.flow_rules[0].priority = 42;
    d.update(&g).unwrap();

    for (node, rule_updates) in [("n1", 1), ("n2", 0)] {
        let n = d.node(node).unwrap();
        assert_eq!(
            n.trace.counter("graph_updates_structural"),
            0,
            "{node} redeployed structurally for a rule tweak"
        );
        assert_eq!(n.trace.counter("graphs_undeployed"), 0);
        assert_eq!(n.trace.counter("graph_updates_rules"), rule_updates);
    }
    let vids_after: Vec<u16> = d.link_reports().iter().map(|l| l.vid).collect();
    assert_eq!(vids_before, vids_after, "overlay VLAN ids must be stable");
    // And traffic still flows end-to-end.
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
}

/// The link-state twin of the test above: a wire the update keeps is
/// the *same* wire — its counters continue and its SAs (sequence
/// numbers, replay window) carry on — exactly as across a repair.
#[test]
fn rule_only_update_keeps_esp_link_state() {
    let mut d = Domain::new(DomainConfig {
        protect_overlay: true,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    for _ in 0..3 {
        assert_eq!(d.inject("n1", "eth0", frame()).emitted.len(), 1);
    }
    let totals = |d: &Domain| -> Vec<(u16, u64, u64)> {
        d.link_reports()
            .iter()
            .map(|l| (l.vid, l.packets, l.bytes))
            .collect()
    };
    let before = totals(&d);
    assert_eq!(before.iter().map(|(_, p, _)| p).sum::<u64>(), 3);

    let mut g = split_bridge_chain();
    g.flow_rules[0].priority = 42;
    d.update(&g).unwrap();
    assert_eq!(totals(&d), before, "a kept wire keeps its totals");

    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
    assert!(io.protected_bytes > 0);
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayEspVerifyFail), 0);
    assert_eq!(totals(&d).iter().map(|(_, p, _)| p).sum::<u64>(), 4);
}

#[test]
fn tick_with_correlated_failures_never_places_on_a_stale_node() {
    let mut d = two_node_domain();
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    // A third node that also survives nothing — only n3 stays alive.
    let mut n3 = UniversalNode::new("n3", mb(2048));
    n3.add_physical_port("eth0");
    n3.add_physical_port("eth1");
    d.add_node(n3);
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    // n1 and n2 both go silent; only n3 heartbeats. One giant staleness
    // jump skips the suspect window entirely (too stale even for the
    // grace), so a single tick fails both.
    let later = SimTime::from_nanos(d.config.heartbeat_timeout_ns + d.config.suspect_grace_ns + 1);
    d.heartbeat("n3", later).unwrap();
    let failed = d.tick(later);
    assert_eq!(failed.len(), 2);
    // The graph was re-placed exactly once, straight onto n3 — never
    // bounced through the other stale node.
    assert_eq!(d.trace.counter("graphs_replaced"), 1);
    assert_eq!(d.trace.counter("graphs_stranded"), 0);
    let assignment = d.assignment_of("g1").unwrap();
    assert!(assignment.values().all(|n| n == "n3"), "{assignment:?}");
    let io = d.inject("n3", "eth0", frame());
    assert_eq!(io.emitted.len(), 1);
}

#[test]
fn structural_update_moves_nfs() {
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();

    // Insert a third NF; surviving NFs must stay put.
    let g = NfFgBuilder::new("g1", "longer")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("mid", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "mid", "br2"], "wan")
        .build();
    d.update(&g).unwrap();
    let assignment = d.assignment_of("g1").unwrap();
    assert_eq!(assignment["br1"], "n1");
    assert_eq!(assignment["br2"], "n2");
    assert!(assignment.contains_key("mid"));
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "3-NF chain must still forward");
}

#[test]
fn rejects_bad_requests() {
    let mut d = two_node_domain();
    let g = split_bridge_chain();
    d.deploy_with(&g, &split_hints()).unwrap();
    assert!(matches!(d.deploy(&g), Err(DomainError::AlreadyDeployed(_))));
    assert!(matches!(
        d.undeploy("ghost"),
        Err(DomainError::NoSuchGraph(_))
    ));
    assert!(matches!(
        d.update(
            &NfFgBuilder::new("ghost", "x")
                .interface_endpoint("e", "eth0")
                .build()
        ),
        Err(DomainError::NoSuchGraph(_))
    ));
    let mut invalid = split_bridge_chain();
    invalid.id = "g2".into();
    invalid.flow_rules[0].matches.port_in = None;
    assert!(matches!(d.deploy(&invalid), Err(DomainError::Invalid(_))));
    assert!(matches!(
        d.fail_node("ghost"),
        Err(DomainError::NoSuchNode(_))
    ));
}

#[test]
fn large_bursts_are_not_spuriously_dropped_as_loops() {
    // The pre-batch shuttle had a flat budget of 64 hops shared by the
    // whole cascade — a 200-frame burst would have been culled. The TTL
    // is per injected frame now, so every frame of the burst crosses.
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    let ingress: Vec<(String, String, un_packet::Packet)> = (0..200)
        .map(|_| ("n1".to_string(), "eth0".to_string(), frame()))
        .collect();
    let io = d.inject_batch(ingress, 1);
    assert_eq!(io.emitted.len(), 200, "whole burst must forward");
    assert_eq!(io.overlay_hops, 200);
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayLoop), 0);
    assert_eq!(d.trace.counter("overlay_frames"), 200);
}

#[test]
fn overlay_ttl_exhaustion_is_counted_per_frame() {
    let ttl_domain = |ttl: u32| {
        let mut d = Domain::new(DomainConfig {
            overlay_ttl: ttl,
            ..DomainConfig::default()
        });
        let mut n1 = UniversalNode::new("n1", mb(2048));
        n1.add_physical_port("eth0");
        let mut n2 = UniversalNode::new("n2", mb(2048));
        n2.add_physical_port("eth1");
        d.add_node(n1);
        d.add_node(n2);
        d
    };
    // overlay_ttl counts crossings exactly: the standard split needs
    // one crossing, so ttl = 1 suffices.
    let mut d = ttl_domain(1);
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "one crossing fits in ttl = 1");
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayLoop), 0);

    // Reversed placement (br1 on n2, br2 on n1) needs three crossings:
    // the frame dies mid-path and the drop is visible as a counter.
    let mut d = ttl_domain(1);
    let reversed = DeployHints {
        nf_node: [
            ("br1".to_string(), "n2".to_string()),
            ("br2".to_string(), "n1".to_string()),
        ]
        .into(),
        strategy: Some(PlacementStrategy::Spread),
        ..Default::default()
    };
    d.deploy_with(&split_bridge_chain(), &reversed).unwrap();
    let io = d.inject("n1", "eth0", frame());
    assert!(io.emitted.is_empty(), "frame must die mid-path");
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayLoop), 1);
    // ttl = 3 lets the same path complete.
    let mut d = ttl_domain(3);
    d.deploy_with(&split_bridge_chain(), &reversed).unwrap();
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "three crossings fit in ttl = 3");
    assert_eq!(io.overlay_hops, 3);
}

/// The drain is a function of the domain and the burst: two fresh
/// twins emit the same frames in the same **order**, book the same
/// wire counters, cost and hop count, and agree again on a second
/// burst riding the state the first one left behind.
#[test]
fn a_burst_drains_in_one_order() {
    // Frame i carries i in its payload, so emission order is visible.
    let ingress = |n: usize| -> Vec<(String, String, un_packet::Packet)> {
        (0..n)
            .map(|i| {
                let pkt = PacketBuilder::new()
                    .ethernet(MacAddr::local(1), MacAddr::local(2))
                    .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
                    .udp(5000, 5001)
                    .payload(&[i as u8; 64])
                    .build();
                ("n1".to_string(), "eth0".to_string(), pkt)
            })
            .collect()
    };
    let in_ingress_order = |emitted: &[(String, String, Vec<u8>)]| {
        let tags = emitted.iter().map(|(_, _, bytes)| bytes[bytes.len() - 1]);
        tags.eq(0..emitted.len() as u8)
    };
    // Everything the drain decides: egress in emission order, per-link
    // wire counters, cost, hop count — and the ledger must balance.
    type Digest = (
        Vec<(String, String, Vec<u8>)>,
        Vec<(u16, u64, u64)>,
        Cost,
        u32,
    );
    let digest = |d: &Domain, io: &DomainIo| -> Digest {
        let emitted = io
            .emitted
            .iter()
            .map(|(n, p, pkt)| (n.to_string(), p.to_string(), pkt.data().to_vec()))
            .collect();
        let links = d
            .link_reports()
            .into_iter()
            .map(|l| (l.vid, l.packets, l.bytes))
            .collect();
        let ledger = d.conservation_report();
        assert!(ledger.balanced(), "{ledger:?}");
        (emitted, links, io.cost, io.overlay_hops)
    };
    // Two bursts on each of two fresh twins of `build()`; returns the
    // twins' common digests.
    let twins = |build: &dyn Fn() -> Domain, first: usize, second: usize| -> (Digest, Digest) {
        let (mut a, mut b) = (build(), build());
        let io = a.inject_batch(ingress(first), 1);
        let a_first = digest(&a, &io);
        let io = b.inject_batch(ingress(first), 1);
        assert_eq!(digest(&b, &io), a_first, "first burst, twin b");
        let io = a.inject_batch(ingress(second), 1);
        let a_second = digest(&a, &io);
        let io = b.inject_batch(ingress(second), 1);
        assert_eq!(digest(&b, &io), a_second, "second burst, twin b");
        (a_first, a_second)
    };

    let split = || {
        let mut d = two_node_domain();
        d.node_mut("n1").unwrap().add_physical_port("eth1");
        d.deploy_with(&split_bridge_chain(), &split_hints())
            .unwrap();
        d
    };
    let (first, second) = twins(&split, 64, 64);
    assert_eq!(first.0.len(), 64);
    assert!(in_ingress_order(&first.0), "one path: first in, first out");
    assert_eq!(first.3, 128, "out to br2 on n2, back to eth1 on n1");
    // The repeat emits the same frames in the same order over the same
    // hops; only caches (cost) and wire counters have moved on.
    assert_eq!((&first.0, first.3), (&second.0, second.3));

    // A burst that touches every node: an 8-node line with the chain's
    // two halves at its ends, so both overlay links transit n2..n7.
    let names: Vec<String> = (1..=8).map(|i| format!("n{i}")).collect();
    let line = || {
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut d = Domain::new(DomainConfig {
            topology: Topology::line(&refs, EdgeAttrs::default()),
            ..DomainConfig::default()
        });
        for name in &names {
            let mut n = UniversalNode::new(name, mb(2048));
            match name.as_str() {
                "n1" => n.add_physical_port("eth0"),
                "n8" => n.add_physical_port("eth1"),
                _ => n.add_physical_port("eth2"),
            };
            d.add_node(n);
        }
        let ends = DeployHints {
            nf_node: [
                ("br1".to_string(), "n1".to_string()),
                ("br2".to_string(), "n8".to_string()),
            ]
            .into(),
            ..DeployHints::default()
        };
        d.deploy_with(&split_bridge_chain(), &ends).unwrap();
        d
    };
    let (first, second) = twins(&line, 48, 16);
    assert_eq!(first.0.len(), 48, "the line forwards the whole burst");
    assert!(in_ingress_order(&first.0), "one path: first in, first out");
    assert_eq!(first.3, 48 * 7, "every frame crosses all 7 hops");
    // The repeat is a prefix of the first burst, and emits as one.
    assert_eq!(second.0[..], first.0[..16]);
    assert_eq!(second.3, 16 * 7);
}

#[test]
fn batch_ingress_to_unknown_and_dead_nodes_is_counted() {
    let mut d = two_node_domain();
    d.node_mut("n1").unwrap().add_physical_port("eth1");
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    d.fail_node("n2").unwrap();
    let io = d.inject_batch(
        vec![
            ("ghost".to_string(), "eth0".to_string(), frame()),
            ("n2".to_string(), "eth1".to_string(), frame()),
        ],
        1,
    );
    assert!(io.emitted.is_empty());
    assert_eq!(d.frame_ledger().drops(DropReason::InjectUnknownNode), 1);
    assert_eq!(d.frame_ledger().drops(DropReason::InjectDeadNode), 1);
    // A fully mis-addressed burst seeds nothing and drains nothing.
    let io = d.inject_batch(vec![("ghost", "eth0", frame())], 4);
    assert!(io.emitted.is_empty());
    assert_eq!(d.frame_ledger().drops(DropReason::InjectUnknownNode), 2);
    assert!(d.conservation_report().balanced());
}

/// A line fleet `n1 – n2 – n3`: eth0 on n1, eth1 on n3, chain split
/// br1@n1 / br2@n3, so both overlay links must transit n2.
fn line_domain(protect_overlay: bool) -> Domain {
    let mut d = Domain::new(DomainConfig {
        topology: Topology::line(&["n1", "n2", "n3"], EdgeAttrs::default()),
        protect_overlay,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let n2 = UniversalNode::new("n2", mb(2048));
    let mut n3 = UniversalNode::new("n3", mb(2048));
    n3.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    d.add_node(n3);
    d
}

fn far_hints() -> DeployHints {
    DeployHints {
        nf_node: [
            ("br1".to_string(), "n1".to_string()),
            ("br2".to_string(), "n3".to_string()),
        ]
        .into(),
        ..DeployHints::default()
    }
}

#[test]
fn line_topology_routes_cut_edge_through_transit_node() {
    let mut d = line_domain(false);
    let report = d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    assert_eq!(report.overlay_links, 2, "fwd + rev cut");
    // n2 hosts a transit-only part: no NFs, one endpoint + one
    // forwarding rule per link riding through it.
    let part = &d.partition_of("g1").unwrap().parts["n2"];
    assert!(part.nfs.is_empty(), "transit part must host no NFs");
    assert_eq!(part.endpoints.len(), 2);
    assert_eq!(part.flow_rules.len(), 2);
    assert!(part.flow_rules.iter().all(|r| r.id.ends_with("-transit")));
    assert!(d
        .node("n2")
        .unwrap()
        .graph_ids()
        .contains(&"g1".to_string()));
    // Both links are pinned to the 3-node path.
    for l in d.link_reports() {
        assert_eq!(l.path.len(), 3, "{:?}", l.path);
        assert_eq!(l.path[1], "n2");
    }

    // Traffic crosses two fabric hops per direction and still egresses
    // at the far end; the wire counters count the logical frame at
    // *every* hop of the pinned path, with a per-hop breakdown.
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
    assert_eq!(io.emitted[0].0, "n3");
    assert_eq!(io.emitted[0].1, "eth1");
    assert_eq!(io.overlay_hops, 2, "n1→n2 and n2→n3");
    let fwd = d
        .link_reports()
        .into_iter()
        .find(|l| l.from == "n1")
        .unwrap();
    assert_eq!(fwd.packets, 2, "one frame counted at each of the two hops");
    assert_eq!(fwd.path, vec!["n1", "n2", "n3"]);
    assert_eq!(fwd.hop_packets, vec![1, 1], "each hop saw the frame once");
    assert_eq!(fwd.hop_bytes.iter().sum::<u64>(), fwd.bytes);
    // Reverse direction works symmetrically.
    let io = d.inject("n3", "eth1", frame());
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "n1");
    assert_eq!(io.overlay_hops, 2);
}

/// Transit routes, never rewrites: on one fleet (leaves `n1..n4`, two
/// spines where the fabric has them) every multi-hop fabric — line,
/// ring, fat-tree — hands out byte-identical egress to the full-mesh
/// baseline for a 64-frame burst, and the path stretch is visible in
/// the hop count.
#[test]
fn multi_hop_egress_matches_full_mesh_egress() {
    let leaves = ["n1", "n2", "n3", "n4"];
    let leaf = EdgeAttrs::default();
    let mut fat_tree = Topology::explicit();
    for l in leaves {
        for s in ["s1", "s2"] {
            let spine = EdgeAttrs {
                latency_ns: 2_000,
                ..leaf
            };
            fat_tree.add_edge(l, s, spine);
        }
    }
    // → (sorted egress multiset, Σ path hops, transit-only parts,
    //    overlay crossings of the burst)
    let run = |topology: Topology, spines: &[&str]| {
        let mut d = Domain::new(DomainConfig {
            topology,
            ..DomainConfig::default()
        });
        for name in leaves.iter().chain(spines) {
            let mut n = UniversalNode::new(name, mb(2048));
            if *name == "n1" {
                n.add_physical_port("eth0");
            }
            if *name == "n3" {
                n.add_physical_port("eth1");
            }
            d.add_node(n);
        }
        d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
        let burst = (0..64u32).map(|seq| {
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
                .udp(5000, 5001)
                .payload(&seq.to_be_bytes())
                .build();
            ("n1", "eth0", pkt)
        });
        let io = d.inject_batch(burst, 1);
        let mut egress: Vec<(String, String, Vec<u8>)> = io
            .emitted
            .iter()
            .map(|(n, p, pkt)| (n.to_string(), p.to_string(), pkt.data().to_vec()))
            .collect();
        egress.sort();
        assert_eq!(egress.len(), 64, "every frame must egress");
        let path_hops: usize = d.link_reports().iter().map(|l| l.path.len() - 1).sum();
        let transit_parts = d.partition_of("g1").unwrap().parts.values();
        let transit_parts = transit_parts
            .filter(|p| p.nfs.is_empty() && p.endpoints.iter().all(|e| e.id.starts_with("ovl-")))
            .count();
        (egress, path_hops, transit_parts, io.overlay_hops)
    };

    let mesh = run(Topology::full_mesh(), &[]);
    assert_eq!(
        (mesh.1, mesh.2),
        (2, 0),
        "mesh: two direct links, no transit"
    );
    for (name, topology, spines) in [
        ("line", Topology::line(&leaves, leaf), &[][..]),
        ("ring", Topology::ring(&leaves, leaf), &[][..]),
        ("fat-tree", fat_tree, &["s1", "s2"][..]),
    ] {
        let multi = run(topology, spines);
        assert_eq!(multi.0, mesh.0, "{name}: transit must not alter egress");
        assert!(multi.1 > mesh.1 && multi.2 > 0, "{name}: paths transit");
        assert!(multi.3 > mesh.3, "{name}: path stretch is visible");
    }
}

/// A frame whose 64-byte payload is a pattern no cipher output will
/// repeat by chance, `tag` in its first byte.
fn patterned_frame(tag: u8) -> un_packet::Packet {
    let mut payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    payload[0] = tag;
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
        .udp(5000, 5001)
        .payload(&payload)
        .build()
}

/// The bytes n2's own switch hands out of a tap port once its transit
/// rule for the forward link is re-pointed there: what n2's fabric port
/// received, as n2 sees it.
fn tap_transit_at_n2(d: &mut Domain, frames: u8) -> Vec<Vec<u8>> {
    let fwd = d.link_reports().into_iter().find(|l| l.from == "n1");
    let vid = fwd.expect("a forward link").vid;
    let mut part = d.partition_of("g1").unwrap().parts["n2"].clone();
    part.endpoints.push(un_nffg::Endpoint {
        id: "tap".to_string(),
        kind: un_nffg::EndpointKind::Interface {
            if_name: "tap0".to_string(),
        },
    });
    let transit = format!("ovl-{vid}-transit");
    let transit = part.flow_rules.iter_mut().find(|r| r.id == transit);
    transit.expect("n2 transits the forward link").actions = vec![un_nffg::RuleAction::Output(
        un_nffg::PortRef::Endpoint("tap".to_string()),
    )];
    let n2 = d.node_mut("n2").unwrap();
    n2.add_physical_port("tap0");
    n2.update(&part).unwrap();
    let tapped = (0..frames).flat_map(|i| d.inject("n1", "eth0", patterned_frame(i)).emitted);
    tapped
        .map(|(node, port, pkt)| {
            assert_eq!((node.as_str(), port.as_str()), ("n2", "tap0"));
            pkt.data().to_vec()
        })
        .collect()
}

/// End-to-end SAs on the 2-hop line n1–n2–n3: k frames cost k seals and
/// k opens whatever the hop count, every hop carries the sealed length,
/// and the transit node never holds a window of the tenant's payload.
#[test]
fn a_protected_link_seals_once_and_transit_carries_ciphertext() {
    const K: u64 = 5;
    let mut d = line_domain(true);
    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    // The fabric-tagged frame n1 emits is the tenant's plus one tag; at
    // this length ESP pads nothing.
    let inner = patterned_frame(0).len() as u64 + 4;
    assert_eq!((inner + 2) % 4, 0);
    let sealed = inner + crate::wire::OVERHEAD as u64;
    for i in 0..K {
        let io = d.inject("n1", "eth0", patterned_frame(i as u8));
        assert_eq!(io.emitted.len(), 1);
        assert_eq!(io.emitted[0].2, patterned_frame(i as u8), "opened intact");
        assert_eq!(io.overlay_hops, 2);
        assert_eq!(io.protected_bytes, inner, "inner bytes, sealed once");
    }
    let fwd = d.link_reports().into_iter().find(|l| l.from == "n1");
    let fwd = fwd.expect("a forward link");
    assert_eq!(fwd.path, ["n1", "n2", "n3"]);
    assert_eq!(fwd.hop_packets, [K, K]);
    assert_eq!(
        fwd.hop_bytes,
        [K * sealed, K * sealed],
        "ciphertext on both"
    );
    assert_eq!((fwd.packets, fwd.bytes), (2 * K, 2 * K * sealed));
    let (sa_out, sa_in) = &**d.links[&fwd.vid].sas.as_ref().expect("protected");
    assert_eq!((sa_out.packets, sa_in.packets), (K, K));
    assert_eq!((sa_out.bytes, sa_in.bytes), (K * inner, K * inner));
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayEspVerifyFail), 0);
    assert!(d.conservation_report().balanced());

    // A ghost probe seals at n1 and opens at n3 like any frame, on
    // cloned SAs: it egresses, and the live wire's state stays put.
    let probe = d.trace_frame("n1", "eth0", patterned_frame(0));
    assert!(probe.drops().is_empty(), "{}", probe.render());
    let last = probe.hops.last().expect("a walk");
    assert_eq!(last.node, "n3", "{}", probe.render());
    assert!(matches!(&last.kind, un_obs::HopKind::Egress { port } if port == "eth1"));
    let (sa_out, sa_in) = &**d.links[&fwd.vid].sas.as_ref().expect("protected");
    assert_eq!((sa_out.seq_out, sa_in.packets), (K as u32, K));
    let fwd_now = d.link_reports().into_iter().find(|l| l.vid == fwd.vid);
    assert_eq!(fwd_now.expect("still up").hop_packets, [K, K]);

    // Observed at n2, not inferred: the tap sees frames of the sealed
    // length without one 16-byte window of the payload. The same tap
    // on an unprotected twin sees the payload whole, so it does observe.
    let tapped = tap_transit_at_n2(&mut d, 3);
    assert_eq!(tapped.len(), 3);
    for (i, seen) in tapped.iter().enumerate() {
        // n2's vlan endpoint popped the outer tag on the way in.
        assert_eq!(seen.len() as u64, sealed - 4);
        assert_eq!(seen[12..14], [0x88, 0xB5], "a sealed frame");
        let clear = patterned_frame(i as u8);
        let payload = &clear.data()[clear.len() - 64..];
        for window in payload.windows(16) {
            assert!(!seen.windows(16).any(|w| w == window), "leak at n2");
        }
    }
    let mut plain = line_domain(false);
    plain
        .deploy_with(&split_bridge_chain(), &far_hints())
        .unwrap();
    let tapped = tap_transit_at_n2(&mut plain, 1);
    assert!(tapped[0].ends_with(&patterned_frame(0).data()[14..]));

    // A one-hop link costs what it always did: one seal and one open of
    // the inner frame on top of the unprotected crossing.
    let mesh_cost = |protect_overlay: bool| {
        let mut d = Domain::new(DomainConfig {
            protect_overlay,
            ..DomainConfig::default()
        });
        for (name, port) in [("n1", "eth0"), ("n2", "eth1")] {
            let mut n = UniversalNode::new(name, mb(2048));
            n.add_physical_port(port);
            d.add_node(n);
        }
        d.deploy_with(&split_bridge_chain(), &split_hints())
            .unwrap();
        d.inject("n1", "eth0", patterned_frame(0)).cost
    };
    let esp = Cost::from_nanos((2.0 * (700.0 + 2.0 * inner as f64)) as u64);
    assert_eq!(mesh_cost(true), mesh_cost(false) + esp);
}

/// The ring `n1–n2–n3–n4–n1` with ESP on, overlay vids from
/// `overlay_vid_base`, and node `i` exposing `ports[i]`.
fn protected_ring(overlay_vid_base: u16, ports: [&[&str]; 4]) -> Domain {
    let names = ["n1", "n2", "n3", "n4"];
    let mut d = Domain::new(DomainConfig {
        topology: Topology::ring(&names, EdgeAttrs::default()),
        protect_overlay: true,
        overlay_vid_base,
        ..DomainConfig::default()
    });
    for (name, ports) in names.into_iter().zip(ports) {
        let mut n = UniversalNode::new(name, mb(2048));
        for port in ports {
            n.add_physical_port(port);
        }
        d.add_node(n);
    }
    d
}

/// The `(key, salt, next sequence number)` of every protected link.
fn sa_states(d: &Domain) -> BTreeMap<u16, ([u8; 32], [u8; 4], u32)> {
    let protected = d
        .links
        .iter()
        .filter_map(|(vid, l)| Some((vid, l.sas.as_ref()?)));
    protected
        .map(|(vid, sas)| (*vid, (sas.0.key, sas.0.salt, sas.0.seq_out)))
        .collect()
}

/// A vid that returns to the pool and comes back is a new link with a
/// new key: the same plaintext sealed at the same sequence number on
/// the same vid gives different bytes.
#[test]
fn a_reused_vid_never_reuses_a_key() {
    let mut d = line_domain(true);
    // Per incarnation and vid: the key, and the first frame of the
    // link re-sealed under a rewound copy of its SA.
    let mut incarnations = Vec::new();
    for _ in 0..2 {
        d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
        assert_eq!(d.inject("n1", "eth0", patterned_frame(0)).emitted.len(), 1);
        let first_frames: BTreeMap<u16, _> = d
            .links
            .iter()
            .map(|(vid, link)| {
                let mut sa_out = link.sas.as_ref().expect("protected").0.clone();
                sa_out.seq_out = 0;
                let mut tagged = patterned_frame(0);
                tagged.vlan_push(*vid).unwrap();
                let wire = crate::wire::seal(&mut sa_out, tagged, *vid).unwrap();
                (*vid, (sa_out.key, wire.data().to_vec()))
            })
            .collect();
        incarnations.push(first_frames);
        d.undeploy("g1").unwrap();
    }
    let (first, second) = (&incarnations[0], &incarnations[1]);
    assert!(
        first.keys().eq(second.keys()),
        "the pool handed the vids back"
    );
    for (vid, (key, wire)) in first {
        assert_ne!(*key, second[vid].0, "vid {vid}: another key");
        assert_ne!(*wire, second[vid].1, "vid {vid}: another sealed frame");
        assert_eq!(wire.len(), second[vid].1.len());
    }
}

/// Across 200 deploy / update / fail / recover / undeploy steps on a
/// ring with a five-vid pool, traffic after every step: an SA never
/// rewinds, and a key that left the fleet never comes back — so no
/// `(key, salt, seq)` is ever sealed twice.
#[test]
fn no_key_and_sequence_number_is_ever_sealed_twice() {
    let names = ["n1", "n2", "n3", "n4"];
    let mut d = protected_ring(4090, [&["eth0", "eth1"]; 4]);
    let graph = |id: &str, priority: u16| {
        let mut g = split_bridge_chain();
        g.id = id.to_string();
        g.flow_rules[0].priority = priority;
        g
    };
    let hints = |br1: &str, br2: &str| DeployHints {
        endpoint_node: [("lan", br1), ("wan", br2)]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into(),
        nf_node: [("br1", br1), ("br2", br2)]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into(),
        strategy: None,
    };
    let mut rng = un_sim::DetRng::new(23);
    let mut live: BTreeMap<([u8; 32], [u8; 4]), u32> = BTreeMap::new();
    let mut retired = BTreeSet::new();
    let (mut sealed, mut fresh_keys) = (0u64, 0usize);
    for step in 0..200u32 {
        let gid = format!("g{}", rng.next_u32() % 2);
        let node = names[rng.next_u32() as usize % 4];
        let other = names[(rng.next_u32() as usize % 3
            + 1
            + names.iter().position(|n| *n == node).unwrap())
            % 4];
        match rng.next_u32() % 6 {
            0 | 1 => drop(d.deploy_with(&graph(&gid, 10), &hints(node, other))),
            2 => drop(d.update(&graph(&gid, 10 + (step % 7) as u16))),
            3 => drop(d.undeploy(&gid)),
            4 => drop(d.fail_node(node)),
            _ => drop(d.recover_node(node)),
        }
        for gid in d.graph_ids() {
            let lan = d.graphs[&gid].endpoints["lan"].clone();
            sealed += d
                .inject(&lan, "eth0", patterned_frame(step as u8))
                .protected_bytes;
        }
        let now = sa_states(&d);
        let in_use: BTreeSet<_> = now.values().map(|s| (s.0, s.1)).collect();
        retired.extend(live.keys().filter(|k| !in_use.contains(k)).copied());
        live.retain(|k, _| in_use.contains(k));
        for (vid, (key, salt, seq)) in now {
            assert!(
                !retired.contains(&(key, salt)),
                "step {step}: vid {vid} got a dead key"
            );
            match live.insert((key, salt), seq) {
                Some(before) => assert!(seq >= before, "step {step}: vid {vid} rewound"),
                None => fresh_keys += 1,
            }
        }
    }
    assert!(sealed > 0 && d.frame_ledger().drops(DropReason::OverlayEspVerifyFail) == 0);
    assert!(
        fresh_keys > 5,
        "the five-vid pool was re-used: {fresh_keys} keys"
    );
    assert!(retired.len() >= 5, "{} keys retired", retired.len());
}

/// A repair that moves one end of a kept vid mints a new pair for it; a
/// reroute between the same two nodes keeps pair and counter.
#[test]
fn a_moved_link_end_gets_a_fresh_sa_and_a_reroute_keeps_it() {
    // `wan` can sit on n3 or, once n3 is gone, on n4.
    let mut d = protected_ring(3000, [&["eth0"], &["eth0"], &["eth1"], &["eth1"]]);
    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    for _ in 0..3 {
        assert_eq!(d.inject("n1", "eth0", frame()).emitted.len(), 1);
    }
    let before = sa_states(&d);
    let transit = d.link_reports()[0].path[1].clone();

    // The transit node dies: same endpoints, new path, same SAs.
    d.fail_node(&transit).unwrap();
    assert!(d.link_reports().iter().all(|l| l.path[1] != transit));
    assert_eq!(sa_states(&d), before, "a reroute keeps key and counter");
    assert_eq!(d.inject("n1", "eth0", frame()).emitted.len(), 1);

    // An endpoint node dies: whatever vids survive the repair, no link
    // keeps a key it had while n3 held an end of it.
    let before = sa_states(&d);
    d.fail_node("n3").unwrap();
    let after = sa_states(&d);
    assert!(
        after.keys().any(|vid| before.contains_key(vid)),
        "the survivor's side of a cut edge keeps its vid: {before:?} -> {after:?}"
    );
    for (vid, (key, _, seq)) in &after {
        assert!(before.values().all(|(k, _, _)| k != key), "vid {vid}");
        assert_eq!(*seq, 0);
    }
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
    assert_eq!(d.frame_ledger().drops(DropReason::OverlayEspVerifyFail), 0);
}

/// Diamond fabric n1–n2–n3 / n1–n4–n3: the pinned path rides n2; when
/// n2 dies the repair must *reroute* the kept wires over n4 without
/// moving any NF — and the transit-only casualty still counts as an
/// affected graph with a visible blast radius.
#[test]
fn transit_node_failure_reroutes_kept_links() {
    let mut topo = Topology::explicit();
    topo.add_edge("n1", "n2", EdgeAttrs::default());
    topo.add_edge("n2", "n3", EdgeAttrs::default());
    topo.add_edge("n1", "n4", EdgeAttrs::default());
    topo.add_edge("n4", "n3", EdgeAttrs::default());
    let mut d = Domain::new(DomainConfig {
        topology: topo,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let n2 = UniversalNode::new("n2", mb(2048));
    let mut n3 = UniversalNode::new("n3", mb(2048));
    n3.add_physical_port("eth1");
    let n4 = UniversalNode::new("n4", mb(2048));
    d.add_node(n1);
    d.add_node(n2);
    d.add_node(n3);
    d.add_node(n4);
    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    let vids_before: Vec<u16> = d.link_reports().iter().map(|l| l.vid).collect();
    for l in d.link_reports() {
        assert_eq!(l.path[1], "n2", "lexicographic tie");
    }

    let report = d.fail_node("n2").unwrap();
    assert_eq!(report.replaced, vec!["g1".to_string()]);
    let repair = &report.repairs[0];
    assert_eq!(repair.nfs_moved, 0, "transit failure moves no NF");
    assert_eq!(repair.nfs_preserved, 2);
    assert_eq!(repair.links_kept, 2, "wires keep vids: {repair:?}");
    assert_eq!(repair.links_rewired, 0);
    assert!(repair.nodes_touched >= 1, "n4 gains the transit part");
    assert!(!repair.full_replace);
    assert!(d.trace.counter("overlay_paths_rerouted") >= 2);

    let vids_after: Vec<u16> = d.link_reports().iter().map(|l| l.vid).collect();
    assert_eq!(vids_before, vids_after, "vids survive the reroute");
    for l in d.link_reports() {
        let path = l.path;
        assert_eq!(path[1], "n4", "rerouted around the casualty: {path:?}");
    }
    assert!(
        !d.partition_of("g1").unwrap().parts.contains_key("n2"),
        "no part may remain on the dead transit node"
    );
    // Traffic flows over the detour.
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
    assert_eq!(io.emitted[0].0, "n3");
    assert_eq!(io.overlay_hops, 2);
}

/// Line fleet where the middle dies: the ends survive but are
/// disconnected, so neither the incremental plan nor the from-scratch
/// fallback can route the cut edge — the graph parks with its vid
/// ledger balanced, and healing the middle restores transit service.
#[test]
fn transit_failure_with_no_detour_parks_then_heals() {
    let mut d = line_domain(false);
    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    let (base, next, free, in_use, _) = d.vid_accounting();
    assert_eq!(in_use.len(), 2);
    assert_eq!((next - base) as usize, free.len() + in_use.len());

    let report = d.fail_node("n2").unwrap();
    assert!(report.replaced.is_empty(), "no route, no repair");
    assert_eq!(report.stranded, vec!["g1".to_string()]);
    assert_eq!(d.pending_graphs(), vec!["g1".to_string()]);
    // The surviving ends dropped their halves entirely.
    assert!(d.node("n1").unwrap().graph_ids().is_empty());
    assert!(d.node("n3").unwrap().graph_ids().is_empty());
    // Ledger: every vid ever minted is free, exactly once.
    let (base, next, free, in_use, _) = d.vid_accounting();
    assert!(in_use.is_empty(), "parked graph owns no links");
    assert_eq!((next - base) as usize, free.len());
    let distinct: std::collections::BTreeSet<u16> = free.iter().copied().collect();
    assert_eq!(distinct.len(), free.len(), "double-freed vid: {free:?}");

    // The middle comes back: the parked graph re-places and transit
    // service resumes over n2.
    let retried = d.recover_node("n2").unwrap();
    assert_eq!(retried, vec!["g1".to_string()]);
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
    assert_eq!(io.emitted[0].0, "n3");
    assert_eq!(io.overlay_hops, 2, "transit path restored");
}

/// Double failure: the incremental repair fails (no route), and the
/// from-scratch fallback *also* fails (no node carries eth1 anymore),
/// parking the graph. Every vid must be freed exactly once, and the
/// healed fleet must redeploy the parked graph cleanly.
#[test]
fn double_repair_failure_parks_graph_without_leaking_vids() {
    let mut d = line_domain(false);
    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    let minted = {
        let (base, next, ..) = d.vid_accounting();
        (next - base) as usize
    };

    // n3 dies first (the wan side), then n2: with eth1 gone entirely
    // the fallback cannot re-place either, so g1 parks.
    d.fail_node("n3").unwrap();
    let report = d.fail_node("n2").unwrap();
    assert!(report.replaced.is_empty());
    assert_eq!(d.pending_graphs(), vec!["g1".to_string()]);

    let (base, next, free, in_use, _) = d.vid_accounting();
    assert!(in_use.is_empty(), "parked graph owns no links");
    assert_eq!(
        (next - base) as usize,
        free.len(),
        "vid leak: minted {minted}, free {free:?}"
    );
    let distinct: std::collections::BTreeSet<u16> = free.iter().copied().collect();
    assert_eq!(distinct.len(), free.len(), "double-freed vid: {free:?}");

    // Heal: both nodes recover; retry re-places the graph and the
    // ledger still balances.
    d.recover_node("n2").unwrap();
    let retried = d.recover_node("n3").unwrap();
    assert_eq!(retried, vec!["g1".to_string()]);
    let (base, next, free, in_use, _) = d.vid_accounting();
    assert_eq!((next - base) as usize, free.len() + in_use.len());
    let io = d.inject("n1", "eth0", frame());
    assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
}

#[test]
fn vid_pool_exhaustion_is_a_typed_error() {
    // A pool of exactly one id: the split chain needs two cut edges,
    // so the deploy must fail with the typed error — and the one id
    // taken mid-partition must return to the pool.
    let mut d = Domain::new(DomainConfig {
        overlay_vid_base: 4094,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    let err = d
        .deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap_err();
    assert_eq!(err, DomainError::VidPoolExhausted);
    assert!(d.graph_ids().is_empty());
    let (_, _, free, in_use, _) = d.vid_accounting();
    assert_eq!(free, vec![4094], "taken vid must come back");
    assert!(in_use.is_empty());
    // No id past 4094 may ever be minted silently.
    let one_way = NfFgBuilder::new("ow", "one-way")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .rule_through("r1", 10, "lan", ("br", 0))
        .rule_through("r2", 10, ("br", 1), "wan")
        .build();
    let hints = DeployHints {
        nf_node: [("br".to_string(), "n1".to_string())].into(),
        ..DeployHints::default()
    };
    let report = d.deploy_with(&one_way, &hints).unwrap();
    assert_eq!(report.overlay_links, 1, "one cut edge fits the pool");
    let (_, _, _, in_use, _) = d.vid_accounting();
    assert_eq!(in_use, vec![4094]);
}

#[test]
fn no_route_is_a_typed_error() {
    // Two explicit islands: a cut edge between them cannot be routed.
    let mut topo = Topology::explicit();
    topo.add_edge("n1", "nx", EdgeAttrs::default());
    topo.add_edge("n2", "ny", EdgeAttrs::default());
    let mut d = Domain::new(DomainConfig {
        topology: topo,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    let err = d
        .deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap_err();
    assert!(
        matches!(err, DomainError::NoRoute { .. }),
        "got {err:?} instead"
    );
    let (_, _, free, in_use, _) = d.vid_accounting();
    assert!(in_use.is_empty());
    let distinct: std::collections::BTreeSet<u16> = free.iter().copied().collect();
    assert_eq!(distinct.len(), free.len());
}

#[test]
fn describe_reports_fleet_and_links() {
    let mut d = two_node_domain();
    d.deploy_with(&split_bridge_chain(), &split_hints())
        .unwrap();
    // Everything `GET /domain` is rendered from, as typed values.
    assert_eq!(d.node_names(), ["n1", "n2"]);
    for n in d.node_names() {
        assert_eq!(d.health(&n).unwrap().as_str(), "alive");
        assert_eq!(d.node(&n).unwrap().graph_ids(), ["g1"]);
    }
    assert_eq!(d.graph_ids(), ["g1"]);
    assert!(d.pending_graphs().is_empty());
    let links = d.link_reports();
    let planned: Vec<u16> = d
        .partition_of("g1")
        .unwrap()
        .links
        .iter()
        .map(|l| l.vid)
        .collect();
    assert_eq!(links.iter().map(|l| l.vid).collect::<Vec<_>>(), planned);
    for (l, (from, to)) in links.iter().zip([("n1", "n2"), ("n2", "n1")]) {
        assert_eq!(
            (l.graph.as_str(), l.from.as_str(), l.to.as_str()),
            ("g1", from, to)
        );
        assert_eq!(l.path, [from, to], "adjacent in the full mesh");
        assert!(!l.protected);
        assert_eq!((l.packets, l.bytes), (0, 0));
        assert_eq!((&l.hop_packets, &l.hop_bytes), (&vec![0], &vec![0]));
    }
}

// ----------------------------------------------------------------------
// Domain-wide sharable-NNF registry
// ----------------------------------------------------------------------

use crate::sharing::{ElectionPolicy, SharingConfig, SharingError};

/// One tenant NAT service: `lan`/`wan` VLAN endpoints (per-tenant vid)
/// around a single NAT NF carrying the config its shared binding needs.
fn nat_graph(id: &str, vid: u16, wan_cidr: &str) -> NfFg {
    let cfg = un_nffg::NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", wan_cidr);
    NfFgBuilder::new(id, "nat service")
        .vlan_endpoint("lan", "eth0", vid)
        .vlan_endpoint("wan", "eth1", vid)
        .nf_with_config("nat", "nat", 2, cfg)
        .chain("lan", &["nat"], "wan")
        .build()
}

/// Endpoint hints pinning one tenant onto its home node.
fn tenant_hints(node: &str) -> DeployHints {
    DeployHints {
        endpoint_node: [
            ("lan".to_string(), node.to_string()),
            ("wan".to_string(), node.to_string()),
        ]
        .into(),
        ..DeployHints::default()
    }
}

/// A full-mesh fleet of `n` nodes (`n1..`), every node exposing
/// `eth0`/`eth1`, with the given sharing settings.
fn sharing_fleet(n: usize, sharing: SharingConfig) -> Domain {
    let mut d = Domain::new(DomainConfig {
        sharing,
        ..DomainConfig::default()
    });
    for i in 1..=n {
        let mut node = UniversalNode::new(&format!("n{i}"), mb(2048));
        node.add_physical_port("eth0");
        node.add_physical_port("eth1");
        d.add_node(node);
    }
    d
}

/// Make the host's shared-NAT namespace able to resolve 8.8.8.8 (the
/// upstream neighbor every tenant's traffic heads for).
fn nat_neigh(d: &mut Domain, host: &str, gid: &str) {
    let node = d.node_mut(host).unwrap();
    let (inst, _) = node.instance_of(gid, "nat").unwrap();
    let ns = node.compute.namespace_of(inst).unwrap();
    node.host
        .neigh_add(ns, "8.8.8.8".parse().unwrap(), MacAddr::local(0x99))
        .unwrap();
}

fn tenant_frame(vid: u16) -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
        .vlan(vid)
        .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
        .udp(5000, 53)
        .payload(b"dns?")
        .build()
}

/// The acceptance scenario: a tenant on node A rides a shared NAT
/// pinned to the non-adjacent node C of a line fabric (multi-hop over
/// the transit middle), and its egress is byte-identical to a private
/// (sharing-disabled) deployment of the same graph.
#[test]
fn remote_shared_nnf_over_multihop_is_byte_identical_to_private() {
    let line = |sharing: SharingConfig| {
        let mut d = Domain::new(DomainConfig {
            topology: Topology::line(&["n1", "n2", "n3"], EdgeAttrs::default()),
            sharing,
            ..DomainConfig::default()
        });
        let mut n1 = UniversalNode::new("n1", mb(2048));
        n1.add_physical_port("eth0");
        n1.add_physical_port("eth1");
        d.add_node(n1);
        d.add_node(UniversalNode::new("n2", mb(2048)));
        d.add_node(UniversalNode::new("n3", mb(2048)));
        d
    };
    let mut shared = line(SharingConfig {
        election: ElectionPolicy::Pinned([("nat".to_string(), "n3".to_string())].into()),
        ..SharingConfig::for_types(&["nat"])
    });
    let mut private = line(SharingConfig::default());
    let g = nat_graph("t1", 11, "203.0.113.1/24");
    shared.deploy(&g).unwrap();
    private.deploy(&g).unwrap();

    // Shared: NAT landed on the pinned non-adjacent host, the lease is
    // registered, and every overlay link rides the 3-node path.
    assert_eq!(shared.assignment_of("t1").unwrap()["nat"], "n3");
    let instances = shared.shared_instances();
    assert_eq!(instances.len(), 1);
    assert_eq!(instances[0].host, "n3");
    assert_eq!(instances[0].leases.get("t1"), Some(&1));
    assert_eq!(
        shared.graph_shared_leases("t1").unwrap()[&ShareKey::new("nat", "")],
        SharedClaim {
            host: "n3".to_string(),
            nfs: 1
        }
    );
    assert_eq!(
        shared.node("n3").unwrap().shared_nnf_graphs("nat"),
        vec!["t1".to_string()]
    );
    for l in shared.link_reports() {
        assert_eq!(l.path.len(), 3, "multi-hop via n2");
    }
    // Private: everything stays on n1.
    assert!(private
        .assignment_of("t1")
        .unwrap()
        .values()
        .all(|n| n == "n1"));
    assert!(private.shared_instances().is_empty());

    nat_neigh(&mut shared, "n3", "t1");
    nat_neigh(&mut private, "n1", "t1");
    let a = shared.inject("n1", "eth0", tenant_frame(11));
    let b = private.inject("n1", "eth0", tenant_frame(11));
    assert_eq!(a.emitted.len(), 1, "{:?}", shared.trace);
    assert_eq!(b.emitted.len(), 1, "{:?}", private.trace);
    assert_eq!(a.emitted[0].0, "n1");
    assert_eq!(a.emitted[0].1, b.emitted[0].1, "same egress interface");
    assert_eq!(
        a.emitted[0].2.data(),
        b.emitted[0].2.data(),
        "remote shared instance must be transparent byte-for-byte"
    );
    assert_eq!(a.overlay_hops, 4, "2 fabric hops to the NAT, 2 back");
    assert_eq!(b.overlay_hops, 0, "private deployment stays local");
}

#[test]
fn shared_host_failure_reelects_and_reroutes_every_tenant() {
    let mut d = sharing_fleet(3, SharingConfig::for_types(&["nat"]));
    for (i, node) in ["n1", "n2", "n3"].iter().enumerate() {
        let gid = format!("t{}", i + 1);
        let g = nat_graph(&gid, 11 + i as u16, "203.0.113.1/24");
        d.deploy_with(&g, &tenant_hints(node)).unwrap();
    }
    // First demand elected n1; every tenant leases the one instance.
    let inst = &d.shared_instances()[0];
    assert_eq!(inst.host, "n1");
    assert_eq!(inst.tenant_count(), 3);
    assert_eq!(
        d.node("n1").unwrap().shared_nnf_graphs("nat").len(),
        3,
        "one node-level instance binds all three tenants"
    );
    // Tenants off-host reach the instance remotely.
    assert_eq!(d.assignment_of("t2").unwrap()["nat"], "n1");
    assert_eq!(d.assignment_of("t3").unwrap()["nat"], "n1");

    let report = d.fail_node("n1").unwrap();
    assert_eq!(report.replaced.len(), 3, "{report:?}");
    assert!(report.stranded.is_empty());
    // The registry re-elected once; every tenant converged on the new
    // host, and each repair attributes the move to the shared instance.
    let inst = &d.shared_instances()[0];
    assert_eq!(inst.host, "n2", "deterministic re-election");
    assert_eq!(inst.tenant_count(), 3);
    for outcome in &report.repairs {
        assert_eq!(outcome.shared_nfs_moved, 1, "{outcome:?}");
        assert_eq!(
            outcome.shared_migrated,
            vec![("nat".to_string(), "n2".to_string())],
            "{outcome:?}"
        );
        assert!(outcome.nfs_moved >= outcome.shared_nfs_moved);
    }
    for gid in ["t1", "t2", "t3"] {
        assert_eq!(d.assignment_of(gid).unwrap()["nat"], "n2");
    }
    assert_eq!(d.node("n2").unwrap().shared_nnf_graphs("nat").len(), 3);

    // The re-homed instance still serves every tenant end to end
    // (their endpoints stayed home: t2 on n2, t3 on n3 — t3's traffic
    // now crosses the overlay to n2's instance).
    nat_neigh(&mut d, "n2", "t2");
    for (gid, home, vid) in [("t2", "n2", 12u16), ("t3", "n3", 13)] {
        let io = d.inject(home, "eth0", tenant_frame(vid));
        assert_eq!(io.emitted.len(), 1, "{gid} must still forward");
        assert_eq!(io.emitted[0].0, home, "{gid} egresses at home");
    }
}

#[test]
fn lease_capacity_is_typed_and_never_double_counts_a_held_lease() {
    let mut d = sharing_fleet(
        2,
        SharingConfig {
            max_leases: Some(1),
            ..SharingConfig::for_types(&["nat"])
        },
    );
    let t1 = nat_graph("t1", 11, "203.0.113.1/24");
    d.deploy_with(&t1, &tenant_hints("n1")).unwrap();
    // Second tenant: the instance is full — a typed error, no deploy.
    let err = d
        .deploy_with(&nat_graph("t2", 12, "198.51.100.1/24"), &tenant_hints("n2"))
        .unwrap_err();
    assert!(
        matches!(
            err,
            DomainError::Sharing(SharingError::CapacityExhausted { max_leases: 1, .. })
        ),
        "got {err:?}"
    );
    // Regression: re-planning the tenant that holds the lease must not
    // count its own lease against the capacity.
    let mut tweaked = t1.clone();
    tweaked.flow_rules[0].priority += 1;
    d.update(&tweaked).unwrap();
    assert_eq!(d.shared_instances()[0].tenant_count(), 1);
    // The freed lease admits the waiting tenant.
    d.undeploy("t1").unwrap();
    assert!(d.shared_instances().is_empty(), "last lease drops instance");
    d.deploy_with(&nat_graph("t2", 12, "198.51.100.1/24"), &tenant_hints("n2"))
        .unwrap();
    assert_eq!(d.shared_instances()[0].tenant_count(), 1);
}

#[test]
fn sharing_toggle_applies_to_new_plans_only() {
    let mut d = sharing_fleet(
        2,
        SharingConfig {
            enabled: false,
            ..SharingConfig::for_types(&["nat"])
        },
    );
    assert!(!d.sharing_enabled());
    let t1 = nat_graph("t1", 11, "203.0.113.1/24");
    d.deploy_with(&t1, &tenant_hints("n1")).unwrap();
    assert!(d.shared_instances().is_empty(), "disabled: no leases");
    assert_eq!(d.assignment_of("t1").unwrap()["nat"], "n1");

    d.set_sharing_enabled(true);
    d.deploy_with(&nat_graph("t2", 12, "198.51.100.1/24"), &tenant_hints("n2"))
        .unwrap();
    let inst = &d.shared_instances()[0];
    assert_eq!(inst.host, "n2", "first demand after the toggle");
    assert_eq!(inst.tenant_count(), 1, "t1 predates the registry");

    // Updating the pre-registry tenant converges it onto the shared
    // instance (and acquires its lease).
    let mut tweaked = t1.clone();
    tweaked.flow_rules[0].priority += 1;
    d.update(&tweaked).unwrap();
    assert_eq!(d.assignment_of("t1").unwrap()["nat"], "n2");
    assert_eq!(d.shared_instances()[0].tenant_count(), 2);

    // Toggling off releases on the next re-plan, never retroactively.
    d.set_sharing_enabled(false);
    assert_eq!(d.shared_instances()[0].tenant_count(), 2);
    let mut tweaked2 = tweaked.clone();
    tweaked2.flow_rules[0].priority += 1;
    d.update(&tweaked2).unwrap();
    let inst = &d.shared_instances()[0];
    assert_eq!(inst.tenant_count(), 1, "t1 released its lease");
    assert_eq!(
        d.assignment_of("t1").unwrap()["nat"],
        "n2",
        "survivor pin keeps the NF in place without a lease"
    );
}

#[test]
fn pinned_host_death_parks_tenants_until_recovery() {
    let mut d = sharing_fleet(
        3,
        SharingConfig {
            election: ElectionPolicy::Pinned([("nat".to_string(), "n2".to_string())].into()),
            ..SharingConfig::for_types(&["nat"])
        },
    );
    d.deploy_with(&nat_graph("t1", 11, "203.0.113.1/24"), &tenant_hints("n1"))
        .unwrap();
    d.deploy_with(&nat_graph("t3", 13, "198.51.100.1/24"), &tenant_hints("n3"))
        .unwrap();
    assert_eq!(d.shared_instances()[0].host, "n2");

    // The pinned host dies: no re-election is possible, every tenant
    // parks, and the last released lease drops the instance.
    let report = d.fail_node("n2").unwrap();
    assert!(report.replaced.is_empty(), "{report:?}");
    assert_eq!(report.stranded.len(), 2);
    assert!(d.shared_instances().is_empty(), "no orphan instance");
    assert_eq!(d.pending_graphs().len(), 2);

    // Recovery re-places the parked tenants and restores the leases.
    let retried = d.recover_node("n2").unwrap();
    assert_eq!(retried.len(), 2, "{retried:?}");
    let inst = &d.shared_instances()[0];
    assert_eq!(inst.host, "n2");
    assert_eq!(inst.tenant_count(), 2);
}

#[test]
fn shared_docs_surface_instances_and_leases() {
    let mut d = sharing_fleet(2, SharingConfig::for_types(&["nat"]));
    d.deploy_with(&nat_graph("t1", 11, "203.0.113.1/24"), &tenant_hints("n1"))
        .unwrap();
    d.deploy_with(&nat_graph("t2", 12, "198.51.100.1/24"), &tenant_hints("n2"))
        .unwrap();
    // What `GET /domain/shared` is rendered from.
    assert!(d.config.sharing.enabled);
    assert_eq!(d.config.sharing.election.name(), "first-demand");
    let instances = d.shared_instances();
    assert_eq!(instances.len(), 1);
    let inst = &instances[0];
    assert_eq!(inst.key.functional_type, "nat");
    assert_eq!(inst.host, "n1");
    assert_eq!(inst.tenant_count(), 2);
    assert_eq!(inst.leases.get("t1"), Some(&1));
    // `GET /domain` carries each graph's leases.
    for tenant in ["t1", "t2"] {
        let leases = d.graph_shared_leases(tenant).unwrap();
        let claim = &leases[&inst.key];
        assert_eq!((claim.host.as_str(), claim.nfs), ("n1", 1));
    }
}

#[test]
fn sibling_capability_pools_never_co_elect_one_host() {
    // One graph demands TWO NAT pools (default + cgnat) in a single
    // deploy. Node-level NAT is a singleton, so the registry must put
    // the pools on different hosts — including when both elections
    // happen inside one plan (the registry is still empty for both).
    let mut d = sharing_fleet(2, SharingConfig::for_types(&["nat"]));
    let cfg = |cap: Option<&str>, wan: &str| {
        let mut c = un_nffg::NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", wan);
        if let Some(cap) = cap {
            c = c.with_param("share-capability", cap);
        }
        c
    };
    let g = NfFgBuilder::new("t1", "two pools")
        .vlan_endpoint("lan", "eth0", 11)
        .vlan_endpoint("wan", "eth1", 11)
        .nf_with_config("nat-a", "nat", 2, cfg(None, "203.0.113.1/24"))
        .nf_with_config("nat-b", "nat", 2, cfg(Some("cgnat"), "198.51.100.1/24"))
        .chain("lan", &["nat-a", "nat-b"], "wan")
        .build();
    d.deploy_with(&g, &tenant_hints("n1")).unwrap();
    let instances = d.shared_instances();
    assert_eq!(instances.len(), 2);
    assert_ne!(
        instances[0].host, instances[1].host,
        "sibling pools must not share a node-level singleton"
    );
    let a = d.assignment_of("t1").unwrap();
    assert_ne!(a["nat-a"], a["nat-b"]);
    // One graph, one lease per pool.
    assert_eq!(d.graph_shared_leases("t1").unwrap().len(), 2);
}

// ── Make-before-break standbys & the availability model ─────────────

/// Full-mesh fleet where the whole graph sits on n2 (both physical
/// ports), with n1 (`eth0`) and n3 (`eth1`) as survivors: repairing n2
/// must split the graph across the ends and mint fresh overlay vids —
/// the shape that exercises standby vid pre-reservation.
fn hub_fleet() -> Domain {
    let mut d = Domain::with_defaults();
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    let mut n2 = UniversalNode::new("n2", mb(2048));
    n2.add_physical_port("eth0");
    n2.add_physical_port("eth1");
    let mut n3 = UniversalNode::new("n3", mb(2048));
    n3.add_physical_port("eth1");
    d.add_node(n1);
    d.add_node(n2);
    d.add_node(n3);
    d
}

fn hub_hints() -> DeployHints {
    DeployHints {
        endpoint_node: [
            ("lan".to_string(), "n2".to_string()),
            ("wan".to_string(), "n2".to_string()),
        ]
        .into(),
        nf_node: [
            ("br1".to_string(), "n2".to_string()),
            ("br2".to_string(), "n2".to_string()),
        ]
        .into(),
        ..DeployHints::default()
    }
}

/// Every vid ever minted is in exactly one pool: free, in-use, or
/// standby-reserved.
fn assert_vid_conservation(d: &Domain) {
    let (base, next, free, in_use, standby) = d.vid_accounting();
    let minted = (next - base) as usize;
    assert_eq!(
        minted,
        free.len() + in_use.len() + standby.len(),
        "vid ledger out of balance: free={free:?} in_use={in_use:?} standby={standby:?}"
    );
    let mut all: Vec<u16> = free
        .iter()
        .chain(&in_use)
        .chain(&standby)
        .copied()
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), minted, "a vid appears in two pools");
}

#[test]
fn suspect_stages_standby_and_discard_returns_vids() {
    let mut d = hub_fleet();
    d.deploy_with(&split_bridge_chain(), &hub_hints()).unwrap();
    // Single-node deployment: no overlay links yet.
    let (_, _, _, in_use, _) = d.vid_accounting();
    assert!(in_use.is_empty());

    // Suspecting the hub pre-plans the split: two fresh vids reserved.
    d.suspect_node("n2").unwrap();
    assert_eq!(d.standby_graphs(), vec!["g1".to_string()]);
    assert_eq!(d.trace.counter("standby_plans_computed"), 1);
    let (_, _, _, _, standby) = d.vid_accounting();
    assert_eq!(standby.len(), 2, "fwd + rev cut pre-reserved");
    assert_vid_conservation(&d);

    // A late heartbeat clears the suspicion and returns the vids.
    d.heartbeat("n2", SimTime::from_nanos(1)).unwrap();
    assert!(d.standby_graphs().is_empty());
    assert_eq!(d.trace.counter("standby_plans_discarded"), 1);
    let (_, _, free, _, standby) = d.vid_accounting();
    assert!(standby.is_empty());
    assert_eq!(free.len(), 2, "reserved vids returned to the pool");
    assert_vid_conservation(&d);

    // Same cycle via an explicit recover_node.
    d.suspect_node("n2").unwrap();
    assert_eq!(d.trace.counter("standby_plans_computed"), 2);
    assert_vid_conservation(&d);
    d.recover_node("n2").unwrap();
    assert!(d.standby_graphs().is_empty());
    assert_eq!(d.trace.counter("standby_plans_discarded"), 2);
    assert_vid_conservation(&d);
    assert_eq!(d.health("n2"), Some(NodeHealth::Alive));

    // The graph never moved through any of it.
    assert!(d.assignment_of("g1").unwrap().values().all(|n| n == "n2"));
}

#[test]
fn promoted_standby_matches_reactive_repair_byte_for_byte() {
    // Twin fleets, same graph. One is warned (suspect → standby →
    // fail = swap), the other is surprised (fail = reactive plan).
    // The deterministic planner must make the outcomes identical.
    let mut warned = hub_fleet();
    let mut surprised = hub_fleet();
    warned
        .deploy_with(&split_bridge_chain(), &hub_hints())
        .unwrap();
    surprised
        .deploy_with(&split_bridge_chain(), &hub_hints())
        .unwrap();

    warned.suspect_node("n2").unwrap();
    assert_eq!(warned.trace.counter("standby_plans_computed"), 1);
    let report = warned.fail_node("n2").unwrap();
    assert_eq!(report.replaced, vec!["g1".to_string()]);
    assert!(
        report.repairs[0].standby_promoted,
        "{:?}",
        report.repairs[0]
    );
    assert_eq!(warned.trace.counter("standby_plans_promoted"), 1);
    assert!(warned.standby_graphs().is_empty(), "standby consumed");

    let report = surprised.fail_node("n2").unwrap();
    assert!(!report.repairs[0].standby_promoted);
    assert_eq!(surprised.trace.counter("standby_plans_promoted"), 0);

    // Identical placement, identical overlay vids, identical egress.
    assert_eq!(
        warned.assignment_of("g1").unwrap(),
        surprised.assignment_of("g1").unwrap()
    );
    let vids = |d: &Domain| {
        let mut v: Vec<u16> = d.link_reports().iter().map(|l| l.vid).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(vids(&warned), vids(&surprised));
    assert_vid_conservation(&warned);
    assert_vid_conservation(&surprised);

    let a = warned.inject("n1", "eth0", frame());
    let b = surprised.inject("n1", "eth0", frame());
    assert_eq!(a.emitted.len(), 1, "{:?}", warned.trace);
    assert_eq!(b.emitted.len(), 1, "{:?}", surprised.trace);
    assert_eq!(a.emitted[0].0, b.emitted[0].0, "same egress node");
    assert_eq!(a.emitted[0].1, b.emitted[0].1, "same egress port");
    assert_eq!(
        a.emitted[0].2.data(),
        b.emitted[0].2.data(),
        "promoted standby must be byte-identical to a reactive repair"
    );
}

/// An update that cannot be planned changes nothing — including the
/// make-before-break plans staged for the graph it failed to change.
#[test]
fn update_whose_plan_fails_keeps_the_staged_standby() {
    let mut d = hub_fleet();
    d.deploy_with(&split_bridge_chain(), &hub_hints()).unwrap();
    d.suspect_node("n2").unwrap();
    assert_eq!(d.standby_graphs(), vec!["g1".to_string()]);

    // A rule tweak (so the diff is not empty) on a graph whose wan
    // endpoint now names an interface its pinned node does not have.
    let mut bad = NfFgBuilder::new("g1", "split")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth9")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    bad.flow_rules[0].priority = 42;
    assert!(matches!(d.update(&bad), Err(DomainError::Place(_))));
    assert_eq!(d.graph("g1"), Some(&split_bridge_chain()));
    assert_eq!(d.standby_graphs(), vec!["g1".to_string()]);
    assert_eq!(d.trace.counter("standby_plans_discarded"), 0);
    assert_vid_conservation(&d);

    let report = d.fail_node("n2").unwrap();
    assert!(
        report.repairs[0].standby_promoted,
        "{:?}",
        report.repairs[0]
    );
    assert_vid_conservation(&d);
}

#[test]
fn shared_standby_promotes_host_on_failure() {
    let mut d = sharing_fleet(3, SharingConfig::for_types(&["nat"]));
    for (i, node) in ["n1", "n2", "n3"].iter().enumerate() {
        let gid = format!("t{}", i + 1);
        d.deploy_with(
            &nat_graph(&gid, 11 + i as u16, "203.0.113.1/24"),
            &tenant_hints(node),
        )
        .unwrap();
    }
    assert_eq!(d.shared_instances()[0].host, "n1");

    // Suspecting the shared host pre-elects its replacement and stages
    // a standby plan per tenant graph.
    d.suspect_node("n1").unwrap();
    assert_eq!(d.standby_graphs().len(), 3, "{:?}", d.standby_graphs());
    assert_vid_conservation(&d);

    let report = d.fail_node("n1").unwrap();
    assert_eq!(report.replaced.len(), 3, "{report:?}");
    assert_eq!(d.trace.counter("standby_shared_promoted"), 1);
    assert!(report.repairs.iter().all(|o| o.standby_promoted));
    let inst = &d.shared_instances()[0];
    assert_eq!(inst.host, "n2", "pre-elected host promoted");
    assert_eq!(inst.tenant_count(), 3);
    assert_vid_conservation(&d);
}

#[test]
fn scale_out_splits_tenants_instead_of_rejecting() {
    let mut d = sharing_fleet(
        2,
        SharingConfig {
            max_leases: Some(1),
            scale_out: true,
            ..SharingConfig::for_types(&["nat"])
        },
    );
    d.deploy_with(&nat_graph("t1", 11, "203.0.113.1/24"), &tenant_hints("n1"))
        .unwrap();
    // The instance is full, but scale-out elects a second replica
    // instead of failing the deploy.
    d.deploy_with(&nat_graph("t2", 12, "198.51.100.1/24"), &tenant_hints("n2"))
        .unwrap();
    assert_eq!(d.trace.counter("shared_scale_outs"), 1);
    let instances = d.shared_instances();
    assert_eq!(instances.len(), 2, "{instances:?}");
    assert_ne!(instances[0].host, instances[1].host);
    assert!(instances.iter().all(|i| i.tenant_count() == 1));
    // Each tenant rides its own replica end to end.
    let nat_host = |gid: &str| d.assignment_of(gid).unwrap()["nat"].clone();
    assert_ne!(nat_host("t1"), nat_host("t2"));
    for (gid, host) in [("t1", nat_host("t1")), ("t2", nat_host("t2"))] {
        nat_neigh(&mut d, &host, gid);
    }
    for (home, vid) in [("n1", 11u16), ("n2", 12)] {
        let io = d.inject(home, "eth0", tenant_frame(vid));
        assert_eq!(io.emitted.len(), 1, "{:?}", d.trace);
        assert_eq!(io.emitted[0].0, home);
    }
}

/// A scale-out is counted when the second replica registers, not when
/// a plan first asks for one: a standby that plans a scale-out and is
/// then discarded never scaled anything out.
#[test]
fn scale_out_is_counted_at_commit_not_in_a_discarded_standby() {
    let staged = || {
        let mut d = sharing_fleet(
            3,
            SharingConfig {
                enabled: false,
                max_leases: Some(1),
                scale_out: true,
                ..SharingConfig::for_types(&["nat"])
            },
        );
        // t1 predates the registry (private NAT on n1); t2 fills the
        // one shared replica on n2.
        d.deploy_with(&nat_graph("t1", 11, "203.0.113.1/24"), &tenant_hints("n1"))
            .unwrap();
        d.set_sharing_enabled(true);
        d.deploy_with(&nat_graph("t2", 12, "198.51.100.1/24"), &tenant_hints("n2"))
            .unwrap();
        // Planning t1 off n1 now goes through the registry: the only
        // replica is full, so the standby plan scales out onto n3.
        d.suspect_node("n1").unwrap();
        assert_eq!(d.standby_graphs(), vec!["t1".to_string()]);
        assert_eq!(d.trace.counter("shared_scale_outs"), 0, "only planned");
        assert_eq!(d.shared_instances().len(), 1);
        d
    };

    let mut discarded = staged();
    discarded.heartbeat("n1", SimTime::from_nanos(1)).unwrap();
    assert!(discarded.standby_graphs().is_empty());
    assert_eq!(discarded.trace.counter("shared_scale_outs"), 0);
    assert_eq!(discarded.shared_instances().len(), 1);

    let mut promoted = staged();
    let report = promoted.fail_node("n1").unwrap();
    assert!(report.repairs[0].standby_promoted);
    assert_eq!(promoted.trace.counter("shared_scale_outs"), 1);
    let hosts: Vec<String> = promoted
        .shared_instances()
        .iter()
        .map(|i| i.host.clone())
        .collect();
    assert_eq!(hosts, ["n2", "n3"]);
}

#[test]
fn loaded_edges_steer_second_graph_onto_other_branch() {
    // Diamond n1–n2–n3 / n1–n4–n3, equal attrs: g1's wires take the
    // lexicographic n2 branch and *load* it, so g2's wires — same
    // hop count either way — are repelled onto n4.
    let mut topo = Topology::explicit();
    topo.add_edge("n1", "n2", EdgeAttrs::default());
    topo.add_edge("n2", "n3", EdgeAttrs::default());
    topo.add_edge("n1", "n4", EdgeAttrs::default());
    topo.add_edge("n4", "n3", EdgeAttrs::default());
    let mut d = Domain::new(DomainConfig {
        topology: topo,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth2");
    let n2 = UniversalNode::new("n2", mb(2048));
    let mut n3 = UniversalNode::new("n3", mb(2048));
    n3.add_physical_port("eth1");
    n3.add_physical_port("eth3");
    let n4 = UniversalNode::new("n4", mb(2048));
    d.add_node(n1);
    d.add_node(n2);
    d.add_node(n3);
    d.add_node(n4);

    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();
    // Same chain on its own ports, so the endpoints don't collide.
    let g2 = NfFgBuilder::new("g2", "split")
        .interface_endpoint("lan", "eth2")
        .interface_endpoint("wan", "eth3")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    d.deploy_with(&g2, &far_hints()).unwrap();

    let branch = |d: &Domain, gid: &str| -> Vec<String> {
        let mut out: Vec<String> = d
            .link_reports()
            .into_iter()
            .filter_map(|l| {
                d.partition_of(gid)
                    .unwrap()
                    .parts
                    .contains_key(&l.path[1])
                    .then(|| l.path[1].clone())
            })
            .collect();
        out.sort();
        out.dedup();
        out
    };
    assert_eq!(branch(&d, "g1"), vec!["n2".to_string()], "tie-break");
    assert_eq!(branch(&d, "g2"), vec!["n4".to_string()], "load repulsion");
}

#[test]
fn park_drain_downtime_is_stamped_on_retry() {
    let mut d = line_domain(false);
    d.deploy_with(&split_bridge_chain(), &far_hints()).unwrap();

    // The transit middle dies with no detour: the graph parks.
    let report = d.fail_node("n2").unwrap();
    assert_eq!(report.stranded, vec!["g1".to_string()]);
    let ledger = d.graph_availability("g1").unwrap();
    assert_eq!(ledger.park_events, 1);
    assert_eq!(ledger.park_downtime_ns, 0, "still parked — not stamped");

    // Healing drains the park; the outage duration lands in the ledger.
    let retried = d.recover_node("n2").unwrap();
    assert_eq!(retried, vec!["g1".to_string()]);
    assert_eq!(d.trace.counter("park_drains"), 1);
    let ledger = d.graph_availability("g1").unwrap();
    assert_eq!(ledger.park_events, 1);
    assert!(ledger.park_downtime_ns > 0, "park→drain downtime stamped");
}

#[test]
fn availability_report_predicts_and_records() {
    let mut d = hub_fleet();
    d.deploy_with(&split_bridge_chain(), &hub_hints()).unwrap();

    // Before any repair: prediction runs on the calibration default.
    let report = d.availability_report();
    assert_eq!(report.repair_events, 0);
    let g = &report.graphs[0];
    assert_eq!(g.graph, "g1");
    assert_eq!(g.exposed_nodes, 1, "whole graph on the hub");
    assert!(!g.standby_ready);
    assert_eq!(g.predicted_repair_ns, crate::standby::DEFAULT_REPAIR_NS);
    assert!(g.predicted_availability < 1.0);
    assert!(g.predicted_availability > 0.999);

    // Staging a standby flips the prediction to the swap column.
    d.suspect_node("n2").unwrap();
    let report = d.availability_report();
    assert!(report.graphs[0].standby_ready);

    // A real failure populates both sides of the model.
    d.fail_node("n2").unwrap();
    let report = d.availability_report();
    assert_eq!(report.repair_events, 1);
    assert!(report.measured_downtime_ns > 0);
    assert!(report.modeled_downtime_ns > 0);
    assert_eq!(report.calibration.swap_events, 1, "swap was calibrated");
    let g = &report.graphs[0];
    assert_eq!(g.ledger.repairs, 1);
    assert_eq!(g.ledger.standby_promotions, 1);
    assert_eq!(g.exposed_nodes, 2, "now split across the ends");
}

// ----------------------------------------------------------------------
// Planning as a function: plan(&FleetView, &mut VidPool, graph, &Constraints)
// ----------------------------------------------------------------------

/// A line `n1 – n2 – n3` (every node with `eth0`/`eth1`) whose shared
/// NAT sits at the centroid n2: tenant `t1` rides it from n1, `t2` from
/// n3, and n3 is suspect with a standby staged for `t2`.
fn suspect_shared_line() -> Domain {
    let mut d = Domain::new(DomainConfig {
        topology: Topology::line(&["n1", "n2", "n3"], EdgeAttrs::default()),
        sharing: SharingConfig {
            election: ElectionPolicy::TopologyCentroid,
            ..SharingConfig::for_types(&["nat"])
        },
        ..DomainConfig::default()
    });
    for name in ["n1", "n2", "n3"] {
        let mut node = UniversalNode::new(name, mb(2048));
        node.add_physical_port("eth0");
        node.add_physical_port("eth1");
        d.add_node(node);
    }
    for (gid, vid, home) in [("t0", 10, "n1"), ("t1", 11, "n1"), ("t2", 12, "n3")] {
        d.deploy_with(&nat_graph(gid, vid, "203.0.113.1/24"), &tenant_hints(home))
            .unwrap();
    }
    assert_eq!(d.shared_instances()[0].host, "n2");
    // A tenant that came and went: its four vids wait in the free list.
    d.undeploy("t0").unwrap();
    d.suspect_node("n3").unwrap();
    assert_eq!(d.standby_graphs(), vec!["t2".to_string()]);
    d
}

/// Everything a plan could have left behind, had it touched anything.
fn footprint(d: &Domain) -> String {
    let nodes: Vec<_> = d
        .node_names()
        .iter()
        .map(|n| d.node(n).unwrap().describe())
        .collect();
    let verify = un_verify::VerifyReport {
        duration_ns: 0,
        ..d.verify_full()
    };
    format!(
        "{:?}\n{:?}\n{nodes:?}\n{:?}\n{verify:?}",
        d.vid_accounting(),
        d.shared_instances(),
        d.graph_ids(),
    )
}

#[test]
fn a_released_plan_leaves_no_trace() {
    let mut d = suspect_shared_line();
    let before = footprint(&d);

    // A third tenant at n1, planned as if the suspect were dead: it
    // draws four vids and claims the shared NAT on n2.
    let c = plan::Constraints::fresh(&tenant_hints("n1"));
    let (view, vids) = d.planner();
    let view = view.without("n3");
    let staged = plan::plan(&view, vids, &nat_graph("t3", 13, "203.0.113.1/24"), &c).unwrap();
    assert_eq!(staged.taken.len(), 4, "lan and wan, each way, to the NAT");
    assert_eq!(staged.shared[&ShareKey::new("nat", "")].host, "n2");
    let reserved = staged.taken.clone();
    let (_, _, free, in_use, standby) = d.vid_accounting();
    assert!(
        reserved
            .iter()
            .all(|v| !free.contains(v) && !in_use.contains(v) && !standby.contains(v)),
        "a staged plan's vids are out of every pool"
    );

    d.release_plan(staged);
    assert_eq!(footprint(&d), before);

    // So does a plan that could not stand: with the transit node
    // counted out, t2's repair is cut but finds no route.
    let (view, vids) = d.planner();
    let view = view.without("n2");
    let t2 = &view.graphs["t2"];
    let c = plan::Constraints::repair(t2, &view.serving);
    assert!(matches!(
        plan::plan(&view, vids, &t2.original, &c),
        Err(DomainError::NoRoute { .. })
    ));
    assert_eq!(footprint(&d), before);
}

#[test]
fn planning_is_deterministic() {
    let mut d = suspect_shared_line();
    let base = d.config.overlay_vid_base;
    let (view, _) = d.planner();
    let view = view.without("n3");
    let fresh = nat_graph("t3", 13, "203.0.113.1/24");
    let t2 = &view.graphs["t2"];
    for (graph, c) in [
        (&fresh, plan::Constraints::fresh(&tenant_hints("n1"))),
        (&t2.original, plan::Constraints::repair(t2, &view.serving)),
    ] {
        let (mut pool_a, mut pool_b) = (plan::VidPool::new(base), plan::VidPool::new(base));
        let a = plan::plan(&view, &mut pool_a, graph, &c).unwrap();
        let b = plan::plan(&view, &mut pool_b, graph, &c).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.partition.parts, b.partition.parts);
        assert_eq!(a.partition.links, b.partition.links);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.shared, b.shared);
        assert_eq!(a.taken, b.taken);
    }
}

/// `FleetView::without(n)` means "as if `n` were dead": the plan staged
/// while `n` is only suspect is the plan a reactive repair computes
/// once `n` has failed — which is what makes promoting it a swap.
#[test]
fn plan_without_a_suspect_equals_the_plan_after_its_failure() {
    let mut warned = hub_fleet();
    let mut surprised = hub_fleet();
    for d in [&mut warned, &mut surprised] {
        d.deploy_with(&split_bridge_chain(), &hub_hints()).unwrap();
    }
    warned.suspect_node("n2").unwrap();
    let staged = warned.standby.take("n2").unwrap().graphs.remove("g1");
    let staged = staged.unwrap().plan;

    surprised.nodes.get_mut("n2").unwrap().health = NodeHealth::Failed;
    let (view, vids) = surprised.planner();
    let g1 = &view.graphs["g1"];
    let c = plan::Constraints::repair(g1, &view.serving);
    let reactive = plan::plan(&view, vids, &g1.original, &c).unwrap();

    assert_eq!(staged.assignment, reactive.assignment);
    assert_eq!(staged.endpoints, reactive.endpoints);
    assert_eq!(staged.partition.parts, reactive.partition.parts);
    assert_eq!(staged.partition.links, reactive.partition.links);
    assert_eq!(staged.paths, reactive.paths);
    assert_eq!(staged.taken, reactive.taken);
    assert_eq!(staged.taken.len(), 2, "the hub's loss splits the graph");
}

#[test]
fn lease_release_fires_only_for_graphs_that_held_a_lease() {
    let mut d = Domain::new(DomainConfig {
        sharing: SharingConfig::for_types(&["nat"]),
        observability: true,
        ..DomainConfig::default()
    });
    let mut n1 = UniversalNode::new("n1", mb(2048));
    n1.add_physical_port("eth0");
    n1.add_physical_port("eth1");
    d.add_node(n1);
    d.deploy_with(&nat_graph("t1", 11, "203.0.113.1/24"), &tenant_hints("n1"))
        .unwrap();
    d.deploy(&split_bridge_chain()).unwrap();
    let releases = |d: &Domain| -> Vec<un_obs::Event> {
        let events = d.recent_events().into_iter();
        events
            .filter(|e| e.name == "domain.lease.release")
            .collect()
    };

    d.undeploy("g1").unwrap();
    assert!(
        releases(&d).is_empty(),
        "a plain bridge graph rides nothing"
    );

    d.undeploy("t1").unwrap();
    let released = releases(&d);
    assert_eq!(released.len(), 1);
    assert_eq!(
        released[0].attrs,
        vec![
            ("graph", un_obs::AttrValue::from("t1")),
            ("instances_dropped", un_obs::AttrValue::from(1usize)),
        ]
    );
}
