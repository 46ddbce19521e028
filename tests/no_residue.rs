//! No residue: cycling a graph through the control plane leaves the
//! simulated substrate exactly as large as one cycle made it.
//!
//! Software aging is the management-layer failure mode that does not
//! announce itself: a namespace kept per undeploy, a tombstoned ledger
//! account per instance, an LSI-0 port per repair. Each loop below runs
//! a few hundred times on a small fleet and the per-node object counts
//! must return to their post-first-cycle baseline — counts, not RSS, so
//! the verdict names what leaked.

use std::collections::BTreeMap;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, DomainError, PlacementStrategy, SharingConfig};
use un_nffg::{NfConfig, NfFg, NfFgBuilder};
use un_sim::mem::mb;

const CYCLES: usize = 300;

/// Everything a control-plane call can allocate on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Census {
    namespaces: usize,
    ifaces: usize,
    ledger_accounts: usize,
    instances: usize,
    driver_instances: [usize; 4],
    lsis: usize,
    lsi0_ports: usize,
    flows: usize,
}

fn census(d: &Domain) -> BTreeMap<String, Census> {
    d.node_names()
        .into_iter()
        .map(|name| {
            let n = d.node(&name).expect("listed node exists");
            let lsi0_ports = n.lsis().next().expect("LSI-0").1.port_count();
            let c = Census {
                namespaces: n.host.namespace_count(),
                ifaces: n.host.iface_count(),
                ledger_accounts: n.ledger.live_accounts(),
                instances: n.total_instances(),
                driver_instances: n.compute.drivers().map(|d| d.instance_count()),
                lsis: n.lsis().count(),
                lsi0_ports,
                flows: n.total_flows(),
            };
            (name, c)
        })
        .collect()
}

/// Two port-only edge nodes (too small for any NF) around two compute
/// nodes: every tenant chain splits, so each cycle also churns overlay
/// links, transit parts and vids.
fn fleet() -> Domain {
    let mut d = Domain::with_defaults();
    for (name, mem, port) in [
        ("e0", mb(1), Some("eth0")),
        ("e1", mb(1), Some("eth1")),
        ("c0", mb(2048), None),
        ("c1", mb(2048), None),
    ] {
        let mut n = UniversalNode::new(name, mem);
        if let Some(p) = port {
            n.add_physical_port(p);
        }
        d.add_node(n);
    }
    d
}

/// `lan → nat → br0 … → wan`: a configured NNF (routes, netfilter,
/// conntrack in its namespace) in front of `bridges` plain ones.
fn tenant(bridges: usize) -> NfFg {
    let nat = NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "203.0.113.1/24");
    let mut ids = vec!["nat".to_string()];
    let mut b = NfFgBuilder::new("tenant", "residue")
        .vlan_endpoint("lan", "eth0", 100)
        .vlan_endpoint("wan", "eth1", 101)
        .nf_with_config("nat", "nat", 2, nat);
    for k in 0..bridges {
        let id = format!("br{k}");
        b = b.nf(&id, "bridge", 2);
        ids.push(id);
    }
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    b.chain("lan", &refs, "wan").build()
}

fn spread() -> DeployHints {
    DeployHints {
        strategy: Some(PlacementStrategy::Spread),
        ..DeployHints::default()
    }
}

#[test]
fn deploy_undeploy_leaves_no_residue() {
    let mut d = fleet();
    let empty = census(&d);
    let g = tenant(3);
    let mut deployed = None;
    for cycle in 0..CYCLES {
        d.deploy_with(&g, &spread()).expect("tenant deploys");
        let now = census(&d);
        assert_eq!(*deployed.get_or_insert(now.clone()), now, "cycle {cycle}");
        d.undeploy("tenant").expect("tenant undeploys");
        assert_eq!(census(&d), empty, "cycle {cycle}: undeploy left residue");
    }
    assert!(d.verify_full().ok());
}

#[test]
fn update_there_and_back_leaves_no_residue() {
    let mut d = fleet();
    let (base, grown) = (tenant(2), tenant(4));
    d.deploy_with(&base, &spread()).expect("tenant deploys");
    let mut baseline = None;
    for cycle in 0..CYCLES {
        d.update(&grown).expect("grows");
        d.update(&base).expect("shrinks back");
        let now = census(&d);
        assert_eq!(*baseline.get_or_insert(now.clone()), now, "cycle {cycle}");
    }
    assert!(d.verify().ok());
}

#[test]
fn fail_recover_leaves_no_residue() {
    let mut d = fleet();
    d.deploy_with(&tenant(3), &spread())
        .expect("tenant deploys");
    let mut baseline = None;
    for cycle in 0..CYCLES {
        // Both compute nodes die and come back, one after the other:
        // the NFs are chased off c0, then off c1, and every carcass is
        // purged on recovery.
        for victim in ["c0", "c1"] {
            let report = d.fail_node(victim).expect("known node");
            assert!(report.stranded.is_empty(), "cycle {cycle}: {report:?}");
            d.recover_node(victim).expect("recovers");
        }
        let now = census(&d);
        assert_eq!(*baseline.get_or_insert(now.clone()), now, "cycle {cycle}");
    }
    assert!(d.verify_full().ok());
}

/// A guest tenant joins the fleet-wide shared NAT a resident keeps
/// alive, and leaves again: the join's per-graph kernel objects in the
/// NAT's namespace (two VLAN sub-interfaces, marks, a routing table)
/// go when the guest does.
#[test]
fn shared_nat_join_leave_leaves_no_residue() {
    let nat_tenant = |id: &str, vid: u16| {
        let nat = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", &format!("203.0.113.{}/24", vid % 250));
        NfFgBuilder::new(id, "nat tenant")
            .vlan_endpoint("lan", "eth0", vid)
            .vlan_endpoint("wan", "eth1", vid)
            .nf_with_config("nat", "nat", 2, nat)
            .chain("lan", &["nat"], "wan")
            .build()
    };
    let mut d = mixed_fleet();
    d.deploy(&nat_tenant("resident", 200))
        .expect("resident deploys");
    let alone = census(&d);
    let guest = nat_tenant("guest", 300);
    let mut joined = None;
    for cycle in 0..CYCLES {
        d.deploy(&guest).expect("guest joins");
        assert_eq!(d.shared_instances().len(), 1, "one NAT serves both");
        let now = census(&d);
        assert_eq!(*joined.get_or_insert(now.clone()), now, "cycle {cycle}");
        d.undeploy("guest").expect("guest leaves");
        assert_eq!(census(&d), alone, "cycle {cycle}: the join left residue");
    }
    assert_leases_balance(&d, "join/leave");
    assert!(d.verify_full().ok());
}

// ---------------------------------------------------------------------
// The rollback matrix: a node rejects its part *after* planning
// admitted it, once per entry point of the control plane.
// ---------------------------------------------------------------------

/// The five ways a plan reaches `commit`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Deploy,
    Update,
    Repair,
    Promote,
    Retry,
}

/// How `z` comes to reject the part it is sent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rejection {
    /// `z`'s native IPsec singleton is taken: the driver refuses
    /// `create`, nothing of the NF ever exists.
    Busy,
    /// `z` is free and takes the NF, whose configuration lacks the
    /// `psk`: the instance is created, then its `start` fails.
    StartFails,
}

/// A heterogeneous fleet. `a` is the node `Domain::estimates` prices
/// NFs on (first serving name): nothing of its own running, and so
/// small that nothing unpinned fits beside what the hints pin there.
/// `z` is roomy and owns `eth1`, but its one native IPsec instance —
/// a non-sharable singleton — is taken by the `occ` graph, which only
/// `z` itself can see: a `native` IPsec NF the planner prices on `a`
/// and sends to `z` is rejected by `z`. `b` and `c` are ordinary.
fn mixed_fleet() -> Domain {
    let mut d = Domain::new(DomainConfig {
        sharing: SharingConfig::for_types(&["nat"]),
        ..DomainConfig::default()
    });
    for (name, mem, ports) in [
        ("a", mb(20), &["eth0"][..]),
        ("b", mb(2048), &[]),
        ("c", mb(2048), &["eth1"]),
        ("z", mb(2048), &["eth1", "mgmt"]),
    ] {
        let mut n = UniversalNode::new(name, mem);
        for p in ports {
            n.add_physical_port(p);
        }
        d.add_node(n);
    }
    let occ = NfFgBuilder::new("occ", "occupier")
        .vlan_endpoint("in", "mgmt", 7)
        .vlan_endpoint("out", "mgmt", 8)
        .nf_with_config("occ-vpn", "ipsec", 2, vpn_config())
        .with_flavor("native")
        .chain("in", &["occ-vpn"], "out")
        .build();
    d.deploy_with(&occ, &pins(&[("occ-vpn", "z")], &[]))
        .expect("occupier deploys");
    d
}

fn vpn_config() -> NfConfig {
    NfConfig::default()
        .with_param("psk", "hunter2")
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24")
}

/// `lan → nat → br1 [→ vpn] → wan`; the NAT rides the fleet-wide
/// shared instance, `vpn` insists on the native flavor.
fn svc(with_vpn: bool) -> NfFg {
    let nat = NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "203.0.113.1/24");
    let mut b = NfFgBuilder::new("svc", "rollback")
        .vlan_endpoint("lan", "eth0", 100)
        .vlan_endpoint("wan", "eth1", 101)
        .nf_with_config("nat", "nat", 2, nat)
        .nf("br1", "bridge", 2);
    let mut chain = vec!["nat", "br1"];
    if with_vpn {
        b = b
            .nf_with_config("vpn", "ipsec", 2, vpn_config())
            .with_flavor("native");
        chain.push("vpn");
    }
    b.chain("lan", &chain, "wan").build()
}

fn pins(nfs: &[(&str, &str)], endpoints: &[(&str, &str)]) -> DeployHints {
    let map = |pairs: &[(&str, &str)]| {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    DeployHints {
        nf_node: map(nfs),
        endpoint_node: map(endpoints),
        ..DeployHints::default()
    }
}

/// Every vid the pool ever minted is free, in use, or reserved by a
/// staged standby — exactly once.
fn assert_vids_conserved(d: &Domain, tag: &str) {
    let (base, next, free, in_use, standby) = d.vid_accounting();
    let mut all: Vec<u16> = free
        .iter()
        .chain(&in_use)
        .chain(&standby)
        .copied()
        .collect();
    all.sort_unstable();
    let minted: Vec<u16> = (base..next).collect();
    assert_eq!(
        all, minted,
        "{tag}: free {free:?} in-use {in_use:?} standby {standby:?}"
    );
}

/// The registry's leases, the per-graph claims and the node-level
/// bindings of the shared instances all say the same thing.
fn assert_leases_balance(d: &Domain, tag: &str) {
    let mut registry = 0;
    for inst in d.shared_instances() {
        assert!(
            !inst.leases.is_empty(),
            "{tag}: orphan instance {}",
            inst.key
        );
        let bound = d
            .node(&inst.host)
            .expect("host")
            .shared_nnf_graphs(&inst.key.functional_type);
        for gid in inst.leases.keys() {
            assert!(d.graph(gid).is_some(), "{tag}: lease of undeployed {gid}");
            assert!(
                bound.contains(gid),
                "{tag}: {gid} not bound on {}",
                inst.host
            );
        }
        registry += inst.leases.len();
    }
    let claimed: usize = d
        .graph_ids()
        .iter()
        .map(|g| d.graph_shared_leases(g).expect("deployed").len())
        .sum();
    assert_eq!(registry, claimed, "{tag}: registry vs per-graph claims");
    for name in d.serving_nodes() {
        let stray = d.node(&name).expect("node").shared_nnf_graphs("nat");
        let leased = d.shared_instances().iter().any(|i| i.host == name);
        assert!(
            leased || stray.is_empty(),
            "{tag}: {name} binds {stray:?} unleased"
        );
    }
}

fn rollback_case(entry: Entry, rejection: Rejection) {
    let tag = format!("{entry:?}/{rejection:?}");
    let mut d = mixed_fleet();
    let mut spec = svc(true);
    if rejection == Rejection::StartFails {
        d.undeploy("occ").expect("the occupier leaves");
        let vpn = spec.nfs.iter_mut().find(|nf| nf.id == "vpn").expect("vpn");
        vpn.config.params.remove("psk");
    }
    let empty = census(&d);

    // Arrange: bring the fleet to the state the entry point starts from.
    match entry {
        Entry::Deploy => {}
        Entry::Update => {
            // `z` holds the wan endpoint only; the stored hints will
            // send the NF the update adds there too.
            let hints = pins(&[("br1", "a"), ("vpn", "z")], &[("wan", "z")]);
            d.deploy_with(&svc(false), &hints).expect("base deploys");
        }
        Entry::Repair | Entry::Promote => {
            // With `c` down, wan lands on `z`; `vpn` runs on `b`. When
            // `b` dies the survivor-pinned plan puts `vpn` next to wan
            // on `z`; a from-scratch plan prefers `c` for both.
            d.fail_node("c").expect("c fails");
            d.deploy_with(&spec, &pins(&[("br1", "a"), ("vpn", "b")], &[]))
                .expect("svc deploys");
            assert_eq!(d.partition_of("svc").expect("deployed").parts.len(), 3);
            d.recover_node("c").expect("c recovers");
            if entry == Entry::Promote {
                d.suspect_node("b").expect("b suspected");
                assert_eq!(d.standby_graphs(), ["svc"]);
            }
        }
        Entry::Retry => {
            // `vpn` and wan run on `c`; when `c` dies the only other
            // eth1 is on `z`, which bounces the repair *and* its
            // from-scratch fallback: `svc` parks, with `z` still the
            // only place a retry can plan it onto.
            d.deploy_with(&spec, &pins(&[("br1", "a"), ("vpn", "c")], &[]))
                .expect("svc deploys");
            let report = d.fail_node("c").expect("c fails");
            assert_eq!(report.stranded, ["svc"]);
        }
    }
    assert!(d.verify().ok(), "{tag}: fleet verifies before the fault");
    let counter = match entry {
        Entry::Deploy | Entry::Retry => "deploys_rolled_back",
        Entry::Update => "updates_failed",
        Entry::Repair => "repairs_rolled_back",
        Entry::Promote => "standby_promotes_failed",
    };
    let rolled_back = d.trace.counter(counter);
    let before = census(&d);

    // Act: `z` rejects the part the plan sent it.
    match entry {
        Entry::Deploy => {
            let hints = pins(&[("br1", "a"), ("vpn", "z")], &[("wan", "z")]);
            let err = d.deploy_with(&spec, &hints).expect_err("z rejects vpn");
            assert!(
                matches!(&err, DomainError::Deploy { node, .. } if node == "z"),
                "{err}"
            );
        }
        Entry::Update => {
            let err = d.update(&spec).expect_err("z rejects vpn");
            assert!(
                matches!(&err, DomainError::Deploy { node, .. } if node == "z"),
                "{err}"
            );
        }
        Entry::Repair | Entry::Promote => {
            let report = d.fail_node("b").expect("b fails");
            assert_eq!(report.replaced, ["svc"], "{tag}: the fallback re-places");
            let repair = &report.repairs[0];
            assert!(
                repair.full_replace && !repair.standby_promoted,
                "{repair:?}"
            );
            assert_eq!(d.assignment_of("svc").expect("re-placed")["vpn"], "c");
        }
        Entry::Retry => {
            assert!(d.retry_pending().is_empty(), "{tag}: z rejects vpn again");
            assert_eq!(d.pending_graphs(), ["svc"]);
        }
    }

    // Assert: the fault left nothing behind.
    assert_eq!(
        d.trace.counter(counter),
        rolled_back + 1,
        "{tag}: {counter}"
    );
    let report = d.verify();
    assert!(report.ok(), "{tag}: {:#?}", report.violations);
    let full = un_verify::check::run(&d.verify_snapshot());
    assert!(full.ok(), "{tag}: {:#?}", full.violations);
    // A node failure re-verifies the whole fleet by design; every
    // other entry point must have dirtied only what it touched.
    let fleet_wide = matches!(entry, Entry::Repair | Entry::Promote);
    assert_eq!(
        report.mode,
        if fleet_wide { "full" } else { "incremental" },
        "{tag}"
    );
    assert_vids_conserved(&d, &tag);
    assert_leases_balance(&d, &tag);
    match entry {
        Entry::Deploy | Entry::Retry => assert_eq!(census(&d), before, "{tag}"),
        Entry::Update => assert_eq!(census(&d), empty, "{tag}: failed update undeploys"),
        Entry::Repair | Entry::Promote => {}
    }
    if d.graph("svc").is_none() {
        for name in d.serving_nodes() {
            let held = d.node(&name).expect("node").graph_ids();
            assert!(
                !held.iter().any(|g| g == "svc"),
                "{tag}: {name} still holds svc"
            );
        }
        assert!(d.link_reports().is_empty(), "{tag}: orphaned link state");
        assert!(d.shared_instances().is_empty(), "{tag}: orphaned lease");
    }

    // And once the operator cleans up, the substrate is as it began.
    for name in ["b", "c", "z"] {
        d.recover_node(name).expect("recovers");
    }
    if d.graph("svc").is_some() || !d.pending_graphs().is_empty() {
        d.undeploy("svc").expect("svc undeploys");
    }
    assert_eq!(census(&d), empty, "{tag}: residue after clean-up");
    assert_vids_conserved(&d, &tag);
    assert!(d.verify().ok(), "{tag}");
}

#[test]
fn rolled_back_commit_leaves_no_residue_from_any_entry_point() {
    for entry in [
        Entry::Deploy,
        Entry::Update,
        Entry::Repair,
        Entry::Promote,
        Entry::Retry,
    ] {
        rollback_case(entry, Rejection::Busy);
    }
    // The instance exists by the time `z` fails: the node's own
    // teardown is part of what must leave nothing behind.
    for entry in [Entry::Deploy, Entry::Update] {
        rollback_case(entry, Rejection::StartFails);
    }
}
