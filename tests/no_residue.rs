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
use un_domain::{DeployHints, Domain, PlacementStrategy};
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
    native_instances: usize,
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
                native_instances: n.compute.native.instance_count(),
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
