//! A fleet-shared NNF is one instance per functional type: nothing in
//! an NF's config selects a second instance of its type.

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, ShareKey, SharedClaim, SharingConfig};
use un_nffg::{NfConfig, NfFg, NfFgBuilder};
use un_sim::mem::mb;

/// One tenant NAT service from `home`, its NF carrying `extra` params
/// beside the addressing its shared binding needs.
fn nat_tenant(id: &str, vid: u16, wan_cidr: &str, extra: &[(&str, &str)]) -> NfFg {
    let mut cfg = NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", wan_cidr);
    for (k, v) in extra {
        cfg = cfg.with_param(k, v);
    }
    NfFgBuilder::new(id, "nat service")
        .vlan_endpoint("lan", "eth0", vid)
        .vlan_endpoint("wan", "eth1", vid)
        .nf_with_config("nat", "nat", 2, cfg)
        .chain("lan", &["nat"], "wan")
        .build()
}

fn home(node: &str) -> DeployHints {
    DeployHints {
        endpoint_node: [
            ("lan".to_string(), node.to_string()),
            ("wan".to_string(), node.to_string()),
        ]
        .into(),
        ..DeployHints::default()
    }
}

#[test]
fn a_share_capability_param_rides_the_one_instance_of_its_type() {
    let mut d = Domain::new(DomainConfig {
        sharing: SharingConfig::for_types(&["nat"]),
        ..DomainConfig::default()
    });
    for name in ["n1", "n2"] {
        let mut node = UniversalNode::new(name, mb(2048));
        node.add_physical_port("eth0");
        node.add_physical_port("eth1");
        d.add_node(node);
    }
    let plain = nat_tenant("plain", 11, "203.0.113.1/24", &[]);
    let tagged = nat_tenant(
        "tagged",
        12,
        "198.51.100.1/24",
        &[("share-capability", "cgnat")],
    );
    d.deploy_with(&plain, &home("n1")).unwrap();
    d.deploy_with(&tagged, &home("n1")).unwrap();

    // One instance, on one host, one lease per tenant.
    let instances = d.shared_instances();
    assert_eq!(instances.len(), 1, "{instances:?}");
    assert_eq!(instances[0].key, ShareKey::new("nat"));
    assert_eq!(instances[0].host, "n1");
    assert_eq!(instances[0].tenant_count(), 2);
    for gid in ["plain", "tagged"] {
        let leases = d.graph_shared_leases(gid).unwrap();
        let claim = SharedClaim {
            host: "n1".to_string(),
            nfs: 1,
        };
        assert_eq!(
            leases.into_iter().collect::<Vec<_>>(),
            [(ShareKey::new("nat"), claim)]
        );
    }
    // Node level: one NAT carries both bindings, and no node runs a
    // second one.
    let n1 = d.node("n1").unwrap();
    assert_eq!(n1.shared_nnf_graphs("nat"), ["plain", "tagged"]);
    assert_eq!(n1.total_instances(), 1);
    assert_eq!(d.node("n2").unwrap().total_instances(), 0);
    let report = d.verify();
    assert!(report.ok(), "{:?}", report.violations);
}
