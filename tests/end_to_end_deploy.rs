//! End-to-end integration: NF-FGs deployed in every technology, with
//! real traffic through the resulting chains.

use un_core::{DeployError, UniversalNode};
use un_nffg::{NfConfig, NfFgBuilder};
use un_packet::{MacAddr, PacketBuilder};
use un_sim::mem::mb;

fn node() -> UniversalNode {
    let mut n = UniversalNode::new("e2e", mb(4096));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    n
}

fn frame() -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1000, 2000)
        .payload(&[0xAB; 500])
        .build()
}

fn bridge_graph(flavor: &str) -> un_nffg::NfFg {
    NfFgBuilder::new("e2e-g", "bridge")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .with_flavor(flavor)
        .chain("lan", &["br"], "wan")
        .build()
}

#[test]
fn every_flavor_forwards_traffic() {
    for flavor in ["native", "docker", "vm"] {
        let mut n = node();
        let report = n.deploy(&bridge_graph(flavor)).unwrap();
        assert_eq!(report.placements[0].1.to_string(), flavor);
        let io = n.inject("eth0", frame());
        assert_eq!(io.emitted.len(), 1, "flavor {flavor} must forward");
        assert_eq!(io.emitted[0].0, "eth1");
        assert!(io.cost.as_nanos() > 0);
        n.undeploy("e2e-g").unwrap();
        assert_eq!(n.memory_used(), 0, "flavor {flavor} must release memory");
    }
}

#[test]
fn dpdk_flavor_forwards_traffic() {
    let mut n = node();
    let g = NfFgBuilder::new("fast", "dpdk chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("fwd", "l2fwd-fast", 2)
        .chain("lan", &["fwd"], "wan")
        .build();
    n.deploy(&g).unwrap();
    let io = n.inject("eth0", frame());
    assert_eq!(io.emitted.len(), 1);
    // DPDK path should be the cheapest of all flavors.
    let mut n2 = node();
    n2.deploy(&bridge_graph("native")).unwrap();
    let io_native = n2.inject("eth0", frame());
    assert!(io.cost < io_native.cost);
}

#[test]
fn two_graphs_coexist_with_vlan_classification() {
    let mut n = node();
    for (id, vid) in [("tenant-a", 100u16), ("tenant-b", 200)] {
        let g = NfFgBuilder::new(id, "vlan tenant")
            .vlan_endpoint("lan", "eth0", vid)
            .vlan_endpoint("wan", "eth1", vid)
            .nf("br", "bridge", 2)
            .chain("lan", &["br"], "wan")
            .build();
        n.deploy(&g).unwrap();
    }
    // Each tenant's tagged traffic exits re-tagged with its own VID.
    for vid in [100u16, 200] {
        let mut f = frame();
        f.vlan_push(vid).unwrap();
        let io = n.inject("eth0", f);
        assert_eq!(io.emitted.len(), 1, "vid {vid}");
        assert_eq!(io.emitted[0].1.vlan_id(), Some(vid));
    }
    // Unclassified (untagged) traffic is dropped at LSI-0.
    let io = n.inject("eth0", frame());
    assert!(io.emitted.is_empty());
}

#[test]
fn stateful_firewall_chain_blocks_and_allows() {
    let mut n = node();
    let mut cfg = NfConfig::default()
        .with_param("addr0", "10.0.0.254/24")
        .with_param("addr1", "10.1.0.254/24")
        .with_param("policy", "drop");
    let mut allow = std::collections::BTreeMap::new();
    allow.insert("action".into(), "accept".into());
    allow.insert("proto".into(), "udp".into());
    allow.insert("dport".into(), "2000".into());
    cfg.rules.push(allow);

    let g = NfFgBuilder::new("fw-g", "firewall")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf_with_config("fw", "firewall", 2, cfg)
        .with_flavor("native")
        .chain("lan", &["fw"], "wan")
        .build();
    n.deploy(&g).unwrap();

    // Routed firewall: give the NNF namespace a neighbor for the server.
    let (inst, _) = n.instance_of("fw-g", "fw").unwrap();
    let ns = n.compute.namespace_of(inst).unwrap();
    n.host
        .neigh_add(ns, "10.1.0.9".parse().unwrap(), MacAddr::local(9))
        .unwrap();
    let fw_mac = n.host.iface_by_name(ns, "port0").unwrap().mac;

    let mk = |dport: u16| {
        PacketBuilder::new()
            .ethernet(MacAddr::local(1), fw_mac)
            .ipv4("10.0.0.5".parse().unwrap(), "10.1.0.9".parse().unwrap())
            .udp(4000, dport)
            .payload(b"x")
            .build()
    };
    let allowed = n.inject("eth0", mk(2000));
    assert_eq!(allowed.emitted.len(), 1, "allowed port forwards");
    let blocked = n.inject("eth0", mk(23));
    assert!(blocked.emitted.is_empty(), "blocked port drops");
}

#[test]
fn deploy_failure_modes() {
    let mut n = node();
    // Graph asking for a flavor the template doesn't have.
    let g = NfFgBuilder::new("bad", "x")
        .interface_endpoint("lan", "eth0")
        .nf("fast", "l2fwd-fast", 2)
        .with_flavor("native")
        .rule_through("r1", 1, "lan", ("fast", 0))
        .rule_through("r2", 1, ("fast", 1), "lan")
        .build();
    assert!(matches!(n.deploy(&g), Err(DeployError::Compute(_))));
    // Node state is untouched after the failure.
    assert_eq!(n.memory_used(), 0);
    assert_eq!(n.compute.len(), 0);
    assert_eq!(n.total_flows(), 0);
}
