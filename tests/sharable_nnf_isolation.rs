//! The paper's sharable-NNF requirements, verified end-to-end through
//! the whole node: (i) the marking mechanism distinguishes per-graph
//! traffic, (ii) multiple internal paths keep the streams isolated.

use un_core::UniversalNode;
use un_nffg::{NfConfig, NfFgBuilder};
use un_packet::{MacAddr, PacketBuilder};
use un_sim::mem::mb;

fn customer(id: &str, vid: u16, wan_cidr: &str) -> un_nffg::NfFg {
    let mut cfg = NfConfig::default();
    // Deliberately identical LAN plans across customers.
    cfg.params
        .insert("lan-addr".into(), "192.168.1.1/24".into());
    cfg.params.insert("wan-addr".into(), wan_cidr.into());
    NfFgBuilder::new(id, "nat customer")
        .vlan_endpoint("lan", "eth0", vid)
        .vlan_endpoint("wan", "eth1", vid)
        .nf_with_config("nat", "nat", 2, cfg)
        .chain("lan", &["nat"], "wan")
        .build()
}

fn shared_node() -> (UniversalNode, u16, u16) {
    let mut n = UniversalNode::new("shared", mb(2048));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    n.deploy(&customer("c1", 11, "203.0.113.1/24")).unwrap();
    n.deploy(&customer("c2", 12, "198.51.100.1/24")).unwrap();
    // Upstream neighbor inside the shared NNF namespace.
    let (inst, _) = n.instance_of("c1", "nat").unwrap();
    let ns = n.compute.namespace_of(inst).unwrap();
    n.host
        .neigh_add(ns, "8.8.8.8".parse().unwrap(), MacAddr::local(0x99))
        .unwrap();
    (n, 11, 12)
}

fn query(vid: u16, sport: u16) -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
        .vlan(vid)
        .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
        .udp(sport, 53)
        .payload(b"query")
        .build()
}

#[test]
fn one_instance_serves_both_graphs() {
    let (n, _, _) = shared_node();
    let (i1, _) = n.instance_of("c1", "nat").unwrap();
    let (i2, _) = n.instance_of("c2", "nat").unwrap();
    assert_eq!(i1, i2, "both graphs must share the single NAT instance");
    assert_eq!(n.compute.binding_count(i1), 2);
}

/// What sharing buys: one native instance whatever the graph count,
/// for less memory than a container per graph.
#[test]
fn sharing_costs_less_than_a_container_per_graph() {
    let deploy = |flavor: Option<&str>| {
        let mut n = UniversalNode::new("cpe", mb(2048));
        n.add_physical_port("eth0");
        n.add_physical_port("eth1");
        for i in 1..=3u16 {
            let mut g = customer(&format!("c{i}"), 10 + i, &format!("203.0.{i}.1/24"));
            g.nfs[0].flavor = flavor.map(String::from);
            n.deploy(&g).unwrap();
        }
        (n.compute.len(), n.memory_used())
    };
    let (shared_instances, shared_ram) = deploy(None);
    let (docker_instances, docker_ram) = deploy(Some("docker"));
    assert_eq!((shared_instances, docker_instances), (1, 3));
    assert!(shared_ram < docker_ram, "{shared_ram} vs {docker_ram}");
}

#[test]
fn identical_inner_tuples_translate_independently() {
    let (mut n, vid1, vid2) = shared_node();

    let io1 = n.inject("eth0", query(vid1, 5000));
    let io2 = n.inject("eth0", query(vid2, 5000));
    assert_eq!(io1.emitted.len(), 1);
    assert_eq!(io2.emitted.len(), 1);

    // Marking: each graph's egress carries its own VLAN id.
    assert_eq!(io1.emitted[0].1.vlan_id(), Some(vid1));
    assert_eq!(io2.emitted[0].1.vlan_id(), Some(vid2));

    // Internal paths: same inner tuple, different NAT pools.
    let src = |pkt: &un_packet::Packet| {
        let mut p = pkt.clone();
        p.vlan_pop().unwrap();
        let eth = p.ethernet().unwrap();
        un_packet::Ipv4Packet::new_checked(eth.payload())
            .unwrap()
            .src()
    };
    assert_eq!(
        src(&io1.emitted[0].1),
        "203.0.113.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
    assert_eq!(
        src(&io2.emitted[0].1),
        "198.51.100.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
}

#[test]
fn no_cross_graph_leakage_under_load() {
    let (mut n, vid1, vid2) = shared_node();
    // Interleave 100 flows per customer; every egress frame must carry
    // the right tag for its graph, never the other one.
    for i in 0..100u16 {
        let io1 = n.inject("eth0", query(vid1, 10_000 + i));
        let io2 = n.inject("eth0", query(vid2, 10_000 + i));
        for (_, pkt) in &io1.emitted {
            assert_eq!(pkt.vlan_id(), Some(vid1), "flow {i} leaked from graph 1");
        }
        for (_, pkt) in &io2.emitted {
            assert_eq!(pkt.vlan_id(), Some(vid2), "flow {i} leaked from graph 2");
        }
    }
    // Conntrack state stayed zone-separated.
    let (inst, _) = n.instance_of("c1", "nat").unwrap();
    let ns = n.compute.namespace_of(inst).unwrap();
    let nsr = n.host.namespace(ns).unwrap();
    assert_eq!(nsr.conntrack.zone_conns(1).count(), 100);
    assert_eq!(nsr.conntrack.zone_conns(2).count(), 100);
}

#[test]
fn undeploying_one_graph_keeps_the_other_working() {
    let (mut n, vid1, vid2) = shared_node();
    n.inject("eth0", query(vid1, 5000));
    n.undeploy("c1").unwrap();

    // Customer 2 still flows.
    let io = n.inject("eth0", query(vid2, 6000));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].1.vlan_id(), Some(vid2));
    // Customer 1's traffic no longer goes anywhere.
    let io = n.inject("eth0", query(vid1, 7000));
    assert!(io.emitted.is_empty());

    // Undeploying the last user tears the shared instance down.
    n.undeploy("c2").unwrap();
    assert_eq!(n.compute.len(), 0);
    assert_eq!(n.memory_used(), 0);
}
