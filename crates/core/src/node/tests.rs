//! Orchestrator tests: deploy, steer, share, update, tear down.

use super::*;
use un_nffg::NfFgBuilder;
use un_sim::mem::mb;

fn node() -> UniversalNode {
    let mut n = UniversalNode::new("cpe-1", mb(2048));
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    n
}

fn bridge_graph(id: &str) -> un_nffg::NfFg {
    NfFgBuilder::new(id, "l2")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build()
}

fn frame(payload: &[u8]) -> Packet {
    un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1000, 2000)
        .payload(payload)
        .build()
}

#[test]
fn deploy_and_steer_through_native_bridge() {
    let mut n = node();
    let report = n.deploy(&bridge_graph("g1")).unwrap();
    assert_eq!(report.placements.len(), 1);
    assert_eq!(report.placements[0].1, Flavor::Native);
    assert!(report.flow_entries >= 6, "classification + chain rules");

    // LAN -> bridge NNF -> WAN.
    let io = n.inject("eth0", frame(b"hello"));
    assert_eq!(io.emitted.len(), 1, "exactly one egress");
    assert_eq!(io.emitted[0].0, "eth1");
    assert!(io.cost.as_nanos() > 0);

    // And back.
    let io = n.inject("eth1", frame(b"reply"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth0");
}

#[test]
fn undeploy_restores_clean_node() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    assert_eq!(n.graph_ids(), vec!["g1".to_string()]);
    let flows_before = n.total_flows();
    assert!(flows_before > 0);
    assert!(n.memory_used() > 0);

    n.undeploy("g1").unwrap();
    assert!(n.graph_ids().is_empty());
    assert_eq!(n.total_flows(), 0);
    assert_eq!(n.memory_used(), 0);
    // Traffic now dies at LSI-0.
    let io = n.inject("eth0", frame(b"x"));
    assert!(io.emitted.is_empty());
    // Slot is reusable.
    n.deploy(&bridge_graph("g2")).unwrap();
    assert_eq!(n.inject("eth0", frame(b"y")).emitted.len(), 1);
}

#[test]
fn deploy_validation_failures() {
    let mut n = node();
    // Unknown interface.
    let g = NfFgBuilder::new("g", "x")
        .interface_endpoint("lan", "eth9")
        .build();
    assert!(matches!(n.deploy(&g), Err(DeployError::NoSuchInterface(_))));
    // Invalid graph (no endpoints).
    let g = NfFgBuilder::new("g", "x").build();
    assert!(matches!(n.deploy(&g), Err(DeployError::Invalid(_))));
    // Unknown functional type.
    let g = NfFgBuilder::new("g", "x")
        .interface_endpoint("lan", "eth0")
        .nf("mystery", "quantum-dpi", 2)
        .rule_through("r1", 1, "lan", ("mystery", 0))
        .rule_through("r2", 1, ("mystery", 1), "lan")
        .build();
    assert!(matches!(n.deploy(&g), Err(DeployError::NoTemplate(_))));
    // Duplicate deploy.
    n.deploy(&bridge_graph("dup")).unwrap();
    assert!(matches!(
        n.deploy(&bridge_graph("dup")),
        Err(DeployError::AlreadyDeployed(_))
    ));
}

#[test]
fn endpoint_conflict_detected() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    // Second graph claiming eth0 untagged traffic must be refused.
    let g2 = NfFgBuilder::new("g2", "other")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build();
    assert!(matches!(
        n.deploy(&g2),
        Err(DeployError::EndpointConflict(_))
    ));
    // But VLAN endpoints on the same interface are fine.
    let g3 = NfFgBuilder::new("g3", "tagged")
        .vlan_endpoint("lan", "eth0", 42)
        .vlan_endpoint("wan", "eth1", 42)
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build();
    n.deploy(&g3).unwrap();
    // A VLAN of an interface has one owner too.
    let g4 = NfFgBuilder::new("g4", "same tag")
        .vlan_endpoint("lan", "eth0", 42)
        .vlan_endpoint("wan", "eth1", 43)
        .nf("br", "bridge", 2)
        .chain("lan", &["br"], "wan")
        .build();
    assert_eq!(
        n.deploy(&g4).unwrap_err(),
        DeployError::EndpointConflict("eth0.42".into())
    );

    // Tagged traffic reaches g3 and comes out re-tagged on eth1.
    let mut f = frame(b"tagged");
    f.vlan_push(42).unwrap();
    let io = n.inject("eth0", f);
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    assert_eq!(io.emitted[0].1.vlan_id(), Some(42));
}

/// A member of internal group `grp`, its LAN on VLAN `vid` of eth0.
fn member(id: &str, vid: u16) -> un_nffg::NfFg {
    NfFgBuilder::new(id, "group member")
        .vlan_endpoint("lan", "eth0", vid)
        .internal_endpoint("peer", "grp")
        .chain("lan", &[], "peer")
        .build()
}

/// The VLANs of eth0 on which a frame sent on VLAN `vid` of eth0 comes
/// back, in order.
fn heard(n: &mut UniversalNode, vid: u16) -> Vec<u16> {
    let mut f = frame(b"group");
    f.vlan_push(vid).unwrap();
    let io = n.inject("eth0", f);
    let out = io.emitted.iter().map(|(port, f)| {
        assert_eq!(port, "eth0");
        f.vlan_id().expect("tagged")
    });
    out.collect()
}

/// An internal group's rules are the group's: a member that leaves
/// takes its share of them along, and the next member to join hears
/// those who stayed.
#[test]
fn a_departed_group_member_leaves_no_rule_behind() {
    let mut n = node();
    n.deploy(&member("x0", 10)).unwrap();
    n.deploy(&member("b", 20)).unwrap();
    n.undeploy("x0").unwrap();
    n.deploy(&member("a", 30)).unwrap();
    assert_eq!(heard(&mut n, 20), [30]);
    assert_eq!(heard(&mut n, 30), [20]);
    assert_eq!(*n.frame_ledger(), FrameLedger::default());
    n.undeploy("a").unwrap();
    n.undeploy("b").unwrap();
    assert_eq!(n.total_flows(), 0);
}

/// An internal group is a hub: whatever one member sends reaches every
/// other, in join order, however many there are.
#[test]
fn an_internal_group_reaches_every_other_member() {
    let mut n = node();
    for (id, vid) in [("r1", 10), ("r2", 20), ("s", 30)] {
        n.deploy(&member(id, vid)).unwrap();
    }
    assert_eq!(heard(&mut n, 30), [10, 20]);
    assert_eq!(heard(&mut n, 10), [20, 30]);
    assert_eq!(heard(&mut n, 20), [10, 30]);
    n.undeploy("r1").unwrap();
    assert_eq!(heard(&mut n, 30), [20]);
}

/// A deploy that joins a group, then fails, leaves the group's rules
/// as they were, and the members still hear each other.
#[test]
fn a_failed_deploy_leaves_its_groups_rules_as_they_were() {
    let mut n = node();
    n.deploy(&bridge_graph("occ")).unwrap();
    n.deploy(&member("a", 10)).unwrap();
    n.deploy(&member("b", 20)).unwrap();
    let rules = |n: &UniversalNode| -> Vec<(u16, FlowMatch, Vec<FlowAction>, u64)> {
        let l0 = n.lsis().next().unwrap().1;
        let entries = l0.table().entries();
        entries
            .map(|e| (e.priority, e.matches.clone(), e.actions.to_vec(), e.cookie))
            .collect()
    };
    let before = rules(&n);
    let late = NfFgBuilder::new("late", "joins, then conflicts")
        .internal_endpoint("peer", "grp")
        .interface_endpoint("lan", "eth0")
        .chain("lan", &[], "peer")
        .build();
    assert_eq!(
        n.deploy(&late).unwrap_err(),
        DeployError::EndpointConflict("eth0".into())
    );
    assert_eq!(rules(&n), before);
    assert_eq!(heard(&mut n, 10), [20]);
}

/// A frame too short to carry an Ethernet header cannot take the VLAN
/// endpoint's tag, so it must not leave at all — not untagged, on the
/// interface's native VLAN. LSI-0 absorbs it and the ledger says so.
#[test]
fn a_frame_that_cannot_take_its_endpoint_tag_does_not_leave() {
    let mut n = node();
    let g = NfFgBuilder::new("g-tag", "zero-nf")
        .interface_endpoint("lan", "eth0")
        .vlan_endpoint("wan", "eth1", 100)
        .chain("lan", &[], "wan")
        .build();
    n.deploy(&g).unwrap();

    let io = n.inject("eth0", Packet::zeroed(10));
    assert!(io.emitted.is_empty(), "{:?}", io.emitted);
    let mut absorbed = FrameLedger::default();
    absorbed.absorbed = 1;
    assert_eq!(*n.frame_ledger(), absorbed);
    assert_eq!(n.lsi0_stats().dropped, 1);

    // A well-formed frame still leaves tagged.
    let io = n.inject("eth0", frame(b"x"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].1.vlan_id(), Some(100));
    assert_eq!(*n.frame_ledger(), absorbed);
}

#[test]
fn vm_flavor_hint_is_honored() {
    let mut n = node();
    let g = NfFgBuilder::new("g-vm", "forced-vm")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .with_flavor("vm")
        .chain("lan", &["br"], "wan")
        .build();
    let report = n.deploy(&g).unwrap();
    assert_eq!(report.placements[0].1, Flavor::Vm);
    // The VM path still forwards.
    let io = n.inject("eth0", frame(b"via-vm"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    // And costs more than the native path would (structural claim).
    let mut n2 = node();
    n2.deploy(&bridge_graph("g-native")).unwrap();
    let io_native = n2.inject("eth0", frame(b"via-nnf"));
    assert!(
        io.cost.as_nanos() > io_native.cost.as_nanos(),
        "VM {} vs native {}",
        io.cost.as_nanos(),
        io_native.cost.as_nanos()
    );
}

#[test]
fn admission_control_rolls_back() {
    let mut n = UniversalNode::new("tiny", mb(100)); // less than one VM
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    let g = NfFgBuilder::new("g", "heavy")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2)
        .with_flavor("vm")
        .chain("lan", &["br"], "wan")
        .build();
    assert!(matches!(
        n.deploy(&g),
        Err(DeployError::InsufficientMemory { .. })
    ));
    // Everything rolled back.
    assert_eq!(n.memory_used(), 0);
    assert!(n.graph_ids().is_empty());
    assert_eq!(n.compute.len(), 0);
    assert_eq!(n.total_flows(), 0);
}

#[test]
fn rule_only_update_in_place() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    let before_instances = n.compute.len();

    // Change a rule's priority: must not touch instances.
    let mut g2 = bridge_graph("g1");
    g2.flow_rules[0].priority = 99;
    let report = n.update(&g2).unwrap();
    assert_eq!(report.graph, "g1");
    assert_eq!(n.compute.len(), before_instances);
    assert_eq!(n.trace.counter("graph_updates_rules"), 1);
    assert_eq!(n.trace.counter("graph_updates_structural"), 0);
    // Traffic still flows.
    assert_eq!(n.inject("eth0", frame(b"x")).emitted.len(), 1);
}

#[test]
fn structural_update_redeploys() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    // Replace the bridge with a router-less chain of two bridges.
    let g2 = NfFgBuilder::new("g1", "two-bridges")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br-a", "bridge", 2)
        .nf("br-b", "bridge", 2)
        .chain("lan", &["br-a", "br-b"], "wan")
        .build();
    let report = n.update(&g2).unwrap();
    assert_eq!(report.placements.len(), 2);
    assert_eq!(n.trace.counter("graph_updates_structural"), 1);
    let io = n.inject("eth0", frame(b"through-two"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
}

#[test]
fn describe_and_diagram_reflect_architecture() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    let desc = n.describe();
    assert_eq!(desc.name, "cpe-1");
    assert_eq!(desc.graphs, vec!["g1".to_string()]);
    assert_eq!(desc.instances.len(), 1);
    assert!(desc.flavors.contains(&"native".to_string()));
    assert!(desc.nnfs.iter().any(|(t, s, _)| t == "nat" && *s));
    assert!(desc.memory_used > 0);

    let diagram = n.architecture_diagram();
    assert!(diagram.contains("LSI-0"));
    assert!(diagram.contains("LSI-g1"));
    assert!(diagram.contains("Native driver"));
    assert!(diagram.contains("virtual link"));
    assert!(diagram.contains("Compute manager"));
}

#[test]
fn the_diagram_names_the_driver_of_every_instance() {
    let mut n = node();
    let g = NfFgBuilder::new("g-mixed", "one NF per technology")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("a", "bridge", 2)
        .with_flavor("vm")
        .nf("b", "bridge", 2)
        .with_flavor("docker")
        .nf("c", "bridge", 2)
        .nf("d", "l2fwd-fast", 2)
        .chain("lan", &["a", "b", "c", "d"], "wan")
        .build();
    n.deploy(&g).unwrap();
    let diagram = n.architecture_diagram();
    for (nf, driver) in [
        ("a", "VM driver (libvirt/KVM)"),
        ("b", "Docker driver"),
        ("c", "Native driver (NNF)"),
        ("d", "DPDK driver"),
    ] {
        let (id, _) = n.instance_of("g-mixed", nf).unwrap();
        let line = format!("{id} 'g-mixed-{nf}' via {driver}\n");
        assert!(diagram.contains(&line), "{line} not in\n{diagram}");
    }
}

#[test]
fn three_node_chain_firewall_router_bridge() {
    let mut n = node();
    let mut fw_cfg = un_nffg::NfConfig::default()
        .with_param("addr0", "10.0.0.1/24")
        .with_param("addr1", "10.0.1.1/24")
        .with_param("policy", "accept")
        .with_param("stateful", "false");
    fw_cfg.params.insert("gw".into(), "10.0.1.2".into());
    let g = NfFgBuilder::new("g-chain", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    let _ = fw_cfg;
    let report = n.deploy(&g).unwrap();
    assert_eq!(report.placements.len(), 2);
    let io = n.inject("eth0", frame(b"chained"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
}

#[test]
fn inject_batch_equals_sequential_injects() {
    let mut seq = node();
    seq.deploy(&bridge_graph("g1")).unwrap();
    let mut seq_emitted: Vec<(Name, Packet)> = Vec::new();
    let mut seq_cost = un_sim::Cost::ZERO;
    for i in 0..10u8 {
        let io = seq.inject("eth0", frame(&[i]));
        seq_emitted.extend(io.emitted);
        seq_cost += io.cost;
    }

    let mut batched = node();
    batched.deploy(&bridge_graph("g1")).unwrap();
    let lan = batched.port_id("eth0").unwrap();
    let io = batched.inject_batch((0..10u8).map(|i| (lan, frame(&[i]))).collect());

    let flat = |v: &[(Name, Packet)]| -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = v
            .iter()
            .map(|(p, pkt)| (p.to_string(), pkt.data().to_vec()))
            .collect();
        out.sort();
        out
    };
    assert_eq!(flat(&io.emitted), flat(&seq_emitted));
    assert_eq!(io.cost, seq_cost, "batching must not change charged time");
}

#[test]
fn port_ids_resolve_physical_ports_only() {
    let n = node();
    assert!(n.port_id("eth0").is_some());
    assert!(n.port_id("eth1").is_some());
    assert!(n.port_id("ghost").is_none());
    assert_ne!(n.port_id("eth0"), n.port_id("eth1"));
}

#[test]
fn inject_on_an_unknown_port_is_a_typed_drop() {
    let mut n = node();
    let reason = DropReason::InjectUnknownPort;
    assert!(n.inject("eth9", frame(b"x")).emitted.is_empty());
    assert_eq!(n.frame_ledger().drops(reason), 1);
    // With a recorder the same drop leaves one hop; a ghost books nothing.
    for (ghost, booked) in [(false, 2), (true, 2)] {
        let sink = TraceSink::new("cpe-1", "eth9", ghost);
        assert!(n.ingress_port("eth9", Some(&sink)).is_none());
        assert_eq!(n.frame_ledger().drops(reason), booked, "ghost = {ghost}");
        let trace = sink.finish();
        assert_eq!(trace.drops(), vec![reason]);
        assert!(
            matches!(&trace.hops[0].kind, HopKind::Drop { detail, .. } if detail == "no port 'eth9'"),
            "{}",
            trace.render()
        );
    }
}

#[test]
fn flow_cache_stats_surface_in_description() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    for i in 0..4u8 {
        n.inject("eth0", frame(&[i]));
    }
    let stats = n.flow_cache_stats();
    assert!(stats.cache_hits > 0, "repeat flows must hit the cache");
    assert!(stats.cache_misses > 0, "first packet must miss");
    assert!(stats.hit_rate() > 0.0);
    let json = n.describe().to_json();
    assert!(json.contains("\"flow_cache_hits\""), "{json}");
    assert!(json.contains("\"flow_cache_misses\""), "{json}");
}

/// The orchestrator's own rules read `in_port` (and a vid at most), so
/// a steering node holds one cached decision per port in use however
/// many flows cross it — and says so in its description.
#[test]
fn a_steering_node_caches_per_port_not_per_flow() {
    let mut n = node();
    n.deploy(&bridge_graph("g1")).unwrap();
    let flows = 64u16;
    for i in 0..flows {
        let f = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1000 + i, 2000 + i)
            .build();
        assert_eq!(n.inject("eth0", f).emitted.len(), 1);
    }
    let stats = n.flow_cache_stats();
    let entries = n.flow_cache_entries() as u64;
    // Every lookup stage of the walk missed once, for the first flow.
    assert_eq!(entries, stats.cache_misses);
    assert_eq!(
        stats.cache_hits,
        stats.cache_misses * u64::from(flows - 1),
        "flows 2..n ride the first flow's decisions"
    );
    assert_eq!(n.describe().flow_cache_entries, entries);
    let json = n.describe().to_json();
    assert!(
        json.contains(&format!("\"flow_cache_entries\":{entries}")),
        "{json}"
    );
}

// ---------------------------------------------------------------------
// The walk, pinned: every kind of port a frame crosses on one node.
// ---------------------------------------------------------------------

/// One node with every kind of LSI port a walk crosses: physical ports,
/// virtual links, a dedicated NF's ports on a graph LSI and a shared
/// NAT's attach port on LSI-0. `chain` runs two dedicated bridges on
/// untagged eth0/eth1; `t10` and `t20` ride the shared NAT on VLANs 10
/// and 20; `left` and `right`, deployed first, are the two members of
/// internal group `grp` on VLAN 30, so every later LSI-0 port is
/// numbered after theirs.
fn every_port_node() -> UniversalNode {
    let mut n = node();
    let left = NfFgBuilder::new("left", "group member")
        .vlan_endpoint("lan", "eth0", 30)
        .internal_endpoint("peer", "grp")
        .chain("lan", &[], "peer")
        .build();
    let right = NfFgBuilder::new("right", "group member")
        .internal_endpoint("peer", "grp")
        .vlan_endpoint("wan", "eth1", 30)
        .chain("peer", &[], "wan")
        .build();
    let chain = NfFgBuilder::new("chain", "two dedicated bridges")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    let tenant = |id: &str, vid: u16, wan: &str| {
        NfFgBuilder::new(id, "shared NAT tenant")
            .vlan_endpoint("lan", "eth0", vid)
            .vlan_endpoint("wan", "eth1", vid)
            .nf_with_config("nat", "nat", 2, nat_config(wan))
            .chain("lan", &["nat"], "wan")
            .build()
    };
    let t10 = tenant("t10", 10, "203.0.113.1/24");
    let t20 = tenant("t20", 20, "198.51.100.1/24");
    for g in [left, right, chain, t10, t20] {
        n.deploy(&g).unwrap();
    }
    let (inst, _) = n.instance_of("t10", "nat").unwrap();
    let ns = n.compute.namespace_of(inst).unwrap();
    let far = "8.8.8.8".parse().unwrap();
    n.host.neigh_add(ns, far, MacAddr::local(0x99)).unwrap();
    n
}

/// A tenant frame from MAC `src` to 8.8.8.8, on `vid` if given.
fn tenant_frame(src: u32, vid: Option<u16>, tag: u8) -> Packet {
    let mut b = un_packet::PacketBuilder::new().ethernet(MacAddr::local(src), MacAddr::BROADCAST);
    if let Some(vid) = vid {
        b = b.vlan(vid);
    }
    b.ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
        .udp(5000 + u16::from(tag), 53)
        .payload(&[tag])
        .build()
}

/// A rendered trace without its wall-clock NF latencies.
fn without_latencies(trace: &str) -> String {
    let lines = trace
        .lines()
        .map(|line| match line.split_once(" latency=") {
            Some((head, _)) => format!("{head} latency=?"),
            None => line.to_string(),
        });
    lines.map(|l| l + "\n").collect()
}

/// One mixed burst through `every_port_node`, traced: the chain both
/// ways, two LAN frames of one NAT tenant and one of the other (two
/// runs across the shared attach port), a frame on the other tenant's
/// WAN side, which the NAT drops (it forwards only what it translates),
/// and a vid no graph owns. What leaves, in order, what it costs, the ledger, the
/// classifier counters and the trace (NF latencies are wall-clock, so
/// masked) are literals: change one only with the behaviour it pins.
/// A trace names each rule's cookie, and the group's rules carry the
/// group's, so the traced burst leaves the group alone; a frame across
/// it follows, untraced.
#[test]
fn a_walk_across_every_port_kind_is_pinned() {
    let mut n = every_port_node();
    let (eth0, eth1) = (n.port_id("eth0").unwrap(), n.port_id("eth1").unwrap());
    let burst = vec![
        (eth0, tenant_frame(1, None, 1)),
        (eth0, tenant_frame(5, Some(10), 2)),
        (eth0, tenant_frame(5, Some(20), 3)),
        (eth1, tenant_frame(3, None, 4)),
        (eth0, tenant_frame(5, Some(10), 5)),
        (eth1, tenant_frame(7, Some(20), 6)),
        (eth0, tenant_frame(1, Some(99), 7)),
    ];
    let sink = TraceSink::new("cpe-1", "eth0", false);
    let io = n.inject_batch_flight(burst, Some(&sink));
    let emitted: Vec<(String, String)> = io
        .emitted
        .iter()
        .map(|(port, p)| {
            let hex = p.data().iter().map(|b| format!("{b:02x}")).collect();
            (port.to_string(), hex)
        })
        .collect();
    let trace = without_latencies(&sink.finish().render());
    let expected_emitted = [
        ("eth1", "ffffffffffff02000000000108004500001d000000004011a90ec0a8010a08080808138900350009195c01"),
        ("eth0", "ffffffffffff02000000000308004500001d000000004011a90ec0a8010a08080808138c00350009165904"),
        ("eth1", "02000000009902000000000b8100000a08004500001d000000003f112fbfcb00710108080808138a003500099e0b02"),
        ("eth1", "02000000009902000000000b8100000a08004500001d000000003f112fbfcb00710108080808138d003500099b0805"),
        ("eth1", "02000000009902000000000b8100001408004500001d000000003f11418cc633640108080808138b00350009aed703"),
    ];
    let expected_emitted: Vec<(String, String)> = expected_emitted
        .iter()
        .map(|(port, hex)| (port.to_string(), hex.to_string()))
        .collect();
    assert_eq!(emitted, expected_emitted);
    assert_eq!(io.cost.as_nanos(), 17610);
    let mut absorbed = FrameLedger::default();
    absorbed.absorbed = 2;
    let counters: Vec<(&str, u64)> = n.frame_ledger().counters().collect();
    assert_eq!(counters, absorbed.counters().collect::<Vec<_>>());
    let stats = un_switch::TableStats {
        cache_hits: 6,
        cache_misses: 26,
        exact_hits: 25,
        megaflow_hits: 0,
        wildcard_hits: 0,
        misses: 1,
    };
    assert_eq!(n.flow_cache_stats(), stats);
    let expected_trace = "\
trace of frame @ cpe-1/eth0: 45 hop(s)
  [ 0] cpe-1        classify lsi=LSI-0 stage=exact cookie=0x6cede7764c1a3056 prio=5 outputs=1
  [ 1] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa709b1943bdfa92 prio=10 outputs=1
  [ 2] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa383b1943bae109 prio=10 outputs=1
  [ 3] cpe-1        classify lsi=LSI-0 stage=microflow cookie=0xa709b1943bdfa92 prio=10 outputs=1
  [ 4] cpe-1        classify lsi=LSI-0 stage=miss outputs=0
  [ 5] cpe-1        classify lsi=LSI-0 stage=exact cookie=0x6cede7764c1a3056 prio=5 outputs=1
  [ 6] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa383b1943bae109 prio=10 outputs=1
  [ 7] cpe-1        classify lsi=LSI-chain stage=exact cookie=0x77e1479077e2b360 prio=10 outputs=1
  [ 8] cpe-1        nf chain-br1 type=bridge flavor=native latency=?
  [ 9] cpe-1        classify lsi=LSI-chain stage=exact cookie=0xdfa6393a8ee775f prio=10 outputs=1
  [10] cpe-1        nf chain-br2 type=bridge flavor=native latency=?
  [11] cpe-1        classify lsi=LSI-chain stage=exact cookie=0xc5f4c18d7006dc5e prio=10 outputs=1
  [12] cpe-1        classify lsi=LSI-0 stage=exact cookie=0x6cede7764c1a3056 prio=5 outputs=1
  [13] cpe-1        egress port=eth1
  [14] cpe-1        classify lsi=LSI-chain stage=exact cookie=0xf002618d0dcad91e prio=10 outputs=1
  [15] cpe-1        nf chain-br2 type=bridge flavor=native latency=?
  [16] cpe-1        classify lsi=LSI-chain stage=exact cookie=0x988b4393e469ef7b prio=10 outputs=1
  [17] cpe-1        nf chain-br1 type=bridge flavor=native latency=?
  [18] cpe-1        classify lsi=LSI-chain stage=exact cookie=0xed53a7903c6793a0 prio=10 outputs=1
  [19] cpe-1        classify lsi=LSI-0 stage=exact cookie=0x6cede7764c1a3056 prio=5 outputs=1
  [20] cpe-1        egress port=eth0
  [21] cpe-1        classify lsi=LSI-t10 stage=exact cookie=0x53b706d84596dc5c prio=10 outputs=1
  [22] cpe-1        classify lsi=LSI-t10 stage=microflow cookie=0x53b706d84596dc5c prio=10 outputs=1
  [23] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa709b1943bdfa92 prio=20 outputs=1
  [24] cpe-1        classify lsi=LSI-0 stage=microflow cookie=0xa709b1943bdfa92 prio=20 outputs=1
  [25] cpe-1        nf shared-nat type=nat flavor=native latency=?
  [26] cpe-1        nf shared-nat type=nat flavor=native latency=?
  [27] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa709b1943bdfa92 prio=20 outputs=1
  [28] cpe-1        classify lsi=LSI-0 stage=microflow cookie=0xa709b1943bdfa92 prio=20 outputs=1
  [29] cpe-1        classify lsi=LSI-t10 stage=exact cookie=0x668a24ef79f3266b prio=10 outputs=1
  [30] cpe-1        classify lsi=LSI-t10 stage=microflow cookie=0x668a24ef79f3266b prio=10 outputs=1
  [31] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa709b1943bdfa92 prio=10 outputs=1
  [32] cpe-1        classify lsi=LSI-0 stage=microflow cookie=0xa709b1943bdfa92 prio=10 outputs=1
  [33] cpe-1        egress port=eth1
  [34] cpe-1        egress port=eth1
  [35] cpe-1        classify lsi=LSI-t20 stage=exact cookie=0xdc0eca9584516b3d prio=10 outputs=1
  [36] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa383b1943bae109 prio=20 outputs=1
  [37] cpe-1        nf shared-nat type=nat flavor=native latency=?
  [38] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa383b1943bae109 prio=20 outputs=1
  [39] cpe-1        classify lsi=LSI-t20 stage=exact cookie=0xa7e04cc002f24cb6 prio=10 outputs=1
  [40] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa383b1943bae109 prio=20 outputs=1
  [41] cpe-1        nf shared-nat type=nat flavor=native latency=?
  [42] cpe-1        classify lsi=LSI-t20 stage=exact cookie=0x1d42acbfc77579f6 prio=10 outputs=1
  [43] cpe-1        classify lsi=LSI-0 stage=exact cookie=0xa383b1943bae109 prio=10 outputs=1
  [44] cpe-1        egress port=eth1
";
    assert_eq!(trace, expected_trace);

    // Across the group, untraced: left's LAN on VLAN 30 to right's WAN.
    let io = n.inject("eth0", tenant_frame(9, Some(30), 8));
    let out: Vec<_> = io
        .emitted
        .iter()
        .map(|(p, f)| (p.to_string(), f.vlan_id()))
        .collect();
    assert_eq!(out, [("eth1".to_string(), Some(30))]);
    assert_eq!(io.cost.as_nanos(), 970);
}

// ---------------------------------------------------------------------
// The walk scratch: what one walk leaves in the node's buffers never
// reaches the next.
// ---------------------------------------------------------------------

/// A node on which every way a frame can die inside the fabric is one
/// VLAN away on eth0. Untagged frames cross a bridge to eth1 and back.
/// Vid 10 loops over four virtual links through two graphs' internal
/// groups until its TTL is spent (`FabricLoop`); vid 20 meets an LSI-0
/// rule that doubles it around a virtual link (`FabricWorkExhausted`);
/// vid 30 enters a graph whose slot is gone (`FabricDeadSlot`); vid 40
/// is steered to an LSI-0 port the node never mapped
/// (`L0UnmappedPort`). The last three are sabotage behind the
/// orchestrator's back: no NF-FG compiles to them.
fn every_death_node() -> UniversalNode {
    let mut n = node();
    let ring_a = NfFgBuilder::new("ring-a", "virtual-link cycle")
        .vlan_endpoint("lan", "eth0", 10)
        .internal_endpoint("x", "ring-x")
        .internal_endpoint("y", "ring-y")
        .rule_through("in", 10, "lan", "x")
        .rule_through("round", 10, "y", "x")
        .build();
    let ring_b = NfFgBuilder::new("ring-b", "virtual-link cycle")
        .internal_endpoint("x", "ring-x")
        .internal_endpoint("y", "ring-y")
        .rule_through("across", 10, "x", "y")
        .build();
    let amp = NfFgBuilder::new("amp", "amplifier")
        .vlan_endpoint("lan", "eth0", 20)
        .internal_endpoint("loop", "amp")
        .rule_through("in", 10, "lan", "loop")
        .rule_through("round", 10, "loop", "loop")
        .build();
    let gone = NfFgBuilder::new("gone", "dead slot")
        .vlan_endpoint("lan", "eth0", 30)
        .vlan_endpoint("wan", "eth1", 30)
        .chain("lan", &[], "wan")
        .build();
    for g in [bridge_graph("good"), ring_a, ring_b, amp, gone] {
        n.deploy(&g).unwrap();
    }
    let mut l0 = n.lsi(0).switch.ports();
    let amp_link = l0.find(|(_, p)| p.name == "vlink-amp-loop").unwrap().0;
    drop(l0);
    let twice = vec![FlowAction::Output(amp_link), FlowAction::Output(amp_link)];
    sabotage(n.lsi_mut(0), FlowMatch::in_port(amp_link), 30, twice);
    let at = n.graphs["gone"].lsi;
    n.lsis[at] = None;
    let stray = PortNo(999);
    let to_stray = FlowMatch::in_port(n.physical["eth0"]).with_vlan(VlanSpec::Id(40));
    let l0 = n.lsi_mut(0);
    l0.switch.add_port(stray, "stray").unwrap();
    sabotage(l0, to_stray, 10, vec![FlowAction::Output(stray)]);
    n
}

/// Install a rule no NF-FG compiles to, behind the orchestrator's back.
fn sabotage(lsi: &mut Lsi, m: FlowMatch, priority: u16, actions: Vec<FlowAction>) {
    let entry = FlowEntry::new(priority, m, actions);
    lsi.switch.install(0, entry).unwrap();
}

/// One frame for `every_death_node`, with the port it enters by: the
/// bridge both ways, each vid, or a port the node does not have.
fn any_frame(rng: &mut un_sim::DetRng, unknown_port: bool) -> (&'static str, Packet) {
    let kinds = if unknown_port { 7 } else { 6 };
    let kind = rng.index(kinds);
    let mut f = frame(&rng.next_u32().to_be_bytes());
    let port = match kind {
        0 => "eth0",
        1 => "eth1",
        6 => "eth9",
        tagged => {
            f.vlan_push(10 * (tagged as u16 - 1)).unwrap();
            "eth0"
        }
    };
    (port, f)
}

/// 64 random call sequences mixing good frames with every mid-walk
/// death, one frame at a time and in bursts. After each call the node,
/// whose walks share one scratch, emits the same bytes at the same cost
/// and books the same ledger as a twin handed a fresh scratch for every
/// call; and between calls the scratch holds no frame.
#[test]
fn a_reused_walk_scratch_changes_nothing() {
    let mut deaths = FrameLedger::default();
    for case in 0..64 {
        let mut rng = un_sim::DetRng::new(case);
        let (mut warm, mut twin) = (every_death_node(), every_death_node());
        for call in 0..8 {
            let tag = format!("case {case}, call {call}");
            twin.walk_scratch = WalkScratch::default();
            let (a, b) = if rng.chance(0.5) {
                let (port, f) = any_frame(&mut rng, true);
                (warm.inject(port, f.clone()), twin.inject(port, f))
            } else {
                let burst: Vec<_> = (0..1 + rng.index(6))
                    .map(|_| any_frame(&mut rng, false))
                    .collect();
                let ids = |n: &UniversalNode| -> Vec<(PortId, Packet)> {
                    let id = |port| n.port_id(port).unwrap();
                    burst.iter().map(|(p, f)| (id(p), f.clone())).collect()
                };
                let (for_warm, for_twin) = (ids(&warm), ids(&twin));
                (warm.inject_batch(for_warm), twin.inject_batch(for_twin))
            };
            let bytes = |io: &NodeIo| -> Vec<(Name, Vec<u8>)> {
                let out = io.emitted.iter();
                out.map(|(port, p)| (port.clone(), p.data().to_vec()))
                    .collect()
            };
            assert_eq!(bytes(&a), bytes(&b), "{tag}");
            assert_eq!(a.cost, b.cost, "{tag}");
            assert_eq!(warm.frame_ledger(), twin.frame_ledger(), "{tag}");
            assert!(
                warm.walk_scratch.is_clear(),
                "{tag}: a frame outlived its walk"
            );
        }
        deaths += *warm.frame_ledger();
    }
    for reason in [
        DropReason::FabricLoop,
        DropReason::FabricWorkExhausted,
        DropReason::FabricDeadSlot,
        DropReason::L0UnmappedPort,
        DropReason::InjectUnknownPort,
    ] {
        assert!(deaths.drops(reason) > 0, "no case died of {reason}");
    }
}

/// A node whose NF crossings hand back 0, 1 and 2 frames per input, on
/// eth0: untagged frames cross a three-port bridge — out eth1 and eth2
/// — that has learned MAC 1 on its eth0 port and MAC 3 on its eth1
/// port; vid 50 frames die in a firewall that forwards nothing.
fn fan_node() -> UniversalNode {
    let mut n = node();
    n.add_physical_port("eth2");
    let flood = NfFgBuilder::new("flood", "three-port bridge")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("a", "eth1")
        .interface_endpoint("b", "eth2")
        .nf("br", "bridge", 3)
        .rule_through("in", 10, "lan", ("br", 0))
        .rule_through("back", 10, ("br", 0), "lan")
        .rule_through("out-a", 10, ("br", 1), "a")
        .rule_through("in-a", 10, "a", ("br", 1))
        .rule_through("out-b", 10, ("br", 2), "b")
        .rule_through("in-b", 10, "b", ("br", 2))
        .build();
    let wall = NfFgBuilder::new("wall", "firewall sink")
        .vlan_endpoint("lan", "eth0", 50)
        .vlan_endpoint("wan", "eth1", 50)
        .nf("fw", "firewall", 2)
        .chain("lan", &["fw"], "wan")
        .build();
    for g in [flood, wall] {
        n.deploy(&g).unwrap();
    }
    // The bridge learns MAC 3 behind eth1, then MAC 1 behind eth0.
    n.inject("eth1", fan_frame(3, 1, 0));
    n.inject("eth0", fan_frame(1, 3, 0));
    n
}

/// A frame from MAC `src` to MAC `dst` carrying `tag`.
fn fan_frame(src: u32, dst: u32, tag: u32) -> Packet {
    un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(src), MacAddr::local(dst))
        .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
        .udp(1000, 2000)
        .payload(&tag.to_be_bytes())
        .build()
}

/// One frame into eth0 of `fan_node`, with how many frames its NF
/// crossing hands back: a flood (2), a learned unicast (1), a frame
/// for the port it came in by (0) or a firewalled one (0).
fn fan_input(rng: &mut un_sim::DetRng) -> (Packet, usize) {
    let tag = rng.next_u32();
    match rng.index(4) {
        0 => (fan_frame(1, 9, tag), 2),
        1 => (fan_frame(1, 3, tag), 1),
        2 => (fan_frame(1, 1, tag), 0),
        _ => {
            let mut f = fan_frame(1, 3, tag);
            f.vlan_push(50).unwrap();
            (f, 0)
        }
    }
}

/// 64 random call sequences of bursts that mix, within one NF crossing,
/// frames handing back 0, 1 and 2 frames each. After each call the node
/// — whose crossings reuse the walk scratch's flat buffers — emits the
/// same bytes at the same cost and books the same ledger as a twin
/// handed a fresh scratch for every call; the ledger's fan-out and
/// absorbed terms move by what each frame's crossing handed back, so a
/// per-frame boundary off by one shows; and between calls the scratch
/// holds no frame.
#[test]
fn a_reused_nf_crossing_changes_nothing() {
    for case in 0..64 {
        let mut rng = un_sim::DetRng::new(1000 + case);
        let (mut warm, mut twin) = (fan_node(), fan_node());
        let eth0 = warm.port_id("eth0").unwrap();
        for call in 0..8 {
            let tag = format!("case {case}, call {call}");
            twin.walk_scratch = WalkScratch::default();
            let burst: Vec<(Packet, usize)> =
                (0..1 + rng.index(6)).map(|_| fan_input(&mut rng)).collect();
            let before = *warm.frame_ledger();
            let frames = || burst.iter().map(|(f, _)| (eth0, f.clone())).collect();
            let (a, b) = (warm.inject_batch(frames()), twin.inject_batch(frames()));
            let bytes = |io: &NodeIo| -> Vec<(Name, Vec<u8>)> {
                let out = io.emitted.iter();
                out.map(|(port, p)| (port.clone(), p.data().to_vec()))
                    .collect()
            };
            assert_eq!(bytes(&a), bytes(&b), "{tag}");
            assert_eq!(a.cost, b.cost, "{tag}");
            assert_eq!(warm.frame_ledger(), twin.frame_ledger(), "{tag}");
            let after = warm.frame_ledger();
            let handed_back = burst.iter().map(|(_, k)| *k);
            let absorbed = handed_back.clone().filter(|k| *k == 0).count() as u64;
            let fanned = handed_back
                .clone()
                .map(|k| k.saturating_sub(1))
                .sum::<usize>();
            assert_eq!(after.absorbed - before.absorbed, absorbed, "{tag}");
            assert_eq!(
                after.fanout_extra - before.fanout_extra,
                fanned as u64,
                "{tag}"
            );
            assert_eq!(a.emitted.len(), handed_back.sum::<usize>(), "{tag}");
            assert!(
                warm.walk_scratch.is_clear(),
                "{tag}: a frame outlived its walk"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Failure injection: every way a deploy can fail, for every way an NF
// can be placed. Whatever `build` took before the failure, `teardown`
// gives back — and the node serves the next tenant as if nothing had
// happened.
// ---------------------------------------------------------------------

/// How the NF under test is realized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Subject {
    /// Native IPsec: a dedicated singleton.
    NativeNew,
    /// The node's first NAT: creates the shared instance.
    NativeNewShared,
    /// A NAT joining the shared instance another graph created.
    NativeShare,
    /// IPsec in a container.
    Docker,
    /// IPsec in a virtual machine.
    Vm,
    /// A DPDK fast-path forwarder.
    Dpdk,
}

impl Subject {
    fn is_ipsec(self) -> bool {
        matches!(self, Subject::NativeNew | Subject::Docker | Subject::Vm)
    }
}

/// Where the deploy fails.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Failure {
    /// The driver refuses `create`: the image is not in its store.
    Create,
    /// A config parameter the NF needs is missing: the config does not
    /// compile, in a VM's guest as in a namespace of its own.
    Start,
    /// The binding would lack the graph's LAN address: the shared NAT's
    /// config does not compile.
    Bind,
    /// Every NF runs, then memory admission refuses the graph.
    Memory,
    /// NFs placed and one endpoint wired, then the second endpoint
    /// claims untagged traffic another graph owns.
    Conflict,
    /// As `Conflict`, after joining an internal group.
    GroupThenConflict,
}

impl Failure {
    fn applies_to(self, subject: Subject) -> bool {
        use Subject::*;
        match self {
            Failure::Create => matches!(subject, Docker | Vm),
            Failure::Start => subject.is_ipsec(),
            Failure::Bind => matches!(subject, NativeNewShared | NativeShare),
            Failure::Memory | Failure::Conflict | Failure::GroupThenConflict => true,
        }
    }
}

/// Everything a deploy can take on the node.
#[derive(Debug, PartialEq)]
struct Census {
    graphs: Vec<String>,
    namespaces: usize,
    ifaces: usize,
    ledger_accounts: usize,
    memory: u64,
    instances: usize,
    driver_instances: [usize; 4],
    lsi0_ports: usize,
    flows: usize,
    shared_types: Vec<String>,
    bindings: usize,
    group_members: usize,
    nf_histograms: usize,
}

fn census(n: &UniversalNode) -> Census {
    Census {
        graphs: n.graph_ids(),
        namespaces: n.host.namespace_count(),
        ifaces: n.host.iface_count(),
        ledger_accounts: n.ledger.live_accounts(),
        memory: n.memory_used(),
        instances: n.total_instances(),
        driver_instances: n.compute.drivers().map(|d| d.instance_count()),
        lsi0_ports: n.lsis().next().unwrap().1.port_count(),
        flows: n.total_flows(),
        shared_types: n.shared_nnf_types().map(String::from).collect(),
        bindings: n
            .shared_nnf_types()
            .map(|ft| n.shared_nnf_graphs(ft).len())
            .sum(),
        group_members: n.groups().values().map(Vec::len).sum(),
        nf_histograms: n.obs_nf_hist.len(),
    }
}

fn ipsec_config() -> un_nffg::NfConfig {
    un_nffg::NfConfig::default()
        .with_param("psk", "hunter2")
        .with_param("local-addr", "192.0.2.1")
        .with_param("peer-addr", "192.0.2.2")
        .with_param("protected-local", "192.168.1.0/24")
        .with_param("protected-remote", "172.16.0.0/16")
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", "192.0.2.1/24")
}

fn nat_config(wan: &str) -> un_nffg::NfConfig {
    un_nffg::NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", wan)
}

/// `lan → nf → wan` on VLAN 100 of eth0/eth1 with the NF `subject`
/// names — sabotaged, if asked, so that its deploy fails at `failure`.
fn subject_graph(id: &str, subject: Subject, failure: Option<Failure>) -> un_nffg::NfFg {
    let (functional_type, mut config) = match subject {
        Subject::Dpdk => ("l2fwd-fast", un_nffg::NfConfig::default()),
        _ if subject.is_ipsec() => ("ipsec", ipsec_config()),
        _ => ("nat", nat_config("203.0.113.1/24")),
    };
    match failure {
        Some(Failure::Start) => config.params.remove("psk"),
        Some(Failure::Bind) => config.params.remove("lan-addr"),
        _ => None,
    };
    let mut b = NfFgBuilder::new(id, "failure injection");
    if failure == Some(Failure::GroupThenConflict) {
        b = b.internal_endpoint("peer", "grp");
    }
    b = match failure {
        Some(Failure::Conflict | Failure::GroupThenConflict) => b
            .vlan_endpoint("lan", "eth0", 100)
            .interface_endpoint("wan", "eth1"),
        _ => b
            .vlan_endpoint("lan", "eth0", 100)
            .vlan_endpoint("wan", "eth1", 100),
    };
    b = b.nf_with_config("nf", functional_type, 2, config);
    b = match subject {
        Subject::Docker => b.with_flavor("docker"),
        Subject::Vm => b.with_flavor("vm"),
        _ => b,
    };
    let mut chain = vec!["nf"];
    if failure == Some(Failure::Memory) {
        // A VM the node has no room for, placed after the NF under test.
        b = b.nf("heavy", "bridge", 2).with_flavor("vm");
        chain.push("heavy");
    }
    b.chain("lan", &chain, "wan").build()
}

/// A node just big enough for the NF under test but not for a second
/// VM beside it, in the state the cell starts from.
fn arranged(subject: Subject, failure: Failure) -> UniversalNode {
    let room = match subject {
        Subject::Vm => mb(500),
        Subject::Dpdk => mb(400),
        _ => mb(200),
    };
    let mut n = UniversalNode::new("cpe-1", room);
    n.add_physical_port("eth0");
    n.add_physical_port("eth1");
    n.set_obs(un_obs::Obs::enabled());
    if subject == Subject::NativeShare {
        let host = NfFgBuilder::new("host", "first NAT tenant")
            .vlan_endpoint("lan", "eth0", 50)
            .vlan_endpoint("wan", "eth1", 50)
            .nf_with_config("nat", "nat", 2, nat_config("198.51.100.1/24"))
            .chain("lan", &["nat"], "wan")
            .build();
        n.deploy(&host).unwrap();
    }
    match failure {
        Failure::Conflict | Failure::GroupThenConflict => {
            n.deploy(&bridge_graph("occ")).unwrap();
        }
        Failure::Create => {
            n.compute.docker.registry = un_container::Registry::new();
            n.compute.vm.hypervisor.images = un_hypervisor::VmImageStore::new();
        }
        _ => {}
    }
    n
}

/// Send one tenant frame through `good`'s NF; the egress count.
fn forwards(n: &mut UniversalNode, subject: Subject) -> usize {
    let (inst, _) = n.instance_of("good", "nf").expect("placed");
    let ipsec = subject.is_ipsec();
    // The next hop is off-node: ARP cannot resolve it in the simulation.
    let (next_hop, dst) = match ipsec {
        true => ("192.0.2.2", "172.16.0.9"),
        false => ("8.8.8.8", "8.8.8.8"),
    };
    if let Some(ns) = n.compute.namespace_of(inst) {
        n.host
            .neigh_add(ns, next_hop.parse().unwrap(), MacAddr::local(0x99))
            .unwrap();
    }
    // An IPsec endpoint in the host kernel is a routed hop.
    let lan_port = n.compute.port_iface(inst, 0).filter(|_| ipsec);
    let lan_mac = match lan_port.and_then(|iface| n.host.iface(iface)) {
        Some(iface) => iface.mac,
        None => MacAddr::BROADCAST,
    };
    let pkt = un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(5), lan_mac)
        .vlan(100)
        .ipv4("192.168.1.10".parse().unwrap(), dst.parse().unwrap())
        .udp(5000, 53)
        .payload(b"tenant")
        .build();
    let io = n.inject("eth0", pkt);
    assert!(io.emitted.iter().all(|(port, _)| port == "eth1"));
    io.emitted.len()
}

/// A graph with two NATs rides the node's one shared instance twice,
/// as two bindings told apart by their marks: nat1 masquerades toward
/// nat2's LAN address, nat2 out eth1. Undeploy gives everything back.
#[test]
fn one_graph_rides_a_shared_nnf_twice() {
    let mut n = node();
    let before = census(&n);
    let nat1 = nat_config("203.0.113.1/24").with_param("wan-gw", "203.0.113.2");
    let nat2 = un_nffg::NfConfig::default()
        .with_param("lan-addr", "203.0.113.2/24")
        .with_param("wan-addr", "198.51.100.1/24");
    let g = NfFgBuilder::new("g", "two NATs")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf_with_config("nat1", "nat", 2, nat1)
        .nf_with_config("nat2", "nat", 2, nat2)
        .chain("lan", &["nat1", "nat2"], "wan")
        .build();
    n.deploy(&g).unwrap();
    let (inst, _) = n.instance_of("g", "nat1").unwrap();
    assert_eq!(n.instance_of("g", "nat2").unwrap().0, inst);
    assert_eq!(n.shared_nnf_graphs("nat"), ["g", "g"]);

    // Sub-interfaces share the attachment port's MAC, so nat1 reaches
    // its gateway, nat2's LAN side, at that MAC.
    let ns = n.compute.namespace_of(inst).unwrap();
    let attach = n.compute.port_iface(inst, 0).unwrap();
    let attach_mac = n.host.iface(attach).unwrap().mac;
    for (next_hop, mac) in [
        ("203.0.113.2", attach_mac),
        ("8.8.8.8", MacAddr::local(0x99)),
    ] {
        n.host
            .neigh_add(ns, next_hop.parse().unwrap(), mac)
            .unwrap();
    }
    let pkt = un_packet::PacketBuilder::new()
        .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
        .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
        .udp(5000, 53)
        .payload(b"tenant")
        .build();
    let io = n.inject("eth0", pkt);
    assert_eq!(io.emitted.len(), 1);
    let (port, out) = &io.emitted[0];
    assert_eq!(port, "eth1");
    let eth = out.ethernet().unwrap();
    let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
    assert_eq!(
        ip.src(),
        "198.51.100.1".parse::<std::net::Ipv4Addr>().unwrap()
    );

    n.undeploy("g").unwrap();
    assert_eq!(census(&n), before);
}

/// One port does not make a NAT shared: hinted onto Docker it is a
/// dedicated NAT, which needs two ports, and its start refuses one
/// without a trace on the node.
#[test]
fn a_one_port_dedicated_nat_is_refused_at_start() {
    let mut n = node();
    let before = census(&n);
    let g = NfFgBuilder::new("g", "one-port NAT")
        .interface_endpoint("lan", "eth0")
        .nf_with_config("nat", "nat", 1, nat_config("203.0.113.1/24"))
        .with_flavor("docker")
        .rule_through("in", 1, "lan", ("nat", 0))
        .rule_through("out", 1, ("nat", 0), "lan")
        .build();
    let refusal = un_nnf::NnfError::NotEnoughPorts { need: 2, have: 1 };
    let refusal = ComputeError::Substrate(refusal.to_string());
    assert_eq!(n.deploy(&g).unwrap_err(), refusal.into());
    assert_eq!(census(&n), before);
}

/// Every flavor creates the ports the graph wires, so a one-port bridge
/// is refused alike on each: its start needs two, and the node keeps no
/// trace of it.
#[test]
fn a_one_port_bridge_is_refused_on_every_flavor() {
    for flavor in ["native", "docker", "vm"] {
        let mut n = node();
        let before = census(&n);
        let g = NfFgBuilder::new("g", "one-port bridge")
            .interface_endpoint("lan", "eth0")
            .nf("br", "bridge", 1)
            .with_flavor(flavor)
            .rule_through("in", 1, "lan", ("br", 0))
            .rule_through("out", 1, ("br", 0), "lan")
            .build();
        let refusal = un_nnf::NnfError::NotEnoughPorts { need: 2, have: 1 };
        let refusal = ComputeError::Substrate(refusal.to_string());
        assert_eq!(n.deploy(&g).unwrap_err(), refusal.into(), "{flavor}");
        assert_eq!(census(&n), before, "{flavor}");
    }
}

/// `deploy_compiled` trusts no caller to have compiled every NF: one
/// whose type runs a program but has no entry in the map is refused
/// before its instance is created, on every flavor, DPDK's fast path
/// included.
#[test]
fn an_nf_handed_no_program_is_refused() {
    for flavor in ["native", "docker", "vm"] {
        let mut n = node();
        let before = census(&n);
        let mut g = bridge_graph("g");
        g.nfs[0].flavor = Some(flavor.into());
        let err = n.deploy_compiled(&g, &Programs::new()).unwrap_err();
        assert_eq!(err, DeployError::NotCompiled("br".into()), "{flavor}");
        assert_eq!(census(&n), before, "{flavor}");
    }
    let mut n = node();
    let before = census(&n);
    let g = NfFgBuilder::new("g", "fast path")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("fwd", "l2fwd-fast", 2)
        .chain("lan", &["fwd"], "wan")
        .build();
    let err = n.deploy_compiled(&g, &Programs::new()).unwrap_err();
    assert_eq!(err, DeployError::NotCompiled("fwd".into()), "dpdk");
    assert_eq!(census(&n), before, "dpdk");
}

/// Every implementation the repository lists deploys: for each row and
/// each flavor it offers, a one-NF graph hinted to that flavor lands on
/// it, runs its command list in a namespace from an image, and leaves
/// the node as it found it. A hint for a flavor the row lacks is
/// refused.
#[test]
fn every_implementation_the_repository_lists_deploys() {
    let mut n = node();
    let before = census(&n);
    let rows: Vec<_> = n.compute.repository().iter().cloned().collect();
    let mut deployed = 0;
    for row in &rows {
        let config = match row.name() {
            "ipsec" => ipsec_config(),
            "nat" => nat_config("203.0.113.1/24"),
            _ => un_nffg::NfConfig::default(),
        };
        for flavor in [Flavor::Native, Flavor::Docker, Flavor::Vm, Flavor::Dpdk] {
            let tag = format!("{} on {flavor}", row.name());
            let g = NfFgBuilder::new("g", "one implementation")
                .interface_endpoint("lan", "eth0")
                .interface_endpoint("wan", "eth1")
                .nf_with_config("nf", row.name(), 2, config.clone())
                .with_flavor(&flavor.to_string())
                .chain("lan", &["nf"], "wan")
                .build();
            let deploy = n.deploy(&g);
            if row.spec_for(flavor).is_none() {
                let refusal = match flavor {
                    Flavor::Native => ComputeError::NoSuchNnf(row.name().to_string()),
                    _ => ComputeError::Unsupported(format!(
                        "'{}' has no {flavor} flavor",
                        row.name()
                    )),
                };
                assert_eq!(deploy.unwrap_err(), refusal.into(), "{tag}");
                assert_eq!(census(&n), before, "{tag}");
                continue;
            }
            let report = deploy.unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(report.placements[0].1, flavor, "{tag}");
            assert!(n.nf_image_footprint("g", "nf") > 0, "{tag}");
            let (instance, _) = n.instance_of("g", "nf").unwrap();
            assert!(n.compute.namespace_of(instance).is_some(), "{tag}");
            n.undeploy("g").unwrap();
            assert_eq!(census(&n), before, "{tag}");
            deployed += 1;
        }
    }
    assert_eq!(
        deployed,
        5 * 3 + 1,
        "five CPE types in three flavors, one DPDK"
    );
}

#[test]
fn a_failed_deploy_leaves_the_node_as_it_found_it() {
    use Failure::*;
    use Subject::*;
    let mut cells = 0;
    for subject in [NativeNew, NativeNewShared, NativeShare, Docker, Vm, Dpdk] {
        for failure in [Create, Start, Bind, Memory, Conflict, GroupThenConflict] {
            if !failure.applies_to(subject) {
                continue;
            }
            cells += 1;
            let tag = format!("{subject:?} x {failure:?}");
            let mut n = arranged(subject, failure);
            let before = census(&n);

            let err = n
                .deploy(&subject_graph("broken", subject, Some(failure)))
                .expect_err(&tag);
            match failure {
                Create => {
                    assert!(matches!(err, DeployError::Compute(_)), "{tag}: {err}")
                }
                Start | Bind => {
                    assert!(matches!(err, DeployError::NfConfig { .. }), "{tag}: {err}")
                }
                Memory => assert!(
                    matches!(err, DeployError::InsufficientMemory { .. }),
                    "{tag}: {err}"
                ),
                Conflict | GroupThenConflict => {
                    assert!(
                        matches!(err, DeployError::EndpointConflict(_)),
                        "{tag}: {err}"
                    )
                }
            }
            assert_eq!(census(&n), before, "{tag}: the failed deploy left residue");

            // The next tenant of the same NF type finds the node a twin
            // that never saw the failure would offer. (With no image in
            // any store that tenant goes native.)
            let next = if failure == Create {
                NativeNew
            } else {
                subject
            };
            let good = subject_graph("good", next, None);
            let mut twin = arranged(subject, failure);
            n.deploy(&good).unwrap_or_else(|e| panic!("{tag}: {e}"));
            twin.deploy(&good).expect("the twin deploys");
            assert_eq!(forwards(&mut n, next), 1, "{tag}: the next tenant forwards");
            assert_eq!(forwards(&mut twin, next), 1, "{tag}: the twin forwards");
            assert_eq!(census(&n), census(&twin), "{tag}: differs from its twin");
            n.undeploy("good").unwrap();
            twin.undeploy("good").unwrap();
            assert_eq!(census(&n), census(&twin), "{tag}: after that tenant left");
            // A shared instance outlives the guest, latency histogram
            // and all; everything else is as it was before the failure.
            if subject != NativeShare {
                assert_eq!(census(&n), before, "{tag}: after that tenant left");
            }
        }
    }
    assert_eq!(cells, 25);
}

/// `lan → nat → wan` on eth0 / eth1, in `flavor` if given.
fn nat_graph(id: &str, config: un_nffg::NfConfig, flavor: Option<&str>) -> un_nffg::NfFg {
    let mut b = NfFgBuilder::new(id, "one NAT")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf_with_config("nat", "nat", 2, config);
    if let Some(flavor) = flavor {
        b = b.with_flavor(flavor);
    }
    b.chain("lan", &["nat"], "wan").build()
}

/// A shared binding's mark is the lowest no live binding holds, so its
/// VLAN pair never runs out however often tenants come and go: 2100
/// deploy / undeploy cycles of one NAT graph each forward their frame.
/// (Marks that only ever grew put the 1998th binding's LAN side on VLAN
/// 4096, which a 12-bit tag carries as 0.)
#[test]
fn a_departed_bindings_mark_is_taken_again() {
    let mut n = node();
    let before = census(&n);
    let g = nat_graph("g", nat_config("203.0.113.1/24"), None);
    for cycle in 0..2100 {
        n.deploy(&g)
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        let (inst, _) = n.instance_of("g", "nat").unwrap();
        let ns = n.compute.namespace_of(inst).unwrap();
        let far = "8.8.8.8".parse().unwrap();
        n.host.neigh_add(ns, far, MacAddr::local(0x99)).unwrap();
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
            .ipv4("192.168.1.10".parse().unwrap(), far)
            .udp(5000, 53)
            .payload(b"tenant")
            .build();
        let io = n.inject("eth0", pkt);
        assert_eq!(io.emitted.len(), 1, "cycle {cycle}");
        assert_eq!(io.emitted[0].0, "eth1", "cycle {cycle}");
        n.undeploy("g").unwrap();
    }
    assert_eq!(census(&n), before);
}

/// Marks come from the adaptation layers: with 1996 bindings live on the
/// shared NAT, the next one's WAN-side VLAN id would pass 4094, and the
/// deploy is refused with a typed error that leaves nothing behind.
#[test]
fn a_binding_past_the_last_vlan_is_refused() {
    let mut n = node();
    let config = nat_config("203.0.113.1/24");
    for i in 0..1996 {
        let id = format!("g{i}");
        let g = NfFgBuilder::new(&id, "one NAT")
            .vlan_endpoint("lan", "eth0", 1 + (i % 4000) as u16)
            .vlan_endpoint("wan", "eth1", 1 + (i % 4000) as u16)
            .nf_with_config("nat", "nat", 2, config.clone())
            .chain("lan", &["nat"], "wan")
            .build();
        n.deploy(&g).unwrap_or_else(|e| panic!("{id}: {e}"));
    }
    let before = census(&n);
    let g = NfFgBuilder::new("last", "one NAT too many")
        .vlan_endpoint("lan", "eth0", 4001)
        .vlan_endpoint("wan", "eth1", 4001)
        .nf_with_config("nat", "nat", 2, config)
        .chain("lan", &["nat"], "wan")
        .build();
    assert_eq!(n.deploy(&g).unwrap_err(), DeployError::NoFreeMark);
    assert_eq!(census(&n), before);
    // One tenant leaves: its mark is free, and the newcomer takes it.
    n.undeploy("g7").unwrap();
    n.deploy(&g).unwrap();
}

/// A NAT's port forwards are part of its config in every flavor: a WAN
/// frame to `wan-addr:8080` leaves on the LAN side rewritten to
/// `192.168.1.20:80`, and a LAN host's frame to an outside server's
/// port 8080 leaves on the WAN side for that server, whether the NAT is
/// the node's shared native instance or a dedicated one in a container
/// or a VM: either way the forward takes only what arrives on the WAN
/// side.
#[test]
fn a_nat_forwards_its_ports_in_every_flavor() {
    let mut config = nat_config("203.0.113.1/24");
    let web: std::collections::BTreeMap<String, String> = [
        ("kind", "dnat"),
        ("dport", "8080"),
        ("to", "192.168.1.20"),
        ("to-port", "80"),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    config.rules.push(web);
    for flavor in [None, Some("docker"), Some("vm")] {
        let mut n = node();
        let before = census(&n);
        n.deploy(&nat_graph("g", config.clone(), flavor)).unwrap();
        let (inst, placed) = n.instance_of("g", "nat").unwrap();
        let tag = format!("{placed}");
        let ns = n.compute.namespace_of(inst).unwrap();
        let server = "192.168.1.20".parse().unwrap();
        n.host.neigh_add(ns, server, MacAddr::local(0x20)).unwrap();
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
            .ipv4(
                "198.51.100.7".parse().unwrap(),
                "203.0.113.1".parse().unwrap(),
            )
            .udp(5555, 8080)
            .payload(b"GET /")
            .build();
        let io = n.inject("eth1", pkt);
        assert_eq!(io.emitted.len(), 1, "{tag}");
        let (port, out) = &io.emitted[0];
        assert_eq!(port, "eth0", "{tag}");
        let eth = out.ethernet().unwrap();
        let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst(), server, "{tag}");
        let udp = un_packet::udp::UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(udp.dst_port(), 80, "{tag}");

        // A LAN host's flow to an outside server on the forwarded port
        // leaves for that server, masqueraded, not hairpinned inside.
        let far = "203.0.113.9".parse().unwrap();
        n.host.neigh_add(ns, far, MacAddr::local(0x09)).unwrap();
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(6), MacAddr::BROADCAST)
            .ipv4("192.168.1.5".parse().unwrap(), far)
            .udp(5556, 8080)
            .payload(b"GET /")
            .build();
        let io = n.inject("eth0", pkt);
        assert_eq!(io.emitted.len(), 1, "{tag}");
        let (port, out) = &io.emitted[0];
        assert_eq!(port, "eth1", "{tag}");
        let eth = out.ethernet().unwrap();
        let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst(), far, "{tag}");
        let wan: std::net::Ipv4Addr = "203.0.113.1".parse().unwrap();
        assert_eq!(ip.src(), wan, "{tag}");
        let udp = un_packet::udp::UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(udp.dst_port(), 8080, "{tag}");
        n.undeploy("g").unwrap();
        assert_eq!(census(&n), before, "{tag}");
    }
}

/// A recycled mark brings its conntrack zone with it, so a departed
/// binding's connections go with it: a newcomer on the mark a tenant
/// left sends the same flow and is translated to its own WAN address,
/// not the one the departed tenant's connection recorded.
#[test]
fn a_recycled_mark_starts_with_an_empty_zone() {
    let mut n = node();
    let tenant = |id: &str, vid: u16, wan: &str| {
        NfFgBuilder::new(id, "NAT tenant")
            .vlan_endpoint("lan", "eth0", vid)
            .vlan_endpoint("wan", "eth1", vid)
            .nf_with_config("nat", "nat", 2, nat_config(wan))
            .chain("lan", &["nat"], "wan")
            .build()
    };
    // The resident keeps the shared instance, and mark 1, alive.
    n.deploy(&tenant("resident", 10, "192.0.2.1/24")).unwrap();
    let far = "8.8.8.8".parse().unwrap();
    let egress_src = |n: &mut UniversalNode, vid: u16| {
        let (inst, _) = n.instance_of("resident", "nat").unwrap();
        let ns = n.compute.namespace_of(inst).unwrap();
        n.host.neigh_add(ns, far, MacAddr::local(0x99)).unwrap();
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
            .vlan(vid)
            .ipv4("192.168.1.10".parse().unwrap(), far)
            .udp(5000, 53)
            .payload(b"tenant")
            .build();
        let mut io = n.inject("eth0", pkt);
        assert_eq!(io.emitted.len(), 1);
        let (_, mut out) = io.emitted.remove(0);
        out.vlan_pop().unwrap();
        let eth = out.ethernet().unwrap();
        un_packet::Ipv4Packet::new_checked(eth.payload())
            .unwrap()
            .src()
    };
    n.deploy(&tenant("first", 20, "203.0.113.1/24")).unwrap();
    assert_eq!(
        egress_src(&mut n, 20),
        "203.0.113.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
    n.undeploy("first").unwrap();
    n.deploy(&tenant("second", 30, "198.51.100.1/24")).unwrap();
    assert_eq!(
        egress_src(&mut n, 30),
        "198.51.100.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
}

// ---------------------------------------------------------------------
// Updates in place: an update builds what changed and nothing else, and
// a refused one leaves the part as it was.
// ---------------------------------------------------------------------

/// A structural update keeps every NF it leaves unchanged running — the
/// same instance — replaces the one it changes, and neither undeploys
/// nor deploys the graph.
#[test]
fn a_structural_update_keeps_every_unchanged_nf() {
    let mut n = node();
    let chain = |nfs: &[&str], flavors: &[(&str, &str)]| {
        let mut b = NfFgBuilder::new("g", "chain")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1");
        for nf in nfs {
            b = b.nf(nf, "bridge", 2);
            if let Some((_, flavor)) = flavors.iter().find(|(id, _)| id == nf) {
                b = b.with_flavor(flavor);
            }
        }
        b.chain("lan", nfs, "wan").build()
    };
    n.deploy(&chain(&["br-a", "br-b"], &[])).unwrap();
    let id = |n: &UniversalNode, nf: &str| n.instance_of("g", nf).map(|(id, _)| id);
    let (a, b) = (id(&n, "br-a"), id(&n, "br-b"));

    // One bridge joins the chain: the other two keep running.
    n.update(&chain(&["br-a", "br-c", "br-b"], &[])).unwrap();
    assert_eq!((id(&n, "br-a"), id(&n, "br-b")), (a, b));
    let c = id(&n, "br-c");
    assert!(c.is_some());
    // One moves to Docker: it alone is replaced.
    n.update(&chain(&["br-a", "br-c", "br-b"], &[("br-b", "docker")]))
        .unwrap();
    assert_eq!((id(&n, "br-a"), id(&n, "br-c")), (a, c));
    assert_ne!(id(&n, "br-b"), b);
    assert_eq!(n.instance_of("g", "br-b").unwrap().1, Flavor::Docker);
    // One leaves: the rest stay.
    n.update(&chain(&["br-a", "br-b"], &[("br-b", "docker")]))
        .unwrap();
    assert_eq!(id(&n, "br-a"), a);
    assert_eq!(n.total_instances(), 2);

    let io = n.inject("eth0", frame(b"through"));
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    assert_eq!(n.trace.counter("graph_updates_structural"), 3);
    assert_eq!(n.trace.counter("graphs_deployed"), 1);
    assert_eq!(n.trace.counter("graphs_undeployed"), 0);
}

/// An update that leaves a NAT as it was leaves its connections too: a
/// LAN flow masqueraded before a bridge joins the chain in front of the
/// NAT is still translated after it — its reply comes back in,
/// de-masqueraded, through the new bridge — whether the NAT is the
/// node's shared instance or a dedicated one.
#[test]
fn a_nat_mapping_outlives_an_update_that_keeps_the_nat() {
    let lan_host: std::net::Ipv4Addr = "192.168.1.10".parse().unwrap();
    let far: std::net::Ipv4Addr = "203.0.113.9".parse().unwrap();
    for flavor in [None, Some("docker")] {
        let graph = |nfs: &[&str]| {
            let mut b = NfFgBuilder::new("g", "NAT")
                .interface_endpoint("lan", "eth0")
                .interface_endpoint("wan", "eth1")
                .nf("br", "bridge", 2)
                .nf_with_config("nat", "nat", 2, nat_config("203.0.113.1/24"));
            if let Some(flavor) = flavor {
                b = b.with_flavor(flavor);
            }
            b.chain("lan", nfs, "wan").build()
        };
        let mut n = node();
        let mut before = graph(&["nat"]);
        before.nfs.retain(|nf| nf.id == "nat");
        n.deploy(&before).unwrap();
        let (inst, _) = n.instance_of("g", "nat").unwrap();
        let ns = n.compute.namespace_of(inst).unwrap();
        n.host.neigh_add(ns, far, MacAddr::local(0x99)).unwrap();
        n.host.neigh_add(ns, lan_host, MacAddr::local(5)).unwrap();
        let out = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
            .ipv4(lan_host, far)
            .udp(5000, 53)
            .payload(b"query")
            .build();
        let io = n.inject("eth0", out);
        assert_eq!(io.emitted.len(), 1, "{flavor:?}");
        let (mut port, mut left) = io.emitted.into_iter().next().unwrap();
        assert_eq!(port, "eth1");
        if flavor.is_none() {
            left.vlan_pop().unwrap_or_default();
        }
        let eth = left.ethernet().unwrap();
        let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
        let (wan, sport) = (ip.src(), {
            let udp = un_packet::udp::UdpDatagram::new_checked(ip.payload()).unwrap();
            udp.src_port()
        });

        n.update(&graph(&["br", "nat"])).unwrap();
        assert_eq!(n.instance_of("g", "nat").unwrap().0, inst, "{flavor:?}");
        let reply = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(0x99), MacAddr::BROADCAST)
            .ipv4(far, wan)
            .udp(53, sport)
            .payload(b"answer")
            .build();
        let io = n.inject("eth1", reply);
        assert_eq!(io.emitted.len(), 1, "{flavor:?}: the reply is dropped");
        (port, left) = io.emitted.into_iter().next().unwrap();
        assert_eq!(port, "eth0");
        let eth = left.ethernet().unwrap();
        let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dst(), lan_host, "{flavor:?}");
        let udp = un_packet::udp::UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(udp.dst_port(), 5000, "{flavor:?}");
    }
}

/// Every way a structural update can be refused, for every way the NF
/// under test is placed: the refused update leaves the node's census,
/// the NF's instance and the part's egress for a probe frame as they
/// were.
#[test]
fn a_refused_update_leaves_the_part_as_it_was() {
    use Failure::*;
    use Subject::*;
    let mut cells = 0;
    for subject in [NativeNew, NativeNewShared, NativeShare, Docker, Vm, Dpdk] {
        for failure in [Create, Start, Bind, Memory, Conflict, GroupThenConflict] {
            if !failure.applies_to(subject) {
                continue;
            }
            cells += 1;
            let tag = format!("{subject:?} x {failure:?}");
            let mut n = arranged(subject, if failure == Create { Memory } else { failure });
            n.deploy(&subject_graph("good", subject, None))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(forwards(&mut n, subject), 1, "{tag}");
            let mut broken = subject_graph("good", subject, Some(failure));
            if failure == Create {
                // The changed NF needs an image the stores lost.
                n.compute.docker.registry = un_container::Registry::new();
                n.compute.vm.hypervisor.images = un_hypervisor::VmImageStore::new();
                broken.nfs[0]
                    .config
                    .params
                    .insert("psk".into(), "hunter3".into());
            }
            let before = census(&n);
            let placed = n.instance_of("good", "nf");

            let err = n.update(&broken).expect_err(&tag);
            match failure {
                Create => assert!(matches!(err, DeployError::Compute(_)), "{tag}: {err}"),
                Start | Bind => {
                    assert!(matches!(err, DeployError::NfConfig { .. }), "{tag}: {err}")
                }
                Memory => assert!(
                    matches!(err, DeployError::InsufficientMemory { .. }),
                    "{tag}: {err}"
                ),
                Conflict | GroupThenConflict => assert!(
                    matches!(err, DeployError::EndpointConflict(_)),
                    "{tag}: {err}"
                ),
            }
            assert_eq!(census(&n), before, "{tag}: the refused update left residue");
            assert_eq!(n.instance_of("good", "nf"), placed, "{tag}");
            assert_eq!(forwards(&mut n, subject), 1, "{tag}: the part forwards");
        }
    }
    assert_eq!(cells, 25);
}

/// A native singleton whose config changes makes room for its successor,
/// which stays native; refused later, the update rebuilds the old one
/// from its list, and the part forwards as before.
#[test]
fn a_changed_singleton_is_replaced_in_its_flavor() {
    let mut n = arranged(Subject::NativeNew, Failure::Memory);
    n.deploy(&subject_graph("good", Subject::NativeNew, None))
        .unwrap();
    assert_eq!(forwards(&mut n, Subject::NativeNew), 1);
    let retuned = |failure| {
        let mut g = subject_graph("good", Subject::NativeNew, failure);
        g.nfs[0]
            .config
            .params
            .insert("psk".into(), "hunter3".into());
        g
    };
    let before = census(&n);
    let err = n.update(&retuned(Some(Failure::Memory))).unwrap_err();
    assert!(
        matches!(err, DeployError::InsufficientMemory { .. }),
        "{err}"
    );
    assert_eq!(census(&n), before);
    assert_eq!(forwards(&mut n, Subject::NativeNew), 1);

    let (old, _) = n.instance_of("good", "nf").unwrap();
    n.update(&retuned(None)).unwrap();
    let (new, flavor) = n.instance_of("good", "nf").unwrap();
    assert_ne!(new, old);
    assert_eq!(flavor, Flavor::Native);
    assert_eq!(forwards(&mut n, Subject::NativeNew), 1);
    assert_eq!(census(&n), before);
}

/// A random bridge chain between random VLANs of eth0 and eth1.
fn random_chain(rng: &mut un_sim::DetRng) -> un_nffg::NfFg {
    let vids = [None, Some(10), Some(20)];
    let mut b = NfFgBuilder::new("g", "random chain");
    for (ep, port) in [("lan", "eth0"), ("wan", "eth1")] {
        b = match vids[rng.index(vids.len())] {
            None => b.interface_endpoint(ep, port),
            Some(vid) => b.vlan_endpoint(ep, port, vid),
        };
    }
    let mut chain: Vec<&str> = ["br-a", "br-b", "br-c"]
        .into_iter()
        .filter(|_| rng.chance(0.6))
        .collect();
    if chain.is_empty() || rng.chance(0.3) {
        chain.reverse();
        chain.push("br-d");
    }
    for nf in &chain {
        b = b.nf(nf, "bridge", 2);
        if rng.chance(0.25) {
            b = b.with_flavor("docker");
        }
    }
    let mut g = b.chain("lan", &chain, "wan").build();
    for rule in &mut g.flow_rules {
        rule.priority += rng.index(2) as u16;
    }
    g
}

/// What a node emits for one probe frame per (port, VLAN) pair, each
/// from its own source MAC to an address no one learned.
fn probe(n: &mut UniversalNode) -> Vec<(Name, Vec<u8>)> {
    let mut emitted = Vec::new();
    for (i, (port, vid)) in ["eth0", "eth1"]
        .into_iter()
        .flat_map(|p| [None, Some(10), Some(20), Some(30)].map(|v| (p, v)))
        .enumerate()
    {
        let mut b = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(1 + i as u32), MacAddr::local(0xEE));
        if let Some(vid) = vid {
            b = b.vlan(vid);
        }
        let pkt = b
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1000, 2000)
            .payload(&[i as u8; 8])
            .build();
        let io = n.inject(port, pkt);
        emitted.extend(io.emitted.into_iter().map(|(p, f)| (p, f.data().to_vec())));
    }
    emitted
}

/// Any sequence of structural updates ends where a fresh deploy of the
/// last graph starts: the same egress for every probe, the same
/// instances, ports, flows and memory.
#[test]
fn an_updated_part_forwards_as_a_fresh_deploy() {
    let mut rng = un_sim::DetRng::new(48);
    for case in 0..48 {
        let mut n = node();
        let mut last = random_chain(&mut rng);
        n.deploy(&last).unwrap();
        for _ in 0..1 + rng.index(5) {
            last = random_chain(&mut rng);
            n.update(&last)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
        let mut fresh = node();
        fresh.deploy(&last).unwrap();
        assert_eq!(probe(&mut n), probe(&mut fresh), "case {case}");
        let shape = |n: &UniversalNode| {
            let c = census(n);
            (
                c.instances,
                c.driver_instances,
                c.lsi0_ports,
                c.flows,
                c.memory,
            )
        };
        assert_eq!(shape(&n), shape(&fresh), "case {case}");
    }
}

// ---------------------------------------------------------------------
// The tables are their programs: what `apply_diff` leaves installed is
// exactly what the deployed parts' programs list.
// ---------------------------------------------------------------------

/// A random part `id` (the `slot`-th of three) between eth0 and eth1:
/// each endpoint untagged, on a VLAN of its own or in an internal
/// group; zero to two bridges, some in containers, and sometimes a NAT
/// the node shares with every other tenant that has one.
fn random_part(rng: &mut un_sim::DetRng, id: &str, slot: u16) -> un_nffg::NfFg {
    let mut b = NfFgBuilder::new(id, "random part");
    for (ep, port) in [("lan", "eth0"), ("wan", "eth1")] {
        b = match rng.index(3) {
            0 => b.interface_endpoint(ep, port),
            1 => b.vlan_endpoint(ep, port, 10 * (slot + 1) + 5 * rng.index(2) as u16),
            _ => b.internal_endpoint(ep, "grp"),
        };
    }
    let mut chain = Vec::new();
    for nf in ["br-a", "br-b"] {
        if rng.chance(0.5) {
            b = b.nf(nf, "bridge", 2);
            if rng.chance(0.3) {
                b = b.with_flavor("docker");
            }
            chain.push(nf);
        }
    }
    if rng.chance(0.5) {
        let wan = format!("198.51.{}.1/24", 100 + slot);
        b = b.nf_with_config("nat", "nat", 2, nat_config(&wan));
        chain.insert(rng.index(chain.len() + 1), "nat");
    }
    b.chain("lan", &chain, "wan").build()
}

/// A table's entries, counters aside, in one order.
fn rows(entries: impl IntoIterator<Item = (u16, u64, FlowMatch, Vec<FlowAction>)>) -> Vec<String> {
    let mut rows: Vec<String> = entries.into_iter().map(|e| format!("{e:?}")).collect();
    rows.sort();
    rows
}

fn table_rows(lsi: &Lsi) -> Vec<String> {
    let entries = lsi.switch.table().entries();
    rows(entries.map(|e| (e.priority, e.cookie, e.matches.clone(), e.actions.to_vec())))
}

fn program_rows(
    entries: &[FlowEntry],
    at: Numbering<'_>,
) -> Vec<(u16, u64, FlowMatch, Vec<FlowAction>)> {
    let on = |e: &FlowEntry| {
        let (priority, cookie, matches, actions) = view(e, at);
        (priority, cookie, matches, actions.collect())
    };
    entries.iter().map(on).collect()
}

/// Each graph LSI holds exactly the entries and ports its program
/// lists; LSI-0 holds every deployed part's LSI-0 entries plus the
/// group rules, and besides its physical and attach ports exactly the
/// parts' virtual-link ends.
fn assert_tables_are_programs(n: &UniversalNode, tag: &str) {
    let mut l0 = Vec::new();
    let mut ends = Vec::new();
    for (id, g) in &n.graphs {
        let lsi = n.lsi(g.lsi);
        let want = rows(program_rows(
            &g.program.entries,
            &numbering(&g.landed, false),
        ));
        assert_eq!(table_rows(lsi), want, "{tag}: LSI of {id}");
        let mut ports: Vec<PortNo> = g.landed.iter().map(|(port, _)| *port).collect();
        ports.sort_unstable();
        assert_eq!(
            lsi.ports.keys().copied().collect::<Vec<_>>(),
            ports,
            "{tag}: {id}"
        );
        l0.extend(program_rows(&g.program.l0, &numbering(&g.landed, true)));
        ends.extend(g.landed.iter().filter_map(|(_, end)| *end));
    }
    for (group, members) in n.groups().into_iter().filter(|(_, m)| m.len() > 1) {
        for &member in &members {
            let others = members.iter().filter(|m| **m != member);
            let outputs = others.map(|m| FlowAction::Output(*m)).collect();
            l0.push((7, group_cookie(&group), FlowMatch::in_port(member), outputs));
        }
    }
    assert_eq!(table_rows(n.lsi(0)), rows(l0), "{tag}: LSI-0");
    let vlinks = n
        .lsi(0)
        .ports
        .iter()
        .filter(|(_, k)| matches!(k, PortKind::Vlink { .. }));
    let mut found: Vec<PortNo> = vlinks.map(|(port, _)| *port).collect();
    ends.sort_unstable();
    found.sort_unstable();
    assert_eq!(found, ends, "{tag}: LSI-0's virtual-link ends");
}

/// 32 random sequences of deploys, rules-only updates, structural
/// updates and undeploys over three parts — VLAN, untagged and internal
/// endpoints, containers, and a NAT two or three tenants share —
/// refused ones included: after every step the tables equal the
/// programs.
#[test]
fn the_tables_are_their_programs() {
    let mut rng = un_sim::DetRng::new(51);
    for case in 0..32 {
        let mut n = node();
        for step in 0..16 {
            let slot = rng.index(3);
            let id = ["a", "b", "c"][slot];
            let op = match n.graph(id) {
                None => {
                    let part = random_part(&mut rng, id, slot as u16);
                    ("deploy", n.deploy(&part).map(drop))
                }
                Some(_) if rng.chance(0.25) => ("undeploy", n.undeploy(id)),
                Some(old) if rng.chance(0.5) => {
                    let mut part = old.clone();
                    for rule in &mut part.flow_rules {
                        rule.priority += rng.index(2) as u16;
                    }
                    ("rules-only update", n.update(&part).map(drop))
                }
                Some(_) => {
                    let part = random_part(&mut rng, id, slot as u16);
                    ("structural update", n.update(&part).map(drop))
                }
            };
            let tag = format!("case {case} step {step}: {} of {id} ({:?})", op.0, op.1);
            assert_tables_are_programs(&n, &tag);
        }
    }
}
