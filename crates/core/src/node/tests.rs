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

    // Tagged traffic reaches g3 and comes out re-tagged on eth1.
    let mut f = frame(b"tagged");
    f.vlan_push(42).unwrap();
    let io = n.inject("eth0", f);
    assert_eq!(io.emitted.len(), 1);
    assert_eq!(io.emitted[0].0, "eth1");
    assert_eq!(io.emitted[0].1.vlan_id(), Some(42));
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
    /// A config parameter the NF needs is missing: a plugin's `start`
    /// fails, a VM's guest is refused at `create`.
    Start,
    /// `bind` fails: the binding lacks the graph's LAN address.
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
        lsi0_ports: n.lsi0.port_count(),
        flows: n.total_flows(),
        shared_types: n.shared_nnf_types(),
        bindings: n
            .shared
            .values()
            .map(|info| n.compute.native.binding_count(info.instance))
            .sum(),
        group_members: n.internal_groups.values().map(Vec::len).sum(),
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
                Create | Start | Bind => {
                    assert!(matches!(err, DeployError::Compute(_)), "{tag}: {err}")
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
