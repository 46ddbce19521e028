//! Sharing sweep: one fleet-shared NAT instance against per-graph NATs.
//!
//! The scenario is six tenant NAT services spread over a four-node
//! line fabric (tenant *i* keeps its endpoints on its home rack),
//! deployed twice on identical fleets:
//!
//! * **shared** — the domain's sharable-NNF registry is on
//!   (first-demand election): every tenant leases the single NAT
//!   instance elected onto the first tenant's rack, reaching it over
//!   the overlay (multi-hop for the far racks);
//! * **per-graph** — the registry is off and each NAT is pinned beside
//!   its tenant, so each rack instantiates its own NAT for the tenants
//!   that live there.
//!
//! The registry's value proposition, asserted: exactly one fleet-wide
//! instance, shared-mode memory strictly below per-graph memory, and
//! byte-identical egress between the two modes, tenant by tenant —
//! sharing is transparent, and its only price is the overlay stretch
//! the shared mode pays and the per-graph mode does not.

use std::collections::{BTreeMap, BTreeSet};

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, EdgeAttrs, SharingConfig, Topology};
use un_nffg::{NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;

const RACKS: usize = 4;
const TENANTS: usize = 6;
const FRAMES_PER_TENANT: usize = 50;

fn rack(i: usize) -> String {
    format!("n{}", i + 1)
}

fn home_of(tenant: usize) -> String {
    rack(tenant % RACKS)
}

fn tenant_vid(tenant: usize) -> u16 {
    10 + tenant as u16
}

/// Tenant NAT service: per-tenant VLAN endpoints around one NAT NF.
fn tenant_graph(tenant: usize) -> NfFg {
    let cfg = un_nffg::NfConfig::default()
        .with_param("lan-addr", "192.168.1.1/24")
        .with_param("wan-addr", &format!("203.0.113.{}/24", tenant + 1));
    NfFgBuilder::new(&format!("tenant-{tenant}"), "nat service")
        .vlan_endpoint("lan", "eth0", tenant_vid(tenant))
        .vlan_endpoint("wan", "eth1", tenant_vid(tenant))
        .nf_with_config("nat", "nat", 2, cfg)
        .chain("lan", &["nat"], "wan")
        .build()
}

fn fleet(sharing: SharingConfig) -> Domain {
    let racks: Vec<String> = (0..RACKS).map(rack).collect();
    let names: Vec<&str> = racks.iter().map(String::as_str).collect();
    let mut d = Domain::new(DomainConfig {
        topology: Topology::line(&names, EdgeAttrs::default()),
        sharing,
        ..DomainConfig::default()
    });
    for name in &racks {
        let mut n = UniversalNode::new(name, mb(2048));
        n.add_physical_port("eth0");
        n.add_physical_port("eth1");
        d.add_node(n);
    }
    d
}

struct Measured {
    memory_bytes: u64,
    nat_instances: usize,
    overlay_hops: u64,
    /// Tenant → sorted egress frame bytes.
    egress: BTreeMap<usize, Vec<Vec<u8>>>,
}

/// Deploy every tenant on a fresh fleet and drive its frames. `pin_nat`
/// is the per-graph baseline: the NAT is pinned beside its tenant (an
/// explicit NF pin also opts the NF out of the registry), so each rack
/// instantiates its own.
fn run_mode(sharing: SharingConfig, pin_nat: bool) -> Measured {
    let mut d = fleet(sharing);
    for t in 0..TENANTS {
        let home = home_of(t);
        let hints = DeployHints {
            endpoint_node: [
                ("lan".to_string(), home.clone()),
                ("wan".to_string(), home.clone()),
            ]
            .into(),
            nf_node: if pin_nat {
                [("nat".to_string(), home.clone())].into()
            } else {
                Default::default()
            },
            ..DeployHints::default()
        };
        d.deploy_with(&tenant_graph(t), &hints).expect("deploys");
    }

    // Every node hosting a NAT namespace learns the upstream neighbor.
    let mut seeded = BTreeSet::new();
    for t in 0..TENANTS {
        let gid = format!("tenant-{t}");
        let host = d.assignment_of(&gid).expect("deployed")["nat"].clone();
        if !seeded.insert(host.clone()) {
            continue;
        }
        let node = d.node_mut(&host).expect("host exists");
        let (inst, _) = node.instance_of(&gid, "nat").expect("nat placed");
        let ns = node.compute.namespace_of(inst).expect("namespace");
        node.host
            .neigh_add(ns, "8.8.8.8".parse().unwrap(), MacAddr::local(0x99))
            .expect("neigh");
    }

    let nodes = d.node_names();
    let mut out = Measured {
        memory_bytes: nodes.iter().map(|n| d.node(n).unwrap().memory_used()).sum(),
        nat_instances: nodes
            .iter()
            .filter(|n| d.node(n).unwrap().shared_nnf_types().any(|t| t == "nat"))
            .count(),
        overlay_hops: 0,
        egress: BTreeMap::new(),
    };
    for t in 0..TENANTS {
        let home = home_of(t);
        let mut egress = Vec::new();
        for f in 0..FRAMES_PER_TENANT {
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
                .vlan(tenant_vid(t))
                .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
                .udp(5000 + (f % 32) as u16, 53)
                .payload(b"sweep")
                .build();
            let io = d.inject(&home, "eth0", pkt);
            assert_eq!(io.emitted.len(), 1, "tenant-{t} frame {f} must egress");
            assert_eq!(io.emitted[0].0, home.as_str(), "egress at the home rack");
            out.overlay_hops += u64::from(io.overlay_hops);
            egress.push(io.emitted[0].2.data().to_vec());
        }
        egress.sort();
        out.egress.insert(t, egress);
    }
    out
}

#[test]
fn one_shared_nat_saves_memory_and_changes_no_egress_byte() {
    let shared = run_mode(SharingConfig::for_types(&["nat"]), false);
    let per_graph = run_mode(SharingConfig::default(), true);

    assert_eq!(shared.nat_instances, 1, "one shared instance fleet-wide");
    assert!(
        per_graph.nat_instances > 1,
        "per-graph mode instantiates per rack"
    );
    assert!(
        shared.memory_bytes < per_graph.memory_bytes,
        "shared mode uses strictly less memory ({} vs {})",
        shared.memory_bytes,
        per_graph.memory_bytes
    );
    assert_eq!(
        shared.egress, per_graph.egress,
        "shared and per-graph egress are byte-identical"
    );
    assert!(shared.overlay_hops > 0, "remote tenants cross the fabric");
    assert_eq!(per_graph.overlay_hops, 0, "private NATs stay local");
}
