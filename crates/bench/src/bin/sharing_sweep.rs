//! Sharing sweep: one fleet-shared NAT instance vs per-graph NAT.
//!
//! The scenario is **N tenant NAT services spread over a 4-node line
//! fabric** (tenant *i* keeps its endpoints on its home rack), deployed
//! twice on identical fleets:
//!
//! * **shared** — the domain sharable-NNF registry is on
//!   (first-demand election): every tenant leases the single NAT
//!   instance elected onto the first tenant's rack, reaching it over
//!   the overlay (multi-hop for the far racks);
//! * **per-graph** — the registry is off (pre-registry behavior):
//!   each rack instantiates its own NAT for the tenants that live
//!   there.
//!
//! Reported per mode: total fleet memory, node-level NAT instance
//! count, deploy wall-clock, and the data-plane price of sharing —
//! average overlay hops and virtual-time cost per frame (the
//! **stretch** the shared mode pays for its memory win). The binary
//! asserts what CI smoke-checks: byte-identical egress between the two
//! modes, every frame delivered, exactly one shared instance, and
//! shared-mode memory **strictly below** per-graph memory. Writes
//! `BENCH_sharing.json`.
//!
//! ```sh
//! cargo run --release -p un-bench --bin sharing_sweep
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, EdgeAttrs, SharingConfig, Topology};
use un_nffg::{Json, NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;

const RACKS: usize = 4;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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
    deploy_us: f64,
    memory_bytes: u64,
    nat_instances: usize,
    frames: u64,
    overlay_hops: u64,
    cost_ns: u64,
    /// Tenant → sorted egress frame bytes (for cross-mode equivalence).
    egress: BTreeMap<usize, Vec<Vec<u8>>>,
}

/// `pin_nat` is the per-graph baseline: the NAT is explicitly pinned
/// next to its tenant (an explicit NF pin also opts the NF out of the
/// registry), so each rack instantiates its own. Without it, the
/// legacy cross-node shared-NNF *bonus* would still consolidate NATs —
/// but with no leases, no capacity accounting, and no failure-time
/// re-election; the registry is what makes that reuse a first-class,
/// accounted resource.
fn run_mode(
    sharing: SharingConfig,
    tenants: usize,
    frames_per_tenant: usize,
    pin_nat: bool,
) -> Measured {
    let mut d = fleet(sharing);
    let start = Instant::now();
    for t in 0..tenants {
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
    let deploy_us = start.elapsed().as_secs_f64() * 1e6;

    // Every node hosting a NAT namespace learns the upstream neighbor.
    let hosts: Vec<(String, String)> = (0..tenants)
        .map(|t| {
            let gid = format!("tenant-{t}");
            let host = d.assignment_of(&gid).expect("deployed")["nat"].clone();
            (host, gid)
        })
        .collect();
    let mut seeded: std::collections::BTreeSet<String> = Default::default();
    for (host, gid) in &hosts {
        if !seeded.insert(host.clone()) {
            continue;
        }
        let node = d.node_mut(host).expect("host exists");
        let (inst, _) = node.instance_of(gid, "nat").expect("nat placed");
        let ns = node.compute.namespace_of(inst).expect("namespace");
        node.host
            .neigh_add(ns, "8.8.8.8".parse().unwrap(), MacAddr::local(0x99))
            .expect("neigh");
    }

    let memory_bytes: u64 = d
        .node_names()
        .iter()
        .map(|n| d.node(n).unwrap().memory_used())
        .sum();
    let nat_instances = d
        .node_names()
        .iter()
        .filter(|n| d.node(n).unwrap().shared_nnf_types().any(|t| t == "nat"))
        .count();

    let mut out = Measured {
        deploy_us,
        memory_bytes,
        nat_instances,
        frames: 0,
        overlay_hops: 0,
        cost_ns: 0,
        egress: BTreeMap::new(),
    };
    for t in 0..tenants {
        let home = home_of(t);
        let mut egress: Vec<Vec<u8>> = Vec::new();
        for f in 0..frames_per_tenant {
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
            out.frames += 1;
            out.overlay_hops += u64::from(io.overlay_hops);
            out.cost_ns += io.cost.as_nanos();
            egress.push(io.emitted[0].2.data().to_vec());
        }
        egress.sort();
        out.egress.insert(t, egress);
    }
    out
}

fn mode_json(m: &Measured) -> Json {
    Json::obj()
        .set("deploy_us", m.deploy_us)
        .set("memory_bytes", m.memory_bytes)
        .set("nat_instances", m.nat_instances)
        .set("frames", m.frames)
        .set(
            "avg_overlay_hops",
            m.overlay_hops as f64 / m.frames.max(1) as f64,
        )
        .set(
            "cost_ns_per_frame",
            m.cost_ns as f64 / m.frames.max(1) as f64,
        )
}

fn main() {
    let tenants = env_usize("UN_SHARING_TENANTS", 6);
    let frames = env_usize("UN_SHARING_FRAMES", 200);
    println!(
        "Sharing sweep: {tenants} tenant NAT services on a {RACKS}-rack line, \
         {frames} frames each\n"
    );

    let shared = run_mode(SharingConfig::for_types(&["nat"]), tenants, frames, false);
    let per_graph = run_mode(SharingConfig::default(), tenants, frames, true);

    // The tradeoff, asserted. One fleet-wide instance:
    assert_eq!(shared.nat_instances, 1, "one shared instance fleet-wide");
    assert!(
        per_graph.nat_instances > 1,
        "per-graph mode must instantiate per rack"
    );
    // Strict memory win (what CI smoke-checks):
    assert!(
        shared.memory_bytes < per_graph.memory_bytes,
        "shared mode must use strictly less memory \
         ({} vs {})",
        shared.memory_bytes,
        per_graph.memory_bytes
    );
    // Transparency: byte-identical egress, tenant by tenant.
    assert_eq!(
        shared.egress, per_graph.egress,
        "shared and per-graph egress must be byte-identical"
    );
    // The price: visible data-plane stretch.
    assert!(shared.overlay_hops > 0, "remote tenants cross the fabric");
    assert_eq!(per_graph.overlay_hops, 0, "private NATs stay local");

    let saved = per_graph.memory_bytes - shared.memory_bytes;
    println!(
        "{:<10} {:>12} {:>10} {:>11} {:>10} {:>14}",
        "mode", "memory", "instances", "deploy-us", "avg-hops", "ns/frame"
    );
    for (name, m) in [("shared", &shared), ("per-graph", &per_graph)] {
        println!(
            "{:<10} {:>12} {:>10} {:>11.0} {:>10.2} {:>14.0}",
            name,
            m.memory_bytes,
            m.nat_instances,
            m.deploy_us,
            m.overlay_hops as f64 / m.frames.max(1) as f64,
            m.cost_ns as f64 / m.frames.max(1) as f64,
        );
    }
    println!(
        "\nmemory saved: {:.1} MB ({:.2}x); stretch paid: {:.2} overlay hops/frame",
        saved as f64 / 1e6,
        per_graph.memory_bytes as f64 / shared.memory_bytes as f64,
        shared.overlay_hops as f64 / shared.frames.max(1) as f64,
    );

    let json = Json::obj()
        .set(
            "scenario",
            "N tenant NATs on a 4-rack line: fleet-shared instance vs per-graph",
        )
        .set("racks", RACKS)
        .set("tenants", tenants)
        .set("frames_per_tenant", frames)
        .set("shared", mode_json(&shared))
        .set("per_graph", mode_json(&per_graph))
        .set("memory_saved_bytes", saved)
        .set(
            "memory_ratio",
            per_graph.memory_bytes as f64 / shared.memory_bytes as f64,
        )
        .set("egress_equivalent", true);
    std::fs::write("BENCH_sharing.json", json.render_pretty()).expect("write BENCH_sharing.json");
    println!("wrote BENCH_sharing.json");
}
