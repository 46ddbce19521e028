//! Shared NNFs across the fleet: three tenants, three racks, ONE
//! native NAT instance — which survives its host's death.
//!
//! ```sh
//! cargo run --release --example shared_nat
//! ```
//!
//! The paper's sharability mechanism (marking, conntrack zones,
//! per-graph routing tables) lets one kernel NAT serve many service
//! graphs on one node. The domain's **sharable-NNF registry** extends
//! that across the fleet: each tenant graph stays on its own rack, but
//! its NAT rides the single instance the registry elected — reached
//! over the VLAN overlay, with an explicit per-graph **lease**. When
//! the host rack dies, the registry re-elects a host once and every
//! tenant is rerouted onto the new instance; the repair report
//! attributes those moves to the shared instance.

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, SharingConfig};
use un_nffg::{NfConfig, NfFgBuilder};
use un_packet::{MacAddr, PacketBuilder};
use un_sim::mem::mb;

fn tenant_graph(n: u32, wan_cidr: &str) -> un_nffg::NfFg {
    let mut cfg = NfConfig::default();
    cfg.params
        .insert("lan-addr".into(), "192.168.1.1/24".into()); // all the same!
    cfg.params.insert("wan-addr".into(), wan_cidr.into());
    NfFgBuilder::new(&format!("customer-{n}"), "nat service")
        .vlan_endpoint("lan", "eth0", (10 + n) as u16)
        .vlan_endpoint("wan", "eth1", (10 + n) as u16)
        .nf_with_config("nat", "nat", 2, cfg)
        .chain("lan", &["nat"], "wan")
        .build()
}

fn pin_home(node: &str) -> DeployHints {
    DeployHints {
        endpoint_node: [
            ("lan".to_string(), node.to_string()),
            ("wan".to_string(), node.to_string()),
        ]
        .into(),
        ..DeployHints::default()
    }
}

/// Teach the shared NAT's namespace on `host` its upstream neighbor.
fn neigh(domain: &mut Domain, host: &str, gid: &str) {
    let node = domain.node_mut(host).unwrap();
    let (inst, _) = node.instance_of(gid, "nat").unwrap();
    let ns = node.compute.namespace_of(inst).unwrap();
    node.host
        .neigh_add(ns, "8.8.8.8".parse().unwrap(), MacAddr::local(0x99))
        .unwrap();
}

fn drive(domain: &mut Domain, customer: u32, home: &str) {
    let vid = (10 + customer) as u16;
    let pkt = PacketBuilder::new()
        .ethernet(MacAddr::local(5), MacAddr::BROADCAST)
        .vlan(vid)
        .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
        .udp(5000, 53)
        .payload(b"dns?")
        .build();
    let io = domain.inject(home, "eth0", pkt);
    assert_eq!(io.emitted.len(), 1, "customer-{customer} must forward");
    let (node, port, wire) = &io.emitted[0];
    let mut inner = wire.clone();
    let outer_vid = inner.vlan_pop().unwrap();
    let eth = inner.ethernet().unwrap();
    let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
    println!(
        "customer-{customer} @ {home}: 192.168.1.10 → 8.8.8.8 left '{node}:{port}' \
         (VLAN {outer_vid}), source translated to {} ({} overlay hops)",
        ip.src(),
        io.overlay_hops
    );
}

fn main() {
    // Three racks, fleet-wide NAT sharing on (first-demand election).
    let mut domain = Domain::new(DomainConfig {
        sharing: SharingConfig::for_types(&["nat"]),
        ..DomainConfig::default()
    });
    for name in ["rack1", "rack2", "rack3"] {
        let mut n = UniversalNode::new(name, mb(1024));
        n.add_physical_port("eth0");
        n.add_physical_port("eth1");
        domain.add_node(n);
    }

    // Three customers, one per rack, overlapping address plans.
    let wans = ["203.0.113.1/24", "198.51.100.1/24", "192.0.2.1/24"];
    for (i, wan) in wans.iter().enumerate() {
        let n = i as u32 + 1;
        let home = format!("rack{n}");
        domain
            .deploy_with(&tenant_graph(n, wan), &pin_home(&home))
            .unwrap();
    }
    let inst = &domain.shared_instances()[0];
    println!(
        "one shared NAT instance on '{}', leased by {} tenant graphs: {:?}",
        inst.host,
        inst.tenant_count(),
        inst.leases.keys().collect::<Vec<_>>()
    );
    assert_eq!(inst.tenant_count(), 3);
    let host = inst.host.clone();
    assert_eq!(
        host, "rack1",
        "first demand elected the first tenant's rack"
    );

    neigh(&mut domain, &host, "customer-1");
    for n in 1..=3 {
        drive(&mut domain, n, &format!("rack{n}"));
    }

    // The host rack dies. The registry re-elects a host ONCE; every
    // tenant's repair converges on it, and each outcome attributes the
    // moved NAT to the shared instance.
    println!("\n→ '{host}' fails …");
    let report = domain.fail_node(&host).unwrap();
    assert_eq!(report.replaced.len(), 3, "every tenant repaired");
    let inst = &domain.shared_instances()[0];
    println!(
        "registry re-elected '{}'; {} leases carried over",
        inst.host,
        inst.tenant_count()
    );
    assert_eq!(inst.tenant_count(), 3, "leases survive the migration");
    for outcome in &report.repairs {
        assert_eq!(outcome.shared_nfs_moved, 1);
        println!(
            "  {}: {} NF(s) moved ({} attributed to the shared instance → {:?})",
            outcome.graph, outcome.nfs_moved, outcome.shared_nfs_moved, outcome.shared_migrated
        );
    }

    // Tenants drain onto the new instance: same translations, now via
    // the re-elected host.
    let new_host = inst.host.clone();
    neigh(&mut domain, &new_host, "customer-2");
    println!();
    for n in 2..=3 {
        drive(&mut domain, n, &format!("rack{n}"));
    }
    println!(
        "\nSame inner five-tuple everywhere, zero leakage: marking, conntrack\n\
         zones and per-graph tables isolate the tenants inside ONE native\n\
         instance — now elected, leased, and repaired at fleet level."
    );
}
