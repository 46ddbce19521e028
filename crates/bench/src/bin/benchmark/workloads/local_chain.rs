//! `local_chain` — bare forwarding at the smallest packet.
//!
//! Eight nodes, each with its own pinned `lan → br0 → br1 → br2 → wan`
//! native-bridge graph (the fleet of `BENCH_obs`/`BENCH_dataplane`),
//! 64-byte frames, 4096 flows — 512 per node, far below the 8192-entry
//! microflow cache — in bursts of 256 through `Domain::inject_batch`.
//! The microflow-hit classifier, the NF boundary and the node fabric
//! do all the work; overlay, ESP and the miss path do none.

use std::net::Ipv4Addr;

use un_domain::{Domain, DomainConfig};
use un_packet::Packet;

use super::bursts::{Bursts, Shape};
use super::{bridge_chain, domain, node, pin_all, Scale};
use crate::gen::{Flow, Rng};

pub const NODES: [&str; 8] = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"];
pub const CHAIN: usize = 3;
pub const FLOWS_PER_NODE: usize = 512;

/// The first `nodes` of [`NODES`], each with `eth0`/`eth1` and its own
/// pinned chain of `chain` bridges.
pub fn chain_fleet(config: DomainConfig, nodes: usize, chain: usize) -> Domain {
    let names = &NODES[..nodes];
    let mut d = domain(
        config,
        names
            .iter()
            .map(|n| node(n, 2048, &["eth0", "eth1"]))
            .collect(),
    );
    for n in names {
        let graph = bridge_chain(&format!("g-{n}"), &format!("{n}-br"), chain, "eth0", "eth1");
        d.deploy_with(&graph, &pin_all(&graph, n))
            .expect("per-node chain deploys");
    }
    d
}

/// The seeded frame pool: `(ingress node, frame)` in seeded order, one
/// frame per flow.
pub fn chain_pool(seed: u64, nodes: usize, flows_per_node: usize) -> Vec<(&'static str, Packet)> {
    let mut payload = Rng::new(seed, 2);
    let mut pool: Vec<(&'static str, Packet)> = (0..nodes * flows_per_node)
        .map(|i| {
            let id = i / nodes;
            let flow = Flow {
                src: Ipv4Addr::new(10, (id >> 8) as u8, id as u8, 1),
                dst: Ipv4Addr::new(192, 0, 2, 9),
                sport: 5000,
                dport: 5001,
                vlan: None,
            };
            (NODES[i % nodes], flow.frame(22, &mut payload))
        })
        .collect();
    Rng::new(seed, 1).shuffle(&mut pool);
    pool
}

pub fn workload(seed: u64, scale: Scale) -> Bursts {
    let pool = chain_pool(seed, NODES.len(), scale.pick(FLOWS_PER_NODE, 32));
    Bursts::new(
        chain_fleet(DomainConfig::default(), NODES.len(), CHAIN),
        pool,
        Shape {
            name: "local_chain",
            egress: None,
            hops_per_frame: 0,
            protected: false,
            frames_per_round: NODES.len() * FLOWS_PER_NODE,
            nominal_round_ms: 10.0,
        },
    )
}
