//! `split_esp` — a chain split across nodes, ESP on the wire.
//!
//! Four nodes in a line `n1–n2–n3–n4`; the chain
//! `lan@n1 → br1@n1 → br2@n3 → wan@n3` crosses the overlay once, over
//! two hops with a transit through n2, and `protect_overlay` seals and
//! verifies every hop. 128-byte payloads in bursts of 256. Shuttle,
//! overlay crossing, transit rules and ESP dominate; the NF boundary
//! is a small share.

use std::net::Ipv4Addr;

use un_domain::{DeployHints, Domain, DomainConfig, EdgeAttrs, Topology};
use un_nffg::NfFgBuilder;
use un_packet::Packet;

use super::bursts::{Bursts, Shape};
use super::{domain, node, Scale, BURST};
use crate::gen::{Flow, Rng};

const FLOWS: usize = 4096;
const PAYLOAD: usize = 128;

/// Where the split chain's second half runs: the rungs of the overlay
/// cost ladder (see `layers::overlay_ladder`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `br2` and `wan` on n3, fabric `n1–n2–n3–n4`: two hops, one transit.
    Line,
    /// `br2` and `wan` on n3, full mesh: one direct hop.
    Mesh,
    /// Everything on n1: no overlay crossing.
    Colocated,
}

impl Placement {
    /// The node the chain's egress endpoint sits on.
    pub fn egress_node(self) -> &'static str {
        match self {
            Placement::Colocated => "n1",
            _ => "n3",
        }
    }
}

/// The four-node fleet with the split chain deployed.
pub fn split_fleet(placement: Placement, protect_overlay: bool) -> Domain {
    let names = ["n1", "n2", "n3", "n4"];
    let topology = match placement {
        Placement::Line => Topology::line(&names, EdgeAttrs::default()),
        _ => Topology::full_mesh(),
    };
    let mut d = domain(
        DomainConfig {
            topology,
            protect_overlay,
            ..DomainConfig::default()
        },
        names
            .iter()
            .map(|n| node(n, 2048, &["eth0", "eth1"]))
            .collect(),
    );
    let graph = NfFgBuilder::new("svc", "split")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    let far = placement.egress_node();
    let pin = |pairs: [(&str, &str); 2]| {
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let hints = DeployHints {
        endpoint_node: pin([("lan", "n1"), ("wan", far)]),
        nf_node: pin([("br1", "n1"), ("br2", far)]),
        strategy: None,
    };
    d.deploy_with(&graph, &hints).expect("split chain deploys");
    d
}

/// `flows` frames with 128-byte payloads, one per flow, in seeded order.
pub fn split_pool(seed: u64, flows: usize) -> Vec<Packet> {
    let mut payload = Rng::new(seed, 2);
    let mut pool: Vec<Packet> = (0..flows)
        .map(|i| {
            let flow = Flow {
                src: Ipv4Addr::new(10, 1, (i >> 8) as u8, i as u8),
                dst: Ipv4Addr::new(192, 0, 2, 9),
                sport: 5000,
                dport: 5001,
                vlan: None,
            };
            flow.frame(PAYLOAD, &mut payload)
        })
        .collect();
    Rng::new(seed, 1).shuffle(&mut pool);
    pool
}

pub fn workload(seed: u64, scale: Scale) -> Bursts {
    let pool = split_pool(seed, scale.pick(FLOWS, BURST));
    Bursts::new(
        split_fleet(Placement::Line, true),
        pool.into_iter().map(|f| ("n1", f)).collect(),
        Shape {
            name: "split_esp",
            egress: Some(Placement::Line.egress_node()),
            hops_per_frame: 2,
            protected: true,
            frames_per_round: FLOWS,
            nominal_round_ms: 28.0,
        },
    )
}
