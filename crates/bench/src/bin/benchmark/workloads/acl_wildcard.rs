//! `acl_wildcard` — the same switch, used the other way.
//!
//! One node, one graph whose LSI carries 2048 `/24` `ip_dst` rules and,
//! in front of them, 256 never-matching higher-priority `/16` `ip_src`
//! rules, all steering into one bridge. 65536 distinct flows are sent
//! in a seeded order that never changes within a run, so a key comes
//! back only after 65535 others — eight times the 8192-entry microflow
//! cache. Every lookup leaves the fast path and every frame writes the
//! cache: a hit-path gain that costs the miss path shows here.

use std::net::Ipv4Addr;

use un_domain::{Domain, DomainConfig};
use un_nffg::{NfFg, NfFgBuilder, PortRef, RuleAction, TrafficMatch};
use un_packet::Packet;

use super::bursts::{Bursts, Shape};
use super::{domain, node, pin_all, Scale};
use crate::gen::{Flow, Rng};

const DST_RULES: usize = 2048;
const SRC_RULES: usize = 256;
const FLOWS: usize = 65_536;
const FRAMES_PER_ROUND: usize = 4096;

fn acl_graph() -> NfFg {
    let lan = || PortRef::Endpoint("lan".to_string());
    let to_bridge = || vec![RuleAction::Output(PortRef::Nf("br".to_string(), 0))];
    let mut b = NfFgBuilder::new("g-acl", "acl")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br", "bridge", 2);
    for r in 0..SRC_RULES {
        // Sources in 64.0.0.0/8 never match the 10.x test traffic.
        let m = TrafficMatch {
            ip_src: Some(format!("64.{r}.0.0/16")),
            ..TrafficMatch::from_port(lan())
        };
        b = b.rule(&format!("src{r}"), 30, m, to_bridge());
    }
    for r in 0..DST_RULES {
        let m = TrafficMatch {
            ip_dst: Some(format!("10.{}.{}.0/24", r / 256, r % 256)),
            ..TrafficMatch::from_port(lan())
        };
        b = b.rule(&format!("dst{r}"), 20, m, to_bridge());
    }
    b.rule_through("out", 10, ("br", 1), "wan")
        .rule_through("back", 10, "wan", ("br", 1))
        .rule_through("back-lan", 10, ("br", 0), "lan")
        .build()
}

/// The one-node fleet carrying the ACL graph.
pub fn acl_node() -> Domain {
    let mut d = domain(
        DomainConfig::default(),
        vec![node("n0", 2048, &["eth0", "eth1"])],
    );
    let graph = acl_graph();
    d.deploy_with(&graph, &pin_all(&graph, "n0"))
        .expect("ACL graph deploys");
    d
}

/// `flows` frames, one per flow, covering every `/24` rule, in seeded order.
pub fn acl_pool(seed: u64, flows: usize) -> Vec<Packet> {
    let mut payload = Rng::new(seed, 2);
    let mut pool: Vec<Packet> = (0..flows)
        .map(|i| {
            let rule = i % DST_RULES;
            let flow = Flow {
                src: Ipv4Addr::new(10, 200, (i >> 8) as u8, i as u8),
                dst: Ipv4Addr::new(
                    10,
                    (rule / 256) as u8,
                    (rule % 256) as u8,
                    1 + (i / DST_RULES) as u8,
                ),
                sport: 6000,
                dport: 6001,
                vlan: None,
            };
            flow.frame(22, &mut payload)
        })
        .collect();
    Rng::new(seed, 1).shuffle(&mut pool);
    pool
}

pub fn workload(seed: u64, scale: Scale) -> Bursts {
    let pool = acl_pool(seed, scale.pick(FLOWS, FRAMES_PER_ROUND));
    Bursts::new(
        acl_node(),
        pool.into_iter().map(|f| ("n0", f)).collect(),
        Shape {
            name: "acl_wildcard",
            egress: None,
            hops_per_frame: 0,
            protected: false,
            frames_per_round: FRAMES_PER_ROUND,
            nominal_round_ms: 10.0,
        },
    )
}
