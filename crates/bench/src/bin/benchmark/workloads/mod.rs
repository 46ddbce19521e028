//! The five workloads and what they share.
//!
//! Every workload is a closed loop on one load-generator thread with
//! `workers = 1` (inline drain). A round has three phases: `prepare`
//! clones this round's inputs from the seeded pool, `run` makes the
//! calls into the system and nothing else — it is the timed section —
//! and `check` compares what came out with what the harness computed
//! from its own inputs.

mod acl_wildcard;
mod bursts;
mod cpe_ipsec;
mod local_chain;
mod split_esp;
mod tenant_churn;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, DomainIo, PlacementStrategy};
use un_nffg::{NfFg, NfFgBuilder};
use un_packet::Packet;
use un_sim::mem::mb;
use un_switch::TableStats;

use crate::gen::Digest;
use crate::spans::Spans;

pub use acl_wildcard::{acl_node, acl_pool};
pub use cpe_ipsec::cpe_pool;
pub use local_chain::{chain_fleet, chain_pool, CHAIN, FLOWS_PER_NODE, NODES};
pub use split_esp::{split_fleet, split_pool, Placement};

/// `(name, why)` of every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "local_chain",
        "bare forwarding at 64 bytes: microflow-hit classifier, NF boundary and node fabric do all the work",
    ),
    (
        "acl_wildcard",
        "same switch, every lookup leaves the fast path: 65536 non-repeating flows against 2304 wildcard rules",
    ),
    (
        "split_esp",
        "chain split over a 4-node line with ESP: shuttle, overlay, transit and seal/verify dominate",
    ),
    (
        "cpe_ipsec",
        "the paper's Table 1 native IPsec NNF at 1500 bytes, one frame per call: NNF boundary and per-call cost",
    ),
    (
        "tenant_churn",
        "control plane beside traffic: undeploy/deploy/update/verify/repair of 32 tenants on 16 nodes",
    ),
];

/// Frames per `inject_batch` call on the burst workloads.
pub const BURST: usize = 256;

/// How much of a workload a run builds: `Smoke` is ≈ 1 % of `Full`,
/// with every check on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` under `--smoke`.
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What one round did, as established by `check`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Operations attempted (frames; control calls on `tenant_churn`).
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Frames injected (equals `ops` on the data-plane workloads).
    pub frames: u64,
    /// Virtual time the cost model charged (`DomainIo.cost`/`NodeIo.cost`).
    pub model_ns: u64,
    /// `DomainIo.overlay_hops` summed.
    pub overlay_hops: u64,
    /// `DomainIo.protected_bytes` summed.
    pub protected_bytes: u64,
}

impl Outcome {
    pub fn add(&mut self, other: Outcome) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.frames += other.frames;
        self.model_ns += other.model_ns;
        self.overlay_hops += other.overlay_hops;
        self.protected_bytes += other.protected_bytes;
    }
}

pub trait Workload {
    /// Untimed: build this round's inputs from the pool.
    fn prepare(&mut self, round: u64);
    /// Timed: the calls into the system, each inside a span.
    fn run(&mut self, spans: &mut Spans);
    /// Untimed: check the round's outputs.
    fn check(&mut self) -> Outcome;
    /// Classifier counters summed over every node of the fixture.
    fn switch_stats(&self) -> TableStats;
    /// NF deliveries of one sampled frame, counted from flight-recorder
    /// hop records. The frame runs the real data plane.
    fn sample_nf_deliveries(&mut self) -> u64;
    /// End-of-run invariants (conservation ledger, vid accounting);
    /// returns the number that do not hold.
    fn finish(&mut self) -> u64;
    /// Layer metrics only this workload can count (name, value).
    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Wall time of one round on the reference host, in ms. A traced
    /// segment runs a fixed number of rounds derived from it, because
    /// its counts repeat exactly only over a fixed amount of work.
    fn nominal_round_ms(&self) -> f64;
}

/// Build a workload, warmed up: caches filled by one pass over the pool.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "local_chain" => Box::new(local_chain::workload(seed, scale)),
        "acl_wildcard" => Box::new(acl_wildcard::workload(seed, scale)),
        "split_esp" => Box::new(split_esp::workload(seed, scale)),
        "cpe_ipsec" => Box::new(cpe_ipsec::CpeIpsec::new(seed, scale)),
        "tenant_churn" => Box::new(tenant_churn::TenantChurn::new(seed, scale)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Shared fixtures and checks
// ---------------------------------------------------------------------

/// A node with `mem_mb` of memory and the given physical ports.
pub fn node(name: &str, mem_mb: u64, ports: &[&str]) -> UniversalNode {
    let mut n = UniversalNode::new(name, mb(mem_mb));
    for p in ports {
        n.add_physical_port(p);
    }
    n
}

/// `lan → <prefix>0 → … → <prefix>{len-1} → wan` over native bridges.
pub fn bridge_chain(id: &str, prefix: &str, len: usize, lan_if: &str, wan_if: &str) -> NfFg {
    let ids: Vec<String> = (0..len).map(|i| format!("{prefix}{i}")).collect();
    let mut b = NfFgBuilder::new(id, "chain")
        .interface_endpoint("lan", lan_if)
        .interface_endpoint("wan", wan_if);
    for nf in &ids {
        b = b.nf(nf, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    b.chain("lan", &refs, "wan").build()
}

/// Hints pinning both endpoints and every NF of `graph` to `node`.
pub fn pin_all(graph: &NfFg, node: &str) -> DeployHints {
    DeployHints {
        endpoint_node: graph
            .endpoints
            .iter()
            .map(|e| (e.id.clone(), node.to_string()))
            .collect(),
        nf_node: graph
            .nfs
            .iter()
            .map(|nf| (nf.id.clone(), node.to_string()))
            .collect(),
        strategy: Some(PlacementStrategy::Spread),
    }
}

pub fn domain(config: DomainConfig, nodes: Vec<UniversalNode>) -> Domain {
    let mut d = Domain::new(config);
    for n in nodes {
        d.add_node(n);
    }
    d
}

pub fn domain_switch_stats(d: &Domain) -> TableStats {
    let mut total = TableStats::default();
    for name in d.node_names() {
        if let Some(n) = d.node(&name) {
            total.merge(&n.flow_cache_stats());
        }
    }
    total
}

/// NF-boundary crossings recorded in one flight-recorder trace.
pub fn nf_deliveries(trace: &un_obs::PacketTrace) -> u64 {
    trace
        .hops
        .iter()
        .filter(|h| matches!(h.kind, un_obs::HopKind::NfDeliver { .. }))
        .count() as u64
}

/// Check one burst that the system should have forwarded untouched:
/// bridges and the overlay are transparent, so the digest of
/// `(node, port, bytes)` over what was emitted must equal the digest
/// the harness computed over what it sent. A burst either checks out
/// or every frame of it counts as failed — the digest cannot say which.
pub fn check_transparent(io: &DomainIo, sent: u64, expected: Digest) -> Outcome {
    let mut got = Digest::default();
    for (node, port, pkt) in &io.emitted {
        got.add(node, port, pkt.data());
    }
    Outcome {
        ops: sent,
        failed: if got == expected { 0 } else { sent },
        frames: sent,
        model_ns: io.cost.as_nanos(),
        overlay_hops: u64::from(io.overlay_hops),
        protected_bytes: io.protected_bytes,
    }
}

/// Digest the harness expects for `frames` leaving on `(node, port)`.
pub fn expect_at<'a>(node: &str, port: &str, frames: impl Iterator<Item = &'a Packet>) -> Digest {
    let mut d = Digest::default();
    for f in frames {
        d.add(node, port, f.data());
    }
    d
}

/// Conservation ledger balanced and no overlay vid leaked: every id in
/// `base..next` is free, in use or reserved by a standby, exactly once.
pub fn domain_invariant_violations(d: &Domain) -> u64 {
    let mut bad = 0;
    if !d.conservation_report().balanced() {
        bad += 1;
    }
    let (base, next, free, in_use, standby) = d.vid_accounting();
    let mut seen: Vec<u16> = free.into_iter().chain(in_use).chain(standby).collect();
    seen.sort_unstable();
    if seen != (base..next).collect::<Vec<u16>>() {
        bad += 1;
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Flow, Rng};
    use std::net::Ipv4Addr;

    #[test]
    fn workload_names_are_plain_and_unique() {
        let plain = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (i, (name, why)) in WORKLOADS.iter().enumerate() {
            assert!(plain(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|(n, _)| n != name));
            assert!(build(name, 1, Scale::Smoke).is_some());
        }
        assert!(build("no_such_workload", 1, Scale::Smoke).is_none());
    }

    /// Every workload passes its own checks at smoke size, and the
    /// same seed yields the same virtual-time cost.
    #[test]
    fn smoke_rounds_pass_their_checks_and_repeat() {
        for (name, _) in WORKLOADS {
            let run = |seed| {
                let mut w = build(name, seed, Scale::Smoke).unwrap();
                let mut total = Outcome::default();
                for round in 0..2 {
                    w.prepare(round);
                    w.run(&mut Spans::new(false));
                    total.add(w.check());
                }
                assert_eq!(w.finish(), 0, "{name}: end-of-run invariants");
                total
            };
            let a = run(5);
            assert!(a.ops > 0, "{name}");
            assert_eq!(a.failed, 0, "{name}");
            let b = run(5);
            assert_eq!((a.ops, a.model_ns), (b.ops, b.model_ns), "{name}");
        }
    }

    #[test]
    fn transparent_check_trips_on_a_corrupted_expectation() {
        let mut d = chain_fleet(DomainConfig::default(), 1, 1);
        let flow = Flow {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 0, 2, 9),
            sport: 5000,
            dport: 5001,
            vlan: None,
        };
        let frame = flow.frame(22, &mut Rng::new(1, 1));
        let good = expect_at("n0", "eth1", std::iter::once(&frame));
        let io = d.inject("n0", "eth0", frame.clone());
        assert_eq!(check_transparent(&io, 1, good).failed, 0);
        let wrong_port = expect_at("n0", "eth0", std::iter::once(&frame));
        assert_eq!(check_transparent(&io, 1, wrong_port).failed, 1);
        let mut flipped = frame.clone();
        flipped.data_mut()[50] ^= 1;
        let wrong_bytes = expect_at("n0", "eth1", std::iter::once(&flipped));
        assert_eq!(check_transparent(&io, 1, wrong_bytes).failed, 1);
        let lost = check_transparent(&DomainIo::default(), 1, good);
        assert_eq!(lost.failed, 1);
    }
}
