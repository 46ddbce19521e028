//! The shape the three forwarding workloads share: a seeded pool of
//! frames sent in bursts through `Domain::inject_batch`, which the
//! system must deliver untouched to a known egress.

use un_domain::{Domain, DomainIo};
use un_packet::Packet;
use un_switch::TableStats;

use super::{
    check_transparent, domain_invariant_violations, domain_switch_stats, nf_deliveries, Outcome,
    Workload, BURST,
};
use crate::gen::Digest;
use crate::spans::Spans;

/// What distinguishes one forwarding workload from another, besides
/// its fleet and its frames.
pub struct Shape {
    pub name: &'static str,
    /// The node every frame leaves on port `eth1`; `None` when a frame
    /// leaves the node it entered.
    pub egress: Option<&'static str>,
    /// Overlay hops every frame must make, and whether under ESP.
    pub hops_per_frame: u64,
    pub protected: bool,
    /// Frames per round: rounds walk the pool window by window, cyclically.
    pub frames_per_round: usize,
    pub nominal_round_ms: f64,
}

pub struct Bursts {
    domain: Domain,
    /// `(ingress node, frame)`: every frame enters on port `eth0`.
    pool: Vec<(&'static str, Packet)>,
    shape: Shape,
    /// Expected egress digest of each burst of the pool.
    expected: Vec<Digest>,
    /// First pool burst of the round in flight.
    first_burst: usize,
    bursts: Vec<Vec<(&'static str, Packet)>>,
    outputs: Vec<DomainIo>,
    sampled: usize,
}

impl Bursts {
    /// Wrap a deployed fleet and its pool, and run the warm-up round:
    /// caches filled, lazy indexes built.
    pub fn new(domain: Domain, pool: Vec<(&'static str, Packet)>, shape: Shape) -> Self {
        let expected = pool
            .chunks(BURST)
            .map(|burst| {
                let mut d = Digest::default();
                for (ingress, f) in burst {
                    d.add(shape.egress.unwrap_or(ingress), "eth1", f.data());
                }
                d
            })
            .collect();
        let mut w = Bursts {
            domain,
            pool,
            shape,
            expected,
            first_burst: 0,
            bursts: Vec::new(),
            outputs: Vec::new(),
            sampled: 0,
        };
        w.prepare(0);
        w.run(&mut Spans::new(false));
        assert_eq!(w.check().failed, 0, "{} warm-up must forward", w.shape.name);
        w
    }

    /// A burst checks out when its digest does and it crossed the
    /// overlay as the shape says. ESP that did not authenticate never
    /// reaches the egress, so the digest covers it; the hop and byte
    /// counts say the wire really was used, and protected.
    fn check_burst(&self, io: &DomainIo, expected: Digest) -> Outcome {
        let mut out = check_transparent(io, expected.frames, expected);
        if out.overlay_hops != self.shape.hops_per_frame * expected.frames
            || (out.protected_bytes > 0) != self.shape.protected
        {
            out.failed = out.ops;
        }
        out
    }
}

impl Workload for Bursts {
    fn prepare(&mut self, round: u64) {
        let per_round = self.shape.frames_per_round.min(self.pool.len()) / BURST;
        let pool_bursts = self.pool.len() / BURST;
        self.first_burst = (round as usize * per_round) % pool_bursts;
        self.bursts = self
            .pool
            .chunks(BURST)
            .skip(self.first_burst)
            .take(per_round)
            .map(<[_]>::to_vec)
            .collect();
    }

    fn run(&mut self, spans: &mut Spans) {
        let domain = &mut self.domain;
        self.outputs = std::mem::take(&mut self.bursts)
            .into_iter()
            .map(|burst| {
                spans.call("domain.inject_batch", || {
                    domain.inject_batch(burst.into_iter().map(|(n, f)| (n, "eth0", f)), 1)
                })
            })
            .collect();
    }

    fn check(&mut self) -> Outcome {
        let mut total = Outcome::default();
        let outputs = std::mem::take(&mut self.outputs);
        for (io, expected) in outputs.iter().zip(&self.expected[self.first_burst..]) {
            total.add(self.check_burst(io, *expected));
        }
        total
    }

    fn switch_stats(&self) -> TableStats {
        domain_switch_stats(&self.domain)
    }

    fn sample_nf_deliveries(&mut self) -> u64 {
        let (ingress, frame) = &self.pool[self.sampled % self.pool.len()];
        self.sampled += 1;
        let (io, trace) = self.domain.inject_traced(ingress, "eth0", frame.clone(), 1);
        let mut expected = Digest::default();
        expected.add(self.shape.egress.unwrap_or(ingress), "eth1", frame.data());
        assert_eq!(check_transparent(&io, 1, expected).failed, 0);
        nf_deliveries(&trace)
    }

    fn finish(&mut self) -> u64 {
        domain_invariant_violations(&self.domain)
    }

    fn nominal_round_ms(&self) -> f64 {
        self.shape.nominal_round_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{chain_fleet, chain_pool};
    use un_domain::DomainConfig;

    /// The overlay expectation is checked too: a shape that claims a hop
    /// the fleet does not make fails every frame, at warm-up already.
    #[test]
    #[should_panic(expected = "warm-up must forward")]
    fn burst_check_trips_on_a_wrong_hop_expectation() {
        Bursts::new(
            chain_fleet(DomainConfig::default(), 1, 1),
            chain_pool(1, 1, BURST),
            Shape {
                name: "one_hop_claimed",
                egress: None,
                hops_per_frame: 1,
                protected: false,
                frames_per_round: BURST,
                nominal_round_ms: 1.0,
            },
        );
    }
}
