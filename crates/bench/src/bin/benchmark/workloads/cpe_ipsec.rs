//! `cpe_ipsec` — the paper's Table 1 scenario, native flavor.
//!
//! `un_bench::build_ipsec_node("native")`: customer LAN → IPsec
//! endpoint NNF → WAN on one CPE. 1500-byte frames, **one frame per
//! `UniversalNode::inject` call**. The NNF boundary — adaptation layer
//! → `un-linux` host stack → xfrm → `un-crypto`, per byte — does nearly
//! all the work, classifier and fabric almost none; and it is the
//! per-frame call shape, so per-call overhead shows. The tunnel is
//! terminated by the harness's own gateway outside the timed section:
//! every frame must authenticate and decrypt to the inner packet sent.

use std::net::Ipv4Addr;

use un_bench::{build_ipsec_node, lan_spec, PSK};
use un_core::{Name, UniversalNode};
use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_nnf::translate::derive_psk_tunnel;
use un_packet::{IpProtocol, Ipv4Packet, Packet, PacketBuilder};
use un_switch::TableStats;

use super::{Outcome, Scale, Workload};
use crate::gen::Rng;
use crate::spans::Spans;

const FRAMES_PER_ROUND: usize = 4096;
pub const FRAME_LEN: usize = 1500;
const HEADERS: usize = 14 + 20 + 8;

/// The seeded 1500-byte LAN frames, addressed as `lan_spec` prescribes.
pub fn cpe_pool(node: &UniversalNode, seed: u64, frames: usize) -> Vec<Packet> {
    let spec = lan_spec(node);
    let mut rng = Rng::new(seed, 2);
    let mut payload = vec![0u8; FRAME_LEN - HEADERS];
    (0..frames)
        .map(|_| {
            rng.fill(&mut payload);
            PacketBuilder::new()
                .ethernet(spec.eth_src, spec.eth_dst)
                .ipv4(spec.ip_src, spec.ip_dst)
                .udp(spec.sport, spec.dport)
                .payload(&payload)
                .build()
        })
        .collect()
}

/// The remote security gateway: the responder end of the PSK tunnel.
pub struct Gateway(SecurityAssociation);

impl Gateway {
    pub fn new() -> Self {
        let (_, _, key_in, salt_in, _, spi_in) = derive_psk_tunnel(PSK.as_bytes(), false);
        Gateway(SecurityAssociation::inbound(
            spi_in,
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(192, 0, 2, 2),
            key_in,
            salt_in,
        ))
    }

    /// Authenticate and decrypt one WAN frame; the inner IPv4 packet,
    /// or `None` for anything that is not valid ESP under the tunnel SA.
    pub fn open(&mut self, frame: &Packet) -> Option<Vec<u8>> {
        let eth = frame.ethernet().ok()?;
        let ip = Ipv4Packet::new_checked(eth.payload()).ok()?;
        if ip.protocol() != IpProtocol::Esp {
            return None;
        }
        esp::decapsulate(&mut self.0, ip.payload()).ok()
    }
}

/// The inner packet the gateway must recover from `sent`: its IPv4
/// packet after one routed hop (TTL − 1, header checksum refreshed).
pub fn expected_inner(sent: &Packet) -> Vec<u8> {
    let mut ip = sent.data()[14..].to_vec();
    let mut view = Ipv4Packet::new_unchecked(&mut ip[..]);
    view.decrement_ttl();
    view.fill_checksum();
    ip
}

/// Check one round's WAN egress against what was sent, in order.
pub fn check_tunnel(
    gateway: &mut Gateway,
    sent: &[Packet],
    emitted: &[(Name, Packet)],
    model_ns: u64,
) -> Outcome {
    let mut failed = sent.len().abs_diff(emitted.len()) as u64;
    for (frame, (port, wire)) in sent.iter().zip(emitted) {
        let ok = *port == "eth1" && gateway.open(wire).as_deref() == Some(&expected_inner(frame));
        failed += u64::from(!ok);
    }
    Outcome {
        ops: sent.len() as u64,
        failed: failed.min(sent.len() as u64),
        frames: sent.len() as u64,
        model_ns,
        ..Outcome::default()
    }
}

pub struct CpeIpsec {
    node: UniversalNode,
    gateway: Gateway,
    pool: Vec<Packet>,
    frames: Vec<Packet>,
    emitted: Vec<(Name, Packet)>,
    model_ns: u64,
    sampled: usize,
}

impl CpeIpsec {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (node, _) = build_ipsec_node("native");
        let pool = cpe_pool(&node, seed, scale.pick(FRAMES_PER_ROUND, 64));
        let mut w = CpeIpsec {
            node,
            gateway: Gateway::new(),
            pool,
            frames: Vec::new(),
            emitted: Vec::new(),
            model_ns: 0,
            sampled: 0,
        };
        w.prepare(0);
        w.run(&mut Spans::new(false));
        assert_eq!(
            w.check().failed,
            0,
            "cpe_ipsec warm-up must reach the gateway"
        );
        w
    }
}

impl Workload for CpeIpsec {
    fn prepare(&mut self, _round: u64) {
        self.frames = self.pool.clone();
        self.emitted = Vec::with_capacity(self.pool.len());
        self.model_ns = 0;
    }

    fn run(&mut self, spans: &mut Spans) {
        for frame in std::mem::take(&mut self.frames) {
            let io = spans.call("core.inject", || self.node.inject("eth0", frame));
            self.model_ns += io.cost.as_nanos();
            self.emitted.extend(io.emitted);
        }
    }

    fn check(&mut self) -> Outcome {
        let emitted = std::mem::take(&mut self.emitted);
        check_tunnel(&mut self.gateway, &self.pool, &emitted, self.model_ns)
    }

    fn switch_stats(&self) -> TableStats {
        self.node.flow_cache_stats()
    }

    fn sample_nf_deliveries(&mut self) -> u64 {
        let frame = self.pool[self.sampled % self.pool.len()].clone();
        self.sampled += 1;
        let sink = un_obs::TraceSink::new("cpe", "eth0", false);
        let port = self.node.port_id("eth0").expect("eth0 exists");
        let io = self
            .node
            .inject_batch_flight(vec![(port, frame.clone())], Some(&sink));
        let out = check_tunnel(&mut self.gateway, &[frame], &io.emitted, 0);
        assert_eq!(out.failed, 0);
        super::nf_deliveries(&sink.snapshot())
    }

    fn finish(&mut self) -> u64 {
        0
    }

    fn nominal_round_ms(&self) -> f64 {
        27.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunnel_check_trips_on_a_corrupted_expectation() {
        let (mut node, _) = build_ipsec_node("native");
        let pool = cpe_pool(&node, 9, 3);
        let mut emitted = Vec::new();
        for f in &pool {
            emitted.extend(node.inject("eth0", f.clone()).emitted);
        }
        assert_eq!(
            check_tunnel(&mut Gateway::new(), &pool, &emitted, 0).failed,
            0
        );
        // A different payload than the one sent.
        let mut other = pool.clone();
        other[1].data_mut()[100] ^= 1;
        assert_eq!(
            check_tunnel(&mut Gateway::new(), &other, &emitted, 0).failed,
            1
        );
        // A frame tampered with on the wire does not authenticate.
        let mut tampered = emitted.clone();
        let last = tampered[2].1.len() - 1;
        tampered[2].1.data_mut()[last] ^= 1;
        assert_eq!(
            check_tunnel(&mut Gateway::new(), &pool, &tampered, 0).failed,
            1
        );
        // A lost frame.
        assert_eq!(
            check_tunnel(&mut Gateway::new(), &pool[..2], &emitted[..1], 0).failed,
            1
        );
    }
}
