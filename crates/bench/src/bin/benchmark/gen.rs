//! Seeded input generation and the output digest.
//!
//! Everything a workload feeds the system is derived from `--seed`
//! through [`Rng`]; the system under test never sees the seed, only
//! the frames and graphs generated from it.

use std::net::Ipv4Addr;

use un_packet::{MacAddr, Packet, PacketBuilder};

/// SplitMix64: small, fast, and good enough to permute flow orders and
/// fill payloads. Same seed ⇒ same stream on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` separates the uses of one
    /// `--seed` (flow order, payload bytes, tenant order, …) so adding
    /// a draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Header fields of one generated UDP flow.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub sport: u16,
    pub dport: u16,
    /// 802.1Q tag on the wire, for VLAN endpoints.
    pub vlan: Option<u16>,
}

impl Flow {
    /// One frame of this flow: Ethernet + IPv4 + UDP + `payload_len`
    /// seeded payload bytes (22 bytes make the 64-byte minimum frame).
    pub fn frame(&self, payload_len: usize, rng: &mut Rng) -> Packet {
        let mut payload = vec![0u8; payload_len];
        rng.fill(&mut payload);
        let mut b = PacketBuilder::new().ethernet(MacAddr::local(1), MacAddr::local(2));
        if let Some(vid) = self.vlan {
            b = b.vlan(vid);
        }
        b.ipv4(self.src, self.dst)
            .udp(self.sport, self.dport)
            .payload(&payload)
            .build()
    }
}

/// Order-independent digest of a set of `(node, port, bytes)` frames:
/// per-frame FNV-1a hashes are summed, so two multisets are equal iff
/// (up to hash collision) their digests and counts are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub frames: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, node: &str, port: &str, bytes: &[u8]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let parts = [node.as_bytes(), &[0], port.as_bytes(), &[0], bytes];
        for b in parts.into_iter().flatten() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.frames += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_frames() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            let mut order: Vec<u32> = (0..64).collect();
            rng.shuffle(&mut order);
            let flow = Flow {
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 2),
                sport: 1,
                dport: 2,
                vlan: Some(7),
            };
            (order, flow.frame(22, &mut rng).data().to_vec())
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert_ne!(
            Rng::new(42, 1).next_u64(),
            Rng::new(42, 2).next_u64(),
            "streams of one seed are independent"
        );
    }

    #[test]
    fn minimum_frame_is_64_bytes() {
        let flow = Flow {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            sport: 1,
            dport: 2,
            vlan: None,
        };
        assert_eq!(flow.frame(22, &mut Rng::new(1, 1)).len(), 64);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let mut a = Digest::default();
        a.add("n1", "eth1", b"one");
        a.add("n2", "eth1", b"two");
        let mut b = Digest::default();
        b.add("n2", "eth1", b"two");
        b.add("n1", "eth1", b"one");
        assert_eq!(a, b);
        let mut wrong_port = Digest::default();
        wrong_port.add("n1", "eth0", b"one");
        wrong_port.add("n2", "eth1", b"two");
        assert_ne!(a, wrong_port);
        let mut wrong_bytes = Digest::default();
        wrong_bytes.add("n1", "eth1", b"onf");
        wrong_bytes.add("n2", "eth1", b"two");
        assert_ne!(a, wrong_bytes);
    }
}
