//! The Poly1305 one-time authenticator, per RFC 8439 §2.5.
//!
//! Arithmetic is carried out modulo 2^130 − 5 on three limbs of 44, 44
//! and 42 bits (the "donna-64" representation): one 16-byte block costs
//! nine 64×64→128-bit multiplies instead of the twenty-five of the
//! 26-bit-limb form, and the partially reduced accumulator stays in
//! three registers across a whole run of blocks. The multiply chain is
//! serial — block *i + 1* needs the reduced result of block *i* — so
//! this is about a cycle per byte and scalar-bound.

/// Key length in bytes (r || s).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// 2^128 in limb 2: the bit appended above every full 16-byte block.
const HIBIT: u64 = 1 << 40;

/// Incremental Poly1305 MAC computation.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 3],
    s: u128,
    h: [u64; 3],
    buf: [u8; 16],
    buf_len: usize,
}

/// Split a little-endian 128-bit value into 44/44/40-bit limbs.
#[inline(always)]
fn limbs(block: &[u8; 16]) -> [u64; 3] {
    let v = u128::from_le_bytes(*block);
    let (t0, t1) = (v as u64, (v >> 64) as u64);
    [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24]
}

impl Poly1305 {
    /// Initialize with a 32-byte one-time key (r clamped per the RFC).
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let (halves, _) = key.as_chunks::<16>();
        let [r0, r1, r2] = limbs(&halves[0]);
        Poly1305 {
            // The clamp 0x0ffffffc_0ffffffc_0ffffffc_0fffffff, per limb.
            r: [
                r0 & 0xffc_0fff_ffff,
                r1 & 0xfff_ffc0_ffff,
                r2 & 0x00f_ffff_fc0f,
            ],
            s: u128::from_le_bytes(halves[1]),
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let want = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + want].copy_from_slice(&data[..want]);
            self.buf_len += want;
            data = &data[want..];
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.process_blocks(&[block], HIBIT);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.as_chunks::<16>();
        self.process_blocks(blocks, HIBIT);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and produce the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1; // the padding 0x01 byte for a short block
            self.process_blocks(&[block], 0);
        }

        // Full carry propagation: twice round the three limbs.
        let [mut h0, mut h1, mut h2] = self.h;
        let mut c;
        for _ in 0..2 {
            c = h1 >> 44;
            h1 &= MASK44;
            h2 += c;
            c = h2 >> 42;
            h2 &= MASK42;
            h0 += c * 5;
            c = h0 >> 44;
            h0 &= MASK44;
            h1 += c;
        }

        // Compute g = h − p = h + 5 − 2^130 and select it if h ≥ p.
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = (h2 + c).wrapping_sub(1 << 42);

        let mask = (g2 >> 63).wrapping_sub(1); // all-ones if h >= p
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);

        // tag = (h + s) mod 2^128. Sums, not ORs: the last carry may have
        // left h1 one bit over its limb. The shift drops bits above 127.
        let h = (u128::from(h0) + (u128::from(h1) << 44)).wrapping_add(u128::from(h2) << 88);
        h.wrapping_add(self.s).to_le_bytes()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }

    /// `h = (h + block) · r mod 2^130 − 5` for each block in turn, read
    /// in place; `hibit` is [`HIBIT`] for full blocks, 0 for the padded
    /// final one. `h` lives in locals for the whole run.
    fn process_blocks(&mut self, blocks: &[[u8; 16]], hibit: u64) {
        let [r0, r1, r2] = self.r.map(u128::from);
        // 2^132 ≡ 20 (mod p): a product that overflows limb 2 by one
        // 44-bit limb re-enters at limb 0 times 5 · 4.
        let s1 = r1 * 20;
        let s2 = r2 * 20;
        let [mut h0, mut h1, mut h2] = self.h;

        for block in blocks {
            let [m0, m1, m2] = limbs(block);
            let a0 = u128::from(h0 + m0);
            let a1 = u128::from(h1 + m1);
            let a2 = u128::from(h2 + (m2 | hibit));

            let d0 = a0 * r0 + a1 * s2 + a2 * s1;
            let mut d1 = a0 * r1 + a1 * r0 + a2 * s2;
            let mut d2 = a0 * r2 + a1 * r1 + a2 * r0;

            // Partial carry propagation back into 44/44/42-bit limbs.
            d1 += d0 >> 44;
            d2 += d1 >> 44;
            h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
            h1 = (d1 as u64 & MASK44) + (h0 >> 44);
            h0 &= MASK44;
            h2 = d2 as u64 & MASK42;
        }
        self.h = [h0, h1, h2];
    }
}

/// Constant-time tag comparison.
pub fn tags_equal(a: &[u8; TAG_LEN], b: &[u8; TAG_LEN]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| c.is_ascii_hexdigit()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        let tag = Poly1305::mac(&key, msg);
        assert_eq!(tag.to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = [0x42u8; 32];
        let msg: Vec<u8> = (0..200u8).collect();
        let oneshot = Poly1305::mac(&key, &msg);
        for split in [0usize, 1, 15, 16, 17, 33, 199, 200] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn empty_message() {
        let key = [1u8; 32];
        // Tag of an empty message is just `s` (r*0 + s).
        let tag = Poly1305::mac(&key, b"");
        assert_eq!(&tag[..], &key[16..32]);
    }

    #[test]
    fn tags_equal_constant_time_semantics() {
        let a = [1u8; 16];
        let mut b = [1u8; 16];
        assert!(tags_equal(&a, &b));
        b[15] ^= 1;
        assert!(!tags_equal(&a, &b));
    }

    #[test]
    fn tag_changes_with_message() {
        let key = [9u8; 32];
        let t1 = Poly1305::mac(&key, b"hello");
        let t2 = Poly1305::mac(&key, b"hellp");
        assert_ne!(t1, t2);
    }

    #[test]
    fn donna_boundary_block_sizes() {
        // Exercise the final-block padding path at every size mod 16.
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        let data = [0xAAu8; 64];
        let mut tags = std::collections::HashSet::new();
        for len in 0..=64 {
            let tag = Poly1305::mac(&key, &data[..len]);
            assert!(tags.insert(tag.to_vec()), "duplicate tag at len {len}");
        }
    }
}
