//! The Poly1305 one-time authenticator, per RFC 8439 §2.5.
//!
//! Arithmetic is carried out modulo p = 2^130 − 5 in radix 2^64: the
//! accumulator is `h = h0 + 2^64·h1 + 2^128·h2` with a small top limb,
//! and the key is `r = r0 + 2^64·r1`. The RFC clamp clears the low two
//! bits of `r1`, so `2^128·r1 = 2^130·(r1 >> 2) ≡ 5·(r1 >> 2) (mod p)`;
//! with `s1 = r1 + (r1 >> 2) = 5·(r1 >> 2)` one block is
//!
//! ```text
//! d0 = h0·r0 + h1·s1
//! d1 = h0·r1 + h1·r0 + h2·s1 + (d0 >> 64)
//! d2 = h2·r0 + (d1 >> 64)
//! ```
//!
//! and the bits of `d2` above 2^130 fold back into `h0` times 5. That is
//! four 64×64→128-bit multiplies and two `u64` multiplies per 16-byte
//! block, where 44/44/42-bit limbs need nine widening ones.
//!
//! The bounds that keep every product in its type: the clamp leaves
//! `r0, r1 < 2^60`, so `s1 < 1.25·2^60`. After a block's fold `h2 ≤ 4`,
//! and adding the next block (its 2^128 bit and a carry) leaves
//! `h2 ≤ 6` going into the multiply. Then `h2·s1 < 2^63` and
//! `h2·r0 < 2^63` are plain `u64` products, which debug builds check
//! for overflow; `d0 < 2.25·2^124` and `d1 < 2^125 + 2^64` stay inside
//! `u128`; and `d2 < 2^63`. The multiply chain is serial — block *i + 1*
//! needs the folded result of block *i*.

/// Key length in bytes (r || s).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// The RFC 8439 clamp on `r`.
const CLAMP: u128 = 0x0ffffffc_0ffffffc_0ffffffc_0fffffff;

/// Incremental Poly1305 MAC computation.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 2],
    s: u128,
    /// `h mod 2^128`; the top limb `h2` is beside it.
    h: u128,
    h2: u64,
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Initialize with a 32-byte one-time key (r clamped per the RFC).
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let (halves, _) = key.as_chunks::<16>();
        let r = u128::from_le_bytes(halves[0]) & CLAMP;
        Poly1305 {
            r: [r as u64, (r >> 64) as u64],
            s: u128::from_le_bytes(halves[1]),
            h: 0,
            h2: 0,
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
            self.process_blocks(&[block], 1);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.as_chunks::<16>();
        self.process_blocks(blocks, 1);
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

        // h2 ≤ 4, so h < 2^130 + 2^128 < 2p: one conditional subtraction
        // of p reduces it. g = h − p = h + 5 − 2^130 is selected when
        // h + 5 reaches 2^130. The tag keeps only bits below 2^128, so
        // the low 128 bits of g are those of h + 5.
        let (g, carry) = self.h.overflowing_add(5);
        let mask = u128::from((self.h2 + u64::from(carry)) >> 2).wrapping_neg();
        let h = (self.h & !mask) | (g & mask);

        // tag = (h + s) mod 2^128.
        h.wrapping_add(self.s).to_le_bytes()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }

    /// `h = (h + block) · r mod 2^130 − 5` for each block in turn, read
    /// in place; `hibit` is the block's 2^128 bit: 1 for full blocks, 0
    /// for the padded final one. `h` lives in locals for the whole run.
    fn process_blocks(&mut self, blocks: &[[u8; 16]], hibit: u64) {
        let [r0, r1] = self.r;
        let s1 = r1 + (r1 >> 2);
        let (wr0, wr1, ws1) = (u128::from(r0), u128::from(r1), u128::from(s1));
        let (mut h, mut h2) = (self.h, self.h2);

        for block in blocks {
            let (sum, carry) = h.overflowing_add(u128::from_le_bytes(*block));
            h2 += hibit + u64::from(carry);
            let (h0, h1) = (u128::from(sum as u64), sum >> 64);

            let d0 = h0 * wr0 + h1 * ws1;
            let d1 = h0 * wr1 + h1 * wr0 + u128::from(h2 * s1) + (d0 >> 64);
            let d2 = h2 * r0 + (d1 >> 64) as u64;

            // Keep d2's low two bits as h2; the rest is a multiple of
            // 2^130 ≡ 5 and re-enters at the bottom.
            let low = u128::from(d0 as u64) | (d1 << 64);
            let (folded, carry) = low.overflowing_add(u128::from((d2 >> 2) * 5));
            h = folded;
            h2 = (d2 & 3) + u64::from(carry);
        }
        self.h = h;
        self.h2 = h2;
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

    /// The key `r = 1` (key byte 0 is `01`, the rest of `r` zero) with
    /// `s` as given: the tag is then `h mod p` plus `s`, worked by hand.
    fn r_one_key(s: u8) -> [u8; 32] {
        let mut key = [s; 32];
        key[..16].fill(0);
        key[0] = 1;
        key
    }

    #[test]
    fn hand_derived_edges_around_p() {
        let mut tag = [0u8; 16];
        // Two all-ones blocks: h = 2^130 − 2 ≥ p, so the tag is h − p = 3.
        tag[0] = 3;
        assert_eq!(Poly1305::mac(&r_one_key(0), &[0xff; 32]), tag);

        // h = p − 1 is left as it is.
        let mut msg = [0xffu8; 32];
        msg[16] = 0xfb;
        let mut tag = [0xffu8; 16];
        tag[0] = 0xfa;
        assert_eq!(Poly1305::mac(&r_one_key(0), &msg), tag);

        // h = p reduces to zero.
        msg[16] = 0xfc;
        assert_eq!(Poly1305::mac(&r_one_key(0), &msg), [0; 16]);

        // s = 2^128 − 1: 3 + s wraps to 2.
        let mut tag = [0u8; 16];
        tag[0] = 2;
        assert_eq!(Poly1305::mac(&r_one_key(0xff), &[0xff; 32]), tag);
    }

    #[test]
    fn all_ones_long_message_block_at_a_time() {
        // The largest clamped r and all-ones blocks push the top limb
        // to its bound on every block; debug builds check each product.
        let key = [0xffu8; 32];
        let msg = [0xffu8; 4096];
        let mut p = Poly1305::new(&key);
        for block in msg.chunks(16) {
            p.update(block);
        }
        assert_eq!(Poly1305::mac(&key, &msg), p.finalize());
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
