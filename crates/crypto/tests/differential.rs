//! Differential suite: the lane-sliced ChaCha20 and 44-bit-limb Poly1305
//! in `src/` against the textbook implementations they replaced.
//!
//! [`oracle`] holds the scalar one-block-at-a-time ChaCha20 and the
//! 26-bit-limb Poly1305 exactly as they stood in `src/` before the
//! rewrite (RFC 8439 vectors and all); they exist only here. Every
//! comparison is exhaustive over its range, not sampled: a wrong lane
//! counter, a missed carry or a tail off by one byte fails a named
//! length.

#[allow(dead_code)]
mod oracle {
    pub mod chacha20 {
        /// Key length in bytes.
        pub const KEY_LEN: usize = 32;
        /// Nonce length in bytes (the IETF 96-bit variant).
        pub const NONCE_LEN: usize = 12;
        /// Keystream block length in bytes.
        pub const BLOCK_LEN: usize = 64;

        const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

        /// A ChaCha20 cipher instance bound to a key and nonce.
        #[derive(Clone)]
        pub struct ChaCha20 {
            key: [u32; 8],
            nonce: [u32; 3],
        }

        impl ChaCha20 {
            /// Create a cipher for `key` and `nonce`.
            pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
                let mut k = [0u32; 8];
                for (i, w) in k.iter_mut().enumerate() {
                    *w = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
                }
                let mut n = [0u32; 3];
                for (i, w) in n.iter_mut().enumerate() {
                    *w = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
                }
                ChaCha20 { key: k, nonce: n }
            }

            /// Compute the raw 64-byte block for `counter` (RFC 8439 §2.3).
            pub fn block(&self, counter: u32) -> [u8; BLOCK_LEN] {
                let mut state = [0u32; 16];
                state[..4].copy_from_slice(&SIGMA);
                state[4..12].copy_from_slice(&self.key);
                state[12] = counter;
                state[13..16].copy_from_slice(&self.nonce);

                let mut working = state;
                for _ in 0..10 {
                    // column rounds
                    quarter_round(&mut working, 0, 4, 8, 12);
                    quarter_round(&mut working, 1, 5, 9, 13);
                    quarter_round(&mut working, 2, 6, 10, 14);
                    quarter_round(&mut working, 3, 7, 11, 15);
                    // diagonal rounds
                    quarter_round(&mut working, 0, 5, 10, 15);
                    quarter_round(&mut working, 1, 6, 11, 12);
                    quarter_round(&mut working, 2, 7, 8, 13);
                    quarter_round(&mut working, 3, 4, 9, 14);
                }
                let mut out = [0u8; BLOCK_LEN];
                for i in 0..16 {
                    let word = working[i].wrapping_add(state[i]);
                    out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
                }
                out
            }

            /// XOR `data` in place with the keystream starting at block `counter`
            /// (RFC 8439 §2.4). Encryption and decryption are the same operation.
            pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
                let mut ctr = counter;
                for chunk in data.chunks_mut(BLOCK_LEN) {
                    let ks = self.block(ctr);
                    for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                        *b ^= k;
                    }
                    ctr = ctr.wrapping_add(1);
                }
            }
        }

        #[inline(always)]
        fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
    }

    pub mod poly1305 {
        /// Key length in bytes (r || s).
        pub const KEY_LEN: usize = 32;
        /// Tag length in bytes.
        pub const TAG_LEN: usize = 16;

        /// Incremental Poly1305 MAC computation.
        #[derive(Clone)]
        pub struct Poly1305 {
            r: [u32; 5],
            s: [u32; 4],
            acc: [u32; 5],
            buf: [u8; 16],
            buf_len: usize,
        }

        impl Poly1305 {
            /// Initialize with a 32-byte one-time key (r clamped per the RFC).
            pub fn new(key: &[u8; KEY_LEN]) -> Self {
                let t0 = u32::from_le_bytes(key[0..4].try_into().unwrap());
                let t1 = u32::from_le_bytes(key[4..8].try_into().unwrap());
                let t2 = u32::from_le_bytes(key[8..12].try_into().unwrap());
                let t3 = u32::from_le_bytes(key[12..16].try_into().unwrap());

                // Clamp and split into 26-bit limbs.
                let r = [
                    t0 & 0x3ff_ffff,
                    ((t0 >> 26) | (t1 << 6)) & 0x3ff_ff03,
                    ((t1 >> 20) | (t2 << 12)) & 0x3ff_c0ff,
                    ((t2 >> 14) | (t3 << 18)) & 0x3f0_3fff,
                    (t3 >> 8) & 0x00f_ffff,
                ];
                let s = [
                    u32::from_le_bytes(key[16..20].try_into().unwrap()),
                    u32::from_le_bytes(key[20..24].try_into().unwrap()),
                    u32::from_le_bytes(key[24..28].try_into().unwrap()),
                    u32::from_le_bytes(key[28..32].try_into().unwrap()),
                ];
                Poly1305 {
                    r,
                    s,
                    acc: [0; 5],
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
                    if self.buf_len == 16 {
                        let block = self.buf;
                        self.process_block(&block, false);
                        self.buf_len = 0;
                    }
                }
                while data.len() >= 16 {
                    let block: [u8; 16] = data[..16].try_into().unwrap();
                    self.process_block(&block, false);
                    data = &data[16..];
                }
                if !data.is_empty() {
                    self.buf[..data.len()].copy_from_slice(data);
                    self.buf_len = data.len();
                }
            }

            /// Finish and produce the 16-byte tag.
            pub fn finalize(mut self) -> [u8; TAG_LEN] {
                if self.buf_len > 0 {
                    let mut block = [0u8; 16];
                    block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
                    block[self.buf_len] = 1; // the padding 0x01 byte for a short block
                    self.process_block(&block, true);
                }

                // Full carry propagation.
                let mut h = self.acc;
                let mut c;
                c = h[1] >> 26;
                h[1] &= 0x3ff_ffff;
                h[2] += c;
                c = h[2] >> 26;
                h[2] &= 0x3ff_ffff;
                h[3] += c;
                c = h[3] >> 26;
                h[3] &= 0x3ff_ffff;
                h[4] += c;
                c = h[4] >> 26;
                h[4] &= 0x3ff_ffff;
                h[0] += c * 5;
                c = h[0] >> 26;
                h[0] &= 0x3ff_ffff;
                h[1] += c;

                // Compute h + -p and select.
                let mut g = [0u32; 5];
                let mut carry = 5u32;
                for i in 0..5 {
                    let t = h[i] + carry;
                    carry = t >> 26;
                    g[i] = t & 0x3ff_ffff;
                }
                g[4] = g[4].wrapping_sub(1 << 26);

                let mask = (g[4] >> 31).wrapping_sub(1); // all-ones if h >= p
                for i in 0..5 {
                    h[i] = (h[i] & !mask) | (g[i] & mask);
                }

                // Serialize to 128 bits and add s.
                let h0 = h[0] | (h[1] << 26);
                let h1 = (h[1] >> 6) | (h[2] << 20);
                let h2 = (h[2] >> 12) | (h[3] << 14);
                let h3 = (h[3] >> 18) | (h[4] << 8);

                let mut tag = [0u8; TAG_LEN];
                let mut acc: u64;
                acc = h0 as u64 + self.s[0] as u64;
                tag[0..4].copy_from_slice(&(acc as u32).to_le_bytes());
                acc = h1 as u64 + self.s[1] as u64 + (acc >> 32);
                tag[4..8].copy_from_slice(&(acc as u32).to_le_bytes());
                acc = h2 as u64 + self.s[2] as u64 + (acc >> 32);
                tag[8..12].copy_from_slice(&(acc as u32).to_le_bytes());
                acc = h3 as u64 + self.s[3] as u64 + (acc >> 32);
                tag[12..16].copy_from_slice(&(acc as u32).to_le_bytes());
                tag
            }

            /// One-shot MAC.
            pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
                let mut p = Poly1305::new(key);
                p.update(data);
                p.finalize()
            }

            fn process_block(&mut self, block: &[u8; 16], partial: bool) {
                let hibit: u32 = if partial { 0 } else { 1 << 24 };

                let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap());
                let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap());
                let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap());
                let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap());

                self.acc[0] += t0 & 0x3ff_ffff;
                self.acc[1] += ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
                self.acc[2] += ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
                self.acc[3] += ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
                self.acc[4] += (t3 >> 8) | hibit;

                // acc *= r (mod 2^130 - 5)
                let [r0, r1, r2, r3, r4] = self.r.map(|x| x as u64);
                let s1 = r1 * 5;
                let s2 = r2 * 5;
                let s3 = r3 * 5;
                let s4 = r4 * 5;
                let [h0, h1, h2, h3, h4] = self.acc.map(|x| x as u64);

                let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
                let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
                let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
                let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
                let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

                // Partial carry propagation back into 26-bit limbs.
                let mut c: u64;
                let mut out = [0u64; 5];
                c = d0 >> 26;
                out[0] = d0 & 0x3ff_ffff;
                let d1 = d1 + c;
                c = d1 >> 26;
                out[1] = d1 & 0x3ff_ffff;
                let d2 = d2 + c;
                c = d2 >> 26;
                out[2] = d2 & 0x3ff_ffff;
                let d3 = d3 + c;
                c = d3 >> 26;
                out[3] = d3 & 0x3ff_ffff;
                let d4 = d4 + c;
                c = d4 >> 26;
                out[4] = d4 & 0x3ff_ffff;
                out[0] += c * 5;
                c = out[0] >> 26;
                out[0] &= 0x3ff_ffff;
                out[1] += c;

                self.acc = out.map(|x| x as u32);
            }
        }
    }
}

use oracle::chacha20::ChaCha20 as OracleChaCha20;
use oracle::poly1305::Poly1305 as OraclePoly1305;
use un_crypto::{ChaCha20, Poly1305};

const KEY: [u8; 32] = [
    0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d, 0x8e, 0x8f,
    0x90, 0x91, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0x9b, 0x9c, 0x9d, 0x9e, 0x9f,
];
const NONCE: [u8; 12] = [7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];

fn message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + len) as u8).collect()
}

/// RFC 8439 §2.8 spelled out over the oracle primitives, the way
/// `un_crypto::seal` was written before it took one pass.
fn oracle_seal(aad: &[u8], data: &mut [u8]) -> [u8; 16] {
    let cipher = OracleChaCha20::new(&KEY, &NONCE);
    cipher.apply_keystream(1, data);
    let otk: [u8; 32] = cipher.block(0)[..32].try_into().unwrap();
    let mut mac = OraclePoly1305::new(&otk);
    for part in [aad, &*data] {
        mac.update(part);
        mac.update(&[0u8; 16][..(16 - part.len() % 16) % 16]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(data.len() as u64).to_le_bytes());
    mac.finalize()
}

fn assert_seal_matches(len: usize, aad_len: usize) {
    let plain = message(len);
    let aad = message(aad_len);
    let (mut new, mut old) = (plain.clone(), plain.clone());
    let new_tag = un_crypto::seal(&KEY, &NONCE, &aad, &mut new);
    let old_tag = oracle_seal(&aad, &mut old);
    assert_eq!(new, old, "ciphertext, len {len} aad {aad_len}");
    assert_eq!(new_tag, old_tag, "tag, len {len} aad {aad_len}");
    un_crypto::open(&KEY, &NONCE, &aad, &mut old, &old_tag).expect("oracle's seal opens");
    assert_eq!(old, plain, "plaintext, len {len} aad {aad_len}");
}

/// Ciphertext and tag on every length 0…2048, AAD lengths cycling
/// through 0…22 — and every AAD length at lengths on both sides of each
/// block and lane boundary.
#[test]
fn seal_matches_oracle_on_every_length() {
    for len in 0..=2048 {
        assert_seal_matches(len, len % 23);
    }
    for len in [0, 1, 15, 16, 17, 63, 64, 65, 384, 385, 449, 960, 961, 1488] {
        for aad_len in 0..=22 {
            assert_seal_matches(len, aad_len);
        }
    }
}

/// The raw keystream at every length within a block of each point where
/// `apply_keystream` changes what it runs: the wide/narrow threshold, a
/// full wide pass, and the threshold again behind one.
#[test]
fn keystream_matches_oracle_around_every_threshold() {
    let (new, old) = (
        ChaCha20::new(&KEY, &NONCE),
        OracleChaCha20::new(&KEY, &NONCE),
    );
    for centre in [448usize, 1024, 1024 + 448, 2048] {
        for len in centre - 65..=centre + 65 {
            let (mut a, mut b) = (message(len), message(len));
            new.apply_keystream(1, &mut a);
            old.apply_keystream(1, &mut b);
            assert_eq!(a, b, "len {len}");
        }
    }
}

/// Lane counters wrap exactly as the per-block `wrapping_add` does: the
/// 32-bit counter overflows inside a wide pass, between passes and in
/// the single-block tail.
#[test]
fn lane_counters_wrap_like_per_block_increment() {
    let (new, old) = (
        ChaCha20::new(&KEY, &NONCE),
        OracleChaCha20::new(&KEY, &NONCE),
    );
    for k in 0..20 {
        let counter = u32::MAX - k;
        assert_eq!(new.block(counter), old.block(counter), "block {counter:#x}");
        for len in [64usize, 449, 1024, 1500, 2048] {
            let (mut a, mut b) = (message(len), message(len));
            new.apply_keystream(counter, &mut a);
            old.apply_keystream(counter, &mut b);
            assert_eq!(a, b, "counter {counter:#x} len {len}");
        }
    }
}

/// Key and message all ones: every limb add and every product carries
/// as far as it can, block after block.
#[test]
fn poly1305_maximal_carries_match_oracle() {
    let key = [0xffu8; 32];
    let msg = [0xffu8; 300];
    for len in 0..=300 {
        assert_eq!(
            Poly1305::mac(&key, &msg[..len]),
            OraclePoly1305::mac(&key, &msg[..len]),
            "len {len}"
        );
    }
}

/// Incremental `update` split at every offset of a 200-byte message,
/// under ordinary and all-ones keys.
#[test]
fn poly1305_every_split_matches_oracle() {
    let msg = message(200);
    for key in [KEY, [0xff; 32]] {
        let expect = OraclePoly1305::mac(&key, &msg);
        for split in 0..=msg.len() {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), expect, "split at {split}");
        }
    }
}
