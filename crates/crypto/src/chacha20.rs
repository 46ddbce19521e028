//! The ChaCha20 stream cipher, per RFC 8439 §2.3–2.4.
//!
//! State is sixteen 32-bit words: 4 constants, 8 key words, a 32-bit block
//! counter and a 96-bit nonce. Each 64-byte keystream block is produced by
//! 20 rounds (10 column/diagonal double-rounds) plus the feed-forward add.
//!
//! # Lane layout
//!
//! `N` blocks are computed side by side on *word-sliced* state:
//! `state[w][lane]` is word `w` of the `lane`-th block. Every step of a
//! quarter-round is then the same operation on `N` independent lanes,
//! written as a plain `for lane in 0..N` loop — the one form the
//! auto-vectoriser turns into packed adds, xors and shifts on baseline
//! x86-64 (row layouts and `[u32; 4]` helpers stay scalar: the SLP pass
//! refuses the rotates). Narrower lane loops (4, 8) are unrolled before
//! the vectoriser sees them and come out scalar too, hence sixteen.
//!
//! The lanes share the key; rows 12–15 — counter and nonce — come from a
//! *lane schedule*, one column per lane. A run of one message schedules
//! `counter + lane` under its own nonce; a burst of AEAD messages
//! (`Lanes`) packs the blocks of several messages, each lane with its
//! own nonce and counter — the multi-buffer technique.
//!
//! There is one implementation, the private `ChaCha20::blocks::<N>`,
//! instantiated at [`WIDE`] lanes and at one lane. Which one runs depends
//! on how many blocks a pass can fill: a message long enough to fill
//! `WIDE_MIN_BLOCKS` lanes on its own, or a burst of short messages
//! that fill them together, takes the wide one; a lone short message and
//! tails take the one-lane one — no `unsafe`, no `std::arch`, no
//! CPU-feature switch. CI disassembles the release build and fails if
//! the lane loop holds no packed shift.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (the IETF 96-bit variant).
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// Lanes of the bulk instantiation: sixteen blocks, 1 KiB of keystream,
/// per pass.
pub const WIDE: usize = 16;

/// A wide pass costs about as much as this many single blocks (≈ 680 ns
/// against ≈ 85 ns each on baseline x86-64), so it is taken — idle lanes
/// and all — once at least this many are needed.
const WIDE_MIN_BLOCKS: usize = 8;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
/// Word of the state that holds the block counter.
const COUNTER: usize = 12;

/// `N` keystream blocks, word-sliced: `[w][lane]` is little-endian word
/// `w` of the `lane`-th block.
type Sliced<const N: usize> = [[u32; N]; 16];

/// A lane schedule: rows 12–15 of `N` blocks' input — the counter, then
/// the three nonce words — one column per lane.
type Schedule<const N: usize> = [[u32; N]; 4];

/// A ChaCha20 cipher instance bound to a key and nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    /// The initial state of block 0: constants, key, counter, nonce.
    state: [u32; 16],
}

impl ChaCha20 {
    /// Create a cipher for `key` and `nonce`.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for (w, bytes) in state[4..COUNTER].iter_mut().zip(key.as_chunks::<4>().0) {
            *w = u32::from_le_bytes(*bytes);
        }
        state[COUNTER + 1..].copy_from_slice(&nonce_words(nonce));
        ChaCha20 { state }
    }

    /// The `N` blocks `schedule` names, under this cipher's key: lane
    /// `l` is the block at counter `schedule[0][l]` under the nonce in
    /// `schedule[1..][l]`.
    #[inline]
    fn blocks<const N: usize>(&self, schedule: &Schedule<N>) -> Sliced<N> {
        let mut init: Sliced<N> = self.state.map(|word| [word; N]);
        init[COUNTER..].copy_from_slice(schedule);

        let mut s = init;
        for _ in 0..10 {
            // column rounds
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            // diagonal rounds
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (row, init_row) in s.iter_mut().zip(&init) {
            for (word, init_word) in row.iter_mut().zip(init_row) {
                *word = word.wrapping_add(*init_word);
            }
        }
        s
    }

    /// The schedule of `N` consecutive blocks under this cipher's
    /// nonce: counters `counter`, `counter + 1`, … (each wrapping on its
    /// own, as RFC 8439's per-block increment does).
    #[inline]
    fn consecutive<const N: usize>(&self, counter: u32) -> Schedule<N> {
        let mut schedule = [[0; N]; 4];
        for (row, word) in schedule.iter_mut().zip(&self.state[COUNTER..]) {
            *row = [*word; N];
        }
        for (lane, ctr) in schedule[0].iter_mut().enumerate() {
            *ctr = counter.wrapping_add(lane as u32);
        }
        schedule
    }

    /// Compute the raw 64-byte block for `counter` (RFC 8439 §2.3).
    pub fn block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        let mut out = [0u8; BLOCK_LEN];
        xor_lanes(&self.blocks::<1>(&self.consecutive(counter)), 0, &mut out);
        out
    }

    /// XOR `data` in place with the keystream starting at block `counter`
    /// (RFC 8439 §2.4). Encryption and decryption are the same operation.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        let mut ctr = counter;
        let mut rest = data;
        while wide_pays(rest.len(), 0) {
            let (chunk, tail) = rest.split_at_mut(rest.len().min(WIDE * BLOCK_LEN));
            xor_lanes(&self.blocks::<WIDE>(&self.consecutive(ctr)), 0, chunk);
            ctr = ctr.wrapping_add(WIDE as u32);
            rest = tail;
        }
        for chunk in rest.chunks_mut(BLOCK_LEN) {
            xor_lanes(&self.blocks::<1>(&self.consecutive(ctr)), 0, chunk);
            ctr = ctr.wrapping_add(1);
        }
    }

    /// One AEAD pass over `data` (RFC 8439 §2.6, §2.8): the first half of
    /// keystream block 0 is the one-time MAC key, blocks 1… are XORed
    /// into `data` — all from one run of the block function where the
    /// message is long enough for the wide one.
    ///
    /// `admit` sees the key and the still-untouched `data` first. If it
    /// returns `false` the pass stops there: not a byte of `data` is
    /// written. Returns the key and whether the keystream was applied.
    pub fn aead_pass(
        &self,
        data: &mut [u8],
        admit: impl FnOnce(&[u8; 32], &[u8]) -> bool,
    ) -> ([u8; 32], bool) {
        if wide_pays(data.len(), 1) {
            self.aead_pass_with::<WIDE>(data, admit)
        } else {
            self.aead_pass_with::<1>(data, admit)
        }
    }

    fn aead_pass_with<const N: usize>(
        &self,
        data: &mut [u8],
        admit: impl FnOnce(&[u8; 32], &[u8]) -> bool,
    ) -> ([u8; 32], bool) {
        let first = self.blocks::<N>(&self.consecutive(0));
        let key = one_time_key(&first, 0);
        if !admit(&key, data) {
            return (key, false);
        }
        let (head, rest) = data.split_at_mut(data.len().min((N - 1) * BLOCK_LEN));
        xor_lanes(&first, 1, head);
        self.apply_keystream(N as u32, rest);
        (key, true)
    }

    /// The wide pass `lanes` booked, under this cipher's key (the lanes
    /// bring their own nonces).
    pub(crate) fn lane_pass(&self, lanes: &Lanes) -> LanePass {
        LanePass {
            ks: self.blocks::<WIDE>(&lanes.schedule),
            next: 0,
        }
    }
}

/// The lanes of one wide pass shared by several AEAD messages under one
/// key, booked in message order: each message takes one lane for its
/// block 0 — the one-time MAC key — and one per block of its data, each
/// under its own nonce.
#[derive(Default)]
pub(crate) struct Lanes {
    schedule: Schedule<WIDE>,
    booked: usize,
}

impl Lanes {
    /// Book the AEAD blocks of a message of `len` bytes under `nonce`
    /// into the next free lanes; `false`, and nothing booked, when they
    /// do not fit.
    pub(crate) fn book(&mut self, nonce: &[u8; NONCE_LEN], len: usize) -> bool {
        let first = self.booked;
        let end = first + 1 + len.div_ceil(BLOCK_LEN);
        if end > WIDE {
            return false;
        }
        let nonce = nonce_words(nonce);
        for (counter, lane) in (first..end).enumerate() {
            self.schedule[0][lane] = counter as u32;
            for (row, word) in self.schedule[1..].iter_mut().zip(nonce) {
                row[lane] = word;
            }
        }
        self.booked = end;
        true
    }

    /// Whether the lanes booked fill enough of a wide pass to pay for it.
    pub(crate) fn pays(&self) -> bool {
        self.booked >= WIDE_MIN_BLOCKS
    }
}

/// The keystream of one wide pass [`Lanes`] booked, handed out message
/// by message in booking order.
pub(crate) struct LanePass {
    ks: Sliced<WIDE>,
    /// The first lane of the next message.
    next: usize,
}

impl LanePass {
    /// [`ChaCha20::aead_pass`] for the next message booked, whose data is
    /// `data`, from the lanes booked for it.
    pub(crate) fn aead_pass(
        &mut self,
        data: &mut [u8],
        admit: impl FnOnce(&[u8; 32], &[u8]) -> bool,
    ) -> ([u8; 32], bool) {
        let lane = self.next;
        self.next += 1 + data.len().div_ceil(BLOCK_LEN);
        debug_assert!(self.next <= WIDE, "a message outran its lanes");
        let key = one_time_key(&self.ks, lane);
        if !admit(&key, data) {
            return (key, false);
        }
        xor_lanes(&self.ks, lane + 1, data);
        (key, true)
    }
}

/// The three nonce words of `nonce`, little-endian.
fn nonce_words(nonce: &[u8; NONCE_LEN]) -> [u32; 3] {
    let (words, _) = nonce.as_chunks::<4>();
    [0, 1, 2].map(|i| u32::from_le_bytes(words[i]))
}

/// The one-time MAC key in lane `lane` of `ks`: the first half of that
/// block.
fn one_time_key<const N: usize>(ks: &Sliced<N>, lane: usize) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (bytes, row) in key.as_chunks_mut::<4>().0.iter_mut().zip(ks) {
        *bytes = row[lane].to_le_bytes();
    }
    key
}

/// Whether a wide pass is the cheaper way to produce keystream for
/// `len` bytes plus `extra` whole blocks riding along (block 0 of an
/// AEAD pass).
fn wide_pays(len: usize, extra: usize) -> bool {
    len.div_ceil(BLOCK_LEN) + extra >= WIDE_MIN_BLOCKS
}

/// One quarter-round on every lane at once. The lane loop is the
/// vectorised dimension; `a`, `b`, `c`, `d` are distinct rows.
#[inline(always)]
// An index loop on purpose: four rows are read and written per lane, and
// this is the shape LLVM's loop vectoriser recognises (see module docs).
#[allow(clippy::needless_range_loop)]
fn quarter_round<const N: usize>(s: &mut Sliced<N>, a: usize, b: usize, c: usize, d: usize) {
    for lane in 0..N {
        s[a][lane] = s[a][lane].wrapping_add(s[b][lane]);
        s[d][lane] = (s[d][lane] ^ s[a][lane]).rotate_left(16);
        s[c][lane] = s[c][lane].wrapping_add(s[d][lane]);
        s[b][lane] = (s[b][lane] ^ s[c][lane]).rotate_left(12);
        s[a][lane] = s[a][lane].wrapping_add(s[b][lane]);
        s[d][lane] = (s[d][lane] ^ s[a][lane]).rotate_left(8);
        s[c][lane] = s[c][lane].wrapping_add(s[d][lane]);
        s[b][lane] = (s[b][lane] ^ s[c][lane]).rotate_left(7);
    }
}

/// XOR `data` with the blocks in lanes `first_lane…` of `ks`, a 32-bit
/// word at a time; only a final partial block goes byte by byte.
/// `data` must fit in those lanes.
#[inline]
fn xor_lanes<const N: usize>(ks: &Sliced<N>, first_lane: usize, data: &mut [u8]) {
    debug_assert!(data.len() <= (N - first_lane) * BLOCK_LEN);
    let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
    let mut lane = first_lane;
    for block in blocks {
        for (bytes, row) in block.as_chunks_mut::<4>().0.iter_mut().zip(ks) {
            *bytes = (u32::from_le_bytes(*bytes) ^ row[lane]).to_le_bytes();
        }
        lane += 1;
    }
    for (i, byte) in tail.iter_mut().enumerate() {
        *byte ^= ks[i / 4][lane].to_le_bytes()[i % 4];
    }
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
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = hex("000000090000004a00000000").try_into().unwrap();
        let cipher = ChaCha20::new(&key, &nonce);
        let block = cipher.block(1);
        let expected = hex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(block.to_vec(), expected);
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext.
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = hex("000000000000004a00000000").try_into().unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let cipher = ChaCha20::new(&key, &nonce);
        cipher.apply_keystream(1, &mut data);
        let expected = hex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn keystream_roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let cipher = ChaCha20::new(&key, &nonce);
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let orig = data.clone();
        cipher.apply_keystream(5, &mut data);
        assert_ne!(data, orig);
        cipher.apply_keystream(5, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn multiblock_counter_advances() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let cipher = ChaCha20::new(&key, &nonce);
        // Encrypting 130 bytes in one call == encrypting per-64B-block
        // with manually advanced counters.
        let mut whole = vec![0u8; 130];
        cipher.apply_keystream(0, &mut whole);
        let mut parts = vec![0u8; 130];
        cipher.apply_keystream(0, &mut parts[..64]);
        cipher.apply_keystream(1, &mut parts[64..128]);
        cipher.apply_keystream(2, &mut parts[128..]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [3u8; 32];
        let c1 = ChaCha20::new(&key, &[0u8; 12]);
        let c2 = ChaCha20::new(&key, &[1u8; 12]);
        assert_ne!(c1.block(0), c2.block(0));
    }

    /// The wide pass is the single-block function sixteen times over:
    /// every lane, at a counter that wraps mid-pass.
    #[test]
    fn wide_lanes_are_consecutive_single_blocks() {
        let cipher = ChaCha20::new(&[0x5c; 32], &[0xa3; 12]);
        let counter = u32::MAX - 5;
        let wide = cipher.blocks::<WIDE>(&cipher.consecutive(counter));
        for lane in 0..WIDE {
            let single = cipher.blocks::<1>(&cipher.consecutive(counter.wrapping_add(lane as u32)));
            assert_eq!(wide.map(|row| [row[lane]]), single, "lane {lane}");
        }
    }

    /// A schedule of mixed nonces and counters: every lane is the
    /// one-lane function at that lane's own (counter, nonce), a counter
    /// wrapping from `u32::MAX` to 0 mid-pass included.
    #[test]
    fn each_lane_is_the_single_block_at_its_own_counter_and_nonce() {
        let key = [0x3d; 32];
        let keyed = ChaCha20::new(&key, &[0; 12]);
        let nonce = |lane: usize| [lane as u8 % 5; 12].map(|b| b.wrapping_mul(0x9b) ^ 0x11);
        let counter = |lane: usize| match lane {
            0..=3 => (u32::MAX - 1).wrapping_add(lane as u32),
            _ => (lane as u32).wrapping_mul(0x0101_0101),
        };
        let mut schedule: Schedule<WIDE> = [[0; WIDE]; 4];
        for lane in 0..WIDE {
            schedule[0][lane] = counter(lane);
            for (row, word) in schedule[1..].iter_mut().zip(nonce_words(&nonce(lane))) {
                row[lane] = word;
            }
        }
        let wide = keyed.blocks::<WIDE>(&schedule);
        for lane in 0..WIDE {
            let mut got = [0u8; BLOCK_LEN];
            xor_lanes(&wide, lane, &mut got);
            let single = ChaCha20::new(&key, &nonce(lane)).block(counter(lane));
            assert_eq!(got, single, "lane {lane}");
        }
    }

    /// Booked lanes are each message's block 0 and data blocks under its
    /// nonce; a message that does not fit books nothing.
    #[test]
    fn booked_lanes_are_each_messages_own_pass() {
        let key = [0x77; 32];
        let lens = [0usize, 1, 64, 65, 300];
        let mut lanes = Lanes::default();
        for (i, len) in lens.iter().enumerate() {
            assert!(lanes.book(&[i as u8; 12], *len), "len {len}");
        }
        assert_eq!(lanes.booked, 1 + 2 + 2 + 3 + 6);
        assert!(!lanes.book(&[9; 12], 65), "past the sixteenth lane");
        assert_eq!(lanes.booked, 14);
        assert!(lanes.pays());
        let mut pass = ChaCha20::new(&key, &[0; 12]).lane_pass(&lanes);
        for (i, len) in lens.iter().enumerate() {
            let own = ChaCha20::new(&key, &[i as u8; 12]);
            let plain: Vec<u8> = (0..*len).map(|b| b as u8).collect();
            let (mut lanes_data, mut own_data) = (plain.clone(), plain.clone());
            let got = pass.aead_pass(&mut lanes_data, |_, seen| seen == plain);
            assert_eq!(got, own.aead_pass(&mut own_data, |_, _| true), "len {len}");
            assert_eq!(lanes_data, own_data, "len {len}");
        }
    }

    /// `aead_pass` is block 0 for the key and `apply_keystream(1, …)` for
    /// the data on both sides of the wide threshold, and a refused pass
    /// writes nothing.
    #[test]
    fn aead_pass_is_block_zero_then_keystream_from_one() {
        let cipher = ChaCha20::new(&[0x11; 32], &[0x22; 12]);
        for len in [
            0usize, 1, 63, 64, 383, 384, 385, 447, 448, 449, 959, 960, 961, 1488, 2048,
        ] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let mut expect = plain.clone();
            cipher.apply_keystream(1, &mut expect);

            let mut data = plain.clone();
            let (key, applied) = cipher.aead_pass(&mut data, |_, seen| seen == plain);
            assert!(applied);
            assert_eq!(key, cipher.block(0)[..32], "len {len}");
            assert_eq!(data, expect, "len {len}");

            let mut refused = plain.clone();
            let (key, applied) = cipher.aead_pass(&mut refused, |_, _| false);
            assert!(!applied);
            assert_eq!(key, cipher.block(0)[..32]);
            assert_eq!(refused, plain, "len {len}: refused pass wrote bytes");
        }
    }
}
