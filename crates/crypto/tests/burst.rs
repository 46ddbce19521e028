//! Burst AEAD against one message at a time.
//!
//! `seal_burst` / `open_burst` pack the blocks of several messages into
//! the lanes of one wide ChaCha20 pass. Every message length 0…1100 is
//! sealed and opened inside bursts of 1 to 17 messages, in two orders —
//! lengths ascending, so neighbours pack, and scattered, so passes mix
//! short and long messages — and must give exactly what `seal` / `open`
//! give each message alone. `differential.rs` ties `seal` / `open` to
//! the scalar oracle, so the burst is tied to it too.

use un_crypto::aead::{open, open_burst, seal, seal_burst, AeadError, Job, TAG_LEN};

const KEY: [u8; 32] = [0x5a; 32];
const MAX_LEN: usize = 1100;

/// Message `i`: its nonce, AAD and plaintext of `len` bytes.
fn message(i: usize, len: usize) -> ([u8; 12], Vec<u8>, Vec<u8>) {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&(i as u64).to_be_bytes());
    let aad = (0..i % 13).map(|b| (b * 17 + i) as u8).collect();
    let data = (0..len).map(|b| (b * 31 + i * 7) as u8).collect();
    (nonce, aad, data)
}

/// Seal `lens` in bursts of 1, 2, … 17 messages, then open them the same
/// way with every fifth tag flipped, checking each burst against the
/// one-message functions.
fn check_bursts(lens: &[usize]) {
    let messages: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, len)| message(i, *len))
        .collect();
    let mut at = 0;
    for size in (1..=17).cycle() {
        if at == messages.len() {
            break;
        }
        let group = &messages[at..messages.len().min(at + size)];

        // Seal: the burst against each message sealed alone.
        let mut burst_data: Vec<Vec<u8>> = group.iter().map(|m| m.2.clone()).collect();
        let mut jobs: Vec<Job<'_>> = group
            .iter()
            .zip(burst_data.iter_mut())
            .map(|((nonce, aad, _), data)| Job {
                nonce: *nonce,
                aad,
                data,
                tag: [0; TAG_LEN],
            })
            .collect();
        seal_burst(&KEY, &mut jobs);
        let mut tags: Vec<[u8; TAG_LEN]> = jobs.iter().map(|j| j.tag).collect();
        drop(jobs);
        for (k, (nonce, aad, plain)) in group.iter().enumerate() {
            let mut alone = plain.clone();
            let tag = seal(&KEY, nonce, aad, &mut alone);
            let len = plain.len();
            assert_eq!(
                burst_data[k], alone,
                "sealed bytes, len {len}, burst of {size}"
            );
            assert_eq!(tags[k], tag, "tag, len {len}, burst of {size}");
        }

        // Open: every fifth message of the run carries a flipped tag.
        let forged = |k: usize| (at + k).is_multiple_of(5);
        for (k, tag) in tags.iter_mut().enumerate() {
            tag[k % TAG_LEN] ^= u8::from(forged(k));
        }
        let sealed = burst_data.clone();
        let mut jobs: Vec<Job<'_>> = group
            .iter()
            .zip(burst_data.iter_mut())
            .zip(&tags)
            .map(|(((nonce, aad, _), data), tag)| Job {
                nonce: *nonce,
                aad,
                data,
                tag: *tag,
            })
            .collect();
        let mut verdicts = Vec::new();
        open_burst(&KEY, &mut jobs, |i, v| verdicts.push((i, v)));
        drop(jobs);
        for (k, (nonce, aad, plain)) in group.iter().enumerate() {
            let mut alone = sealed[k].clone();
            let verdict = open(&KEY, nonce, aad, &mut alone, &tags[k]);
            let len = plain.len();
            assert_eq!(
                verdicts[k],
                (k, verdict),
                "verdict, len {len}, burst of {size}"
            );
            assert_eq!(
                burst_data[k], alone,
                "opened bytes, len {len}, burst of {size}"
            );
            if forged(k) {
                assert_eq!(verdict, Err(AeadError::TagMismatch));
                assert_eq!(burst_data[k], sealed[k], "a forged message was written");
            } else {
                assert_eq!(burst_data[k], *plain, "len {len}: not the plaintext");
            }
        }
        at += group.len();
    }
}

#[test]
fn a_burst_of_ascending_lengths_is_one_message_at_a_time() {
    let lens: Vec<usize> = (0..=MAX_LEN).collect();
    check_bursts(&lens);
}

#[test]
fn a_burst_of_scattered_lengths_is_one_message_at_a_time() {
    // 389 is prime to 1101, so this visits every length once.
    let lens: Vec<usize> = (0..=MAX_LEN).map(|i| i * 389 % (MAX_LEN + 1)).collect();
    check_bursts(&lens);
}

#[test]
fn an_empty_burst_does_nothing() {
    seal_burst(&KEY, &mut []);
    open_burst(&KEY, &mut [], |_, _| panic!("no verdict for no job"));
}
