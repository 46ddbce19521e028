//! HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869).
//!
//! The IKE-lite control plane in `un-ipsec` authenticates its handshake
//! with HMAC over a pre-shared key and derives per-SA traffic keys with
//! HKDF, mirroring (in simplified form) how IKEv2 PRFs derive keying
//! material for child SAs.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Compute HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let d = Sha256::digest(key);
        k[..DIGEST_LEN].copy_from_slice(&d);
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(data);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// HKDF-Extract: derive a pseudorandom key from input keying material.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: expand a PRK into `out.len()` bytes of keying material.
/// Panics if more than 255 blocks (8160 bytes) are requested.
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut t: Vec<u8> = Vec::new();
    // T(1) … T(255): the assert above keeps the chunks within the counters.
    for (counter, chunk) in (1u8..=255).zip(out.chunks_mut(DIGEST_LEN)) {
        let mut msg = Vec::with_capacity(t.len() + info.len() + 1);
        msg.extend_from_slice(&t);
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(prk, &msg);
        chunk.copy_from_slice(&block[..chunk.len()]);
        t = block.to_vec();
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

    fn hexstr(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = vec![0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hexstr(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hexstr(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_key_data() {
        let key = vec![0xaa; 20];
        let data = vec![0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hexstr(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_key_longer_than_block() {
        let key = vec![0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hexstr(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc5869_case1() {
        // HKDF-SHA256 test case 1.
        let ikm = vec![0x0b; 22];
        let salt = hex("000102030405060708090a0b0c");
        let info = hex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hexstr(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = vec![0u8; 42];
        hkdf_expand(&prk, &info, &mut okm);
        assert_eq!(
            hexstr(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_multiblock_expand() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let mut okm = vec![0u8; 100];
        hkdf_expand(&prk, b"ctx", &mut okm);
        // Different info must give different output.
        let mut okm2 = vec![0u8; 100];
        hkdf_expand(&prk, b"ctx2", &mut okm2);
        assert_ne!(okm, okm2);
        // Prefix property: requesting fewer bytes yields a prefix.
        let mut short = vec![0u8; 32];
        hkdf_expand(&prk, b"ctx", &mut short);
        assert_eq!(&okm[..32], &short[..]);
    }

    /// RFC 5869's maximum, 255 blocks, is a legal request: the counter
    /// byte reaches 255 and is never advanced past it.
    #[test]
    fn hkdf_expands_the_maximum_length() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let mut okm = vec![0u8; 255 * DIGEST_LEN];
        hkdf_expand(&prk, b"ctx", &mut okm);
        let mut short = vec![0u8; 64];
        hkdf_expand(&prk, b"ctx", &mut short);
        assert_eq!(&okm[..64], &short[..]);
        assert_ne!(okm[254 * DIGEST_LEN..], [0u8; DIGEST_LEN]);
    }
}
