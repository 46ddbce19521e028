//! The ChaCha20-Poly1305 AEAD construction, per RFC 8439 §2.8.
//!
//! This is the AEAD that ESP uses when configured with
//! `rfc7634`-style ChaCha20-Poly1305, and what the simulated strongSwan
//! (`un-ipsec`) negotiates for its SAs.

use crate::chacha20::ChaCha20;
use crate::poly1305::{tags_equal, Poly1305};

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// AEAD failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The authentication tag did not verify; the ciphertext or AAD was
    /// tampered with (or the wrong key/nonce was used).
    TagMismatch,
    /// Ciphertext shorter than a tag.
    TruncatedInput,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::TagMismatch => write!(f, "AEAD tag mismatch"),
            AeadError::TruncatedInput => write!(f, "AEAD input shorter than tag"),
        }
    }
}

impl std::error::Error for AeadError {}

/// The RFC 8439 §2.8 MAC input under one-time key `otk`: AAD and
/// ciphertext each zero-padded to a 16-byte boundary, then both lengths.
fn compute_tag(otk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(otk);
    mac.update(aad);
    mac.update(&[0u8; 16][..pad16(aad.len())]);
    mac.update(ciphertext);
    mac.update(&[0u8; 16][..pad16(ciphertext.len())]);
    let lengths = (aad.len() as u128) | (ciphertext.len() as u128) << 64;
    mac.update(&lengths.to_le_bytes());
    mac.finalize()
}

fn pad16(len: usize) -> usize {
    (16 - (len % 16)) % 16
}

/// Encrypt `plaintext` in place and return the authentication tag.
///
/// `aad` is authenticated but not encrypted (ESP uses the SPI + sequence
/// number here). One cipher instance, one keystream pass: the one-time
/// Poly1305 key (RFC 8439 §2.6) is block 0 of the run that encrypts.
pub fn seal(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &mut [u8],
) -> [u8; TAG_LEN] {
    let (otk, _) = ChaCha20::new(key, nonce).aead_pass(plaintext, |_, _| true);
    compute_tag(&otk, aad, plaintext)
}

/// Verify `tag` over `ciphertext`/`aad` and decrypt in place.
///
/// On tag mismatch the ciphertext is left **untouched** and an error is
/// returned: the tag is checked after the one-time key is known and
/// before the keystream is applied.
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> Result<(), AeadError> {
    let (_, opened) = ChaCha20::new(key, nonce).aead_pass(ciphertext, |otk, ciphertext| {
        tags_equal(&compute_tag(otk, aad, ciphertext), tag)
    });
    opened.then_some(()).ok_or(AeadError::TagMismatch)
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
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2.
        let key: [u8; 32] = hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("070000004041424344454647").try_into().unwrap();
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";

        let mut data = plaintext.to_vec();
        let tag = seal(&key, &nonce, &aad, &mut data);

        let expected_ct = hex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        assert_eq!(data, expected_ct);
        assert_eq!(tag.to_vec(), hex("1ae10b594f09e26a7e902ecbd0600691"));

        // And decryption restores the plaintext.
        open(&key, &nonce, &aad, &mut data, &tag).unwrap();
        assert_eq!(data, plaintext.to_vec());
    }

    #[test]
    fn tamper_detection_ciphertext() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data = b"attack at dawn".to_vec();
        let tag = seal(&key, &nonce, b"hdr", &mut data);
        data[3] ^= 0x80;
        let err = open(&key, &nonce, b"hdr", &mut data, &tag).unwrap_err();
        assert_eq!(err, AeadError::TagMismatch);
    }

    #[test]
    fn tamper_detection_aad() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data = b"attack at dawn".to_vec();
        let tag = seal(&key, &nonce, b"spi=1,seq=7", &mut data);
        let err = open(&key, &nonce, b"spi=1,seq=8", &mut data, &tag).unwrap_err();
        assert_eq!(err, AeadError::TagMismatch);
    }

    #[test]
    fn wrong_key_or_nonce_fails() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data = b"hello".to_vec();
        let tag = seal(&key, &nonce, b"", &mut data);
        let mut c1 = data.clone();
        assert!(open(&[3u8; 32], &nonce, b"", &mut c1, &tag).is_err());
        let mut c2 = data.clone();
        assert!(open(&key, &[4u8; 12], b"", &mut c2, &tag).is_err());
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let mut data: Vec<u8> = Vec::new();
        let tag = seal(&key, &nonce, b"", &mut data);
        open(&key, &nonce, b"", &mut data, &tag).unwrap();
    }

    #[test]
    fn failed_open_leaves_ciphertext_intact() {
        let key = [7u8; 32];
        let nonce = [8u8; 12];
        let mut data = b"payload bytes".to_vec();
        let _tag = seal(&key, &nonce, b"", &mut data);
        let ct = data.clone();
        let bad_tag = [0u8; 16];
        assert!(open(&key, &nonce, b"", &mut data, &bad_tag).is_err());
        assert_eq!(data, ct, "ciphertext must not be modified on failure");
    }
}
