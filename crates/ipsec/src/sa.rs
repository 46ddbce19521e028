//! Security Associations and the SAD (Security Association Database).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use un_crypto::{hkdf_expand, hkdf_extract};

use crate::replay::ReplayWindow;

/// An SPI (Security Parameters Index).
pub type SpiValue = u32;

/// Direction of an SA relative to this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaDirection {
    /// Outbound: this host encapsulates.
    Out,
    /// Inbound: this host decapsulates.
    In,
}

/// One ESP tunnel-mode Security Association.
///
/// Keys follow the RFC 7634 ChaCha20-Poly1305 convention: a 32-byte
/// cipher key plus a 4-byte salt that prefixes the 8-byte per-packet IV
/// to form the 12-byte AEAD nonce.
#[derive(Debug, Clone)]
pub struct SecurityAssociation {
    /// The SPI identifying this SA on the wire.
    pub spi: SpiValue,
    /// Direction.
    pub direction: SaDirection,
    /// Tunnel outer source address.
    pub tunnel_src: Ipv4Addr,
    /// Tunnel outer destination address.
    pub tunnel_dst: Ipv4Addr,
    /// AEAD key.
    pub key: [u8; 32],
    /// AEAD salt (nonce prefix).
    pub salt: [u8; 4],
    /// Next outbound sequence number (outbound SAs).
    pub seq_out: u32,
    /// Anti-replay state (inbound SAs).
    pub replay: ReplayWindow,
    /// Packets processed under this SA.
    pub packets: u64,
    /// Bytes of inner traffic processed under this SA.
    pub bytes: u64,
}

impl SecurityAssociation {
    /// Create an outbound SA.
    pub fn outbound(
        spi: SpiValue,
        tunnel_src: Ipv4Addr,
        tunnel_dst: Ipv4Addr,
        key: [u8; 32],
        salt: [u8; 4],
    ) -> Self {
        SecurityAssociation {
            spi,
            direction: SaDirection::Out,
            tunnel_src,
            tunnel_dst,
            key,
            salt,
            seq_out: 0,
            replay: ReplayWindow::new(),
            packets: 0,
            bytes: 0,
        }
    }

    /// Create an inbound SA.
    pub fn inbound(
        spi: SpiValue,
        tunnel_src: Ipv4Addr,
        tunnel_dst: Ipv4Addr,
        key: [u8; 32],
        salt: [u8; 4],
    ) -> Self {
        SecurityAssociation {
            direction: SaDirection::In,
            ..Self::outbound(spi, tunnel_src, tunnel_dst, key, salt)
        }
    }

    /// The two ends of one simplex tunnel — `(outbound, inbound)` —
    /// keyed by HKDF-SHA256: `secret` is extracted under a fixed salt,
    /// and `info` (which must name this pair and nothing else ever
    /// keyed from `secret`) expands into the 32-byte key and 4-byte
    /// nonce salt. For a control plane that holds both ends and mints
    /// SAs from a master secret rather than a handshake.
    pub fn derive_pair(
        secret: &[u8],
        info: &[u8],
        spi: SpiValue,
        tunnel_src: Ipv4Addr,
        tunnel_dst: Ipv4Addr,
    ) -> (Self, Self) {
        let prk = hkdf_extract(b"un-ipsec-derived-pair", secret);
        let mut okm = [0u8; 36];
        hkdf_expand(&prk, info, &mut okm);
        let (mut key, mut salt) = ([0u8; 32], [0u8; 4]);
        key.copy_from_slice(&okm[..32]);
        salt.copy_from_slice(&okm[32..]);
        (
            Self::outbound(spi, tunnel_src, tunnel_dst, key, salt),
            Self::inbound(spi, tunnel_src, tunnel_dst, key, salt),
        )
    }
}

/// The SAD: SPI → SA. Inbound lookups key on SPI (as real ESP does);
/// outbound SAs are found through the SPD's `Protect` action.
#[derive(Debug, Default)]
pub struct Sad {
    sas: HashMap<SpiValue, SecurityAssociation>,
}

impl Sad {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install an SA (replaces an existing one with the same SPI).
    pub fn install(&mut self, sa: SecurityAssociation) {
        self.sas.insert(sa.spi, sa);
    }

    /// Remove an SA by SPI.
    pub fn remove(&mut self, spi: SpiValue) -> Option<SecurityAssociation> {
        self.sas.remove(&spi)
    }

    /// Look up an SA.
    pub fn get(&self, spi: SpiValue) -> Option<&SecurityAssociation> {
        self.sas.get(&spi)
    }

    /// Look up an SA mutably (needed for seq/replay updates).
    pub fn get_mut(&mut self, spi: SpiValue) -> Option<&mut SecurityAssociation> {
        self.sas.get_mut(&spi)
    }

    /// Number of installed SAs.
    pub fn len(&self) -> usize {
        self.sas.len()
    }

    /// True if no SAs are installed.
    pub fn is_empty(&self) -> bool {
        self.sas.is_empty()
    }

    /// Iterate over installed SAs.
    pub fn iter(&self) -> impl Iterator<Item = &SecurityAssociation> {
        self.sas.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(spi: u32) -> SecurityAssociation {
        SecurityAssociation::outbound(
            spi,
            Ipv4Addr::new(192, 0, 2, 1),
            Ipv4Addr::new(203, 0, 113, 7),
            [7u8; 32],
            [1, 2, 3, 4],
        )
    }

    #[test]
    fn install_and_lookup() {
        let mut sad = Sad::new();
        sad.install(sa(0x100));
        sad.install(sa(0x200));
        assert_eq!(sad.len(), 2);
        assert!(sad.get(0x100).is_some());
        assert!(sad.get(0x300).is_none());
        assert_eq!(
            sad.get(0x200).unwrap().tunnel_dst,
            Ipv4Addr::new(203, 0, 113, 7)
        );
    }

    #[test]
    fn replace_same_spi() {
        let mut sad = Sad::new();
        sad.install(sa(0x100));
        let mut s2 = sa(0x100);
        s2.key = [9u8; 32];
        sad.install(s2);
        assert_eq!(sad.len(), 1);
        assert_eq!(sad.get(0x100).unwrap().key, [9u8; 32]);
    }

    #[test]
    fn remove() {
        let mut sad = Sad::new();
        sad.install(sa(0x1));
        assert!(sad.remove(0x1).is_some());
        assert!(sad.remove(0x1).is_none());
        assert!(sad.is_empty());
    }

    #[test]
    fn derived_pair_is_keyed_by_secret_and_info() {
        let a = Ipv4Addr::new(10, 255, 255, 1);
        let b = Ipv4Addr::new(10, 255, 255, 2);
        let derive = |secret: &[u8], info: &[u8]| {
            let (tx, rx) = SecurityAssociation::derive_pair(secret, info, 7, a, b);
            assert_eq!(
                (tx.direction, rx.direction),
                (SaDirection::Out, SaDirection::In)
            );
            assert_eq!((tx.key, tx.salt, tx.spi), (rx.key, rx.salt, rx.spi));
            assert_eq!(tx.seq_out, 0);
            (tx.key, tx.salt)
        };
        let base = derive(b"secret", b"link-1");
        assert_eq!(base, derive(b"secret", b"link-1"), "deterministic");
        assert_ne!(base.0, derive(b"secret", b"link-2").0);
        assert_ne!(base.0, derive(b"other", b"link-1").0);
    }

    #[test]
    fn inbound_constructor_sets_direction() {
        let s = SecurityAssociation::inbound(
            1,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
            [0; 32],
            [0; 4],
        );
        assert_eq!(s.direction, SaDirection::In);
        assert_eq!(s.seq_out, 0);
    }
}
