//! IKE-lite: the userspace key-exchange daemon, simplified.
//!
//! strongSwan's role in the paper is twofold: negotiate keys in
//! userspace, install SAs in the kernel. IKE-lite keeps exactly that
//! split with a two-message PSK handshake (a deliberate simplification
//! of IKEv2, specified by this module):
//!
//! ```text
//! initiator → responder:  "IKL1" | id_len | id | nonce_i[16] | spi_i
//! responder → initiator:  "IKL2" | nonce_r[16] | spi_r | auth[32]
//!      auth = HMAC-SHA256(psk, "resp-auth" ‖ nonce_i ‖ nonce_r ‖ spi_i ‖ spi_r)
//! ```
//!
//! Both sides derive child-SA keys with HKDF over `psk ‖ nonce_i ‖
//! nonce_r`. The initiator authenticates implicitly by key confirmation:
//! with the wrong PSK, every ESP packet fails its ICV. The responder is
//! explicitly authenticated by `auth`, so an active attacker cannot
//! impersonate the gateway.

use std::net::Ipv4Addr;

use un_crypto::{hkdf_expand, hkdf_extract, hmac_sha256};
use un_sim::DetRng;

use crate::sa::{SecurityAssociation, SpiValue};

const MAGIC1: &[u8; 4] = b"IKL1";
const MAGIC2: &[u8; 4] = b"IKL2";
const NONCE_LEN: usize = 16;

/// Handshake failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IkeError {
    /// Not an IKE-lite message of the expected type.
    BadMagic,
    /// Message too short.
    Truncated,
    /// Responder authentication failed (wrong PSK or tampering).
    AuthFailed,
    /// Handshake methods called in the wrong order.
    BadState,
}

impl std::fmt::Display for IkeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IkeError::BadMagic => write!(f, "bad IKE-lite magic"),
            IkeError::Truncated => write!(f, "IKE-lite message truncated"),
            IkeError::AuthFailed => write!(f, "IKE-lite authentication failed"),
            IkeError::BadState => write!(f, "IKE-lite state machine misuse"),
        }
    }
}

impl std::error::Error for IkeError {}

/// Configuration shared by both sides.
#[derive(Debug, Clone)]
pub struct IkeConfig {
    /// Pre-shared key.
    pub psk: Vec<u8>,
    /// Local identity (logged, carried in msg1).
    pub local_id: String,
    /// Local tunnel endpoint address.
    pub local_addr: Ipv4Addr,
    /// Peer tunnel endpoint address.
    pub peer_addr: Ipv4Addr,
}

/// The pair of SAs a completed handshake yields.
#[derive(Debug, Clone)]
pub struct SaPair {
    /// SA for traffic we send.
    pub outbound: SecurityAssociation,
    /// SA for traffic we receive.
    pub inbound: SecurityAssociation,
}

fn derive_keys(
    psk: &[u8],
    nonce_i: &[u8; NONCE_LEN],
    nonce_r: &[u8; NONCE_LEN],
) -> ([u8; 32], [u8; 4], [u8; 32], [u8; 4]) {
    let mut ikm = Vec::with_capacity(psk.len() + NONCE_LEN * 2);
    ikm.extend_from_slice(psk);
    ikm.extend_from_slice(nonce_i);
    ikm.extend_from_slice(nonce_r);
    let prk = hkdf_extract(b"un-ike-lite", &ikm);
    let mut okm = [0u8; 72];
    hkdf_expand(&prk, b"child-sa", &mut okm);
    let key_i2r: [u8; 32] = okm[0..32].try_into().unwrap();
    let salt_i2r: [u8; 4] = okm[32..36].try_into().unwrap();
    let key_r2i: [u8; 32] = okm[36..68].try_into().unwrap();
    let salt_r2i: [u8; 4] = okm[68..72].try_into().unwrap();
    (key_i2r, salt_i2r, key_r2i, salt_r2i)
}

fn auth_tag(
    psk: &[u8],
    nonce_i: &[u8; NONCE_LEN],
    nonce_r: &[u8; NONCE_LEN],
    spi_i: SpiValue,
    spi_r: SpiValue,
) -> [u8; 32] {
    let mut msg = Vec::with_capacity(9 + NONCE_LEN * 2 + 8);
    msg.extend_from_slice(b"resp-auth");
    msg.extend_from_slice(nonce_i);
    msg.extend_from_slice(nonce_r);
    msg.extend_from_slice(&spi_i.to_be_bytes());
    msg.extend_from_slice(&spi_r.to_be_bytes());
    hmac_sha256(psk, &msg)
}

/// Initiator side of the handshake.
#[derive(Debug)]
pub struct IkeInitiator {
    cfg: IkeConfig,
    nonce_i: [u8; NONCE_LEN],
    spi_i: SpiValue,
    sent: bool,
}

impl IkeInitiator {
    /// Create an initiator; allocates its inbound SPI and nonce.
    pub fn new(cfg: IkeConfig, rng: &mut DetRng) -> Self {
        let mut nonce_i = [0u8; NONCE_LEN];
        rng.fill(&mut nonce_i);
        let spi_i = (rng.next_u32() | 0x1000_0000).max(1);
        IkeInitiator {
            cfg,
            nonce_i,
            spi_i,
            sent: false,
        }
    }

    /// Produce msg1.
    pub fn initial_message(&mut self) -> Vec<u8> {
        self.sent = true;
        let id = self.cfg.local_id.as_bytes();
        let mut out = Vec::with_capacity(4 + 1 + id.len() + NONCE_LEN + 4);
        out.extend_from_slice(MAGIC1);
        out.push(id.len() as u8);
        out.extend_from_slice(id);
        out.extend_from_slice(&self.nonce_i);
        out.extend_from_slice(&self.spi_i.to_be_bytes());
        out
    }

    /// Consume msg2, verify the responder, derive the SA pair.
    pub fn handle_response(&mut self, msg: &[u8]) -> Result<SaPair, IkeError> {
        if !self.sent {
            return Err(IkeError::BadState);
        }
        if msg.len() < 4 + NONCE_LEN + 4 + 32 {
            return Err(IkeError::Truncated);
        }
        if &msg[0..4] != MAGIC2 {
            return Err(IkeError::BadMagic);
        }
        let nonce_r: [u8; NONCE_LEN] = msg[4..4 + NONCE_LEN].try_into().unwrap();
        let spi_r = u32::from_be_bytes(msg[20..24].try_into().unwrap());
        let auth: [u8; 32] = msg[24..56].try_into().unwrap();

        let expect = auth_tag(&self.cfg.psk, &self.nonce_i, &nonce_r, self.spi_i, spi_r);
        if auth != expect {
            return Err(IkeError::AuthFailed);
        }

        let (key_i2r, salt_i2r, key_r2i, salt_r2i) =
            derive_keys(&self.cfg.psk, &self.nonce_i, &nonce_r);
        Ok(SaPair {
            outbound: SecurityAssociation::outbound(
                spi_r,
                self.cfg.local_addr,
                self.cfg.peer_addr,
                key_i2r,
                salt_i2r,
            ),
            inbound: SecurityAssociation::inbound(
                self.spi_i,
                self.cfg.peer_addr,
                self.cfg.local_addr,
                key_r2i,
                salt_r2i,
            ),
        })
    }
}

/// Responder side of the handshake.
#[derive(Debug)]
pub struct IkeResponder {
    cfg: IkeConfig,
}

impl IkeResponder {
    /// Create a responder.
    pub fn new(cfg: IkeConfig) -> Self {
        IkeResponder { cfg }
    }

    /// Consume msg1; produce (msg2, SA pair) on success. Also returns the
    /// initiator's identity string for logging/policy.
    pub fn handle_initial(
        &mut self,
        msg: &[u8],
        rng: &mut DetRng,
    ) -> Result<(Vec<u8>, SaPair, String), IkeError> {
        if msg.len() < 5 {
            return Err(IkeError::Truncated);
        }
        if &msg[0..4] != MAGIC1 {
            return Err(IkeError::BadMagic);
        }
        let id_len = msg[4] as usize;
        if msg.len() < 5 + id_len + NONCE_LEN + 4 {
            return Err(IkeError::Truncated);
        }
        let id = String::from_utf8_lossy(&msg[5..5 + id_len]).to_string();
        let nonce_i: [u8; NONCE_LEN] = msg[5 + id_len..5 + id_len + NONCE_LEN].try_into().unwrap();
        let spi_i = u32::from_be_bytes(
            msg[5 + id_len + NONCE_LEN..5 + id_len + NONCE_LEN + 4]
                .try_into()
                .unwrap(),
        );

        let mut nonce_r = [0u8; NONCE_LEN];
        rng.fill(&mut nonce_r);
        let spi_r = (rng.next_u32() | 0x2000_0000).max(1);

        let auth = auth_tag(&self.cfg.psk, &nonce_i, &nonce_r, spi_i, spi_r);
        let mut out = Vec::with_capacity(4 + NONCE_LEN + 4 + 32);
        out.extend_from_slice(MAGIC2);
        out.extend_from_slice(&nonce_r);
        out.extend_from_slice(&spi_r.to_be_bytes());
        out.extend_from_slice(&auth);

        let (key_i2r, salt_i2r, key_r2i, salt_r2i) = derive_keys(&self.cfg.psk, &nonce_i, &nonce_r);
        let pair = SaPair {
            // Responder sends r→i traffic under the initiator's SPI.
            outbound: SecurityAssociation::outbound(
                spi_i,
                self.cfg.local_addr,
                self.cfg.peer_addr,
                key_r2i,
                salt_r2i,
            ),
            inbound: SecurityAssociation::inbound(
                spi_r,
                self.cfg.peer_addr,
                self.cfg.local_addr,
                key_i2r,
                salt_i2r,
            ),
        };
        Ok((out, pair, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp::{decapsulate, encapsulate};

    fn cfg(local: [u8; 4], peer: [u8; 4], psk: &str) -> IkeConfig {
        IkeConfig {
            psk: psk.as_bytes().to_vec(),
            local_id: "cpe.example".into(),
            local_addr: Ipv4Addr::from(local),
            peer_addr: Ipv4Addr::from(peer),
        }
    }

    #[test]
    fn handshake_yields_working_tunnel() {
        let mut rng_i = DetRng::new(1);
        let mut rng_r = DetRng::new(2);
        let mut init =
            IkeInitiator::new(cfg([192, 0, 2, 1], [203, 0, 113, 7], "s3cret"), &mut rng_i);
        let mut resp = IkeResponder::new(cfg([203, 0, 113, 7], [192, 0, 2, 1], "s3cret"));

        let m1 = init.initial_message();
        let (m2, mut resp_sas, id) = resp.handle_initial(&m1, &mut rng_r).unwrap();
        assert_eq!(id, "cpe.example");
        let mut init_sas = init.handle_response(&m2).unwrap();

        // i → r
        let wire = encapsulate(&mut init_sas.outbound, b"hello from cpe").unwrap();
        let inner = decapsulate(&mut resp_sas.inbound, &wire).unwrap();
        assert_eq!(inner, b"hello from cpe");

        // r → i
        let wire = encapsulate(&mut resp_sas.outbound, b"hello from gw").unwrap();
        let inner = decapsulate(&mut init_sas.inbound, &wire).unwrap();
        assert_eq!(inner, b"hello from gw");

        // SPIs agree crosswise.
        assert_eq!(init_sas.outbound.spi, resp_sas.inbound.spi);
        assert_eq!(init_sas.inbound.spi, resp_sas.outbound.spi);
        assert_ne!(init_sas.outbound.spi, init_sas.inbound.spi);
    }

    #[test]
    fn wrong_psk_detected_at_auth() {
        let mut rng = DetRng::new(3);
        let mut init = IkeInitiator::new(cfg([1, 1, 1, 1], [2, 2, 2, 2], "alpha"), &mut rng);
        let mut resp = IkeResponder::new(cfg([2, 2, 2, 2], [1, 1, 1, 1], "beta"));
        let m1 = init.initial_message();
        let (m2, _, _) = resp.handle_initial(&m1, &mut rng).unwrap();
        assert_eq!(init.handle_response(&m2).unwrap_err(), IkeError::AuthFailed);
    }

    #[test]
    fn tampered_response_detected() {
        let mut rng = DetRng::new(4);
        let mut init = IkeInitiator::new(cfg([1, 1, 1, 1], [2, 2, 2, 2], "psk"), &mut rng);
        let mut resp = IkeResponder::new(cfg([2, 2, 2, 2], [1, 1, 1, 1], "psk"));
        let m1 = init.initial_message();
        let (mut m2, _, _) = resp.handle_initial(&m1, &mut rng).unwrap();
        m2[10] ^= 1; // corrupt nonce_r
        assert_eq!(init.handle_response(&m2).unwrap_err(), IkeError::AuthFailed);
    }

    #[test]
    fn malformed_messages_rejected() {
        let mut rng = DetRng::new(5);
        let mut resp = IkeResponder::new(cfg([2, 2, 2, 2], [1, 1, 1, 1], "psk"));
        assert_eq!(
            resp.handle_initial(b"nope", &mut rng).unwrap_err(),
            IkeError::Truncated
        );
        assert_eq!(
            resp.handle_initial(b"XXXX-rest-of-message-long-enough-----", &mut rng)
                .unwrap_err(),
            IkeError::BadMagic
        );
        let mut init = IkeInitiator::new(cfg([1, 1, 1, 1], [2, 2, 2, 2], "psk"), &mut rng);
        let _ = init.initial_message();
        assert_eq!(
            init.handle_response(b"short").unwrap_err(),
            IkeError::Truncated
        );
    }

    #[test]
    fn response_before_send_is_state_error() {
        let mut rng = DetRng::new(6);
        let mut init = IkeInitiator::new(cfg([1, 1, 1, 1], [2, 2, 2, 2], "psk"), &mut rng);
        assert_eq!(
            init.handle_response(&[0u8; 64]).unwrap_err(),
            IkeError::BadState
        );
    }

    #[test]
    fn distinct_nonces_give_distinct_keys() {
        let mut rng = DetRng::new(7);
        let c_i = cfg([1, 1, 1, 1], [2, 2, 2, 2], "psk");
        let c_r = cfg([2, 2, 2, 2], [1, 1, 1, 1], "psk");

        let mut i1 = IkeInitiator::new(c_i.clone(), &mut rng);
        let mut r1 = IkeResponder::new(c_r.clone());
        let m1 = i1.initial_message();
        let (m2, _, _) = r1.handle_initial(&m1, &mut rng).unwrap();
        let sas1 = i1.handle_response(&m2).unwrap();

        let mut i2 = IkeInitiator::new(c_i, &mut rng);
        let mut r2 = IkeResponder::new(c_r);
        let m1 = i2.initial_message();
        let (m2, _, _) = r2.handle_initial(&m1, &mut rng).unwrap();
        let sas2 = i2.handle_response(&m2).unwrap();

        assert_ne!(sas1.outbound.key, sas2.outbound.key);
        assert_ne!(sas1.inbound.key, sas2.inbound.key);
    }
}
