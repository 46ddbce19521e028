//! ARP for IPv4 over Ethernet (RFC 826).

use std::net::Ipv4Addr;

use crate::error::ParseError;
use crate::ethernet::MacAddr;

/// Length of an Ethernet/IPv4 ARP packet.
pub const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// 1
    Request,
    /// 2
    Reply,
    /// Anything else.
    Unknown(u16),
}

impl From<u16> for ArpOp {
    fn from(v: u16) -> Self {
        match v {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            other => ArpOp::Unknown(other),
        }
    }
}

impl From<ArpOp> for u16 {
    fn from(o: ArpOp) -> u16 {
        match o {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
            ArpOp::Unknown(v) => v,
        }
    }
}

/// A typed view over an Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone)]
pub struct ArpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> ArpPacket<T> {
    /// Wrap a buffer, validating length and the hardware/protocol types.
    pub fn new_checked(buffer: T) -> Result<Self, ParseError> {
        if buffer.as_ref().len() < ARP_LEN {
            return Err(ParseError::Truncated);
        }
        let p = ArpPacket { buffer };
        let b = p.buffer.as_ref();
        let htype = u16::from_be_bytes([b[0], b[1]]);
        let ptype = u16::from_be_bytes([b[2], b[3]]);
        if htype != 1 || ptype != 0x0800 || b[4] != 6 || b[5] != 4 {
            return Err(ParseError::BadField);
        }
        Ok(p)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        ArpPacket { buffer }
    }

    /// Operation (request/reply).
    pub fn op(&self) -> ArpOp {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]]).into()
    }

    /// Sender hardware address.
    pub fn sender_mac(&self) -> MacAddr {
        MacAddr(self.buffer.as_ref()[8..14].try_into().unwrap())
    }

    /// Sender protocol address.
    pub fn sender_ip(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[14], b[15], b[16], b[17])
    }

    /// Target protocol address.
    pub fn target_ip(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[24], b[25], b[26], b[27])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> ArpPacket<T> {
    /// Initialize the fixed Ethernet/IPv4 preamble.
    pub fn init(&mut self) {
        let b = self.buffer.as_mut();
        b[0..2].copy_from_slice(&1u16.to_be_bytes()); // Ethernet
        b[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // IPv4
        b[4] = 6;
        b[5] = 4;
    }

    /// Set the operation.
    pub fn set_op(&mut self, op: ArpOp) {
        self.buffer.as_mut()[6..8].copy_from_slice(&u16::from(op).to_be_bytes());
    }

    /// Set sender hardware address.
    pub fn set_sender_mac(&mut self, m: MacAddr) {
        self.buffer.as_mut()[8..14].copy_from_slice(&m.0);
    }

    /// Set sender protocol address.
    pub fn set_sender_ip(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[14..18].copy_from_slice(&a.octets());
    }

    /// Set target hardware address.
    pub fn set_target_mac(&mut self, m: MacAddr) {
        self.buffer.as_mut()[18..24].copy_from_slice(&m.0);
    }

    /// Set target protocol address.
    pub fn set_target_ip(&mut self, a: Ipv4Addr) {
        self.buffer.as_mut()[24..28].copy_from_slice(&a.octets());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; ARP_LEN];
        {
            let mut a = ArpPacket::new_unchecked(&mut buf[..]);
            a.init();
            a.set_op(ArpOp::Request);
            a.set_sender_mac(MacAddr::local(1));
            a.set_sender_ip(Ipv4Addr::new(10, 0, 0, 1));
            a.set_target_mac(MacAddr::ZERO);
            a.set_target_ip(Ipv4Addr::new(10, 0, 0, 2));
        }
        let a = ArpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(a.op(), ArpOp::Request);
        assert_eq!(a.sender_mac(), MacAddr::local(1));
        assert_eq!(a.sender_ip(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(a.target_ip(), Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let mut buf = [0u8; ARP_LEN];
        ArpPacket::new_unchecked(&mut buf[..]).init();
        buf[0] = 9;
        assert_eq!(
            ArpPacket::new_checked(&buf[..]).unwrap_err(),
            ParseError::BadField
        );
        assert_eq!(
            ArpPacket::new_checked(&[0u8; 27][..]).unwrap_err(),
            ParseError::Truncated
        );
    }

    #[test]
    fn op_mapping() {
        assert_eq!(ArpOp::from(1), ArpOp::Request);
        assert_eq!(ArpOp::from(2), ArpOp::Reply);
        assert_eq!(u16::from(ArpOp::Unknown(5)), 5);
    }
}
