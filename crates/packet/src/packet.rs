//! The owned packet buffer that moves through the simulated node.
//!
//! [`Packet`] is deliberately shaped like a kernel skbuff: a contiguous
//! byte buffer with *headroom* in front of the data so encapsulation
//! (VLAN push, IPsec tunnel mode, virtio framing) can prepend headers
//! without shifting the payload in the common case.

use crate::error::ParseError;
use crate::ethernet::{EtherType, EthernetFrame, ETHERNET_HEADER_LEN};
use crate::meta::PacketMeta;
use crate::vlan::{VlanTag, VLAN_HEADER_LEN};

/// Default headroom reserved in front of packet data.
pub const DEFAULT_HEADROOM: usize = 96;

/// Destination + source MAC: the bytes in front of the EtherType (and
/// of any 802.1Q tag).
const MAC_ADDRS_LEN: usize = ETHERNET_HEADER_LEN - 2;

/// An owned packet: bytes + headroom + metadata.
///
/// Equality compares the packet *bytes and metadata*, not the internal
/// headroom layout. The default packet is empty and owns no buffer.
#[derive(Debug, Clone, Default)]
pub struct Packet {
    buf: Vec<u8>,
    head: usize,
    /// Out-of-band metadata (marks, timestamps, ingress).
    pub meta: PacketMeta,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.data() == other.data() && self.meta == other.meta
    }
}

impl Eq for Packet {}

impl Packet {
    /// Build a packet from wire bytes, reserving default headroom.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut buf = vec![0u8; DEFAULT_HEADROOM + data.len()];
        buf[DEFAULT_HEADROOM..].copy_from_slice(data);
        Packet {
            buf,
            head: DEFAULT_HEADROOM,
            meta: PacketMeta::default(),
        }
    }

    /// Build an empty packet of `len` zero bytes with default headroom.
    pub fn zeroed(len: usize) -> Self {
        Packet {
            buf: vec![0u8; DEFAULT_HEADROOM + len],
            head: DEFAULT_HEADROOM,
            meta: PacketMeta::default(),
        }
    }

    /// Adopt `buf` without copying: its first `head` bytes (clamped to
    /// its length) become headroom, the rest is the packet. For a
    /// producer that lays payload and headroom out in one allocation.
    pub fn from_buffer(buf: Vec<u8>, head: usize) -> Self {
        Packet {
            head: head.min(buf.len()),
            buf,
            meta: PacketMeta::default(),
        }
    }

    /// Current packet length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True if the packet carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packet bytes.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Mutable packet bytes.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..]
    }

    /// Reallocate so that `need` bytes plus the default headroom precede
    /// the data.
    fn grow_headroom(&mut self, need: usize) {
        let head = DEFAULT_HEADROOM + need;
        let mut nbuf = vec![0u8; head + self.len()];
        nbuf[head..].copy_from_slice(self.data());
        self.buf = nbuf;
        self.head = head;
    }

    /// Prepend `hdr`, using headroom if available (O(len) otherwise).
    pub fn push_front(&mut self, hdr: &[u8]) {
        if hdr.len() > self.head {
            self.grow_headroom(hdr.len());
        }
        self.head -= hdr.len();
        self.buf[self.head..self.head + hdr.len()].copy_from_slice(hdr);
    }

    /// Strip `n` bytes off the front into the headroom, where a later
    /// [`push_front`](Self::push_front) of as many bytes finds room.
    /// Fails if the packet is shorter than `n`.
    pub fn pull_front(&mut self, n: usize) -> Result<(), ParseError> {
        if self.len() < n {
            return Err(ParseError::Truncated);
        }
        self.head += n;
        Ok(())
    }

    /// Append bytes to the tail.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Shorten the packet to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.buf.truncate(self.head + len);
        }
    }

    /// Replace the entire contents with `data`, keeping metadata.
    pub fn set_data(&mut self, data: &[u8]) {
        self.buf.resize(DEFAULT_HEADROOM + data.len(), 0);
        self.head = DEFAULT_HEADROOM;
        self.buf[self.head..].copy_from_slice(data);
    }

    // ---- Ethernet/VLAN convenience (used heavily by the LSIs and the
    //      NNF adaptation layer) ----

    /// Interpret the packet as an Ethernet frame.
    pub fn ethernet(&self) -> Result<EthernetFrame<&[u8]>, ParseError> {
        EthernetFrame::new_checked(self.data())
    }

    /// The outermost VLAN ID, if the frame is 802.1Q-tagged.
    pub fn vlan_id(&self) -> Option<u16> {
        let eth = self.ethernet().ok()?;
        if eth.ethertype() != EtherType::Vlan {
            return None;
        }
        VlanTag::new_checked(eth.payload()).ok().map(|t| t.vid())
    }

    /// Push an 802.1Q tag with `vid` directly after the MAC addresses:
    /// the MACs slide into the headroom and the payload stays put (one
    /// reallocation only when the headroom is exhausted).
    /// Fails if the frame is not valid Ethernet.
    pub fn vlan_push(&mut self, vid: u16) -> Result<(), ParseError> {
        self.ethernet()?;
        if self.head < VLAN_HEADER_LEN {
            self.grow_headroom(VLAN_HEADER_LEN);
        }
        let old = self.head;
        self.head -= VLAN_HEADER_LEN;
        self.buf.copy_within(old..old + MAC_ADDRS_LEN, self.head);
        // The old EtherType now follows the tag as its inner type.
        let tag = &mut self.data_mut()[MAC_ADDRS_LEN..MAC_ADDRS_LEN + VLAN_HEADER_LEN];
        tag[..2].copy_from_slice(&u16::from(EtherType::Vlan).to_be_bytes());
        tag[2..].copy_from_slice(&(vid & 0x0fff).to_be_bytes());
        Ok(())
    }

    /// Pop the outermost 802.1Q tag, returning its VID: the MACs slide
    /// over the tag and the payload stays put.
    /// Fails if the frame is untagged or malformed.
    pub fn vlan_pop(&mut self) -> Result<u16, ParseError> {
        let eth = self.ethernet()?;
        if eth.ethertype() != EtherType::Vlan {
            return Err(ParseError::BadField);
        }
        let vid = VlanTag::new_checked(eth.payload())?.vid();
        let old = self.head;
        self.head += VLAN_HEADER_LEN;
        self.buf.copy_within(old..old + MAC_ADDRS_LEN, self.head);
        Ok(vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::ethernet::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn from_slice_and_accessors() {
        let p = Packet::from_slice(&[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.data(), &[1, 2, 3]);
        assert!(!p.is_empty());
    }

    #[test]
    fn push_pull_front_uses_headroom() {
        let mut p = Packet::from_slice(&[9, 9]);
        p.push_front(&[1, 2, 3]);
        assert_eq!(p.data(), &[1, 2, 3, 9, 9]);
        p.pull_front(3).unwrap();
        assert_eq!(p.data(), &[9, 9]);
        assert!(p.pull_front(5).is_err());
    }

    #[test]
    fn adopted_buffer_keeps_its_headroom() {
        let mut p = Packet::from_buffer(vec![0, 0, 0, 7, 8], 3);
        assert_eq!(p, Packet::from_slice(&[7, 8]));
        p.push_front(&[5, 6]);
        assert_eq!(p.data(), &[5, 6, 7, 8]);
        // A head past the end is an empty packet, not a panic.
        assert!(Packet::from_buffer(vec![1, 2], 9).is_empty());
    }

    #[test]
    fn push_front_beyond_headroom_reallocates() {
        let mut p = Packet::from_slice(&[7]);
        let big = vec![0xEE; DEFAULT_HEADROOM + 10];
        p.push_front(&big);
        assert_eq!(p.len(), DEFAULT_HEADROOM + 11);
        assert_eq!(p.data()[0], 0xEE);
        assert_eq!(*p.data().last().unwrap(), 7);
    }

    #[test]
    fn vlan_push_pop_roundtrip() {
        let mut p = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1000, 2000)
            .payload(b"hello")
            .build();
        let orig = p.data().to_vec();
        assert_eq!(p.vlan_id(), None);

        p.vlan_push(42).unwrap();
        assert_eq!(p.vlan_id(), Some(42));
        assert_eq!(p.len(), orig.len() + VLAN_HEADER_LEN);
        // MACs preserved.
        let eth = p.ethernet().unwrap();
        assert_eq!(eth.dst(), MacAddr::local(2));
        assert_eq!(eth.ethertype(), EtherType::Vlan);

        let vid = p.vlan_pop().unwrap();
        assert_eq!(vid, 42);
        assert_eq!(p.data(), &orig[..]);
        assert!(p.vlan_pop().is_err(), "untagged pop must fail");
    }

    /// The frame the pre-headroom implementation built: a fresh buffer
    /// of MACs, tag, inner type, payload.
    fn tagged_by_construction(frame: &[u8], vid: u16) -> Vec<u8> {
        let mut out = frame[..12].to_vec();
        out.extend_from_slice(&0x8100u16.to_be_bytes());
        out.extend_from_slice(&(vid & 0x0fff).to_be_bytes());
        out.extend_from_slice(&frame[12..]);
        out
    }

    #[test]
    fn vlan_ops_match_construction_at_any_headroom() {
        let frame = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1000, 2000)
            .payload(b"hello")
            .build()
            .data()
            .to_vec();
        let tagged = tagged_by_construction(&frame, 0xF02A);
        for headroom in [DEFAULT_HEADROOM, VLAN_HEADER_LEN, 0] {
            let mut buf = vec![0xAA; headroom];
            buf.extend_from_slice(&frame);
            let mut p = Packet {
                buf,
                head: headroom,
                meta: PacketMeta::default(),
            };
            p.vlan_push(0xF02A).unwrap();
            assert_eq!(p.data(), &tagged[..], "push at headroom {headroom}");
            assert_eq!(p.vlan_id(), Some(0x02A), "PCP/DEI bits are not set");
            assert_eq!(p.vlan_pop().unwrap(), 0x02A);
            assert_eq!(p.data(), &frame[..], "pop at headroom {headroom}");
        }
    }

    #[test]
    fn vlan_op_errors() {
        let mut short = Packet::from_slice(&[0u8; 13]);
        assert_eq!(short.vlan_push(1), Err(ParseError::Truncated));
        assert_eq!(short.vlan_pop(), Err(ParseError::Truncated));
        let mut untagged = Packet::from_slice(&[0u8; 14]);
        assert_eq!(untagged.vlan_pop(), Err(ParseError::BadField));
        // Tagged EtherType but no room for the tag itself.
        let mut cut = [0u8; 16];
        cut[12..14].copy_from_slice(&0x8100u16.to_be_bytes());
        assert_eq!(
            Packet::from_slice(&cut).vlan_pop(),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn double_tagging() {
        let mut p = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .payload(b"x")
            .build();
        p.vlan_push(10).unwrap();
        p.vlan_push(20).unwrap();
        assert_eq!(p.vlan_id(), Some(20));
        assert_eq!(p.vlan_pop().unwrap(), 20);
        assert_eq!(p.vlan_id(), Some(10));
        assert_eq!(p.vlan_pop().unwrap(), 10);
        assert_eq!(p.vlan_id(), None);
    }

    #[test]
    fn truncate_and_set_data() {
        let mut p = Packet::from_slice(&[1, 2, 3, 4, 5]);
        p.truncate(3);
        assert_eq!(p.data(), &[1, 2, 3]);
        p.truncate(10); // no-op
        assert_eq!(p.len(), 3);
        p.set_data(&[9]);
        assert_eq!(p.data(), &[9]);
    }

    #[test]
    fn metadata_survives_mutation() {
        let mut p = Packet::from_slice(&[0; 20]);
        p.meta.fwmark = 7;
        p.vlan_push(5).ok();
        p.set_data(&[1, 2, 3]);
        assert_eq!(p.meta.fwmark, 7);
    }
}
