//! One-pass packet header extraction and the packed flow key.
//!
//! [`PacketKey`] is the flattened set of header fields a flow table can
//! match on — extracted once per packet, readable field by field (the
//! form [`crate::flow::FlowMatch::matches`] and every test oracle
//! speak). [`PackedKey`] is the same information as five `u64` words —
//! the only form the classifier hashes, masks and compares. This
//! mirrors Open vSwitch's miniflow design.
//!
//! # Word layout
//!
//! ```text
//! word 0:  in_port (63..32) | eth_type (31..16) | vlan id (15..0)
//! word 1:  eth_src (63..16)                     | l4_src  (15..0)
//! word 2:  eth_dst (63..16)                     | l4_dst  (15..0)
//! word 3:  ip_src  (63..32) | ip_dst   (31..0)
//! word 4:  fwmark  (63..32) | ip_proto (31..24) | presence bits (5..0)
//! ```
//!
//! Every field owns its bits, and each of the six optional fields
//! (`vlan`, `ip_src`, `ip_dst`, `ip_proto`, `l4_src`, `l4_dst`) also
//! owns one presence bit in word 4: `None` packs as all-zero field bits
//! with the presence bit clear, `Some(v)` as `v` with the bit set. The
//! packing is therefore injective — two keys pack to the same words iff
//! all eleven fields are equal, `None` vs `Some(0)` included — so
//! equality and hashing of the words are equality and hashing of the
//! key, and "this match constrains that field (or a prefix of it, or
//! only its presence)" is a bit mask over the same five words.

use std::hash::{Hash, Hasher};

use un_packet::ethernet::{EtherType, EthernetFrame, MacAddr};
use un_packet::ipv4::Ipv4Packet;
use un_packet::tcp::TcpSegment;
use un_packet::udp::UdpDatagram;
use un_packet::vlan::VlanTag;
use un_packet::{IpProtocol, Packet};

use crate::lsi::PortNo;

/// Where one header field sits in a [`PackedKey`] (see the module
/// docs): the single source of the layout for both key packing and
/// match compilation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    word: usize,
    shift: u32,
    width: u32,
    /// The field's presence bit in word 4; zero for always-present fields.
    present: u64,
}

impl Field {
    const fn new(word: usize, shift: u32, width: u32) -> Field {
        Field {
            word,
            shift,
            width,
            present: 0,
        }
    }

    const fn optional(self, presence_bit: u32) -> Field {
        Field {
            present: 1 << presence_bit,
            ..self
        }
    }

    /// All-ones over the field's width: the mask of "the whole field".
    pub(crate) const fn ones(self) -> u64 {
        (1 << self.width) - 1
    }
}

pub(crate) const IN_PORT: Field = Field::new(0, 32, 32);
pub(crate) const ETH_TYPE: Field = Field::new(0, 16, 16);
pub(crate) const VLAN: Field = Field::new(0, 0, 16).optional(0);
pub(crate) const ETH_SRC: Field = Field::new(1, 16, 48);
pub(crate) const L4_SRC: Field = Field::new(1, 0, 16).optional(4);
pub(crate) const ETH_DST: Field = Field::new(2, 16, 48);
pub(crate) const L4_DST: Field = Field::new(2, 0, 16).optional(5);
pub(crate) const IP_SRC: Field = Field::new(3, 32, 32).optional(1);
pub(crate) const IP_DST: Field = Field::new(3, 0, 32).optional(2);
pub(crate) const FWMARK: Field = Field::new(4, 32, 32);
pub(crate) const IP_PROTO: Field = Field::new(4, 24, 8).optional(3);

/// A MAC address as the low 48 bits of a word.
pub(crate) fn mac_bits(mac: MacAddr) -> u64 {
    let [a, b, c, d, e, f] = mac.octets();
    u64::from_be_bytes([0, 0, a, b, c, d, e, f])
}

/// A flow key (or a mask over one) packed into five words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedKey([u64; 5]);

impl PackedKey {
    /// OR `bits` into `field` and mark the field present.
    pub(crate) fn put(&mut self, field: Field, bits: u64) {
        self.0[field.word] |= bits << field.shift;
        self.0[4] |= field.present;
    }

    /// Project onto `mask`: five ANDs.
    pub fn and(&self, mask: &PackedKey) -> PackedKey {
        PackedKey(std::array::from_fn(|i| self.0[i] & mask.0[i]))
    }

    /// Union of two masks: five ORs.
    pub fn or(&self, mask: &PackedKey) -> PackedKey {
        PackedKey(std::array::from_fn(|i| self.0[i] | mask.0[i]))
    }
}

/// One hasher write over all five words (the derived impl would add a
/// length prefix and the default hasher buffers every call).
impl Hash for PackedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut bytes = [0u8; 40];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(self.0) {
            chunk.copy_from_slice(&word.to_ne_bytes());
        }
        state.write(&bytes);
    }
}

/// Flattened header fields of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketKey {
    /// Ingress port.
    pub in_port: PortNo,
    /// Ethernet source.
    pub eth_src: MacAddr,
    /// Ethernet destination.
    pub eth_dst: MacAddr,
    /// EtherType *after* any VLAN tag (the payload protocol).
    pub eth_type: u16,
    /// Outermost VLAN id, if tagged.
    pub vlan: Option<u16>,
    /// IPv4 source, if IPv4.
    pub ip_src: Option<std::net::Ipv4Addr>,
    /// IPv4 destination, if IPv4.
    pub ip_dst: Option<std::net::Ipv4Addr>,
    /// IPv4 protocol, if IPv4.
    pub ip_proto: Option<u8>,
    /// L4 source port (TCP/UDP), if present.
    pub l4_src: Option<u16>,
    /// L4 destination port (TCP/UDP), if present.
    pub l4_dst: Option<u16>,
    /// Firewall mark from packet metadata.
    pub fwmark: u32,
}

impl PacketKey {
    /// Extract the key from a packet arriving on `in_port`.
    ///
    /// Unparseable layers simply leave their fields as `None`/defaults —
    /// a malformed packet still gets a key (and can be matched on the
    /// fields that did parse), it is never dropped at extraction time.
    pub fn extract(in_port: PortNo, pkt: &Packet) -> PacketKey {
        let mut key = PacketKey {
            in_port,
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::ZERO,
            eth_type: 0,
            vlan: None,
            ip_src: None,
            ip_dst: None,
            ip_proto: None,
            l4_src: None,
            l4_dst: None,
            fwmark: pkt.meta.fwmark,
        };

        let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
            return key;
        };
        key.eth_src = eth.src();
        key.eth_dst = eth.dst();

        let (l3_type, l3): (u16, &[u8]) = match eth.ethertype() {
            EtherType::Vlan => match VlanTag::new_checked(eth.payload()) {
                Ok(tag) => {
                    key.vlan = Some(tag.vid());
                    let inner = tag.inner_ethertype();
                    // Borrow payload after tag from original buffer.
                    let data = pkt.data();
                    (inner, &data[14 + 4..])
                }
                Err(_) => {
                    key.eth_type = u16::from(EtherType::Vlan);
                    return key;
                }
            },
            t => {
                let data = pkt.data();
                (u16::from(t), &data[14..])
            }
        };
        key.eth_type = l3_type;

        if l3_type == u16::from(EtherType::Ipv4) {
            if let Ok(ip) = Ipv4Packet::new_checked(l3) {
                key.ip_src = Some(ip.src());
                key.ip_dst = Some(ip.dst());
                let proto = ip.protocol();
                key.ip_proto = Some(u8::from(proto));
                match proto {
                    IpProtocol::Udp => {
                        if let Ok(u) = UdpDatagram::new_checked(ip.payload()) {
                            key.l4_src = Some(u.src_port());
                            key.l4_dst = Some(u.dst_port());
                        }
                    }
                    IpProtocol::Tcp => {
                        if let Ok(t) = TcpSegment::new_checked(ip.payload()) {
                            key.l4_src = Some(t.src_port());
                            key.l4_dst = Some(t.dst_port());
                        }
                    }
                    _ => {}
                }
            }
        }
        key
    }

    /// Pack the key into the five words the classifier works on.
    pub fn pack(&self) -> PackedKey {
        // Exhaustive destructuring (no `..`): a new PacketKey field must
        // be given bits here before this compiles again.
        let PacketKey {
            in_port,
            eth_src,
            eth_dst,
            eth_type,
            vlan,
            ip_src,
            ip_dst,
            ip_proto,
            l4_src,
            l4_dst,
            fwmark,
        } = *self;
        let mut k = PackedKey::default();
        k.put(IN_PORT, u64::from(in_port.0));
        k.put(ETH_SRC, mac_bits(eth_src));
        k.put(ETH_DST, mac_bits(eth_dst));
        k.put(ETH_TYPE, u64::from(eth_type));
        k.put(FWMARK, u64::from(fwmark));
        if let Some(v) = vlan {
            k.put(VLAN, u64::from(v));
        }
        if let Some(a) = ip_src {
            k.put(IP_SRC, u64::from(u32::from(a)));
        }
        if let Some(a) = ip_dst {
            k.put(IP_DST, u64::from(u32::from(a)));
        }
        if let Some(p) = ip_proto {
            k.put(IP_PROTO, u64::from(p));
        }
        if let Some(p) = l4_src {
            k.put(L4_SRC, u64::from(p));
        }
        if let Some(p) = l4_dst {
            k.put(L4_DST, u64::from(p));
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use un_packet::PacketBuilder;

    #[test]
    fn extracts_udp_frame() {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(5001, 5201)
            .payload(b"x")
            .build();
        let key = PacketKey::extract(PortNo(3), &pkt);
        assert_eq!(key.in_port, PortNo(3));
        assert_eq!(key.eth_src, MacAddr::local(1));
        assert_eq!(key.eth_type, 0x0800);
        assert_eq!(key.vlan, None);
        assert_eq!(key.ip_src, Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(key.ip_proto, Some(17));
        assert_eq!(key.l4_dst, Some(5201));
    }

    #[test]
    fn extracts_vlan_tagged_frame() {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .vlan(77)
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .build();
        let key = PacketKey::extract(PortNo(0), &pkt);
        assert_eq!(key.vlan, Some(77));
        assert_eq!(key.eth_type, 0x0800, "eth_type must see through the tag");
        assert_eq!(key.ip_dst, Some(Ipv4Addr::new(2, 2, 2, 2)));
    }

    #[test]
    fn malformed_packet_still_keyed() {
        let pkt = Packet::from_slice(&[0u8; 6]); // shorter than Ethernet
        let key = PacketKey::extract(PortNo(1), &pkt);
        assert_eq!(key.eth_type, 0);
        assert_eq!(key.ip_src, None);
    }

    #[test]
    fn fwmark_copied_from_meta() {
        let mut pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .build();
        pkt.meta.fwmark = 1234;
        let key = PacketKey::extract(PortNo(0), &pkt);
        assert_eq!(key.fwmark, 1234);
    }

    #[test]
    fn tcp_ports_extracted() {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .tcp(80, 443, 0, 0, 0x10)
            .build();
        let key = PacketKey::extract(PortNo(0), &pkt);
        assert_eq!(key.ip_proto, Some(6));
        assert_eq!(key.l4_src, Some(80));
        assert_eq!(key.l4_dst, Some(443));
    }
}
