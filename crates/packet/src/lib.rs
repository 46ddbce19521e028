//! # un-packet — wire formats and the packet buffer
//!
//! Typed, zero-copy header views in the style of smoltcp: a view wraps a
//! byte slice (`EthernetFrame<&[u8]>`, `Ipv4Packet<&mut [u8]>`, …) and
//! exposes field accessors; `new_checked` validates length/format before
//! any accessor can panic. Emission uses the same views over `&mut [u8]`.
//!
//! Implemented protocols — everything the reproduction's data paths need:
//!
//! * Ethernet II ([`ethernet`]) and 802.1Q VLAN tags ([`vlan`]) — VLAN
//!   tags double as the *marking mechanism* for sharable NNFs (paper §2).
//! * ARP ([`arp`]), IPv4 ([`ipv4`]), ICMPv4 ([`icmp`]), UDP ([`udp`]),
//!   TCP ([`tcp`]) with full internet checksums ([`checksum`]).
//! * ESP ([`esp`]) — the IPsec encapsulation header (RFC 4303 framing;
//!   the cryptographic transform lives in `un-ipsec`).
//!
//! [`Packet`] is the skbuff-like owned buffer that moves through the
//! simulated node: contiguous bytes plus headroom for encapsulation plus
//! out-of-band metadata ([`meta::PacketMeta`]) such as the firewall mark
//! used by the NNF adaptation layer.
//!
//! [`mutate`] derives hostile variants of a genuine frame for the
//! "never panic" properties of every data path that parses one.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod arp;
pub mod builder;
pub mod checksum;
pub mod error;
pub mod esp;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod meta;
pub mod mutate;
pub mod packet;
pub mod tcp;
pub mod udp;
pub mod vlan;

pub use builder::PacketBuilder;
pub use error::ParseError;
pub use ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
pub use ipv4::{IpProtocol, Ipv4Cidr, Ipv4Packet, IPV4_HEADER_LEN};
pub use meta::PacketMeta;
pub use packet::Packet;
pub use vlan::{VlanTag, VLAN_HEADER_LEN};

/// Convenience alias for IPv4 addresses (std's type is wire-compatible).
pub type Ipv4Addr = std::net::Ipv4Addr;
