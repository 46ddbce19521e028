//! Flow matches, actions and entries.

use std::fmt;
use std::sync::Arc;

use un_packet::ethernet::MacAddr;
use un_packet::Ipv4Cidr;

use crate::key::{self, mac_bits, Field, PackedKey, PacketKey};
use crate::lsi::PortNo;

/// How a match constrains the VLAN tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VlanSpec {
    /// Frame must be untagged.
    Untagged,
    /// Frame must carry this VLAN id.
    Id(u16),
    /// Frame must be tagged, any id.
    AnyTagged,
}

/// A flow match; `None` fields are wildcards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Ethernet source (exact).
    pub eth_src: Option<MacAddr>,
    /// Ethernet destination (exact).
    pub eth_dst: Option<MacAddr>,
    /// EtherType after any VLAN tag.
    pub eth_type: Option<u16>,
    /// VLAN constraint.
    pub vlan: Option<VlanSpec>,
    /// Source IPv4 prefix.
    pub ip_src: Option<Ipv4Cidr>,
    /// Destination IPv4 prefix.
    pub ip_dst: Option<Ipv4Cidr>,
    /// IP protocol number.
    pub ip_proto: Option<u8>,
    /// L4 source port.
    pub l4_src: Option<u16>,
    /// L4 destination port.
    pub l4_dst: Option<u16>,
    /// Firewall mark.
    pub fwmark: Option<u32>,
}

impl FlowMatch {
    /// Match everything.
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// Match everything arriving on `port`.
    pub fn in_port(port: PortNo) -> Self {
        FlowMatch {
            in_port: Some(port),
            ..Default::default()
        }
    }

    /// Builder-style setter for the VLAN constraint.
    pub fn with_vlan(mut self, spec: VlanSpec) -> Self {
        self.vlan = Some(spec);
        self
    }

    /// Builder-style setter for destination IP prefix.
    pub fn with_ip_dst(mut self, cidr: Ipv4Cidr) -> Self {
        self.ip_dst = Some(cidr);
        self
    }

    /// Builder-style setter for the fwmark.
    pub fn with_fwmark(mut self, mark: u32) -> Self {
        self.fwmark = Some(mark);
        self
    }

    /// Does `key` satisfy this match?
    pub fn matches(&self, key: &PacketKey) -> bool {
        if let Some(p) = self.in_port {
            if key.in_port != p {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            if key.eth_src != m {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            if key.eth_dst != m {
                return false;
            }
        }
        if let Some(t) = self.eth_type {
            if key.eth_type != t {
                return false;
            }
        }
        if let Some(spec) = self.vlan {
            match (spec, key.vlan) {
                (VlanSpec::Untagged, None) => {}
                (VlanSpec::Id(want), Some(have)) if want == have => {}
                (VlanSpec::AnyTagged, Some(_)) => {}
                _ => return false,
            }
        }
        if let Some(cidr) = self.ip_src {
            match key.ip_src {
                Some(ip) if cidr.contains(ip) => {}
                _ => return false,
            }
        }
        if let Some(cidr) = self.ip_dst {
            match key.ip_dst {
                Some(ip) if cidr.contains(ip) => {}
                _ => return false,
            }
        }
        if let Some(proto) = self.ip_proto {
            if key.ip_proto != Some(proto) {
                return false;
            }
        }
        if let Some(p) = self.l4_src {
            if key.l4_src != Some(p) {
                return false;
            }
        }
        if let Some(p) = self.l4_dst {
            if key.l4_dst != Some(p) {
                return false;
            }
        }
        if let Some(mark) = self.fwmark {
            if key.fwmark != mark {
                return false;
            }
        }
        true
    }

    /// Compile the match against the packed key layout — the one place
    /// that decides how each field is compared. A port, a MAC, a /32
    /// prefix, a specific VLAN id constrain a whole field; a shorter
    /// CIDR prefix constrains the leading bits of the address plus its
    /// presence, `VlanSpec::AnyTagged` the presence bit alone. Total
    /// over today's `FlowMatch`, and the exhaustive destructuring (no
    /// `..`) keeps it that way — a new match field must be classified
    /// here before this compiles again, so the index can never silently
    /// ignore it.
    pub fn compile(&self) -> CompiledMatch {
        let FlowMatch {
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
        let mut c = CompiledMatch {
            mask: PackedKey::default(),
            value: PackedKey::default(),
            exact: true,
        };
        if let Some(p) = in_port {
            c.whole(key::IN_PORT, u64::from(p.0));
        }
        if let Some(mac) = eth_src {
            c.whole(key::ETH_SRC, mac_bits(mac));
        }
        if let Some(mac) = eth_dst {
            c.whole(key::ETH_DST, mac_bits(mac));
        }
        if let Some(t) = eth_type {
            c.whole(key::ETH_TYPE, u64::from(t));
        }
        match vlan {
            None => {}
            // Whole field, value absent: id bits and presence bit clear.
            Some(VlanSpec::Untagged) => c.mask.put(key::VLAN, key::VLAN.ones()),
            Some(VlanSpec::Id(v)) => c.whole(key::VLAN, u64::from(v)),
            Some(VlanSpec::AnyTagged) => c.constrain(key::VLAN, 0, 0),
        }
        for (cidr, field) in [(ip_src, key::IP_SRC), (ip_dst, key::IP_DST)] {
            if let Some(cidr) = cidr {
                c.constrain(
                    field,
                    u64::from(cidr.mask()),
                    u64::from(u32::from(cidr.addr())),
                );
            }
        }
        if let Some(p) = ip_proto {
            c.whole(key::IP_PROTO, u64::from(p));
        }
        if let Some(p) = l4_src {
            c.whole(key::L4_SRC, u64::from(p));
        }
        if let Some(p) = l4_dst {
            c.whole(key::L4_DST, u64::from(p));
        }
        if let Some(mark) = fwmark {
            c.whole(key::FWMARK, u64::from(mark));
        }
        c
    }

    /// Number of constrained fields (used for diagnostics only).
    pub fn specificity(&self) -> u32 {
        let mut n = 0;
        n += self.in_port.is_some() as u32;
        n += self.eth_src.is_some() as u32;
        n += self.eth_dst.is_some() as u32;
        n += self.eth_type.is_some() as u32;
        n += self.vlan.is_some() as u32;
        n += self.ip_src.is_some() as u32;
        n += self.ip_dst.is_some() as u32;
        n += self.ip_proto.is_some() as u32;
        n += self.l4_src.is_some() as u32;
        n += self.l4_dst.is_some() as u32;
        n += self.fwmark.is_some() as u32;
        n
    }
}

/// A [`FlowMatch`] compiled against the packed key layout: a key
/// satisfies the match iff `key.pack().and(&mask) == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledMatch {
    /// The bits the match constrains.
    pub mask: PackedKey,
    /// What those bits must equal.
    pub value: PackedKey,
    /// The mask covers only whole fields — no prefix shorter than /32,
    /// no presence-only constraint — so a hit on it is an exact-match
    /// hit rather than a megaflow hit.
    pub exact: bool,
}

impl CompiledMatch {
    /// Require the `bits_mask` bits of `field` to equal `bits`, and the
    /// field to be present.
    fn constrain(&mut self, field: Field, bits_mask: u64, bits: u64) {
        self.mask.put(field, bits_mask);
        self.value.put(field, bits & bits_mask);
        self.exact &= bits_mask == field.ones();
    }

    /// Require all of `field` to equal `bits`.
    fn whole(&mut self, field: Field, bits: u64) {
        self.constrain(field, field.ones(), bits);
    }
}

/// Actions applied (in order) to a matched packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowAction {
    /// Emit on a port.
    Output(PortNo),
    /// Emit on every port except the ingress.
    Flood,
    /// Punt to the controller.
    Controller,
    /// Push an 802.1Q tag.
    PushVlan(u16),
    /// Pop the outermost tag.
    PopVlan,
    /// Rewrite the VLAN id of the outermost tag (must be tagged).
    SetVlan(u16),
    /// Set the firewall mark in packet metadata.
    SetFwmark(u32),
    /// Rewrite the Ethernet source.
    SetEthSrc(MacAddr),
    /// Rewrite the Ethernet destination.
    SetEthDst(MacAddr),
    /// Continue matching in a later table (multi-table pipelines only).
    GotoTable(u8),
}

/// One flow entry: priority + match + action list + counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Priority; higher wins. Ties break by insertion order (first wins).
    pub priority: u16,
    /// The classifier.
    pub matches: FlowMatch,
    /// Action list, shared with every lookup that hits the entry.
    pub actions: Arc<[FlowAction]>,
    /// Opaque cookie for bulk deletion (the orchestrator uses the
    /// graph-rule id hash).
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
}

impl FlowEntry {
    /// Create an entry with zeroed counters.
    pub fn new(priority: u16, matches: FlowMatch, actions: Vec<FlowAction>) -> Self {
        FlowEntry {
            priority,
            matches,
            actions: actions.into(),
            cookie: 0,
            packet_count: 0,
            byte_count: 0,
        }
    }

    /// Builder-style cookie setter.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }
}

impl fmt::Display for FlowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prio={} cookie={:#x} n_packets={} actions={:?}",
            self.priority, self.cookie, self.packet_count, self.actions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use un_packet::ethernet::MacAddr;

    fn key() -> PacketKey {
        PacketKey {
            in_port: PortNo(1),
            eth_src: MacAddr::local(1),
            eth_dst: MacAddr::local(2),
            eth_type: 0x0800,
            vlan: Some(100),
            ip_src: Some(Ipv4Addr::new(10, 0, 1, 5)),
            ip_dst: Some(Ipv4Addr::new(192, 168, 0, 9)),
            ip_proto: Some(17),
            l4_src: Some(5001),
            l4_dst: Some(5201),
            fwmark: 7,
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(FlowMatch::any().matches(&key()));
    }

    #[test]
    fn each_field_constrains() {
        let k = key();
        let mut m = FlowMatch::any();
        m.in_port = Some(PortNo(1));
        assert!(m.matches(&k));
        m.in_port = Some(PortNo(2));
        assert!(!m.matches(&k));

        let mut m = FlowMatch::any();
        m.ip_dst = Some(Ipv4Cidr::new(Ipv4Addr::new(192, 168, 0, 0), 24));
        assert!(m.matches(&k));
        m.ip_dst = Some(Ipv4Cidr::new(Ipv4Addr::new(192, 169, 0, 0), 24));
        assert!(!m.matches(&k));

        let mut m = FlowMatch::any();
        m.l4_dst = Some(5201);
        assert!(m.matches(&k));
        m.l4_dst = Some(80);
        assert!(!m.matches(&k));

        let mut m = FlowMatch::any();
        m.fwmark = Some(7);
        assert!(m.matches(&k));
        m.fwmark = Some(8);
        assert!(!m.matches(&k));
    }

    #[test]
    fn vlan_spec_semantics() {
        let mut k = key();
        let tagged = FlowMatch::any().with_vlan(VlanSpec::Id(100));
        let any_tag = FlowMatch::any().with_vlan(VlanSpec::AnyTagged);
        let untagged = FlowMatch::any().with_vlan(VlanSpec::Untagged);
        assert!(tagged.matches(&k));
        assert!(any_tag.matches(&k));
        assert!(!untagged.matches(&k));

        k.vlan = None;
        assert!(!tagged.matches(&k));
        assert!(!any_tag.matches(&k));
        assert!(untagged.matches(&k));
    }

    #[test]
    fn ip_match_requires_ip_packet() {
        let mut k = key();
        k.ip_src = None;
        k.ip_dst = None;
        let m = FlowMatch::any().with_ip_dst(Ipv4Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0));
        assert!(!m.matches(&k), "ip match must fail on non-IP traffic");
    }

    #[test]
    fn specificity_counts_fields() {
        assert_eq!(FlowMatch::any().specificity(), 0);
        let m = FlowMatch::in_port(PortNo(1)).with_fwmark(3);
        assert_eq!(m.specificity(), 2);
    }
}
