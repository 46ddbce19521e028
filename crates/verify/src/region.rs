//! Header-space region algebra over [`FlowMatch`].
//!
//! A [`Region`] is a set of packet headers, represented field-wise: the
//! cross product of one small set per match dimension. Regions are
//! closed under intersection with a `FlowMatch` and under *subtraction*
//! of a `FlowMatch` (which may split one region into several pieces —
//! the classic hyperrectangle difference). That is exactly the algebra
//! a Veriflow/HSA-style analyzer needs: the match region of a rule,
//! minus the regions of every higher-priority rule, is the set of
//! header equivalence classes the rule can still win — empty means the
//! rule is dead (fully shadowed), and each surviving piece is one
//! equivalence class witnessing liveness.
//!
//! Match-side constraints are only ever wildcards, exact values, IPv4
//! prefixes, or the three-way VLAN spec, so the subtrahend is always
//! simple; the minuend accumulates finite exclusion sets (`Excl`),
//! sibling prefixes, and absent/non-IP markers, all of which stay
//! exactly representable. Per-field sets deliberately ignore the
//! cross-field correlation between the IP/L4 fields (a real packet
//! cannot have an L4 port without being IP): that can only make the
//! analyzer *keep* a region a stricter model would discard, i.e. it
//! errs toward "rule is live" — no false shadow reports, ever.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use un_packet::ethernet::MacAddr;
use un_packet::Ipv4Cidr;
use un_switch::{FlowMatch, VlanSpec};

/// A set of values of an always-present exact-match field (ingress
/// port, MACs, EtherType, fwmark).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValSet {
    /// The whole domain.
    Any,
    /// Exactly one value.
    Eq(u64),
    /// The whole domain minus a finite set (never empty: every field
    /// domain is far larger than any rule table).
    Excl(BTreeSet<u64>),
}

impl ValSet {
    /// `self ∩ {v}` — `None` when empty.
    fn intersect_eq(&self, v: u64) -> Option<ValSet> {
        match self {
            ValSet::Any => Some(ValSet::Eq(v)),
            ValSet::Eq(a) => (*a == v).then_some(ValSet::Eq(v)),
            ValSet::Excl(s) => (!s.contains(&v)).then_some(ValSet::Eq(v)),
        }
    }

    /// `self \ {v}` — `None` when empty.
    fn minus_eq(&self, v: u64) -> Option<ValSet> {
        match self {
            ValSet::Any => Some(ValSet::Excl([v].into())),
            ValSet::Eq(a) => (*a != v).then_some(ValSet::Eq(*a)),
            ValSet::Excl(s) => {
                let mut s = s.clone();
                s.insert(v);
                Some(ValSet::Excl(s))
            }
        }
    }
}

/// A set of values of an optional field (IP protocol, L4 ports): the
/// union of "field absent" (non-IP / no L4 header) and a value set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptSet {
    /// The set includes packets where the field is absent.
    pub absent: bool,
    /// Present-values part; `None` = no present value allowed.
    pub present: Option<ValSet>,
}

impl OptSet {
    fn any() -> Self {
        OptSet {
            absent: true,
            present: Some(ValSet::Any),
        }
    }

    fn is_empty(&self) -> bool {
        !self.absent && self.present.is_none()
    }

    /// Intersect with a match constraint `field == v` (which requires
    /// the field to be present).
    fn intersect_eq(&self, v: u64) -> Option<OptSet> {
        let present = self.present.as_ref().and_then(|p| p.intersect_eq(v));
        present.map(|p| OptSet {
            absent: false,
            present: Some(p),
        })
    }

    /// Subtract the match constraint `field == v`. Absent packets
    /// always survive the subtraction (they cannot satisfy the match).
    fn minus_eq(&self, v: u64) -> Option<OptSet> {
        let out = OptSet {
            absent: self.absent,
            present: self.present.as_ref().and_then(|p| p.minus_eq(v)),
        };
        (!out.is_empty()).then_some(out)
    }
}

/// An IPv4 prefix as `(network, prefix length)`, normalized so the
/// host bits are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    net: u32,
    len: u8,
}

impl Prefix {
    fn from_cidr(c: &Ipv4Cidr) -> Self {
        Prefix {
            net: u32::from(c.network()),
            len: c.prefix_len(),
        }
    }

    fn contains(&self, other: &Prefix) -> bool {
        other.len >= self.len && {
            let mask = if self.len == 0 {
                0
            } else {
                u32::MAX << (32 - self.len)
            };
            (other.net & mask) == self.net
        }
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.net), self.len)
    }
}

/// A set of values of an IP-address field: the union of "packet is not
/// IP at all" and at most one prefix of addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpSet {
    /// The set includes non-IP packets.
    pub non_ip: bool,
    /// Address part; `None` = no address allowed.
    pub net: Option<Prefix>,
}

impl IpSet {
    fn any() -> Self {
        IpSet {
            non_ip: true,
            net: Some(Prefix { net: 0, len: 0 }),
        }
    }

    /// Intersect with a match prefix (which requires an IP packet).
    fn intersect_prefix(&self, q: &Prefix) -> Option<IpSet> {
        let net = self.net.and_then(|p| {
            if p.contains(q) {
                Some(*q)
            } else if q.contains(&p) {
                Some(p)
            } else {
                None
            }
        });
        net.map(|n| IpSet {
            non_ip: false,
            net: Some(n),
        })
    }

    /// Subtract a match prefix. The address part of a prefix
    /// difference is a union of *sibling* prefixes, so this can split
    /// one set into several; the non-IP part always survives.
    fn minus_prefix(&self, q: &Prefix) -> Vec<IpSet> {
        let mut out = Vec::new();
        if self.non_ip {
            out.push(IpSet {
                non_ip: true,
                net: None,
            });
        }
        if let Some(p) = self.net {
            if !p.contains(q) && !q.contains(&p) {
                // Disjoint: the whole address part survives.
                out.push(IpSet {
                    non_ip: false,
                    net: Some(p),
                });
            } else if p.contains(q) && q.len > p.len {
                // q nests strictly inside p: the survivors are the
                // siblings hanging off the path from p down to q.
                for bit in p.len..q.len {
                    let sib_len = bit + 1;
                    let flip = 1u32 << (32 - sib_len);
                    let mask = u32::MAX << (32 - sib_len);
                    let sib = (q.net ^ flip) & mask;
                    out.push(IpSet {
                        non_ip: false,
                        net: Some(Prefix {
                            net: sib,
                            len: sib_len,
                        }),
                    });
                }
            }
            // q ⊇ p: the whole address part dies, nothing to push.
        }
        out
    }
}

/// A set of VLAN states: the union of "untagged" and a set of tag ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlanSet {
    /// The set includes untagged frames.
    pub untagged: bool,
    /// Tagged part; `None` = no tag allowed.
    pub tags: Option<ValSet>,
}

impl VlanSet {
    fn any() -> Self {
        VlanSet {
            untagged: true,
            tags: Some(ValSet::Any),
        }
    }

    fn is_empty(&self) -> bool {
        !self.untagged && self.tags.is_none()
    }

    fn intersect_spec(&self, spec: VlanSpec) -> Option<VlanSet> {
        let out = match spec {
            VlanSpec::Untagged => VlanSet {
                untagged: self.untagged,
                tags: None,
            },
            VlanSpec::Id(v) => VlanSet {
                untagged: false,
                tags: self.tags.as_ref().and_then(|t| t.intersect_eq(v.into())),
            },
            VlanSpec::AnyTagged => VlanSet {
                untagged: false,
                tags: self.tags.clone(),
            },
        };
        (!out.is_empty()).then_some(out)
    }

    fn minus_spec(&self, spec: VlanSpec) -> Option<VlanSet> {
        let out = match spec {
            VlanSpec::Untagged => VlanSet {
                untagged: false,
                tags: self.tags.clone(),
            },
            VlanSpec::Id(v) => VlanSet {
                untagged: self.untagged,
                tags: self.tags.as_ref().and_then(|t| t.minus_eq(v.into())),
            },
            VlanSpec::AnyTagged => VlanSet {
                untagged: self.untagged,
                tags: None,
            },
        };
        (!out.is_empty()).then_some(out)
    }
}

fn mac_bits(m: &MacAddr) -> u64 {
    m.octets()
        .iter()
        .fold(0u64, |acc, b| (acc << 8) | *b as u64)
}

/// One header equivalence region: the cross product of its field sets.
/// Construct with [`Region::full`] or [`Region::from_match`]; refine
/// with [`Region::intersect_match`] / [`Region::subtract_match`].
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub in_port: ValSet,
    pub eth_src: ValSet,
    pub eth_dst: ValSet,
    pub eth_type: ValSet,
    pub vlan: VlanSet,
    pub ip_src: IpSet,
    pub ip_dst: IpSet,
    pub ip_proto: OptSet,
    pub l4_src: OptSet,
    pub l4_dst: OptSet,
    pub fwmark: ValSet,
}

impl Region {
    /// The whole header space.
    pub fn full() -> Region {
        Region {
            in_port: ValSet::Any,
            eth_src: ValSet::Any,
            eth_dst: ValSet::Any,
            eth_type: ValSet::Any,
            vlan: VlanSet::any(),
            ip_src: IpSet::any(),
            ip_dst: IpSet::any(),
            ip_proto: OptSet::any(),
            l4_src: OptSet::any(),
            l4_dst: OptSet::any(),
            fwmark: ValSet::Any,
        }
    }

    /// The region a match accepts.
    pub fn from_match(m: &FlowMatch) -> Option<Region> {
        Region::full().intersect_match(m)
    }

    /// `self ∩ region(m)` — `None` when empty. A `FlowMatch` is a
    /// single hyperrectangle, so the intersection never splits.
    pub fn intersect_match(&self, m: &FlowMatch) -> Option<Region> {
        let mut r = self.clone();
        if let Some(p) = m.in_port {
            r.in_port = r.in_port.intersect_eq(p.0.into())?;
        }
        if let Some(mac) = &m.eth_src {
            r.eth_src = r.eth_src.intersect_eq(mac_bits(mac))?;
        }
        if let Some(mac) = &m.eth_dst {
            r.eth_dst = r.eth_dst.intersect_eq(mac_bits(mac))?;
        }
        if let Some(t) = m.eth_type {
            r.eth_type = r.eth_type.intersect_eq(t.into())?;
        }
        if let Some(spec) = m.vlan {
            r.vlan = r.vlan.intersect_spec(spec)?;
        }
        if let Some(cidr) = &m.ip_src {
            r.ip_src = r.ip_src.intersect_prefix(&Prefix::from_cidr(cidr))?;
        }
        if let Some(cidr) = &m.ip_dst {
            r.ip_dst = r.ip_dst.intersect_prefix(&Prefix::from_cidr(cidr))?;
        }
        if let Some(p) = m.ip_proto {
            r.ip_proto = r.ip_proto.intersect_eq(p.into())?;
        }
        if let Some(p) = m.l4_src {
            r.l4_src = r.l4_src.intersect_eq(p.into())?;
        }
        if let Some(p) = m.l4_dst {
            r.l4_dst = r.l4_dst.intersect_eq(p.into())?;
        }
        if let Some(f) = m.fwmark {
            r.fwmark = r.fwmark.intersect_eq(f.into())?;
        }
        Some(r)
    }

    /// `self \ region(m)` as a union of disjoint pieces (the standard
    /// hyperrectangle difference: one piece per constrained field of
    /// `m`, with every earlier constrained field pinned to the
    /// intersection). Returns `[self]` untouched when the two regions
    /// are disjoint and `[]` when `m` covers `self` completely.
    pub fn subtract_match(&self, m: &FlowMatch) -> Vec<Region> {
        // Disjoint: nothing to subtract (and no spurious splitting).
        let Some(common) = self.intersect_match(m) else {
            return vec![self.clone()];
        };
        let _ = common;

        let mut pieces: Vec<Region> = Vec::new();
        // `carry` is `self` with every already-processed constrained
        // field intersected with `m`; each step emits `carry` with the
        // current field replaced by the field-wise difference.
        let mut carry = self.clone();

        macro_rules! field {
            ($cond:expr, $get:ident, $minus:expr, $isect:expr) => {
                if $cond {
                    for part in $minus {
                        let mut piece = carry.clone();
                        piece.$get = part;
                        pieces.push(piece);
                    }
                    match $isect {
                        Some(v) => carry.$get = v,
                        // The carry went empty: every remaining piece
                        // of the difference is already emitted.
                        None => return pieces,
                    }
                }
            };
        }

        field!(
            m.in_port.is_some(),
            in_port,
            carry
                .in_port
                .minus_eq(m.in_port.unwrap().0.into())
                .into_iter(),
            carry.in_port.intersect_eq(m.in_port.unwrap().0.into())
        );
        field!(
            m.eth_src.is_some(),
            eth_src,
            carry
                .eth_src
                .minus_eq(mac_bits(m.eth_src.as_ref().unwrap()))
                .into_iter(),
            carry
                .eth_src
                .intersect_eq(mac_bits(m.eth_src.as_ref().unwrap()))
        );
        field!(
            m.eth_dst.is_some(),
            eth_dst,
            carry
                .eth_dst
                .minus_eq(mac_bits(m.eth_dst.as_ref().unwrap()))
                .into_iter(),
            carry
                .eth_dst
                .intersect_eq(mac_bits(m.eth_dst.as_ref().unwrap()))
        );
        field!(
            m.eth_type.is_some(),
            eth_type,
            carry
                .eth_type
                .minus_eq(m.eth_type.unwrap().into())
                .into_iter(),
            carry.eth_type.intersect_eq(m.eth_type.unwrap().into())
        );
        field!(
            m.vlan.is_some(),
            vlan,
            carry.vlan.minus_spec(m.vlan.unwrap()).into_iter(),
            carry.vlan.intersect_spec(m.vlan.unwrap())
        );
        field!(
            m.ip_src.is_some(),
            ip_src,
            carry
                .ip_src
                .minus_prefix(&Prefix::from_cidr(m.ip_src.as_ref().unwrap()))
                .into_iter(),
            carry
                .ip_src
                .intersect_prefix(&Prefix::from_cidr(m.ip_src.as_ref().unwrap()))
        );
        field!(
            m.ip_dst.is_some(),
            ip_dst,
            carry
                .ip_dst
                .minus_prefix(&Prefix::from_cidr(m.ip_dst.as_ref().unwrap()))
                .into_iter(),
            carry
                .ip_dst
                .intersect_prefix(&Prefix::from_cidr(m.ip_dst.as_ref().unwrap()))
        );
        field!(
            m.ip_proto.is_some(),
            ip_proto,
            carry
                .ip_proto
                .minus_eq(m.ip_proto.unwrap().into())
                .into_iter(),
            carry.ip_proto.intersect_eq(m.ip_proto.unwrap().into())
        );
        field!(
            m.l4_src.is_some(),
            l4_src,
            carry.l4_src.minus_eq(m.l4_src.unwrap().into()).into_iter(),
            carry.l4_src.intersect_eq(m.l4_src.unwrap().into())
        );
        field!(
            m.l4_dst.is_some(),
            l4_dst,
            carry.l4_dst.minus_eq(m.l4_dst.unwrap().into()).into_iter(),
            carry.l4_dst.intersect_eq(m.l4_dst.unwrap().into())
        );
        field!(
            m.fwmark.is_some(),
            fwmark,
            carry.fwmark.minus_eq(m.fwmark.unwrap().into()).into_iter(),
            carry.fwmark.intersect_eq(m.fwmark.unwrap().into())
        );
        // A fully wildcard `m` covers everything: no pieces survive
        // (the loop body never ran, `pieces` is empty) — correct.
        pieces
    }
}

/// True when `a` and `b` provably accept no common header, decided from
/// the two matches alone without building a [`Region`]: both pin an
/// exact field to different values, their VLAN specs exclude each other,
/// or neither prefix contains the other. The per-field rules are those
/// of [`Region::intersect_match`], so every piece carved out of
/// `region(a)` subtracts `b` as the identity. `false` means "may
/// intersect" — the caller falls through to the algebra.
pub fn provably_disjoint(a: &FlowMatch, b: &FlowMatch) -> bool {
    fn differ<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
        matches!((a, b), (Some(x), Some(y)) if x != y)
    }
    fn vlans_exclude(a: Option<VlanSpec>, b: Option<VlanSpec>) -> bool {
        match (a, b) {
            (Some(VlanSpec::Id(x)), Some(VlanSpec::Id(y))) => x != y,
            (Some(VlanSpec::Untagged), Some(other)) | (Some(other), Some(VlanSpec::Untagged)) => {
                other != VlanSpec::Untagged
            }
            // AnyTagged meets every Id; a wildcard side meets anything.
            _ => false,
        }
    }
    fn prefixes_apart(a: &Option<Ipv4Cidr>, b: &Option<Ipv4Cidr>) -> bool {
        let (Some(a), Some(b)) = (a, b) else {
            return false;
        };
        let (a, b) = (Prefix::from_cidr(a), Prefix::from_cidr(b));
        !a.contains(&b) && !b.contains(&a)
    }
    differ(&a.in_port, &b.in_port)
        || vlans_exclude(a.vlan, b.vlan)
        || differ(&a.eth_type, &b.eth_type)
        || differ(&a.eth_src, &b.eth_src)
        || differ(&a.eth_dst, &b.eth_dst)
        || prefixes_apart(&a.ip_src, &b.ip_src)
        || prefixes_apart(&a.ip_dst, &b.ip_dst)
        || differ(&a.ip_proto, &b.ip_proto)
        || differ(&a.l4_src, &b.l4_src)
        || differ(&a.l4_dst, &b.l4_dst)
        || differ(&a.fwmark, &b.fwmark)
}

/// Dead-rule analysis over one table in match order (entry `i` loses to
/// every entry `j < i`). Returns the indices of fully shadowed rules,
/// each with the indices of the covering set that killed it, plus the
/// total number of equivalence-class pieces examined.
///
/// `piece_budget` bounds the pieces per analyzed rule; a rule whose
/// difference exceeds the budget is conservatively reported *live*
/// (adversarial tables can force exponential splits; real tables stay
/// tiny). The analysis is exact within budget: a rule is flagged iff
/// the union of its predecessors covers its whole match region.
pub fn shadowed_rules(
    matches: &[&FlowMatch],
    piece_budget: usize,
) -> (Vec<(usize, Vec<usize>)>, usize) {
    let mut shadowed = Vec::new();
    let mut classes = 0usize;
    for i in 1..matches.len() {
        let Some(start) = Region::from_match(matches[i]) else {
            continue;
        };
        let mut pieces = vec![start];
        let mut covering: Vec<usize> = Vec::new();
        let mut over_budget = false;
        for (j, m) in matches.iter().enumerate().take(i) {
            // A predecessor that cannot meet rule `i` subtracts as the
            // identity from every piece: account for it exactly as the
            // algebra would (budget, then classes), build nothing.
            if provably_disjoint(matches[i], m) {
                if pieces.len() > piece_budget {
                    over_budget = true;
                    break;
                }
                classes += pieces.len();
                continue;
            }
            let mut next: Vec<Region> = Vec::new();
            let mut cut = false;
            for p in &pieces {
                let parts = p.subtract_match(m);
                cut |= parts.len() != 1 || parts[0] != *p;
                next.extend(parts);
            }
            if cut {
                covering.push(j);
            }
            if next.len() > piece_budget {
                over_budget = true;
                break;
            }
            classes += next.len();
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        if pieces.is_empty() && !over_budget {
            shadowed.push((i, covering));
        }
    }
    (shadowed, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_switch::PortNo;

    fn m(f: impl FnOnce(&mut FlowMatch)) -> FlowMatch {
        let mut m = FlowMatch::any();
        f(&mut m);
        m
    }

    #[test]
    fn wildcard_covers_everything() {
        let specific = m(|m| {
            m.in_port = Some(PortNo(3));
            m.l4_dst = Some(443);
        });
        let any = FlowMatch::any();
        let r = Region::from_match(&specific).unwrap();
        assert!(r.subtract_match(&any).is_empty());
        // ... and the reverse survives.
        let r = Region::from_match(&any).unwrap();
        assert!(!r.subtract_match(&specific).is_empty());
    }

    #[test]
    fn disjoint_subtraction_is_identity() {
        let a = m(|m| m.in_port = Some(PortNo(1)));
        let b = m(|m| m.in_port = Some(PortNo(2)));
        let r = Region::from_match(&a).unwrap();
        assert_eq!(r.subtract_match(&b), vec![r.clone()]);
    }

    #[test]
    fn prefix_subtraction_splits_into_siblings() {
        let wide = m(|mm| mm.ip_dst = Some("10.0.0.0/8".parse().unwrap()));
        let narrow = m(|mm| mm.ip_dst = Some("10.1.0.0/16".parse().unwrap()));
        let r = Region::from_match(&wide).unwrap();
        let pieces = r.subtract_match(&narrow);
        // 8 sibling prefixes between /8 and /16.
        assert_eq!(pieces.len(), 8);
        // The subtracted prefix is gone from every piece.
        for p in &pieces {
            assert!(p.intersect_match(&narrow).is_none(), "{p:?}");
        }
        // Subtracting the wide prefix from the narrow one empties it.
        let r = Region::from_match(&narrow).unwrap();
        assert!(r.subtract_match(&wide).is_empty());
    }

    #[test]
    fn vlan_three_way_semantics() {
        let untagged = m(|mm| mm.vlan = Some(VlanSpec::Untagged));
        let tag7 = m(|mm| mm.vlan = Some(VlanSpec::Id(7)));
        let any_tag = m(|mm| mm.vlan = Some(VlanSpec::AnyTagged));
        // AnyTagged covers Id(7) but not Untagged.
        let r = Region::from_match(&tag7).unwrap();
        assert!(r.subtract_match(&any_tag).is_empty());
        let r = Region::from_match(&untagged).unwrap();
        assert_eq!(r.subtract_match(&any_tag).len(), 1);
        // Untagged ∪ AnyTagged covers the wildcard's whole vlan axis.
        let r = Region::full();
        let left: Vec<Region> = r
            .subtract_match(&untagged)
            .iter()
            .flat_map(|p| p.subtract_match(&any_tag))
            .collect();
        assert!(left.is_empty());
    }

    #[test]
    fn optional_fields_keep_absent_packets() {
        // Matching on l4_dst never covers L4-less traffic.
        let l4 = m(|mm| mm.l4_dst = Some(80));
        let r = Region::full();
        let pieces = r.subtract_match(&l4);
        assert_eq!(pieces.len(), 1);
        assert!(pieces[0].l4_dst.absent);
        // Same for IP matches vs non-IP frames.
        let ip = m(|mm| mm.ip_dst = Some("0.0.0.0/0".parse().unwrap()));
        let pieces = r.subtract_match(&ip);
        assert_eq!(pieces.len(), 1);
        assert!(pieces[0].ip_dst.non_ip);
    }

    #[test]
    fn union_cover_is_detected() {
        // Two half-covers that only together kill the wildcard rule.
        let tagged = m(|mm| mm.vlan = Some(VlanSpec::AnyTagged));
        let untagged = m(|mm| mm.vlan = Some(VlanSpec::Untagged));
        let any = FlowMatch::any();
        let (hits, _) = shadowed_rules(&[&tagged, &untagged, &any], 1024);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
        assert_eq!(hits[0].1, vec![0, 1]);
    }

    #[test]
    fn partial_overlap_is_not_shadowing() {
        let broad = m(|mm| mm.in_port = Some(PortNo(1)));
        let partial = m(|mm| {
            mm.in_port = Some(PortNo(1));
            mm.l4_dst = Some(80);
        });
        let (hits, _) = shadowed_rules(&[&partial, &broad], 1024);
        assert!(hits.is_empty(), "{hits:?}");
        // Flip the order: the specific rule dies under the broad one.
        let (hits, _) = shadowed_rules(&[&broad, &partial], 1024);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
    }
}
