//! Connection tracking and NAT.
//!
//! The NAT NNF is `iptables -t nat` + this engine. Entries are keyed by
//! `(zone, 5-tuple)`; **zones** give each service graph sharing a single
//! NAT NNF instance its own tracking space, so overlapping customer
//! address plans cannot collide — this is one half of the paper's
//! sharable-NNF isolation story (the other half is policy routing).
//!
//! NAT model: every connection stores its pre-NAT original tuple and the
//! post-NAT translated tuple. Packets in the original direction are
//! rewritten `orig → trans`; replies matching `reverse(trans)` are
//! rewritten back to `reverse(orig)`.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Conntrack flow state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtState {
    /// First packet(s) of a flow; no reply seen yet.
    New,
    /// A reply has been seen.
    Established,
}

/// A 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowTuple {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP protocol.
    pub proto: u8,
    /// L4 source port (0 for port-less protocols).
    pub sport: u16,
    /// L4 destination port.
    pub dport: u16,
}

impl FlowTuple {
    /// The reply-direction tuple.
    pub fn reversed(&self) -> FlowTuple {
        FlowTuple {
            src: self.dst,
            dst: self.src,
            proto: self.proto,
            sport: self.dport,
            dport: self.sport,
        }
    }
}

/// Handle to a tracked connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnId(usize);

/// Direction of a packet relative to its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtDirection {
    /// Same direction as the first packet.
    Original,
    /// Reply direction.
    Reply,
}

#[derive(Debug, Clone)]
struct ConnEntry {
    zone: u16,
    /// Pre-NAT tuple of the original direction.
    orig: FlowTuple,
    /// Post-NAT tuple of the original direction.
    trans: FlowTuple,
    state: CtState,
    confirmed: bool,
    /// `set_snat` reserved `trans`'s source port.
    reserved: bool,
    packets: u64,
}

/// The connection tracking table.
#[derive(Debug, Default)]
pub struct Conntrack {
    conns: Vec<ConnEntry>,
    lookup: HashMap<(u16, FlowTuple), usize>,
    /// The NAT source ports reserved, per (zone, address, protocol).
    used_ports: HashMap<(u16, Ipv4Addr, u8), PortSet>,
}

/// First port used for masquerade allocations (Linux default range).
pub const NAT_PORT_MIN: u16 = 32768;

/// A set of ports, one bit each.
#[derive(Debug, Clone)]
struct PortSet {
    words: Box<[u64]>,
    len: usize,
}

impl Default for PortSet {
    fn default() -> Self {
        PortSet {
            words: vec![0; 1 << 10].into(),
            len: 0,
        }
    }
}

impl PortSet {
    fn contains(&self, port: u16) -> bool {
        self.words[usize::from(port >> 6)] & (1 << (port & 63)) != 0
    }

    /// Add or remove `port`.
    fn set(&mut self, port: u16, on: bool) {
        if self.contains(port) != on {
            self.words[usize::from(port >> 6)] ^= 1 << (port & 63);
            self.len = if on { self.len + 1 } else { self.len - 1 };
        }
    }

    /// The first port not in the set at or after `from` (≥
    /// [`NAT_PORT_MIN`]), wrapping from the top to `NAT_PORT_MIN`: a
    /// scan of at most one word per 64 ports.
    fn first_free(&self, from: u16) -> Option<u16> {
        let free_from = |lo: u16, hi: u16| {
            let (first, last) = (usize::from(lo >> 6), usize::from(hi >> 6));
            (first..=last).find_map(|w| {
                let below = if w == first {
                    (1u64 << (lo & 63)) - 1
                } else {
                    0
                };
                let free = !(self.words[w] | below);
                let port = (w << 6) as u32 + free.trailing_zeros();
                (free != 0 && port <= u32::from(hi)).then_some(port as u16)
            })
        };
        free_from(from, u16::MAX).or_else(|| free_from(NAT_PORT_MIN, from.checked_sub(1)?))
    }
}

impl Conntrack {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of confirmed connections.
    pub fn len(&self) -> usize {
        self.conns.iter().filter(|c| c.confirmed).count()
    }

    /// Connections held, confirmed or not.
    pub fn tracked(&self) -> usize {
        self.conns.len()
    }

    /// NAT source ports reserved.
    pub fn nat_ports(&self) -> usize {
        self.used_ports.values().map(|ports| ports.len).sum()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Find the connection a packet belongs to.
    pub fn find(&self, zone: u16, tuple: &FlowTuple) -> Option<(ConnId, CtDirection)> {
        if let Some(&idx) = self.lookup.get(&(zone, *tuple)) {
            let c = &self.conns[idx];
            if c.orig == *tuple {
                return Some((ConnId(idx), CtDirection::Original));
            }
            return Some((ConnId(idx), CtDirection::Reply));
        }
        None
    }

    /// Begin tracking a new flow (unconfirmed until [`confirm`](Self::confirm)).
    pub fn begin(&mut self, zone: u16, tuple: FlowTuple) -> ConnId {
        let idx = self.conns.len();
        self.conns.push(ConnEntry {
            zone,
            orig: tuple,
            trans: tuple,
            state: CtState::New,
            confirmed: false,
            reserved: false,
            packets: 0,
        });
        ConnId(idx)
    }

    /// Apply a DNAT decision to a new connection.
    pub fn set_dnat(&mut self, id: ConnId, to: Ipv4Addr, port: Option<u16>) {
        let c = &mut self.conns[id.0];
        debug_assert!(!c.confirmed, "NAT after confirmation is invalid");
        c.trans.dst = to;
        if let Some(p) = port {
            c.trans.dport = p;
        }
    }

    /// Apply an SNAT/masquerade decision, and return the source port
    /// the connection takes: the requested (or current) one, or — if
    /// it collides with another translation to the same address — the
    /// first free one at or after it in [`NAT_PORT_MIN`]..=65535,
    /// wrapping (from `NAT_PORT_MIN` for a port below the range). `None`
    /// when every port of the range is taken: the connection is left
    /// untranslated, for its frame to be dropped.
    pub fn set_snat(&mut self, id: ConnId, to: Ipv4Addr, port: Option<u16>) -> Option<u16> {
        let c = &mut self.conns[id.0];
        debug_assert!(!c.confirmed, "NAT after confirmation is invalid");
        let mut want = port.unwrap_or(c.trans.sport);
        if want == 0 {
            want = NAT_PORT_MIN;
        }
        let ports = self
            .used_ports
            .entry((c.zone, to, c.trans.proto))
            .or_default();
        let port = match ports.contains(want) {
            false => want,
            true => ports.first_free(want.max(NAT_PORT_MIN))?,
        };
        ports.set(port, true);
        (c.trans.src, c.trans.sport, c.reserved) = (to, port, true);
        Some(port)
    }

    /// Confirm a connection after POSTROUTING: it becomes visible to
    /// lookups in both directions.
    pub fn confirm(&mut self, id: ConnId) {
        let c = &mut self.conns[id.0];
        if c.confirmed {
            return;
        }
        c.confirmed = true;
        let zone = c.zone;
        let orig = c.orig;
        let reply_key = c.trans.reversed();
        self.lookup.insert((zone, orig), id.0);
        self.lookup.insert((zone, reply_key), id.0);
    }

    /// Forget a connection its frame never confirmed — the frame died
    /// between [`begin`](Self::begin) and [`confirm`](Self::confirm) —
    /// with the NAT port it reserved. A confirmed one stays. A frame's
    /// hooks begin no other connection before its own is confirmed, so
    /// the one to forget is the newest.
    pub fn abort(&mut self, id: ConnId) {
        if self.conns[id.0].confirmed {
            return;
        }
        debug_assert_eq!(id.0 + 1, self.conns.len(), "only the newest is unconfirmed");
        if id.0 + 1 != self.conns.len() {
            return;
        }
        let c = self.conns.pop().expect("looked up above");
        if c.reserved {
            let t = c.trans;
            if let Some(ports) = self.used_ports.get_mut(&(c.zone, t.src, t.proto)) {
                ports.set(t.sport, false);
            }
        }
    }

    /// The tuple a packet should carry after NAT, given its direction.
    pub fn rewrite(&self, id: ConnId, dir: CtDirection) -> FlowTuple {
        let c = &self.conns[id.0];
        match dir {
            CtDirection::Original => c.trans,
            CtDirection::Reply => c.orig.reversed(),
        }
    }

    /// Whether a connection's original destination (address or port) is
    /// translated: Linux's `--ctstate DNAT`.
    pub fn is_dnat(&self, id: ConnId) -> bool {
        let c = &self.conns[id.0];
        (c.orig.dst, c.orig.dport) != (c.trans.dst, c.trans.dport)
    }

    /// Current state of a connection.
    pub fn state(&self, id: ConnId) -> CtState {
        self.conns[id.0].state
    }

    /// Record a packet on the connection; a reply-direction packet
    /// promotes the flow to Established.
    pub fn note_packet(&mut self, id: ConnId, dir: CtDirection) {
        let c = &mut self.conns[id.0];
        c.packets += 1;
        if dir == CtDirection::Reply {
            c.state = CtState::Established;
        }
    }

    /// Packets seen on a connection.
    pub fn packet_count(&self, id: ConnId) -> u64 {
        self.conns[id.0].packets
    }

    /// Drop everything (e.g. NNF teardown).
    pub fn clear(&mut self) {
        self.conns.clear();
        self.lookup.clear();
        self.used_ports.clear();
    }

    /// Forget every connection of `zone`, and the NAT ports it held
    /// (the zone's owner left; the next one must not inherit its state).
    pub fn flush_zone(&mut self, zone: u16) {
        self.conns.retain(|c| c.zone != zone);
        self.used_ports.retain(|&(z, ..), _| z != zone);
        self.lookup.clear();
        for (i, c) in self.conns.iter().enumerate().filter(|(_, c)| c.confirmed) {
            self.lookup.insert((c.zone, c.orig), i);
            self.lookup.insert((c.zone, c.trans.reversed()), i);
        }
    }

    /// Iterate confirmed connections of a zone (diagnostics).
    pub fn zone_conns(&self, zone: u16) -> impl Iterator<Item = (&FlowTuple, &FlowTuple, CtState)> {
        self.conns
            .iter()
            .filter(move |c| c.zone == zone && c.confirmed)
            .map(|c| (&c.orig, &c.trans, c.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16) -> FlowTuple {
        FlowTuple {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            proto: 17,
            sport,
            dport,
        }
    }

    /// `set_snat` takes the port the linear probe it replaced took —
    /// the requested one if free, else the first free one at or after
    /// it (from `NAT_PORT_MIN` for one below the range), wrapping — over
    /// random requests near both ends of the range, aborted flows giving
    /// their ports back.
    #[test]
    fn a_snat_port_is_the_first_free_at_or_after_its_start() {
        let mut rng = un_sim::DetRng::new(24);
        let mut ct = Conntrack::new();
        let mut used = std::collections::HashSet::new();
        let to = Ipv4Addr::new(203, 0, 113, 1);
        for i in 0..4000u32 {
            let sport = match rng.index(4) {
                0 => 1000,
                1 => 65530 + rng.index(6) as u16,
                2 => NAT_PORT_MIN + rng.index(8) as u16,
                _ => 0,
            };
            let id = ct.begin(
                0,
                tuple((0x0a00_0000 + i).to_be_bytes(), sport, [8, 8, 8, 8], 53),
            );
            let mut probe = if sport == 0 { NAT_PORT_MIN } else { sport };
            while used.contains(&probe) {
                probe = match probe {
                    p if p < NAT_PORT_MIN => NAT_PORT_MIN,
                    p => p.checked_add(1).unwrap_or(NAT_PORT_MIN),
                };
            }
            assert_eq!(ct.set_snat(id, to, None), Some(probe), "flow {i}");
            if rng.chance(0.3) {
                ct.abort(id);
            } else {
                ct.confirm(id);
                used.insert(probe);
            }
        }
        assert_eq!(ct.nat_ports(), used.len());
    }

    #[test]
    fn track_and_establish() {
        let mut ct = Conntrack::new();
        let t = tuple([10, 0, 0, 2], 5000, [8, 8, 8, 8], 53);
        assert!(ct.find(0, &t).is_none());
        let id = ct.begin(0, t);
        ct.confirm(id);
        ct.note_packet(id, CtDirection::Original);
        assert_eq!(ct.state(id), CtState::New);

        let (id2, dir) = ct.find(0, &t.reversed()).unwrap();
        assert_eq!(id2, id);
        assert_eq!(dir, CtDirection::Reply);
        ct.note_packet(id2, CtDirection::Reply);
        assert_eq!(ct.state(id), CtState::Established);
        assert_eq!(ct.packet_count(id), 2);
    }

    #[test]
    fn snat_rewrites_and_reverses() {
        let mut ct = Conntrack::new();
        let orig = tuple([192, 168, 1, 10], 5000, [8, 8, 8, 8], 53);
        let id = ct.begin(0, orig);
        ct.set_snat(id, Ipv4Addr::new(203, 0, 113, 1), None);
        ct.confirm(id);

        let out = ct.rewrite(id, CtDirection::Original);
        assert_eq!(out.src, Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(out.dst, Ipv4Addr::new(8, 8, 8, 8));

        // Reply arrives addressed to the translated source.
        let reply = out.reversed();
        let (rid, dir) = ct.find(0, &reply).unwrap();
        assert_eq!(rid, id);
        assert_eq!(dir, CtDirection::Reply);
        let back = ct.rewrite(rid, dir);
        assert_eq!(back.dst, Ipv4Addr::new(192, 168, 1, 10));
        assert_eq!(back.dport, 5000);
    }

    /// Flushing a zone forgets its connections and NAT ports, and the
    /// other zones' connections stay found in both directions.
    #[test]
    fn a_flushed_zone_keeps_the_others() {
        let mut ct = Conntrack::new();
        let pub_ip = Ipv4Addr::new(203, 0, 113, 1);
        let t = tuple([192, 168, 1, 10], 5000, [8, 8, 8, 8], 53);
        let mut translated = Vec::new();
        for zone in [1, 2, 1] {
            let id = ct.begin(zone, t);
            ct.set_snat(id, pub_ip, Some(40000));
            ct.confirm(id);
            translated.push(ct.rewrite(id, CtDirection::Original));
        }
        ct.flush_zone(1);
        assert_eq!(ct.len(), 1);
        assert!(ct.find(1, &t).is_none());
        assert_eq!(ct.zone_conns(1).count(), 0);
        let (id, _) = ct.find(2, &t).unwrap();
        assert_eq!(
            ct.find(2, &translated[1].reversed()),
            Some((id, CtDirection::Reply))
        );
        // The zone's port is free again: a new connection takes it.
        let id = ct.begin(1, t);
        ct.set_snat(id, pub_ip, Some(40000));
        assert_eq!(ct.rewrite(id, CtDirection::Original), translated[0]);
    }

    #[test]
    fn dnat_rewrites() {
        let mut ct = Conntrack::new();
        let orig = tuple([1, 2, 3, 4], 9999, [203, 0, 113, 1], 8080);
        let id = ct.begin(0, orig);
        ct.set_dnat(id, Ipv4Addr::new(192, 168, 1, 20), Some(80));
        ct.confirm(id);
        assert!(ct.is_dnat(id));
        let fwd = ct.rewrite(id, CtDirection::Original);
        assert_eq!(fwd.dst, Ipv4Addr::new(192, 168, 1, 20));
        assert_eq!(fwd.dport, 80);
        // Server's reply (from 192.168.1.20:80) maps back to the public tuple.
        let (rid, dir) = ct.find(0, &fwd.reversed()).unwrap();
        let back = ct.rewrite(rid, dir);
        assert_eq!(back.src, Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(back.sport, 8080);
    }

    #[test]
    fn port_collision_allocates_fresh_port() {
        let mut ct = Conntrack::new();
        let pub_ip = Ipv4Addr::new(203, 0, 113, 1);
        // Two inside hosts use the same source port to the same server.
        let a = tuple([192, 168, 1, 10], 5000, [8, 8, 8, 8], 53);
        let b = tuple([192, 168, 1, 11], 5000, [8, 8, 8, 8], 53);
        let ia = ct.begin(0, a);
        ct.set_snat(ia, pub_ip, None);
        ct.confirm(ia);
        let ib = ct.begin(0, b);
        ct.set_snat(ib, pub_ip, None);
        ct.confirm(ib);

        let ta = ct.rewrite(ia, CtDirection::Original);
        let tb = ct.rewrite(ib, CtDirection::Original);
        assert_eq!(ta.src, pub_ip);
        assert_eq!(tb.src, pub_ip);
        assert_ne!(ta.sport, tb.sport, "translations must not collide");

        // Replies demux to the right inside host.
        let (ra, _) = ct.find(0, &ta.reversed()).unwrap();
        let (rb, _) = ct.find(0, &tb.reversed()).unwrap();
        assert_eq!(ct.rewrite(ra, CtDirection::Reply).dst, a.src);
        assert_eq!(ct.rewrite(rb, CtDirection::Reply).dst, b.src);
    }

    #[test]
    fn zones_isolate_identical_tuples() {
        let mut ct = Conntrack::new();
        let t = tuple([192, 168, 1, 10], 5000, [8, 8, 8, 8], 53);
        let id1 = ct.begin(1, t);
        ct.set_snat(id1, Ipv4Addr::new(203, 0, 113, 1), None);
        ct.confirm(id1);
        let id2 = ct.begin(2, t);
        ct.set_snat(id2, Ipv4Addr::new(198, 51, 100, 1), None);
        ct.confirm(id2);

        let (f1, d1) = ct.find(1, &t).unwrap();
        let (f2, d2) = ct.find(2, &t).unwrap();
        assert_ne!(f1, f2);
        assert_eq!(d1, CtDirection::Original);
        assert_eq!(d2, CtDirection::Original);
        assert_eq!(ct.rewrite(f1, d1).src, Ipv4Addr::new(203, 0, 113, 1));
        assert_eq!(ct.rewrite(f2, d2).src, Ipv4Addr::new(198, 51, 100, 1));
        assert!(ct.find(3, &t).is_none());
    }

    #[test]
    fn unconfirmed_invisible() {
        let mut ct = Conntrack::new();
        let t = tuple([1, 1, 1, 1], 1, [2, 2, 2, 2], 2);
        let _id = ct.begin(0, t);
        assert!(
            ct.find(0, &t).is_none(),
            "unconfirmed entries must not match"
        );
        assert_eq!(ct.len(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut ct = Conntrack::new();
        let t = tuple([1, 1, 1, 1], 1, [2, 2, 2, 2], 2);
        let id = ct.begin(0, t);
        ct.confirm(id);
        assert_eq!(ct.len(), 1);
        ct.clear();
        assert!(ct.is_empty());
        assert!(ct.find(0, &t).is_none());
    }
}
