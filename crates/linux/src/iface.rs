//! Interfaces: loopback, veth, bridge, VLAN sub-interface, external.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use un_packet::ethernet::MacAddr;
use un_packet::{Ipv4Cidr, Packet};

use crate::types::{ExternalTag, NsId};

/// An interface handle (index into the host's interface table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceId(pub u32);

impl std::fmt::Display for IfaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// What an interface is.
#[derive(Debug, Clone)]
pub enum IfaceKind {
    /// `lo`.
    Loopback,
    /// One end of a veth pair.
    Veth {
        /// The other end.
        peer: IfaceId,
    },
    /// A learning bridge (`brctl addbr`).
    Bridge {
        /// Enslaved member interfaces.
        members: Vec<IfaceId>,
        /// MAC → member forwarding database.
        fdb: Fdb,
    },
    /// An 802.1Q sub-interface (`ip link add link eth0 name eth0.10 …`).
    VlanSub {
        /// The parent interface carrying tagged frames.
        parent: IfaceId,
        /// The VLAN id demuxed to this sub-interface.
        vid: u16,
    },
    /// Attachment to the node fabric (tap/LSI port/physical NIC).
    External {
        /// Opaque tag the fabric uses to route emissions.
        tag: ExternalTag,
    },
}

/// A bridge's forwarding database: MAC → member, a keyed `HashMap`
/// (its own `RandomState`: source MACs are attacker-chosen) behind a
/// memo of the last pair learned and the last destination looked up.
///
/// A bridge re-learns one `src → member` pair on every frame of a flow
/// and looks one destination up, so a warm frame is answered by a
/// six-byte compare instead of two SipHash passes. The lookup memo
/// remembers an absent destination too — a frame for a MAC never
/// learned floods every time. Both memos only ever hold what the map
/// holds: learning the memoised pair is a no-op because the map has it
/// already, a learn that changes the map clears the lookup memo, and
/// [`Fdb::forget_port`] clears both. A sender who alternates MACs pays
/// one compare more per frame, never a collision chain.
#[derive(Debug, Clone, Default)]
pub struct Fdb {
    map: HashMap<MacAddr, IfaceId>,
    /// The last pair learned; the map holds it.
    learned: Option<(MacAddr, IfaceId)>,
    /// The last destination looked up and the map's answer for it.
    looked_up: Option<(MacAddr, Option<IfaceId>)>,
}

impl Fdb {
    /// Learn (or move) `mac` onto member `port`.
    pub fn learn(&mut self, mac: MacAddr, port: IfaceId) {
        if self.learned == Some((mac, port)) {
            return;
        }
        self.learned = Some((mac, port));
        if self.map.insert(mac, port) != Some(port) {
            self.looked_up = None;
        }
    }

    /// The member `mac` was learned on, if any.
    pub fn lookup(&mut self, mac: MacAddr) -> Option<IfaceId> {
        match self.looked_up {
            Some((looked, answer)) if looked == mac => answer,
            _ => {
                let answer = self.map.get(&mac).copied();
                self.looked_up = Some((mac, answer));
                answer
            }
        }
    }

    /// Forget every MAC learned on `port` (a member leaving the bridge).
    pub fn forget_port(&mut self, port: IfaceId) {
        self.map.retain(|_, p| *p != port);
        self.learned = None;
        self.looked_up = None;
    }

    /// Number of learned MACs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is learned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// ARP neighbor entry state.
#[derive(Debug, Clone)]
pub enum NeighState {
    /// Resolved.
    Reachable(MacAddr),
    /// Resolution in flight; packets parked until the reply arrives.
    Incomplete {
        /// Queued IP packets (bounded, like the kernel's arp_queue).
        pending: Vec<(IfaceId, Packet)>,
    },
}

/// Maximum packets parked on an incomplete neighbor entry.
pub const NEIGH_QUEUE_MAX: usize = 3;

/// One interface.
#[derive(Debug, Clone)]
pub struct Iface {
    /// Handle.
    pub id: IfaceId,
    /// Owning namespace.
    pub ns: NsId,
    /// Name, unique within the namespace.
    pub name: String,
    /// MAC address.
    pub mac: MacAddr,
    /// Assigned IPv4 addresses.
    pub addrs: Vec<Ipv4Cidr>,
    /// Administrative state.
    pub up: bool,
    /// Kind-specific state.
    pub kind: IfaceKind,
    /// Conntrack zone stamped on ingress traffic (0 = default).
    pub ct_zone: u16,
    /// RX packet counter.
    pub rx_packets: u64,
    /// TX packet counter.
    pub tx_packets: u64,
    /// RX byte counter.
    pub rx_bytes: u64,
    /// TX byte counter.
    pub tx_bytes: u64,
}

impl Iface {
    /// Does this interface own `ip`?
    pub fn has_addr(&self, ip: Ipv4Addr) -> bool {
        self.addrs.iter().any(|c| c.addr() == ip)
    }

    /// First address, if any (used as source for locally generated traffic).
    pub fn primary_addr(&self) -> Option<Ipv4Addr> {
        self.addrs.first().map(|c| c.addr())
    }

    /// Is `ip` on-link for this interface?
    pub fn on_link(&self, ip: Ipv4Addr) -> bool {
        self.addrs.iter().any(|c| c.contains(ip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface() -> Iface {
        Iface {
            id: IfaceId(1),
            ns: NsId(0),
            name: "eth0".into(),
            mac: MacAddr::local(1),
            addrs: vec!["10.0.0.1/24".parse().unwrap()],
            up: true,
            kind: IfaceKind::External { tag: 7 },
            ct_zone: 0,
            rx_packets: 0,
            tx_packets: 0,
            rx_bytes: 0,
            tx_bytes: 0,
        }
    }

    #[test]
    fn addr_predicates() {
        let i = iface();
        assert!(i.has_addr(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!i.has_addr(Ipv4Addr::new(10, 0, 0, 2)));
        assert!(i.on_link(Ipv4Addr::new(10, 0, 0, 200)));
        assert!(!i.on_link(Ipv4Addr::new(10, 0, 1, 1)));
        assert_eq!(i.primary_addr(), Some(Ipv4Addr::new(10, 0, 0, 1)));
    }

    /// Source MACs are attacker-chosen, so every FDB is keyed by its own
    /// `RandomState`: two bridges that learned the same MAC hash it to
    /// different values.
    #[test]
    fn fdb_is_keyed() {
        use std::hash::BuildHasher;
        let mac = MacAddr::local(1);
        let build = || {
            let mut fdb = Fdb::default();
            fdb.learn(mac, IfaceId(1));
            assert_eq!(fdb.lookup(mac), Some(IfaceId(1)));
            fdb
        };
        let (a, b) = (build(), build());
        assert_ne!(a.map.hasher().hash_one(mac), b.map.hasher().hash_one(mac));
    }

    /// The lookup memo keeps an absent answer until a learn of that MAC
    /// changes the map, and follows a MAC that moves.
    #[test]
    fn the_fdb_memo_follows_the_map() {
        let (mac, other) = (MacAddr::local(1), MacAddr::local(2));
        let mut fdb = Fdb::default();
        assert_eq!(fdb.lookup(mac), None);
        fdb.learn(other, IfaceId(3));
        assert_eq!(fdb.lookup(mac), None);
        fdb.learn(mac, IfaceId(1));
        assert_eq!(fdb.lookup(mac), Some(IfaceId(1)));
        fdb.learn(mac, IfaceId(2));
        assert_eq!(fdb.lookup(mac), Some(IfaceId(2)));
        fdb.learn(other, IfaceId(3));
        fdb.learn(mac, IfaceId(1));
        assert_eq!(fdb.lookup(mac), Some(IfaceId(1)));
        fdb.forget_port(IfaceId(1));
        assert_eq!(fdb.lookup(mac), None);
        assert_eq!(fdb.lookup(other), Some(IfaceId(3)));
        assert_eq!(fdb.len(), 1);
    }
}
