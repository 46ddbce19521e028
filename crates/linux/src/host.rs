//! The simulated Linux host: namespaces, interfaces, and the packet
//! pipeline.
//!
//! Pipeline shape (mirroring the kernel's hook order, simplified):
//!
//! ```text
//! rx_frame ─ bridge? ─ vlan demux? ─ L2 filter ─ ARP | IPv4
//! IPv4: mangle/PREROUTING → conntrack (+nat/PREROUTING on new flows)
//!   ├─ local:   filter/INPUT → ESP? xfrm input (recirculate) → sockets/ICMP
//!   └─ forward: TTL → route (policy, fwmark) → filter/FORWARD
//!               → nat/POSTROUTING → xfrm output → neighbor → tx_frame
//! local out:    route → filter/OUTPUT → nat/POSTROUTING → xfrm → tx
//! ```
//!
//! Every step charges virtual time through the [`CostModel`], so a
//! saturation run across a host produces meaningful Mbps.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use un_packet::arp::{ArpOp, ArpPacket, ARP_LEN};
use un_packet::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use un_packet::icmp::{IcmpKind, IcmpMessage};
use un_packet::ipv4::{IpProtocol, Ipv4Packet, IPV4_HEADER_LEN};
use un_packet::tcp::TcpSegment;
use un_packet::udp::UdpDatagram;
use un_packet::{Ipv4Cidr, Packet, PacketMeta};
use un_sim::{Cost, CostModel, SimTime};

use crate::conntrack::{Conntrack, CtDirection, CtState, FlowTuple};
use crate::iface::{Iface, IfaceId, IfaceKind, NeighState, NEIGH_QUEUE_MAX};
use crate::netfilter::{Chain, ChainEffects, Netfilter, NfPacket, NfTable, Verdict};
use crate::route::{IpRule, Route, RoutingPolicy};
use crate::slots::Slots;
use crate::socket::{Datagram, SocketId, SocketTable};
use crate::types::{ExternalTag, HostError, IoResult, NsId};
use crate::xfrm::{Xfrm, XfrmOutput};

/// Maximum processing recursion (veth hops, recirculations) per frame.
const MAX_DEPTH: u32 = 64;

/// One network namespace.
#[derive(Debug)]
pub struct Namespace {
    /// Handle.
    pub id: NsId,
    /// Name (unique per host).
    pub name: String,
    /// Interfaces owned by this namespace.
    pub ifaces: Vec<IfaceId>,
    /// Routing tables + policy rules.
    pub routing: RoutingPolicy,
    /// Netfilter state.
    pub netfilter: Netfilter,
    /// Connection tracking.
    pub conntrack: Conntrack,
    /// Kernel IPsec.
    pub xfrm: Xfrm,
    /// ARP neighbor cache.
    pub neigh: HashMap<Ipv4Addr, NeighState>,
    /// `net.ipv4.ip_forward`.
    pub ip_forward: bool,
    /// Packets forwarded.
    pub forwarded: u64,
}

un_sim::counters! {
    /// What the host's pipeline saw and refused, host-wide: each drop
    /// is booked once, under its reason (netfilter drops are the
    /// namespace's `Netfilter::dropped`).
    pub struct HostCounters {
        arp_replies,
        arp_requests,
        icmp_echo_requests,
        icmp_other,
        loop_drops,
        neigh_queue_drops,
        no_route,
        rx_bad_ip,
        rx_csum_errors,
        rx_down_iface,
        rx_malformed,
        rx_malformed_arp,
        rx_not_for_us,
        rx_unhandled_proto,
        rx_unknown_ethertype,
        rx_unknown_vlan,
        rx_wrong_mac,
        ttl_expired,
        tx_down_iface,
        udp_delivered,
        udp_no_socket,
        xfrm_decap,
        xfrm_decap_errors,
        xfrm_encap,
        xfrm_out_discard,
    }
}

struct Ctx {
    emitted: Vec<(ExternalTag, Packet)>,
    cost: Cost,
}

impl Ctx {
    fn new() -> Self {
        Ctx {
            emitted: Vec::new(),
            cost: Cost::ZERO,
        }
    }
    fn charge(&mut self, ns: u64) {
        self.cost += Cost::from_nanos(ns);
    }
    fn into_result(self) -> IoResult {
        IoResult {
            emitted: self.emitted,
            cost: self.cost,
        }
    }
}

/// A simulated Linux machine.
#[derive(Debug)]
pub struct Host {
    /// Host name (diagnostics).
    pub name: String,
    namespaces: Slots<Namespace>,
    ifaces: Slots<Iface>,
    sockets: SocketTable,
    /// The cost model every pipeline step charges against.
    pub costs: CostModel,
    /// The host's closed counter set.
    pub trace: HostCounters,
    now: SimTime,
    next_mac: u32,
}

impl Host {
    /// Create a host with a root namespace (`NsId(0)`).
    pub fn new(name: &str, costs: CostModel) -> Self {
        let mut h = Host {
            name: name.to_string(),
            namespaces: Slots::new(),
            ifaces: Slots::new(),
            sockets: SocketTable::new(),
            costs,
            trace: HostCounters::default(),
            now: SimTime::ZERO,
            next_mac: 1,
        };
        h.add_namespace("root");
        h
    }

    /// Advance the host's notion of time (stamps trace events).
    pub fn set_time(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Current host time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    // ------------------------------------------------------------------
    // Configuration plane ("ip", "iptables", "sysctl")
    // ------------------------------------------------------------------

    /// Create a namespace (with a loopback interface).
    pub fn add_namespace(&mut self, name: &str) -> NsId {
        let id = NsId(self.namespaces.insert_with(|index| Namespace {
            id: NsId(index),
            name: name.to_string(),
            ifaces: Vec::new(),
            routing: RoutingPolicy::new(),
            netfilter: Netfilter::new(),
            conntrack: Conntrack::new(),
            xfrm: Xfrm::new(),
            neigh: HashMap::new(),
            ip_forward: false,
            forwarded: 0,
        }));
        let lo = self.push_iface(id, "lo", IfaceKind::Loopback);
        self.ifaces[lo.0 as usize]
            .addrs
            .push(Ipv4Cidr::new(Ipv4Addr::LOCALHOST, 8));
        self.ifaces[lo.0 as usize].up = true;
        id
    }

    /// Delete a namespace (`ip netns del`) with everything it owns:
    /// interfaces, routing, netfilter, conntrack, XFRM and neighbour
    /// state, and the sockets bound in it. A veth end takes its peer
    /// in the other namespace with it, as on Linux. The freed handles
    /// are handed out again by later `add_*` calls, so none may be
    /// kept. The root namespace stays.
    pub fn remove_namespace(&mut self, ns: NsId) -> Result<(), HostError> {
        if ns == NsId(0) {
            return Err(HostError::RootNamespace);
        }
        let gone = self
            .namespaces
            .remove(ns.0)
            .ok_or(HostError::NoSuchNamespace(ns.0))?;
        for iface in gone.ifaces {
            // A veth peer inside the same namespace is gone already.
            let _ = self.remove_iface(iface);
        }
        self.sockets.close_namespace(ns);
        Ok(())
    }

    /// Delete one interface (`ip link del`) and, where its namespace
    /// lives on, every reference the configuration plane can have made
    /// to it there: membership, routes, bridge ports, sub-interfaces,
    /// parked frames. A veth end takes its peer with it. The freed
    /// handle is handed out again by later `add_*` calls.
    pub fn remove_iface(&mut self, id: IfaceId) -> Result<(), HostError> {
        let iface = self
            .ifaces
            .remove(id.0)
            .ok_or(HostError::NoSuchIface(id.0))?;
        if let Some(owner) = self.namespaces.get_mut(iface.ns.0) {
            owner.ifaces.retain(|i| *i != id);
            for table in owner.routing.tables.values_mut() {
                table.remove_dev(id);
            }
            for state in owner.neigh.values_mut() {
                if let NeighState::Incomplete { pending } = state {
                    pending.retain(|(dev, _)| *dev != id);
                }
            }
            for sibling in owner.ifaces.clone() {
                match self.ifaces.get_mut(sibling.0).map(|i| &mut i.kind) {
                    Some(IfaceKind::Bridge { members, fdb }) => {
                        members.retain(|m| *m != id);
                        fdb.retain(|_, port| *port != id);
                    }
                    Some(IfaceKind::VlanSub { parent, .. }) if *parent == id => {
                        let _ = self.remove_iface(sibling);
                    }
                    _ => {}
                }
            }
        }
        if let IfaceKind::Veth { peer } = iface.kind {
            let _ = self.remove_iface(peer);
        }
        Ok(())
    }

    fn alloc_mac(&mut self) -> MacAddr {
        let m = MacAddr::local(self.next_mac);
        self.next_mac += 1;
        m
    }

    fn push_iface(&mut self, ns: NsId, name: &str, kind: IfaceKind) -> IfaceId {
        let mac = self.alloc_mac();
        let id = IfaceId(self.ifaces.insert_with(|index| Iface {
            id: IfaceId(index),
            ns,
            name: name.to_string(),
            mac,
            addrs: Vec::new(),
            up: false,
            kind,
            ct_zone: 0,
            rx_packets: 0,
            tx_packets: 0,
            rx_bytes: 0,
            tx_bytes: 0,
        }));
        self.namespaces[ns.0 as usize].ifaces.push(id);
        id
    }

    fn check_name_free(&self, ns: NsId, name: &str) -> Result<(), HostError> {
        let taken = self.namespaces[ns.0 as usize]
            .ifaces
            .iter()
            .any(|&i| self.ifaces[i.0 as usize].name == name);
        if taken {
            Err(HostError::IfaceNameInUse(name.to_string()))
        } else {
            Ok(())
        }
    }

    /// Create a veth pair spanning two namespaces.
    pub fn add_veth(
        &mut self,
        ns_a: NsId,
        name_a: &str,
        ns_b: NsId,
        name_b: &str,
    ) -> Result<(IfaceId, IfaceId), HostError> {
        self.ns_check(ns_a)?;
        self.ns_check(ns_b)?;
        self.check_name_free(ns_a, name_a)?;
        self.check_name_free(ns_b, name_b)?;
        let a = self.push_iface(ns_a, name_a, IfaceKind::Veth { peer: IfaceId(0) });
        let b = self.push_iface(ns_b, name_b, IfaceKind::Veth { peer: a });
        self.ifaces[a.0 as usize].kind = IfaceKind::Veth { peer: b };
        Ok((a, b))
    }

    /// Create an external attachment (tap/LSI port/NIC).
    pub fn add_external(
        &mut self,
        ns: NsId,
        name: &str,
        tag: ExternalTag,
    ) -> Result<IfaceId, HostError> {
        self.ns_check(ns)?;
        self.check_name_free(ns, name)?;
        Ok(self.push_iface(ns, name, IfaceKind::External { tag }))
    }

    /// Create a bridge.
    pub fn add_bridge(&mut self, ns: NsId, name: &str) -> Result<IfaceId, HostError> {
        self.ns_check(ns)?;
        self.check_name_free(ns, name)?;
        Ok(self.push_iface(
            ns,
            name,
            IfaceKind::Bridge {
                members: Vec::new(),
                fdb: HashMap::new(),
            },
        ))
    }

    /// Enslave `member` to `bridge` (must share a namespace).
    pub fn bridge_attach(&mut self, bridge: IfaceId, member: IfaceId) -> Result<(), HostError> {
        self.iface_check(bridge)?;
        self.iface_check(member)?;
        if self.ifaces[bridge.0 as usize].ns != self.ifaces[member.0 as usize].ns {
            return Err(HostError::WrongIfaceKind("bridge-attach across namespaces"));
        }
        match &mut self.ifaces[bridge.0 as usize].kind {
            IfaceKind::Bridge { members, .. } => {
                if !members.contains(&member) {
                    members.push(member);
                }
                Ok(())
            }
            _ => Err(HostError::WrongIfaceKind("bridge-attach")),
        }
    }

    /// Create an 802.1Q sub-interface of `parent` for `vid`.
    pub fn add_vlan_sub(
        &mut self,
        parent: IfaceId,
        vid: u16,
        name: &str,
    ) -> Result<IfaceId, HostError> {
        self.iface_check(parent)?;
        let ns = self.ifaces[parent.0 as usize].ns;
        self.check_name_free(ns, name)?;
        let dup = self.ifaces.iter().any(|i| {
            matches!(i.kind, IfaceKind::VlanSub { parent: p, vid: v } if p == parent && v == vid)
        });
        if dup {
            return Err(HostError::VlanInUse(vid));
        }
        let id = self.push_iface(ns, name, IfaceKind::VlanSub { parent, vid });
        // Sub-interfaces share the parent's MAC, like Linux.
        self.ifaces[id.0 as usize].mac = self.ifaces[parent.0 as usize].mac;
        Ok(id)
    }

    /// Assign an address (`ip addr add`). Also installs the connected route.
    pub fn addr_add(&mut self, iface: IfaceId, cidr: Ipv4Cidr) -> Result<(), HostError> {
        self.iface_check(iface)?;
        let ns = self.ifaces[iface.0 as usize].ns;
        self.ifaces[iface.0 as usize].addrs.push(cidr);
        self.namespaces[ns.0 as usize]
            .routing
            .main_mut()
            .add(Route {
                dst: Ipv4Cidr::new(cidr.network(), cidr.prefix_len()),
                via: None,
                dev: iface,
                metric: 0,
            });
        Ok(())
    }

    /// Set administrative state (`ip link set up/down`).
    pub fn set_up(&mut self, iface: IfaceId, up: bool) -> Result<(), HostError> {
        self.iface_check(iface)?;
        self.ifaces[iface.0 as usize].up = up;
        Ok(())
    }

    /// Stamp a conntrack zone on traffic ingressing an interface.
    pub fn set_ct_zone(&mut self, iface: IfaceId, zone: u16) -> Result<(), HostError> {
        self.iface_check(iface)?;
        self.ifaces[iface.0 as usize].ct_zone = zone;
        Ok(())
    }

    /// Add a route (`ip route add … table <t>`).
    pub fn route_add(
        &mut self,
        ns: NsId,
        table: u32,
        dst: Ipv4Cidr,
        via: Option<Ipv4Addr>,
        dev: IfaceId,
        metric: u32,
    ) -> Result<(), HostError> {
        self.ns_check(ns)?;
        self.iface_check(dev)?;
        self.namespaces[ns.0 as usize]
            .routing
            .table_mut(table)
            .add(Route {
                dst,
                via,
                dev,
                metric,
            });
        Ok(())
    }

    /// Add a policy rule (`ip rule add fwmark … lookup …`).
    pub fn rule_add(&mut self, ns: NsId, rule: IpRule) -> Result<(), HostError> {
        self.ns_check(ns)?;
        self.namespaces[ns.0 as usize].routing.add_rule(rule);
        Ok(())
    }

    /// Enable/disable forwarding (`sysctl net.ipv4.ip_forward`).
    pub fn sysctl_ip_forward(&mut self, ns: NsId, on: bool) -> Result<(), HostError> {
        self.ns_check(ns)?;
        self.namespaces[ns.0 as usize].ip_forward = on;
        Ok(())
    }

    /// Install a static neighbor (`ip neigh add … lladdr …`).
    pub fn neigh_add(&mut self, ns: NsId, ip: Ipv4Addr, mac: MacAddr) -> Result<(), HostError> {
        self.ns_check(ns)?;
        self.namespaces[ns.0 as usize]
            .neigh
            .insert(ip, NeighState::Reachable(mac));
        Ok(())
    }

    /// Append an iptables rule.
    pub fn nf_append(
        &mut self,
        ns: NsId,
        table: NfTable,
        chain: Chain,
        rule: crate::netfilter::NfRule,
    ) -> Result<(), HostError> {
        self.ns_check(ns)?;
        self.namespaces[ns.0 as usize]
            .netfilter
            .append(table, chain, rule);
        Ok(())
    }

    /// Set a chain policy.
    pub fn nf_policy(
        &mut self,
        ns: NsId,
        table: NfTable,
        chain: Chain,
        accept: bool,
    ) -> Result<(), HostError> {
        self.ns_check(ns)?;
        self.namespaces[ns.0 as usize]
            .netfilter
            .set_policy(table, chain, accept);
        Ok(())
    }

    /// Mutable access to a namespace's XFRM state (SA/policy install).
    pub fn xfrm_mut(&mut self, ns: NsId) -> Result<&mut Xfrm, HostError> {
        self.ns_check(ns)?;
        Ok(&mut self.namespaces[ns.0 as usize].xfrm)
    }

    /// Read access to a namespace.
    pub fn namespace(&self, ns: NsId) -> Option<&Namespace> {
        self.namespaces.get(ns.0)
    }

    /// Mutable access to a namespace.
    pub fn namespace_mut(&mut self, ns: NsId) -> Option<&mut Namespace> {
        self.namespaces.get_mut(ns.0)
    }

    /// Read access to an interface.
    pub fn iface(&self, id: IfaceId) -> Option<&Iface> {
        self.ifaces.get(id.0)
    }

    /// Look up an interface by (namespace, name).
    pub fn iface_by_name(&self, ns: NsId, name: &str) -> Option<&Iface> {
        self.ifaces.iter().find(|i| i.ns == ns && i.name == name)
    }

    /// Number of namespaces.
    pub fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }

    /// Number of interfaces, across all namespaces.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }

    fn ns_check(&self, ns: NsId) -> Result<(), HostError> {
        if self.namespaces.get(ns.0).is_some() {
            Ok(())
        } else {
            Err(HostError::NoSuchNamespace(ns.0))
        }
    }

    fn iface_check(&self, id: IfaceId) -> Result<(), HostError> {
        if self.ifaces.get(id.0).is_some() {
            Ok(())
        } else {
            Err(HostError::NoSuchIface(id.0))
        }
    }

    // ------------------------------------------------------------------
    // Sockets (userspace daemons)
    // ------------------------------------------------------------------

    /// Bind a UDP socket.
    pub fn udp_bind(&mut self, ns: NsId, addr: Ipv4Addr, port: u16) -> Result<SocketId, HostError> {
        self.ns_check(ns)?;
        self.sockets
            .bind(ns, addr, port)
            .map_err(|_| HostError::AddrInUse(format!("{addr}:{port}")))
    }

    /// Receive the next datagram on a socket.
    pub fn udp_recv(&mut self, sock: SocketId) -> Option<Datagram> {
        self.sockets.recv(sock)
    }

    /// Pending datagrams on a socket.
    pub fn udp_pending(&self, sock: SocketId) -> usize {
        self.sockets.pending(sock)
    }

    /// Send a datagram from a bound socket.
    pub fn udp_send(
        &mut self,
        sock: SocketId,
        dst: Ipv4Addr,
        dport: u16,
        payload: &[u8],
    ) -> Result<IoResult, HostError> {
        let (ns, bound_addr, sport) = self
            .sockets
            .info(sock)
            .ok_or(HostError::NoSuchSocket(sock.0))?;
        // Source selection: bound address, else primary of egress iface.
        let src = if bound_addr != Ipv4Addr::UNSPECIFIED {
            bound_addr
        } else {
            let route = self.namespaces[ns.0 as usize]
                .routing
                .lookup(dst, 0)
                .ok_or_else(|| HostError::NoRoute(dst.to_string()))?;
            self.ifaces[route.dev.0 as usize]
                .primary_addr()
                .ok_or_else(|| HostError::NoRoute("no source address".into()))?
        };

        let total = IPV4_HEADER_LEN + 8 + payload.len();
        let mut ip_bytes = vec![0u8; total];
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut ip_bytes[..]);
            ip.init();
            ip.set_total_len(total as u16);
            ip.set_ttl(64);
            ip.set_protocol(IpProtocol::Udp);
            ip.set_src(src);
            ip.set_dst(dst);
            ip.fill_checksum();
        }
        {
            let mut udp = UdpDatagram::new_unchecked(&mut ip_bytes[IPV4_HEADER_LEN..]);
            udp.set_src_port(sport);
            udp.set_dst_port(dport);
            udp.set_length((8 + payload.len()) as u16);
            udp.payload_mut().copy_from_slice(payload);
            udp.fill_checksum(src, dst);
        }

        let mut ctx = Ctx::new();
        ctx.charge(self.costs.user_kernel_crossing_ns);
        let meta = PacketMeta::at(self.now, 0);
        self.local_output(ns, ip_bytes, meta, &mut ctx, 0);
        Ok(ctx.into_result())
    }

    /// Send a raw IPv4 packet from a namespace (raw socket equivalent).
    pub fn raw_send(&mut self, ns: NsId, ip_bytes: Vec<u8>) -> Result<IoResult, HostError> {
        self.ns_check(ns)?;
        let mut ctx = Ctx::new();
        ctx.charge(self.costs.user_kernel_crossing_ns);
        let meta = PacketMeta::at(self.now, 0);
        self.local_output(ns, ip_bytes, meta, &mut ctx, 0);
        Ok(ctx.into_result())
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Inject a frame as if it arrived on `iface` from the outside.
    pub fn inject(&mut self, iface: IfaceId, pkt: Packet) -> IoResult {
        let mut ctx = Ctx::new();
        if self.iface_check(iface).is_ok() {
            ctx.charge(self.costs.tap_ns);
            self.rx_frame(iface, pkt, &mut ctx, 0);
        }
        ctx.into_result()
    }

    fn rx_frame(&mut self, iface_id: IfaceId, pkt: Packet, ctx: &mut Ctx, depth: u32) {
        if depth > MAX_DEPTH {
            self.trace.loop_drops += 1;
            return;
        }
        let (up, ns, mac, zone) = {
            let i = &self.ifaces[iface_id.0 as usize];
            (i.up, i.ns, i.mac, i.ct_zone)
        };
        if !up {
            self.trace.rx_down_iface += 1;
            return;
        }
        {
            let i = &mut self.ifaces[iface_id.0 as usize];
            i.rx_packets += 1;
            i.rx_bytes += pkt.len() as u64;
        }

        // Bridge member? L2-switch it.
        if let Some(bridge) = self.bridge_master(iface_id) {
            self.bridge_rx(bridge, iface_id, pkt, ctx, depth);
            return;
        }

        let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
            self.trace.rx_malformed += 1;
            return;
        };
        let dst = eth.dst();
        let ethertype = eth.ethertype();

        // VLAN demux to sub-interfaces.
        if ethertype == EtherType::Vlan {
            if let Some(vid) = pkt.vlan_id() {
                if let Some(sub) = self.vlan_sub_of(iface_id, vid) {
                    ctx.charge(self.costs.vlan_op_ns);
                    let mut untagged = pkt;
                    let _ = untagged.vlan_pop();
                    self.rx_frame(sub, untagged, ctx, depth + 1);
                    return;
                }
            }
            self.trace.rx_unknown_vlan += 1;
            return;
        }

        // L2 address filter.
        if dst != mac && !dst.is_broadcast() && !dst.is_multicast() {
            self.trace.rx_wrong_mac += 1;
            return;
        }

        match ethertype {
            EtherType::Arp => self.arp_input(ns, iface_id, &pkt, ctx, depth),
            EtherType::Ipv4 => {
                let mut meta = pkt.meta.clone();
                if meta.ct_zone == 0 {
                    meta.ct_zone = zone;
                }
                meta.ingress = iface_id.0;
                let ip_bytes = pkt.data()[ETHERNET_HEADER_LEN..].to_vec();
                self.l3_input(ns, Some(iface_id), ip_bytes, meta, ctx, depth);
            }
            _ => {
                self.trace.rx_unknown_ethertype += 1;
            }
        }
    }

    fn bridge_master(&self, iface: IfaceId) -> Option<IfaceId> {
        let ns = self.ifaces[iface.0 as usize].ns;
        self.namespaces[ns.0 as usize]
            .ifaces
            .iter()
            .copied()
            .find(|&b| {
                matches!(&self.ifaces[b.0 as usize].kind,
                     IfaceKind::Bridge { members, .. } if members.contains(&iface))
            })
    }

    fn vlan_sub_of(&self, parent: IfaceId, vid: u16) -> Option<IfaceId> {
        self.ifaces
            .iter()
            .find(|i| {
                matches!(i.kind, IfaceKind::VlanSub { parent: p, vid: v } if p == parent && v == vid)
            })
            .map(|i| i.id)
    }

    fn bridge_rx(
        &mut self,
        bridge_id: IfaceId,
        member: IfaceId,
        pkt: Packet,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        ctx.charge(self.costs.bridge_fdb_ns);
        let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
            self.trace.rx_malformed += 1;
            return;
        };
        let (src, dst) = (eth.src(), eth.dst());
        let bridge_mac = self.ifaces[bridge_id.0 as usize].mac;

        // Learn + decide with one mutable borrow of the FDB. `flood`
        // stays unallocated unless the frame really fans out.
        let mut flood: Vec<IfaceId> = Vec::new();
        let mut to_local = false;
        {
            let IfaceKind::Bridge { members, fdb } = &mut self.ifaces[bridge_id.0 as usize].kind
            else {
                return;
            };
            fdb.insert(src, member);
            if dst == bridge_mac {
                to_local = true;
            } else if dst.is_broadcast() || dst.is_multicast() {
                to_local = true;
                flood.extend(members.iter().copied().filter(|&m| m != member));
            } else if let Some(&out) = fdb.get(&dst) {
                // Known unicast: the frame moves to its one target.
                if out != member {
                    self.tx_frame(out, pkt, ctx, depth + 1);
                }
                return;
            } else {
                flood.extend(members.iter().copied().filter(|&m| m != member));
            }
        }

        // Every target but the last gets a copy; the last takes the
        // frame itself unless local delivery still needs it.
        let mut targets = flood.into_iter().peekable();
        while let Some(out) = targets.next() {
            if targets.peek().is_none() && !to_local {
                self.tx_frame(out, pkt, ctx, depth + 1);
                return;
            }
            self.tx_frame(out, pkt.clone(), ctx, depth + 1);
        }
        if to_local {
            // Deliver up the stack via the bridge interface itself.
            let ns = self.ifaces[bridge_id.0 as usize].ns;
            let Ok(eth2) = EthernetFrame::new_checked(pkt.data()) else {
                return;
            };
            match eth2.ethertype() {
                EtherType::Arp => self.arp_input(ns, bridge_id, &pkt, ctx, depth),
                EtherType::Ipv4 => {
                    let mut meta = pkt.meta.clone();
                    if meta.ct_zone == 0 {
                        meta.ct_zone = self.ifaces[bridge_id.0 as usize].ct_zone;
                    }
                    meta.ingress = bridge_id.0;
                    let ip_bytes = pkt.data()[ETHERNET_HEADER_LEN..].to_vec();
                    self.l3_input(ns, Some(bridge_id), ip_bytes, meta, ctx, depth);
                }
                _ => {}
            }
        }
    }

    fn arp_input(&mut self, ns: NsId, iface_id: IfaceId, pkt: &Packet, ctx: &mut Ctx, depth: u32) {
        let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
            return;
        };
        let Ok(arp) = ArpPacket::new_checked(eth.payload()) else {
            self.trace.rx_malformed_arp += 1;
            return;
        };
        let sender_ip = arp.sender_ip();
        let sender_mac = arp.sender_mac();

        // Learn/refresh the sender and flush any parked packets.
        let pending = {
            let nsr = &mut self.namespaces[ns.0 as usize];
            match nsr
                .neigh
                .insert(sender_ip, NeighState::Reachable(sender_mac))
            {
                Some(NeighState::Incomplete { pending }) => pending,
                _ => Vec::new(),
            }
        };
        for (out_iface, parked) in pending {
            self.finish_tx_ip(out_iface, sender_ip, parked, ctx, depth + 1);
        }

        if arp.op() == ArpOp::Request {
            let target = arp.target_ip();
            let owned = self.namespaces[ns.0 as usize]
                .ifaces
                .iter()
                .any(|&i| self.ifaces[i.0 as usize].has_addr(target));
            if owned {
                let my_mac = self.ifaces[iface_id.0 as usize].mac;
                let mut reply = Packet::zeroed(ETHERNET_HEADER_LEN + ARP_LEN);
                {
                    let buf = reply.data_mut();
                    let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
                    e.set_dst(sender_mac);
                    e.set_src(my_mac);
                    e.set_ethertype(EtherType::Arp);
                    let mut a = ArpPacket::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
                    a.init();
                    a.set_op(ArpOp::Reply);
                    a.set_sender_mac(my_mac);
                    a.set_sender_ip(target);
                    a.set_target_mac(sender_mac);
                    a.set_target_ip(sender_ip);
                }
                self.trace.arp_replies += 1;
                self.tx_frame(iface_id, reply, ctx, depth + 1);
            }
        }
    }

    /// L3 input processing for a complete IPv4 packet.
    fn l3_input(
        &mut self,
        ns: NsId,
        in_iface: Option<IfaceId>,
        mut ip_bytes: Vec<u8>,
        mut meta: PacketMeta,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        if depth > MAX_DEPTH {
            self.trace.loop_drops += 1;
            return;
        }
        ctx.charge(self.costs.ip_processing_ns);
        let Ok(ip) = Ipv4Packet::new_checked(&ip_bytes[..]) else {
            self.trace.rx_bad_ip += 1;
            return;
        };
        if !ip.verify_checksum() {
            self.trace.rx_csum_errors += 1;
            return;
        }
        let tuple = extract_tuple(&ip_bytes);
        let (dst, proto) = (ip.dst(), u8::from(ip.protocol()));

        // mangle/PREROUTING: marks + zones.
        let mut effects = ChainEffects::default();
        let mut nfp = NfPacket {
            in_iface,
            out_iface: None,
            src: tuple.src,
            dst: tuple.dst,
            proto,
            sport: tuple.sport,
            dport: tuple.dport,
            fwmark: meta.fwmark,
            ct_state: CtState::New,
        };
        ctx.charge(self.costs.netfilter_hook_ns);
        let verdict = {
            let nsr = &mut self.namespaces[ns.0 as usize];
            nsr.netfilter
                .run(NfTable::Mangle, Chain::Prerouting, &nfp, &mut effects)
        };
        ctx.charge(self.costs.netfilter_rule_ns * effects.rules_evaluated as u64);
        if verdict == Verdict::Drop {
            return;
        }
        if let Some(m) = effects.set_mark {
            meta.fwmark = m;
            nfp.fwmark = m;
        }
        if let Some(z) = effects.set_zone {
            meta.ct_zone = z;
        }
        let zone = meta.ct_zone;

        // Conntrack.
        ctx.charge(self.costs.conntrack_lookup_ns);
        let (conn, dir, fresh) = {
            let nsr = &mut self.namespaces[ns.0 as usize];
            match nsr.conntrack.find(zone, &tuple) {
                Some((id, d)) => (id, d, false),
                None => {
                    ctx.charge(self.costs.conntrack_new_ns);
                    (
                        nsr.conntrack.begin(zone, tuple),
                        CtDirection::Original,
                        true,
                    )
                }
            }
        };
        // Record the packet at conntrack time (kernel semantics): the
        // first reply-direction packet itself already matches ESTABLISHED
        // in later chains.
        self.namespaces[ns.0 as usize]
            .conntrack
            .note_packet(conn, dir);
        nfp.ct_state = self.namespaces[ns.0 as usize].conntrack.state(conn);

        // nat/PREROUTING (DNAT) for new original-direction flows.
        if fresh {
            let mut fx = ChainEffects::default();
            ctx.charge(self.costs.netfilter_hook_ns);
            let v = {
                let nsr = &mut self.namespaces[ns.0 as usize];
                nsr.netfilter
                    .run(NfTable::Nat, Chain::Prerouting, &nfp, &mut fx)
            };
            ctx.charge(self.costs.netfilter_rule_ns * fx.rules_evaluated as u64);
            match v {
                Verdict::Drop => return,
                Verdict::Dnat { to, port } => {
                    self.namespaces[ns.0 as usize]
                        .conntrack
                        .set_dnat(conn, to, port);
                }
                _ => {}
            }
        }

        // Apply the connection's rewrite for this direction (NAT).
        let want = self.namespaces[ns.0 as usize].conntrack.rewrite(conn, dir);
        if want != tuple {
            ctx.charge(self.costs.l4_processing_ns);
            rewrite_packet(&mut ip_bytes, &want);
            nfp.src = want.src;
            nfp.dst = want.dst;
            nfp.sport = want.sport;
            nfp.dport = want.dport;
        }
        let dst = if want != tuple { want.dst } else { dst };

        // Routing decision: local or forward?
        let local = self.addr_is_local(ns, dst) || dst == Ipv4Addr::BROADCAST;
        if local {
            // filter/INPUT
            let mut fx = ChainEffects::default();
            ctx.charge(self.costs.netfilter_hook_ns);
            let v = {
                let nsr = &mut self.namespaces[ns.0 as usize];
                nsr.netfilter
                    .run(NfTable::Filter, Chain::Input, &nfp, &mut fx)
            };
            ctx.charge(self.costs.netfilter_rule_ns * fx.rules_evaluated as u64);
            if v == Verdict::Drop {
                return;
            }
            self.namespaces[ns.0 as usize].conntrack.confirm(conn);

            // ESP addressed to us? Decapsulate and recirculate.
            if proto == 50 {
                let spi = esp_spi(&ip_bytes);
                let knows = spi
                    .map(|s| self.namespaces[ns.0 as usize].xfrm.knows_spi(s))
                    .unwrap_or(false);
                if knows {
                    let mut cost = Cost::ZERO;
                    let res = {
                        let nsr = &mut self.namespaces[ns.0 as usize];
                        nsr.xfrm.input(&ip_bytes, &self.costs, &mut cost)
                    };
                    ctx.cost += cost;
                    match res {
                        Ok(inner) => {
                            self.trace.xfrm_decap += 1;
                            let mut inner_meta = meta.clone();
                            inner_meta.fwmark = meta.fwmark;
                            self.l3_input(ns, in_iface, inner, inner_meta, ctx, depth + 1);
                        }
                        Err(_) => self.trace.xfrm_decap_errors += 1,
                    }
                    return;
                }
            }

            self.local_deliver(ns, ip_bytes, meta, ctx, depth);
            return;
        }

        // Forward path.
        if !self.namespaces[ns.0 as usize].ip_forward {
            self.trace.rx_not_for_us += 1;
            return;
        }
        // TTL.
        {
            let mut ipm = Ipv4Packet::new_unchecked(&mut ip_bytes[..]);
            if ipm.decrement_ttl() == 0 {
                self.trace.ttl_expired += 1;
                return;
            }
            ipm.fill_checksum();
        }

        // Route lookup (policy aware).
        ctx.charge(self.costs.ip_rule_ns + self.costs.route_lookup_ns);
        let Some((out_dev, next_hop)) = self.route_lookup(ns, dst, meta.fwmark) else {
            self.trace.no_route += 1;
            return;
        };
        nfp.out_iface = Some(out_dev);

        // filter/FORWARD.
        let mut fx = ChainEffects::default();
        ctx.charge(self.costs.netfilter_hook_ns);
        let v = {
            let nsr = &mut self.namespaces[ns.0 as usize];
            nsr.netfilter
                .run(NfTable::Filter, Chain::Forward, &nfp, &mut fx)
        };
        ctx.charge(self.costs.netfilter_rule_ns * fx.rules_evaluated as u64);
        if v == Verdict::Drop {
            return;
        }

        // nat/POSTROUTING (SNAT/MASQUERADE) for new flows.
        if fresh {
            let mut fx = ChainEffects::default();
            ctx.charge(self.costs.netfilter_hook_ns);
            let v = {
                let nsr = &mut self.namespaces[ns.0 as usize];
                nsr.netfilter
                    .run(NfTable::Nat, Chain::Postrouting, &nfp, &mut fx)
            };
            ctx.charge(self.costs.netfilter_rule_ns * fx.rules_evaluated as u64);
            match v {
                Verdict::Drop => return,
                Verdict::Snat { to, port } => {
                    let nsr = &mut self.namespaces[ns.0 as usize];
                    nsr.conntrack.set_snat(conn, to, port);
                }
                Verdict::Masquerade => {
                    let masq_ip = self.ifaces[out_dev.0 as usize].primary_addr();
                    if let Some(ip) = masq_ip {
                        let nsr = &mut self.namespaces[ns.0 as usize];
                        nsr.conntrack.set_snat(conn, ip, None);
                    }
                }
                _ => {}
            }
            // Apply any SNAT decided just now.
            let cur = extract_tuple(&ip_bytes);
            let want = self.namespaces[ns.0 as usize].conntrack.rewrite(conn, dir);
            if want != cur {
                ctx.charge(self.costs.l4_processing_ns);
                rewrite_packet(&mut ip_bytes, &want);
            }
        }
        {
            let nsr = &mut self.namespaces[ns.0 as usize];
            nsr.conntrack.confirm(conn);
            nsr.forwarded += 1;
        }

        self.xfrm_out_and_tx(ns, out_dev, next_hop, ip_bytes, meta, ctx, depth);
    }

    /// XFRM output check, then transmit (shared by forward & local-out).
    #[allow(clippy::too_many_arguments)]
    fn xfrm_out_and_tx(
        &mut self,
        ns: NsId,
        out_dev: IfaceId,
        next_hop: Ipv4Addr,
        ip_bytes: Vec<u8>,
        meta: PacketMeta,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        let proto = Ipv4Packet::new_checked(&ip_bytes[..])
            .map(|p| u8::from(p.protocol()))
            .unwrap_or(0);
        // Already-ESP traffic is not re-matched (standard loop avoidance).
        if proto != 50 {
            let mut cost = Cost::ZERO;
            let out = {
                let nsr = &mut self.namespaces[ns.0 as usize];
                nsr.xfrm.output(&ip_bytes, &self.costs, &mut cost)
            };
            ctx.cost += cost;
            match out {
                XfrmOutput::Pass => {}
                XfrmOutput::Discard | XfrmOutput::Error(_) => {
                    self.trace.xfrm_out_discard += 1;
                    return;
                }
                XfrmOutput::Encapsulated(outer) => {
                    self.trace.xfrm_encap += 1;
                    // Re-route the outer packet (tunnel endpoint may use a
                    // different egress than the inner destination).
                    let outer_dst = Ipv4Packet::new_checked(&outer[..])
                        .map(|p| p.dst())
                        .unwrap_or(Ipv4Addr::UNSPECIFIED);
                    ctx.charge(self.costs.route_lookup_ns);
                    let Some((dev2, nh2)) = self.route_lookup(ns, outer_dst, meta.fwmark) else {
                        self.trace.no_route += 1;
                        return;
                    };
                    self.ip_output(ns, dev2, nh2, outer, meta, ctx, depth);
                    return;
                }
            }
        }
        self.ip_output(ns, out_dev, next_hop, ip_bytes, meta, ctx, depth);
    }

    /// Locally generated traffic: route → filter/OUTPUT → NAT → XFRM → tx.
    fn local_output(
        &mut self,
        ns: NsId,
        ip_bytes: Vec<u8>,
        meta: PacketMeta,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        let Ok(ip) = Ipv4Packet::new_checked(&ip_bytes[..]) else {
            return;
        };
        let dst = ip.dst();
        // Loopback delivery.
        if self.addr_is_local(ns, dst) {
            self.local_deliver(ns, ip_bytes, meta, ctx, depth + 1);
            return;
        }
        ctx.charge(self.costs.ip_rule_ns + self.costs.route_lookup_ns);
        let Some((out_dev, next_hop)) = self.route_lookup(ns, dst, meta.fwmark) else {
            self.trace.no_route += 1;
            return;
        };

        let tuple = extract_tuple(&ip_bytes);
        let nfp = NfPacket {
            in_iface: None,
            out_iface: Some(out_dev),
            src: tuple.src,
            dst: tuple.dst,
            proto: tuple.proto,
            sport: tuple.sport,
            dport: tuple.dport,
            fwmark: meta.fwmark,
            ct_state: CtState::New,
        };
        let mut fx = ChainEffects::default();
        ctx.charge(self.costs.netfilter_hook_ns);
        let v = {
            let nsr = &mut self.namespaces[ns.0 as usize];
            nsr.netfilter
                .run(NfTable::Filter, Chain::Output, &nfp, &mut fx)
        };
        ctx.charge(self.costs.netfilter_rule_ns * fx.rules_evaluated as u64);
        if v == Verdict::Drop {
            return;
        }

        self.xfrm_out_and_tx(ns, out_dev, next_hop, ip_bytes, meta, ctx, depth);
    }

    /// Deliver an IP packet to local consumers (sockets, ICMP).
    fn local_deliver(
        &mut self,
        ns: NsId,
        ip_bytes: Vec<u8>,
        meta: PacketMeta,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        let Ok(ip) = Ipv4Packet::new_checked(&ip_bytes[..]) else {
            return;
        };
        ctx.charge(self.costs.l4_processing_ns);
        match ip.protocol() {
            IpProtocol::Udp => {
                if let Ok(udp) = UdpDatagram::new_checked(ip.payload()) {
                    if let Some(sock) = self.sockets.demux(ns, ip.dst(), udp.dst_port()) {
                        self.sockets.deliver(
                            sock,
                            Datagram {
                                src: ip.src(),
                                sport: udp.src_port(),
                                dst: ip.dst(),
                                dport: udp.dst_port(),
                                payload: udp.payload().to_vec(),
                            },
                        );
                        self.trace.udp_delivered += 1;
                    } else {
                        self.trace.udp_no_socket += 1;
                    }
                }
            }
            IpProtocol::Icmp => {
                let Ok(icmp) = IcmpMessage::new_checked(ip.payload()) else {
                    return;
                };
                if icmp.kind() == IcmpKind::EchoRequest {
                    self.trace.icmp_echo_requests += 1;
                    let reply = build_echo_reply(&ip_bytes);
                    self.local_output(ns, reply, meta, ctx, depth + 1);
                } else {
                    self.trace.icmp_other += 1;
                }
            }
            _ => {
                self.trace.rx_unhandled_proto += 1;
            }
        }
    }

    /// Frame an IP packet and transmit toward `next_hop` on `out_dev`.
    #[allow(clippy::too_many_arguments)]
    fn ip_output(
        &mut self,
        ns: NsId,
        out_dev: IfaceId,
        next_hop: Ipv4Addr,
        ip_bytes: Vec<u8>,
        meta: PacketMeta,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        let mut pkt = Packet::from_slice(&ip_bytes);
        pkt.meta = meta;
        // Loopback?
        if matches!(self.ifaces[out_dev.0 as usize].kind, IfaceKind::Loopback) {
            let m = pkt.meta.clone();
            self.l3_input(ns, Some(out_dev), ip_bytes, m, ctx, depth + 1);
            return;
        }
        self.finish_tx_ip(out_dev, next_hop, pkt, ctx, depth);
    }

    /// Neighbor-resolve and emit an IP packet (possibly parking it on an
    /// incomplete ARP entry).
    fn finish_tx_ip(
        &mut self,
        out_dev: IfaceId,
        next_hop: Ipv4Addr,
        ip_pkt: Packet,
        ctx: &mut Ctx,
        depth: u32,
    ) {
        let (ns, my_mac) = {
            let i = &self.ifaces[out_dev.0 as usize];
            (i.ns, i.mac)
        };

        let dst_mac = if next_hop == Ipv4Addr::BROADCAST {
            Some(MacAddr::BROADCAST)
        } else {
            match self.namespaces[ns.0 as usize].neigh.get(&next_hop) {
                Some(NeighState::Reachable(m)) => Some(*m),
                _ => None,
            }
        };

        match dst_mac {
            Some(mac) => {
                let mut frame = Packet::zeroed(ETHERNET_HEADER_LEN + ip_pkt.len());
                {
                    let buf = frame.data_mut();
                    let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
                    e.set_dst(mac);
                    e.set_src(my_mac);
                    e.set_ethertype(EtherType::Ipv4);
                    buf[ETHERNET_HEADER_LEN..].copy_from_slice(ip_pkt.data());
                }
                frame.meta = ip_pkt.meta.clone();
                self.tx_frame(out_dev, frame, ctx, depth + 1);
            }
            None => {
                // Park the packet and fire an ARP request.
                let needs_request = {
                    let nsr = &mut self.namespaces[ns.0 as usize];
                    match nsr.neigh.get_mut(&next_hop) {
                        Some(NeighState::Incomplete { pending }) => {
                            if pending.len() < NEIGH_QUEUE_MAX {
                                pending.push((out_dev, ip_pkt));
                            } else {
                                self.trace.neigh_queue_drops += 1;
                            }
                            false
                        }
                        _ => {
                            nsr.neigh.insert(
                                next_hop,
                                NeighState::Incomplete {
                                    pending: vec![(out_dev, ip_pkt)],
                                },
                            );
                            true
                        }
                    }
                };
                if needs_request {
                    let sender_ip = self.ifaces[out_dev.0 as usize]
                        .primary_addr()
                        .unwrap_or(Ipv4Addr::UNSPECIFIED);
                    let mut req = Packet::zeroed(ETHERNET_HEADER_LEN + ARP_LEN);
                    {
                        let buf = req.data_mut();
                        let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
                        e.set_dst(MacAddr::BROADCAST);
                        e.set_src(my_mac);
                        e.set_ethertype(EtherType::Arp);
                        let mut a = ArpPacket::new_unchecked(&mut buf[ETHERNET_HEADER_LEN..]);
                        a.init();
                        a.set_op(ArpOp::Request);
                        a.set_sender_mac(my_mac);
                        a.set_sender_ip(sender_ip);
                        a.set_target_mac(MacAddr::ZERO);
                        a.set_target_ip(next_hop);
                    }
                    self.trace.arp_requests += 1;
                    self.tx_frame(out_dev, req, ctx, depth + 1);
                }
            }
        }
    }

    /// Emit a frame on an interface (kind-specific delivery).
    fn tx_frame(&mut self, iface_id: IfaceId, pkt: Packet, ctx: &mut Ctx, depth: u32) {
        if depth > MAX_DEPTH {
            self.trace.loop_drops += 1;
            return;
        }
        let iface = &mut self.ifaces[iface_id.0 as usize];
        if !iface.up {
            self.trace.tx_down_iface += 1;
            return;
        }
        iface.tx_packets += 1;
        iface.tx_bytes += pkt.len() as u64;
        let ns = iface.ns;
        match &iface.kind {
            &IfaceKind::Veth { peer } => {
                ctx.charge(self.costs.veth_crossing_ns);
                self.rx_frame(peer, pkt, ctx, depth + 1);
            }
            &IfaceKind::External { tag } => {
                ctx.charge(self.costs.tap_ns);
                ctx.emitted.push((tag, pkt));
            }
            &IfaceKind::VlanSub { parent, vid } => {
                ctx.charge(self.costs.vlan_op_ns);
                let mut tagged = pkt;
                let _ = tagged.vlan_push(vid);
                self.tx_frame(parent, tagged, ctx, depth + 1);
            }
            IfaceKind::Bridge { members, fdb } => {
                // Egress via the bridge: consult the FDB.
                ctx.charge(self.costs.bridge_fdb_ns);
                let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
                    return;
                };
                let dst = eth.dst();
                if let Some(&out) = fdb.get(&dst) {
                    self.tx_frame(out, pkt, ctx, depth + 1);
                } else {
                    for m in members.clone() {
                        self.tx_frame(m, pkt.clone(), ctx, depth + 1);
                    }
                }
            }
            IfaceKind::Loopback => {
                if let Ok(eth) = EthernetFrame::new_checked(pkt.data()) {
                    if eth.ethertype() == EtherType::Ipv4 {
                        let meta = pkt.meta.clone();
                        let ip_bytes = pkt.data()[ETHERNET_HEADER_LEN..].to_vec();
                        self.l3_input(ns, Some(iface_id), ip_bytes, meta, ctx, depth + 1);
                    }
                }
            }
        }
    }

    fn addr_is_local(&self, ns: NsId, ip: Ipv4Addr) -> bool {
        self.namespaces[ns.0 as usize]
            .ifaces
            .iter()
            .any(|&i| self.ifaces[i.0 as usize].has_addr(ip))
    }

    fn route_lookup(&self, ns: NsId, dst: Ipv4Addr, fwmark: u32) -> Option<(IfaceId, Ipv4Addr)> {
        let r = self.namespaces[ns.0 as usize].routing.lookup(dst, fwmark)?;
        Some((r.dev, r.via.unwrap_or(dst)))
    }
}

/// Extract the conntrack tuple from an IPv4 packet.
fn extract_tuple(ip_bytes: &[u8]) -> FlowTuple {
    let ip = Ipv4Packet::new_unchecked(ip_bytes);
    let proto = u8::from(ip.protocol());
    let (sport, dport) = match ip.protocol() {
        IpProtocol::Udp => match UdpDatagram::new_checked(ip.payload()) {
            Ok(u) => (u.src_port(), u.dst_port()),
            Err(_) => (0, 0),
        },
        IpProtocol::Tcp => match TcpSegment::new_checked(ip.payload()) {
            Ok(t) => (t.src_port(), t.dst_port()),
            Err(_) => (0, 0),
        },
        _ => (0, 0),
    };
    FlowTuple {
        src: ip.src(),
        dst: ip.dst(),
        proto,
        sport,
        dport,
    }
}

/// Rewrite an IP packet's addresses/ports to `want`, fixing checksums.
fn rewrite_packet(ip_bytes: &mut [u8], want: &FlowTuple) {
    {
        let mut ip = Ipv4Packet::new_unchecked(&mut ip_bytes[..]);
        ip.set_src(want.src);
        ip.set_dst(want.dst);
        ip.fill_checksum();
    }
    let proto = {
        let ip = Ipv4Packet::new_unchecked(&ip_bytes[..]);
        ip.protocol()
    };
    let hl = Ipv4Packet::new_unchecked(&ip_bytes[..]).header_len();
    match proto {
        IpProtocol::Udp => {
            let (src, dst) = {
                let ip = Ipv4Packet::new_unchecked(&ip_bytes[..]);
                (ip.src(), ip.dst())
            };
            let l4 = &mut ip_bytes[hl..];
            if l4.len() >= 8 {
                let mut u = UdpDatagram::new_unchecked(l4);
                u.set_src_port(want.sport);
                u.set_dst_port(want.dport);
                u.fill_checksum(src, dst);
            }
        }
        IpProtocol::Tcp => {
            let (src, dst) = {
                let ip = Ipv4Packet::new_unchecked(&ip_bytes[..]);
                (ip.src(), ip.dst())
            };
            let l4 = &mut ip_bytes[hl..];
            if l4.len() >= 20 {
                let mut t = TcpSegment::new_unchecked(l4);
                t.set_src_port(want.sport);
                t.set_dst_port(want.dport);
                t.fill_checksum(src, dst);
            }
        }
        _ => {}
    }
}

/// Extract the SPI from an ESP-in-IPv4 packet.
fn esp_spi(ip_bytes: &[u8]) -> Option<u32> {
    let ip = Ipv4Packet::new_checked(ip_bytes).ok()?;
    let p = ip.payload();
    if p.len() < 4 {
        return None;
    }
    Some(u32::from_be_bytes(p[0..4].try_into().unwrap()))
}

/// Build an ICMP echo reply from a request (swaps addresses).
fn build_echo_reply(request_ip: &[u8]) -> Vec<u8> {
    let req = Ipv4Packet::new_unchecked(request_ip);
    let (src, dst) = (req.src(), req.dst());
    let mut out = request_ip.to_vec();
    {
        let mut ip = Ipv4Packet::new_unchecked(&mut out[..]);
        ip.set_src(dst);
        ip.set_dst(src);
        ip.set_ttl(64);
        ip.fill_checksum();
    }
    let hl = Ipv4Packet::new_unchecked(&out[..]).header_len();
    {
        let mut icmp = IcmpMessage::new_unchecked(&mut out[hl..]);
        icmp.set_kind(IcmpKind::EchoReply);
        icmp.fill_checksum();
    }
    out
}

#[cfg(test)]
mod tests;
