//! The simulated Linux host: namespaces, interfaces, and the packet
//! pipeline.
//!
//! Pipeline shape (mirroring the kernel's hook order, simplified):
//!
//! ```text
//! rx_frame ─ bridge? ─ vlan demux? ─ L2 filter ─ l2_input: ARP | IPv4
//! IPv4: mangle/PREROUTING → conntrack (+nat/PREROUTING on new flows)
//!   ├─ local:   filter/INPUT → ESP? xfrm input (recirculate) → sockets/ICMP
//!   └─ forward: TTL → route (policy, fwmark) → filter/FORWARD
//!               → nat/POSTROUTING (new flows) → xfrm output → neighbor → tx_frame
//! local out:    route → filter/OUTPUT → xfrm output → neighbor → tx_frame
//! ```
//!
//! One [`Packet`] carries a frame from [`Host::inject`] to emission, the
//! way a kernel carries one skbuff: `l2_input` strips the Ethernet
//! header into the headroom, NAT, TTL and checksum edits write the
//! bytes in place, metadata rides on `pkt.meta`, and the neighbor step
//! pushes the new Ethernet header back out of the headroom. Each
//! netfilter hook is one `hook` call.
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
use crate::iface::{Fdb, Iface, IfaceId, IfaceKind, NeighState, NEIGH_QUEUE_MAX};
use crate::netfilter::{Chain, ChainEffects, Netfilter, NfPacket, NfTable, Verdict};
use crate::route::{IpRule, Route, RoutingPolicy};
use crate::slots::Slots;
use crate::socket::{Datagram, SocketId, SocketTable};
use crate::types::{ExternalTag, HostError, IoResult, NsId};
use crate::xfrm::{esp_spi, Xfrm, XfrmOutput};

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
        nat_ports_exhausted,
        neigh_queue_drops,
        no_route,
        rx_bad_ip,
        rx_csum_errors,
        rx_down_iface,
        rx_invalid_src_mac,
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

/// One call's pipeline state: the caller's `emitted` vector, which
/// every external emission is pushed onto, and the time charged.
struct Ctx<'a> {
    emitted: &'a mut Vec<(ExternalTag, Packet)>,
    cost: Cost,
}

impl<'a> Ctx<'a> {
    fn new(emitted: &'a mut Vec<(ExternalTag, Packet)>) -> Self {
        Ctx {
            emitted,
            cost: Cost::ZERO,
        }
    }
    fn charge(&mut self, ns: u64) {
        self.cost += Cost::from_nanos(ns);
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
                        fdb.forget_port(id);
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
                fdb: Fdb::default(),
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
        let mut pkt = Packet::zeroed(total);
        {
            let mut ip = Ipv4Packet::new_unchecked(pkt.data_mut());
            ip.init();
            ip.set_total_len(total as u16);
            ip.set_ttl(64);
            ip.set_protocol(IpProtocol::Udp);
            ip.set_src(src);
            ip.set_dst(dst);
            ip.fill_checksum();
            let mut udp = UdpDatagram::new_unchecked(ip.payload_mut());
            udp.set_src_port(sport);
            udp.set_dst_port(dport);
            udp.set_length((8 + payload.len()) as u16);
            udp.payload_mut().copy_from_slice(payload);
            udp.fill_checksum(src, dst);
        }
        self.raw_send(ns, pkt)
    }

    /// Send a raw IPv4 packet from a namespace (raw socket equivalent).
    /// The kernel stamps the packet's metadata afresh.
    pub fn raw_send(&mut self, ns: NsId, mut pkt: Packet) -> Result<IoResult, HostError> {
        self.ns_check(ns)?;
        let mut emitted = Vec::new();
        let mut ctx = Ctx::new(&mut emitted);
        ctx.charge(self.costs.user_kernel_crossing_ns);
        pkt.meta = PacketMeta::at(self.now, 0);
        self.local_output(ns, pkt, &mut ctx, 0);
        let cost = ctx.cost;
        Ok(IoResult { emitted, cost })
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Inject a frame as if it arrived on `iface` from the outside: the
    /// frames emitted on external interfaces and the time charged.
    pub fn inject(&mut self, iface: IfaceId, pkt: Packet) -> IoResult {
        let mut emitted = Vec::new();
        let cost = self.inject_into(iface, pkt, &mut emitted);
        IoResult { emitted, cost }
    }

    /// The data path itself: inject a frame on `iface` and push every
    /// frame it emits on an external interface onto the caller's
    /// `emitted`, in emission order; returns the time charged. A caller
    /// that reuses one vector forwards a warm routed or bridged frame
    /// without allocating.
    pub fn inject_into(
        &mut self,
        iface: IfaceId,
        pkt: Packet,
        emitted: &mut Vec<(ExternalTag, Packet)>,
    ) -> Cost {
        let mut ctx = Ctx::new(emitted);
        if self.iface_check(iface).is_ok() {
            ctx.charge(self.costs.tap_ns);
            self.rx_frame(iface, pkt, &mut ctx, 0);
        }
        ctx.cost
    }

    fn rx_frame(&mut self, iface_id: IfaceId, pkt: Packet, ctx: &mut Ctx<'_>, depth: u32) {
        if depth > MAX_DEPTH {
            self.trace.loop_drops += 1;
            return;
        }
        let (up, mac) = {
            let i = &self.ifaces[iface_id.0 as usize];
            (i.up, i.mac)
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

        let Ok(eth) = pkt.ethernet() else {
            self.trace.rx_malformed += 1;
            return;
        };
        let dst = eth.dst();

        // VLAN demux to sub-interfaces.
        if eth.ethertype() == EtherType::Vlan {
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
        self.l2_input(iface_id, pkt, ctx, depth);
    }

    /// The one upper-layer dispatch of a frame received on `iface_id`:
    /// ARP, or IPv4 with the Ethernet header stripped into the headroom,
    /// the interface's conntrack zone as the default zone and the
    /// interface as the ingress.
    fn l2_input(&mut self, iface_id: IfaceId, mut pkt: Packet, ctx: &mut Ctx<'_>, depth: u32) {
        let (ns, zone) = {
            let i = &self.ifaces[iface_id.0 as usize];
            (i.ns, i.ct_zone)
        };
        match pkt.ethernet().map(|eth| eth.ethertype()) {
            Ok(EtherType::Arp) => self.arp_input(ns, iface_id, &pkt, ctx, depth),
            Ok(EtherType::Ipv4) => {
                if pkt.meta.ct_zone == 0 {
                    pkt.meta.ct_zone = zone;
                }
                pkt.meta.ingress = iface_id.0;
                // Cannot fail: the Ethernet header just parsed.
                let _ = pkt.pull_front(ETHERNET_HEADER_LEN);
                self.l3_input(ns, Some(iface_id), pkt, ctx, depth);
            }
            _ => self.trace.rx_unknown_ethertype += 1,
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
        ctx: &mut Ctx<'_>,
        depth: u32,
    ) {
        ctx.charge(self.costs.bridge_fdb_ns);
        let Ok(eth) = pkt.ethernet() else {
            self.trace.rx_malformed += 1;
            return;
        };
        let (src, dst) = (eth.src(), eth.dst());
        // Linux's `br_handle_frame` drops a frame whose source is not a
        // valid station address (`!is_valid_ether_addr`): multicast,
        // broadcast or all-zero. It is neither learned nor forwarded.
        if src.is_multicast() || src == MacAddr::ZERO {
            self.trace.rx_invalid_src_mac += 1;
            return;
        }
        let bridge_mac = self.ifaces[bridge_id.0 as usize].mac;

        // Learn + decide with one mutable borrow of the FDB.
        let (flood, to_local) = {
            let IfaceKind::Bridge { fdb, .. } = &mut self.ifaces[bridge_id.0 as usize].kind else {
                return;
            };
            fdb.learn(src, member);
            if dst == bridge_mac {
                (false, true)
            } else if dst.is_broadcast() || dst.is_multicast() {
                (true, true)
            } else if let Some(out) = fdb.lookup(dst) {
                // Known unicast: the frame moves to its one target.
                if out != member {
                    self.tx_frame(out, pkt, ctx, depth + 1);
                }
                return;
            } else {
                (true, false)
            }
        };
        let local = if flood {
            self.bridge_flood(bridge_id, Some(member), pkt, to_local, ctx, depth)
        } else {
            Some(pkt)
        };
        if let Some(pkt) = local {
            // Deliver up the stack via the bridge interface itself.
            self.l2_input(bridge_id, pkt, ctx, depth);
        }
    }

    /// Flood `pkt` out of every member of `bridge` but `except`, in
    /// member order, walking the member list in place. Every target but
    /// the last gets a copy and the last takes the frame itself — unless
    /// `keep`, when every target gets a copy and the frame comes back.
    fn bridge_flood(
        &mut self,
        bridge: IfaceId,
        except: Option<IfaceId>,
        pkt: Packet,
        keep: bool,
        ctx: &mut Ctx<'_>,
        depth: u32,
    ) -> Option<Packet> {
        let mut next = self.flood_target(bridge, except, 0);
        while let Some((at, out)) = next {
            next = self.flood_target(bridge, except, at + 1);
            if next.is_none() && !keep {
                self.tx_frame(out, pkt, ctx, depth + 1);
                return None;
            }
            self.tx_frame(out, pkt.clone(), ctx, depth + 1);
        }
        keep.then_some(pkt)
    }

    /// The first member of `bridge` from position `from` on that is not
    /// `except`, with its position.
    fn flood_target(
        &self,
        bridge: IfaceId,
        except: Option<IfaceId>,
        from: usize,
    ) -> Option<(usize, IfaceId)> {
        let IfaceKind::Bridge { members, .. } = &self.ifaces[bridge.0 as usize].kind else {
            return None;
        };
        let mut rest = members.iter().copied().enumerate().skip(from);
        rest.find(|&(_, m)| Some(m) != except)
    }

    fn arp_input(
        &mut self,
        ns: NsId,
        iface_id: IfaceId,
        pkt: &Packet,
        ctx: &mut Ctx<'_>,
        depth: u32,
    ) {
        let Ok(eth) = pkt.ethernet() else {
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
            if self.addr_is_local(ns, target) {
                let my_mac = self.ifaces[iface_id.0 as usize].mac;
                let reply = arp_frame(
                    ArpOp::Reply,
                    sender_mac,
                    (my_mac, target),
                    (sender_mac, sender_ip),
                );
                self.trace.arp_replies += 1;
                self.tx_frame(iface_id, reply, ctx, depth + 1);
            }
        }
    }

    /// Run one netfilter hook of `ns` over `nfp`, charging the hook and
    /// every rule it evaluated.
    fn hook(
        &mut self,
        ns: NsId,
        table: NfTable,
        chain: Chain,
        nfp: &NfPacket,
        ctx: &mut Ctx<'_>,
    ) -> (Verdict, ChainEffects) {
        let (verdict, effects) = self.namespaces[ns.0 as usize]
            .netfilter
            .run(table, chain, nfp);
        ctx.charge(
            self.costs.netfilter_hook_ns
                + self.costs.netfilter_rule_ns * u64::from(effects.rules_evaluated),
        );
        (verdict, effects)
    }

    /// L3 input processing for a complete IPv4 packet.
    fn l3_input(
        &mut self,
        ns: NsId,
        in_iface: Option<IfaceId>,
        mut pkt: Packet,
        ctx: &mut Ctx<'_>,
        depth: u32,
    ) {
        if depth > MAX_DEPTH {
            self.trace.loop_drops += 1;
            return;
        }
        ctx.charge(self.costs.ip_processing_ns);
        let Ok(ip) = Ipv4Packet::new_checked(pkt.data()) else {
            self.trace.rx_bad_ip += 1;
            return;
        };
        if !ip.verify_checksum() {
            self.trace.rx_csum_errors += 1;
            return;
        }
        let tuple = extract_tuple(pkt.data());

        // mangle/PREROUTING: marks.
        let mut nfp = nf_view(&tuple, in_iface, None, pkt.meta.fwmark);
        let (verdict, effects) = self.hook(ns, NfTable::Mangle, Chain::Prerouting, &nfp, ctx);
        if verdict == Verdict::Drop {
            return;
        }
        if let Some(m) = effects.set_mark {
            pkt.meta.fwmark = m;
            nfp.fwmark = m;
        }
        let zone = pkt.meta.ct_zone;

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
        'tracked: {
            // Record the packet at conntrack time (kernel semantics): the
            // first reply-direction packet itself already matches ESTABLISHED
            // in later chains.
            self.namespaces[ns.0 as usize]
                .conntrack
                .note_packet(conn, dir);
            nfp.ct_state = self.namespaces[ns.0 as usize].conntrack.state(conn);

            // nat/PREROUTING (DNAT) for new original-direction flows.
            if fresh {
                match self.hook(ns, NfTable::Nat, Chain::Prerouting, &nfp, ctx).0 {
                    Verdict::Drop => break 'tracked,
                    Verdict::Dnat { to, port } => {
                        self.namespaces[ns.0 as usize]
                            .conntrack
                            .set_dnat(conn, to, port);
                    }
                    _ => {}
                }
            }

            // Apply the connection's rewrite for this direction (NAT).
            let ct = &self.namespaces[ns.0 as usize].conntrack;
            let want = ct.rewrite(conn, dir);
            nfp.ct_dnat = ct.is_dnat(conn);
            if want != tuple {
                ctx.charge(self.costs.l4_processing_ns);
                rewrite_packet(pkt.data_mut(), &want);
            }
            (nfp.src, nfp.dst, nfp.sport, nfp.dport) = (want.src, want.dst, want.sport, want.dport);
            let dst = want.dst;

            // Routing decision: local or forward?
            if self.addr_is_local(ns, dst) || dst == Ipv4Addr::BROADCAST {
                if self.hook(ns, NfTable::Filter, Chain::Input, &nfp, ctx).0 == Verdict::Drop {
                    break 'tracked;
                }
                self.namespaces[ns.0 as usize].conntrack.confirm(conn);

                // ESP addressed to us? Decapsulate and recirculate.
                let spi = Ipv4Packet::new_checked(pkt.data())
                    .ok()
                    .filter(|ip| ip.protocol() == IpProtocol::Esp)
                    .and_then(|ip| esp_spi(ip.payload()));
                let nsr = &mut self.namespaces[ns.0 as usize];
                if spi.is_some_and(|s| nsr.xfrm.knows_spi(s)) {
                    match nsr.xfrm.input(pkt.data(), &self.costs, &mut ctx.cost) {
                        Ok(mut inner) => {
                            self.trace.xfrm_decap += 1;
                            inner.meta = pkt.meta;
                            self.l3_input(ns, in_iface, inner, ctx, depth + 1);
                        }
                        Err(_) => self.trace.xfrm_decap_errors += 1,
                    }
                    break 'tracked;
                }

                self.local_deliver(ns, pkt, ctx, depth);
                break 'tracked;
            }

            // Forward path.
            if !self.namespaces[ns.0 as usize].ip_forward {
                self.trace.rx_not_for_us += 1;
                break 'tracked;
            }
            // TTL.
            {
                let mut ipm = Ipv4Packet::new_unchecked(pkt.data_mut());
                if ipm.decrement_ttl() == 0 {
                    self.trace.ttl_expired += 1;
                    break 'tracked;
                }
                ipm.fill_checksum();
            }

            // Route lookup (policy aware).
            ctx.charge(self.costs.ip_rule_ns + self.costs.route_lookup_ns);
            let Some((out_dev, next_hop)) = self.route_lookup(ns, dst, pkt.meta.fwmark) else {
                self.trace.no_route += 1;
                break 'tracked;
            };
            nfp.out_iface = Some(out_dev);

            if self.hook(ns, NfTable::Filter, Chain::Forward, &nfp, ctx).0 == Verdict::Drop {
                break 'tracked;
            }

            // nat/POSTROUTING (MASQUERADE) for new flows.
            if fresh {
                let snat = match self.hook(ns, NfTable::Nat, Chain::Postrouting, &nfp, ctx).0 {
                    Verdict::Drop => break 'tracked,
                    Verdict::Masquerade => self.ifaces[out_dev.0 as usize].primary_addr(),
                    _ => None,
                };
                let ct = &mut self.namespaces[ns.0 as usize].conntrack;
                if let Some(to) = snat {
                    if ct.set_snat(conn, to, None).is_none() {
                        self.trace.nat_ports_exhausted += 1;
                        break 'tracked;
                    }
                }
                // Apply any SNAT decided just now.
                let want = ct.rewrite(conn, dir);
                if want != extract_tuple(pkt.data()) {
                    ctx.charge(self.costs.l4_processing_ns);
                    rewrite_packet(pkt.data_mut(), &want);
                }
            }
            {
                let nsr = &mut self.namespaces[ns.0 as usize];
                nsr.conntrack.confirm(conn);
                nsr.forwarded += 1;
            }

            self.xfrm_out_and_tx(ns, out_dev, next_hop, pkt, ctx, depth);
        }
        // A frame that died before its connection was confirmed takes
        // the connection, and any NAT port it reserved, with it.
        if fresh {
            self.namespaces[ns.0 as usize].conntrack.abort(conn);
        }
    }

    /// XFRM output check, then transmit (shared by forward & local-out).
    fn xfrm_out_and_tx(
        &mut self,
        ns: NsId,
        out_dev: IfaceId,
        next_hop: Ipv4Addr,
        pkt: Packet,
        ctx: &mut Ctx<'_>,
        depth: u32,
    ) {
        // Already-ESP traffic is not re-matched (standard loop avoidance).
        let esp =
            Ipv4Packet::new_checked(pkt.data()).is_ok_and(|p| p.protocol() == IpProtocol::Esp);
        let out = if esp {
            XfrmOutput::Pass
        } else {
            self.namespaces[ns.0 as usize]
                .xfrm
                .output(pkt.data(), &self.costs, &mut ctx.cost)
        };
        match out {
            XfrmOutput::Pass => self.ip_output(ns, out_dev, next_hop, pkt, ctx, depth),
            XfrmOutput::Discard | XfrmOutput::Error(_) => self.trace.xfrm_out_discard += 1,
            XfrmOutput::Encapsulated(mut outer) => {
                self.trace.xfrm_encap += 1;
                outer.meta = pkt.meta;
                // Re-route the outer packet (tunnel endpoint may use a
                // different egress than the inner destination).
                let outer_dst = Ipv4Packet::new_checked(outer.data())
                    .map(|p| p.dst())
                    .unwrap_or(Ipv4Addr::UNSPECIFIED);
                ctx.charge(self.costs.route_lookup_ns);
                let Some((dev, nh)) = self.route_lookup(ns, outer_dst, outer.meta.fwmark) else {
                    self.trace.no_route += 1;
                    return;
                };
                self.ip_output(ns, dev, nh, outer, ctx, depth);
            }
        }
    }

    /// Locally generated traffic: route → filter/OUTPUT → XFRM → tx.
    fn local_output(&mut self, ns: NsId, pkt: Packet, ctx: &mut Ctx<'_>, depth: u32) {
        let Ok(ip) = Ipv4Packet::new_checked(pkt.data()) else {
            return;
        };
        let dst = ip.dst();
        // Loopback delivery.
        if self.addr_is_local(ns, dst) {
            self.local_deliver(ns, pkt, ctx, depth + 1);
            return;
        }
        ctx.charge(self.costs.ip_rule_ns + self.costs.route_lookup_ns);
        let Some((out_dev, next_hop)) = self.route_lookup(ns, dst, pkt.meta.fwmark) else {
            self.trace.no_route += 1;
            return;
        };

        let nfp = nf_view(
            &extract_tuple(pkt.data()),
            None,
            Some(out_dev),
            pkt.meta.fwmark,
        );
        if self.hook(ns, NfTable::Filter, Chain::Output, &nfp, ctx).0 == Verdict::Drop {
            return;
        }

        self.xfrm_out_and_tx(ns, out_dev, next_hop, pkt, ctx, depth);
    }

    /// Deliver an IP packet to local consumers (sockets, ICMP).
    fn local_deliver(&mut self, ns: NsId, mut pkt: Packet, ctx: &mut Ctx<'_>, depth: u32) {
        let Ok(ip) = Ipv4Packet::new_checked(pkt.data()) else {
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
                    echo_reply(pkt.data_mut());
                    self.local_output(ns, pkt, ctx, depth + 1);
                } else {
                    self.trace.icmp_other += 1;
                }
            }
            _ => {
                self.trace.rx_unhandled_proto += 1;
            }
        }
    }

    /// Transmit an IP packet toward `next_hop` on `out_dev` (looped
    /// back up the stack if `out_dev` is a loopback).
    fn ip_output(
        &mut self,
        ns: NsId,
        out_dev: IfaceId,
        next_hop: Ipv4Addr,
        pkt: Packet,
        ctx: &mut Ctx<'_>,
        depth: u32,
    ) {
        if matches!(self.ifaces[out_dev.0 as usize].kind, IfaceKind::Loopback) {
            self.l3_input(ns, Some(out_dev), pkt, ctx, depth + 1);
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
        mut pkt: Packet,
        ctx: &mut Ctx<'_>,
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

        if let Some(mac) = dst_mac {
            pkt.push_front(&eth_header(mac, my_mac, EtherType::Ipv4));
            self.tx_frame(out_dev, pkt, ctx, depth + 1);
            return;
        }
        // Park the packet and fire an ARP request.
        let neigh = &mut self.namespaces[ns.0 as usize].neigh;
        match neigh.get_mut(&next_hop) {
            Some(NeighState::Incomplete { pending }) => {
                if pending.len() < NEIGH_QUEUE_MAX {
                    pending.push((out_dev, pkt));
                } else {
                    self.trace.neigh_queue_drops += 1;
                }
            }
            _ => {
                neigh.insert(
                    next_hop,
                    NeighState::Incomplete {
                        pending: vec![(out_dev, pkt)],
                    },
                );
                let sender_ip = self.ifaces[out_dev.0 as usize]
                    .primary_addr()
                    .unwrap_or(Ipv4Addr::UNSPECIFIED);
                let req = arp_frame(
                    ArpOp::Request,
                    MacAddr::BROADCAST,
                    (my_mac, sender_ip),
                    (MacAddr::ZERO, next_hop),
                );
                self.trace.arp_requests += 1;
                self.tx_frame(out_dev, req, ctx, depth + 1);
            }
        }
    }

    /// Emit a frame on an interface (kind-specific delivery).
    fn tx_frame(&mut self, iface_id: IfaceId, pkt: Packet, ctx: &mut Ctx<'_>, depth: u32) {
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
        match &mut iface.kind {
            &mut IfaceKind::Veth { peer } => {
                ctx.charge(self.costs.veth_crossing_ns);
                self.rx_frame(peer, pkt, ctx, depth + 1);
            }
            &mut IfaceKind::External { tag } => {
                ctx.charge(self.costs.tap_ns);
                ctx.emitted.push((tag, pkt));
            }
            &mut IfaceKind::VlanSub { parent, vid } => {
                ctx.charge(self.costs.vlan_op_ns);
                let mut tagged = pkt;
                let _ = tagged.vlan_push(vid);
                self.tx_frame(parent, tagged, ctx, depth + 1);
            }
            IfaceKind::Bridge { fdb, .. } => {
                // Egress via the bridge: consult the FDB.
                ctx.charge(self.costs.bridge_fdb_ns);
                let Ok(eth) = pkt.ethernet() else {
                    return;
                };
                match fdb.lookup(eth.dst()) {
                    Some(out) => self.tx_frame(out, pkt, ctx, depth + 1),
                    None => {
                        self.bridge_flood(iface_id, None, pkt, false, ctx, depth);
                    }
                }
            }
            IfaceKind::Loopback => self.l2_input(iface_id, pkt, ctx, depth + 1),
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

/// The summary netfilter matches a packet with flow tuple `t` by, before
/// conntrack has classified it.
fn nf_view(
    t: &FlowTuple,
    in_iface: Option<IfaceId>,
    out_iface: Option<IfaceId>,
    fwmark: u32,
) -> NfPacket {
    NfPacket {
        in_iface,
        out_iface,
        src: t.src,
        dst: t.dst,
        proto: t.proto,
        sport: t.sport,
        dport: t.dport,
        fwmark,
        ct_state: CtState::New,
        ct_dnat: false,
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

/// Rewrite an IP packet's addresses/ports to `want` in place, fixing
/// checksums. Ports are written only into an L4 header
/// [`extract_tuple`] could read them from.
fn rewrite_packet(ip_bytes: &mut [u8], want: &FlowTuple) {
    let mut ip = Ipv4Packet::new_unchecked(ip_bytes);
    ip.set_src(want.src);
    ip.set_dst(want.dst);
    ip.fill_checksum();
    match ip.protocol() {
        IpProtocol::Udp => {
            if let Ok(mut u) = UdpDatagram::new_checked(ip.payload_mut()) {
                u.set_src_port(want.sport);
                u.set_dst_port(want.dport);
                u.fill_checksum(want.src, want.dst);
            }
        }
        IpProtocol::Tcp => {
            if let Ok(mut t) = TcpSegment::new_checked(ip.payload_mut()) {
                t.set_src_port(want.sport);
                t.set_dst_port(want.dport);
                t.fill_checksum(want.src, want.dst);
            }
        }
        _ => {}
    }
}

/// Turn an ICMP echo request into its reply in place (swaps addresses).
fn echo_reply(ip_bytes: &mut [u8]) {
    let mut ip = Ipv4Packet::new_unchecked(ip_bytes);
    let (src, dst) = (ip.src(), ip.dst());
    ip.set_src(dst);
    ip.set_dst(src);
    ip.set_ttl(64);
    ip.fill_checksum();
    let mut icmp = IcmpMessage::new_unchecked(ip.payload_mut());
    icmp.set_kind(IcmpKind::EchoReply);
    icmp.fill_checksum();
}

/// An Ethernet header from `src` to `dst` announcing `ethertype`.
fn eth_header(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> [u8; ETHERNET_HEADER_LEN] {
    let mut hdr = [0; ETHERNET_HEADER_LEN];
    let mut e = EthernetFrame::new_unchecked(&mut hdr[..]);
    e.set_dst(dst);
    e.set_src(src);
    e.set_ethertype(ethertype);
    hdr
}

/// An ARP frame to `eth_dst`: `op` from `sender` about `target`, each a
/// (MAC, IPv4) pair; the sender's MAC is the frame's source.
fn arp_frame(
    op: ArpOp,
    eth_dst: MacAddr,
    sender: (MacAddr, Ipv4Addr),
    target: (MacAddr, Ipv4Addr),
) -> Packet {
    let mut frame = Packet::zeroed(ARP_LEN);
    let mut a = ArpPacket::new_unchecked(frame.data_mut());
    a.init();
    a.set_op(op);
    a.set_sender_mac(sender.0);
    a.set_sender_ip(sender.1);
    a.set_target_mac(target.0);
    a.set_target_ip(target.1);
    frame.push_front(&eth_header(eth_dst, sender.0, EtherType::Arp));
    frame
}

#[cfg(test)]
mod tests;
