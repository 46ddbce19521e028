//! The data-plane shuttle: one burst, drained across the fleet on the
//! caller's thread.
//!
//! [`Domain::shuttle`] is what every public inject entry point runs.
//! It borrows the fleet map and the link map in place for the length
//! of the call — nothing moves out of the domain, so a panic below it
//! cannot lose a node — and has three steps, one function each:
//!
//! 1. **seed** ([`Drain::seed`]) — look each ingress node up once,
//!    resolve each ingress port once, queue the frames on their node;
//! 2. **drain** ([`Drain::run`]) — pop the front of the ready queue,
//!    run that node's freshest pending burst through the node's
//!    run-to-completion batch path, re-queue the node if more is
//!    pending, bucket its fabric-bound egress by VLAN link;
//! 3. **cross one link** ([`Drain::cross_link`]) — carry one such
//!    bucket over the next hop of its pinned path (wire counters, hop
//!    cost) and queue the survivors on the peer. A protected link
//!    seals each frame at the first hop and opens it at the last
//!    ([`crate::wire`]); every hop in between carries the sealed frame
//!    and its transit node switches it on the outer vid alone.
//!
//! Per call only the [`Work`] list is built: a queue per *touched*
//! node and the FIFO of nodes with work. Untouched nodes cost nothing.
//!
//! Every way a frame can die here goes through [`Accounting::drop`],
//! the one drop primitive the node fabric uses too.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use un_core::{Name, PortId};
use un_obs::{Accounting, DropReason, HopKind, TraceSink};
use un_packet::Packet;
use un_sim::Cost;

use super::{
    Domain, DomainConfig, DomainCounters, DomainIo, LinkSas, LinkState, ManagedNode, NodeHealth,
};
use crate::wire;

/// Frames bound for one node, each with the port it enters on.
type Burst = Vec<(PortId, Packet)>;

/// The frames waiting on one touched node.
struct NodeQueue {
    fabric_id: Option<PortId>,
    name: Name,
    /// Pending bursts keyed by remaining TTL, freshest first. Never
    /// holds an empty burst.
    pending: BTreeMap<Reverse<u32>, Burst>,
    /// The node currently sits in the ready queue (dedup flag).
    enqueued: bool,
}

impl NodeQueue {
    fn mark_ready(&mut self, ready: &mut VecDeque<Name>) {
        if !self.enqueued && !self.pending.is_empty() {
            self.enqueued = true;
            debug_assert!(
                !ready.contains(&self.name),
                "{} enqueued twice: the dedup flag was clear but the \
                 node already sits in the ready queue",
                self.name
            );
            ready.push_back(self.name.clone());
        }
    }
}

/// The call's work list.
#[derive(Default)]
struct Work {
    queues: BTreeMap<Name, NodeQueue>,
    /// Nodes with pending frames, each at most once, drained FIFO.
    ready: VecDeque<Name>,
}

impl Work {
    /// The queue for `node`, built on first touch; the error is why
    /// frames bound for it die. Suspect nodes keep forwarding: they
    /// are slow, not dead.
    fn queue(
        &mut self,
        nodes: &BTreeMap<String, ManagedNode>,
        node: &str,
        fabric: &str,
    ) -> Result<&mut NodeQueue, DropReason> {
        if !self.queues.contains_key(node) {
            let managed = match nodes.get(node) {
                None => return Err(DropReason::InjectUnknownNode),
                Some(m) if m.health == NodeHealth::Failed => {
                    return Err(DropReason::InjectDeadNode)
                }
                Some(m) => m,
            };
            let name = Name::new(&managed.node.name);
            let queue = NodeQueue {
                fabric_id: managed.node.port_id(fabric),
                name: name.clone(),
                pending: BTreeMap::new(),
                enqueued: false,
            };
            self.queues.insert(name, queue);
        }
        Ok(self.queues.get_mut(node).expect("inserted above"))
    }

    /// Queue `frames` on `node` with `ttl` crossings left to spend and
    /// put the node on the ready queue unless it already sits there —
    /// so a node with pending frames is always queued, and, since only
    /// [`Work::claim`] takes frames away, a queued node always has
    /// some.
    fn push(&mut self, node: &str, ttl: u32, frames: impl IntoIterator<Item = (PortId, Packet)>) {
        let queue = self.queues.get_mut(node).expect("touched before push");
        queue
            .pending
            .entry(Reverse(ttl))
            .or_default()
            .extend(frames);
        queue.mark_ready(&mut self.ready);
    }

    /// Put a node that was just driven back in line if more is pending.
    fn requeue(&mut self, node: &str) {
        let queue = self
            .queues
            .get_mut(node)
            .expect("a driven node has a queue");
        queue.mark_ready(&mut self.ready);
    }

    /// Claim the node at the front of the ready queue together with
    /// its freshest pending burst and the overlay crossings those
    /// frames may still make.
    fn claim(&mut self) -> Option<(Name, u32, Burst)> {
        let name = self.ready.pop_front()?;
        let queue = self
            .queues
            .get_mut(name.as_str())
            .expect("queued nodes have a queue");
        debug_assert!(queue.enqueued, "{name} was queued with its flag clear");
        queue.enqueued = false;
        let (Reverse(ttl_left), burst) = queue.pending.pop_first().expect("a queued node has work");
        debug_assert!(!burst.is_empty(), "{name} held an empty burst");
        Some((name, ttl_left, burst))
    }
}

/// One call's drain: the domain's fleet, links and counters borrowed in
/// place, the work list, the result and the books.
struct Drain<'a> {
    nodes: &'a mut BTreeMap<String, ManagedNode>,
    links: &'a mut BTreeMap<u16, LinkState>,
    config: &'a DomainConfig,
    trace: &'a mut DomainCounters,
    work: Work,
    /// Last-resort budget of overlay crossings left to this call:
    /// single-path traffic needs at most `seeded × ttl` (each frame
    /// crosses at most `ttl` times). Workloads that multiply frames —
    /// a flood rule around an overlay cycle, or extreme loop-free
    /// fan-out past `seeded × ttl` copies — trip it, and everything
    /// still crossing is dropped (`overlay_work_exhausted`). The
    /// per-frame TTL alone would let amplification grow exponentially;
    /// this valve trades completeness under amplification for a hard
    /// bound.
    crossings_left: u64,
    /// A ghost walk seals and opens for real, on SAs **cloned** at its
    /// first touch of a link and kept for the call: sequence numbers
    /// and replay windows move, and a probe must not advance the live
    /// wire's state. Stays empty on a real walk.
    ghost_sas: BTreeMap<u16, Option<LinkSas>>,
    io: DomainIo,
    acct: Accounting<'a>,
}

impl Drain<'_> {
    /// Queue the ingress burst on its nodes, resolving each port name
    /// once, and size the crossing valve by how many frames made it.
    fn seed<N, P>(&mut self, ingress: impl IntoIterator<Item = (N, P, Packet)>, ttl: u32)
    where
        N: AsRef<str>,
        P: AsRef<str>,
    {
        let mut seeded = 0u64;
        for (node, port, pkt) in ingress {
            self.acct.ingress(1);
            let (node, port) = (node.as_ref(), port.as_ref());
            if let Err(reason) = self.work.queue(self.nodes, node, &self.config.fabric_port) {
                self.acct.drop(node, reason, 1, "");
                continue;
            }
            let managed = self.nodes.get_mut(node).expect("a queued node exists");
            // An unknown port is the node's drop to book, not ours.
            let Some(pid) = managed.node.ingress_port(port, self.acct.flight()) else {
                continue;
            };
            if let Some(f) = self.acct.flight() {
                f.hop(
                    node,
                    HopKind::Ingress {
                        port: port.to_string(),
                    },
                );
            }
            self.work.push(node, ttl, [(pid, pkt)]);
            seeded += 1;
        }
        self.crossings_left = seeded.saturating_mul(u64::from(ttl));
    }

    /// Drive ready nodes until no frame is pending anywhere.
    fn run(&mut self) {
        while let Some((name, ttl_left, burst)) = self.work.claim() {
            let managed = self
                .nodes
                .get_mut(name.as_str())
                .expect("a queued node exists");
            let node_io = managed.node.inject_batch_flight(burst, self.acct.flight());
            self.io.cost += node_io.cost;
            // Back in line before its egress crosses, so frames already
            // waiting here keep their turn ahead of the peers'.
            self.work.requeue(&name);
            // Split node egress: real egress vs fabric-bound, bucketed
            // by VLAN link identity.
            let mut fabric_bursts: BTreeMap<u16, Vec<Packet>> = BTreeMap::new();
            for (port, pkt) in node_io.emitted {
                if port.as_str() != self.config.fabric_port {
                    self.io.emitted.push((name.clone(), port, pkt));
                    continue;
                }
                match pkt.vlan_id() {
                    Some(vid) => fabric_bursts.entry(vid).or_default().push(pkt),
                    None => self.acct.drop(&name, DropReason::OverlayUntagged, 1, ""),
                }
            }
            for (vid, frames) in fabric_bursts {
                self.cross_link(&name, vid, frames, ttl_left);
            }
        }
        self.acct.egress(self.io.emitted.len() as u64);
    }

    /// Carry `frames`, which node `from` emitted on the fabric tagged
    /// `vid`, over the next hop of that link's pinned path and queue
    /// the survivors on the peer with one crossing less to spend.
    fn cross_link(&mut self, from: &Name, vid: u16, frames: Vec<Packet>, ttl_left: u32) {
        let (io, acct) = (&mut self.io, &mut self.acct);
        let n = frames.len() as u64;
        let Some(link) = self.links.get_mut(&vid) else {
            let detail = format_args!("no overlay link for vid {vid}");
            return acct.drop(from, DropReason::OverlayUnroutable, n, detail);
        };
        // Advance along the pinned path: the emitting node's successor
        // is the next hop. On a two-node path a frame emitted by the
        // tail walks back to the head (the old peer semantics,
        // defensive — links deliver at the tail, they don't send from
        // it); on a longer path a tail emission has no forward hop and
        // would ping-pong against the last transit node, so it drops
        // as foreign instead.
        let pos = link.path.iter().position(|p| p == from.as_str());
        let (next_idx, hop_idx) = match pos {
            Some(i) if i + 1 < link.path.len() => (i + 1, i),
            Some(1) if link.path.len() == 2 => (0, 0),
            _ => {
                let detail = format_args!("not on the pinned path of vid {vid}");
                return acct.drop(from, DropReason::OverlayForeign, n, detail);
            }
        };
        let hop_cost = Cost::from_nanos(link.hop_latency_ns.get(hop_idx).copied().unwrap_or(0));
        let peer = link.path[next_idx].as_str();
        let esp_on = link.sas.is_some();
        let sas = if acct.ghost() {
            let cloned = self.ghost_sas.entry(vid);
            cloned.or_insert_with(|| link.sas.clone()).as_deref_mut()
        } else {
            link.sas.as_deref_mut()
        };
        // One side of the SA pair works per end of the pinned path: the
        // head seals, the tail opens (a one-hop link is both at once).
        let (mut seal, mut open) = match sas {
            Some((sa_out, sa_in)) => (
                (hop_idx == 0).then_some(sa_out),
                (hop_idx + 2 == link.path.len()).then_some(sa_in),
            ),
            None => (None, None),
        };
        let esp_cost = |inner_len: usize| {
            let ns =
                self.config.esp_fixed_ns as f64 + self.config.esp_ns_per_byte * inner_len as f64;
            Cost::from_nanos(ns as u64)
        };
        let mut survivors: Vec<Packet> = Vec::with_capacity(frames.len());
        let (mut wire_frames, mut wire_bytes) = (0u64, 0u64);
        for mut pkt in frames {
            if let Some(sa_out) = seal.as_deref_mut() {
                let inner_len = pkt.len();
                io.cost += esp_cost(inner_len);
                pkt = match wire::seal(sa_out, pkt, vid) {
                    Ok(sealed) => sealed,
                    Err(e) => {
                        let detail = format_args!("vid {vid}: {e}");
                        acct.drop(from, DropReason::OverlayEspSealFail, 1, detail);
                        continue;
                    }
                };
                io.protected_bytes += inner_len as u64;
            }
            // Wire counters count what is on the wire at every hop of
            // the pinned path — the sealed length on a protected one. A
            // frame whose TTL is spent is still on the wire here, and
            // dies below.
            let len = pkt.len();
            wire_frames += 1;
            wire_bytes += len as u64;
            io.overlay_hops += 1;
            io.cost += hop_cost;
            if let Some(f) = acct.flight() {
                f.hop(
                    from,
                    HopKind::OverlayHop {
                        vid,
                        from: from.to_string(),
                        to: peer.to_string(),
                        hop: hop_idx,
                        esp: esp_on,
                        ttl_left,
                    },
                );
            }
            if let Some(sa_in) = open.as_deref_mut() {
                let opened = wire::open(sa_in, pkt, vid);
                // The open is paid for whether or not it succeeds: by
                // the inner length, or by what the AEAD walked (up to
                // three bytes of padding more) when it is never known.
                let walked = opened
                    .as_ref()
                    .map_or(len.saturating_sub(wire::OVERHEAD), Packet::len);
                io.cost += esp_cost(walked);
                pkt = match opened {
                    Ok(frame) => frame,
                    Err(e) => {
                        let detail = format_args!("vid {vid}: {e}");
                        acct.drop(peer, DropReason::OverlayEspVerifyFail, 1, detail);
                        continue;
                    }
                };
            }
            survivors.push(pkt);
        }
        if !acct.ghost() {
            link.count_hop(hop_idx, wire_frames, wire_bytes);
        }
        // Borrowed again: the count above took the link whole.
        let peer = link.path[next_idx].as_str();
        let k = survivors.len() as u64;
        if k == 0 {
            return;
        }
        if !acct.ghost() {
            self.trace.overlay_frames += k;
        }
        // ttl_left counts remaining crossings: a frame seeded with
        // overlay_ttl may cross exactly that many times.
        if ttl_left == 0 {
            let detail = format_args!("overlay TTL expired on vid {vid}");
            return acct.drop(from, DropReason::OverlayLoop, k, detail);
        }
        if self.crossings_left == 0 {
            return acct.drop(from, DropReason::OverlayWorkExhausted, k, "");
        }
        self.crossings_left = self.crossings_left.saturating_sub(k);
        let fabric_id = match self.work.queue(self.nodes, peer, &self.config.fabric_port) {
            Ok(queue) => queue.fabric_id,
            Err(reason) => return acct.drop(peer, reason, k, ""),
        };
        let Some(fid) = fabric_id else {
            let detail = format_args!("peer has no fabric port");
            return acct.drop(peer, DropReason::OverlayUnroutable, k, detail);
        };
        self.work
            .push(peer, ttl_left - 1, survivors.into_iter().map(|p| (fid, p)));
    }
}

impl LinkState {
    /// Count `frames` frames of `bytes` bytes in all on the wire at hop
    /// `hop_idx` of the pinned path: a frame riding an n-hop wire adds
    /// n to `packets` and one to each `hop_packets[i]`.
    fn count_hop(&mut self, hop_idx: usize, frames: u64, bytes: u64) {
        self.packets += frames;
        self.bytes += bytes;
        if let Some(hp) = self.hop_packets.get_mut(hop_idx) {
            *hp += frames;
        }
        if let Some(hb) = self.hop_bytes.get_mut(hop_idx) {
            *hb += bytes;
        }
    }
}

impl Domain {
    /// Run one burst of `(node, port, frame)` triples across the
    /// domain until every resulting frame left on a real egress or
    /// died, with `flight` riding along.
    pub(super) fn shuttle<N, P>(
        &mut self,
        ingress: impl IntoIterator<Item = (N, P, Packet)>,
        flight: Option<&TraceSink>,
    ) -> DomainIo
    where
        N: AsRef<str>,
        P: AsRef<str>,
    {
        let mut drain = Drain {
            nodes: &mut self.nodes,
            links: &mut self.links,
            config: &self.config,
            trace: &mut self.trace,
            work: Work::default(),
            crossings_left: 0,
            ghost_sas: BTreeMap::new(),
            io: DomainIo::default(),
            acct: Accounting::new(flight),
        };
        drain.seed(ingress, self.config.overlay_ttl.max(1));
        drain.run();
        drain.acct.settle(&mut self.frame_ledger);
        drain.io
    }
}
