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
//!    seals the bucket at the first hop and opens it at the last, one
//!    burst each ([`crate::wire`]), then books frame by frame in order;
//!    every hop in between carries the sealed frames and its transit
//!    node switches them on the outer vid alone.
//!
//! The [`Work`] list — a queue per *touched* node, the FIFO of nodes
//! with work, the fabric buckets, a crossing's sealed and opened
//! verdicts and its survivors — is
//! the domain's, lent to each call and handed back empty, so a warm call
//! allocates none of it. Untouched nodes cost nothing.
//!
//! Every way a frame can die here goes through [`Accounting::drop`],
//! the one drop primitive the node fabric uses too.

use std::collections::{BTreeMap, VecDeque};
use std::mem;

use un_core::{Name, PortId};
use un_obs::{Accounting, DropReason, HopKind, TraceSink};
use un_packet::Packet;
use un_sim::Cost;

use super::{
    Domain, DomainConfig, DomainCounters, DomainIo, LinkSas, LinkState, ManagedNode, NodeHealth,
};
use crate::wire::{self, WireError};

/// Fixed ESP cost per protected frame and operation: charged once for
/// the seal at the link's head and once for the open at its tail,
/// however many hops lie between.
const ESP_FIXED_NS: u64 = 700;
/// Per-byte ESP cost, in nanoseconds per byte of the *inner* frame (the
/// fabric-tagged frame that is sealed), charged with [`ESP_FIXED_NS`]:
/// twice per link traversal, not twice per hop.
const ESP_NS_PER_BYTE: f64 = 2.0;

/// Frames bound for one node, each with the port it enters on.
type Burst = Vec<(PortId, Packet)>;

/// The value at `key` of `sorted` — a `Vec` kept sorted by key — made
/// on first use from a drained value of `free`.
fn slot<'a, K: Ord + Copy, V: Default>(
    sorted: &'a mut Vec<(K, V)>,
    free: &mut Vec<V>,
    key: K,
) -> &'a mut V {
    let at = match sorted.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(at) => at,
        Err(at) => {
            sorted.insert(at, (key, free.pop().unwrap_or_default()));
            at
        }
    };
    &mut sorted[at].1
}

/// The frames waiting on one touched node.
struct NodeQueue {
    /// The node's interned name.
    name: Name,
    /// Its fabric port, resolved on its first touch in the call.
    fabric_id: Option<PortId>,
    /// Pending bursts keyed by remaining TTL, sorted so the freshest —
    /// the largest TTL — is last. Never holds an empty burst.
    pending: Vec<(u32, Burst)>,
    /// The node currently sits in the ready queue (dedup flag).
    enqueued: bool,
}

impl NodeQueue {
    fn mark_ready(&mut self, me: usize, ready: &mut VecDeque<usize>) {
        if !self.enqueued && !self.pending.is_empty() {
            self.enqueued = true;
            debug_assert!(
                !ready.contains(&me),
                "{} enqueued twice: the dedup flag was clear but the \
                 node already sits in the ready queue",
                self.name
            );
            ready.push_back(me);
        }
    }
}

/// The shuttle's work list. The domain keeps one and lends it to each
/// call; between calls every buffer is empty and only capacity carries
/// over.
#[derive(Default)]
pub(super) struct Work {
    /// A queue per node touched this call, in first-touch order; the
    /// ones from `touched` on are spares an earlier call left, kept for
    /// their capacity.
    queues: Vec<NodeQueue>,
    touched: usize,
    /// Nodes with pending frames (by queue index), each at most once,
    /// drained FIFO.
    ready: VecDeque<usize>,
    /// Drained bursts, reused for the next TTL a node is queued at.
    free: Vec<Burst>,
    /// One node's fabric-bound egress, bucketed by vid, ascending.
    fabric: Vec<(u16, Vec<Packet>)>,
    /// Drained fabric buckets.
    free_fabric: Vec<Vec<Packet>>,
    /// The frames that made it over one link.
    survivors: Vec<Packet>,
    /// One crossing's frames as they go on the wire — sealed at a
    /// protected link's head — or why the head refused them.
    on_wire: Vec<Result<Packet, WireError>>,
    /// The verdicts of a protected link's tail, one per frame on the
    /// wire.
    opened: Vec<Result<Packet, WireError>>,
}

impl Work {
    /// The index of `node`'s queue, set up on its first touch in the
    /// call; the error is why frames bound for it die. Suspect nodes
    /// keep forwarding: they are slow, not dead.
    fn queue(
        &mut self,
        nodes: &BTreeMap<String, ManagedNode>,
        node: &str,
        fabric: &str,
    ) -> Result<usize, DropReason> {
        let touched = &self.queues[..self.touched];
        if let Some(i) = touched.iter().position(|q| q.name.as_str() == node) {
            return Ok(i);
        }
        let managed = match nodes.get(node) {
            None => return Err(DropReason::InjectUnknownNode),
            Some(m) if m.health == NodeHealth::Failed => return Err(DropReason::InjectDeadNode),
            Some(m) => m,
        };
        let (name, fabric_id) = (managed.name.clone(), managed.node.port_id(fabric));
        let i = self.touched;
        match self.queues.get_mut(i) {
            Some(spare) => {
                debug_assert!(spare.pending.is_empty() && !spare.enqueued);
                (spare.name, spare.fabric_id) = (name, fabric_id);
            }
            None => self.queues.push(NodeQueue {
                name,
                fabric_id,
                pending: Vec::new(),
                enqueued: false,
            }),
        }
        self.touched += 1;
        Ok(i)
    }

    /// Queue `frames` on queue `q` with `ttl` crossings left to spend
    /// and put the node on the ready queue unless it already sits there
    /// — so a node with pending frames is always queued, and, since only
    /// [`Work::claim`] takes frames away, a queued node always has some.
    fn push(&mut self, q: usize, ttl: u32, frames: impl IntoIterator<Item = (PortId, Packet)>) {
        let queue = &mut self.queues[q];
        slot(&mut queue.pending, &mut self.free, ttl).extend(frames);
        queue.mark_ready(q, &mut self.ready);
    }

    /// Put a node that was just driven back in line if more is pending.
    fn requeue(&mut self, q: usize) {
        self.queues[q].mark_ready(q, &mut self.ready);
    }

    /// Claim the node at the front of the ready queue together with
    /// its freshest pending burst and the overlay crossings those
    /// frames may still make.
    fn claim(&mut self) -> Option<(usize, u32, Burst)> {
        let q = self.ready.pop_front()?;
        let queue = &mut self.queues[q];
        debug_assert!(
            queue.enqueued,
            "{} was queued with its flag clear",
            queue.name
        );
        queue.enqueued = false;
        let (ttl_left, burst) = queue.pending.pop().expect("a queued node has work");
        debug_assert!(!burst.is_empty(), "{} held an empty burst", queue.name);
        Some((q, ttl_left, burst))
    }

    /// True when no buffer holds a frame or a node.
    fn is_clear(&self) -> bool {
        self.touched == 0
            && self.ready.is_empty()
            && self.queues.iter().all(|q| q.pending.is_empty())
            && self.free.iter().all(Vec::is_empty)
            && self.fabric.is_empty()
            && self.free_fabric.iter().all(Vec::is_empty)
            && self.survivors.is_empty()
            && self.on_wire.is_empty()
            && self.opened.is_empty()
    }
}

/// One call's drain: the domain's fleet, links and counters borrowed in
/// place, the work list, the result and the books.
struct Drain<'a> {
    nodes: &'a mut BTreeMap<String, ManagedNode>,
    links: &'a mut BTreeMap<u16, LinkState>,
    config: &'a DomainConfig,
    trace: &'a mut DomainCounters,
    /// The domain's work list, taken for the call.
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
    /// Frames the call seeded.
    seeded: usize,
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
            let q = match self.work.queue(self.nodes, node, &self.config.fabric_port) {
                Ok(q) => q,
                Err(reason) => {
                    self.acct.drop(node, reason, 1, "");
                    continue;
                }
            };
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
            self.work.push(q, ttl, [(pid, pkt)]);
            seeded += 1;
        }
        self.crossings_left = seeded.saturating_mul(u64::from(ttl));
        self.seeded = seeded as usize;
    }

    /// Drive ready nodes until no frame is pending anywhere.
    fn run(&mut self) {
        while let Some((q, ttl_left, mut burst)) = self.work.claim() {
            let name = self.work.queues[q].name.clone();
            let managed = self
                .nodes
                .get_mut(name.as_str())
                .expect("a queued node exists");
            let node_io = managed
                .node
                .inject_batch_flight(burst.drain(..), self.acct.flight());
            self.work.free.push(burst);
            self.io.cost += node_io.cost;
            // Back in line before its egress crosses, so frames already
            // waiting here keep their turn ahead of the peers'.
            self.work.requeue(q);
            // Split node egress: real egress vs fabric-bound, bucketed
            // by VLAN link identity.
            let mut fabric = mem::take(&mut self.work.fabric);
            for (port, pkt) in node_io.emitted {
                if port.as_str() != self.config.fabric_port {
                    if self.io.emitted.is_empty() {
                        // One allocation for the result, sized for one
                        // frame out per frame in, at the first egress.
                        self.io.emitted.reserve(self.seeded);
                    }
                    self.io.emitted.push((name.clone(), port, pkt));
                    continue;
                }
                match pkt.vlan_id() {
                    Some(vid) => slot(&mut fabric, &mut self.work.free_fabric, vid).push(pkt),
                    None => self.acct.drop(&name, DropReason::OverlayUntagged, 1, ""),
                }
            }
            let mut survivors = mem::take(&mut self.work.survivors);
            for (vid, frames) in fabric.iter_mut() {
                self.cross_link(&name, *vid, frames, &mut survivors, ttl_left);
                // What died on the way is booked: drop it, keep the
                // buffers.
                frames.clear();
                survivors.clear();
            }
            self.work.survivors = survivors;
            let drained = fabric.drain(..).map(|(_, frames)| frames);
            self.work.free_fabric.extend(drained);
            self.work.fabric = fabric;
        }
        self.acct.egress(self.io.emitted.len() as u64);
    }

    /// Carry `frames`, which node `from` emitted on the fabric tagged
    /// `vid`, over the next hop of that link's pinned path, collecting
    /// the survivors in `survivors`, and queue them on the peer with one
    /// crossing less to spend. Frames that die — and at a protected
    /// link's head the plaintext of every frame sealed — are left
    /// behind, booked, for the caller to clear.
    fn cross_link(
        &mut self,
        from: &Name,
        vid: u16,
        frames: &mut Vec<Packet>,
        survivors: &mut Vec<Packet>,
        ttl_left: u32,
    ) {
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
        let (seal, open) = match sas {
            Some((sa_out, sa_in)) => (
                (hop_idx == 0).then_some(sa_out),
                (hop_idx + 2 == link.path.len()).then_some(sa_in),
            ),
            None => (None, None),
        };
        let esp_cost = |inner_len: usize| {
            let ns = ESP_FIXED_NS as f64 + ESP_NS_PER_BYTE * inner_len as f64;
            Cost::from_nanos(ns as u64)
        };
        // The crypto runs a burst per end — the head seals the bucket,
        // the tail opens what made it onto the wire — and the frames are
        // booked after it, one by one in order, as frame after frame.
        let sealing = seal.is_some();
        let on_wire = &mut self.work.on_wire;
        match seal {
            Some(sa_out) => wire::seal(sa_out, frames, vid, on_wire),
            None => on_wire.extend(frames.drain(..).map(Ok)),
        }
        let opening = open.is_some();
        if let Some(sa_in) = open {
            let sealed = on_wire.iter().filter_map(|frame| frame.as_ref().ok());
            wire::open(sa_in, sealed, vid, &mut self.work.opened);
        }
        let (mut wire_frames, mut wire_bytes) = (0u64, 0u64);
        let mut opened = self.work.opened.drain(..);
        for (i, on_wire) in on_wire.drain(..).enumerate() {
            let inner_len = sealing.then(|| frames[i].len());
            if let Some(inner_len) = inner_len {
                io.cost += esp_cost(inner_len);
            }
            let pkt = match on_wire {
                Ok(pkt) => pkt,
                Err(e) => {
                    let detail = format_args!("vid {vid}: {e}");
                    acct.drop(from, DropReason::OverlayEspSealFail, 1, detail);
                    continue;
                }
            };
            io.protected_bytes += inner_len.unwrap_or(0) as u64;
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
            if !opening {
                survivors.push(pkt);
                continue;
            }
            let opened = opened.next().expect("a verdict per frame on the wire");
            // The open is paid for whether or not it succeeds: by the
            // inner length, or by what the AEAD walked (up to three
            // bytes of padding more) when it is never known.
            let walked = opened
                .as_ref()
                .map_or(len.saturating_sub(wire::OVERHEAD), Packet::len);
            io.cost += esp_cost(walked);
            match opened {
                Ok(frame) => survivors.push(frame),
                Err(e) => {
                    let detail = format_args!("vid {vid}: {e}");
                    acct.drop(peer, DropReason::OverlayEspVerifyFail, 1, detail);
                }
            }
        }
        drop(opened);
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
        let q = match self.work.queue(self.nodes, peer, &self.config.fabric_port) {
            Ok(q) => q,
            Err(reason) => return acct.drop(peer, reason, k, ""),
        };
        let Some(fid) = self.work.queues[q].fabric_id else {
            let detail = format_args!("peer has no fabric port");
            return acct.drop(peer, DropReason::OverlayUnroutable, k, detail);
        };
        let arriving = survivors.drain(..).map(|p| (fid, p));
        self.work.push(q, ttl_left - 1, arriving);
    }
}

impl LinkState {
    /// The wire's two ends, `(from_node, to_node)`: its path's ends.
    pub(super) fn ends(&self) -> (&String, &String) {
        (&self.path[0], &self.path[self.path.len() - 1])
    }

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
            work: mem::take(&mut self.shuttle_work),
            crossings_left: 0,
            seeded: 0,
            ghost_sas: BTreeMap::new(),
            io: DomainIo::default(),
            acct: Accounting::new(flight),
        };
        drain.seed(ingress, self.config.overlay_ttl.max(1));
        drain.run();
        drain.acct.settle(&mut self.frame_ledger);
        drain.work.touched = 0;
        debug_assert!(drain.work.is_clear(), "a frame outlived its call");
        self.shuttle_work = drain.work;
        drain.io
    }
}
