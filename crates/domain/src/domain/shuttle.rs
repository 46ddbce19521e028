//! The data-plane shuttle: one burst, drained across the fleet.
//!
//! [`Domain::shuttle`] is what every public inject entry point runs.
//! It has four steps, one function each:
//!
//! 1. **seed** — claim the ingress nodes out of the fleet map, resolve
//!    each ingress port once, queue the frames on their node's cell;
//! 2. **drain** ([`Shuttle::drain`]) — claim a ready node, run its
//!    freshest pending burst through the node's run-to-completion
//!    batch path, hand the node back, bucket its fabric-bound egress
//!    by VLAN link;
//! 3. **cross one link** ([`Shuttle::cross_link`]) — carry one such
//!    bucket over the next hop of its pinned path (wire counters, hop
//!    cost, per-burst ESP under the link's lock) and queue the
//!    survivors on the peer;
//! 4. **land** — move nodes and links back into the domain and fold
//!    the workers' tallies into the result and the counters.
//!
//! With `workers ≤ 1` the caller drains inline; otherwise the same
//! `drain` runs once on every thread of the persistent
//! [`ShardRuntime`]. Either way there is **one ready queue** under the
//! pool lock and any worker pops its front: every node is an isolated
//! state machine, so any worker may drive any node, and the link locks
//! guard the only other shared state.
//!
//! Every way a frame can die here goes through [`WorkerOut::drop`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use un_core::{Name, PortId};
use un_ipsec::{esp, SecurityAssociation};
use un_obs::{DropReason, HopKind, TraceSink};
use un_packet::Packet;
use un_sim::Cost;

use super::{Domain, DomainIo, LinkState, ManagedNode, NodeHealth};
use crate::runtime::ShardRuntime;

/// One *touched* node. The cell owns the node state while no worker is
/// driving it; untouched nodes stay in the fleet map itself, so a
/// single-frame inject pays O(log fleet) lookups for the nodes it
/// crosses and nothing per fleet member.
struct NodeCell {
    managed: Option<ManagedNode>,
    fabric_id: Option<PortId>,
    name: Name,
    /// Pending bursts keyed by remaining TTL, freshest first.
    pending: BTreeMap<Reverse<u32>, Vec<(PortId, Packet)>>,
    queued: usize,
    /// The node currently sits in the ready queue (dedup flag).
    enqueued: bool,
}

impl NodeCell {
    fn push(&mut self, ttl: u32, frames: impl IntoIterator<Item = (PortId, Packet)>) {
        let burst = self.pending.entry(Reverse(ttl)).or_default();
        let before = burst.len();
        burst.extend(frames);
        self.queued += burst.len() - before;
    }
}

/// One claimed unit of work: a node, its freshest pending burst, and
/// the overlay crossings those frames may still make.
struct Job {
    name: Name,
    managed: ManagedNode,
    ttl_left: u32,
    burst: Vec<(PortId, Packet)>,
}

struct Pool {
    cells: BTreeMap<String, NodeCell>,
    /// The fleet map, moved out of the domain for the call so
    /// persistent workers need no borrowed lifetimes.
    nodes: BTreeMap<String, ManagedNode>,
    /// Nodes with claimable work (pending frames + free node state),
    /// each at most once. Any worker pops the front.
    ready: VecDeque<Name>,
}

impl Pool {
    /// The cell for `node`, claiming it out of the fleet map on first
    /// touch; the error is why frames bound for it die. Suspect nodes
    /// keep forwarding: they are slow, not dead.
    fn cell(&mut self, node: &str, fabric: &str) -> Result<&mut NodeCell, DropReason> {
        if !self.cells.contains_key(node) {
            match self.nodes.get(node) {
                None => return Err(DropReason::InjectUnknownNode),
                Some(m) if m.health == NodeHealth::Failed => {
                    return Err(DropReason::InjectDeadNode)
                }
                Some(_) => {}
            }
            let (key, managed) = self.nodes.remove_entry(node).expect("checked above");
            let cell = NodeCell {
                fabric_id: managed.node.port_id(fabric),
                name: Name::new(&managed.node.name),
                managed: Some(managed),
                pending: BTreeMap::new(),
                queued: 0,
                enqueued: false,
            };
            self.cells.insert(key, cell);
        }
        Ok(self.cells.get_mut(node).expect("inserted above"))
    }

    /// Put `node` on the ready queue if it has claimable work and is
    /// not already there. Every path that adds work or hands a node
    /// back calls this, so a node with claimable work is always queued
    /// — and, since only [`Pool::claim`] takes work or node state away,
    /// a queued node always has claimable work.
    fn mark_ready(&mut self, node: &str) {
        let Some(cell) = self.cells.get_mut(node) else {
            return;
        };
        debug_assert_eq!(
            cell.queued,
            cell.pending.values().map(Vec::len).sum::<usize>(),
            "ready-queue bookkeeping diverged for {node}: queued count \
             disagrees with pending bursts"
        );
        if !cell.enqueued && cell.queued > 0 && cell.managed.is_some() {
            cell.enqueued = true;
            debug_assert!(
                !self.ready.contains(&cell.name),
                "{node} enqueued twice: the dedup flag was clear but the \
                 node already sits in the ready queue"
            );
            self.ready.push_back(cell.name.clone());
        }
    }

    /// Claim the node at the front of the ready queue together with
    /// its freshest pending burst.
    fn claim(&mut self) -> Option<Job> {
        let name = self.ready.pop_front()?;
        let cell = self
            .cells
            .get_mut(name.as_str())
            .expect("queued nodes have a cell");
        debug_assert!(cell.enqueued, "{name} was queued with its flag clear");
        cell.enqueued = false;
        let managed = cell.managed.take().expect("a queued node is not driven");
        let (Reverse(ttl_left), burst) = cell.pending.pop_first().expect("a queued node has work");
        debug_assert!(
            cell.queued >= burst.len(),
            "claim of {} frames exceeds the {} queued on {name}",
            burst.len(),
            cell.queued,
        );
        cell.queued -= burst.len();
        debug_assert_eq!(
            cell.queued,
            cell.pending.values().map(Vec::len).sum::<usize>(),
            "claim left stale queued count on {name}"
        );
        Some(Job {
            name,
            managed,
            ttl_left,
            burst,
        })
    }
}

/// What one worker (or the seeding step) produced: its share of the
/// call's result plus the counter movements to fold into the domain
/// trace once the round is over.
struct WorkerOut {
    io: DomainIo,
    counters: BTreeMap<&'static str, u64>,
    /// The recorder riding along, if any.
    flight: Option<Arc<TraceSink>>,
    /// Ghost walk: decisions only, no counter movement. Read off
    /// `flight` here, once, so the two cannot travel apart.
    ghost: bool,
}

impl WorkerOut {
    fn new(flight: Option<Arc<TraceSink>>) -> Self {
        WorkerOut {
            io: DomainIo::default(),
            counters: BTreeMap::new(),
            ghost: flight.as_ref().is_some_and(|f| f.ghost()),
            flight,
        }
    }

    fn count(&mut self, name: &'static str, n: u64) {
        if !self.ghost {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// The shuttle's one drop primitive: `n` frames died at node `at`
    /// for `reason`. The typed counter moves by `n` unless the walk is
    /// a ghost, and a recorder riding along gets one drop hop per
    /// frame — so "ghost ⇒ no counter moves" and "counter delta ==
    /// drop hops recorded" hold for every shuttle drop by construction.
    fn drop(&mut self, at: &str, reason: DropReason, n: usize, detail: impl fmt::Display) {
        self.count(reason.as_str(), n as u64);
        if let Some(f) = &self.flight {
            for _ in 0..n {
                f.hop(
                    at,
                    HopKind::Drop {
                        reason,
                        detail: detail.to_string(),
                    },
                );
            }
        }
    }
}

/// A worker that panics can never decrement `in_flight`; this guard
/// sets the shuttle's abort flag while it unwinds, releasing its peers
/// from the idle wait so the panic propagates through the round
/// instead of hanging it.
struct AbortGuard<'a>(&'a AtomicBool);

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// The cross-worker state of one call. It *owns* the fleet cells and
/// the link-lock map (moved out of the domain) so the drain is
/// `'static` and can run on persistent workers; everything moves back
/// into the domain after the round.
struct Shuttle {
    pool: Mutex<Pool>,
    links: BTreeMap<u16, Mutex<LinkState>>,
    work_ready: Condvar,
    /// Frames queued on some cell or being driven by some worker; the
    /// round is over when it reaches zero.
    in_flight: AtomicUsize,
    crossings: AtomicU64,
    /// Last-resort bound on total overlay crossings per call:
    /// single-path traffic needs at most `seeded × ttl` (each frame
    /// crosses at most `ttl` times). Workloads that multiply frames —
    /// a flood rule around an overlay cycle, or extreme loop-free
    /// fan-out past `seeded × ttl` copies — trip it, and everything
    /// still crossing is dropped (`overlay_work_exhausted`). The
    /// per-frame TTL alone would let amplification grow exponentially;
    /// this valve trades completeness under amplification for a hard
    /// bound.
    crossing_cap: u64,
    aborted: AtomicBool,
    outs: Mutex<Vec<WorkerOut>>,
    flight: Option<Arc<TraceSink>>,
    fabric: String,
    esp_fixed_ns: u64,
    esp_ns_per_byte: f64,
}

impl Shuttle {
    /// Claim the next ready node, parking while peers still hold work
    /// that may land here. `None` once the round is over (or a peer
    /// panicked). Idle workers wait on the condvar instead of spinning
    /// on the pool lock; the short timeout is a safety net against a
    /// missed wakeup, not a poll interval.
    fn next_job(&self) -> Option<Job> {
        let mut pool = self.pool.lock().expect("shuttle pool poisoned");
        loop {
            if let Some(job) = pool.claim() {
                return Some(job);
            }
            if self.in_flight.load(Ordering::Acquire) == 0 || self.aborted.load(Ordering::Acquire) {
                return None;
            }
            pool = self
                .work_ready
                .wait_timeout(pool, Duration::from_millis(1))
                .expect("shuttle pool poisoned")
                .0;
        }
    }

    /// One worker's share of the round: drive ready nodes until no
    /// frame is in flight anywhere.
    fn drain(&self) {
        let _abort_guard = AbortGuard(&self.aborted);
        let mut out = WorkerOut::new(self.flight.clone());
        while let Some(Job {
            name,
            mut managed,
            ttl_left,
            burst,
        }) = self.next_job()
        {
            let consumed = burst.len();
            let node_io = managed
                .node
                .inject_batch_flight(burst, self.flight.as_deref());
            out.io.cost += node_io.cost;
            // Hand the node back before shuttling so another worker
            // can claim it for frames already heading its way.
            {
                let mut pool = self.pool.lock().expect("shuttle pool poisoned");
                pool.cells
                    .get_mut(name.as_str())
                    .expect("cell exists")
                    .managed = Some(managed);
                pool.mark_ready(name.as_str());
            }
            self.work_ready.notify_all();
            // Split node egress: real egress vs fabric-bound, bucketed
            // by VLAN link identity.
            let mut fabric_bursts: BTreeMap<u16, Vec<Packet>> = BTreeMap::new();
            for (port, pkt) in node_io.emitted {
                if port.as_str() != self.fabric {
                    out.io.emitted.push((name.clone(), port, pkt));
                    continue;
                }
                match pkt.vlan_id() {
                    Some(vid) => fabric_bursts.entry(vid).or_default().push(pkt),
                    None => out.drop(&name, DropReason::OverlayUntagged, 1, ""),
                }
            }
            for (vid, frames) in fabric_bursts {
                self.cross_link(&mut out, &name, vid, frames, ttl_left);
            }
            self.in_flight.fetch_sub(consumed, Ordering::Release);
            self.work_ready.notify_all();
        }
        out.count("domain_frames_egress", out.io.emitted.len() as u64);
        self.outs.lock().expect("shuttle outs poisoned").push(out);
    }

    /// Carry `frames`, which node `from` emitted on the fabric tagged
    /// `vid`, over the next hop of that link's pinned path and queue
    /// the survivors on the peer with one crossing less to spend.
    fn cross_link(
        &self,
        out: &mut WorkerOut,
        from: &Name,
        vid: u16,
        frames: Vec<Packet>,
        ttl_left: u32,
    ) {
        let n = frames.len();
        let Some(link_mx) = self.links.get(&vid) else {
            let detail = format_args!("no overlay link for vid {vid}");
            return out.drop(from, DropReason::OverlayUnroutable, n, detail);
        };
        let mut survivors: Vec<Packet> = Vec::with_capacity(n);
        let peer = {
            let mut link = link_mx.lock().expect("link lock poisoned");
            // Advance along the pinned path: the emitting node's
            // successor is the next hop. On a two-node path a frame
            // emitted by the tail walks back to the head (the old peer
            // semantics, defensive — links deliver at the tail, they
            // don't send from it); on a longer path a tail emission has
            // no forward hop and would ping-pong against the last
            // transit node, so it drops as foreign instead.
            let pos = link.path.iter().position(|p| p == from.as_str());
            let (next_idx, hop_idx) = match pos {
                Some(i) if i + 1 < link.path.len() => (i + 1, i),
                Some(1) if link.path.len() == 2 => (0, 0),
                _ => {
                    let detail = format_args!("not on the pinned path of vid {vid}");
                    return out.drop(from, DropReason::OverlayForeign, n, detail);
                }
            };
            let peer = link.path[next_idx].clone();
            let hop_cost = Cost::from_nanos(link.hop_latency_ns.get(hop_idx).copied().unwrap_or(0));
            let esp_on = link.sas.is_some();
            // Ghost walks exercise the real ESP path on **cloned** SAs:
            // seal/verify mutate sequence numbers and replay windows,
            // and a probe must not advance the live wire's state.
            let mut ghost_sas = if out.ghost { link.sas.clone() } else { None };
            for pkt in frames {
                let len = pkt.len() as u64;
                // Wire counters count logical frames at every hop of
                // the pinned path — a frame whose TTL is spent is still
                // on the wire here, and dies below.
                if !out.ghost {
                    link.count_hop(hop_idx, len);
                }
                out.io.overlay_hops += 1;
                out.io.cost += hop_cost;
                let sas = if out.ghost {
                    ghost_sas.as_deref_mut()
                } else {
                    link.sas.as_deref_mut()
                };
                if let Some(sas) = sas {
                    let per_dir = self.esp_fixed_ns as f64 + self.esp_ns_per_byte * len as f64;
                    out.io.cost += Cost::from_nanos((2.0 * per_dir) as u64);
                    if let Err(reason) = protect(sas, pkt.data()) {
                        out.drop(from, reason, 1, format_args!("vid {vid}"));
                        continue;
                    }
                    out.io.protected_bytes += len;
                }
                if let Some(f) = &out.flight {
                    f.hop(
                        from,
                        HopKind::OverlayHop {
                            vid,
                            from: from.to_string(),
                            to: peer.clone(),
                            hop: hop_idx,
                            esp: esp_on,
                            ttl_left,
                        },
                    );
                }
                survivors.push(pkt);
            }
            peer
        };
        let k = survivors.len();
        if k == 0 {
            return;
        }
        out.count("overlay_frames", k as u64);
        // ttl_left counts remaining crossings: a frame seeded with
        // overlay_ttl may cross exactly that many times.
        if ttl_left == 0 {
            let detail = format_args!("overlay TTL expired on vid {vid}");
            return out.drop(from, DropReason::OverlayLoop, k, detail);
        }
        if self.crossings.fetch_add(k as u64, Ordering::AcqRel) >= self.crossing_cap {
            return out.drop(from, DropReason::OverlayWorkExhausted, k, "");
        }
        let mut pool = self.pool.lock().expect("shuttle pool poisoned");
        let cell = match pool.cell(&peer, &self.fabric) {
            Ok(cell) => cell,
            Err(reason) => return out.drop(&peer, reason, k, ""),
        };
        let Some(fid) = cell.fabric_id else {
            let detail = format_args!("peer has no fabric port");
            return out.drop(&peer, DropReason::OverlayUnroutable, k, detail);
        };
        self.in_flight.fetch_add(k, Ordering::Release);
        cell.push(ttl_left - 1, survivors.into_iter().map(|p| (fid, p)));
        pool.mark_ready(&peer);
        drop(pool);
        self.work_ready.notify_all();
    }
}

/// Protect one frame across the wire: real ESP seal on egress, real
/// verify+open on ingress. A frame that fails either never reaches the
/// peer; the error says which drop it died of.
fn protect(
    sas: &mut (SecurityAssociation, SecurityAssociation),
    frame: &[u8],
) -> Result<(), DropReason> {
    let (sa_out, sa_in) = sas;
    let sealed = esp::encapsulate(sa_out, frame).map_err(|_| DropReason::OverlayEspSealFail)?;
    match esp::decapsulate(sa_in, &sealed) {
        Ok(inner) if inner == frame => Ok(()),
        _ => Err(DropReason::OverlayEspVerifyFail),
    }
}

impl LinkState {
    /// Count one logical frame of `len` bytes presented to hop
    /// `hop_idx` of the pinned path: a frame riding an n-hop wire adds
    /// n to `packets` and one to each `hop_packets[i]`.
    fn count_hop(&mut self, hop_idx: usize, len: u64) {
        self.packets += 1;
        self.bytes += len;
        if let Some(hp) = self.hop_packets.get_mut(hop_idx) {
            *hp += 1;
        }
        if let Some(hb) = self.hop_bytes.get_mut(hop_idx) {
            *hb += len;
        }
    }
}

impl Domain {
    /// Run one burst of `(node, port, frame)` triples across the
    /// domain until every resulting frame left on a real egress or
    /// died, on `workers` threads, with `flight` riding along.
    pub(super) fn shuttle<N, P>(
        &mut self,
        ingress: impl IntoIterator<Item = (N, P, Packet)>,
        workers: usize,
        flight: Option<Arc<TraceSink>>,
    ) -> DomainIo
    where
        N: AsRef<str>,
        P: AsRef<str>,
    {
        let ttl = self.config.overlay_ttl.max(1);
        let mut pool = Pool {
            cells: BTreeMap::new(),
            nodes: std::mem::take(&mut self.nodes),
            ready: VecDeque::new(),
        };
        let mut seed_out = WorkerOut::new(flight.clone());
        let seeded = seed(
            &mut pool,
            &mut seed_out,
            ingress,
            ttl,
            &self.config.fabric_port,
        );
        let shuttle = Arc::new(Shuttle {
            pool: Mutex::new(pool),
            links: std::mem::take(&mut self.links),
            work_ready: Condvar::new(),
            in_flight: AtomicUsize::new(seeded),
            crossings: AtomicU64::new(0),
            crossing_cap: (seeded as u64).saturating_mul(u64::from(ttl)),
            aborted: AtomicBool::new(false),
            outs: Mutex::new(vec![seed_out]),
            flight,
            fabric: self.config.fabric_port.clone(),
            esp_fixed_ns: self.config.esp_fixed_ns,
            esp_ns_per_byte: self.config.esp_ns_per_byte,
        });
        // Dispatch: inline for one worker — or when nothing was seeded,
        // so a fully mis-addressed burst spawns no thread to drain
        // nothing — and one round on the persistent shard runtime
        // (built on first use, rebuilt when the worker count changes)
        // otherwise. A worker panic is caught so claimed state is still
        // restored to the fleet map, then re-raised.
        let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if workers <= 1 || seeded == 0 {
                return shuttle.drain();
            }
            if self.runtime.as_ref().is_none_or(|r| r.workers() != workers) {
                self.runtime = Some(ShardRuntime::new(workers));
            }
            let shuttle = Arc::clone(&shuttle);
            self.runtime
                .as_mut()
                .expect("built above")
                .run(move |_| shuttle.drain());
        }));
        // The round is over (even on panic `run` waits out the
        // stragglers), so ours is the last reference.
        let shuttle = Arc::try_unwrap(shuttle)
            .ok()
            .expect("all shard workers released the shuttle");
        self.land(shuttle, round)
    }

    /// Move the shuttle's state back into the domain — also after a
    /// worker panic, which then propagates (minus any node in flight at
    /// that instant: lost with the call) — and fold the workers'
    /// tallies into the call's result and the domain counters.
    fn land(&mut self, shuttle: Shuttle, round: std::thread::Result<()>) -> DomainIo {
        let pool = shuttle
            .pool
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.nodes = pool.nodes;
        for (name, cell) in pool.cells {
            if let Some(managed) = cell.managed {
                self.nodes.insert(name, managed);
            }
        }
        self.links = shuttle.links;
        if let Err(panic) = round {
            std::panic::resume_unwind(panic);
        }
        let outs = shuttle
            .outs
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut io = DomainIo::default();
        for mut worker in outs {
            io.emitted.append(&mut worker.io.emitted);
            io.cost += worker.io.cost;
            io.overlay_hops += worker.io.overlay_hops;
            io.protected_bytes += worker.io.protected_bytes;
            for (name, n) in worker.counters {
                self.trace.count(name, n);
            }
        }
        io
    }
}

/// Queue the ingress burst on its nodes, resolving each port name
/// once; returns how many frames made it onto a cell.
fn seed<N, P>(
    pool: &mut Pool,
    out: &mut WorkerOut,
    ingress: impl IntoIterator<Item = (N, P, Packet)>,
    ttl: u32,
    fabric: &str,
) -> usize
where
    N: AsRef<str>,
    P: AsRef<str>,
{
    let mut ingressed = 0u64;
    let mut seeded = 0usize;
    for (node, port, pkt) in ingress {
        ingressed += 1;
        let (node, port) = (node.as_ref(), port.as_ref());
        let cell = match pool.cell(node, fabric) {
            Ok(cell) => cell,
            Err(reason) => {
                out.drop(node, reason, 1, "");
                continue;
            }
        };
        let managed = cell.managed.as_mut().expect("no worker running yet");
        // An unknown port is the node's drop to book, not ours.
        let Some(pid) = managed.node.ingress_port(port, out.flight.as_deref()) else {
            continue;
        };
        if let Some(f) = &out.flight {
            f.hop(
                node,
                HopKind::Ingress {
                    port: port.to_string(),
                },
            );
        }
        cell.push(ttl, [(pid, pkt)]);
        seeded += 1;
        pool.mark_ready(node);
    }
    out.count("domain_frames_ingress", ingressed);
    seeded
}
