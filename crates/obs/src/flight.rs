//! Flight recorder: per-frame hop-by-hop trace records.
//!
//! A [`TraceSink`] rides along with exactly one injected frame (and
//! every instance fan-out mints from it) while the data plane runs for
//! real: each layer — domain shuttle, node fabric, LSI classifier, NF
//! driver — appends one [`HopRecord`] per crossing. The result is a
//! [`PacketTrace`]: a machine-readable walk that renders as a readable
//! story (`PacketTrace::render`).
//!
//! Two recording modes share the same machinery:
//!
//! * **Traced** (`ghost = false`): the real hot path with every counter
//!   advancing normally; used by `Domain::inject_traced` and proven
//!   byte-identical to untraced injection by property test.
//! * **Ghost** (`ghost = true`): a synthetic frame walks the genuine
//!   pipeline but no orchestrator counter moves — LSI port/table stats,
//!   microflow caches, link counters and the conservation ledger all
//!   stay untouched, and overlay ESP runs on cloned security
//!   associations. The NFs it crosses run for real, so *their* state
//!   does move (NAT / conntrack bindings, XFRM sequence numbers and
//!   replay windows, the host's counters); only a model of the NF
//!   (ROADMAP item 2's `NfModel`) could spare it. Used by
//!   `POST /domain/trace` and by un-verify's counterexample witnesses.
//!
//! [`DropReason`] is the one typed vocabulary for frame death, shared
//! by the conservation ledger ([`FrameLedger`]), metrics labels, and
//! trace records; [`Accounting::drop`] is the one place a frame death
//! is counted and recorded, in the node fabric and the shuttle alike.

use std::collections::VecDeque;
use std::fmt;
use std::ops::AddAssign;
use std::sync::Mutex;

/// Default capacity of the per-domain ring of recent real traces.
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// Every way a frame instance can die, as one typed vocabulary.
///
/// Every variant but the last is a drop cause of the conservation
/// ledger (`ingress + fanout == egress + absorbed + drops`) with its
/// own slot in [`FrameLedger`]; [`DropReason::as_str`] yields the exact
/// counter name each cause has always had, so dashboards keyed on the
/// stringly-typed names keep working. [`DropReason::TableMiss`] is
/// trace-only and stays last: the ledger books a classifier miss as
/// *absorbed*, but a trace still wants to say why the walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    // -- node-level (fabric) drop causes
    /// Fabric TTL expired: the frame revisited LSIs too many times.
    FabricLoop,
    /// The per-batch fabric work budget ran out.
    FabricWorkExhausted,
    /// A frame was queued for a graph slot that no longer exists.
    FabricDeadSlot,
    /// Injection named a port the node does not have.
    InjectUnknownPort,
    /// An LSI-0 output port has no fabric mapping.
    L0UnmappedPort,
    /// A graph-LSI output port has no fabric mapping.
    GraphUnmappedPort,
    /// A graph-LSI output points at an NF port with no instance.
    GraphUnmappedNfPort,
    // -- domain-level (shuttle/overlay) drop causes
    /// Injection named a node that is not serving.
    InjectDeadNode,
    /// Injection named a node the domain does not know.
    InjectUnknownNode,
    /// A frame left on an overlay attach port without a VLAN tag.
    OverlayUntagged,
    /// A frame's VLAN tag matches no live overlay link.
    OverlayUnroutable,
    /// A frame surfaced on a node that is not on its link's path.
    OverlayForeign,
    /// ESP encapsulation failed at an overlay hop.
    OverlayEspSealFail,
    /// ESP authentication/decapsulation failed at an overlay hop.
    OverlayEspVerifyFail,
    /// Overlay TTL expired: the frame crossed links too many times.
    OverlayLoop,
    /// The domain crossing budget ran out.
    OverlayWorkExhausted,
    // -- trace-only terminators (ledger: absorbed, not dropped)
    /// No flow rule matched; the pipeline absorbed the frame.
    TableMiss,
}

impl DropReason {
    /// Every reason, in declaration order: `ALL[r as usize] == r`. Sized
    /// by the last variant, so a reason added before it cannot be left
    /// out.
    pub const ALL: [DropReason; DropReason::TableMiss as usize + 1] = [
        DropReason::FabricLoop,
        DropReason::FabricWorkExhausted,
        DropReason::FabricDeadSlot,
        DropReason::InjectUnknownPort,
        DropReason::L0UnmappedPort,
        DropReason::GraphUnmappedPort,
        DropReason::GraphUnmappedNfPort,
        DropReason::InjectDeadNode,
        DropReason::InjectUnknownNode,
        DropReason::OverlayUntagged,
        DropReason::OverlayUnroutable,
        DropReason::OverlayForeign,
        DropReason::OverlayEspSealFail,
        DropReason::OverlayEspVerifyFail,
        DropReason::OverlayLoop,
        DropReason::OverlayWorkExhausted,
        DropReason::TableMiss,
    ];

    /// The canonical counter/label name (the ledger's historical
    /// stringly-typed vocabulary, now derived from the enum).
    pub const fn as_str(self) -> &'static str {
        match self {
            DropReason::FabricLoop => "fabric_loop_drops",
            DropReason::FabricWorkExhausted => "fabric_work_exhausted",
            DropReason::FabricDeadSlot => "fabric_dead_slot",
            DropReason::InjectUnknownPort => "inject_unknown_port",
            DropReason::L0UnmappedPort => "l0_unmapped_port",
            DropReason::GraphUnmappedPort => "graph_unmapped_port",
            DropReason::GraphUnmappedNfPort => "graph_unmapped_nf_port",
            DropReason::InjectDeadNode => "inject_dead_node",
            DropReason::InjectUnknownNode => "inject_unknown_node",
            DropReason::OverlayUntagged => "overlay_untagged_drop",
            DropReason::OverlayUnroutable => "overlay_unroutable_drop",
            DropReason::OverlayForeign => "overlay_foreign_drop",
            DropReason::OverlayEspSealFail => "overlay_esp_seal_fail",
            DropReason::OverlayEspVerifyFail => "overlay_esp_verify_fail",
            DropReason::OverlayLoop => "overlay_loop_drops",
            DropReason::OverlayWorkExhausted => "overlay_work_exhausted",
            DropReason::TableMiss => "table_miss",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The frame-conservation ledger, `ingress + fanout_extra == egress +
/// absorbed + Σ drops`, with one slot per drop cause. A node and a
/// domain each own one, written only by [`Accounting::settle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameLedger {
    /// Frames handed to the domain, pre-validation.
    pub ingress: u64,
    /// Frames that left the domain on a real egress port.
    pub egress: u64,
    /// Extra frame instances minted by fan-out.
    pub fanout_extra: u64,
    /// Frame instances consumed with no output (table miss, NF sink).
    pub absorbed: u64,
    /// Drops by cause, indexed by `DropReason as usize` (`TableMiss`
    /// books as absorbed: see [`FrameLedger::slot`]).
    drops: [u64; DropReason::TableMiss as usize],
}

impl FrameLedger {
    /// The one cell a death for `reason` is booked in: its drop slot,
    /// or `absorbed` for a classifier miss.
    fn slot(&mut self, reason: DropReason) -> &mut u64 {
        match reason {
            DropReason::TableMiss => &mut self.absorbed,
            r => &mut self.drops[r as usize],
        }
    }

    /// Frames that died for `reason` (always 0 for `TableMiss`).
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drops.get(reason as usize).copied().unwrap_or(0)
    }

    /// The non-zero terms under the counter names `/metrics` has always
    /// shown them by.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        [
            ("domain_frames_ingress", self.ingress),
            ("domain_frames_egress", self.egress),
            ("fabric_fanout_extra", self.fanout_extra),
            ("fabric_absorbed", self.absorbed),
        ]
        .into_iter()
        .chain(DropReason::ALL.map(|r| (r.as_str(), self.drops(r))))
        .filter(|&(_, n)| n > 0)
    }
}

impl AddAssign for FrameLedger {
    fn add_assign(&mut self, rhs: FrameLedger) {
        self.ingress += rhs.ingress;
        self.egress += rhs.egress;
        self.fanout_extra += rhs.fanout_extra;
        self.absorbed += rhs.absorbed;
        for (slot, n) in self.drops.iter_mut().zip(rhs.drops) {
            *slot += n;
        }
    }
}

/// The books of one call through the data plane — the node fabric's
/// walk or the domain shuttle: the recorder riding along, the ghost
/// flag (read off the recorder once, so the two cannot travel apart)
/// and what the call owes its owner's [`FrameLedger`]. With one `drop`
/// and one `settle`, "ghost ⇒ the ledger does not move" and "slot delta
/// == drop hops recorded" hold for every drop by construction.
pub struct Accounting<'a> {
    flight: Option<&'a TraceSink>,
    ghost: bool,
    delta: FrameLedger,
}

impl<'a> Accounting<'a> {
    /// Books for one call, with `flight` riding along if present.
    pub fn new(flight: Option<&'a TraceSink>) -> Self {
        Accounting {
            flight,
            ghost: flight.is_some_and(TraceSink::ghost),
            delta: FrameLedger::default(),
        }
    }

    /// The recorder riding along, if any.
    #[inline]
    pub fn flight(&self) -> Option<&'a TraceSink> {
        self.flight
    }

    /// Ghost walk: every decision taken, every counter frozen.
    #[inline]
    pub fn ghost(&self) -> bool {
        self.ghost
    }

    /// `n` frames entered the domain.
    pub fn ingress(&mut self, n: u64) {
        self.delta.ingress += n;
    }

    /// `n` frames left the domain on real egress ports.
    pub fn egress(&mut self, n: u64) {
        self.delta.egress += n;
    }

    /// One processing step turned one frame into `k`: `k == 0` is
    /// absorbed, `k > 1` minted `k - 1` new instances.
    pub fn produced(&mut self, k: usize) {
        match k {
            0 => self.delta.absorbed += 1,
            k => self.delta.fanout_extra += (k - 1) as u64,
        }
    }

    /// `n` frame instances died at `at` for `reason`: one slot moves by
    /// `n`, and a recorder riding along gets one drop hop per frame.
    pub fn drop(&mut self, at: &str, reason: DropReason, n: u64, detail: impl fmt::Display) {
        *self.delta.slot(reason) += n;
        if let Some(f) = self.flight {
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

    /// Add what the call owes to `ledger` — nothing for a ghost.
    pub fn settle(self, ledger: &mut FrameLedger) {
        if !self.ghost {
            *ledger += self.delta;
        }
    }
}

/// Which classifier stage resolved (or failed to resolve) a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierStage {
    /// Served by the microflow cache, which is keyed by the bits the
    /// table's rules can read: on a table that only steers by port /
    /// vid, every flow after the first of its port reports this stage,
    /// whether or not that 5-tuple was seen before.
    Microflow,
    /// Served by a mask table whose mask covers only whole fields (the
    /// first lookup of a class since the table last changed).
    Exact,
    /// Served by a mask table with a partially-masked field.
    Megaflow,
    /// Served by the residual wildcard linear scan.
    Wildcard,
    /// No entry matched.
    Miss,
    /// Resolved by static analysis (un-verify witness walks), where no
    /// classifier ran at all.
    Static,
}

impl ClassifierStage {
    /// Short lowercase label for rendering and metrics.
    pub const fn as_str(self) -> &'static str {
        match self {
            ClassifierStage::Microflow => "microflow",
            ClassifierStage::Exact => "exact",
            ClassifierStage::Megaflow => "megaflow",
            ClassifierStage::Wildcard => "wildcard",
            ClassifierStage::Miss => "miss",
            ClassifierStage::Static => "static",
        }
    }
}

impl fmt::Display for ClassifierStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened at one hop of a frame's walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopKind {
    /// The frame entered the data plane on a named port.
    Ingress { port: String },
    /// An LSI's flow table resolved the frame.
    Classify {
        /// LSI name (e.g. `LSI-0` or a graph LSI).
        lsi: String,
        /// Which classifier stage answered.
        stage: ClassifierStage,
        /// The matched rule's cookie (`None` on a miss).
        cookie: Option<u64>,
        /// The matched rule's priority (`None` on a miss).
        priority: Option<u16>,
        /// Output copies this classification produced.
        outputs: u32,
    },
    /// The frame crossed the NF boundary and came back.
    NfDeliver {
        /// Instance id (e.g. `fw@n1`).
        instance: String,
        /// Functional type (e.g. `bridge`).
        nf_type: String,
        /// Execution flavor (driver), e.g. `native`, `docker`.
        flavor: String,
        /// Modeled one-way+return delivery latency.
        latency_ns: u64,
    },
    /// The frame crossed one pinned hop of an overlay link.
    OverlayHop {
        /// Overlay VLAN id of the link.
        vid: u16,
        /// Transmitting node of this hop.
        from: String,
        /// Receiving node of this hop.
        to: String,
        /// Hop index into the link's pinned path.
        hop: usize,
        /// The hop carried the frame sealed: its link is ESP-protected
        /// (sealed at the link's head, opened at its tail).
        esp: bool,
        /// Overlay TTL remaining *after* the decrement at this hop.
        ttl_left: u32,
    },
    /// The frame left the domain on a real egress port.
    Egress { port: String },
    /// The frame instance died, with the typed cause.
    Drop { reason: DropReason, detail: String },
}

/// One hop of a frame's walk: where it happened plus what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// Recording order (0-based) within the trace.
    pub seq: u32,
    /// The node where the hop happened (transmitting node for overlay
    /// hops, `domain` for pre-node inject failures).
    pub node: String,
    /// What happened.
    pub kind: HopKind,
}

impl HopRecord {
    fn render(&self) -> String {
        let body = match &self.kind {
            HopKind::Ingress { port } => format!("ingress port={port}"),
            HopKind::Classify {
                lsi,
                stage,
                cookie,
                priority,
                outputs,
            } => {
                let rule = match (cookie, priority) {
                    (Some(c), Some(p)) => format!(" cookie={c:#x} prio={p}"),
                    _ => String::new(),
                };
                format!("classify lsi={lsi} stage={stage}{rule} outputs={outputs}")
            }
            HopKind::NfDeliver {
                instance,
                nf_type,
                flavor,
                latency_ns,
            } => format!("nf {instance} type={nf_type} flavor={flavor} latency={latency_ns}ns"),
            HopKind::OverlayHop {
                vid,
                from,
                to,
                hop,
                esp,
                ttl_left,
            } => {
                let esp = if *esp { " esp" } else { "" };
                format!("overlay vid={vid} hop={hop} {from}->{to}{esp} ttl={ttl_left}")
            }
            HopKind::Egress { port } => format!("egress port={port}"),
            HopKind::Drop { reason, detail } => {
                if detail.is_empty() {
                    format!("DROP reason={reason}")
                } else {
                    format!("DROP reason={reason} ({detail})")
                }
            }
        };
        format!("[{:>2}] {:<12} {}", self.seq, self.node, body)
    }
}

/// The complete recorded walk of one injected frame (and every
/// instance fanned out from it).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketTrace {
    /// Node the frame was injected at.
    pub origin_node: String,
    /// Port the frame was injected on.
    pub origin_port: String,
    /// Whether this was a ghost walk (counters untouched).
    pub ghost: bool,
    /// Hops in recording order.
    pub hops: Vec<HopRecord>,
}

impl PacketTrace {
    /// How many frame instances reached a real egress port.
    pub fn egress_count(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| matches!(h.kind, HopKind::Egress { .. }))
            .count()
    }

    /// Typed reasons of every recorded drop, in order.
    pub fn drops(&self) -> Vec<DropReason> {
        self.hops
            .iter()
            .filter_map(|h| match &h.kind {
                HopKind::Drop { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect()
    }

    /// Render the walk as a readable multi-line story.
    pub fn render(&self) -> String {
        let mode = if self.ghost { " (ghost)" } else { "" };
        let mut out = format!(
            "trace of frame @ {}/{}{mode}: {} hop(s)\n",
            self.origin_node,
            self.origin_port,
            self.hops.len()
        );
        for hop in &self.hops {
            out.push_str("  ");
            out.push_str(&hop.render());
            out.push('\n');
        }
        out
    }
}

/// The recording endpoint a traced frame carries through the stack.
///
/// Lives on the stack of the traced call and is lent down it as
/// `&TraceSink`; exactly one frame is in flight per traced call, so a
/// plain mutex-guarded hop vector records through the shared borrow
/// without any hot-path cleverness. When no trace is
/// active the sink simply is not there (`Option<&TraceSink>` is `None`)
/// and the data plane pays nothing.
pub struct TraceSink {
    ghost: bool,
    inner: Mutex<PacketTrace>,
}

impl TraceSink {
    /// A sink for a frame injected at `node`/`port`.
    pub fn new(node: &str, port: &str, ghost: bool) -> Self {
        TraceSink {
            ghost,
            inner: Mutex::new(PacketTrace {
                origin_node: node.to_string(),
                origin_port: port.to_string(),
                ghost,
                hops: Vec::new(),
            }),
        }
    }

    /// True when counters must not move for this walk.
    #[inline]
    pub fn ghost(&self) -> bool {
        self.ghost
    }

    /// Append one hop record.
    pub fn hop(&self, node: &str, kind: HopKind) {
        let mut t = self.inner.lock().expect("trace sink poisoned");
        let seq = t.hops.len() as u32;
        t.hops.push(HopRecord {
            seq,
            node: node.to_string(),
            kind,
        });
    }

    /// Consume the sink, yielding the finished trace.
    pub fn finish(self) -> PacketTrace {
        self.inner.into_inner().expect("trace sink poisoned")
    }

    /// Clone the trace recorded so far.
    pub fn snapshot(&self) -> PacketTrace {
        self.inner.lock().expect("trace sink poisoned").clone()
    }
}

/// Bounded ring of recent completed traces (oldest evicted first).
pub struct TraceRing {
    capacity: usize,
    traces: VecDeque<PacketTrace>,
}

impl TraceRing {
    /// A ring retaining at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            traces: VecDeque::new(),
        }
    }

    /// Append a completed trace, evicting the oldest when full.
    pub fn push(&mut self, trace: PacketTrace) {
        if self.traces.len() == self.capacity {
            self.traces.pop_front();
        }
        self.traces.push_back(trace);
    }

    /// Snapshot of retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<PacketTrace> {
        self.traces.iter().cloned().collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no trace is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_drop_reason_has_a_distinct_name_and_one_ledger_slot() {
        let mut names: Vec<&str> = DropReason::ALL.iter().map(|r| r.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DropReason::ALL.len(), "duplicate name");
        let mut all = FrameLedger::default();
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i, "ALL is in declaration order");
            // Booking one death moves exactly one term by one.
            let mut one = FrameLedger::default();
            *one.slot(reason) += 1;
            let terms = [one.ingress, one.egress, one.fanout_extra, one.absorbed];
            let dropped: u64 = DropReason::ALL.map(|r| one.drops(r)).iter().sum();
            let moved: u64 = terms.iter().sum::<u64>() + dropped;
            assert_eq!(moved, 1, "{reason}");
            all += one;
        }
        // Distinct slots: each drop cause holds exactly its own one.
        for reason in DropReason::ALL {
            let expect = u64::from(reason != DropReason::TableMiss);
            assert_eq!(all.drops(reason), expect, "{reason}");
        }
        // A classifier miss is absorbed, never a drop.
        assert_eq!(all.absorbed, 1);

        assert!(all.counters().all(|(name, _)| name != "table_miss"));
    }

    #[test]
    fn accounting_settles_its_delta_unless_ghost() {
        for ghost in [false, true] {
            let sink = TraceSink::new("n1", "eth0", ghost);
            let mut acct = Accounting::new(Some(&sink));
            assert_eq!(acct.ghost(), ghost);
            acct.ingress(3);
            acct.produced(0);
            acct.produced(3);
            acct.drop("n1", DropReason::FabricLoop, 2, "");
            let mut ledger = FrameLedger::default();
            acct.settle(&mut ledger);
            let mut booked = FrameLedger {
                ingress: 3,
                fanout_extra: 2,
                absorbed: 1,
                ..FrameLedger::default()
            };
            *booked.slot(DropReason::FabricLoop) += 2;
            let expect = if ghost {
                FrameLedger::default()
            } else {
                booked
            };
            assert_eq!(ledger, expect, "ghost = {ghost}");
            // The recorder sees the drops either way.
            assert_eq!(sink.finish().drops().len(), 2);
        }
    }

    #[test]
    fn sink_records_in_order_and_renders() {
        let sink = TraceSink::new("n1", "eth0", false);
        sink.hop(
            "n1",
            HopKind::Ingress {
                port: "eth0".into(),
            },
        );
        sink.hop(
            "n1",
            HopKind::Classify {
                lsi: "LSI-0".into(),
                stage: ClassifierStage::Exact,
                cookie: Some(0xbeef),
                priority: Some(100),
                outputs: 1,
            },
        );
        sink.hop(
            "n1",
            HopKind::Drop {
                reason: DropReason::OverlayUntagged,
                detail: String::new(),
            },
        );
        let t = sink.finish();
        assert_eq!(t.hops.len(), 3);
        assert_eq!(t.hops[1].seq, 1);
        assert_eq!(t.drops(), vec![DropReason::OverlayUntagged]);
        let r = t.render();
        assert!(r.contains("stage=exact"));
        assert!(r.contains("cookie=0xbeef"));
        assert!(r.contains("DROP reason=overlay_untagged_drop"));
    }

    #[test]
    fn ring_bounds_retention() {
        let mut ring = TraceRing::new(2);
        for i in 0..3 {
            ring.push(PacketTrace {
                origin_node: format!("n{i}"),
                ..PacketTrace::default()
            });
        }
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].origin_node, "n1");
        assert_eq!(kept[1].origin_node, "n2");
    }
}
