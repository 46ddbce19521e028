//! Typed reports: what the domain tells the outside about itself.
//!
//! Every report is a plain value — the frame-conservation ledger, the
//! modeled-vs-measured availability report, the per-link wire report.
//! How a report is *rendered* (JSON document, Prometheus exposition) is
//! the REST layer's business (`un-rest`'s `render` module); nothing in
//! this crate builds a document or writes a line of exposition text.

use std::collections::BTreeMap;

use un_obs::DropReason;

use super::{Domain, RepairPolicy};
use crate::standby::{AvailabilityReport, GraphAvailability, GraphPrediction, RepairKind};

/// Frame-conservation ledger across the whole domain.
///
/// Every frame instance the data plane ever created is accounted for:
/// `ingress + fanout_extra == egress + absorbed + dropped()`. Fan-out
/// (flood rules, multi-output NFs) mints `fanout_extra` new instances;
/// `absorbed` counts instances consumed with no output (table miss, NF
/// sink); every other death increments exactly one named drop counter.
/// The chaos suite holds the balance as an invariant after every
/// operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConservationReport {
    /// Frames handed to [`Domain::inject_batch`], pre-validation.
    pub ingress: u64,
    /// Frames that left the domain on a real egress port.
    pub egress: u64,
    /// Extra frame instances minted by fan-out.
    pub fanout_extra: u64,
    /// Frame instances consumed with no output.
    pub absorbed: u64,
    /// Every enumerated drop counter, by name (zero entries omitted).
    pub drops: BTreeMap<&'static str, u64>,
}

impl ConservationReport {
    /// Total frames that died to an enumerated drop cause.
    pub fn dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// True when every frame instance is accounted for.
    pub fn balanced(&self) -> bool {
        self.ingress + self.fanout_extra == self.egress + self.absorbed + self.dropped()
    }
}

/// One live overlay link: where it runs and what it has carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkReport {
    /// Overlay VLAN id (the link's key).
    pub vid: u16,
    /// The graph whose cut edge this wire stitches.
    pub graph: String,
    /// Node hosting the sending side.
    pub from: String,
    /// Node hosting the receiving side.
    pub to: String,
    /// Pinned fabric path `[from, …, to]`; length two when the nodes
    /// are adjacent (every full-mesh link).
    pub path: Vec<String>,
    /// True when the wire is ESP-protected.
    pub protected: bool,
    /// Frames on the wire, counted at **every** hop of the path
    /// (`path.len() - 1` hop crossings per end-to-end frame).
    pub packets: u64,
    /// Bytes on the wire, counted like `packets`. On a protected link
    /// that is the sealed length — the inner frame plus the outer
    /// header and ESP framing — at every hop: transit carries
    /// ciphertext.
    pub bytes: u64,
    /// Per-hop frame counts: hop `i` is the crossing `path[i] →
    /// path[i+1]`. Reset when a repair reroutes the wire.
    pub hop_packets: Vec<u64>,
    /// Per-hop byte counts, indexed like `hop_packets`; equal on every
    /// hop a frame crossed, since a protected link carries the same
    /// sealed bytes end to end.
    pub hop_bytes: Vec<u64>,
}

/// Node-level drop counter names of the conservation ledger, derived
/// from the shared [`DropReason`] enum so ledger terms, metric labels
/// and flight-recorder drop hops can never drift apart.
fn node_drop_counters() -> impl Iterator<Item = &'static str> {
    DropReason::NODE_DROPS.iter().map(|r| r.as_str())
}

/// Domain-level drop counter names of the conservation ledger (same
/// single source of truth: [`DropReason::DOMAIN_DROPS`]).
fn domain_drop_counters() -> impl Iterator<Item = &'static str> {
    DropReason::DOMAIN_DROPS.iter().map(|r| r.as_str())
}

/// Node-level counters that feed the conservation ledger. Folded into
/// the domain trace when a node carcass is replaced on rejoin, so the
/// ledger stays cumulative across the fleet's whole life. The first
/// two are the fan-out/absorption terms of the balance; the rest are
/// the drop causes.
pub(super) fn node_ledger_counters() -> impl Iterator<Item = &'static str> {
    ["fabric_absorbed", "fabric_fanout_extra"]
        .into_iter()
        .chain(node_drop_counters())
}

impl Domain {
    /// Every live overlay link, in vid order: endpoints, pinned path,
    /// protection and wire counters.
    pub fn link_reports(&self) -> Vec<LinkReport> {
        self.links
            .values()
            .map(|s| LinkReport {
                vid: s.link.vid,
                graph: s.graph.clone(),
                from: s.link.from_node.clone(),
                to: s.link.to_node.clone(),
                path: s.path.clone(),
                protected: s.sas.is_some(),
                packets: s.packets,
                bytes: s.bytes,
                hop_packets: s.hop_packets.clone(),
                hop_bytes: s.hop_bytes.clone(),
            })
            .collect()
    }

    /// The domain-wide frame-conservation ledger (see
    /// [`ConservationReport`]), summed from domain counters plus every
    /// node's fabric counters (including counters folded into the
    /// domain trace from replaced carcasses).
    pub fn conservation_report(&self) -> ConservationReport {
        let mut r = ConservationReport {
            ingress: self.trace.counter("domain_frames_ingress"),
            egress: self.trace.counter("domain_frames_egress"),
            fanout_extra: self.trace.counter("fabric_fanout_extra"),
            absorbed: self.trace.counter("fabric_absorbed"),
            drops: BTreeMap::new(),
        };
        // Node drop counters appear in the domain trace too: counters
        // folded in from replaced carcasses.
        for name in domain_drop_counters().chain(node_drop_counters()) {
            let n = self.trace.counter(name);
            if n > 0 {
                *r.drops.entry(name).or_insert(0) += n;
            }
        }
        for m in self.nodes.values() {
            r.fanout_extra += m.node.trace.counter("fabric_fanout_extra");
            r.absorbed += m.node.trace.counter("fabric_absorbed");
            for name in node_drop_counters() {
                let n = m.node.trace.counter(name);
                if n > 0 {
                    *r.drops.entry(name).or_insert(0) += n;
                }
            }
        }
        r
    }

    /// The modeled-vs-measured availability report: per deployed
    /// graph, predicted availability from exposure (nodes hosting
    /// parts), redundancy (standby staged or not), and repair policy —
    /// next to the measured downtime ledger the chaos suites validate
    /// the model against.
    pub fn availability_report(&self) -> AvailabilityReport {
        let ready = self.standby.ready_graphs();
        let reactive_kind = match self.config.repair {
            RepairPolicy::Incremental => RepairKind::Reactive,
            RepairPolicy::FromScratch => RepairKind::FromScratch,
        };
        let mtbf = self.config.node_mtbf_ns.max(1);
        let graphs: Vec<GraphPrediction> = self
            .graphs
            .iter()
            .map(|(gid, g)| {
                let exposed = g.partition.parts.len();
                let standby_ready = ready.contains(gid);
                let predicted_reactive_ns = self.calibration.predict(reactive_kind);
                let predicted_repair_ns = if standby_ready {
                    self.calibration.predict(RepairKind::StandbySwap)
                } else {
                    predicted_reactive_ns
                };
                // Each exposed node fails once per MTBF on average,
                // costing one predicted repair of downtime.
                let downtime_frac = exposed as f64 * predicted_repair_ns as f64 / mtbf as f64;
                GraphPrediction {
                    graph: gid.clone(),
                    exposed_nodes: exposed,
                    standby_ready,
                    predicted_repair_ns,
                    predicted_reactive_ns,
                    predicted_availability: (1.0 - downtime_frac).max(0.0),
                    ledger: self
                        .avail
                        .get(gid)
                        .cloned()
                        .unwrap_or_else(|| GraphAvailability::new(gid)),
                }
            })
            .collect();
        let (mut modeled, mut measured, mut events) = (0u64, 0u64, 0u64);
        for ledger in self.avail.values() {
            modeled += ledger.modeled_downtime_ns;
            measured += ledger.measured_downtime_ns;
            events += ledger.repairs;
        }
        AvailabilityReport {
            node_mtbf_ns: self.config.node_mtbf_ns,
            calibration: self.calibration.clone(),
            modeled_downtime_ns: modeled,
            measured_downtime_ns: measured,
            repair_events: events,
            graphs,
        }
    }
}
