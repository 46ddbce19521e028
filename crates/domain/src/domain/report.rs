//! Typed reports: what the domain tells the outside about itself.
//!
//! Every report is a plain value — the frame-conservation ledger, the
//! modeled-vs-measured availability report, the per-link wire report.
//! How a report is *rendered* (JSON document, Prometheus exposition) is
//! the REST layer's business (`un-rest`'s `render` module); nothing in
//! this crate builds a document or writes a line of exposition text.

use std::collections::BTreeMap;

use un_obs::{DropReason, FrameLedger};

use super::{Domain, RepairPolicy};
use crate::standby::{AvailabilityReport, GraphAvailability, GraphPrediction, RepairKind};

/// Frame-conservation ledger across the whole domain.
///
/// Every frame instance the data plane ever created is accounted for:
/// `ingress + fanout_extra == egress + absorbed + dropped()`. Fan-out
/// (flood rules, multi-output NFs) mints `fanout_extra` new instances;
/// `absorbed` counts instances consumed with no output (table miss, NF
/// sink); every other death increments exactly one typed drop slot of
/// a [`FrameLedger`], reported here by its counter name. The chaos
/// suite holds the balance as an invariant after every operation.
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

    /// The shuttle's share of the conservation ledger, plus replaced
    /// node carcasses' shares.
    pub fn frame_ledger(&self) -> &FrameLedger {
        &self.frame_ledger
    }

    /// The domain-wide frame-conservation ledger (see
    /// [`ConservationReport`]): the domain's ledger plus every node's.
    pub fn conservation_report(&self) -> ConservationReport {
        let mut total = self.frame_ledger;
        for m in self.nodes.values() {
            total += *m.node.frame_ledger();
        }
        let drops = DropReason::ALL.map(|r| (r.as_str(), total.drops(r)));
        ConservationReport {
            ingress: total.ingress,
            egress: total.egress,
            fanout_extra: total.fanout_extra,
            absorbed: total.absorbed,
            drops: drops.into_iter().filter(|&(_, n)| n > 0).collect(),
        }
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
