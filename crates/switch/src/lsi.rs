//! The Logical Switch Instance.
//!
//! An LSI is what the node programs: named numbered ports, one priority
//! flow table behind the microflow cache, and counters. The orchestrator
//! creates one LSI per deployed NF-FG plus the base LSI-0 (paper
//! Figure 1) and compiles the graph into the table's rules, whose
//! actions are the four [`FlowAction`]s. Virtual links between LSIs and
//! NF ports are wired by the node fabric in `un-core`.

use std::collections::BTreeMap;
use std::fmt;

use un_packet::Packet;
use un_sim::{Cost, CostModel};

use crate::flow::{FlowAction, FlowEntry, TrafficClass};
use crate::table::{FlowTable, LookupHit, LookupPath, TableStats};

/// A switch port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u32);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Pipeline personality of an LSI. It has one value; the type stays
/// because the benchmark's stand-alone mirror of an LSI passes it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One table fronted by a microflow cache — OvS-like.
    SingleTableCached,
}

/// Per-port counters.
#[derive(Debug, Clone, Default)]
pub struct PortInfo {
    /// Human-readable name (e.g. `"to-vnf1:0"`, `"vlink-lsi0"`).
    pub name: String,
    /// Packets received on this port.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets transmitted out this port.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// Per-switch counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Packets processed.
    pub rx_packets: u64,
    /// Packets emitted (every copy of a multi-output rule counts).
    pub tx_packets: u64,
    /// Packets that emitted nothing (unknown ingress port, table miss,
    /// an action that could not apply), plus each output to a missing
    /// port.
    pub dropped: u64,
}

/// Everything that came out of processing one packet.
#[derive(Debug)]
pub struct ProcessResult {
    /// (egress port, packet) pairs, in emission order.
    pub outputs: Vec<(PortNo, Packet)>,
    /// Virtual time charged.
    pub cost: Cost,
}

/// What [`LogicalSwitch::process_into`] reports beside the outputs it
/// pushed.
#[derive(Debug)]
pub struct Processed {
    /// Virtual time charged.
    pub cost: Cost,
    /// How the table resolved the packet, when [`ProcessOptions::record`]
    /// asked for it and the ingress port exists.
    pub step: Option<PipelineStep>,
}

/// How the table resolved the packet (flight-recorder provenance). A
/// `hit` of `None` is a table miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStep {
    /// The winning rule's provenance (stage, cookie, priority), or
    /// `None` when no rule matched.
    pub hit: Option<LookupHit>,
    /// Output copies the rule's actions produced.
    pub outputs: u32,
}

/// Knobs for [`LogicalSwitch::process_into`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessOptions {
    /// Ghost walk: take every decision a real walk would, but move
    /// *no* counter — port/switch stats, flow-entry packet/byte counts,
    /// classifier stats, the microflow cache and its memo all stay
    /// untouched.
    pub ghost: bool,
    /// Record the [`PipelineStep`].
    pub record: bool,
}

/// Errors from control-plane operations on an LSI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// Port number already in use.
    PortExists(u32),
    /// Port not found.
    NoSuchPort(u32),
    /// Table index other than 0.
    NoSuchTable(u8),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::PortExists(p) => write!(f, "port {p} already exists"),
            SwitchError::NoSuchPort(p) => write!(f, "no such port {p}"),
            SwitchError::NoSuchTable(t) => write!(f, "no such table {t}"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// A Logical Switch Instance.
#[derive(Debug)]
pub struct LogicalSwitch {
    /// Switch name, e.g. `"LSI-0"` or `"LSI-g1"`.
    pub name: String,
    /// Datapath id (unique per node).
    pub dpid: u64,
    table: FlowTable,
    ports: BTreeMap<PortNo, PortInfo>,
    /// Advanced on every port added or removed.
    port_generation: u64,
    /// Aggregate counters.
    pub stats: SwitchStats,
}

impl LogicalSwitch {
    /// Create an LSI. The `Backend` argument stays for the benchmark's
    /// mirror, which passes [`LogicalSwitch::backend`] through.
    pub fn new(name: &str, dpid: u64, _backend: Backend) -> Self {
        LogicalSwitch {
            name: name.to_string(),
            dpid,
            table: FlowTable::new(),
            ports: BTreeMap::new(),
            port_generation: 0,
            stats: SwitchStats::default(),
        }
    }

    /// The pipeline personality (kept for the benchmark's mirror).
    pub fn backend(&self) -> Backend {
        Backend::SingleTableCached
    }

    /// Add a port.
    pub fn add_port(&mut self, no: PortNo, name: &str) -> Result<(), SwitchError> {
        if self.ports.contains_key(&no) {
            return Err(SwitchError::PortExists(no.0));
        }
        self.ports.insert(
            no,
            PortInfo {
                name: name.to_string(),
                ..Default::default()
            },
        );
        self.port_generation += 1;
        Ok(())
    }

    /// Remove a port.
    pub fn remove_port(&mut self, no: PortNo) -> Result<(), SwitchError> {
        self.ports
            .remove(&no)
            .ok_or(SwitchError::NoSuchPort(no.0))?;
        self.port_generation += 1;
        Ok(())
    }

    /// The port set's generation: advanced on every port added or
    /// removed, so a reader that saw one value knows the ports are as
    /// they were while it reads the same.
    pub fn port_generation(&self) -> u64 {
        self.port_generation
    }

    /// Port metadata/counters.
    pub fn port(&self, no: PortNo) -> Option<&PortInfo> {
        self.ports.get(&no)
    }

    /// Iterate ports in numeric order.
    pub fn ports(&self) -> impl Iterator<Item = (PortNo, &PortInfo)> {
        self.ports.iter().map(|(k, v)| (*k, v))
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Install a flow entry. Only table 0 exists; the index stays in
    /// the signature for the benchmark's mirror.
    pub fn install(&mut self, table: u8, entry: FlowEntry) -> Result<(), SwitchError> {
        if table != 0 {
            return Err(SwitchError::NoSuchTable(table));
        }
        self.table.insert(entry);
        Ok(())
    }

    /// Remove all entries with `cookie`; returns count.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        self.table.remove_by_cookie(cookie)
    }

    /// Remove the first entry of `class` that `gone` picks
    /// ([`FlowTable::remove_first`]); returns whether one went.
    pub fn remove_first(
        &mut self,
        class: TrafficClass,
        gone: impl FnMut(&FlowEntry) -> bool,
    ) -> bool {
        self.table.remove_first(class, gone)
    }

    /// Installed entries.
    pub fn flow_count(&self) -> usize {
        self.table.len()
    }

    /// The flow table, read-only (stats endpoints).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// `(0, table)`, in the indexed form the benchmark's mirror and the
    /// verifier's snapshot read.
    pub fn tables(&self) -> impl Iterator<Item = (u8, &FlowTable)> {
        std::iter::once((0, &self.table))
    }

    /// The table's fast-path counters.
    pub fn cache_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Microflow-cache population ([`FlowTable::cache_entries`]).
    pub fn cache_entries(&self) -> usize {
        self.table.cache_entries()
    }

    /// Process one packet arriving on `in_port`: the emitted packets
    /// and the virtual time charged. A packet that emits nothing counts
    /// as a drop. The benchmark measures this form.
    pub fn process(&mut self, in_port: PortNo, pkt: Packet, costs: &CostModel) -> ProcessResult {
        let mut outputs = Vec::new();
        let Processed { cost, .. } =
            self.process_into(in_port, pkt, costs, ProcessOptions::default(), &mut outputs);
        ProcessResult { outputs, cost }
    }

    /// The switch itself: one key extraction, as deep as the table's
    /// rules read, one lookup, one pass over the winning rule's actions,
    /// pushing (egress port, packet) pairs onto the caller's `outputs`
    /// in emission order, so a burst reuses one vector and a forwarded
    /// frame on a warm cache hit allocates nothing. A VLAN action that
    /// cannot apply (a push on a frame with no Ethernet header, a pop on
    /// an untagged frame) ends the action list; copies already output
    /// stay.
    pub fn process_into(
        &mut self,
        in_port: PortNo,
        mut pkt: Packet,
        costs: &CostModel,
        opts: ProcessOptions,
        outputs: &mut Vec<(PortNo, Packet)>,
    ) -> Processed {
        let ghost = opts.ghost;
        let len = pkt.len();
        let mut done = Processed {
            cost: Cost::ZERO,
            step: None,
        };

        let Some(pinfo) = self.ports.get_mut(&in_port) else {
            if !ghost {
                self.stats.dropped += 1;
            }
            return done;
        };
        if !ghost {
            pinfo.rx_packets += 1;
            pinfo.rx_bytes += len as u64;
            self.stats.rx_packets += 1;
        }

        let key = self.table.key_of(in_port, &pkt);
        let hit = if ghost {
            self.table.lookup_ghost_index(&key)
        } else {
            self.table.lookup_index(&key, len)
        };
        let outputs_at_entry = outputs.len();
        if let Some((idx, path)) = hit {
            done.cost += Cost::from_nanos(match path {
                LookupPath::CacheHit => costs.flow_cache_hit_ns,
                LookupPath::ExactHit => costs.flow_exact_hit_ns,
                LookupPath::MegaflowHit => costs.flow_megaflow_hit_ns,
                LookupPath::Miss => costs.flow_lookup_ns,
            });
            // The actions run off a borrow of `table` while `ports` and
            // `stats`, disjoint fields, take the counters.
            let actions = &self.table.entry(idx).actions;
            for (i, action) in actions.iter().enumerate() {
                done.cost += Cost::from_nanos(costs.flow_action_ns);
                match *action {
                    FlowAction::Output(out) => {
                        if let Some(op) = self.ports.get_mut(&out) {
                            if !ghost {
                                op.tx_packets += 1;
                                op.tx_bytes += pkt.len() as u64;
                                self.stats.tx_packets += 1;
                            }
                            // The last action: nothing reads the frame
                            // again, so it moves out.
                            let frame = if i + 1 == actions.len() {
                                std::mem::take(&mut pkt)
                            } else {
                                pkt.clone()
                            };
                            outputs.push((out, frame));
                        } else if !ghost {
                            self.stats.dropped += 1;
                        }
                    }
                    FlowAction::PushVlan(vid) => {
                        done.cost += Cost::from_nanos(costs.vlan_op_ns);
                        if pkt.vlan_push(vid).is_err() {
                            break;
                        }
                    }
                    FlowAction::PopVlan => {
                        done.cost += Cost::from_nanos(costs.vlan_op_ns);
                        if pkt.vlan_pop().is_err() {
                            break;
                        }
                    }
                    FlowAction::SetFwmark(mark) => pkt.meta.fwmark = mark,
                }
            }
        }

        // A table miss and an action list that output nothing are one
        // drop.
        let emitted = outputs.len() - outputs_at_entry;
        if !ghost && emitted == 0 {
            self.stats.dropped += 1;
        }
        if opts.record {
            done.step = Some(PipelineStep {
                hit: hit.map(|(idx, path)| self.table.hit(idx, path)),
                outputs: emitted as u32,
            });
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowAction, FlowEntry, FlowMatch, VlanSpec};
    use std::net::Ipv4Addr;
    use un_packet::ethernet::MacAddr;
    use un_packet::PacketBuilder;

    fn pkt() -> Packet {
        PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1000, 2000)
            .payload(b"payload")
            .build()
    }

    fn lsi() -> LogicalSwitch {
        let mut sw = LogicalSwitch::new("LSI-test", 1, Backend::SingleTableCached);
        sw.add_port(PortNo(1), "in").unwrap();
        sw.add_port(PortNo(2), "out").unwrap();
        sw.add_port(PortNo(3), "aux").unwrap();
        sw
    }

    #[test]
    fn forwards_on_match() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(
                10,
                FlowMatch::in_port(PortNo(1)),
                vec![FlowAction::Output(PortNo(2))],
            ),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[0].0, PortNo(2));
        assert!(res.cost.as_nanos() > 0);
        assert_eq!(sw.stats.rx_packets, 1);
        assert_eq!(sw.stats.tx_packets, 1);
        assert_eq!(sw.port(PortNo(2)).unwrap().tx_packets, 1);
    }

    #[test]
    fn each_port_added_or_removed_advances_the_port_generation() {
        let mut sw = lsi();
        let at = sw.port_generation();
        assert_eq!(at, 3, "three ports added");
        assert!(sw.add_port(PortNo(1), "again").is_err());
        assert!(sw.remove_port(PortNo(9)).is_err());
        assert_eq!(sw.port_generation(), at, "a refused change changes nothing");
        sw.remove_port(PortNo(3)).unwrap();
        sw.add_port(PortNo(3), "aux").unwrap();
        assert_eq!(
            sw.port_generation(),
            at + 2,
            "the same ports, seen changing"
        );
    }

    #[test]
    fn only_table_0_installs() {
        let mut sw = lsi();
        let entry = FlowEntry::new(1, FlowMatch::any(), vec![]);
        assert_eq!(
            sw.install(1, entry.clone()).unwrap_err(),
            SwitchError::NoSuchTable(1)
        );
        assert_eq!(sw.flow_count(), 0);
        assert!(sw.install(0, entry).is_ok());
        assert_eq!(
            sw.tables().map(|(i, t)| (i, t.len())).collect::<Vec<_>>(),
            [(0, 1)]
        );
    }

    #[test]
    fn table_miss_drops() {
        let mut sw = lsi();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert!(res.outputs.is_empty());
        assert_eq!(sw.stats.dropped, 1);
    }

    #[test]
    fn unknown_port_drops() {
        let mut sw = lsi();
        let res = sw.process(PortNo(99), pkt(), &CostModel::default());
        assert!(res.outputs.is_empty());
        assert_eq!(sw.stats.dropped, 1);
        assert_eq!(sw.stats.rx_packets, 0);
    }

    #[test]
    fn vlan_push_then_output_tags_packet() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(
                5,
                FlowMatch::in_port(PortNo(1)),
                vec![FlowAction::PushVlan(42), FlowAction::Output(PortNo(2))],
            ),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert_eq!(res.outputs[0].1.vlan_id(), Some(42));
    }

    #[test]
    fn set_fwmark_then_output_carries_the_mark() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(
                1,
                FlowMatch::in_port(PortNo(1)),
                vec![FlowAction::SetFwmark(7), FlowAction::Output(PortNo(2))],
            ),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[0].1.meta.fwmark, 7);
    }

    #[test]
    fn vlan_match_and_set() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(
                10,
                FlowMatch::in_port(PortNo(1)).with_vlan(VlanSpec::Id(10)),
                vec![
                    FlowAction::PopVlan,
                    FlowAction::PushVlan(20),
                    FlowAction::Output(PortNo(2)),
                ],
            ),
        )
        .unwrap();
        let mut p = pkt();
        p.vlan_push(10).unwrap();
        let res = sw.process(PortNo(1), p, &CostModel::default());
        assert_eq!(res.outputs[0].1.vlan_id(), Some(20));
    }

    /// A push on a frame with no Ethernet header and a pop on an
    /// untagged frame end the action list: the frame is not forwarded
    /// unchanged, a copy output before the failure still leaves, and a
    /// ghost walk takes the same decision without moving a counter.
    #[test]
    fn a_vlan_action_that_cannot_apply_ends_the_actions() {
        let out = FlowAction::Output(PortNo(2));
        let cases = [
            (
                vec![FlowAction::PushVlan(100), out.clone()],
                Packet::zeroed(10),
                0,
            ),
            (vec![FlowAction::PopVlan, out.clone()], pkt(), 0),
            (
                vec![FlowAction::Output(PortNo(3)), FlowAction::PopVlan, out],
                pkt(),
                1,
            ),
        ];
        for (actions, frame, left) in cases {
            for ghost in [false, true] {
                let mut sw = lsi();
                sw.install(0, FlowEntry::new(1, FlowMatch::any(), actions.clone()))
                    .unwrap();
                let mut outputs = Vec::new();
                let opts = ProcessOptions {
                    ghost,
                    record: true,
                };
                let done = sw.process_into(
                    PortNo(1),
                    frame.clone(),
                    &CostModel::default(),
                    opts,
                    &mut outputs,
                );
                let ports: Vec<PortNo> = outputs.iter().map(|(p, _)| *p).collect();
                assert_eq!(ports, vec![PortNo(3); left], "{actions:?} ghost={ghost}");
                assert_eq!(done.step.expect("recorded").outputs, left as u32);
                let (dropped, tx) = match (ghost, left) {
                    (true, _) => (0, 0),
                    (false, 0) => (1, 0),
                    (false, _) => (0, 1),
                };
                assert_eq!(sw.stats.dropped, dropped, "{actions:?} ghost={ghost}");
                assert_eq!(sw.stats.tx_packets, tx);
            }
        }
    }

    #[test]
    fn remove_by_cookie_returns_the_count() {
        let mut sw = lsi();
        for prio in [1, 2] {
            sw.install(
                0,
                FlowEntry::new(prio, FlowMatch::any(), vec![]).with_cookie(5),
            )
            .unwrap();
        }
        sw.install(
            0,
            FlowEntry::new(3, FlowMatch::any(), vec![]).with_cookie(6),
        )
        .unwrap();
        assert_eq!(sw.flow_count(), 3);
        assert_eq!(sw.remove_by_cookie(5), 2);
        assert_eq!(sw.flow_count(), 1);
    }

    #[test]
    fn port_management_errors() {
        let mut sw = lsi();
        assert_eq!(
            sw.add_port(PortNo(1), "dup").unwrap_err(),
            SwitchError::PortExists(1)
        );
        assert_eq!(
            sw.remove_port(PortNo(77)).unwrap_err(),
            SwitchError::NoSuchPort(77)
        );
        assert!(sw.remove_port(PortNo(3)).is_ok());
        assert_eq!(sw.port_count(), 2);
    }
}
