//! The Logical Switch Instance.
//!
//! An LSI is a software switch with named numbered ports, one or more
//! flow tables, and counters. The orchestrator creates one LSI per
//! deployed NF-FG plus the base LSI-0 (paper Figure 1); virtual links
//! between LSIs and NF ports are wired by the node fabric in `un-core`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use un_packet::Packet;
use un_sim::{Cost, CostModel};

use crate::flow::{FlowAction, FlowEntry};
use crate::key::PacketKey;
use crate::table::{FlowTable, LookupHit, LookupPath, TableStats};

/// A switch port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u32);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// Pipeline personality of an LSI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One table fronted by a microflow cache — OvS-like.
    SingleTableCached,
    /// A fixed pipeline of `n` tables chained by `GotoTable` — xDPd-like.
    MultiTable(u8),
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
    /// Packets emitted (counting clones from flood).
    pub tx_packets: u64,
    /// Packets dropped (no match / drop action / bad port).
    pub dropped: u64,
    /// Packets punted to the controller.
    pub controller_punts: u64,
}

/// Everything that came out of processing one packet.
#[derive(Debug)]
pub struct ProcessResult {
    /// (egress port, packet) pairs, in emission order.
    pub outputs: Vec<(PortNo, Packet)>,
    /// Packet punted to the controller, if any.
    pub punted: Option<Packet>,
    /// Virtual time charged.
    pub cost: Cost,
    /// Per-table classification provenance, in pipeline order. Empty
    /// unless [`ProcessOptions::record`] asked for it — the normal hot
    /// path allocates nothing here.
    pub steps: Vec<PipelineStep>,
}

/// What [`LogicalSwitch::process_into`] reports beside the outputs it
/// pushed: a [`ProcessResult`] without the vector.
#[derive(Debug)]
pub struct Processed {
    /// Packet punted to the controller, if any.
    pub punted: Option<Packet>,
    /// Virtual time charged.
    pub cost: Cost,
    /// As [`ProcessResult::steps`].
    pub steps: Vec<PipelineStep>,
}

/// How one pipeline table resolved the packet (flight-recorder
/// provenance). A `hit` of `None` is a table miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStep {
    /// Pipeline table index.
    pub table: u8,
    /// The winning rule's provenance (stage, cookie, priority), or
    /// `None` when no rule matched.
    pub hit: Option<LookupHit>,
    /// Output copies this table's actions produced.
    pub outputs: u32,
}

/// Knobs for [`LogicalSwitch::process_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessOptions {
    /// Ghost walk: take every decision the real pipeline would, but
    /// move *no* counter — port/switch stats, flow-entry packet/byte
    /// counts, classifier stats and the microflow cache all stay
    /// untouched.
    pub ghost: bool,
    /// Record one [`PipelineStep`] per table visited.
    pub record: bool,
}

/// Errors from control-plane operations on an LSI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// Port number already in use.
    PortExists(u32),
    /// Port not found.
    NoSuchPort(u32),
    /// Table index out of range for this backend.
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
    backend: Backend,
    tables: Vec<FlowTable>,
    ports: BTreeMap<PortNo, PortInfo>,
    /// Aggregate counters.
    pub stats: SwitchStats,
}

impl LogicalSwitch {
    /// Create an LSI with the given pipeline personality.
    pub fn new(name: &str, dpid: u64, backend: Backend) -> Self {
        let n_tables = match backend {
            Backend::SingleTableCached => 1,
            Backend::MultiTable(n) => n.max(1),
        };
        LogicalSwitch {
            name: name.to_string(),
            dpid,
            backend,
            tables: (0..n_tables).map(|_| FlowTable::new()).collect(),
            ports: BTreeMap::new(),
            stats: SwitchStats::default(),
        }
    }

    /// The pipeline personality.
    pub fn backend(&self) -> Backend {
        self.backend
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
        Ok(())
    }

    /// Remove a port.
    pub fn remove_port(&mut self, no: PortNo) -> Result<(), SwitchError> {
        self.ports
            .remove(&no)
            .map(|_| ())
            .ok_or(SwitchError::NoSuchPort(no.0))
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

    /// Install a flow entry into `table`.
    pub fn install(&mut self, table: u8, entry: FlowEntry) -> Result<(), SwitchError> {
        let t = self
            .tables
            .get_mut(table as usize)
            .ok_or(SwitchError::NoSuchTable(table))?;
        t.insert(entry);
        Ok(())
    }

    /// Remove all entries with `cookie` across all tables; returns count.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        self.tables
            .iter_mut()
            .map(|t| t.remove_by_cookie(cookie))
            .sum()
    }

    /// Total installed entries across tables.
    pub fn flow_count(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Access a table read-only (stats endpoints).
    pub fn table(&self, idx: u8) -> Option<&FlowTable> {
        self.tables.get(idx as usize)
    }

    /// Iterate tables in pipeline order (static analysis / dumps).
    pub fn tables(&self) -> impl Iterator<Item = (u8, &FlowTable)> {
        self.tables.iter().enumerate().map(|(i, t)| (i as u8, t))
    }

    /// Aggregated fast-path counters across all tables.
    pub fn cache_stats(&self) -> TableStats {
        let mut stats = TableStats::default();
        for t in &self.tables {
            stats.merge(&t.stats());
        }
        stats
    }

    /// Microflow-cache population across all tables
    /// ([`FlowTable::cache_entries`]).
    pub fn cache_entries(&self) -> usize {
        self.tables.iter().map(|t| t.cache_entries()).sum()
    }

    /// Process one packet arriving on `in_port`.
    ///
    /// Returns the emitted packets, any controller punt, and the virtual
    /// time charged. Unknown ingress port or a table miss counts as a
    /// drop (per OpenFlow default table-miss behaviour).
    pub fn process(&mut self, in_port: PortNo, pkt: Packet, costs: &CostModel) -> ProcessResult {
        self.process_opts(in_port, pkt, costs, ProcessOptions::default())
    }

    /// [`LogicalSwitch::process`] with flight-recorder knobs: `ghost`
    /// leaves every counter untouched, `record` captures one
    /// [`PipelineStep`] per table visited.
    pub fn process_opts(
        &mut self,
        in_port: PortNo,
        pkt: Packet,
        costs: &CostModel,
        opts: ProcessOptions,
    ) -> ProcessResult {
        let mut outputs = Vec::new();
        let Processed {
            punted,
            cost,
            steps,
        } = self.process_into(in_port, pkt, costs, opts, &mut outputs);
        ProcessResult {
            outputs,
            punted,
            cost,
            steps,
        }
    }

    /// The pipeline itself: [`LogicalSwitch::process_opts`] pushing its
    /// (egress port, packet) pairs onto the caller's `outputs` in
    /// emission order, so a burst reuses one vector and a forwarded
    /// frame on a warm cache hit allocates nothing.
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
            punted: None,
            cost: Cost::ZERO,
            steps: Vec::new(),
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

        let outputs_at_entry = outputs.len();
        let mut table_idx: u8 = 0;
        let mut matched_any = false;
        'pipeline: loop {
            let key = PacketKey::extract(in_port, &pkt);
            let Some(table) = self.tables.get_mut(table_idx as usize) else {
                break;
            };
            let hit = if ghost {
                table.lookup_ghost_index(&key)
            } else {
                table.lookup_index(&key, len)
            };
            let Some((idx, path)) = hit else {
                if opts.record {
                    done.steps.push(PipelineStep {
                        table: table_idx,
                        hit: None,
                        outputs: 0,
                    });
                }
                break; // table miss
            };
            // The actions run off a borrow of `tables` while `ports` and
            // `stats`, disjoint fields, take the counters.
            let entry = table.entry(idx);
            let actions = &entry.actions;
            matched_any = true;
            done.cost += match path {
                LookupPath::CacheHit => Cost::from_nanos(costs.flow_cache_hit_ns),
                LookupPath::ExactHit => Cost::from_nanos(costs.flow_exact_hit_ns),
                LookupPath::MegaflowHit => Cost::from_nanos(costs.flow_megaflow_hit_ns),
                LookupPath::Miss => Cost::from_nanos(costs.flow_lookup_ns),
            };

            let outputs_before = outputs.len();
            let mut goto: Option<u8> = None;
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
                            // The last action of the last table: nothing
                            // reads the frame again, so it moves out.
                            let last = goto.is_none() && i + 1 == actions.len();
                            let frame = if last {
                                std::mem::take(&mut pkt)
                            } else {
                                pkt.clone()
                            };
                            outputs.push((out, frame));
                        } else if !ghost {
                            self.stats.dropped += 1;
                        }
                    }
                    FlowAction::Flood => {
                        for (&out, op) in self.ports.iter_mut().filter(|(p, _)| **p != in_port) {
                            if !ghost {
                                op.tx_packets += 1;
                                op.tx_bytes += pkt.len() as u64;
                                self.stats.tx_packets += 1;
                            }
                            outputs.push((out, pkt.clone()));
                        }
                    }
                    FlowAction::Controller => {
                        if !ghost {
                            self.stats.controller_punts += 1;
                        }
                        done.punted = Some(pkt.clone());
                    }
                    FlowAction::PushVlan(vid) => {
                        done.cost += Cost::from_nanos(costs.vlan_op_ns);
                        let _ = pkt.vlan_push(vid);
                    }
                    FlowAction::PopVlan => {
                        done.cost += Cost::from_nanos(costs.vlan_op_ns);
                        let _ = pkt.vlan_pop();
                    }
                    FlowAction::SetVlan(vid) => {
                        done.cost += Cost::from_nanos(costs.vlan_op_ns);
                        // Rewrite = pop + push preserving inner frame.
                        if pkt.vlan_pop().is_ok() {
                            let _ = pkt.vlan_push(vid);
                        }
                    }
                    FlowAction::SetFwmark(mark) => {
                        pkt.meta.fwmark = mark;
                    }
                    FlowAction::SetEthSrc(mac) => {
                        if let Ok(eth) = pkt.ethernet() {
                            let dst = eth.dst();
                            let _ = pkt.set_eth_addrs(mac, dst);
                        }
                    }
                    FlowAction::SetEthDst(mac) => {
                        if let Ok(eth) = pkt.ethernet() {
                            let src = eth.src();
                            let _ = pkt.set_eth_addrs(src, mac);
                        }
                    }
                    FlowAction::GotoTable(t) => {
                        // Only forward jumps, per OpenFlow — prevents loops.
                        if t > table_idx {
                            goto = Some(t);
                        }
                    }
                }
            }
            if opts.record {
                done.steps.push(PipelineStep {
                    table: table_idx,
                    hit: Some(LookupHit {
                        actions: Arc::clone(actions),
                        path,
                        cookie: entry.cookie,
                        priority: entry.priority,
                    }),
                    outputs: (outputs.len() - outputs_before) as u32,
                });
            }
            match goto {
                Some(t) => table_idx = t,
                None => break 'pipeline,
            }
        }

        let emitted = outputs.len() > outputs_at_entry;
        if !ghost && (!matched_any || (!emitted && done.punted.is_none())) {
            self.stats.dropped += 1;
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
    fn flood_excludes_ingress() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(1, FlowMatch::any(), vec![FlowAction::Flood]),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        let ports: Vec<u32> = res.outputs.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ports, vec![2, 3]);
    }

    #[test]
    fn controller_punt() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(1, FlowMatch::any(), vec![FlowAction::Controller]),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert!(res.punted.is_some());
        assert_eq!(sw.stats.controller_punts, 1);
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
    fn multi_table_pipeline_goto() {
        let mut sw = LogicalSwitch::new("LSI-x", 2, Backend::MultiTable(2));
        sw.add_port(PortNo(1), "in").unwrap();
        sw.add_port(PortNo(2), "out").unwrap();
        // Table 0: mark + goto table 1.
        sw.install(
            0,
            FlowEntry::new(
                1,
                FlowMatch::in_port(PortNo(1)),
                vec![FlowAction::SetFwmark(7), FlowAction::GotoTable(1)],
            ),
        )
        .unwrap();
        // Table 1: match on the mark set in table 0.
        sw.install(
            1,
            FlowEntry::new(
                1,
                FlowMatch::any().with_fwmark(7),
                vec![FlowAction::Output(PortNo(2))],
            ),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[0].1.meta.fwmark, 7);
    }

    #[test]
    fn goto_backwards_is_ignored() {
        let mut sw = LogicalSwitch::new("LSI-y", 3, Backend::MultiTable(2));
        sw.add_port(PortNo(1), "in").unwrap();
        sw.add_port(PortNo(2), "out").unwrap();
        sw.install(
            1,
            FlowEntry::new(
                1,
                FlowMatch::any(),
                vec![FlowAction::GotoTable(0), FlowAction::Output(PortNo(2))],
            ),
        )
        .unwrap();
        sw.install(
            0,
            FlowEntry::new(1, FlowMatch::any(), vec![FlowAction::GotoTable(1)]),
        )
        .unwrap();
        // Must terminate (no loop) and still emit from table 1.
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        assert_eq!(res.outputs.len(), 1);
    }

    #[test]
    fn vlan_match_and_set() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(
                10,
                FlowMatch::in_port(PortNo(1)).with_vlan(VlanSpec::Id(10)),
                vec![FlowAction::SetVlan(20), FlowAction::Output(PortNo(2))],
            ),
        )
        .unwrap();
        let mut p = pkt();
        p.vlan_push(10).unwrap();
        let res = sw.process(PortNo(1), p, &CostModel::default());
        assert_eq!(res.outputs[0].1.vlan_id(), Some(20));
    }

    #[test]
    fn remove_by_cookie_across_tables() {
        let mut sw = LogicalSwitch::new("LSI-z", 4, Backend::MultiTable(2));
        sw.add_port(PortNo(1), "in").unwrap();
        sw.install(
            0,
            FlowEntry::new(1, FlowMatch::any(), vec![]).with_cookie(5),
        )
        .unwrap();
        sw.install(
            1,
            FlowEntry::new(1, FlowMatch::any(), vec![]).with_cookie(5),
        )
        .unwrap();
        assert_eq!(sw.flow_count(), 2);
        assert_eq!(sw.remove_by_cookie(5), 2);
        assert_eq!(sw.flow_count(), 0);
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

    #[test]
    fn set_eth_addrs_action() {
        let mut sw = lsi();
        sw.install(
            0,
            FlowEntry::new(
                1,
                FlowMatch::any(),
                vec![
                    FlowAction::SetEthDst(MacAddr::local(9)),
                    FlowAction::Output(PortNo(2)),
                ],
            ),
        )
        .unwrap();
        let res = sw.process(PortNo(1), pkt(), &CostModel::default());
        let eth = res.outputs[0].1.ethernet().unwrap();
        assert_eq!(eth.dst(), MacAddr::local(9));
        assert_eq!(eth.src(), MacAddr::local(1), "src preserved");
    }
}
