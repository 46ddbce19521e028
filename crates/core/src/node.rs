//! The Universal Node: orchestrator + steering + fabric.
//!
//! One [`UniversalNode`] is the whole compute node of Figure 1. It owns
//! the CPE kernel ([`un_linux::Host`]), the compute manager with its
//! four drivers, the base LSI (LSI-0) and one LSI per deployed NF-FG,
//! and the virtual links between them. Deploying an NF-FG:
//!
//! 1. validate the graph;
//! 2. for every NF, run the placement policy (NNF vs VNF) and create /
//!    reuse an instance through the compute manager;
//! 3. create the per-graph LSI, one virtual link per endpoint (plus one
//!    per *shared* NNF), and LSI-0 classification rules;
//! 4. compile the graph's big-switch rules into LSI flow entries —
//!    including the VLAN push/pop translation for sharable NNFs behind
//!    the adaptation layer;
//! 5. admission-check memory.
//!
//! The graph under construction records what each step takes, so a
//! failure anywhere hands it to the same `teardown` an undeploy uses.
//!
//! The data plane is a synchronous work-queue fabric: a packet injected
//! on a physical port traverses LSI-0, virtual links, graph LSIs and NF
//! instances until it is emitted or dropped, accumulating virtual-time
//! cost along the way.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use un_compute::{ComputeError, ComputeManager, Flavor, FlavorSpec, InstanceId, NodeEnv};
use un_linux::Host;
use un_nffg::{
    validate, Endpoint, EndpointKind, FlowRule, NetworkFunction, NfFg, PortRef, RuleAction,
    TrafficMatch,
};
use un_nnf::GraphBinding;
use un_obs::{Accounting, ClassifierStage, DropReason, FrameLedger, HopKind, TraceSink};
use un_packet::ethernet::MacAddr;
use un_packet::{Ipv4Cidr, Packet};
use un_sim::mem::format_bytes;
use un_sim::{AccountId, Cost, CostModel, MemLedger, SimTime};
use un_switch::{
    Backend, FlowAction, FlowEntry, FlowMatch, LogicalSwitch, LookupPath, PipelineStep, PortNo,
    ProcessOptions, VlanSpec,
};

use crate::placement::{decide, Decision, NativeStatus};
use crate::repository::{provision_standard_images, VnfRepository};

/// Why a deployment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// Static validation failed.
    Invalid(Vec<un_nffg::ValidationError>),
    /// A graph with this id is already deployed.
    AlreadyDeployed(String),
    /// No graph with this id.
    NoSuchGraph(String),
    /// The referenced physical interface does not exist on the node.
    NoSuchInterface(String),
    /// Another deployed graph already owns this traffic.
    EndpointConflict(String),
    /// The repository has no template for a functional type.
    NoTemplate(String),
    /// The compute layer failed.
    Compute(String),
    /// Admission control: node memory exhausted.
    InsufficientMemory {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        capacity: u64,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Invalid(errs) => write!(f, "invalid NF-FG: {} problems", errs.len()),
            DeployError::AlreadyDeployed(g) => write!(f, "graph '{g}' already deployed"),
            DeployError::NoSuchGraph(g) => write!(f, "no such graph '{g}'"),
            DeployError::NoSuchInterface(i) => write!(f, "no such interface '{i}'"),
            DeployError::EndpointConflict(e) => write!(f, "endpoint conflict on '{e}'"),
            DeployError::NoTemplate(t) => write!(f, "no template for '{t}'"),
            DeployError::Compute(e) => write!(f, "compute error: {e}"),
            DeployError::InsufficientMemory { needed, capacity } => {
                write!(f, "insufficient memory: need {needed}, capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

impl From<ComputeError> for DeployError {
    fn from(e: ComputeError) -> Self {
        DeployError::Compute(e.to_string())
    }
}

/// What `deploy` reports back (the REST layer serializes this).
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// Graph id.
    pub graph: String,
    /// Per-NF placements: (nf id, flavor, instance, shared?).
    pub placements: Vec<(String, Flavor, InstanceId, bool)>,
    /// Flow entries installed across LSIs.
    pub flow_entries: usize,
}

/// A cheaply-cloneable interned string for hot-path identifiers
/// (physical port names, node names): cloning bumps an `Arc`, so the
/// data plane never copies name bytes per frame.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// Intern a string.
    pub fn new(s: &str) -> Self {
        Name(Arc::from(s))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl std::borrow::Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == &*other.0
    }
}

/// Opaque handle to a physical port, resolved from its name once per
/// batch instead of one string lookup per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(PortNo);

/// Result of injecting packets into the node.
#[derive(Debug, Default)]
pub struct NodeIo {
    /// Frames leaving the node: (physical port name, packet).
    pub emitted: Vec<(Name, Packet)>,
    /// Virtual time consumed.
    pub cost: Cost,
}

/// Per-frame hop budget inside the node fabric: every virtual-link or
/// NF crossing decrements it, so one looping frame dies alone instead
/// of starving the rest of its batch.
const FABRIC_TTL: u32 = 256;

/// Where a burst currently is inside the fabric (ordered so the work
/// list drains LSI-0 buckets before graph buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LocKey {
    L0(u32),
    Graph(u32, u32), // (graph slot, graph-LSI port)
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum VlinkKey {
    Endpoint(String),
    SharedNf(String),
}

#[derive(Debug, Clone)]
enum L0Port {
    Physical(Name),
    Vlink { graph_slot: u32, peer: PortNo },
    SharedAttach(InstanceId),
}

#[derive(Debug, Clone)]
enum GPort {
    Vlink { l0_port: PortNo },
    Nf(InstanceId, u32),
}

#[derive(Debug, Clone)]
struct PlacedNf {
    instance: InstanceId,
    shared: Option<GraphBinding>,
}

/// A graph on the node — deployed, or under construction. It is its own
/// journal: whatever `build` takes for it is recorded here before the
/// next call that can fail (an instance right after `create`, a binding
/// before `bind`, a virtual link as its LSI-0 port is added), and
/// `teardown` reads nothing else to give all of it back.
struct DeployedGraph {
    nffg: NfFg,
    lsi: LogicalSwitch,
    slot: u32,
    ports: BTreeMap<PortNo, GPort>,
    vlinks: BTreeMap<VlinkKey, PortNo>, // graph-side port
    rev_nf: BTreeMap<(InstanceId, u32), PortNo>,
    nfs: BTreeMap<String, PlacedNf>,
    next_port: u32,
}

impl DeployedGraph {
    fn add_port(&mut self, name: &str, kind: GPort) -> PortNo {
        let port = PortNo(self.next_port);
        self.next_port += 1;
        self.lsi.add_port(port, name).expect("fresh port");
        self.ports.insert(port, kind);
        port
    }

    /// Compile one big-switch rule and install it under its cookie.
    fn install_rule(&mut self, rule: &FlowRule) -> Result<(), DeployError> {
        let entry = compile_rule(self, rule)
            .map_err(DeployError::Compute)?
            .with_cookie(rule_cookie(&self.nffg.id, &rule.id));
        self.lsi.install(0, entry).expect("table 0 exists");
        Ok(())
    }

    fn report(&self, compute: &ComputeManager, lsi0_flows: usize) -> DeployReport {
        let placed = |nf: &NetworkFunction| {
            let p = self.nfs.get(&nf.id)?;
            let flavor = compute.flavor(p.instance)?;
            Some((nf.id.clone(), flavor, p.instance, p.shared.is_some()))
        };
        DeployReport {
            graph: self.nffg.id.clone(),
            placements: self.nffg.nfs.iter().filter_map(placed).collect(),
            flow_entries: lsi0_flows + self.lsi.flow_count(),
        }
    }
}

struct SharedInfo {
    instance: InstanceId,
    attach_port: PortNo,
    graphs: Vec<String>,
}

/// Serializable node self-description ("node description, capabilities
/// and resources" in Figure 1).
#[derive(Debug, Clone)]
pub struct NodeDescription {
    /// Node name.
    pub name: String,
    /// Supported flavors.
    pub flavors: Vec<String>,
    /// Native NFs offered: (type, sharable, multi-instance).
    pub nnfs: Vec<(String, bool, bool)>,
    /// Deployed graph ids.
    pub graphs: Vec<String>,
    /// Running instances: (name, flavor, functional type).
    pub instances: Vec<(String, String, String)>,
    /// Memory in use (bytes).
    pub memory_used: u64,
    /// Memory capacity (bytes).
    pub memory_capacity: u64,
    /// Aggregated flow fast-path hits (microflow cache) across LSIs.
    pub flow_cache_hits: u64,
    /// Aggregated flow fast-path misses across LSIs.
    pub flow_cache_misses: u64,
    /// Microflow-cache population across LSIs: about the number of
    /// ports / vids in use on a node whose tables only steer, up to
    /// 8192 per table whose rules read per-flow fields.
    pub flow_cache_entries: u64,
}

impl NodeDescription {
    fn json_value(&self) -> un_nffg::Json {
        use un_nffg::Json;
        Json::obj()
            .set("name", self.name.as_str())
            .set(
                "flavors",
                Json::Arr(
                    self.flavors
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            )
            .set(
                "nnfs",
                Json::Arr(
                    self.nnfs
                        .iter()
                        .map(|(ft, sharable, multi)| {
                            Json::Arr(vec![
                                Json::from(ft.as_str()),
                                Json::from(*sharable),
                                Json::from(*multi),
                            ])
                        })
                        .collect(),
                ),
            )
            .set(
                "graphs",
                Json::Arr(self.graphs.iter().map(|g| Json::from(g.as_str())).collect()),
            )
            .set(
                "instances",
                Json::Arr(
                    self.instances
                        .iter()
                        .map(|(name, flavor, ft)| {
                            Json::Arr(vec![
                                Json::from(name.as_str()),
                                Json::from(flavor.as_str()),
                                Json::from(ft.as_str()),
                            ])
                        })
                        .collect(),
                ),
            )
            .set("memory_used", self.memory_used)
            .set("memory_capacity", self.memory_capacity)
            .set("flow_cache_hits", self.flow_cache_hits)
            .set("flow_cache_misses", self.flow_cache_misses)
            .set("flow_cache_entries", self.flow_cache_entries)
    }

    /// Compact JSON rendering (the REST `/node` document).
    pub fn to_json(&self) -> String {
        self.json_value().render()
    }

    /// Pretty JSON rendering.
    pub fn to_json_pretty(&self) -> String {
        self.json_value().render_pretty()
    }
}

un_sim::counters! {
    /// What a node counts besides its frame ledger.
    pub struct NodeCounters {
        fabric_frames_in,
        fabric_frames_out,
        graph_updates_rules,
        graph_updates_structural,
        graphs_deployed,
        graphs_undeployed,
        nnf_shares,
    }
}

/// The compute node.
pub struct UniversalNode {
    /// Node name.
    pub name: String,
    /// The CPE kernel.
    pub host: Host,
    /// Memory accounting.
    pub ledger: MemLedger,
    node_account: AccountId,
    /// Cost model (shared by every component).
    pub costs: CostModel,
    /// The compute manager.
    pub compute: ComputeManager,
    /// The VNF repository.
    pub repository: VnfRepository,
    lsi0: LogicalSwitch,
    l0_ports: BTreeMap<PortNo, L0Port>,
    physical: BTreeMap<String, PortNo>,
    next_l0_port: u32,
    graphs: BTreeMap<String, DeployedGraph>,
    slots: Vec<Option<String>>,           // slot index → graph id
    shared: BTreeMap<String, SharedInfo>, // functional type → info
    internal_groups: BTreeMap<String, Vec<PortNo>>, // group → lsi0 vlink ports
    next_mark: u32,
    next_dpid: u64,
    clock: SimTime,
    /// The node's closed counter set (the frame ledger aside).
    pub trace: NodeCounters,
    /// The node fabric's share of the conservation ledger.
    frame_ledger: FrameLedger,
    mem_capacity: u64,
    /// Observability handle; `None` when disabled so the hot path pays
    /// only `Option` checks.
    obs: Option<Arc<un_obs::Obs>>,
    /// Cached per-instance deliver-latency histogram handles (avoids
    /// registry lookups inside the fabric loop).
    obs_nf_hist: BTreeMap<InstanceId, Arc<un_obs::Histogram>>,
    /// Cached burst-size histogram handle.
    obs_burst_hist: Option<Arc<un_obs::Histogram>>,
}

fn fnv1a(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The cookie stamped on a compiled graph rule (`<graph>/<rule>`), the
/// contract between the orchestrator's install receipts and anything
/// auditing the tables (rule-level updates and the static verifier key
/// on it).
pub fn rule_cookie(graph_id: &str, rule_id: &str) -> u64 {
    fnv1a(&format!("{graph_id}/{rule_id}"))
}

/// The cookie stamped on a graph's LSI-0 plumbing rules (endpoint
/// classification, internal groups, shared-NNF vlinks).
pub fn graph_cookie(graph_id: &str) -> u64 {
    fnv1a(graph_id)
}

/// Translate an LSI's recorded step into a classify hop on an active
/// flight-recorder sink.
fn record_classify_hop(f: &TraceSink, node: &str, lsi: &str, step: &PipelineStep) {
    let (stage, cookie, priority) = match &step.hit {
        Some(h) => (
            match h.path {
                LookupPath::CacheHit => ClassifierStage::Microflow,
                LookupPath::ExactHit => ClassifierStage::Exact,
                LookupPath::MegaflowHit => ClassifierStage::Megaflow,
                // `LookupPath::Miss` on a *hit* is the residual
                // wildcard/linear scan, not a table miss.
                LookupPath::Miss => ClassifierStage::Wildcard,
            },
            Some(h.cookie),
            Some(h.priority),
        ),
        None => (ClassifierStage::Miss, None, None),
    };
    f.hop(
        node,
        HopKind::Classify {
            lsi: lsi.to_string(),
            stage,
            cookie,
            priority,
            outputs: step.outputs,
        },
    );
}

/// Per-call state of one burst's run through the node fabric: the
/// books (recorder, ghost flag and what the walk owes the node's
/// ledger), the result under construction, and the work list.
struct Walk<'a> {
    acct: Accounting<'a>,
    io: NodeIo,
    /// Fabric steps left before the amplification valve closes.
    work_budget: u64,
    /// Bursts waiting at a fabric location, every frame with its TTL.
    pending: BTreeMap<LocKey, Vec<(Packet, u32)>>,
}

impl<'a> Walk<'a> {
    fn new(flight: Option<&'a TraceSink>, frames: usize) -> Self {
        Walk {
            acct: Accounting::new(flight),
            io: NodeIo::default(),
            work_budget: (frames as u64).saturating_mul(u64::from(FABRIC_TTL)),
            pending: BTreeMap::new(),
        }
    }

    fn queue(&mut self, loc: LocKey, pkt: Packet, ttl: u32) {
        self.pending.entry(loc).or_default().push((pkt, ttl));
    }

    /// The classify stage, written once for LSI-0 and the graph LSIs:
    /// run a burst that arrived on `in_port` of `node`'s `lsi` through
    /// it under one borrow — per frame the TTL check, the work budget,
    /// the LSI, its classify hop and the fan-out accounting — and
    /// return every output as `(port(out port), frame, ttl)` in
    /// (frame, output) order. `port` lets the caller resolve what an
    /// output port means while it still holds the LSI's owner.
    fn classify<T>(
        &mut self,
        lsi: &mut LogicalSwitch,
        costs: &CostModel,
        node: &str,
        in_port: PortNo,
        burst: Vec<(Packet, u32)>,
        port: impl Fn(PortNo) -> T,
    ) -> Vec<(T, Packet, u32)> {
        let popts = ProcessOptions {
            ghost: self.acct.ghost(),
            record: self.acct.flight().is_some(),
        };
        let mut routed = Vec::with_capacity(burst.len());
        // One output vector for the whole burst, drained per frame.
        let mut outputs = Vec::new();
        for (pkt, ttl) in burst {
            if ttl == 0 {
                self.acct.drop(node, DropReason::FabricLoop, 1, "");
                continue;
            }
            if self.work_budget == 0 {
                self.acct.drop(node, DropReason::FabricWorkExhausted, 1, "");
                continue;
            }
            self.work_budget -= 1;
            let res = lsi.process_into(in_port, pkt, costs, popts, &mut outputs);
            if let (Some(f), Some(step)) = (self.acct.flight(), &res.step) {
                record_classify_hop(f, node, &lsi.name, step);
            }
            self.io.cost += res.cost;
            self.acct.produced(outputs.len());
            routed.extend(outputs.drain(..).map(|(out, p)| (port(out), p, ttl)));
        }
        routed
    }
}

impl UniversalNode {
    /// A node with the standard repository, catalogue and images, a
    /// given memory capacity, and LSI-0 using the OvS-like backend.
    pub fn new(name: &str, mem_capacity: u64) -> Self {
        let mut ledger = MemLedger::new();
        let node_account = ledger.create_account(&format!("node:{name}"), None);
        let mut compute = ComputeManager::new();
        provision_standard_images(&mut compute);
        UniversalNode {
            name: name.to_string(),
            host: Host::new(name, CostModel::default()),
            ledger,
            node_account,
            costs: CostModel::default(),
            compute,
            repository: VnfRepository::standard(),
            lsi0: LogicalSwitch::new("LSI-0", 1, Backend::SingleTableCached),
            l0_ports: BTreeMap::new(),
            physical: BTreeMap::new(),
            next_l0_port: 1,
            graphs: BTreeMap::new(),
            slots: Vec::new(),
            shared: BTreeMap::new(),
            internal_groups: BTreeMap::new(),
            next_mark: 1,
            next_dpid: 2,
            clock: SimTime::ZERO,
            trace: NodeCounters::default(),
            frame_ledger: FrameLedger::default(),
            mem_capacity,
            obs: None,
            obs_nf_hist: BTreeMap::new(),
            obs_burst_hist: None,
        }
    }

    /// Attach an observability handle. A disabled handle is discarded so
    /// the fabric loop keeps its zero-instrumentation fast path.
    pub fn set_obs(&mut self, obs: Arc<un_obs::Obs>) {
        self.obs_nf_hist.clear();
        if obs.is_enabled() {
            self.obs_burst_hist = Some(obs.registry().histogram(
                "un_node_burst_frames",
                &[("node", &self.name)],
                &un_obs::Histogram::size_bounds(),
            ));
            self.obs = Some(obs);
        } else {
            self.obs_burst_hist = None;
            self.obs = None;
        }
    }

    /// Record one NF deliver latency into the per-(node, nf-type)
    /// histogram, resolving and caching the series handle on first use.
    fn record_nf_latency(&mut self, inst: InstanceId, ns: u64) {
        let Some(obs) = &self.obs else { return };
        let hist = self.obs_nf_hist.entry(inst).or_insert_with(|| {
            let nf = self
                .compute
                .functional_type(inst)
                .unwrap_or("unknown")
                .to_string();
            obs.registry().histogram(
                "un_nf_deliver_ns",
                &[("node", &self.name), ("nf", &nf)],
                &un_obs::Histogram::latency_bounds(),
            )
        });
        hist.record(ns);
    }

    /// Register a physical interface (e.g. `"eth0"`) as an LSI-0 port.
    pub fn add_physical_port(&mut self, name: &str) -> PortNo {
        let port = self.add_l0_port(name, L0Port::Physical(Name::new(name)));
        self.physical.insert(name.to_string(), port);
        port
    }

    fn add_l0_port(&mut self, name: &str, kind: L0Port) -> PortNo {
        let port = PortNo(self.next_l0_port);
        self.next_l0_port += 1;
        self.lsi0
            .add_port(port, name)
            .expect("fresh port number cannot collide");
        self.l0_ports.insert(port, kind);
        port
    }

    /// Resolve a physical port name to its interned id (for the batch
    /// data-plane API).
    pub fn port_id(&self, name: &str) -> Option<PortId> {
        self.physical.get(name).copied().map(PortId)
    }

    /// Aggregated flow-table fast-path counters across LSI-0 and every
    /// graph LSI (exported through [`NodeDescription`] and REST).
    pub fn flow_cache_stats(&self) -> un_switch::TableStats {
        let mut stats = self.lsi0.cache_stats();
        for g in self.graphs.values() {
            stats.merge(&g.lsi.cache_stats());
        }
        stats
    }

    /// Microflow-cache population across LSI-0 and every graph LSI
    /// (exported through [`NodeDescription`] and as a gauge through
    /// `/metrics`).
    pub fn flow_cache_entries(&self) -> usize {
        self.lsi0.cache_entries()
            + self
                .graphs
                .values()
                .map(|g| g.lsi.cache_entries())
                .sum::<usize>()
    }

    /// Total installed flow entries across LSI-0 and every graph LSI
    /// (table occupancy, exported as a gauge through `/metrics`).
    pub fn flow_table_occupancy(&self) -> usize {
        self.lsi0.flow_count()
            + self
                .graphs
                .values()
                .map(|g| g.lsi.flow_count())
                .sum::<usize>()
    }

    /// Advance the node clock (stamps traces, host time).
    pub fn set_time(&mut self, now: SimTime) {
        self.clock = now;
        self.host.set_time(now);
    }

    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.clock
    }

    /// Deployed graph ids.
    pub fn graph_ids(&self) -> Vec<String> {
        self.graphs.keys().cloned().collect()
    }

    /// The stored NF-FG of a deployed graph.
    pub fn graph(&self, id: &str) -> Option<&NfFg> {
        self.graphs.get(id).map(|g| &g.nffg)
    }

    /// Instance placed for an NF of a deployed graph.
    pub fn instance_of(&self, graph: &str, nf: &str) -> Option<(InstanceId, Flavor)> {
        let placed = self.graphs.get(graph)?.nfs.get(nf)?;
        Some((placed.instance, self.compute.flavor(placed.instance)?))
    }

    /// RAM currently attributed to one NF of a graph.
    pub fn nf_ram_usage(&self, graph: &str, nf: &str) -> u64 {
        self.instance_of(graph, nf)
            .map(|(id, _)| self.compute.ram_usage(&self.ledger, id))
            .unwrap_or(0)
    }

    /// Image footprint of one NF of a graph.
    pub fn nf_image_footprint(&self, graph: &str, nf: &str) -> u64 {
        self.instance_of(graph, nf)
            .map(|(id, _)| self.compute.image_footprint(id))
            .unwrap_or(0)
    }

    /// Total memory in use on the node.
    pub fn memory_used(&self) -> u64 {
        self.ledger.usage(self.node_account)
    }

    /// Configured memory capacity.
    pub fn mem_capacity(&self) -> u64 {
        self.mem_capacity
    }

    /// Memory still available for admission.
    pub fn free_memory(&self) -> u64 {
        self.mem_capacity.saturating_sub(self.memory_used())
    }

    /// Names of the node's physical interfaces.
    pub fn physical_port_names(&self) -> Vec<String> {
        self.physical.keys().cloned().collect()
    }

    /// True if a physical interface with this name exists.
    pub fn has_physical_port(&self, name: &str) -> bool {
        self.physical.contains_key(name)
    }

    /// Functional types this node offers as native NFs.
    pub fn native_nnf_types(&self) -> Vec<String> {
        self.compute
            .native
            .catalog
            .iter()
            .map(|d| d.functional_type.to_string())
            .collect()
    }

    /// Functional types with a *shared* native instance currently
    /// running (joinable by further graphs).
    pub fn shared_nnf_types(&self) -> Vec<String> {
        self.shared.keys().cloned().collect()
    }

    /// Functional types whose catalog descriptor marks a single native
    /// instance *sharable* across graphs — the types this node could
    /// host a domain-shared instance of (whether or not one runs yet).
    pub fn sharable_nnf_types(&self) -> Vec<String> {
        self.compute
            .native
            .catalog
            .iter()
            .filter(|d| d.sharable)
            .map(|d| d.functional_type.to_string())
            .collect()
    }

    /// Graph ids currently bound to the running shared instance of a
    /// functional type (empty when no shared instance runs). The
    /// domain's lease-conservation invariant cross-checks its registry
    /// against this node-level truth.
    pub fn shared_nnf_graphs(&self, functional_type: &str) -> Vec<String> {
        self.shared
            .get(functional_type)
            .map(|info| info.graphs.clone())
            .unwrap_or_default()
    }

    /// Rough RAM a new NF of this type would consume, for fleet-level
    /// bin-packing. Mirrors the placement policy: a joinable shared
    /// instance costs ~nothing extra, native instances are cheap, VNF
    /// flavors carry their guest/runtime footprints. Real admission
    /// still happens at deploy time; this is only a scheduler estimate.
    pub fn estimate_nf_ram(&self, functional_type: &str, flavor_hint: Option<&str>) -> Option<u64> {
        Some(match self.decide_nf(functional_type, flavor_hint).ok()? {
            Decision::NativeShare(_) => 0,
            Decision::NativeNew | Decision::NativeNewShared => {
                self.compute.estimate_ram(&FlavorSpec::Native)
            }
            Decision::Vnf(spec) => self.compute.estimate_ram(&spec),
        })
    }

    /// The placement policy's verdict for one NF on this node, now.
    fn decide_nf(
        &self,
        functional_type: &str,
        flavor: Option<&str>,
    ) -> Result<Decision, DeployError> {
        let template = self
            .repository
            .resolve(functional_type)
            .ok_or_else(|| DeployError::NoTemplate(functional_type.to_string()))?;
        let catalog = &self.compute.native.catalog;
        Ok(decide(template, flavor, catalog, self)?)
    }

    // ------------------------------------------------------------------
    // Deploy / undeploy / update
    // ------------------------------------------------------------------

    /// Deploy an NF-FG: check it against the node, build it, then adopt
    /// the built graph — or hand what was built so far to `teardown`.
    pub fn deploy(&mut self, nffg: &NfFg) -> Result<DeployReport, DeployError> {
        let errs = validate(nffg);
        if !errs.is_empty() {
            return Err(DeployError::Invalid(errs));
        }
        if self.graphs.contains_key(&nffg.id) {
            return Err(DeployError::AlreadyDeployed(nffg.id.clone()));
        }
        // Endpoints must reference existing physical interfaces.
        for ep in &nffg.endpoints {
            match &ep.kind {
                EndpointKind::Interface { if_name } | EndpointKind::Vlan { if_name, .. } => {
                    if !self.physical.contains_key(if_name) {
                        return Err(DeployError::NoSuchInterface(if_name.clone()));
                    }
                }
                EndpointKind::Internal { .. } => {}
            }
        }

        let slot = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .unwrap_or_else(|| {
                self.slots.push(None);
                self.slots.len() - 1
            }) as u32;
        let dpid = self.next_dpid;
        self.next_dpid += 1;
        let mut graph = DeployedGraph {
            nffg: nffg.clone(),
            lsi: LogicalSwitch::new(
                &format!("LSI-{}", nffg.id),
                dpid,
                Backend::SingleTableCached,
            ),
            slot,
            ports: BTreeMap::new(),
            vlinks: BTreeMap::new(),
            rev_nf: BTreeMap::new(),
            nfs: BTreeMap::new(),
            next_port: 1,
        };
        match self.build(nffg, &mut graph) {
            Ok(report) => {
                self.slots[slot as usize] = Some(nffg.id.clone());
                self.graphs.insert(nffg.id.clone(), graph);
                self.trace.graphs_deployed += 1;
                Ok(report)
            }
            Err(e) => {
                let _ = self.teardown(graph);
                Err(e)
            }
        }
    }

    /// Realize `nffg` in `graph`: place the NFs, admit their memory,
    /// wire ports, virtual links and LSI-0 classification, compile the
    /// rules. Wherever it stops, `teardown(graph)` undoes it.
    fn build(
        &mut self,
        nffg: &NfFg,
        graph: &mut DeployedGraph,
    ) -> Result<DeployReport, DeployError> {
        for nf in &nffg.nfs {
            self.place_nf(graph, nf)?;
        }
        let used = self.memory_used();
        if used > self.mem_capacity {
            return Err(DeployError::InsufficientMemory {
                needed: used,
                capacity: self.mem_capacity,
            });
        }
        for nf in &nffg.nfs {
            let placed = &graph.nfs[&nf.id];
            if placed.shared.is_some() {
                continue; // shared NFs are reached via LSI-0
            }
            let instance = placed.instance;
            for port in &nf.ports {
                let name = format!("to-{}:{}", nf.id, port.id);
                let p = graph.add_port(&name, GPort::Nf(instance, port.id));
                graph.rev_nf.insert((instance, port.id), p);
            }
        }
        for ep in &nffg.endpoints {
            self.wire_endpoint(graph, ep)?;
        }
        for nf in &nffg.nfs {
            if let Some(binding) = &graph.nfs[&nf.id].shared {
                let vids = [binding.vid_lan, binding.vid_wan];
                self.wire_shared(graph, nf, vids);
            }
        }
        for rule in &nffg.flow_rules {
            graph.install_rule(rule)?;
        }
        Ok(graph.report(&self.compute, self.lsi0.flow_count()))
    }

    /// Create or join the instance serving `nf`.
    fn place_nf(
        &mut self,
        graph: &mut DeployedGraph,
        nf: &NetworkFunction,
    ) -> Result<(), DeployError> {
        let gid = graph.nffg.id.clone();
        let own = format!("{gid}-{}", nf.id);
        match self.decide_nf(&nf.functional_type, nf.flavor.as_deref())? {
            Decision::NativeNew => self.launch(graph, nf, &own, &FlavorSpec::Native, None),
            Decision::Vnf(spec) => self.launch(graph, nf, &own, &spec, None),
            Decision::NativeNewShared => {
                let binding = self.make_binding(&gid, nf);
                let name = format!("shared-{}", nf.functional_type);
                self.launch(graph, nf, &name, &FlavorSpec::Native, Some(binding))
            }
            Decision::NativeShare(instance) => {
                let binding = self.make_binding(&gid, nf);
                if let Some(info) = self.shared.get_mut(&nf.functional_type) {
                    info.graphs.push(gid);
                }
                self.join(graph, nf, instance, Some(binding), false)?;
                self.trace.nnf_shares += 1;
                Ok(())
            }
        }
    }

    /// Create an instance for `nf` and start it; a shared one gets its
    /// LSI-0 attach port, its registry entry and this graph's binding.
    fn launch(
        &mut self,
        graph: &mut DeployedGraph,
        nf: &NetworkFunction,
        name: &str,
        spec: &FlavorSpec,
        shared: Option<GraphBinding>,
    ) -> Result<(), DeployError> {
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let instance = self.compute.create(
            &mut env,
            name,
            &nf.functional_type,
            spec,
            nf.ports.len().max(1),
            &nf.config,
            shared.is_some(),
            self.node_account,
        )?;
        if shared.is_some() {
            let ft = &nf.functional_type;
            let attach_port =
                self.add_l0_port(&format!("nnf-{ft}"), L0Port::SharedAttach(instance));
            let graphs = vec![graph.nffg.id.clone()];
            let info = SharedInfo {
                instance,
                attach_port,
                graphs,
            };
            self.shared.insert(ft.clone(), info);
        }
        self.join(graph, nf, instance, shared, true)
    }

    /// Record the placement in the graph, then do what is left to make
    /// it serve: start a `fresh` instance, bind the graph to a shared one.
    fn join(
        &mut self,
        graph: &mut DeployedGraph,
        nf: &NetworkFunction,
        instance: InstanceId,
        shared: Option<GraphBinding>,
        fresh: bool,
    ) -> Result<(), DeployError> {
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let placed = PlacedNf { instance, shared };
        graph.nfs.insert(nf.id.clone(), placed);
        if fresh {
            self.compute.start(&mut env, instance)?;
        }
        if let Some(binding) = &graph.nfs[&nf.id].shared {
            self.compute.bind_graph(&mut env, instance, binding)?;
        }
        Ok(())
    }

    fn make_binding(&mut self, graph_id: &str, nf: &NetworkFunction) -> GraphBinding {
        let mark = self.next_mark;
        self.next_mark += 1;
        GraphBinding {
            graph: graph_id.to_string(),
            mark,
            zone: mark as u16,
            vid_lan: (100 + mark * 2) as u16,
            vid_wan: (101 + mark * 2) as u16,
            params: nf.config.params.clone(),
        }
    }

    /// A virtual link between LSI-0 and the graph LSI; returns its
    /// LSI-0 port.
    fn add_vlink(&mut self, graph: &mut DeployedGraph, key: VlinkKey) -> PortNo {
        let (id, g_name) = match &key {
            VlinkKey::Endpoint(ep) => (ep, format!("vlink-{ep}")),
            VlinkKey::SharedNf(nf) => (nf, format!("vlink-shared-{nf}")),
        };
        let l0_name = format!("vlink-{}-{id}", graph.nffg.id);
        let (graph_slot, peer) = (graph.slot, PortNo(graph.next_port));
        let l0_port = self.add_l0_port(&l0_name, L0Port::Vlink { graph_slot, peer });
        let g_port = graph.add_port(&g_name, GPort::Vlink { l0_port });
        debug_assert_eq!(g_port, peer);
        graph.vlinks.insert(key, g_port);
        l0_port
    }

    fn l0_rule(&mut self, cookie: u64, priority: u16, m: FlowMatch, actions: Vec<FlowAction>) {
        let entry = FlowEntry::new(priority, m, actions).with_cookie(cookie);
        self.lsi0.install(0, entry).expect("table 0 exists");
    }

    /// One endpoint: its virtual link and LSI-0 classification rules.
    fn wire_endpoint(
        &mut self,
        graph: &mut DeployedGraph,
        ep: &Endpoint,
    ) -> Result<(), DeployError> {
        use FlowAction::{Output, PopVlan, PushVlan};
        let cookie = graph_cookie(&graph.nffg.id);
        let vlink = self.add_vlink(graph, VlinkKey::Endpoint(ep.id.clone()));
        match &ep.kind {
            EndpointKind::Interface { if_name } => {
                let phys = self.physical[if_name];
                // Untagged traffic of an interface has one owner.
                let untagged = FlowMatch::in_port(phys).with_vlan(VlanSpec::Untagged);
                if self.lsi0.table().find(5, &untagged).is_some() {
                    return Err(DeployError::EndpointConflict(if_name.clone()));
                }
                self.l0_rule(cookie, 5, untagged, vec![Output(vlink)]);
                self.l0_rule(cookie, 5, FlowMatch::in_port(vlink), vec![Output(phys)]);
            }
            EndpointKind::Vlan { if_name, vlan_id } => {
                let phys = self.physical[if_name];
                let tagged = FlowMatch::in_port(phys).with_vlan(VlanSpec::Id(*vlan_id));
                self.l0_rule(cookie, 10, tagged, vec![PopVlan, Output(vlink)]);
                let retag = vec![PushVlan(*vlan_id), Output(phys)];
                self.l0_rule(cookie, 10, FlowMatch::in_port(vlink), retag);
            }
            EndpointKind::Internal { group } => {
                // Cross-connect with every existing member.
                let members = self.internal_groups.entry(group.clone()).or_default();
                let others = members.clone();
                members.push(vlink);
                for other in others {
                    self.l0_rule(cookie, 7, FlowMatch::in_port(vlink), vec![Output(other)]);
                    self.l0_rule(cookie, 7, FlowMatch::in_port(other), vec![Output(vlink)]);
                }
            }
        }
        Ok(())
    }

    /// One shared NF of the graph: its virtual link and the LSI-0 rules
    /// carrying the binding's two VLANs to the attach port and back.
    fn wire_shared(&mut self, graph: &mut DeployedGraph, nf: &NetworkFunction, vids: [u16; 2]) {
        use FlowAction::Output;
        let cookie = graph_cookie(&graph.nffg.id);
        let attach = self.shared[&nf.functional_type].attach_port;
        let vlink = self.add_vlink(graph, VlinkKey::SharedNf(nf.id.clone()));
        for vid in vids.map(VlanSpec::Id) {
            let out = FlowMatch::in_port(vlink).with_vlan(vid);
            self.l0_rule(cookie, 20, out, vec![Output(attach)]);
            let back = FlowMatch::in_port(attach).with_vlan(vid);
            self.l0_rule(cookie, 20, back, vec![Output(vlink)]);
        }
    }

    /// Take `graph` — deployed or half-built — off the node: the one
    /// place instances are stopped and destroyed, shared bindings
    /// released and LSI-0 plumbing removed. Best-effort: the walk
    /// always finishes and frees the slot; the first error is returned.
    fn teardown(&mut self, graph: DeployedGraph) -> Result<(), DeployError> {
        let gid = &graph.nffg.id;
        self.lsi0.remove_by_cookie(graph_cookie(gid));
        let mut gone: Vec<PortNo> = graph
            .ports
            .values()
            .filter_map(|p| match p {
                GPort::Vlink { l0_port } => Some(*l0_port),
                GPort::Nf(..) => None,
            })
            .collect();
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let mut result = Ok(());
        for placed in graph.nfs.values() {
            let id = placed.instance;
            // A dedicated instance goes with its graph, a shared one
            // with the last graph bound to it.
            let mut last_user = placed.shared.is_none();
            if !last_user {
                result = result.and(self.compute.unbind_graph(&mut env, id, gid));
                let ft = self.compute.functional_type(id).unwrap_or_default();
                if let Some(info) = self.shared.get_mut(ft) {
                    info.graphs.retain(|g| g != gid);
                    last_user = info.graphs.is_empty();
                }
                if last_user {
                    gone.extend(self.shared.remove(ft).map(|info| info.attach_port));
                }
            }
            if last_user {
                result = result.and(self.compute.stop(&mut env, id));
                result = result.and(self.compute.destroy(&mut env, id));
                self.obs_nf_hist.remove(&id);
            }
        }
        for port in &gone {
            let _ = self.lsi0.remove_port(*port);
            self.l0_ports.remove(port);
        }
        self.internal_groups.retain(|_, members| {
            members.retain(|m| !gone.contains(m));
            !members.is_empty()
        });
        self.slots[graph.slot as usize] = None;
        Ok(result?)
    }

    /// Undeploy a graph: remove rules, virtual links, and instances
    /// (shared NNF instances survive until their last graph leaves).
    pub fn undeploy(&mut self, graph_id: &str) -> Result<(), DeployError> {
        let graph = self
            .graphs
            .remove(graph_id)
            .ok_or_else(|| DeployError::NoSuchGraph(graph_id.to_string()))?;
        self.trace.graphs_undeployed += 1;
        self.teardown(graph)
    }

    /// Undeploy every graph whose id is **not** in `keep`, releasing
    /// its instances, LSI-0 ports and memory; returns the ids removed.
    ///
    /// The domain layer uses this when a failed node rejoins the fleet:
    /// partitions that were re-placed elsewhere (or parked) while the
    /// node was unreachable are stale state whose capacity must be
    /// released before new work is admitted here.
    pub fn retain_graphs(&mut self, keep: &[String]) -> Vec<String> {
        let stale: Vec<String> = self
            .graphs
            .keys()
            .filter(|g| !keep.contains(g))
            .cloned()
            .collect();
        for gid in &stale {
            let _ = self.undeploy(gid);
        }
        stale
    }

    /// Number of live compute instances across all flavors (repair
    /// blast-radius introspection: an untouched node keeps its count).
    pub fn total_instances(&self) -> usize {
        self.compute.len()
    }

    /// Update a deployed graph.
    ///
    /// Rule-only changes are applied in place (remove + reinstall flow
    /// entries); structural changes (NFs or endpoints) trigger an
    /// undeploy + redeploy of the graph.
    pub fn update(&mut self, nffg: &NfFg) -> Result<DeployReport, DeployError> {
        let old = self
            .graphs
            .get(&nffg.id)
            .ok_or_else(|| DeployError::NoSuchGraph(nffg.id.clone()))?;
        let diff = un_nffg::diff(&old.nffg, nffg);
        if diff.is_structural() {
            self.undeploy(&nffg.id)?;
            self.trace.graph_updates_structural += 1;
            return self.deploy(nffg);
        }
        // Rule-level update.
        let errs = validate(nffg);
        if !errs.is_empty() {
            return Err(DeployError::Invalid(errs));
        }
        let graph = self.graphs.get_mut(&nffg.id).expect("looked up above");
        for rule_id in diff
            .removed_rules
            .iter()
            .chain(diff.changed_rules.iter().map(|r| &r.id))
        {
            graph.lsi.remove_by_cookie(rule_cookie(&nffg.id, rule_id));
        }
        for rule in diff.added_rules.iter().chain(diff.changed_rules.iter()) {
            graph.install_rule(rule)?;
        }
        graph.nffg = nffg.clone();
        self.trace.graph_updates_rules += 1;
        Ok(graph.report(&self.compute, self.lsi0.flow_count()))
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Inject a frame on a physical port and run it to completion.
    ///
    /// Thin wrapper over [`UniversalNode::inject_batch`] with a
    /// one-frame burst.
    pub fn inject(&mut self, port_name: &str, pkt: Packet) -> NodeIo {
        match self.ingress_port(port_name, None) {
            Some(id) => self.inject_batch(vec![(id, pkt)]),
            None => NodeIo::default(),
        }
    }

    /// Resolve the port one frame is about to be injected on. A name
    /// this node does not have kills the frame: it is booked as one
    /// typed `inject_unknown_port` drop (and recorded on `flight`, if
    /// a recorder rides along) — here and nowhere else, whichever
    /// layer did the injecting.
    pub fn ingress_port(&mut self, name: &str, flight: Option<&TraceSink>) -> Option<PortId> {
        let id = self.port_id(name);
        if id.is_none() {
            let mut acct = Accounting::new(flight);
            let detail = format_args!("no port '{name}'");
            acct.drop(&self.name, DropReason::InjectUnknownPort, 1, detail);
            acct.settle(&mut self.frame_ledger);
        }
        id
    }

    /// Inject a burst of frames and run the whole burst to completion.
    ///
    /// This is the run-to-completion fast path: frames are bucketed by
    /// fabric location, so each hop resolves its LSI / graph / NF
    /// instance once per burst instead of once per frame. Every frame
    /// carries its own hop TTL — a looping (but non-amplifying) frame
    /// is dropped alone (counted as `fabric_loop_drops`) and cannot
    /// starve the rest of the burst. A total work budget of
    /// `batch × TTL` fabric steps additionally bounds *amplifying*
    /// workloads — a multi-output rule in a virtual-link cycle, or
    /// loop-free fan-out multiplying one frame past the budget — which
    /// the per-frame depth limit alone would let grow exponentially. The
    /// valve is a last resort: once tripped it drops everything still
    /// in flight, including well-behaved batchmates, counted as
    /// `fabric_work_exhausted` so the two drop causes stay
    /// distinguishable.
    pub fn inject_batch(&mut self, batch: Vec<(PortId, Packet)>) -> NodeIo {
        self.inject_batch_flight(batch, None)
    }

    /// [`UniversalNode::inject_batch`] with an optional flight-recorder
    /// sink riding along. With a sink, every fabric crossing appends a
    /// hop record (classifier provenance, NF delivery, typed drops,
    /// egress). A *ghost* sink additionally freezes the node's own
    /// books — frame ledger, trace counters, LSI port/table stats,
    /// microflow caches, NF latency histograms — but not the NFs: they
    /// run for real, so a native NF's state (NAT / conntrack bindings,
    /// XFRM sequence numbers and replay windows, the host's counters)
    /// moves, until a model of the NF (ROADMAP item 2's `NfModel`) can
    /// stand in for it.
    pub fn inject_batch_flight(
        &mut self,
        batch: Vec<(PortId, Packet)>,
        flight: Option<&TraceSink>,
    ) -> NodeIo {
        let frames_in = batch.len() as u64;
        let mut walk = Walk::new(flight, batch.len());
        for (PortId(port), pkt) in batch {
            walk.queue(LocKey::L0(port.0), pkt, FABRIC_TTL);
        }
        while let Some((loc, burst)) = walk.pending.pop_first() {
            match loc {
                LocKey::L0(p) => self.run_l0(&mut walk, PortNo(p), burst),
                LocKey::Graph(slot, p) => self.run_graph(&mut walk, slot, PortNo(p), burst),
            }
        }
        if !walk.acct.ghost() {
            self.trace.fabric_frames_in += frames_in;
            self.trace.fabric_frames_out += walk.io.emitted.len() as u64;
            if let Some(h) = &self.obs_burst_hist {
                h.record(frames_in);
            }
        }
        walk.acct.settle(&mut self.frame_ledger);
        walk.io
    }

    /// One burst at LSI-0: classify it, then dispatch every output in
    /// (frame, output) order — out a physical port, over a virtual
    /// link into a graph LSI, or across the boundary of a shared NF,
    /// whose outputs re-enter LSI-0 on the attach port they left by.
    fn run_l0(&mut self, walk: &mut Walk<'_>, in_port: PortNo, burst: Vec<(Packet, u32)>) {
        let routed = walk.classify(
            &mut self.lsi0,
            &self.costs,
            &self.name,
            in_port,
            burst,
            |out| out,
        );
        let mut it = routed.into_iter().peekable();
        while let Some((out, out_pkt, ttl)) = it.next() {
            match self.l0_ports.get(&out) {
                Some(L0Port::Physical(name)) => {
                    if let Some(f) = walk.acct.flight() {
                        f.hop(
                            &self.name,
                            HopKind::Egress {
                                port: name.as_str().to_string(),
                            },
                        );
                    }
                    walk.io.emitted.push((name.clone(), out_pkt));
                }
                Some(L0Port::Vlink { graph_slot, peer }) => {
                    walk.io.cost += Cost::from_nanos(self.costs.virtual_link_ns);
                    walk.queue(LocKey::Graph(*graph_slot, peer.0), out_pkt, ttl - 1);
                }
                Some(L0Port::SharedAttach(inst)) => {
                    // Consecutive frames bound for the same attach port
                    // cross the boundary as one burst.
                    let inst = *inst;
                    let mut frames = vec![(0, out_pkt)];
                    let mut ttls = vec![ttl];
                    while let Some((_, p2, t2)) = it.next_if(|(next, _, _)| *next == out) {
                        frames.push((0, p2));
                        ttls.push(t2);
                    }
                    for (_, back, ttl) in self.deliver_run(walk, inst, frames, ttls) {
                        walk.queue(LocKey::L0(out.0), back, ttl);
                    }
                }
                None => walk
                    .acct
                    .drop(&self.name, DropReason::L0UnmappedPort, 1, ""),
            }
        }
    }

    /// One burst at a graph LSI: classify it, then dispatch every
    /// output in order — over the virtual link back to LSI-0, or
    /// across the boundary of one of the graph's NFs, whose outputs
    /// re-enter the graph LSI on the port wired to the NF port they
    /// left by.
    fn run_graph(
        &mut self,
        walk: &mut Walk<'_>,
        slot: u32,
        in_port: PortNo,
        burst: Vec<(Packet, u32)>,
    ) {
        let Some(graph) = self
            .slots
            .get(slot as usize)
            .and_then(|s| s.as_deref())
            .and_then(|gid| self.graphs.get_mut(gid))
        else {
            let detail = format_args!("graph slot {slot} is gone");
            return walk.acct.drop(
                &self.name,
                DropReason::FabricDeadSlot,
                burst.len() as u64,
                detail,
            );
        };
        // Resolve every output port while the graph is borrowed: the
        // NF boundary below needs the whole node.
        let ports = &graph.ports;
        let mapped = walk.classify(
            &mut graph.lsi,
            &self.costs,
            &self.name,
            in_port,
            burst,
            |out| ports.get(&out).cloned(),
        );
        let mut it = mapped.into_iter().peekable();
        while let Some((kind, out_pkt, ttl)) = it.next() {
            match kind {
                Some(GPort::Vlink { l0_port }) => {
                    walk.io.cost += Cost::from_nanos(self.costs.virtual_link_ns);
                    walk.queue(LocKey::L0(l0_port.0), out_pkt, ttl - 1);
                }
                Some(GPort::Nf(inst, nf_port)) => {
                    // Consecutive frames bound for the same instance
                    // (any of its ports) cross the boundary as one
                    // burst.
                    let mut frames = vec![(nf_port, out_pkt)];
                    let mut ttls = vec![ttl];
                    while let Some((Some(GPort::Nf(_, np)), p2, t2)) = it.next_if(
                        |(next, _, _)| matches!(next, Some(GPort::Nf(ni, _)) if *ni == inst),
                    ) {
                        frames.push((np, p2));
                        ttls.push(t2);
                    }
                    let outs = self.deliver_run(walk, inst, frames, ttls);
                    let wired = self
                        .slots
                        .get(slot as usize)
                        .and_then(|s| s.as_deref())
                        .and_then(|gid| self.graphs.get(gid))
                        .map(|g| &g.rev_nf);
                    for (nf_out, back, ttl) in outs {
                        match wired.and_then(|w| w.get(&(inst, nf_out))) {
                            Some(gp) => walk.queue(LocKey::Graph(slot, gp.0), back, ttl),
                            None => {
                                let detail = format_args!("nf port {nf_out}");
                                walk.acct.drop(
                                    &self.name,
                                    DropReason::GraphUnmappedNfPort,
                                    1,
                                    detail,
                                );
                            }
                        }
                    }
                }
                None => walk
                    .acct
                    .drop(&self.name, DropReason::GraphUnmappedPort, 1, ""),
            }
        }
    }

    /// The NF-delivery stage, written once for shared attach ports and
    /// graph NF ports: hand `frames` — consecutive `(nf port, frame)`s
    /// bound for one instance — across the NF boundary as one timed
    /// `deliver_batch`, record the per-frame latency (histogram and NF
    /// hop), account every frame's fan-in, and return every output as
    /// `(nf port it left by, frame, ttl - 1)`. Where those re-enter the
    /// fabric is the one thing the callers differ in.
    fn deliver_run(
        &mut self,
        walk: &mut Walk<'_>,
        inst: InstanceId,
        frames: Vec<(u32, Packet)>,
        ttls: Vec<u32>,
    ) -> Vec<(u32, Packet, u32)> {
        let n = frames.len() as u64;
        let t0 = (self.obs.is_some() || walk.acct.flight().is_some()).then(Instant::now);
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let outs = self.compute.deliver_batch(&mut env, inst, frames);
        if let Some(t0) = t0 {
            let per = t0.elapsed().as_nanos() as u64 / n;
            for _ in 0..n {
                if !walk.acct.ghost() {
                    self.record_nf_latency(inst, per);
                }
                if let Some(f) = walk.acct.flight() {
                    self.nf_hop(f, inst, per);
                }
            }
        }
        let mut back = Vec::with_capacity(outs.len());
        for (out_io, ttl) in outs.into_iter().zip(ttls) {
            walk.io.cost += out_io.cost;
            walk.acct.produced(out_io.outputs.len());
            back.extend(
                out_io
                    .outputs
                    .into_iter()
                    .map(|(nf_out, pkt)| (nf_out, pkt, ttl - 1)),
            );
        }
        back
    }

    /// Append one NF-delivery hop (instance, functional type, driver
    /// flavor, measured latency) to an active trace.
    fn nf_hop(&self, f: &TraceSink, inst: InstanceId, latency_ns: u64) {
        f.hop(
            &self.name,
            HopKind::NfDeliver {
                instance: self.compute.name(inst).unwrap_or("unknown").to_string(),
                nf_type: self
                    .compute
                    .functional_type(inst)
                    .unwrap_or("unknown")
                    .to_string(),
                flavor: self
                    .compute
                    .flavor(inst)
                    .map(|fl| fl.to_string())
                    .unwrap_or_else(|| "unknown".to_string()),
                latency_ns,
            },
        );
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The node's self-description.
    pub fn describe(&self) -> NodeDescription {
        let cache_stats = self.flow_cache_stats();
        NodeDescription {
            name: self.name.clone(),
            flavors: vec!["vm".into(), "docker".into(), "dpdk".into(), "native".into()],
            nnfs: self
                .compute
                .native
                .catalog
                .iter()
                .map(|d| (d.functional_type.to_string(), d.sharable, d.multi_instance))
                .collect(),
            graphs: self.graph_ids(),
            instances: self
                .compute
                .iter()
                .map(|(id, flavor, name)| {
                    (
                        name.to_string(),
                        flavor.to_string(),
                        self.compute
                            .functional_type(id)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect(),
            memory_used: self.memory_used(),
            memory_capacity: self.mem_capacity,
            flow_cache_hits: cache_stats.cache_hits,
            flow_cache_misses: cache_stats.cache_misses,
            flow_cache_entries: self.flow_cache_entries() as u64,
        }
    }

    /// Render the node architecture as an ASCII tree (the Figure 1
    /// reproduction; validated structurally in tests).
    pub fn architecture_diagram(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("NFV Compute Node '{}'\n", self.name));
        out.push_str("└─ Local Orchestrator (REST → deploy/update/undeploy)\n");
        out.push_str(&format!(
            "   ├─ VNF repository: {} templates\n",
            self.repository.len()
        ));
        out.push_str(&format!(
            "   ├─ NNF catalogue: {} native functions\n",
            self.compute.native.catalog.len()
        ));
        out.push_str(&format!(
            "   ├─ Resource manager: {} / {} used\n",
            format_bytes(self.memory_used()),
            format_bytes(self.mem_capacity)
        ));
        out.push_str("   ├─ Traffic steering\n");
        out.push_str(&format!(
            "   │  ├─ {} (dpid {}): {} ports, {} flows\n",
            self.lsi0.name,
            self.lsi0.dpid,
            self.lsi0.port_count(),
            self.lsi0.flow_count()
        ));
        for (pno, kind) in &self.l0_ports {
            let desc = match kind {
                L0Port::Physical(n) => format!("physical '{n}'"),
                L0Port::Vlink { graph_slot, .. } => {
                    let g = self.slots[*graph_slot as usize].clone().unwrap_or_default();
                    format!("virtual link → LSI-{g}")
                }
                L0Port::SharedAttach(i) => format!("shared NNF attach ({i})"),
            };
            out.push_str(&format!("   │  │   {pno}: {desc}\n"));
        }
        for graph in self.graphs.values() {
            out.push_str(&format!(
                "   │  ├─ {} (dpid {}): {} ports, {} flows\n",
                graph.lsi.name,
                graph.lsi.dpid,
                graph.lsi.port_count(),
                graph.lsi.flow_count()
            ));
        }
        out.push_str("   └─ Compute manager\n");
        for (id, _, name) in self.compute.iter() {
            let driver = self.compute.driver_label(id).unwrap_or_default();
            out.push_str(&format!("      ├─ {id} '{name}' via {driver}\n"));
        }
        out
    }

    /// The node fabric's share of the conservation ledger.
    pub fn frame_ledger(&self) -> &FrameLedger {
        &self.frame_ledger
    }

    /// LSI-0 statistics (tests / metrics endpoint).
    pub fn lsi0_stats(&self) -> un_switch::SwitchStats {
        self.lsi0.stats
    }

    /// Flow count across all LSIs.
    pub fn total_flows(&self) -> usize {
        self.lsi0.flow_count()
            + self
                .graphs
                .values()
                .map(|g| g.lsi.flow_count())
                .sum::<usize>()
    }

    /// Iterate every LSI on the node — LSI-0 first, then one per
    /// deployed graph (`Some(graph id)`). Read-only view for static
    /// analysis and table dumps.
    pub fn lsis(&self) -> impl Iterator<Item = (Option<&str>, &un_switch::LogicalSwitch)> {
        std::iter::once((None, &self.lsi0)).chain(
            self.graphs
                .iter()
                .map(|(id, g)| (Some(id.as_str()), &g.lsi)),
        )
    }
}

impl NativeStatus for UniversalNode {
    fn existing(&self, functional_type: &str) -> Option<(InstanceId, bool)> {
        match self.shared.get(functional_type) {
            Some(info) => Some((info.instance, true)),
            None => self
                .compute
                .native
                .existing_instance(functional_type)
                .map(|id| (id, false)),
        }
    }
}

/// Compile one NF-FG rule into a graph-LSI flow entry.
fn compile_rule(graph: &DeployedGraph, rule: &FlowRule) -> Result<FlowEntry, String> {
    let mut m = FlowMatch::any();
    let mut actions: Vec<FlowAction> = Vec::new();

    let resolve = |r: &PortRef| -> Result<(PortNo, Option<u16>), String> {
        match r {
            PortRef::Endpoint(ep) => graph
                .vlinks
                .get(&VlinkKey::Endpoint(ep.clone()))
                .map(|p| (*p, None))
                .ok_or_else(|| format!("endpoint '{ep}' has no vlink")),
            PortRef::Nf(nf, port) => {
                let placed = graph
                    .nfs
                    .get(nf)
                    .ok_or_else(|| format!("NF '{nf}' not placed"))?;
                match &placed.shared {
                    None => graph
                        .rev_nf
                        .get(&(placed.instance, *port))
                        .map(|p| (*p, None))
                        .ok_or_else(|| format!("NF '{nf}' port {port} not mapped")),
                    Some(binding) => {
                        let vid = if *port == 0 {
                            binding.vid_lan
                        } else {
                            binding.vid_wan
                        };
                        graph
                            .vlinks
                            .get(&VlinkKey::SharedNf(nf.clone()))
                            .map(|p| (*p, Some(vid)))
                            .ok_or_else(|| format!("shared NF '{nf}' has no vlink"))
                    }
                }
            }
        }
    };

    // port-in (validated earlier to be present).
    let port_in = rule
        .matches
        .port_in
        .as_ref()
        .ok_or_else(|| "rule missing port-in".to_string())?;
    let (in_port, in_vid) = resolve(port_in)?;
    m.in_port = Some(in_port);
    if let Some(vid) = in_vid {
        // Traffic from a shared NNF arrives tagged: match + strip.
        m.vlan = Some(VlanSpec::Id(vid));
        actions.push(FlowAction::PopVlan);
    }

    apply_match_fields(&rule.matches, &mut m)?;

    for action in &rule.actions {
        match action {
            RuleAction::Output(r) => {
                let (out_port, out_vid) = resolve(r)?;
                if let Some(vid) = out_vid {
                    actions.push(FlowAction::PushVlan(vid));
                }
                actions.push(FlowAction::Output(out_port));
            }
            RuleAction::PushVlan(v) => actions.push(FlowAction::PushVlan(*v)),
            RuleAction::PopVlan => actions.push(FlowAction::PopVlan),
            RuleAction::SetFwmark(mark) => actions.push(FlowAction::SetFwmark(*mark)),
        }
    }

    Ok(FlowEntry::new(rule.priority, m, actions))
}

fn apply_match_fields(tm: &TrafficMatch, m: &mut FlowMatch) -> Result<(), String> {
    if let Some(s) = &tm.eth_src {
        m.eth_src = Some(s.parse::<MacAddr>().map_err(|_| format!("bad MAC '{s}'"))?);
    }
    if let Some(s) = &tm.eth_dst {
        m.eth_dst = Some(s.parse::<MacAddr>().map_err(|_| format!("bad MAC '{s}'"))?);
    }
    if let Some(t) = tm.ether_type {
        m.eth_type = Some(t);
    }
    if let Some(v) = tm.vlan_id {
        m.vlan = Some(VlanSpec::Id(v));
    }
    if let Some(s) = &tm.ip_src {
        m.ip_src = Some(parse_prefix(s)?);
    }
    if let Some(s) = &tm.ip_dst {
        m.ip_dst = Some(parse_prefix(s)?);
    }
    if let Some(p) = tm.ip_proto {
        m.ip_proto = Some(p);
    }
    if let Some(p) = tm.src_port {
        m.l4_src = Some(p);
    }
    if let Some(p) = tm.dst_port {
        m.l4_dst = Some(p);
    }
    Ok(())
}

fn parse_prefix(s: &str) -> Result<Ipv4Cidr, String> {
    if s.contains('/') {
        s.parse().map_err(|_| format!("bad prefix '{s}'"))
    } else {
        let ip: std::net::Ipv4Addr = s.parse().map_err(|_| format!("bad address '{s}'"))?;
        Ok(Ipv4Cidr::new(ip, 32))
    }
}

#[cfg(test)]
mod tests;
