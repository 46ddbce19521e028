//! The Universal Node: orchestrator + steering + fabric.
//!
//! One [`UniversalNode`] is the whole compute node of Figure 1. It owns
//! the CPE kernel ([`un_linux::Host`]), the compute manager with its
//! four drivers, the base LSI (LSI-0) and one LSI per deployed NF-FG,
//! and the virtual links between them. Deploying an NF-FG is updating
//! an empty part on a fresh LSI, and an update builds only what changed,
//! make-before-break:
//!
//! 0. compile every NF's config into its command list
//!    ([`un_nnf::compile`]) — [`UniversalNode::deploy`] and
//!    [`UniversalNode::update`] do it first, the domain's planner hands
//!    its lists to [`UniversalNode::deploy_compiled`] /
//!    [`UniversalNode::update_compiled`] — so a refused config costs no
//!    node call;
//! 1. validate the graph; check its interfaces, the traffic its new
//!    endpoints take and the match fields of the rules it installs;
//! 2. for every new or changed NF, run the placement policy (NNF vs
//!    VNF) and create / join an instance through the compute manager,
//!    beside the old ones, handing it the NF's list (a shared one takes
//!    the graph's compiled NAT binding); an NF whose definition and list
//!    are unchanged keeps its running instance;
//! 3. admission-check memory as the node will hold it once the old
//!    instances go;
//! 4. lower the part, where its NFs now run, into an `LsiProgram` —
//!    plain data: the graph LSI's ports, keyed by what they lead to (an
//!    NF instance's port, an endpoint's or a shared NNF's virtual
//!    link), its flow entries, and the LSI-0 entries the part owns
//!    (endpoint classification, the VLAN steering to shared NNFs behind
//!    the adaptation layer) — and apply the diff from the program the
//!    part ran: what only the old one lists goes, what only the new one
//!    lists comes;
//! 5. retire the removed and replaced instances.
//!
//! What stages 1–3 made goes back on a refusal, so the part stays as it
//! was (a deploy's fresh LSI is freed with it). A teardown frees the
//! graph's LSI and applies the diff to the empty program.
//!
//! The data plane is a synchronous work-queue fabric: a packet injected
//! on a physical port traverses LSI-0, virtual links, graph LSIs and NF
//! instances until it is emitted or dropped, accumulating virtual-time
//! cost along the way.

use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::sync::Arc;
use std::time::Instant;

use un_compute::{ComputeError, ComputeManager, Crossing, Flavor, FlavorSpec, InstanceId, NodeEnv};
use un_linux::Host;
use un_nffg::{
    validate, Endpoint, EndpointKind, FlowRule, NetworkFunction, NfFg, PortRef, RuleAction,
    TrafficMatch,
};
use un_nnf::{compile, CompileError, GraphBinding, NatBinding, NnfCommand, NnfError, Programs};
use un_obs::{Accounting, ClassifierStage, DropReason, FrameLedger, HopKind, TraceSink};
use un_packet::ethernet::MacAddr;
use un_packet::{Ipv4Cidr, Packet};
use un_sim::mem::format_bytes;
use un_sim::{AccountId, Cost, CostModel, MemLedger, SimTime};
use un_switch::{
    Backend, FlowAction, FlowEntry, FlowMatch, LogicalSwitch, LookupPath, PipelineStep, PortNo,
    ProcessOptions, TrafficClass, VlanSpec,
};

use crate::placement::{decide, Decision, NativeStatus};

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
    /// An NF's config does not compile; refused before any instance is
    /// created.
    NfConfig {
        /// The NF id.
        nf: String,
        /// Why its config was refused.
        error: NnfError,
    },
    /// An NF whose type runs a compiled program was handed none (a
    /// caller of `deploy_compiled` / `update_compiled` left it out);
    /// refused before its instance is created.
    NotCompiled(String),
    /// Every mark a shared NNF binding can take is held: the next one's
    /// WAN-side VLAN id would pass 4094.
    NoFreeMark,
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
            DeployError::NfConfig { nf, error } => write!(f, "NF '{nf}': {error}"),
            DeployError::NotCompiled(nf) => write!(f, "NF '{nf}' was handed no compiled config"),
            DeployError::NoFreeMark => {
                write!(f, "no free shared-NNF mark (VLAN ids run out at 4094)")
            }
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

impl From<CompileError> for DeployError {
    fn from(CompileError { nf, error }: CompileError) -> Self {
        DeployError::NfConfig { nf, error }
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

    /// The interned string itself, shared: a reader that keeps the name
    /// bumps a count instead of copying it.
    pub fn shared(&self) -> Arc<str> {
        Arc::clone(&self.0)
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

/// The highest VLAN id a shared binding's sub-interface may carry.
const MAX_VID: u32 = 4094;

/// Where a burst currently is inside the fabric: `(LSI index, port)`.
/// LSI-0 is index 0, so the work list drains LSI-0 buckets before the
/// graph LSIs', and those in index order.
type Loc = (usize, PortNo);

/// What a port of a part's LSI side leads to, its name in the part's
/// [`LsiProgram`]: a replaced endpoint or NF instance gets a new key, so
/// a diff replaces its port and every entry wired to it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PortKey {
    /// Port `u32` of a dedicated NF instance.
    Nf(InstanceId, u32),
    /// An endpoint's virtual link.
    Endpoint(Endpoint),
    /// A shared NF's virtual link: the NF, its instance and its
    /// binding's (LAN, WAN) VLAN ids.
    Shared(String, InstanceId, [u16; 2]),
}

/// A flow entry whose action list is allocated once.
fn flow_entry(
    priority: u16,
    matches: FlowMatch,
    actions: Arc<[FlowAction]>,
    cookie: u64,
) -> FlowEntry {
    let (packet_count, byte_count) = (0, 0);
    FlowEntry {
        priority,
        matches,
        actions,
        cookie,
        packet_count,
        byte_count,
    }
}

/// A part's LSI side as plain data, lowered by [`UniversalNode::lower`]:
/// the graph LSI's ports, its entries and the part's LSI-0 entries. An
/// entry names the program's `i`-th port by the reserved number
/// [`own`]`(i)`, as OpenFlow names logical ports from the top of the
/// range; any other number is a physical or shared-NNF attach port.
#[derive(Debug, Default)]
struct LsiProgram {
    /// The graph LSI's ports, in the order a fresh LSI numbers them.
    ports: Vec<PortKey>,
    /// The graph LSI's entries, one per rule, in install order.
    entries: Vec<FlowEntry>,
    /// The LSI-0 entries, in install order.
    l0: Vec<FlowEntry>,
}

/// The number a program names its `i`-th port by.
fn own(i: usize) -> PortNo {
    PortNo(u32::MAX - i as u32)
}

/// Where a program's port landed: its port on the graph's LSI and, for
/// a virtual link, its LSI-0 end.
type Landed = (PortNo, Option<PortNo>);

/// How an entry's ports are numbered on the LSI it is installed on.
type Numbering<'a> = &'a dyn Fn(PortNo) -> PortNo;

/// Numbers the ports of a program landed at `landed` on LSI-0 (`l0`) or
/// on the graph's LSI.
fn numbering(landed: &[Landed], l0: bool) -> impl Fn(PortNo) -> PortNo + '_ {
    move |no| match landed.get((u32::MAX - no.0) as usize) {
        Some(&(_, end)) if l0 => end.expect("a virtual link's LSI-0 end"),
        Some(&(port, _)) => port,
        None => no,
    }
}

/// An entry with its ports numbered by `at`, counters aside.
fn view<'a>(
    e: &'a FlowEntry,
    at: Numbering<'a>,
) -> (u16, u64, FlowMatch, impl Iterator<Item = FlowAction> + 'a) {
    let matches = FlowMatch {
        in_port: e.matches.in_port.map(at),
        ..e.matches.clone()
    };
    let actions = e.actions.iter().map(move |a| match a {
        FlowAction::Output(port) => FlowAction::Output(at(*port)),
        a => a.clone(),
    });
    (e.priority, e.cookie, matches, actions)
}

/// What a program diff joins entries on: priority, cookie and ingress
/// port, numbered as the entry's LSI numbers it. Most entries of a
/// table differ in one of them.
type DiffKey = (u16, u64, Option<PortNo>);

fn diff_key(e: &FlowEntry, at: Numbering<'_>) -> DiffKey {
    (e.priority, e.cookie, e.matches.in_port.map(at))
}

/// True if `a` numbered by `a_at` is `b` numbered by `b_at`: their
/// [`DiffKey`]s first, then the rest of the match and the actions,
/// compared in place.
fn alike(a: &FlowEntry, a_at: Numbering<'_>, b: &FlowEntry, b_at: Numbering<'_>) -> bool {
    if diff_key(a, a_at) != diff_key(b, b_at) {
        return false;
    }
    let FlowMatch {
        in_port: _,
        eth_src,
        eth_dst,
        eth_type,
        vlan,
        ip_src,
        ip_dst,
        ip_proto,
        l4_src,
        l4_dst,
        fwmark,
    } = &a.matches;
    let m = &b.matches;
    let same_match = (eth_src, eth_dst, eth_type, vlan, ip_src, ip_dst)
        == (
            &m.eth_src,
            &m.eth_dst,
            &m.eth_type,
            &m.vlan,
            &m.ip_src,
            &m.ip_dst,
        )
        && (ip_proto, l4_src, l4_dst, fwmark) == (&m.ip_proto, &m.l4_src, &m.l4_dst, &m.fwmark);
    same_match
        && a.actions.len() == b.actions.len()
        && a.actions
            .iter()
            .zip(b.actions.iter())
            .all(|pair| match pair {
                (FlowAction::Output(x), FlowAction::Output(y)) => a_at(*x) == b_at(*y),
                (x, y) => x == y,
            })
}

/// A program entry in a diff: its side and its index, as one word.
type DiffTag = u32;

/// The mark of an entry of the new program; an old one's has none.
const WILL: DiffTag = 1 << 31;

/// The tag of an entry the other program lacks.
const ALONE: DiffTag = 1 << 30;

/// The entries of `was` that `will` lacks and those of `will` that
/// `was` lacks, each numbered by its own `at`, written to `out` as
/// tags — `i` for `was[i]`, then `WILL | j` for `will[j]`, each side in
/// its own order. Both lists are joined on their [`DiffKey`]: a word
/// per entry, sorted together once, so only entries that share a key
/// are compared; two lists alike entry by entry, an untouched side's,
/// are told apart without sorting. `out`'s buffer is the caller's, so a
/// warm diff allocates nothing.
fn diff(
    was: &[FlowEntry],
    was_at: Numbering<'_>,
    will: &[FlowEntry],
    will_at: Numbering<'_>,
    out: &mut Vec<(u64, DiffTag)>,
) {
    out.clear();
    let same = was.len() == will.len();
    if same
        && was
            .iter()
            .zip(will)
            .all(|(a, b)| alike(a, was_at, b, will_at))
    {
        return;
    }
    // Equal keys give equal words; two keys sharing a word only share
    // a group, where every pair is compared whole.
    let word = |e: &FlowEntry, at: Numbering<'_>| {
        let (priority, cookie, port) = diff_key(e, at);
        let port = port.map_or(1 << 32, |p| u64::from(p.0));
        cookie.rotate_left(16) ^ u64::from(priority) ^ port << 24
    };
    let tags = |side: DiffTag, n: usize| (0..n as DiffTag).map(move |i| side | i);
    if was.is_empty() || will.is_empty() {
        // A deploy or a teardown: one side is all there is.
        out.extend(
            tags(0, was.len())
                .chain(tags(WILL, will.len()))
                .map(|t| (0, t)),
        );
        return;
    }
    out.extend(
        was.iter()
            .zip(tags(0, was.len()))
            .map(|(e, t)| (word(e, was_at), t)),
    );
    out.extend(
        will.iter()
            .zip(tags(WILL, will.len()))
            .map(|(e, t)| (word(e, will_at), t)),
    );
    out.sort_unstable();
    let entry = |tag: DiffTag| match tag & WILL {
        0 => (&was[(tag & !(WILL | ALONE)) as usize], was_at),
        _ => (&will[(tag & !(WILL | ALONE)) as usize], will_at),
    };
    let mut lo = 0;
    while lo < out.len() {
        let len = out[lo..].partition_point(|x| x.0 == out[lo].0);
        // A group lists its `was` entries before its `will` entries.
        let split = out[lo..lo + len].partition_point(|x| x.1 & WILL == 0);
        for k in 0..len {
            let (e, at) = entry(out[lo + k].1);
            let mut others = if k < split { split..len } else { 0..split };
            let matched = others.any(|o| {
                let (f, f_at) = entry(out[lo + o].1);
                alike(e, at, f, f_at)
            });
            if !matched {
                out[lo + k].1 |= ALONE;
            }
        }
        lo += len;
    }
    out.retain(|x| x.1 & ALONE != 0);
    out.sort_unstable_by_key(|x| x.1);
}

/// What an LSI port leads to.
#[derive(Debug)]
enum PortKind {
    /// A physical interface of the node (LSI-0 only).
    Physical(Name),
    /// One end of a virtual link; `peer` is the other end, on LSI `lsi`.
    Vlink { lsi: usize, peer: PortNo },
    /// Port `u32` of an NF instance: a dedicated NF's port on its
    /// graph's LSI, or a shared NNF's one attach port (port 0) on LSI-0.
    Nf(InstanceId, u32),
}

/// One logical switch of the node and what its ports lead to.
struct Lsi {
    switch: LogicalSwitch,
    ports: BTreeMap<PortNo, PortKind>,
    /// The port each NF port is wired to, where the NF's output
    /// re-enters this LSI.
    nf_ports: BTreeMap<(InstanceId, u32), PortNo>,
    next_port: u32,
}

impl Lsi {
    fn new(name: &str, dpid: u64) -> Self {
        Lsi {
            switch: LogicalSwitch::new(name, dpid, Backend::SingleTableCached),
            ports: BTreeMap::new(),
            nf_ports: BTreeMap::new(),
            next_port: 1,
        }
    }

    fn add_port(&mut self, name: &str, kind: PortKind) -> PortNo {
        let port = PortNo(self.next_port);
        self.next_port += 1;
        self.switch.add_port(port, name).expect("fresh port");
        if let PortKind::Nf(instance, nf_port) = kind {
            self.nf_ports.insert((instance, nf_port), port);
        }
        self.ports.insert(port, kind);
        port
    }

    fn remove_port(&mut self, port: PortNo) {
        let _ = self.switch.remove_port(port);
        if let Some(PortKind::Nf(instance, nf_port)) = self.ports.remove(&port) {
            self.nf_ports.remove(&(instance, nf_port));
        }
    }
}

#[derive(Debug, Clone)]
struct PlacedNf {
    instance: InstanceId,
    shared: Option<GraphBinding>,
}

/// What an update makes on the node before it flips the graph's LSI
/// side, and so what a refusal gives back.
#[derive(Default)]
struct Staged {
    /// The new and changed NFs' placements, by NF id.
    fresh: BTreeMap<String, PlacedNf>,
    /// Singletons retired early to make room for their successors.
    displaced: Vec<Displaced>,
}

/// A dedicated singleton retired before its successor was created, and
/// what rebuilds it if the update is refused: the list it ran and its
/// latency histogram.
struct Displaced {
    instance: InstanceId,
    program: Vec<NnfCommand>,
    hist: Option<Arc<un_obs::Histogram>>,
}

/// What a flipped update leaves to do once its graph is back in the
/// node's table.
struct Flipped {
    /// An NF or an endpoint changed.
    structural: bool,
    /// The removed and replaced NFs' placements, to release.
    retired: Vec<PlacedNf>,
    /// The internal groups an endpoint joined or left, to rebuild (a
    /// group twice is rebuilt twice, to the same rules).
    groups: Vec<String>,
}

/// The node as the placement policy sees it while an update is about to
/// retire a singleton instance: its slot counts as free.
struct Retiring<'a>(&'a UniversalNode, Option<InstanceId>);

impl NativeStatus for Retiring<'_> {
    fn existing(&self, functional_type: &str) -> Option<(InstanceId, bool)> {
        let found = self.0.existing(functional_type);
        found.filter(|(id, _)| Some(*id) != self.1)
    }
}

/// A graph on the node. It is its own journal: what it holds is
/// recorded here or on its LSI, and `teardown` reads nothing else to
/// give all of it back. An update stages its new instances in a
/// [`Staged`] — each recorded right after `create`, before the start or
/// bind that can fail — and moves them here at the flip.
struct DeployedGraph {
    nffg: NfFg,
    /// Its LSI's index in the node's table (≥ 1).
    lsi: usize,
    /// Its LSI side, as the last flip applied it.
    program: LsiProgram,
    /// Where each of the program's ports landed.
    landed: Vec<Landed>,
    nfs: BTreeMap<String, PlacedNf>,
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
    /// The compute manager (the node's repository inside).
    pub compute: ComputeManager,
    /// The node's LSIs: LSI-0 at index 0, never freed, then each graph's
    /// at the index it holds; a freed index is `None` until a graph
    /// takes it again.
    lsis: Vec<Option<Lsi>>,
    /// LSI-0's physical ports by name.
    physical: BTreeMap<String, PortNo>,
    graphs: BTreeMap<String, DeployedGraph>,
    next_dpid: u64,
    clock: SimTime,
    /// The node's closed counter set (the frame ledger aside).
    pub trace: NodeCounters,
    /// The node fabric's share of the conservation ledger.
    frame_ledger: FrameLedger,
    /// The buffers every walk through the fabric borrows.
    walk_scratch: WalkScratch,
    /// The buffer every program diff borrows.
    diff_scratch: Vec<(u64, DiffTag)>,
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

/// FNV-1a over the concatenation of `parts`.
fn fnv1a(parts: &[&str]) -> u64 {
    let bytes = parts.iter().flat_map(|part| part.bytes());
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    bytes.fold(0xcbf2_9ce4_8422_2325, step)
}

/// The cookie stamped on a compiled graph rule (`<graph>/<rule>`), the
/// contract between the orchestrator's install receipts and anything
/// auditing the tables (rule-level updates and the static verifier key
/// on it).
pub fn rule_cookie(graph_id: &str, rule_id: &str) -> u64 {
    fnv1a(&[graph_id, "/", rule_id])
}

/// The cookie stamped on a graph's LSI-0 plumbing rules (endpoint
/// classification, shared-NNF vlinks).
pub fn graph_cookie(graph_id: &str) -> u64 {
    fnv1a(&[graph_id])
}

/// The cookie stamped on an internal group's LSI-0 rules, which belong
/// to the group, not to any one member.
fn group_cookie(group: &str) -> u64 {
    fnv1a(&["group:", group])
}

/// The internal group an endpoint joins, if it is an internal one.
fn internal_group(ep: &Endpoint) -> Option<&str> {
    match &ep.kind {
        EndpointKind::Internal { group } => Some(group),
        _ => None,
    }
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

/// Frames waiting at one fabric location, every one with its TTL.
type Burst = Vec<(Packet, u32)>;

/// The buffers a walk through the fabric works in. The node keeps one
/// and lends it to each walk, so a warm walk allocates none of them.
/// Between walks every buffer is empty — no frame outlives its walk —
/// and only their capacity carries over.
#[derive(Default)]
struct WalkScratch {
    /// Bursts waiting at a fabric location, sorted by location largest
    /// first, so the next to drain — the smallest — is the last. Never
    /// holds an empty burst.
    pending: Vec<(Loc, Burst)>,
    /// Drained bursts, reused for the next location a frame is queued at.
    free: Vec<Burst>,
    /// One frame's outputs from an LSI.
    outputs: Vec<(PortNo, Packet)>,
    /// A classified burst: `(out port, frame, ttl)`.
    routed: Vec<(PortNo, Packet, u32)>,
    /// The frames crossing one NF boundary: `(nf port, frame)`.
    nf_in: Vec<(u32, Packet)>,
    /// Their TTLs, one per frame.
    ttls: Vec<u32>,
    /// What the NF handed back, flat, with each input frame's end.
    crossing: Crossing,
}

impl WalkScratch {
    /// True when no buffer holds a frame.
    fn is_clear(&self) -> bool {
        self.pending.is_empty()
            && self.free.iter().all(Vec::is_empty)
            && self.outputs.is_empty()
            && self.routed.is_empty()
            && self.nf_in.is_empty()
            && self.ttls.is_empty()
            && self.crossing.is_clear()
    }
}

/// Per-call state of one burst's run through the node fabric: the
/// books (recorder, ghost flag and what the walk owes the node's
/// ledger), the result under construction, and the node's scratch,
/// taken for the call and handed back when it ends.
struct Walk<'a> {
    acct: Accounting<'a>,
    io: NodeIo,
    /// Frames the walk was entered with.
    frames_in: usize,
    /// Fabric steps left before the amplification valve closes.
    work_budget: u64,
    scratch: WalkScratch,
}

impl Walk<'_> {
    /// Queue `pkt` at `loc`: on the burst already waiting there, or on
    /// a drained one reused for it.
    fn queue(&mut self, loc: Loc, pkt: Packet, ttl: u32) {
        let WalkScratch { pending, free, .. } = &mut self.scratch;
        let i = match pending.binary_search_by(|(at, _)| loc.cmp(at)) {
            Ok(i) => i,
            Err(i) => {
                pending.insert(i, (loc, free.pop().unwrap_or_default()));
                i
            }
        };
        pending[i].1.push((pkt, ttl));
    }

    /// The classify stage: drain a burst that arrived on `in_port` of
    /// `node`'s `lsi` through it — per frame the TTL check, the work
    /// budget, the LSI, its classify hop and the fan-out accounting —
    /// and leave every output in the scratch's `routed` as `(out port,
    /// frame, ttl)`, in (frame, output) order.
    fn classify(
        &mut self,
        lsi: &mut LogicalSwitch,
        costs: &CostModel,
        node: &str,
        in_port: PortNo,
        burst: &mut Burst,
    ) {
        let popts = ProcessOptions {
            ghost: self.acct.ghost(),
            record: self.acct.flight().is_some(),
        };
        for (pkt, ttl) in burst.drain(..) {
            if ttl == 0 {
                self.acct.drop(node, DropReason::FabricLoop, 1, "");
                continue;
            }
            if self.work_budget == 0 {
                self.acct.drop(node, DropReason::FabricWorkExhausted, 1, "");
                continue;
            }
            self.work_budget -= 1;
            let outputs = &mut self.scratch.outputs;
            let res = lsi.process_into(in_port, pkt, costs, popts, outputs);
            if let (Some(f), Some(step)) = (self.acct.flight(), &res.step) {
                record_classify_hop(f, node, &lsi.name, step);
            }
            self.io.cost += res.cost;
            self.acct.produced(outputs.len());
            let routed = outputs.drain(..).map(|(out, p)| (out, p, ttl));
            self.scratch.routed.extend(routed);
        }
    }

    /// Book what the scratch's NF crossing handed back, input frame by
    /// input frame — its cost, its fan-out — and queue each output, one
    /// hop less on its input frame's TTL, where `enter` says the NF port
    /// it left by re-enters the fabric; a frame whose port is wired
    /// nowhere dies as `GraphUnmappedNfPort`. The crossing and the TTLs
    /// return to the scratch empty.
    fn requeue(&mut self, node: &str, enter: impl Fn(u32) -> Option<Loc>) {
        let mut crossing = mem::take(&mut self.scratch.crossing);
        let mut ttls = mem::take(&mut self.scratch.ttls);
        let mut ttl_of = ttls.drain(..);
        crossing.drain_frames(|cost, outputs| {
            let ttl = ttl_of.next().expect("one TTL per input frame");
            self.io.cost += cost;
            self.acct.produced(outputs.len());
            for (nf_out, pkt) in outputs {
                let nf_out = nf_out as u32;
                match enter(nf_out) {
                    Some(loc) => self.queue(loc, pkt, ttl - 1),
                    None => {
                        let detail = format_args!("nf port {nf_out}");
                        self.acct
                            .drop(node, DropReason::GraphUnmappedNfPort, 1, detail);
                    }
                }
            }
        });
        debug_assert_eq!(ttl_of.len(), 0, "one end per input frame");
        drop(ttl_of);
        self.scratch.crossing = crossing;
        self.scratch.ttls = ttls;
    }
}

impl UniversalNode {
    /// A node with the standard repository and images, a given memory
    /// capacity, and LSI-0 using the OvS-like backend.
    pub fn new(name: &str, mem_capacity: u64) -> Self {
        let mut ledger = MemLedger::new();
        let node_account = ledger.create_account(&format!("node:{name}"), None);
        UniversalNode {
            name: name.to_string(),
            host: Host::new(name, CostModel::default()),
            ledger,
            node_account,
            costs: CostModel::default(),
            compute: ComputeManager::new(),
            lsis: vec![Some(Lsi::new("LSI-0", 1))],
            physical: BTreeMap::new(),
            graphs: BTreeMap::new(),
            next_dpid: 2,
            clock: SimTime::ZERO,
            trace: NodeCounters::default(),
            frame_ledger: FrameLedger::default(),
            walk_scratch: WalkScratch::default(),
            diff_scratch: Vec::new(),
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
        let port = self
            .lsi_mut(0)
            .add_port(name, PortKind::Physical(Name::new(name)));
        self.physical.insert(name.to_string(), port);
        port
    }

    /// The live LSI at index `at` (0 is LSI-0).
    fn lsi(&self, at: usize) -> &Lsi {
        self.lsis[at].as_ref().expect("a live LSI")
    }

    fn lsi_mut(&mut self, at: usize) -> &mut Lsi {
        self.lsis[at].as_mut().expect("a live LSI")
    }

    /// Resolve a physical port name to its interned id (for the batch
    /// data-plane API).
    pub fn port_id(&self, name: &str) -> Option<PortId> {
        self.physical.get(name).copied().map(PortId)
    }

    /// Aggregated flow-table fast-path counters across LSI-0 and every
    /// graph LSI (exported through [`NodeDescription`] and REST).
    pub fn flow_cache_stats(&self) -> un_switch::TableStats {
        let mut stats = un_switch::TableStats::default();
        for (_, lsi) in self.lsis() {
            stats.merge(&lsi.cache_stats());
        }
        stats
    }

    /// Microflow-cache population across LSI-0 and every graph LSI
    /// (exported through [`NodeDescription`] and as a gauge through
    /// `/metrics`).
    pub fn flow_cache_entries(&self) -> usize {
        self.lsis().map(|(_, lsi)| lsi.cache_entries()).sum()
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

    /// Names of the node's physical interfaces, in name order.
    pub fn physical_port_names(&self) -> impl Iterator<Item = &str> {
        self.physical.keys().map(String::as_str)
    }

    /// True if a physical interface with this name exists.
    pub fn has_physical_port(&self, name: &str) -> bool {
        self.physical.contains_key(name)
    }

    /// Functional types this node offers as native NFs.
    pub fn native_nnf_types(&self) -> impl Iterator<Item = &str> {
        self.compute.repository().nnfs().map(|d| d.functional_type)
    }

    /// Functional types with a *shared* native instance currently
    /// running (joinable by further graphs): the instances on an LSI-0
    /// attach port.
    pub fn shared_nnf_types(&self) -> impl Iterator<Item = &str> {
        self.lsi(0).ports.values().filter_map(|p| match p {
            PortKind::Nf(id, _) => self.compute.functional_type(*id),
            _ => None,
        })
    }

    /// Functional types whose native descriptor marks a single instance
    /// *sharable* across graphs — the types this node could host a
    /// domain-shared instance of (whether or not one runs yet).
    pub fn sharable_nnf_types(&self) -> impl Iterator<Item = &str> {
        let sharable = self.compute.repository().nnfs().filter(|d| d.sharable);
        sharable.map(|d| d.functional_type)
    }

    /// The graph of each binding on the running shared instance of a
    /// functional type, in bind order, read from its adaptation layer (a
    /// graph with two NFs on it is there twice; empty when no shared
    /// instance runs). The domain's lease-conservation invariant
    /// cross-checks its registry against this node-level truth.
    pub fn shared_nnf_graphs(&self, functional_type: &str) -> Vec<String> {
        let instance = self.compute.existing_instance(functional_type).into_iter();
        let bindings = instance.flat_map(|id| self.compute.bindings(id));
        bindings.map(|b| b.graph.clone()).collect()
    }

    /// Rough RAM a new NF of this type would consume, for fleet-level
    /// bin-packing. Mirrors the placement policy: a joinable shared
    /// instance costs ~nothing extra, native instances are cheap, VNF
    /// flavors carry their guest/runtime footprints. Real admission
    /// still happens at deploy time; this is only a scheduler estimate.
    pub fn estimate_nf_ram(&self, functional_type: &str, flavor_hint: Option<&str>) -> Option<u64> {
        Some(
            match self.decide_nf(functional_type, flavor_hint, None).ok()? {
                Decision::NativeShare(_) => 0,
                Decision::NativeNew | Decision::NativeNewShared => {
                    self.compute.estimate_ram(&FlavorSpec::Native)
                }
                Decision::Vnf(spec) => self.compute.estimate_ram(&spec),
            },
        )
    }

    /// The placement policy's verdict for one NF on this node, now — a
    /// singleton held by `retiring`, an instance the caller is about to
    /// retire, counts as free.
    fn decide_nf(
        &self,
        functional_type: &str,
        flavor: Option<&str>,
        retiring: Option<InstanceId>,
    ) -> Result<Decision, DeployError> {
        let row = self
            .compute
            .repository()
            .resolve(functional_type)
            .ok_or_else(|| DeployError::NoTemplate(functional_type.to_string()))?;
        Ok(decide(row, flavor, &Retiring(self, retiring))?)
    }

    // ------------------------------------------------------------------
    // Deploy / undeploy / update
    // ------------------------------------------------------------------

    /// Deploy an NF-FG: compile its NFs' configs, then
    /// [`deploy_compiled`](Self::deploy_compiled). A config refused here
    /// is a [`DeployError::NfConfig`], before the node is touched.
    pub fn deploy(&mut self, nffg: &NfFg) -> Result<DeployReport, DeployError> {
        let programs = compile(nffg)?;
        self.deploy_compiled(nffg, &programs)
    }

    /// Deploy an NF-FG whose NFs' configs `programs` holds compiled (the
    /// domain's plan carries them): the update of an empty part on a
    /// fresh LSI, which a refusal frees again.
    pub fn deploy_compiled(
        &mut self,
        nffg: &NfFg,
        programs: &Programs,
    ) -> Result<DeployReport, DeployError> {
        let errs = validate(nffg);
        if !errs.is_empty() {
            return Err(DeployError::Invalid(errs));
        }
        if self.graphs.contains_key(&nffg.id) {
            return Err(DeployError::AlreadyDeployed(nffg.id.clone()));
        }
        self.check_interfaces(nffg)?;
        // The graph's LSI takes the lowest free index.
        let at = (self.lsis.iter().position(Option::is_none)).unwrap_or_else(|| {
            self.lsis.push(None);
            self.lsis.len() - 1
        });
        self.lsis[at] = Some(Lsi::new(&format!("LSI-{}", nffg.id), self.next_dpid));
        self.next_dpid += 1;
        let empty = NfFg {
            id: nffg.id.clone(),
            name: nffg.name.clone(),
            nfs: Vec::new(),
            endpoints: Vec::new(),
            flow_rules: Vec::new(),
        };
        let graph = DeployedGraph {
            nffg: empty,
            lsi: at,
            program: LsiProgram::default(),
            landed: Vec::new(),
            nfs: BTreeMap::new(),
        };
        if let Err(e) = self.apply(graph, nffg, programs) {
            let graph = self.graphs.remove(&nffg.id).expect("apply keeps the graph");
            self.lsis[graph.lsi] = None;
            return Err(e);
        }
        self.trace.graphs_deployed += 1;
        Ok(self.report(&self.graphs[&nffg.id]))
    }

    /// Refuse `nffg` if an endpoint names an interface the node lacks.
    fn check_interfaces(&self, nffg: &NfFg) -> Result<(), DeployError> {
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
        Ok(())
    }

    /// What a deploy or an update of `graph` reports.
    fn report(&self, graph: &DeployedGraph) -> DeployReport {
        let placed = |nf: &NetworkFunction| {
            let p = graph.nfs.get(&nf.id)?;
            let flavor = self.compute.flavor(p.instance)?;
            Some((nf.id.clone(), flavor, p.instance, p.shared.is_some()))
        };
        let flows = self.lsi(0).switch.flow_count() + self.lsi(graph.lsi).switch.flow_count();
        DeployReport {
            graph: graph.nffg.id.clone(),
            placements: graph.nffg.nfs.iter().filter_map(placed).collect(),
            flow_entries: flows,
        }
    }

    /// Bring `graph` from what it runs to `nffg` (validated, its
    /// interfaces checked), building only what changed; `graph` ends up
    /// in `self.graphs` either way — updated, or as it was. Returns
    /// whether an NF or an endpoint changed.
    fn apply(
        &mut self,
        mut graph: DeployedGraph,
        nffg: &NfFg,
        programs: &Programs,
    ) -> Result<bool, DeployError> {
        let flipped = self.stage_and_flip(&mut graph, nffg, programs);
        self.graphs.insert(nffg.id.clone(), graph);
        let Flipped {
            structural,
            retired,
            groups,
        } = flipped?;
        self.regroup(&groups);
        self.release(retired)?;
        Ok(structural)
    }

    /// Stages 1 to 4 of an update, make-before-break: check, make the
    /// new and changed NFs beside the old ones, admit memory, flip the
    /// LSI side. A refusal gives back what was made and leaves `graph`
    /// as it was; past the flip nothing is refused. What the flip left
    /// to do — retire the old instances, rebuild the internal groups it
    /// touched — is the caller's, once `graph` is back in its table.
    fn stage_and_flip(
        &mut self,
        graph: &mut DeployedGraph,
        nffg: &NfFg,
        programs: &Programs,
    ) -> Result<Flipped, DeployError> {
        // 1. What stays; nothing is touched yet.
        let kept_nfs: Vec<&str> = (nffg.nfs.iter())
            .filter(|nf| self.keeps(graph, nf, programs))
            .map(|nf| nf.id.as_str())
            .collect();
        let kept_eps: Vec<&str> = (nffg.endpoints.iter())
            .filter(|ep| graph.nffg.endpoints.contains(ep))
            .map(|ep| ep.id.as_str())
            .collect();
        let structural = kept_nfs.len() != nffg.nfs.len()
            || kept_nfs.len() != graph.nffg.nfs.len()
            || kept_eps.len() != nffg.endpoints.len()
            || kept_eps.len() != graph.nffg.endpoints.len();
        self.check_endpoints(nffg, &kept_eps)?;
        for rule in &nffg.flow_rules {
            apply_match_fields(&rule.matches, &mut FlowMatch::any())
                .map_err(DeployError::Compute)?;
        }

        // 2. Make the new and changed NFs beside the old ones.
        let retiring: Vec<InstanceId> = (graph.nfs.iter())
            .filter(|(id, p)| !kept_nfs.contains(&id.as_str()) && p.shared.is_none())
            .map(|(_, p)| p.instance)
            .collect();
        let mut staged = Staged::default();
        for nf in nffg
            .nfs
            .iter()
            .filter(|nf| !kept_nfs.contains(&nf.id.as_str()))
        {
            let placed = self.place_nf(&nffg.id, nf, programs, &retiring, &mut staged);
            if let Err(e) = placed {
                self.unstage(graph, staged);
                return Err(e);
            }
        }

        // 3. Admit memory as the node will hold it once the old go. An
        // update that made nothing holds no more than before, which
        // admission already let in.
        if !staged.fresh.is_empty() {
            let freed = self.freed_by(graph, &kept_nfs);
            let needed = self.memory_used().saturating_sub(freed);
            if needed > self.mem_capacity {
                self.unstage(graph, staged);
                return Err(DeployError::InsufficientMemory {
                    needed,
                    capacity: self.mem_capacity,
                });
            }
        }

        // 4. Flip the LSI side: lower the new version where its NFs now
        // run and apply the diff from the old version's program.
        let mut retired = Vec::new();
        for (id, placed) in mem::take(&mut graph.nfs) {
            if kept_nfs.contains(&id.as_str()) {
                graph.nfs.insert(id, placed);
            } else if !(staged.displaced.iter()).any(|d| d.instance == placed.instance) {
                retired.push(placed);
            }
        }
        graph.nfs.append(&mut staged.fresh);
        let program = self.lower(nffg, &graph.nfs);
        self.apply_diff(graph, program);
        let old = mem::replace(&mut graph.nffg, nffg.clone());
        let moved = (old.endpoints.iter().chain(&nffg.endpoints))
            .filter(|ep| !kept_eps.contains(&ep.id.as_str()));
        let groups = moved.filter_map(internal_group).map(String::from).collect();
        Ok(Flipped {
            structural,
            retired,
            groups,
        })
    }

    /// True if `nf` can stay as it runs in `graph`: the same definition,
    /// and a dedicated instance built from the list `programs` compiles
    /// it to, or a shared binding carrying the NAT binding it compiles
    /// to.
    fn keeps(&self, graph: &DeployedGraph, nf: &NetworkFunction, programs: &Programs) -> bool {
        let (Some(old), Some(placed)) = (graph.nffg.nf(&nf.id), graph.nfs.get(&nf.id)) else {
            return false;
        };
        let compiled = programs.get(&nf.id);
        old == nf
            && match &placed.shared {
                None => compiled.map(|c| &c.commands[..]) == self.compute.program(placed.instance),
                Some(binding) => binding.nat.as_ref() == compiled.and_then(|c| c.nat.as_ref()),
            }
    }

    /// Refuse `nffg` if traffic an interface or VLAN endpoint takes has
    /// another owner: another graph — checked for the endpoints not in
    /// `kept` — or an earlier endpoint of `nffg`.
    fn check_endpoints(&self, nffg: &NfFg, kept: &[&str]) -> Result<(), DeployError> {
        let own = graph_cookie(&nffg.id);
        let l0 = self.lsi(0).switch.table();
        let mut claimed = Vec::new();
        for ep in &nffg.endpoints {
            let Some((_, vlan_id, priority, traffic)) = self.traffic(ep) else {
                continue;
            };
            let taken = claimed.iter().any(|(p, t)| (*p, t) == (priority, &traffic));
            let fresh = !kept.contains(&ep.id.as_str());
            let owned = fresh && l0.find(priority, &traffic).is_some_and(|e| e.cookie != own);
            if taken || owned {
                let if_name = match &ep.kind {
                    EndpointKind::Interface { if_name } | EndpointKind::Vlan { if_name, .. } => {
                        if_name
                    }
                    EndpointKind::Internal { .. } => unreachable!("no traffic of its own"),
                };
                let owned = vlan_id.map_or(if_name.clone(), |v| format!("{if_name}.{v}"));
                return Err(DeployError::EndpointConflict(owned));
            }
            claimed.push((priority, traffic));
        }
        Ok(())
    }

    /// The LSI-0 classification an interface or VLAN endpoint takes:
    /// its physical port, VLAN id, priority and traffic match. `None`
    /// for an internal endpoint.
    fn traffic(&self, ep: &Endpoint) -> Option<(PortNo, Option<u16>, u16, FlowMatch)> {
        let (if_name, vlan_id) = match &ep.kind {
            EndpointKind::Interface { if_name } => (if_name, None),
            EndpointKind::Vlan { if_name, vlan_id } => (if_name, Some(*vlan_id)),
            EndpointKind::Internal { .. } => return None,
        };
        let phys = self.physical[if_name];
        let (priority, vlan) = vlan_id.map_or((5, VlanSpec::Untagged), |v| (10, VlanSpec::Id(v)));
        Some((
            phys,
            vlan_id,
            priority,
            FlowMatch::in_port(phys).with_vlan(vlan),
        ))
    }

    /// Memory the instances `graph` retires (its NFs not in `kept`)
    /// hold: each dedicated one's, and each shared one's whose last
    /// bindings they are.
    fn freed_by(&self, graph: &DeployedGraph, kept: &[&str]) -> u64 {
        let mut freed = 0;
        let mut left: BTreeMap<InstanceId, usize> = BTreeMap::new();
        for (id, placed) in &graph.nfs {
            if kept.contains(&id.as_str()) {
                continue;
            }
            let instance = placed.instance;
            match placed.shared {
                None => freed += self.compute.ram_usage(&self.ledger, instance),
                Some(_) => {
                    let bound = left
                        .entry(instance)
                        .or_insert_with(|| self.compute.binding_count(instance));
                    *bound -= 1;
                }
            }
        }
        let emptied = left.into_iter().filter(|(_, bound)| *bound == 0);
        freed
            + emptied
                .map(|(id, _)| self.compute.ram_usage(&self.ledger, id))
                .sum::<u64>()
    }

    /// Create or join the instance serving `nf` of graph `gid`, from
    /// what its config compiled to in `programs`, into `staged`. Every
    /// type the repository lists runs a program, whatever the flavor, so
    /// such an NF missing from `programs` is refused. A singleton one of
    /// `retiring` holds is retired first, to make room.
    fn place_nf(
        &mut self,
        gid: &str,
        nf: &NetworkFunction,
        programs: &Programs,
        retiring: &[InstanceId],
        staged: &mut Staged,
    ) -> Result<(), DeployError> {
        let own = format!("{gid}-{}", nf.id);
        let compiled = programs.get(&nf.id);
        if compiled.is_none()
            && self
                .compute
                .repository()
                .resolve(&nf.functional_type)
                .is_some()
        {
            return Err(DeployError::NotCompiled(nf.id.clone()));
        }
        let program = compiled.map_or(&[][..], |c| &c.commands[..]);
        let nat = compiled.and_then(|c| c.nat.as_ref());
        let placed = &mut staged.fresh;
        let ft = &nf.functional_type;
        let held = match retiring {
            [] => None,
            _ => (self.compute.existing_instance(ft)).filter(|id| retiring.contains(id)),
        };
        match self.decide_nf(ft, nf.flavor.as_deref(), held)? {
            Decision::NativeNew => {
                if let Some(held) = held {
                    staged.displaced.push(self.displace(held)?);
                }
                self.launch(placed, nf, &own, &FlavorSpec::Native, program, None)
            }
            Decision::Vnf(spec) => self.launch(placed, nf, &own, &spec, program, None),
            Decision::NativeNewShared => {
                let binding = self.make_binding(gid, nat, None)?;
                let name = format!("shared-{}", nf.functional_type);
                self.launch(placed, nf, &name, &FlavorSpec::Native, &[], Some(binding))
            }
            Decision::NativeShare(instance) => {
                let binding = self.make_binding(gid, nat, Some(instance))?;
                self.join(placed, nf, instance, Some(binding), false)?;
                self.trace.nnf_shares += 1;
                Ok(())
            }
        }
    }

    /// Retire a dedicated singleton ahead of its successor, keeping what
    /// rebuilds it.
    fn displace(&mut self, instance: InstanceId) -> Result<Displaced, DeployError> {
        let program = self.compute.program(instance).unwrap_or_default().to_vec();
        let hist = self.obs_nf_hist.remove(&instance);
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        self.compute.stop(&mut env, instance)?;
        self.compute.destroy(&mut env, instance)?;
        Ok(Displaced {
            instance,
            program,
            hist,
        })
    }

    /// Give back what an update made before it was refused: the staged
    /// instances go, and each displaced singleton is rebuilt from its
    /// list and takes its place in `graph` again.
    fn unstage(&mut self, graph: &mut DeployedGraph, staged: Staged) {
        let _ = self.release(staged.fresh.into_values());
        for Displaced {
            instance,
            program,
            hist,
        } in staged.displaced
        {
            let Some((id, placed)) = graph.nfs.iter_mut().find(|(_, p)| p.instance == instance)
            else {
                continue;
            };
            let nf = graph
                .nffg
                .nf(id)
                .expect("a placed NF is in its graph")
                .clone();
            let name = format!("{}-{id}", graph.nffg.id);
            let mut again = BTreeMap::new();
            let spec = FlavorSpec::Native;
            if self
                .launch(&mut again, &nf, &name, &spec, &program, None)
                .is_err()
            {
                let _ = self.release(again.into_values());
                continue;
            }
            placed.instance = again[&nf.id].instance;
            if let Some(hist) = hist {
                self.obs_nf_hist.insert(placed.instance, hist);
            }
        }
        // A rebuilt instance's ports replace those of the one it stands
        // in for.
        let program = self.lower(&graph.nffg, &graph.nfs);
        self.apply_diff(graph, program);
    }

    /// Create an instance for `nf` to run `program` and start it; a
    /// shared one gets its LSI-0 attach port and this graph's binding.
    fn launch(
        &mut self,
        placed: &mut BTreeMap<String, PlacedNf>,
        nf: &NetworkFunction,
        name: &str,
        spec: &FlavorSpec,
        program: &[NnfCommand],
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
            program,
            shared.is_some(),
            self.node_account,
        )?;
        if shared.is_some() {
            let name = format!("nnf-{}", nf.functional_type);
            self.lsi_mut(0).add_port(&name, PortKind::Nf(instance, 0));
        }
        self.join(placed, nf, instance, shared, true)
    }

    /// Record the placement in `placed`, then do what is left to make
    /// it serve: start a `fresh` instance, bind the graph to a shared one.
    fn join(
        &mut self,
        placed: &mut BTreeMap<String, PlacedNf>,
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
        placed.insert(nf.id.clone(), PlacedNf { instance, shared });
        if fresh {
            self.compute.start(&mut env, instance)?;
        }
        if let Some(binding) = &placed[&nf.id].shared {
            self.compute.bind_graph(&mut env, instance, binding)?;
        }
        Ok(())
    }

    /// A binding of `graph_id` on shared `instance` (`None`: one about
    /// to be created), carrying the NAT binding its NF compiled to. Its
    /// mark is the lowest no binding on the instance holds — its
    /// adaptation layer is the one record of those, so a departed
    /// binding's mark is free again — and its zone and VLAN pair follow
    /// from the mark; a mark whose WAN-side VLAN id would pass 4094 is
    /// refused.
    fn make_binding(
        &self,
        graph_id: &str,
        nat: Option<&NatBinding>,
        instance: Option<InstanceId>,
    ) -> Result<GraphBinding, DeployError> {
        let bindings = instance
            .into_iter()
            .flat_map(|id| self.compute.bindings(id));
        let mut held: Vec<u32> = bindings.map(|b| b.mark).collect();
        held.sort_unstable();
        let gap = (1u32..).zip(&held).find(|(m, h)| m != *h);
        let mark = gap.map_or(held.len() as u32 + 1, |(m, _)| m);
        let vid_wan = 101 + 2 * mark;
        if vid_wan > MAX_VID {
            return Err(DeployError::NoFreeMark);
        }
        Ok(GraphBinding {
            graph: graph_id.to_string(),
            mark,
            zone: mark as u16,
            vid_lan: (vid_wan - 1) as u16,
            vid_wan: vid_wan as u16,
            nat: nat.cloned(),
        })
    }

    /// Lower `part`, its NFs placed as `nfs` says, into its LSI side:
    /// the graph LSI's ports — the dedicated NFs' ports, then the
    /// endpoints' and the shared NFs' virtual links, the order a fresh
    /// LSI numbers them — one entry per rule, and the LSI-0 entries the
    /// part owns: each interface or VLAN endpoint's classification, then
    /// each shared NF's VLAN steering to its attach port and back (an
    /// internal endpoint's are its group's). Pure: it reads the node's
    /// physical and attach ports. `part` passed stage 1.
    fn lower(&self, part: &NfFg, nfs: &BTreeMap<String, PlacedNf>) -> LsiProgram {
        use FlowAction::{Output, PopVlan, PushVlan};
        let cookie = graph_cookie(&part.id);
        let rule = |priority, m, actions| flow_entry(priority, m, actions, cookie);
        let mut p = LsiProgram::default();
        for nf in &part.nfs {
            let placed = &nfs[&nf.id];
            if placed.shared.is_none() {
                let key = |port: &un_nffg::NfPort| PortKey::Nf(placed.instance, port.id);
                p.ports.extend(nf.ports.iter().map(key));
            }
        }
        for ep in &part.endpoints {
            let link = own(p.ports.len());
            p.ports.push(PortKey::Endpoint(ep.clone()));
            let Some((phys, vlan_id, priority, traffic)) = self.traffic(ep) else {
                continue;
            };
            let untag = vlan_id.map(|_| PopVlan).into_iter().chain([Output(link)]);
            p.l0.push(rule(priority, traffic, untag.collect()));
            let tag = vlan_id.map(PushVlan).into_iter().chain([Output(phys)]);
            p.l0.push(rule(priority, FlowMatch::in_port(link), tag.collect()));
        }
        for nf in &part.nfs {
            let placed = &nfs[&nf.id];
            let Some(binding) = &placed.shared else {
                continue;
            };
            let attach = self.lsi(0).nf_ports[&(placed.instance, 0)];
            let vids = [binding.vid_lan, binding.vid_wan];
            let link = own(p.ports.len());
            p.ports
                .push(PortKey::Shared(nf.id.clone(), placed.instance, vids));
            for vid in vids.map(VlanSpec::Id) {
                for (from, to) in [(link, attach), (attach, link)] {
                    let m = FlowMatch::in_port(from).with_vlan(vid);
                    p.l0.push(rule(20, m, Arc::new([Output(to)])));
                }
            }
        }
        // A rule names an endpoint or a dedicated NF's port by its port,
        // a shared NF's port by its virtual link and the binding's vid.
        let port = |r: &PortRef| {
            let named = |key: &PortKey| match (key, r) {
                (PortKey::Endpoint(ep), PortRef::Endpoint(id)) => (ep.id == *id).then_some(None),
                (PortKey::Nf(i, k), PortRef::Nf(nf, q)) => {
                    (*i == nfs[nf].instance && k == q).then_some(None)
                }
                (PortKey::Shared(n, _, vids), PortRef::Nf(nf, q)) => {
                    (n == nf).then_some(Some(vids[usize::from(*q != 0)]))
                }
                _ => None,
            };
            let mut keys = p.ports.iter().enumerate();
            let found = keys.find_map(|(i, key)| Some((own(i), named(key)?)));
            found.expect("a validated rule's port is lowered")
        };
        let mut actions = Vec::new();
        let entry = |rule: &FlowRule| {
            let port_in = rule.matches.port_in.as_ref();
            let (in_port, in_vid) = port(port_in.expect("a validated rule has its port-in"));
            let mut m = FlowMatch::in_port(in_port);
            // Traffic from a shared NNF arrives tagged: match + strip.
            m.vlan = in_vid.map(VlanSpec::Id);
            actions.clear();
            actions.extend(in_vid.map(|_| PopVlan));
            apply_match_fields(&rule.matches, &mut m).expect("stage 1 parsed the match fields");
            for action in &rule.actions {
                let action = match action {
                    RuleAction::Output(r) => {
                        let (out, vid) = port(r);
                        actions.extend(vid.map(PushVlan));
                        Output(out)
                    }
                    RuleAction::PushVlan(v) => PushVlan(*v),
                    RuleAction::PopVlan => PopVlan,
                    RuleAction::SetFwmark(mark) => FlowAction::SetFwmark(*mark),
                };
                actions.push(action);
            }
            let cookie = rule_cookie(&part.id, &rule.id);
            flow_entry(rule.priority, m, actions.as_slice().into(), cookie)
        };
        p.entries = part.flow_rules.iter().map(entry).collect();
        p
    }

    /// Bring `graph`'s LSI side from its program to `new`: the ports and
    /// entries only the old one lists go, those only `new` lists come —
    /// new ports numbered from each LSI's `next_port` in `new`'s order,
    /// new entries installed in its order. A deploy applies the diff
    /// from the empty program, a teardown the diff to it.
    fn apply_diff(&mut self, graph: &mut DeployedGraph, new: LsiProgram) {
        let (at, old, landed) = (graph.lsi, &graph.program, &graph.landed);
        let mut now = Vec::with_capacity(new.ports.len());
        for key in &new.ports {
            let kept = old.ports.iter().position(|k| k == key);
            let add = || self.add_part_port(graph, key);
            now.push(kept.map_or_else(add, |i| landed[i]));
        }
        let mut changed = mem::take(&mut self.diff_scratch);
        for l0 in [false, true] {
            let Some(lsi) = self.lsis[if l0 { 0 } else { at }].as_mut() else {
                continue; // a teardown frees the graph's LSI first
            };
            let (was, will) = match l0 {
                false => (&old.entries, &new.entries),
                true => (&old.l0, &new.l0),
            };
            let (was_at, will_at) = (&numbering(landed, l0), &numbering(&now, l0));
            let switch = &mut lsi.switch;
            // What leaves goes first, each entry straight out of its
            // traffic class; what comes is installed in `will`'s order.
            diff(was, was_at, will, will_at, &mut changed);
            for &(_, tag) in &changed {
                let i = (tag & !(WILL | ALONE)) as usize;
                if tag & WILL != 0 {
                    let (priority, cookie, matches, actions) = view(&will[i], will_at);
                    let entry = flow_entry(priority, matches, actions.collect(), cookie);
                    switch.install(0, entry).expect("table 0 exists");
                } else {
                    let x = &was[i];
                    let class = TrafficClass::new(x.matches.in_port.map(was_at), x.matches.vlan);
                    let gone = switch.remove_first(class, |e| alike(e, &|no| no, x, was_at));
                    debug_assert!(gone, "a program's entry is installed");
                }
            }
        }
        self.diff_scratch = changed;
        for (key, &(port, end)) in old.ports.iter().zip(landed) {
            if !new.ports.contains(key) {
                if let Some(lsi) = self.lsis[at].as_mut() {
                    lsi.remove_port(port);
                }
                if let Some(end) = end {
                    self.lsi_mut(0).remove_port(end);
                }
            }
        }
        (graph.program, graph.landed) = (new, now);
    }

    /// Add a port of `graph` on its LSI: an NF's port, or a virtual link
    /// — two `Vlink` ports, each the other's peer, the LSI-0 end first.
    fn add_part_port(&mut self, graph: &DeployedGraph, key: &PortKey) -> Landed {
        let (at, gid) = (graph.lsi, &graph.nffg.id);
        let (id, name) = match key {
            PortKey::Nf(instance, port) => {
                let placed = graph.nfs.iter().find(|(_, p)| p.instance == *instance);
                let nf = placed.expect("a port's NF is placed").0;
                let name = format!("to-{nf}:{port}");
                let kind = PortKind::Nf(*instance, *port);
                return (self.lsi_mut(at).add_port(&name, kind), None);
            }
            PortKey::Endpoint(ep) => (&ep.id, format!("vlink-{}", ep.id)),
            PortKey::Shared(nf, ..) => (nf, format!("vlink-shared-{nf}")),
        };
        let peer = PortNo(self.lsi(at).next_port);
        let to = PortKind::Vlink { lsi: at, peer };
        let end = self.lsi_mut(0).add_port(&format!("vlink-{gid}-{id}"), to);
        let back = PortKind::Vlink { lsi: 0, peer: end };
        let port = self.lsi_mut(at).add_port(&name, back);
        debug_assert_eq!(port, peer);
        (port, Some(end))
    }

    /// Each internal group's members: the LSI-0 ends of the deployed
    /// graphs' internal endpoints, in port order, which is join order.
    fn groups(&self) -> BTreeMap<String, Vec<PortNo>> {
        let mut groups: BTreeMap<String, Vec<PortNo>> = BTreeMap::new();
        for graph in self.graphs.values() {
            for (key, (_, l0)) in graph.program.ports.iter().zip(&graph.landed) {
                let PortKey::Endpoint(ep) = key else {
                    continue;
                };
                if let (Some(group), Some(l0)) = (internal_group(ep), l0) {
                    groups.entry(group.to_string()).or_default().push(*l0);
                }
            }
        }
        groups
            .values_mut()
            .for_each(|members| members.sort_unstable());
        groups
    }

    /// Rebuild the LSI-0 rules of each internal group in `groups`,
    /// after a member joined or left: a group is a hub that owns its
    /// rules — one per member, under the group's own cookie, sending
    /// what the member emits to every other member in port order. A
    /// group of fewer than two members has none.
    fn regroup(&mut self, groups: &[impl AsRef<str>]) {
        if groups.is_empty() {
            return;
        }
        let members = self.groups();
        let l0 = self.lsis[0].as_mut().expect("LSI-0");
        for group in groups.iter().map(AsRef::as_ref) {
            let cookie = group_cookie(group);
            l0.switch.remove_by_cookie(cookie);
            let members = members.get(group).map_or(&[][..], Vec::as_slice);
            if members.len() < 2 {
                continue;
            }
            for &member in members {
                let others = members.iter().filter(|m| **m != member);
                let outputs = others.map(|m| FlowAction::Output(*m)).collect();
                let entry = FlowEntry::new(7, FlowMatch::in_port(member), outputs);
                l0.switch
                    .install(0, entry.with_cookie(cookie))
                    .expect("table 0 exists");
            }
        }
    }

    /// Stop and destroy the instances behind `placed`, unbinding a
    /// shared one first: it goes, with its LSI-0 attach port, only when
    /// that leaves it no binding. Best-effort: the walk always finishes;
    /// the first error is returned.
    fn release(&mut self, placed: impl IntoIterator<Item = PlacedNf>) -> Result<(), DeployError> {
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let mut result = Ok(());
        for placed in placed {
            let id = placed.instance;
            if let Some(binding) = &placed.shared {
                result = result.and(self.compute.unbind_graph(&mut env, id, binding));
                if self.compute.binding_count(id) > 0 {
                    continue;
                }
                let l0 = self.lsis[0].as_mut().expect("LSI-0");
                if let Some(&attach) = l0.nf_ports.get(&(id, 0)) {
                    l0.remove_port(attach);
                }
            }
            result = result.and(self.compute.stop(&mut env, id));
            result = result.and(self.compute.destroy(&mut env, id));
            self.obs_nf_hist.remove(&id);
        }
        Ok(result?)
    }

    /// Take a deployed `graph` off the node: its LSI freed, the rest of
    /// its LSI side taken down by the diff to the empty program, its
    /// instances released and the groups it was in rebuilt. Best-effort: the walk
    /// always finishes; the first error is returned.
    fn teardown(&mut self, mut graph: DeployedGraph) -> Result<(), DeployError> {
        self.lsis[graph.lsi] = None;
        self.apply_diff(&mut graph, LsiProgram::default());
        let result = self.release(graph.nfs.into_values());
        let groups: Vec<&str> = graph
            .nffg
            .endpoints
            .iter()
            .filter_map(internal_group)
            .collect();
        self.regroup(&groups);
        result
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

    /// Update a deployed graph: compile its NFs' configs, then
    /// [`update_compiled`](Self::update_compiled). A config refused here
    /// is a [`DeployError::NfConfig`], before the node is touched.
    pub fn update(&mut self, nffg: &NfFg) -> Result<DeployReport, DeployError> {
        if !self.graphs.contains_key(&nffg.id) {
            return Err(DeployError::NoSuchGraph(nffg.id.clone()));
        }
        let programs = compile(nffg)?;
        self.update_compiled(nffg, &programs)
    }

    /// Update a deployed graph to `nffg`, whose NFs' configs `programs`
    /// holds compiled, building only what changed: the graph keeps its
    /// LSI, its ports and the LSI-0 plumbing of every endpoint that
    /// stays; an NF whose definition and compiled list (or, shared, NAT
    /// binding) are unchanged keeps its running instance, state and
    /// all. Make-before-break:
    ///
    /// 1. check the graph, its interfaces, the traffic of its new
    ///    endpoints and the match fields of the rules it installs;
    /// 2. create and start the new and changed NFs beside the old ones
    ///    (a singleton whose successor needs its slot is retired first,
    ///    and rebuilt from its list if the update is then refused);
    /// 3. admit memory as the node will hold it once the old go;
    /// 4. apply the program diff: lower the new version into its LSI
    ///    program and apply the diff from the old one — the ports and
    ///    entries only one of them lists, where a replaced endpoint or
    ///    instance is a new port — and rebuild the internal groups an
    ///    endpoint joined or left;
    /// 5. retire the removed and replaced instances.
    ///
    /// A refusal in stages 1–3 leaves the part exactly as it was. A
    /// rule-only update is the same path with nothing to build.
    pub fn update_compiled(
        &mut self,
        nffg: &NfFg,
        programs: &Programs,
    ) -> Result<DeployReport, DeployError> {
        if !self.graphs.contains_key(&nffg.id) {
            return Err(DeployError::NoSuchGraph(nffg.id.clone()));
        }
        let errs = validate(nffg);
        if !errs.is_empty() {
            return Err(DeployError::Invalid(errs));
        }
        self.check_interfaces(nffg)?;
        let graph = self.graphs.remove(&nffg.id).expect("looked up above");
        match self.apply(graph, nffg, programs)? {
            true => self.trace.graph_updates_structural += 1,
            false => self.trace.graph_updates_rules += 1,
        }
        Ok(self.report(&self.graphs[&nffg.id]))
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Inject a frame on a physical port and run it to completion.
    ///
    /// The walk of [`UniversalNode::inject_batch`], entered with one
    /// frame: it is queued straight into the walk, with no burst vector
    /// around it.
    pub fn inject(&mut self, port_name: &str, pkt: Packet) -> NodeIo {
        match self.ingress_port(port_name, None) {
            Some(id) => self.run_walk(None, std::iter::once((id, pkt))),
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
    ///
    /// `batch` is anything that counts its frames up front: a `Vec`, or
    /// a `drain` of a buffer the caller keeps.
    pub fn inject_batch_flight<I>(&mut self, batch: I, flight: Option<&TraceSink>) -> NodeIo
    where
        I: IntoIterator<Item = (PortId, Packet)>,
        I::IntoIter: ExactSizeIterator,
    {
        self.run_walk(flight, batch.into_iter())
    }

    /// The one walk runner behind every inject: queue `ingress` at
    /// LSI-0 and drain the fabric, smallest location first, in the
    /// node's walk scratch — taken for the call and handed back, empty,
    /// when it ends.
    fn run_walk(
        &mut self,
        flight: Option<&TraceSink>,
        ingress: impl ExactSizeIterator<Item = (PortId, Packet)>,
    ) -> NodeIo {
        let frames_in = ingress.len() as u64;
        let mut walk = Walk {
            acct: Accounting::new(flight),
            io: NodeIo::default(),
            frames_in: frames_in as usize,
            work_budget: frames_in.saturating_mul(u64::from(FABRIC_TTL)),
            scratch: mem::take(&mut self.walk_scratch),
        };
        for (PortId(port), pkt) in ingress {
            walk.queue((0, port), pkt, FABRIC_TTL);
        }
        while let Some(((at, port), mut burst)) = walk.scratch.pending.pop() {
            self.run_lsi(&mut walk, at, port, &mut burst);
            walk.scratch.free.push(burst);
        }
        if !walk.acct.ghost() {
            self.trace.fabric_frames_in += frames_in;
            self.trace.fabric_frames_out += walk.io.emitted.len() as u64;
            if let Some(h) = &self.obs_burst_hist {
                h.record(frames_in);
            }
        }
        walk.acct.settle(&mut self.frame_ledger);
        debug_assert!(walk.scratch.is_clear(), "a frame outlived its walk");
        self.walk_scratch = walk.scratch;
        walk.io
    }

    /// One burst at the LSI at index `at`: classify it, then dispatch
    /// every output in (frame, output) order — out a physical port, over
    /// a virtual link into its peer LSI, or across the boundary of an NF
    /// instance, whose outputs re-enter this LSI on the port wired to the
    /// NF port they left by.
    fn run_lsi(&mut self, walk: &mut Walk<'_>, at: usize, in_port: PortNo, burst: &mut Burst) {
        let Some(lsi) = self.lsis.get_mut(at).and_then(Option::as_mut) else {
            let dead = burst.len() as u64;
            burst.clear();
            let detail = format_args!("LSI {at} is gone");
            return walk
                .acct
                .drop(&self.name, DropReason::FabricDeadSlot, dead, detail);
        };
        walk.classify(&mut lsi.switch, &self.costs, &self.name, in_port, burst);
        let mut routed = mem::take(&mut walk.scratch.routed);
        let mut it = routed.drain(..).peekable();
        while let Some((out, out_pkt, ttl)) = it.next() {
            let ports = &self.lsi(at).ports;
            match ports.get(&out) {
                Some(PortKind::Physical(name)) => {
                    if let Some(f) = walk.acct.flight() {
                        f.hop(
                            &self.name,
                            HopKind::Egress {
                                port: name.as_str().to_string(),
                            },
                        );
                    }
                    if walk.io.emitted.is_empty() {
                        // One allocation for the result, sized for one
                        // frame out per frame in, at the first egress.
                        walk.io.emitted.reserve(walk.frames_in);
                    }
                    walk.io.emitted.push((name.clone(), out_pkt));
                }
                Some(&PortKind::Vlink { lsi, peer }) => {
                    walk.io.cost += Cost::from_nanos(self.costs.virtual_link_ns);
                    walk.queue((lsi, peer), out_pkt, ttl - 1);
                }
                Some(&PortKind::Nf(inst, nf_port)) => {
                    // Consecutive frames bound for the same instance
                    // (any of its ports) cross the boundary as one
                    // burst.
                    let WalkScratch { nf_in, ttls, .. } = &mut walk.scratch;
                    nf_in.push((nf_port, out_pkt));
                    ttls.push(ttl);
                    while let Some((next, _, _)) = it.peek() {
                        let Some(&PortKind::Nf(i, np)) = ports.get(next) else {
                            break;
                        };
                        if i != inst {
                            break;
                        }
                        let (_, p, t) = it.next().expect("peeked");
                        nf_in.push((np, p));
                        ttls.push(t);
                    }
                    self.deliver_run(walk, inst);
                    let wired = &self.lsi(at).nf_ports;
                    walk.requeue(&self.name, |nf_out| {
                        Some((at, *wired.get(&(inst, nf_out))?))
                    });
                }
                None => {
                    let reason = match at {
                        0 => DropReason::L0UnmappedPort,
                        _ => DropReason::GraphUnmappedPort,
                    };
                    walk.acct.drop(&self.name, reason, 1, "")
                }
            }
        }
        drop(it);
        walk.scratch.routed = routed;
    }

    /// The NF-delivery stage: hand the scratch's `nf_in` — consecutive
    /// `(nf port, frame)`s bound for one instance, their TTLs in `ttls`
    /// — across the NF boundary as one timed `deliver_into`, and record
    /// the per-frame latency (histogram and NF hop). What the NF handed
    /// back waits in the scratch's `crossing` for `Walk::requeue` to
    /// book and queue.
    fn deliver_run(&mut self, walk: &mut Walk<'_>, inst: InstanceId) {
        let mut frames = mem::take(&mut walk.scratch.nf_in);
        let n = frames.len() as u64;
        let t0 = (self.obs.is_some() || walk.acct.flight().is_some()).then(Instant::now);
        let mut env = NodeEnv {
            host: &mut self.host,
            ledger: &mut self.ledger,
            costs: &self.costs,
        };
        let crossing = &mut walk.scratch.crossing;
        self.compute
            .deliver_into(&mut env, inst, &mut frames, crossing);
        walk.scratch.nf_in = frames;
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
                .repository()
                .nnfs()
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
        let repository = self.compute.repository();
        out.push_str(&format!(
            "   ├─ VNF repository: {} network functions, {} with an NNF\n",
            repository.iter().count(),
            repository.nnfs().count()
        ));
        out.push_str(&format!(
            "   ├─ Resource manager: {} / {} used\n",
            format_bytes(self.memory_used()),
            format_bytes(self.mem_capacity)
        ));
        out.push_str("   ├─ Traffic steering\n");
        for (graph, lsi) in self.entries() {
            let sw = &lsi.switch;
            out.push_str(&format!(
                "   │  ├─ {} (dpid {}): {} ports, {} flows\n",
                sw.name,
                sw.dpid,
                sw.port_count(),
                sw.flow_count()
            ));
            if graph.is_some() {
                continue; // only LSI-0's ports are drawn
            }
            for (pno, kind) in &lsi.ports {
                let desc = match kind {
                    PortKind::Physical(n) => format!("physical '{n}'"),
                    PortKind::Vlink { lsi, .. } => {
                        let peer = self.lsis[*lsi].as_ref().map(|l| l.switch.name.as_str());
                        format!("virtual link → {}", peer.unwrap_or("LSI-"))
                    }
                    PortKind::Nf(i, _) => format!("shared NNF attach ({i})"),
                };
                out.push_str(&format!("   │  │   {pno}: {desc}\n"));
            }
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
        self.lsi(0).switch.stats
    }

    /// Installed flow entries across LSI-0 and every graph LSI (table
    /// occupancy, exported as a gauge through `/metrics`).
    pub fn total_flows(&self) -> usize {
        self.lsis().map(|(_, lsi)| lsi.flow_count()).sum()
    }

    /// Every LSI entry — LSI-0 (`None`) first, then each deployed
    /// graph's (`Some(graph id)`) by graph id.
    fn entries(&self) -> impl Iterator<Item = (Option<&str>, &Lsi)> {
        let graphs = self.graphs.iter().filter_map(|(id, g)| {
            let lsi = self.lsis[g.lsi].as_ref()?;
            Some((Some(id.as_str()), lsi))
        });
        std::iter::once((None, self.lsi(0))).chain(graphs)
    }

    /// Iterate every LSI on the node — LSI-0 first, then one per
    /// deployed graph (`Some(graph id)`). Read-only view for static
    /// analysis and table dumps.
    pub fn lsis(&self) -> impl Iterator<Item = (Option<&str>, &un_switch::LogicalSwitch)> {
        self.entries().map(|(graph, lsi)| (graph, &lsi.switch))
    }

    /// LSI-0's switch, writable by hand: for tests that corrupt a node's
    /// tables under its orchestrator, as a faulty node would. The node
    /// itself writes its tables only through its programs and groups.
    #[doc(hidden)]
    pub fn base_switch_mut(&mut self) -> &mut un_switch::LogicalSwitch {
        &mut self.lsi_mut(0).switch
    }
}

impl NativeStatus for UniversalNode {
    /// A shared instance is a single-instance NNF on an attach port.
    fn existing(&self, functional_type: &str) -> Option<(InstanceId, bool)> {
        let id = self.compute.existing_instance(functional_type)?;
        Some((id, self.lsi(0).nf_ports.contains_key(&(id, 0))))
    }
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
