//! The domain orchestrator: a fleet of Universal Nodes behaving as one.
//!
//! [`Domain`] owns N [`UniversalNode`]s, accepts whole NF-FGs, splits
//! them with [`crate::placement`] + [`mod@crate::partition`], deploys the
//! parts, and stitches cut edges with **inter-node overlay links**:
//! VLAN-tagged virtual wires riding a dedicated fabric interface on
//! every node, optionally ESP-protected with `un-ipsec` — one SA pair
//! per link, end to end: a frame is really sealed at the link's head
//! and really opened at its tail, the sealed frame is what every hop
//! carries, a transit node switches it on its outer vid and never
//! holds the tenant's bytes, and corruption anywhere on the path can
//! never deliver wrong bytes (the wire format lives in `crate::wire`).
//!
//! The data plane is a **batched shuttle**: [`Domain::inject_batch`]
//! drains a node's whole pending burst through the node's
//! run-to-completion batch path, buckets fabric-bound egress by VLAN
//! link, carries each bucket over the next hop of its path (sealing at
//! the first hop of a protected link, opening at the last), and hands
//! each peer node its burst at once — all on the caller's thread, with
//! the fleet and the links borrowed in place (one owner per piece of
//! state, nothing to lock). [`Domain::inject`] is the single-frame
//! wrapper.
//!
//! Failure handling is **incremental repair**: a stale heartbeat first
//! marks a node [`NodeHealth::Suspect`] (it keeps serving; a late
//! heartbeat cancels the pending repair), and only grace-window expiry
//! — or an explicit [`Domain::fail_node`] — fails it. The repair then
//! moves *only the lost sub-partition*: surviving NF/endpoint
//! assignments are pinned, cut edges with one surviving side inherit
//! their overlay VLAN id (so the survivor's part stays byte-identical
//! and its LSIs/NNFs are never touched), and each repair returns a
//! [`RepairOutcome`] measuring the blast radius (NFs moved vs
//! preserved, links rewired vs kept, nodes touched).
//!
//! This file holds the fleet (membership, health, the planner's view
//! of it) and the data-plane entry points. The shuttle those entry
//! points run is the child module `shuttle`. The graph lifecycle —
//! plan → commit | release, the one transaction deploy, update,
//! repair, promotion and retry all go through — is the child module
//! `control`, and the planner it calls, a function of a `FleetView`,
//! is `plan`; the failure path that builds repair plans is `repair`;
//! static verification is `verify`; the typed reports the
//! REST layer renders (conservation, availability, links) are
//! `report`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, OnceLock};

use un_core::{CompileError, DeployReport, Name, NnfError, UniversalNode};
use un_ipsec::SecurityAssociation;
use un_nffg::{NfFg, ValidationError};
use un_obs::{FrameLedger, PacketTrace, TraceRing, TraceSink};
use un_packet::Packet;
use un_sim::{Cost, SimDuration, SimTime};

use crate::partition::{Partition, PartitionError};
use crate::placement::{NodeView, PlaceError, PlacementStrategy};
use crate::sharing::{
    ShareKey, SharedClaim, SharedInstance, SharedRegistry, SharingConfig, SharingError,
};
use crate::standby::{GraphAvailability, RepairCalibration, StandbyRegistry};
use crate::topology::Topology;

/// Header spec of a synthetic flight-recorder probe frame
/// ([`Domain::trace_probe`], `POST /domain/trace`). Defaults give a
/// 64-byte-payload UDP frame on documentation addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSpec {
    /// IPv4 source address.
    pub src_ip: Ipv4Addr,
    /// IPv4 destination address.
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Optional VLAN tag on the synthesized frame.
    pub vlan: Option<u16>,
}

impl Default for ProbeSpec {
    fn default() -> Self {
        ProbeSpec {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(192, 0, 2, 9),
            src_port: 5000,
            dst_port: 5001,
            payload_len: 64,
            vlan: None,
        }
    }
}

/// Default first VLAN id of the overlay pool (up to 4094 inclusive).
const OVERLAY_VID_BASE: u16 = 3000;

/// Domain-wide settings.
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// Physical interface reserved on every node for overlay traffic.
    pub fabric_port: String,
    /// Protect overlay frames with ESP while crossing between nodes:
    /// sealed once at the link's head, opened once at its tail, carried
    /// as ciphertext over every hop in between.
    pub protect_overlay: bool,
    /// The fabric topology: which nodes are directly wired. The
    /// default full mesh keeps every overlay path single-hop; an
    /// explicit topology makes the path engine route cut edges over
    /// shortest paths, installing transit rules on intermediate
    /// nodes. Read at plan time — deployed graphs keep the paths they
    /// were routed with until the next update/repair re-plans them.
    pub topology: Topology,
    /// First VLAN id of the overlay pool (pool runs to 4094
    /// inclusive). Lets operators reserve part of the VLAN space —
    /// and lets tests exhaust the pool cheaply.
    pub overlay_vid_base: u16,
    /// Heartbeats older than this mark a node **suspect** at
    /// [`Domain::tick`] (slow, not yet dead: it keeps serving and no
    /// repair runs).
    pub heartbeat_timeout_ns: u64,
    /// Extra staleness beyond `heartbeat_timeout_ns` a suspect node is
    /// granted before [`Domain::tick`] declares it failed and repairs
    /// its partitions. A heartbeat arriving inside the window cancels
    /// the pending repair (the node returns to `Alive`).
    pub suspect_grace_ns: u64,
    /// How a node failure is repaired (incremental vs from-scratch).
    /// [`RepairPolicy::Incremental`] also repairs make-before-break:
    /// when a node turns **suspect**, the domain pre-computes a standby
    /// repair plan per affected graph (placement with survivors
    /// pinned, overlay vids pre-reserved, transit routes pre-solved)
    /// so grace expiry or [`Domain::fail_node`] promotes the staged
    /// plan instead of planning from scratch. A late heartbeat or
    /// [`Domain::recover_node`] discards the standby and returns its
    /// vids.
    pub repair: RepairPolicy,
    /// Assumed mean time between failures of one node, feeding
    /// [`Domain::availability_report`]'s predicted availability
    /// (`A = 1 − exposed_nodes · predicted_repair_ns / node_mtbf_ns`).
    pub node_mtbf_ns: u64,
    /// Domain-wide sharable-NNF registry settings (disabled by
    /// default: sharing stays strictly per-node, the pre-registry
    /// behavior). See [`crate::sharing`].
    pub sharing: SharingConfig,
    /// Seed for overlay SA key derivation.
    pub seed: u64,
    /// Per-injected-frame overlay hop budget: how many node-to-node
    /// crossings one frame may make before being dropped as a loop
    /// (`overlay_loop_drops`). Per frame, not per burst, so a large
    /// batch of well-behaved frames is never culled by a shared
    /// counter. A separate last-resort valve of `batch × overlay_ttl`
    /// total crossings bounds *amplifying* loops; once tripped it
    /// drops every further crossing in the call (counted as
    /// `overlay_work_exhausted`).
    pub overlay_ttl: u32,
    /// Record metrics and control-plane spans (see [`crate::Domain::
    /// obs`] and [`crate::Domain::recent_events`]). Off by default: the
    /// hot path then pays only an `Option`/bool check per batch, and
    /// `/metrics` serves scrape-derived series only.
    pub observability: bool,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            fabric_port: "fab0".to_string(),
            protect_overlay: false,
            topology: Topology::full_mesh(),
            overlay_vid_base: OVERLAY_VID_BASE,
            heartbeat_timeout_ns: 3_000_000_000, // 3 virtual seconds
            suspect_grace_ns: 1_000_000_000,     // 1 more before repair
            repair: RepairPolicy::Incremental,
            node_mtbf_ns: 2_592_000_000_000_000, // 30 virtual days
            sharing: SharingConfig::default(),
            seed: 0x5eed_d0ca_1000_0001,
            overlay_ttl: 64,
            observability: false,
        }
    }
}

/// Caller-supplied placement constraints for one graph.
#[derive(Debug, Clone, Default)]
pub struct DeployHints {
    /// Endpoint id → node name.
    pub endpoint_node: BTreeMap<String, String>,
    /// NF id → node name (pin).
    pub nf_node: BTreeMap<String, String>,
    /// Placement tie-break goal for this graph
    /// ([`PlacementStrategy::Pack`] when unset).
    pub strategy: Option<PlacementStrategy>,
}

/// Why a domain operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// Static validation failed.
    Invalid(Vec<ValidationError>),
    /// A graph with this id is already deployed.
    AlreadyDeployed(String),
    /// No graph with this id.
    NoSuchGraph(String),
    /// No node with this name.
    NoSuchNode(String),
    /// Fleet-level placement failed.
    Place(PlaceError),
    /// The sharable-NNF registry rejected the plan (no usable host).
    Sharing(SharingError),
    /// Graph partitioning failed.
    Partition(PartitionError),
    /// The overlay VLAN id pool (`overlay_vid_base..=4094`) has no
    /// free id left for a new cut edge.
    VidPoolExhausted,
    /// The fabric topology offers no usable path between two nodes
    /// that a cut edge must connect.
    NoRoute {
        /// Node hosting the sending side.
        from: String,
        /// Node hosting the receiving side.
        to: String,
    },
    /// An NF's config does not compile: refused by the planner, before
    /// any node call.
    NfConfig {
        /// The NF id.
        nf: String,
        /// Why its config was refused.
        error: NnfError,
    },
    /// A node rejected its part.
    Deploy {
        /// The node that failed.
        node: String,
        /// Its error, stringified.
        error: String,
    },
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::Invalid(errs) => {
                write!(f, "invalid NF-FG ({} problems): ", errs.len())?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            DomainError::AlreadyDeployed(g) => write!(f, "graph '{g}' already deployed"),
            DomainError::NoSuchGraph(g) => write!(f, "no such graph '{g}'"),
            DomainError::NoSuchNode(n) => write!(f, "no such node '{n}'"),
            DomainError::Place(e) => write!(f, "placement: {e}"),
            DomainError::Sharing(e) => write!(f, "sharing: {e}"),
            DomainError::Partition(e) => write!(f, "partition: {e}"),
            DomainError::VidPoolExhausted => {
                write!(f, "overlay VLAN id pool exhausted (base..=4094 all in use)")
            }
            DomainError::NoRoute { from, to } => {
                write!(f, "no fabric path from '{from}' to '{to}'")
            }
            DomainError::NfConfig { nf, error } => write!(f, "NF '{nf}': {error}"),
            DomainError::Deploy { node, error } => write!(f, "deploy on '{node}': {error}"),
        }
    }
}

impl std::error::Error for DomainError {}

impl From<PlaceError> for DomainError {
    fn from(e: PlaceError) -> Self {
        DomainError::Place(e)
    }
}

impl From<PartitionError> for DomainError {
    fn from(e: PartitionError) -> Self {
        DomainError::Partition(e)
    }
}

impl From<CompileError> for DomainError {
    fn from(CompileError { nf, error }: CompileError) -> Self {
        DomainError::NfConfig { nf, error }
    }
}

impl From<SharingError> for DomainError {
    fn from(e: SharingError) -> Self {
        DomainError::Sharing(e)
    }
}

/// What a domain deploy reports back.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// Graph id.
    pub graph: String,
    /// Per-node deploy reports, in node-name order.
    pub per_node: Vec<(String, DeployReport)>,
    /// Overlay links stitched for this graph.
    pub overlay_links: usize,
}

/// Result of injecting frames at domain ingresses.
#[derive(Debug, Default)]
pub struct DomainIo {
    /// Frames leaving the domain: (node, physical port, packet).
    pub emitted: Vec<(Name, Name, Packet)>,
    /// Total virtual time consumed, across nodes and overlay hops.
    pub cost: Cost,
    /// Overlay link traversals.
    pub overlay_hops: u32,
    /// Inner bytes sealed onto ESP-protected links: a frame's
    /// fabric-tagged length, counted once per link it rides whatever
    /// the link's hop count (0 when unprotected).
    pub protected_bytes: u64,
}

/// Liveness view of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeating normally.
    Alive,
    /// Heartbeat stale: slow or dead, undecided. The node keeps
    /// serving (traffic, existing partitions) and is still a pinning
    /// target, but a repair is pending — a heartbeat inside the grace
    /// window cancels it, expiry of the window fails the node.
    Suspect,
    /// Declared failed (by grace-window expiry or explicitly).
    Failed,
}

impl NodeHealth {
    /// True while the node can host partitions and carry traffic
    /// (`Alive` or `Suspect`).
    pub fn is_serving(&self) -> bool {
        !matches!(self, NodeHealth::Failed)
    }

    /// The health as the REST surface spells it.
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeHealth::Alive => "alive",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Failed => "failed",
        }
    }
}

/// How [`Domain`] repairs graphs when a node fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairPolicy {
    /// Move only the lost sub-partition: surviving NF assignments are
    /// pinned, surviving overlay links keep their VLAN ids (so
    /// untouched nodes' LSIs/NNFs are not redeployed), and only the
    /// cut edges into the dead node are rewired. Falls back to
    /// [`RepairPolicy::FromScratch`] when the pinned plan cannot be
    /// placed or installed.
    #[default]
    Incremental,
    /// Tear down every surviving part and re-plan the whole graph
    /// (the pre-incremental baseline, kept for A/B measurement).
    FromScratch,
}

/// Per-graph repair measurement: what one node failure actually cost.
/// Every duration is virtual time, so the same operations book the
/// same outcome on any host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The repaired graph.
    pub graph: String,
    /// NFs whose node assignment changed (the repair blast radius).
    pub nfs_moved: usize,
    /// NFs left running exactly where they were.
    pub nfs_preserved: usize,
    /// Overlay links rewired: fresh VLAN id or a changed endpoint pair.
    pub links_rewired: usize,
    /// Overlay links whose VLAN id *and* node pair survived untouched.
    pub links_kept: usize,
    /// Nodes whose deployment changed (redeployed, updated, or newly
    /// hosting a part). Untouched survivors are not counted.
    pub nodes_touched: usize,
    /// True if the repair fell back to (or was configured as) a full
    /// from-scratch re-placement.
    pub full_replace: bool,
    /// Of `nfs_moved`, how many moved because the **shared instance**
    /// they ride was re-hosted — blast radius attributed to shared
    /// tenancy rather than to this graph's own placement.
    pub shared_nfs_moved: usize,
    /// Shared instances whose host changed for this graph:
    /// `(share key, new host)`.
    pub shared_migrated: Vec<(String, String)>,
    /// This graph's repair in virtual time: the control-plane charges
    /// of every attempt it took — a plan computed inside the outage,
    /// each node call, each flow entry installed.
    pub repair_duration_ns: u64,
    /// Downtime of this graph's service in virtual time: from the start
    /// of the outage (the failed node's last heartbeat, or the
    /// `fail_node` call) until *this* graph's repair committed —
    /// detection included, and graphs repaired later in the sweep wait
    /// behind the repairs before them.
    pub downtime_estimate_ns: u64,
    /// True when a make-before-break standby plan (staged while the
    /// node was merely suspect) was promoted: the repair skipped the
    /// whole planning phase and installed the pre-staged parts.
    pub standby_promoted: bool,
    /// What the availability model predicted this repair's downtime
    /// would be, stamped *before* the repair ran: the outage so far
    /// (detection and the repairs before it in the sweep) plus the
    /// calibrated mean for the repair kind. The chaos suites hold
    /// modeled-vs-booked within a bracket.
    pub modeled_downtime_ns: u64,
}

/// Outcome of a node failure: which graphs were re-placed, and what
/// each repair cost.
#[derive(Debug, Clone, Default)]
pub struct ReplacementReport {
    /// Graphs successfully re-deployed on the surviving fleet.
    pub replaced: Vec<String>,
    /// Graphs that could not be re-placed (kept as pending specs).
    pub stranded: Vec<String>,
    /// Per-graph repair measurements (one entry per replaced graph).
    pub repairs: Vec<RepairOutcome>,
}

struct ManagedNode {
    node: UniversalNode,
    /// The node's name, interned once.
    name: Name,
    health: NodeHealth,
    last_heartbeat: SimTime,
}

/// The SA pair of one protected overlay link: `(outbound, inbound)`.
type LinkSas = Box<(SecurityAssociation, SecurityAssociation)>;

/// One live overlay link, under its vid: its ends are its path's ends,
/// and the rest of its cut edge is its graph's `partition.links` entry.
struct LinkState {
    /// The owning graph's id, shared with every verifier snapshot.
    graph: Arc<str>,
    /// Pinned fabric path `[from_node, …, to_node]` this link rides;
    /// length two when the nodes are adjacent (every full-mesh link).
    /// Shared with every verifier snapshot, like `graph`.
    path: Arc<[String]>,
    /// Cost of each path hop, in ns (`path.len() - 1` entries).
    hop_latency_ns: Vec<u64>,
    /// The SA pair protecting this wire, end to end (ESP mode): the
    /// outbound SA seals at `path[0]`, the inbound SA opens at the last
    /// node, and no node in between is handed either. It belongs to
    /// this *incarnation* of the link — minted under a fresh
    /// `Domain::link_epoch` when the link is created or its endpoints
    /// change, carried (sequence number and replay window included)
    /// across rule updates and reroutes.
    sas: Option<LinkSas>,
    /// Frames on the wire, counted at **every** hop of the pinned path
    /// (`path.len() - 1` hop crossings per end-to-end frame).
    packets: u64,
    /// Bytes on the wire, counted like `packets`: the sealed length on
    /// a protected link.
    bytes: u64,
    /// Per-hop frame counts (`path.len() - 1` entries, hop i =
    /// `path[i] → path[i+1]`). Reset when a repair reroutes the wire.
    hop_packets: Vec<u64>,
    hop_bytes: Vec<u64>,
}

#[derive(Clone)]
struct DomainGraph {
    /// The graph's id, shared with its links and every verifier
    /// snapshot.
    id: Arc<str>,
    /// The tenant's NF-FG, shared with every verifier snapshot.
    original: Arc<NfFg>,
    hints: DeployHints,
    assignment: BTreeMap<String, String>,
    /// Endpoint id → node name (kept so a repair can pin surviving
    /// endpoints without re-deriving them from the partition).
    endpoints: BTreeMap<String, String>,
    partition: Partition,
    /// The partition's links and install receipt as the verifier reads
    /// them, built by the first snapshot that lowers the graph. A commit
    /// replaces the whole entry, so they never go stale.
    lowered: OnceLock<LoweredPlan>,
}

/// A graph's links and expected rules, lowered for the verifier.
type LoweredPlan = (
    Arc<Vec<un_verify::snapshot::GraphLink>>,
    Arc<Vec<un_verify::snapshot::ExpectedRule>>,
);

/// A graph no surviving fleet could host: its spec, its hints pruned to
/// the survivors, and the start of the outage that parked it (its
/// downtime is stamped when it returns).
struct Parked {
    graph: NfFg,
    hints: DeployHints,
    since: SimTime,
}

un_sim::counters! {
    /// What the domain counts besides its frame ledger: the control
    /// plane's lifecycle, repair and standby events, and the shuttle's
    /// overlay crossings.
    pub struct DomainCounters {
        deploys_rolled_back,
        graph_updates_rules,
        graph_updates_structural,
        graphs_deployed,
        graphs_replaced,
        graphs_stranded,
        graphs_undeployed,
        nodes_added,
        nodes_failed,
        nodes_recovered,
        nodes_rejoined,
        nodes_suspected,
        overlay_frames,
        overlay_links_up,
        overlay_paths_rerouted,
        overlay_sas_minted,
        park_drains,
        recover_purged_graphs,
        repair_links_kept,
        repair_links_rewired,
        repair_nfs_moved,
        repair_nfs_preserved,
        repairs_full,
        repairs_incremental,
        repairs_rolled_back,
        shared_hosts_reelected,
        shared_instances_dropped,
        shared_instances_registered,
        shared_leases_acquired,
        sharing_disabled,
        sharing_enabled,
        standby_plans_computed,
        standby_plans_discarded,
        standby_plans_promoted,
        standby_plans_unplannable,
        standby_promotes_failed,
        standby_shared_promoted,
        suspects_cleared,
        updates_failed,
    }
}

/// The domain orchestrator.
pub struct Domain {
    /// Settings.
    pub config: DomainConfig,
    nodes: BTreeMap<String, ManagedNode>,
    graphs: BTreeMap<String, DomainGraph>,
    /// Graphs lost in a failure that no surviving fleet could host.
    pending: BTreeMap<String, Parked>,
    /// Overlay link state by VLAN id.
    links: BTreeMap<u16, LinkState>,
    /// The domain-wide sharable-NNF registry (instances, hosts,
    /// leases).
    sharing: SharedRegistry,
    /// Make-before-break standby plans, staged per suspect node.
    standby: StandbyRegistry,
    /// Per-graph measured/modeled downtime ledgers (survive undeploy).
    avail: BTreeMap<String, GraphAvailability>,
    /// Running repair-cost calibration feeding the availability model.
    calibration: RepairCalibration,
    /// The overlay VLAN id pool.
    vids: plan::VidPool,
    /// How many link SA pairs were ever minted. Every derivation runs
    /// under the next value, so a vid that returns to the pool and
    /// comes back never meets its old key again.
    link_epoch: u64,
    clock: SimTime,
    /// Virtual control-plane time charged so far (the charges in
    /// [`crate::standby`]): each node call and flow entry, and each
    /// plan a fresh deploy or a reactive repair computes. The books
    /// read only its differences: a repair or a retry takes what it
    /// charged. It never moves `clock`, so the frame path does not see
    /// it.
    charged: SimDuration,
    /// The domain's closed counter set (the frame ledger aside).
    pub trace: DomainCounters,
    /// The shuttle's share of the conservation ledger, plus replaced
    /// node carcasses' shares.
    frame_ledger: FrameLedger,
    /// Observability: metric registry + recent-event ring. Inert (one
    /// branch per record call) unless `config.observability` is set.
    obs: Arc<un_obs::Obs>,
    /// Flight recorder: bounded ring of recent real packet traces
    /// (filled by [`Domain::inject_traced`], served by
    /// `GET /domain/traces`). Ghost walks never land here.
    traces: TraceRing,
    /// Dirty-set bookkeeping for incremental static verification
    /// ([`Domain::verify`]); behind a lock so read-only verification
    /// can update its caches through `&self`.
    verify_cache: Mutex<verify::VerifyCache>,
    /// The shuttle's work list, lent to each data-plane call and handed
    /// back empty.
    shuttle_work: shuttle::Work,
}

impl Domain {
    /// An empty domain with the given settings.
    pub fn new(config: DomainConfig) -> Self {
        let vids = plan::VidPool::new(config.overlay_vid_base);
        let obs = un_obs::Obs::from_flag(config.observability);
        Domain {
            config,
            nodes: BTreeMap::new(),
            graphs: BTreeMap::new(),
            pending: BTreeMap::new(),
            links: BTreeMap::new(),
            sharing: SharedRegistry::default(),
            standby: StandbyRegistry::default(),
            avail: BTreeMap::new(),
            calibration: RepairCalibration::default(),
            vids,
            link_epoch: 0,
            clock: SimTime::ZERO,
            charged: SimDuration::ZERO,
            trace: DomainCounters::default(),
            frame_ledger: FrameLedger::default(),
            obs,
            traces: TraceRing::new(un_obs::DEFAULT_TRACE_CAPACITY),
            verify_cache: Mutex::new(verify::VerifyCache::default()),
            shuttle_work: shuttle::Work::default(),
        }
    }

    /// The domain's observability handle (registry + event ring).
    pub fn obs(&self) -> &Arc<un_obs::Obs> {
        &self.obs
    }

    /// An empty domain with default settings.
    pub fn with_defaults() -> Self {
        Self::new(DomainConfig::default())
    }

    // ------------------------------------------------------------------
    // Fleet management
    // ------------------------------------------------------------------

    /// Adopt a node into the fleet. The fabric interface is created if
    /// the node does not already expose it.
    ///
    /// A node may *rejoin* under the name of a **failed** node (its
    /// partitions were already re-placed or parked by `fail_node`, so
    /// replacing the carcass is safe). Registering a second node under
    /// the name of an **alive** one would silently orphan every graph
    /// partition the original hosts, so that is a hard error.
    ///
    /// # Panics
    ///
    /// If a node with this name is already alive in the fleet.
    pub fn add_node(&mut self, mut node: UniversalNode) -> String {
        if !node.has_physical_port(&self.config.fabric_port) {
            node.add_physical_port(&self.config.fabric_port);
        }
        if self.obs.is_enabled() {
            node.set_obs(self.obs.clone());
        }
        let name = node.name.clone();
        match self.nodes.get(&name) {
            Some(m) if m.health.is_serving() => {
                panic!("node '{name}' is already registered and alive")
            }
            Some(old) => {
                // The carcass's ledger must survive the rejoin or the
                // cumulative conservation balance would break.
                self.frame_ledger += *old.node.frame_ledger();
                self.trace.nodes_rejoined += 1;
            }
            None => self.trace.nodes_added += 1,
        }
        self.nodes.insert(
            name.clone(),
            ManagedNode {
                name: Name::new(&name),
                node,
                health: NodeHealth::Alive,
                last_heartbeat: self.clock,
            },
        );
        // Fleet membership changed (and a rejoin may have replaced a
        // carcass wholesale) — re-verify everything.
        self.verify_mark_all();
        name
    }

    /// Names of every registered node, including failed carcasses.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    fn nodes_where<C: FromIterator<String>>(&self, health: impl Fn(&NodeHealth) -> bool) -> C {
        let matching = self.nodes.iter().filter(|(_, m)| health(&m.health));
        matching.map(|(n, _)| n.clone()).collect()
    }

    /// Names of nodes that can host partitions and carry traffic
    /// (`Alive` or `Suspect` — a suspect is slow, not dead).
    pub fn serving_nodes(&self) -> Vec<String> {
        self.nodes_where(NodeHealth::is_serving)
    }

    /// Names of nodes currently in the suspect grace window.
    pub fn suspect_nodes(&self) -> Vec<String> {
        self.nodes_where(|h| *h == NodeHealth::Suspect)
    }

    /// Borrow a node.
    pub fn node(&self, name: &str) -> Option<&UniversalNode> {
        self.nodes.get(name).map(|m| &m.node)
    }

    /// Borrow a node mutably (tests / harnesses).
    pub fn node_mut(&mut self, name: &str) -> Option<&mut UniversalNode> {
        // The caller can rewrite arbitrary node state through this
        // handle; assume the worst for the verification caches.
        self.verify_mark_all();
        self.nodes.get_mut(name).map(|m| &mut m.node)
    }

    /// Health of one node.
    pub fn health(&self, name: &str) -> Option<NodeHealth> {
        self.nodes.get(name).map(|m| m.health.clone())
    }

    /// Advance the domain clock (propagates to serving nodes).
    pub fn set_time(&mut self, now: SimTime) {
        self.clock = now;
        for managed in self.nodes.values_mut() {
            if managed.health.is_serving() {
                managed.node.set_time(now);
            }
        }
    }

    /// Record a node heartbeat. A heartbeat from a **suspect** node
    /// clears the suspicion and cancels its pending repair; a
    /// heartbeat from a **failed** node is recorded but does not
    /// resurrect it — its partitions are already gone, so rejoining
    /// takes an explicit [`Domain::recover_node`] (or `add_node`).
    pub fn heartbeat(&mut self, name: &str, now: SimTime) -> Result<(), DomainError> {
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        managed.last_heartbeat = now;
        if managed.health == NodeHealth::Suspect {
            managed.health = NodeHealth::Alive;
            self.trace.suspects_cleared += 1;
            self.discard_standby(name, "heartbeat");
        }
        Ok(())
    }

    /// Explicitly mark an alive node **suspect** (operator signal or an
    /// external failure detector), staging make-before-break standby
    /// plans exactly as a stale heartbeat would. Idempotent no-op on
    /// already-suspect or failed nodes.
    pub fn suspect_node(&mut self, name: &str) -> Result<(), DomainError> {
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        if managed.health != NodeHealth::Alive {
            return Ok(());
        }
        managed.health = NodeHealth::Suspect;
        self.trace.nodes_suspected += 1;
        self.compute_standby(name);
        Ok(())
    }

    /// Advance time and run the failure detector:
    ///
    /// * alive nodes whose heartbeat is older than
    ///   `heartbeat_timeout_ns` become **suspect** — no repair yet;
    /// * suspect nodes (and alive nodes that skipped the window
    ///   entirely) staler than `heartbeat_timeout_ns +
    ///   suspect_grace_ns` become **failed** and their partitions are
    ///   repaired per [`DomainConfig::repair`]. Their outage is booked
    ///   from their last heartbeat: detection is downtime.
    ///
    /// Already-failed nodes are ignored, so repeated ticks are
    /// idempotent: a node's failure is reported (and repaired) exactly
    /// once. Returns the repair outcome per newly failed node.
    pub fn tick(&mut self, now: SimTime) -> Vec<(String, ReplacementReport)> {
        self.set_time(now);
        let timeout = self.config.heartbeat_timeout_ns;
        let dead_after = timeout.saturating_add(self.config.suspect_grace_ns);
        // Mark the whole stale set failed *before* re-placing anything,
        // so a graph from the first dead node is never re-placed onto a
        // node that the same sweep is about to declare dead.
        let mut newly_failed: Vec<(String, SimTime)> = Vec::new();
        let mut newly_suspected: Vec<String> = Vec::new();
        for (name, m) in self.nodes.iter_mut() {
            let stale_ns = now.duration_since(m.last_heartbeat).as_nanos();
            match m.health {
                NodeHealth::Alive | NodeHealth::Suspect if stale_ns > dead_after => {
                    m.health = NodeHealth::Failed;
                    newly_failed.push((name.clone(), m.last_heartbeat));
                }
                NodeHealth::Alive if stale_ns > timeout => {
                    m.health = NodeHealth::Suspect;
                    self.trace.nodes_suspected += 1;
                    newly_suspected.push(name.clone());
                }
                _ => {}
            }
        }
        let reports: Vec<(String, ReplacementReport)> = newly_failed
            .into_iter()
            .map(|(n, silent_since)| {
                let report = self.replace_lost_partitions(&n, silent_since);
                (n, report)
            })
            .collect();
        // Stage standbys *after* the failure sweep: a plan computed
        // before it could pin parts onto a node the same sweep is
        // about to declare dead.
        for n in newly_suspected {
            self.compute_standby(&n);
        }
        reports
    }

    /// Bring a **failed** node back into service under its old name,
    /// reusing the node object that stayed registered as a carcass.
    ///
    /// Stale graph state still deployed on the node (partitions the
    /// domain re-placed elsewhere, or parked, while the node was dead)
    /// is purged first so its capacity is released and a later deploy
    /// of the same graph id cannot collide. Recovering a **suspect**
    /// node just clears the suspicion (its state is current). Returns
    /// the pending graphs the recovered capacity let
    /// [`Domain::retry_pending`] re-deploy.
    pub fn recover_node(&mut self, name: &str) -> Result<Vec<String>, DomainError> {
        let clock = self.clock;
        let managed = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| DomainError::NoSuchNode(name.to_string()))?;
        match managed.health {
            NodeHealth::Alive => Ok(Vec::new()),
            NodeHealth::Suspect => {
                managed.health = NodeHealth::Alive;
                managed.last_heartbeat = clock;
                self.trace.suspects_cleared += 1;
                self.discard_standby(name, "recover");
                Ok(Vec::new())
            }
            NodeHealth::Failed => {
                managed.health = NodeHealth::Alive;
                managed.last_heartbeat = clock;
                managed.node.set_time(clock);
                // Defensive: a partition that still names this node
                // (impossible today — failure always moves them) must
                // not be purged.
                let keep: Vec<String> = self
                    .graphs
                    .iter()
                    .filter(|(_, g)| g.partition.parts.contains_key(name))
                    .map(|(id, _)| id.clone())
                    .collect();
                let dropped = managed.node.retain_graphs(&keep);
                self.trace.recover_purged_graphs += dropped.len() as u64;
                self.trace.nodes_recovered += 1;
                // Defensive: a failed node's standby was consumed at
                // failure time; any leftover must return its vids.
                self.discard_standby(name, "recover");
                // The node re-enters the audited set with freshly
                // purged tables: re-audit it and what it still hosts.
                self.verify_mark_node(name);
                Ok(self.retry_pending())
            }
        }
    }

    /// Can `name` host partitions and carry traffic right now?
    fn serves(&self, name: &str) -> bool {
        self.nodes.get(name).is_some_and(|m| m.health.is_serving())
    }

    /// The two halves of a planning step: the fleet as [`plan::plan`]
    /// reads it, and the pool it draws overlay vids from. This is the
    /// only place planning inputs are gathered — node views and who
    /// serves, hop distances, the pinned paths loading each fabric
    /// edge, and handles on the live graphs, the registry, the
    /// settings and the span sink. Only serving nodes get a view, and
    /// suspect nodes serve: suspicion is a short grace window, not a
    /// quarantine, and quarantining them would force every concurrent
    /// update to migrate off a node that is probably just slow.
    fn planner(&mut self) -> (FleetView<'_>, &mut plan::VidPool) {
        let fabric = self.config.fabric_port.as_str();
        let views: Vec<NodeView<'_>> = self
            .nodes
            .values()
            .filter(|m| m.health.is_serving())
            .map(|m| NodeView {
                name: m.node.name.clone(),
                free_memory: m.node.free_memory(),
                capacity: m.node.mem_capacity(),
                native_types: m.node.native_nnf_types().collect(),
                shared_running: m.node.shared_nnf_types().collect(),
                sharable_types: m.node.sharable_nnf_types().collect(),
                ports: m
                    .node
                    .physical_port_names()
                    .filter(|p| *p != fabric)
                    .collect(),
            })
            .collect();
        let serving: BTreeSet<String> = views.iter().map(|v| v.name.clone()).collect();
        let mut edge_riders: BTreeMap<_, Vec<&str>> = BTreeMap::new();
        if !self.config.topology.is_full_mesh() {
            for state in self.links.values() {
                for w in state.path.windows(2) {
                    let (a, b) = (w[0].as_str(), w[1].as_str());
                    let riders = edge_riders.entry((a.min(b), a.max(b))).or_default();
                    riders.push(&state.graph);
                }
            }
        }
        let view = FleetView {
            fabric_hops: self.config.topology.hop_matrix(&serving),
            views,
            serving,
            edge_riders,
            probe: self
                .nodes
                .values()
                .find(|m| m.health.is_serving())
                .map(|m| &m.node),
            graphs: &self.graphs,
            sharing: &self.sharing,
            config: &self.config,
            obs: &self.obs,
            shared_standby: BTreeMap::new(),
        };
        (view, &mut self.vids)
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Inject a frame on a node's physical port and run it across the
    /// domain until every resulting frame left on a real egress.
    ///
    /// Thin wrapper over [`Domain::inject_batch`] with a one-frame
    /// burst. The shuttle works in the domain's own work list, lent to
    /// each call and handed back empty, so a warm call allocates only
    /// its result: on a one-node bridge chain that is 1 heap allocation
    /// (the returned `emitted` vector) more than the same frame through
    /// [`UniversalNode::inject`], and 0 more per further node touched
    /// (pinned by `tests/alloc_per_call.rs`). High-rate callers should
    /// still batch frames into `inject_batch`, which amortizes that one
    /// allocation, and the per-call setup, across the burst.
    pub fn inject(&mut self, node: &str, port: &str, pkt: Packet) -> DomainIo {
        self.inject_batch(std::iter::once((node, port, pkt)), 1)
    }

    /// Inject a burst of `(node, port, frame)` triples and drain the
    /// whole burst across the domain on the caller's thread.
    ///
    /// The shuttle (the `shuttle` child module) is batched end to end:
    /// each node's pending frames are drained through
    /// [`UniversalNode::inject_batch`] in one call, fabric-bound egress
    /// is bucketed by VLAN link, ESP links seal at their first hop and
    /// open at their last, and the peer node receives its whole burst
    /// at once. Nodes with pending work wait in one FIFO ready queue;
    /// the fleet and the links are borrowed in place, so the same burst
    /// on the same domain always drains in the same order.
    ///
    /// `workers` is accepted and **ignored**: the drain is
    /// single-threaded (a second thread measured 0.99–1.13× on the
    /// 2-core CPE this models). The argument stays only until the
    /// benchmark harness stops passing it.
    ///
    /// Ingress keys are borrowed (`AsRef<str>`): callers can pass
    /// `&str`, `String`, or interned [`Name`] without allocating per
    /// frame.
    ///
    /// Every frame carries its own overlay-hop TTL
    /// ([`DomainConfig::overlay_ttl`]), so a large burst can never be
    /// spuriously dropped as a loop — only genuinely circulating frames
    /// die (counted as `overlay_loop_drops`).
    pub fn inject_batch<N, P>(
        &mut self,
        ingress: impl IntoIterator<Item = (N, P, Packet)>,
        workers: usize,
    ) -> DomainIo
    where
        N: AsRef<str>,
        P: AsRef<str>,
    {
        let _ = workers;
        self.shuttle(ingress, None)
    }

    /// Inject one frame with the flight recorder attached: the frame
    /// runs the **real** data plane (every counter moves exactly as
    /// under [`Domain::inject`]) while a [`TraceSink`] records one hop
    /// record per crossing — ingress, per-table classifier verdicts
    /// with matched-rule provenance, NF deliveries, overlay crossings,
    /// egress and typed drops. The finished trace lands in the
    /// domain's bounded recent-trace ring (`GET /domain/traces`) and
    /// is returned alongside the io report. `workers` is accepted and
    /// ignored, as in [`Domain::inject_batch`].
    pub fn inject_traced(
        &mut self,
        node: &str,
        port: &str,
        pkt: Packet,
        workers: usize,
    ) -> (DomainIo, PacketTrace) {
        let _ = workers;
        let sink = TraceSink::new(node, port, false);
        let io = self.shuttle(std::iter::once((node, port, pkt)), Some(&sink));
        let trace = sink.finish();
        self.traces.push(trace.clone());
        (io, trace)
    }

    /// Walk a synthetic frame through the domain in **ghost mode**: the
    /// frame takes exactly the decisions the real data plane would take
    /// (classifier lookups, NF processing, overlay routing, real ESP
    /// seal and open on cloned SAs) but moves **none of the domain's
    /// counters** — the conservation ledger, node and domain trace
    /// counters, switch/port statistics, microflow caches, link wire
    /// counters and observability histograms are all left untouched, so
    /// a trace probe is invisible to the ledger and to `/metrics`. The
    /// NFs it crosses run for real, so *their* state moves (see
    /// [`UniversalNode::inject_batch_flight`]). Returns the recorded
    /// hop-by-hop trace (served by `POST /domain/trace`); ghost walks
    /// never enter the recent-trace ring.
    pub fn trace_frame(&mut self, node: &str, port: &str, pkt: Packet) -> PacketTrace {
        let sink = TraceSink::new(node, port, true);
        let _ = self.shuttle(std::iter::once((node, port, pkt)), Some(&sink));
        sink.finish()
    }

    /// The bounded ring of recent real traces (newest last).
    pub fn recent_traces(&self) -> Vec<PacketTrace> {
        self.traces.snapshot()
    }

    /// Synthesize a probe frame from `spec` and ghost-walk it from
    /// `(node, port)` (see [`Domain::trace_frame`]): the backing for
    /// `POST /domain/trace`. The frame is built here — not by the REST
    /// layer — so every caller gets identical header synthesis.
    pub fn trace_probe(&mut self, node: &str, port: &str, spec: &ProbeSpec) -> PacketTrace {
        let mut b = un_packet::PacketBuilder::new().ethernet(
            un_packet::ethernet::MacAddr::local(1),
            un_packet::ethernet::MacAddr::local(2),
        );
        if let Some(vid) = spec.vlan {
            b = b.vlan(vid);
        }
        let payload = vec![0xA5u8; spec.payload_len];
        let pkt = b
            .ipv4(spec.src_ip, spec.dst_ip)
            .udp(spec.src_port, spec.dst_port)
            .payload(&payload)
            .build();
        self.trace_frame(node, port, pkt)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Recent control-plane events/spans (newest last). Empty unless
    /// `DomainConfig::observability` is on.
    pub fn recent_events(&self) -> Vec<un_obs::Event> {
        self.obs.events().snapshot()
    }

    /// Overlay VLAN id accounting: `(base, next, free, in_use,
    /// standby_reserved)`. Every id in `base..next` is free, in use,
    /// or reserved by a staged standby plan — exactly once; the chaos
    /// suites hold that as an invariant after every operation.
    #[allow(clippy::type_complexity)]
    pub fn vid_accounting(&self) -> (u16, u16, Vec<u16>, Vec<u16>, Vec<u16>) {
        let (next, free) = self.vids.accounting();
        let in_use: Vec<u16> = self.links.keys().copied().collect();
        let mut standby_reserved = self.standby.reserved_vids();
        standby_reserved.sort_unstable();
        (
            self.config.overlay_vid_base,
            next,
            free,
            in_use,
            standby_reserved,
        )
    }

    /// Graphs with a make-before-break standby plan staged right now.
    pub fn standby_graphs(&self) -> Vec<String> {
        self.standby.ready_graphs().into_iter().collect()
    }

    /// The measured/modeled downtime ledger of one graph (`None` if it
    /// was never repaired or parked).
    pub fn graph_availability(&self, id: &str) -> Option<GraphAvailability> {
        self.avail.get(id).cloned()
    }

    /// Toggle the domain-wide sharable-NNF registry at runtime.
    /// Deployed graphs keep the leases they hold; new plans (deploys,
    /// updates, repairs) follow the switch.
    pub fn set_sharing_enabled(&mut self, enabled: bool) {
        if self.config.sharing.enabled != enabled {
            self.config.sharing.enabled = enabled;
            if enabled {
                self.trace.sharing_enabled += 1;
            } else {
                self.trace.sharing_disabled += 1;
            }
        }
    }

    /// Is the fleet-level sharing registry currently consulted?
    pub fn sharing_enabled(&self) -> bool {
        self.config.sharing.enabled
    }

    /// Snapshot of every live shared instance (key, host, leases).
    pub fn shared_instances(&self) -> Vec<SharedInstance> {
        self.sharing.instances().cloned().collect()
    }

    /// The registry's leases of a deployed graph (`None` for unknown
    /// graphs; an empty map for tenants of nothing).
    pub fn graph_shared_leases(&self, id: &str) -> Option<BTreeMap<ShareKey, SharedClaim>> {
        self.graphs
            .contains_key(id)
            .then(|| self.sharing.leases_of(id))
    }
}

mod control;
mod plan;
mod repair;
mod report;
mod shuttle;
mod verify;

pub(crate) use plan::{FleetView, Plan};
pub use report::{ConservationReport, LinkReport};

#[cfg(test)]
mod tests;
