//! Model-based chaos suite for the domain's failure handling.
//!
//! Random sequences of `deploy` / `update` / `undeploy` / `fail_node` /
//! `suspect_node` / `recover_node` / `heartbeat` / `tick` /
//! `retry_pending` — and `deploy_broken`, a graph some node accepts
//! and then fails half-way through building — are driven
//! against **two** domains differing only in repair policy
//! (incremental vs from-scratch) and checked, after every operation,
//! against a simple in-test reference model of the health state
//! machine plus a battery of invariants:
//!
//! * node health always matches the reference model (alive → suspect
//!   on timeout, suspect → failed on grace expiry, late heartbeats
//!   cancel, recovery resurrects);
//! * no partition of a deployed graph lives on a failed node;
//! * capacity accounting never goes negative (used ≤ capacity, on
//!   every node, always);
//! * every deployed graph's cut edges are backed by live overlay link
//!   state attributed to that graph, and no overlay link state is
//!   orphaned;
//! * **vid conservation**: every VLAN id the pool ever minted is free,
//!   backing a live link, or reserved by a staged standby plan —
//!   exactly once — no leak, no double-free, across every
//!   deploy/update/repair/park and suspect/discard/promote cycle;
//! * **standby hygiene**: make-before-break plans exist only while a
//!   node is suspect and only for deployed graphs — promotion consumes
//!   them, late heartbeats and recovery discard them leak-free;
//! * **availability model sanity**: predicted availabilities are
//!   probabilities, and once repairs ran the modeled downtime stream
//!   brackets the measured one within three orders of magnitude;
//! * **topology-aware routing**: every overlay link's pinned path is a
//!   valid walk through the fabric topology, starts and ends at the
//!   link's node pair, and never touches a failed node (checked in a
//!   dedicated line-topology suite below, where multi-hop transit and
//!   `NoRoute` parking actually occur);
//! * **lease conservation**: every shared-NNF lease belongs to a
//!   deployed tenant, its wire count matches the tenant's NFs actually
//!   assigned to the instance's host, the host is serving and carries
//!   the node-level binding, no instance survives without a tenant,
//!   and the registry's lease table balances the per-graph claim
//!   ledger exactly (checked after every op, with `toggle_sharing`
//!   flipping the registry on and off mid-sequence);
//! * deployed and pending sets never intersect;
//! * **incremental repair ≡ from-scratch** in observable placement
//!   validity: both domains agree on which graphs are deployed and
//!   which are parked, after every single operation;
//! * parked graphs eventually re-place: once every node recovers,
//!   `retry_pending` drains the pending set completely.
//!
//! The case count honors `UN_CHAOS_CASES` (CI pins it); the vendored
//! proptest shim is deterministically seeded, so every run replays the
//! same sequences.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use un_core::UniversalNode;
use un_domain::{
    DeployHints, Domain, DomainConfig, EdgeAttrs, NodeHealth, RepairPolicy, ShareKey,
    SharingConfig, Topology,
};
use un_nffg::{NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;
use un_sim::SimTime;

const NODES: [&str; 3] = ["n1", "n2", "n3"];
const GRAPHS: usize = 4;
/// Per-op clock advance (well under the heartbeat timeout).
const STEP_NS: u64 = 200_000_000;

fn chaos_cases() -> u32 {
    std::env::var("UN_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Chain graph `g<i>` with `len` bridges behind per-graph VLAN
/// endpoints (no untagged-interface conflicts between graphs). Odd
/// graphs put a **NAT** — the domain-sharable type — at the head of
/// the chain, so toggling the registry exercises real lease traffic.
fn graph(i: usize, len: usize) -> NfFg {
    let mut ids: Vec<String> = Vec::new();
    let mut b = NfFgBuilder::new(&format!("g{i}"), "chaos")
        .vlan_endpoint("lan", "eth0", 100 + 2 * i as u16)
        .vlan_endpoint("wan", "eth1", 101 + 2 * i as u16);
    if i % 2 == 1 {
        let id = format!("g{i}nat");
        let cfg = un_nffg::NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", &format!("203.0.113.{}/24", i + 1));
        b = b.nf_with_config(&id, "nat", 2, cfg);
        ids.push(id);
    }
    for k in 0..len {
        let id = format!("g{i}br{k}");
        b = b.nf(&id, "bridge", 2);
        ids.push(id);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

/// A graph the planner admits and a node then fails to build, after
/// its NF exists: either a native IPsec with no configuration
/// (created, then `start` misses a parameter), or two endpoints both
/// claiming `eth1`'s untagged traffic on n3 (NF running and the first
/// endpoint wired when the second is refused).
fn broken_graph(i: usize, collide: bool) -> (NfFg, DeployHints) {
    let b = NfFgBuilder::new(&format!("broken{i}"), "chaos");
    if collide {
        let graph = b
            .interface_endpoint("a", "eth1")
            .interface_endpoint("b", "eth1")
            .nf("br", "bridge", 2)
            .chain("a", &["br"], "b")
            .build();
        let same_node = [("a", "n3"), ("b", "n3")].map(|(k, v)| (k.to_string(), v.to_string()));
        let hints = DeployHints {
            endpoint_node: same_node.into_iter().collect(),
            ..DeployHints::default()
        };
        (graph, hints)
    } else {
        let graph = b
            .vlan_endpoint("lan", "eth0", 900 + 2 * i as u16)
            .vlan_endpoint("wan", "eth1", 901 + 2 * i as u16)
            .nf("vpn", "ipsec", 2)
            .with_flavor("native")
            .chain("lan", &["vpn"], "wan")
            .build();
        (graph, DeployHints::default())
    }
}

/// Deploy a broken graph: it must be refused, and what the fleet holds
/// — deployed and parked graphs, vids backing links or staged standbys,
/// every node's kernel objects, instances, ports and flows — must be
/// what it held before. (`check_domain` then runs as after any op:
/// verify clean, ledgers balanced.)
fn chaos_deploy_broken(d: &mut Domain, i: usize, collide: bool, tag: &str) {
    let held = |d: &Domain| {
        let (_, _, _, in_use, standby) = d.vid_accounting();
        let nodes: Vec<[usize; 6]> = NODES
            .iter()
            .map(|name| {
                let n = d.node(name).unwrap();
                [
                    n.host.namespace_count(),
                    n.host.iface_count(),
                    n.ledger.live_accounts(),
                    n.total_instances(),
                    n.lsis().next().unwrap().1.port_count(),
                    n.total_flows(),
                ]
            })
            .collect();
        (d.graph_ids(), d.pending_graphs(), in_use, standby, nodes)
    };
    let before = held(d);
    let (graph, hints) = broken_graph(i, collide);
    let refused = d.deploy_with(&graph, &hints);
    assert!(refused.is_err(), "{tag}: {} deployed", graph.id);
    assert_eq!(held(d), before, "{tag}: a refused deploy changed the fleet");
}

/// The chaos sharing settings: registry known to both fleets, **off**
/// until a `toggle_sharing` op flips it.
fn chaos_sharing() -> SharingConfig {
    SharingConfig {
        enabled: false,
        ..SharingConfig::for_types(&["nat"])
    }
}

/// A frame addressed at graph `i`'s ingress: VLAN-tagged for its `lan`
/// endpoint. Whether the graph is deployed (or the port even exists on
/// the chosen node) is deliberately not a precondition — the
/// conservation ledger must balance for misdirected traffic too.
fn chaos_frame(i: usize) -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .vlan(100 + 2 * i as u16)
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
        .udp(4000, 4001)
        .payload(&[0x5A; 48])
        .build()
}

/// Inject a small burst for graph `i` at `node`'s `eth0` — the traffic
/// arm of the chaos suite. Returns nothing: `check_domain` judges the
/// outcome through the conservation ledger, not the io report.
fn chaos_inject(d: &mut Domain, i: usize, node: usize) {
    let burst = (0..3).map(|_| (NODES[node], "eth0", chaos_frame(i)));
    let _ = d.inject_batch(burst, 1);
}

fn fleet(policy: RepairPolicy) -> Domain {
    let mut d = Domain::new(DomainConfig {
        repair: policy,
        sharing: chaos_sharing(),
        // The chaos fleets run with the metrics/tracing layer live, so
        // every case doubles as an exerciser for the obs registry.
        observability: true,
        ..DomainConfig::default()
    });
    // eth0 lives on n1 and n3, eth1 everywhere: graphs strand only
    // when both eth0 owners are down — identically in both domains.
    for (name, ports) in [
        ("n1", &["eth0", "eth1"][..]),
        ("n2", &["eth1"][..]),
        ("n3", &["eth0", "eth1"][..]),
    ] {
        let mut n = UniversalNode::new(name, mb(2048));
        for p in ports {
            n.add_physical_port(p);
        }
        d.add_node(n);
    }
    d
}

/// The reference health model: the test's own tiny copy of the
/// suspect/failed state machine, advanced in lockstep with the domain.
struct HealthModel {
    last_heartbeat: [u64; 3],
    health: [NodeHealth; 3],
    timeout: u64,
    grace: u64,
}

impl HealthModel {
    fn new(d: &Domain) -> Self {
        HealthModel {
            last_heartbeat: [0; 3],
            health: [NodeHealth::Alive, NodeHealth::Alive, NodeHealth::Alive],
            timeout: d.config.heartbeat_timeout_ns,
            grace: d.config.suspect_grace_ns,
        }
    }

    fn heartbeat(&mut self, node: usize, now: u64) {
        self.last_heartbeat[node] = now;
        if self.health[node] == NodeHealth::Suspect {
            self.health[node] = NodeHealth::Alive;
        }
    }

    fn fail(&mut self, node: usize) {
        self.health[node] = NodeHealth::Failed;
    }

    /// Mirrors `Domain::suspect_node`: only an alive node becomes
    /// suspect; suspect and failed nodes are untouched.
    fn suspect(&mut self, node: usize) {
        if self.health[node] == NodeHealth::Alive {
            self.health[node] = NodeHealth::Suspect;
        }
    }

    fn any_suspect(&self) -> bool {
        self.health.contains(&NodeHealth::Suspect)
    }

    /// Mirrors `Domain::recover_node`: an already-alive node is left
    /// untouched (in particular its heartbeat is *not* refreshed).
    fn recover(&mut self, node: usize, now: u64) {
        if self.health[node] != NodeHealth::Alive {
            self.health[node] = NodeHealth::Alive;
            self.last_heartbeat[node] = now;
        }
    }

    fn tick(&mut self, now: u64) {
        for i in 0..3 {
            let stale = now.saturating_sub(self.last_heartbeat[i]);
            match self.health[i] {
                NodeHealth::Alive | NodeHealth::Suspect if stale > self.timeout + self.grace => {
                    self.health[i] = NodeHealth::Failed;
                }
                NodeHealth::Alive if stale > self.timeout => {
                    self.health[i] = NodeHealth::Suspect;
                }
                _ => {}
            }
        }
    }

    fn serving(&self, node: usize) -> bool {
        self.health[node].is_serving()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Deploy(usize),
    Update(usize, usize),
    Undeploy(usize),
    FailNode(usize),
    RecoverNode(usize),
    Heartbeat(usize),
    Tick(usize),
    RetryPending,
    ToggleSharing,
    /// Inject a burst for graph `.0` at node `.1` — exercises the
    /// dataplane shuttle (and the conservation ledger) mid-chaos.
    Inject(usize, usize),
    /// Explicitly suspect a node — stages make-before-break standby
    /// plans that a later failure promotes or a heartbeat discards.
    Suspect(usize),
    /// Deploy a graph a node fails to build half-way (`.1`: colliding
    /// untagged endpoints, else a native NF missing a parameter).
    DeployBroken(usize, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..16, 0u8..8, 0u8..4).prop_map(|(kind, a, b)| match kind {
        0 | 1 => Op::Deploy(a as usize % GRAPHS),
        2 => Op::Update(a as usize % GRAPHS, b as usize),
        3 => Op::Undeploy(a as usize % GRAPHS),
        4 => Op::FailNode(a as usize % NODES.len()),
        5 => Op::RecoverNode(a as usize % NODES.len()),
        6 | 7 => Op::Heartbeat(a as usize % NODES.len()),
        8 => Op::Tick(b as usize),
        9 => Op::ToggleSharing,
        10 => Op::RetryPending,
        13 | 14 => Op::Suspect(a as usize % NODES.len()),
        15 => Op::DeployBroken(a as usize % GRAPHS, b % 2 == 0),
        _ => Op::Inject(a as usize % GRAPHS, b as usize % NODES.len()),
    })
}

/// All the invariants one domain must satisfy at every step.
fn check_domain(d: &Domain, model: &HealthModel, tag: &str) {
    // Health matches the reference model exactly.
    for (i, name) in NODES.iter().enumerate() {
        assert_eq!(
            d.health(name).unwrap(),
            model.health[i],
            "{tag}: health model diverged on {name}"
        );
    }
    let serving: BTreeSet<String> = NODES
        .iter()
        .enumerate()
        .filter(|(i, _)| model.serving(*i))
        .map(|(_, n)| n.to_string())
        .collect();

    // Capacity accounting never goes negative, anywhere, ever.
    for name in NODES {
        let node = d.node(name).unwrap();
        assert!(
            node.memory_used() <= node.mem_capacity(),
            "{tag}: {name} overcommitted: {} > {}",
            node.memory_used(),
            node.mem_capacity()
        );
    }

    // Deployed and pending sets are disjoint.
    let deployed: BTreeSet<String> = d.graph_ids().into_iter().collect();
    let pending: BTreeSet<String> = d.pending_graphs().into_iter().collect();
    assert!(
        deployed.is_disjoint(&pending),
        "{tag}: deployed ∩ pending: {deployed:?} vs {pending:?}"
    );

    // No partition of a deployed graph lives on a failed node, every
    // NF is assigned to a hosting part's node, and every cut edge is
    // backed by live overlay link state attributed to this graph.
    let link_reports = d.link_reports();
    let mut expected_links = 0usize;
    for gid in &deployed {
        let partition = d.partition_of(gid).unwrap();
        for node in partition.parts.keys() {
            assert!(
                serving.contains(node),
                "{tag}: {gid} has a part on dead node {node}"
            );
        }
        for (nf, node) in d.assignment_of(gid).unwrap() {
            assert!(
                partition.parts.contains_key(node),
                "{tag}: {gid}/{nf} assigned to partless node {node}"
            );
        }
        for link in &partition.links {
            assert!(
                serving.contains(&link.from_node) && serving.contains(&link.to_node),
                "{tag}: {gid} overlay link {} touches a dead node",
                link.vid
            );
            let live = link_reports
                .iter()
                .find(|l| l.vid == link.vid)
                .unwrap_or_else(|| panic!("{tag}: {gid} link {} has no state", link.vid));
            assert_eq!(&live.graph, gid, "{tag}: link {} owned elsewhere", link.vid);
            expected_links += 1;
        }
    }
    // ... and no overlay link state is orphaned.
    assert_eq!(
        link_reports.len(),
        expected_links,
        "{tag}: orphaned overlay link state: {link_reports:?}"
    );

    // Vid conservation: every id the pool ever minted (base..next) is
    // free, in use, or reserved by a staged standby plan — exactly
    // once. A leak leaves a hole, a double-free (or a standby that
    // kept a vid it returned) a duplicate.
    let (base, next, free, in_use, standby) = d.vid_accounting();
    let mut all: Vec<u16> = free
        .iter()
        .chain(in_use.iter())
        .chain(standby.iter())
        .copied()
        .collect();
    all.sort_unstable();
    let minted: Vec<u16> = (base..next).collect();
    assert_eq!(
        all, minted,
        "{tag}: vid ledger broken (free {free:?} ∪ in_use {in_use:?} ∪ standby {standby:?} ≠ minted)"
    );

    // Standby hygiene: plans exist only while some node is suspect
    // (promotion consumes them, heartbeat/recovery discards them), and
    // only for graphs that are still deployed.
    let staged = d.standby_graphs();
    if !model.any_suspect() {
        assert!(
            staged.is_empty(),
            "{tag}: standby plans leaked past the suspicion: {staged:?}"
        );
    }
    for gid in &staged {
        assert!(
            deployed.contains(gid),
            "{tag}: standby staged for undeployed graph {gid}"
        );
    }

    // Availability model sanity: predictions are probabilities, and
    // once repairs happened the modeled and measured downtime streams
    // are both live and within three orders of magnitude of each other
    // (a wide bracket, robust to debug-build timing noise, that still
    // catches unit errors and dead model paths).
    let avail = d.availability_report();
    for g in &avail.graphs {
        assert!(
            (0.0..=1.0).contains(&g.predicted_availability),
            "{tag}: predicted availability of {} out of range: {}",
            g.graph,
            g.predicted_availability
        );
    }
    if avail.repair_events >= 1 {
        assert!(
            avail.modeled_downtime_ns > 0,
            "{tag}: repairs ran but the model predicted zero downtime"
        );
        assert!(
            avail.measured_downtime_ns > 0,
            "{tag}: repairs ran but measured zero downtime"
        );
        let hi = avail.modeled_downtime_ns.max(avail.measured_downtime_ns);
        let lo = avail
            .modeled_downtime_ns
            .min(avail.measured_downtime_ns)
            .max(1);
        assert!(
            hi / lo <= 1_000,
            "{tag}: modeled {} vs measured {} downtime diverge past the ×1000 bracket",
            avail.modeled_downtime_ns,
            avail.measured_downtime_ns
        );
    }

    // Shared-NNF lease conservation: every instance has tenants (no
    // orphans), its host is serving and carries the node-level
    // binding, every lease belongs to a deployed graph, and each
    // lease's wire count equals the tenant's NFs actually assigned to
    // the host. Σ registry wires must balance the per-graph claim
    // ledger exactly.
    let instances = d.shared_instances();
    let mut registry_wires = 0usize;
    for inst in &instances {
        assert!(
            !inst.leases.is_empty(),
            "{tag}: orphan shared instance {}",
            inst.key
        );
        assert!(
            serving.contains(&inst.host),
            "{tag}: shared instance {} hosted on dead node {}",
            inst.key,
            inst.host
        );
        let node_bound: BTreeSet<String> = d
            .node(&inst.host)
            .unwrap()
            .shared_nnf_graphs(&inst.key.functional_type)
            .into_iter()
            .collect();
        for (gid, count) in &inst.leases {
            assert!(
                deployed.contains(gid),
                "{tag}: lease for undeployed graph {gid} on {}",
                inst.key
            );
            assert!(
                node_bound.contains(gid),
                "{tag}: {gid} leases {} on {} but is not bound node-level",
                inst.key,
                inst.host
            );
            let assignment = d.assignment_of(gid).unwrap();
            let wires = d
                .graph(gid)
                .unwrap()
                .nfs
                .iter()
                .filter(|nf| {
                    ShareKey::of_nf(nf) == inst.key && assignment.get(&nf.id) == Some(&inst.host)
                })
                .count();
            assert_eq!(
                wires, *count,
                "{tag}: lease of {gid} on {} counts {count} wires, graph has {wires}",
                inst.key
            );
            registry_wires += count;
        }
    }
    let mut graph_wires = 0usize;
    for gid in &deployed {
        let claims = d
            .graph_shared_leases(gid)
            .unwrap_or_else(|| panic!("{tag}: deployed graph {gid} has no lease doc"));
        for (key, claim) in claims {
            let inst = instances
                .iter()
                .find(|i| i.key == key)
                .unwrap_or_else(|| panic!("{tag}: {gid} claims unregistered {key}"));
            assert_eq!(
                inst.host, claim.host,
                "{tag}: {gid} claims {key} on the wrong host"
            );
            assert_eq!(
                inst.leases.get(gid.as_str()).copied(),
                Some(claim.nfs),
                "{tag}: registry lease of {gid} on {key} disagrees with the claim"
            );
            graph_wires += claim.nfs;
        }
    }
    assert_eq!(
        registry_wires, graph_wires,
        "{tag}: lease ledger unbalanced (registry vs per-graph claims)"
    );

    // Frame conservation: everything injected is accounted for —
    // egressed, absorbed by an NF, multiplied by fan-out, or dropped
    // with a named counter. This holds whether or not the traffic found
    // a deployed graph; a leak here means a frame vanished untracked.
    let ledger = d.conservation_report();
    assert!(
        ledger.balanced(),
        "{tag}: conservation broken: ingress {} + fanout {} != egress {} + absorbed {} + dropped {} ({:?})",
        ledger.ingress,
        ledger.fanout_extra,
        ledger.egress,
        ledger.absorbed,
        ledger.dropped(),
        ledger.drops
    );

    // Histogram self-consistency: observations land in exactly one
    // bucket, so per-series bucket sums must equal the event count.
    for h in d.obs().registry().histograms() {
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            h.count,
            "{tag}: histogram {} {:?} buckets disagree with its count",
            h.name,
            h.labels
        );
    }

    // Every live overlay link rides a valid path: endpoints match the
    // link, consecutive nodes are adjacent in the fabric topology, and
    // no failed node is on the walk.
    for l in &link_reports {
        let (vid, path) = (l.vid, &l.path);
        assert_eq!(path[0], l.from, "{tag}: link {vid} path head");
        assert_eq!(path.last().unwrap(), &l.to, "{tag}: link {vid} path tail");
        assert!(
            d.config.topology.validates_path(path),
            "{tag}: link {vid} path {path:?} is not a fabric walk"
        );
        for node in path {
            assert!(
                serving.contains(node),
                "{tag}: link {vid} path {path:?} rides dead node {node}"
            );
        }
    }

    // Static verification: reachability, loop-freedom, blackholes,
    // shadowed/dangling rules, and ledger consistency must hold on
    // every chaos-reachable state. Incremental on purpose — the dirty
    // tracking itself is under test here; `verify_full` would hide a
    // bad cache splice.
    let report = d.verify();
    // Incremental ≡ full: whatever the scoped pass lowered and spliced
    // must say exactly what a from-scratch run over the whole fleet
    // says — equal, not merely both empty.
    let full = un_verify::check::run(&d.verify_snapshot());
    let rendered = |r: &un_verify::VerifyReport| {
        let mut v: Vec<String> = r.violations.iter().map(|v| v.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(
        rendered(&report),
        rendered(&full),
        "{tag}: {} verification disagrees with a full run",
        report.mode
    );
    assert!(
        report.ok(),
        "{tag}: static verification violations: {:#?}",
        report.violations
    );
}

/// Deterministic smoke sequence proving the chaos plumbing exercises
/// real work: every graph deploys, a failure repairs across policies,
/// and the invariant checker sees non-trivial state.
#[test]
fn chaos_smoke_sequence_deploys_and_repairs() {
    let mut inc = fleet(RepairPolicy::Incremental);
    let mut fs = fleet(RepairPolicy::FromScratch);
    let mut model = HealthModel::new(&inc);
    for i in 0..GRAPHS {
        let g = graph(i, 1 + i % 3);
        inc.deploy(&g).unwrap();
        fs.deploy(&g).unwrap();
    }
    assert_eq!(inc.graph_ids().len(), GRAPHS);
    for i in 0..GRAPHS {
        chaos_inject(&mut inc, i, 0);
        chaos_inject(&mut fs, i, 0);
    }
    assert!(
        inc.conservation_report().ingress > 0,
        "smoke traffic must reach the ledger"
    );
    check_domain(&inc, &model, "smoke");
    check_domain(&fs, &model, "smoke");

    model.fail(0);
    let report = inc.fail_node("n1").unwrap();
    fs.fail_node("n1").unwrap();
    assert!(
        !report.replaced.is_empty() || !report.stranded.is_empty(),
        "n1 anchored work: {report:?}"
    );
    check_domain(&inc, &model, "smoke-inc");
    check_domain(&fs, &model, "smoke-fs");
    assert_eq!(inc.graph_ids(), fs.graph_ids());

    let now = SimTime::from_nanos(STEP_NS);
    inc.set_time(now);
    fs.set_time(now);
    inc.recover_node("n1").unwrap();
    fs.recover_node("n1").unwrap();
    model.recover(0, STEP_NS);
    inc.retry_pending();
    fs.retry_pending();
    assert!(inc.pending_graphs().is_empty());
    check_domain(&inc, &model, "smoke-final");
}

/// A line fleet `n1 – n2 – n3` with the ingress interface only on n1
/// and the egress interface only on n3: every deployed graph is forced
/// to split across the ends, so its overlay links must transit n2 —
/// and n2's death makes the ends unroutable (graphs park) until it
/// heals. The topology-aware invariants in `check_domain` (paths are
/// fabric walks avoiding failed nodes, vid conservation) get exercised
/// with real multi-hop state here.
fn line_fleet() -> Domain {
    let mut d = Domain::new(DomainConfig {
        topology: Topology::line(&["n1", "n2", "n3"], EdgeAttrs::default()),
        sharing: chaos_sharing(),
        observability: true,
        ..DomainConfig::default()
    });
    for (name, ports) in [
        ("n1", &["eth0"][..]),
        ("n2", &[][..]),
        ("n3", &["eth1"][..]),
    ] {
        let mut n = UniversalNode::new(name, mb(2048));
        for p in ports {
            n.add_physical_port(p);
        }
        d.add_node(n);
    }
    d
}

/// Deterministic multi-hop smoke: deploy over the line, verify transit
/// service end to end, kill the middle (graphs park, ledger balanced),
/// heal it (service resumes) — with the full invariant battery after
/// every step.
#[test]
fn topology_chaos_smoke_transits_parks_and_heals() {
    let mut d = line_fleet();
    let mut model = HealthModel::new(&d);
    for i in 0..GRAPHS {
        d.deploy(&graph(i, 1 + i % 3)).unwrap();
    }
    // Real traffic over the transit: graph 0's frames must cross the
    // overlay (n1 → n2 → n3) and egress — a balanced ledger with zero
    // egress would only prove everything got dropped.
    chaos_inject(&mut d, 0, 0);
    let ledger = d.conservation_report();
    assert!(ledger.ingress > 0, "line smoke traffic must be counted");
    assert!(
        ledger.egress > 0,
        "graph 0's frames must transit the line and egress: {ledger:?}"
    );
    check_domain(&d, &model, "line-smoke");
    // Every graph crosses the fabric, pinned over the middle.
    let links = d.link_reports();
    for gid in d.graph_ids() {
        let partition = d.partition_of(&gid).unwrap();
        assert!(!partition.links.is_empty(), "{gid} must split");
        for link in &partition.links {
            let live = links.iter().find(|l| l.vid == link.vid).unwrap();
            assert!(live.path.len() >= 2, "{:?}", live.path);
        }
    }

    model.fail(1);
    let report = d.fail_node("n2").unwrap();
    check_domain(&d, &model, "line-smoke-failed");
    // Graphs that spanned the cut park; none may claim a repair that
    // routes through the carcass.
    assert!(
        d.graph_ids()
            .iter()
            .all(|g| d.partition_of(g).unwrap().links.is_empty()),
        "no overlay link can survive the partition of the line"
    );
    let _ = report;

    let now = SimTime::from_nanos(STEP_NS);
    d.set_time(now);
    d.recover_node("n2").unwrap();
    model.recover(1, STEP_NS);
    d.retry_pending();
    assert!(d.pending_graphs().is_empty(), "healed line must re-place");
    check_domain(&d, &model, "line-smoke-healed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    #[test]
    fn topology_chaos_operations_hold_invariants(
        ops in prop::collection::vec(op_strategy(), 1..16),
    ) {
        let mut d = line_fleet();
        let mut model = HealthModel::new(&d);
        let mut clock_ns: u64 = 0;

        for op in &ops {
            clock_ns += STEP_NS;
            let now = SimTime::from_nanos(clock_ns);
            d.set_time(now);
            match op {
                Op::Deploy(i) => {
                    // May fail with NoRoute / NoSuchInterface while
                    // nodes are down — the invariants below are the
                    // contract, not the outcome.
                    let _ = d.deploy(&graph(*i, 1 + i % 3));
                }
                Op::Update(i, v) => {
                    let _ = d.update(&graph(*i, 1 + (i + v) % 3));
                }
                Op::Undeploy(i) => {
                    let _ = d.undeploy(&format!("g{i}"));
                }
                Op::FailNode(n) => {
                    model.fail(*n);
                    d.fail_node(NODES[*n]).unwrap();
                }
                Op::RecoverNode(n) => {
                    model.recover(*n, clock_ns);
                    d.recover_node(NODES[*n]).unwrap();
                }
                Op::Heartbeat(n) => {
                    model.heartbeat(*n, clock_ns);
                    d.heartbeat(NODES[*n], now).unwrap();
                }
                Op::Tick(scale) => {
                    clock_ns += 500_000_000 + *scale as u64 * 1_100_000_000;
                    let later = SimTime::from_nanos(clock_ns);
                    model.tick(clock_ns);
                    d.tick(later);
                }
                Op::RetryPending => {
                    let _ = d.retry_pending();
                }
                Op::ToggleSharing => {
                    let on = !d.sharing_enabled();
                    d.set_sharing_enabled(on);
                }
                Op::Inject(i, n) => {
                    chaos_inject(&mut d, *i, *n);
                }
                Op::Suspect(n) => {
                    model.suspect(*n);
                    d.suspect_node(NODES[*n]).unwrap();
                }
                Op::DeployBroken(i, collide) => {
                    chaos_deploy_broken(&mut d, *i, *collide, "line");
                }
            }
            check_domain(&d, &model, "line");
        }

        // Heal the whole line: every parked graph must re-place and
        // every overlay link must ride a live fabric walk again.
        clock_ns += STEP_NS;
        let now = SimTime::from_nanos(clock_ns);
        d.set_time(now);
        for (i, name) in NODES.iter().enumerate() {
            if d.health(name) == Some(NodeHealth::Failed) {
                d.recover_node(name).unwrap();
            }
            model.recover(i, clock_ns);
            d.heartbeat(name, now).unwrap();
            model.heartbeat(i, clock_ns);
        }
        d.retry_pending();
        prop_assert!(
            d.pending_graphs().is_empty(),
            "healed line must re-place parked graphs"
        );
        check_domain(&d, &model, "line-final");
    }

    #[test]
    fn chaos_operations_hold_invariants(
        ops in prop::collection::vec(op_strategy(), 1..16),
    ) {
        let mut inc = fleet(RepairPolicy::Incremental);
        let mut fs = fleet(RepairPolicy::FromScratch);
        let mut model = HealthModel::new(&inc);
        let mut clock_ns: u64 = 0;

        for op in &ops {
            clock_ns += STEP_NS;
            let now = SimTime::from_nanos(clock_ns);
            inc.set_time(now);
            fs.set_time(now);
            match op {
                Op::Deploy(i) => {
                    let g = graph(*i, 1 + i % 3);
                    let a = inc.deploy(&g);
                    let b = fs.deploy(&g);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "deploy g{} diverged", i);
                }
                Op::Update(i, v) => {
                    let g = graph(*i, 1 + (i + v) % 3);
                    let a = inc.update(&g);
                    let b = fs.update(&g);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "update g{} diverged", i);
                }
                Op::Undeploy(i) => {
                    let gid = format!("g{i}");
                    let a = inc.undeploy(&gid);
                    let b = fs.undeploy(&gid);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "undeploy g{} diverged", i);
                }
                Op::FailNode(n) => {
                    // The *affected* graph sets may legitimately differ
                    // (placements diverge between policies), so the
                    // per-failure report is not compared — the post-op
                    // deployed/pending equality below is the invariant.
                    model.fail(*n);
                    let a = inc.fail_node(NODES[*n]).unwrap();
                    let b = fs.fail_node(NODES[*n]).unwrap();
                    for outcome in &a.repairs {
                        prop_assert!(!outcome.graph.is_empty());
                    }
                    let _ = b;
                }
                Op::RecoverNode(n) => {
                    model.recover(*n, clock_ns);
                    let a = inc.recover_node(NODES[*n]).unwrap();
                    let b = fs.recover_node(NODES[*n]).unwrap();
                    prop_assert_eq!(a, b, "recover retried different graphs");
                }
                Op::Heartbeat(n) => {
                    model.heartbeat(*n, clock_ns);
                    inc.heartbeat(NODES[*n], now).unwrap();
                    fs.heartbeat(NODES[*n], now).unwrap();
                }
                Op::Tick(scale) => {
                    // 0.5 / 1.6 / 2.7 / 3.8 virtual seconds: straddles
                    // the timeout (3 s) and the grace window (+1 s).
                    clock_ns += 500_000_000 + *scale as u64 * 1_100_000_000;
                    let later = SimTime::from_nanos(clock_ns);
                    model.tick(clock_ns);
                    let a = inc.tick(later);
                    let b = fs.tick(later);
                    prop_assert_eq!(
                        a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
                        b.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
                        "tick failed different nodes"
                    );
                }
                Op::RetryPending => {
                    let a = inc.retry_pending();
                    let b = fs.retry_pending();
                    prop_assert_eq!(a, b, "retry_pending diverged");
                }
                Op::ToggleSharing => {
                    let on = !inc.sharing_enabled();
                    inc.set_sharing_enabled(on);
                    fs.set_sharing_enabled(on);
                    prop_assert_eq!(inc.sharing_enabled(), fs.sharing_enabled());
                }
                Op::Inject(i, n) => {
                    // Same burst into both twins; the ledgers balance
                    // independently (placements may differ, so the io
                    // reports are not compared).
                    chaos_inject(&mut inc, *i, *n);
                    chaos_inject(&mut fs, *i, *n);
                }
                Op::Suspect(n) => {
                    // Only the incremental twin stages standby plans;
                    // the health transition itself is policy-agnostic.
                    model.suspect(*n);
                    inc.suspect_node(NODES[*n]).unwrap();
                    fs.suspect_node(NODES[*n]).unwrap();
                }
                Op::DeployBroken(i, collide) => {
                    chaos_deploy_broken(&mut inc, *i, *collide, "incremental");
                    chaos_deploy_broken(&mut fs, *i, *collide, "from-scratch");
                }
            }

            check_domain(&inc, &model, "incremental");
            check_domain(&fs, &model, "from-scratch");
            // Observable placement validity is policy-independent.
            prop_assert_eq!(inc.graph_ids(), fs.graph_ids(), "deployed sets diverged");
            prop_assert_eq!(
                inc.pending_graphs(),
                fs.pending_graphs(),
                "pending sets diverged"
            );
        }

        // Closing act: heal the fleet. Every parked graph must
        // eventually re-place once capacity returns.
        clock_ns += STEP_NS;
        let now = SimTime::from_nanos(clock_ns);
        inc.set_time(now);
        fs.set_time(now);
        for (i, name) in NODES.iter().enumerate() {
            if inc.health(name) == Some(NodeHealth::Failed) {
                inc.recover_node(name).unwrap();
            }
            if fs.health(name) == Some(NodeHealth::Failed) {
                fs.recover_node(name).unwrap();
            }
            model.recover(i, clock_ns);
            inc.heartbeat(name, now).unwrap();
            fs.heartbeat(name, now).unwrap();
            model.heartbeat(i, clock_ns);
        }
        inc.retry_pending();
        fs.retry_pending();
        prop_assert!(
            inc.pending_graphs().is_empty(),
            "incremental: parked graphs must re-place on a healed fleet"
        );
        prop_assert!(
            fs.pending_graphs().is_empty(),
            "from-scratch: parked graphs must re-place on a healed fleet"
        );
        check_domain(&inc, &model, "incremental-final");
        check_domain(&fs, &model, "from-scratch-final");
        prop_assert_eq!(inc.graph_ids(), fs.graph_ids());
    }
}
