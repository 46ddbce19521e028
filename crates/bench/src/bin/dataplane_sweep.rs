//! Data-plane sweep: microflow fast path, megaflow wildcard path, and
//! sharded shuttle scaling.
//!
//! Three wall-clock measurements (real time, not virtual time — this
//! harness benchmarks the *simulator's* data plane itself):
//!
//! 1. **Fast path** — one flow table loaded with `RULES` exact-match
//!    entries, traffic cycling over a small set of flows. Measured
//!    twice at lookup level (key extraction + one table lookup per
//!    frame): against the linear baseline — a first-match scan over
//!    `FlowTable::entries()`, the reference the switch's property tests
//!    use — and through `FlowTable::lookup` (microflow cache + mask
//!    tables). The ratio is the fast-path speedup.
//! 2. **Wildcard path** — the same measurement on a table of CIDR and
//!    `AnyTagged` rules (wildcard-heavy, a handful of distinct masks)
//!    with traffic that never repeats a microflow key. The scan pays
//!    O(#rules) per frame; the megaflow layer pays O(#masks) hash
//!    probes. The ratio is the megaflow speedup.
//! 3. **Shard scaling** — a fleet of nodes, each hosting its own
//!    bridge-chain graph, driven through `Domain::inject_batch` in
//!    several bursts with 1/2/4/8 workers, so the domain's persistent
//!    shard runtime is reused across calls the way a line-rate ingress
//!    path would. Per-node state is independent, so this measures how
//!    well the shuttle's one ready queue spreads the fleet over them.
//!
//! Writes machine-readable results to `BENCH_dataplane.json` and
//! asserts the invariants CI smoke-checks: the microflow cache actually
//! hits, megaflow lookups actually hit and beat the linear scan, and
//! every sharded run delivers exactly the sequential output.
//!
//! ```sh
//! UN_SWEEP_FRAMES=2000 cargo run --release -p un-bench --bin dataplane_sweep
//! ```

use std::net::Ipv4Addr;
use std::time::Instant;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, PlacementStrategy};
use un_nffg::{Json, NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::Ipv4Cidr;
use un_packet::{Packet, PacketBuilder};
use un_sim::mem::mb;
use un_switch::{FlowAction, FlowEntry, FlowMatch, FlowTable, PacketKey, PortNo, VlanSpec};

/// Exact-match rules installed for the fast-path measurement.
const RULES: u16 = 1024;
/// Distinct flows the traffic cycles over (all cache-resident).
const FLOWS: u16 = 16;
/// Fleet size for the shard-scaling measurement.
const NODES: usize = 8;
/// Chain length per node graph.
const CHAIN: usize = 3;

fn frames_budget() -> u64 {
    std::env::var("UN_SWEEP_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000)
}

// ----------------------------------------------------------------------
// Phase 1: fast path vs linear scan
// ----------------------------------------------------------------------

/// How one measurement answers a lookup.
#[derive(Clone, Copy)]
enum Classifier {
    /// The baseline: first match over `FlowTable::entries()`, which
    /// yields entries in match order.
    LinearScan,
    /// `FlowTable::lookup`: microflow cache, then the mask tables.
    Indexed,
}

/// One lookup of `pkt` arriving on port 1; true if a rule matched.
fn classify(table: &mut FlowTable, how: Classifier, pkt: &Packet) -> bool {
    let key = PacketKey::extract(PortNo(1), pkt);
    match how {
        Classifier::LinearScan => table.entries().any(|e| e.matches.matches(&key)),
        Classifier::Indexed => table.lookup(&key, pkt.len()).is_some(),
    }
}

fn loaded_table() -> FlowTable {
    let mut table = FlowTable::new();
    for i in 0..RULES {
        let mut m = FlowMatch::in_port(PortNo(1));
        m.l4_dst = Some(5_000 + i);
        table.insert(FlowEntry::new(10, m, vec![FlowAction::Output(PortNo(2))]));
    }
    table
}

fn flow_frames() -> Vec<Packet> {
    (0..FLOWS)
        .map(|i| {
            // Spread the flows across the rule table so the linear
            // baseline pays an average (not best-case) scan depth.
            let dport = 5_000 + i * (RULES / FLOWS) + RULES / (2 * FLOWS);
            PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .udp(6_000, dport)
                .payload(&[0x5A; 64])
                .build()
        })
        .collect()
}

/// Classify `frames` packets against the table; returns (pps, hit rate).
fn measure_fast_path(how: Classifier, frames: u64) -> (f64, f64) {
    let mut table = loaded_table();
    let pkts = flow_frames();
    let mut matched = 0u64;
    let start = Instant::now();
    for i in 0..frames {
        matched += u64::from(classify(
            &mut table,
            how,
            &pkts[(i % u64::from(FLOWS)) as usize],
        ));
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(matched, frames, "every frame must match a rule");
    (frames as f64 / secs, table.stats().hit_rate())
}

// ----------------------------------------------------------------------
// Phase 2: megaflow wildcard path vs linear scan
// ----------------------------------------------------------------------

/// Wildcard rules in the wildcard-path table (three distinct masks).
const WC_SRC_RULES: u16 = 2048;
const WC_DST_RULES: u16 = 256;
const WC_VLAN_RULES: u16 = 8;

/// A wildcard-heavy table: `WC_SRC_RULES` high-priority /16 source
/// CIDRs (ACL-style, none match the test traffic), `WC_DST_RULES` /24
/// destination CIDRs (the forwarding rules that do match), and a few
/// VLAN-`AnyTagged` guards. 2312 entries, but only *three* distinct
/// masks — the shape a megaflow classifier exploits.
fn wildcard_table() -> FlowTable {
    let mut table = FlowTable::new();
    for r in 0..WC_SRC_RULES {
        let mut m = FlowMatch::in_port(PortNo(1));
        // Distinct /16 prefixes in 64.0.0.0/5 — never match src 10.x.
        m.ip_src = Some(Ipv4Cidr::new(
            Ipv4Addr::new(64 + (r / 256) as u8, (r % 256) as u8, 0, 0),
            16,
        ));
        table.insert(FlowEntry::new(30, m, vec![FlowAction::Controller]));
    }
    for j in 0..WC_DST_RULES {
        let mut m = FlowMatch::in_port(PortNo(1));
        m.ip_dst = Some(Ipv4Cidr::new(Ipv4Addr::new(10, 0, j as u8, 0), 24));
        table.insert(FlowEntry::new(20, m, vec![FlowAction::Output(PortNo(2))]));
    }
    for p in 0..WC_VLAN_RULES {
        let mut m = FlowMatch::in_port(PortNo(1));
        m.vlan = Some(VlanSpec::AnyTagged);
        table.insert(FlowEntry::new(p + 1, m, vec![FlowAction::Controller]));
    }
    table
}

/// Classify `frames` packets with *non-repeating* flow keys against
/// the wildcard table; returns (pps, megaflow hits). Every key is new,
/// so the microflow cache cannot help — the scan pays the full rule
/// list, the indexed pipeline pays O(#masks) megaflow probes.
fn measure_wildcard(how: Classifier, frames: u64) -> (f64, u64) {
    let mut table = wildcard_table();
    let mut matched = 0u64;
    let start = Instant::now();
    for i in 0..frames {
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(
                Ipv4Addr::new(10, 9, 9, 9),
                Ipv4Addr::new(10, 0, (i % 256) as u8, ((i / 256) % 256) as u8),
            )
            .udp(6_000, (i % 50_000) as u16)
            .payload(&[0x5A; 64])
            .build();
        matched += u64::from(classify(&mut table, how, &pkt));
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(matched, frames, "every frame must match a /24 rule");
    (frames as f64 / secs, table.stats().megaflow_hits)
}

// ----------------------------------------------------------------------
// Phase 3: shard scaling across a fleet
// ----------------------------------------------------------------------

fn node_chain(node: &str) -> (NfFg, DeployHints) {
    let ids: Vec<String> = (0..CHAIN).map(|i| format!("{node}-br{i}")).collect();
    let mut b = NfFgBuilder::new(&format!("g-{node}"), "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    let graph = b.chain("lan", &refs, "wan").build();
    let hints = DeployHints {
        endpoint_node: [
            ("lan".to_string(), node.to_string()),
            ("wan".to_string(), node.to_string()),
        ]
        .into(),
        nf_node: ids
            .iter()
            .map(|id| (id.clone(), node.to_string()))
            .collect(),
        strategy: Some(PlacementStrategy::Spread),
    };
    (graph, hints)
}

fn fleet() -> Domain {
    let mut d = Domain::with_defaults();
    for i in 0..NODES {
        let mut n = UniversalNode::new(&format!("n{i}"), mb(2048));
        n.add_physical_port("eth0");
        n.add_physical_port("eth1");
        d.add_node(n);
    }
    for i in 0..NODES {
        let (graph, hints) = node_chain(&format!("n{i}"));
        d.deploy_with(&graph, &hints)
            .expect("per-node chain deploys");
    }
    d
}

fn ingress_burst(frames: u64) -> Vec<(String, String, Packet)> {
    (0..frames)
        .map(|i| {
            let node = format!("n{}", i as usize % NODES);
            let pkt = PacketBuilder::new()
                .ethernet(MacAddr::local(1), MacAddr::local(2))
                .ipv4(
                    Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                    Ipv4Addr::new(192, 0, 2, 9),
                )
                .udp(5000, 5001)
                .payload(&[0xAB; 256])
                .build();
            (node, "eth0".to_string(), pkt)
        })
        .collect()
}

/// Order-independent digest of one egress: summing per-frame hashes is
/// commutative, so equal digests mean equal `(node, port, bytes)`
/// multisets regardless of worker interleaving.
fn egress_digest(emitted: &[(un_core::Name, un_core::Name, Packet)]) -> (u64, u64) {
    let mut digest = 0u64;
    for (node, port, pkt) in emitted {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in node
            .as_str()
            .as_bytes()
            .iter()
            .chain([0u8].iter())
            .chain(port.as_str().as_bytes())
            .chain([0u8].iter())
            .chain(pkt.data())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        digest = digest.wrapping_add(h);
    }
    (emitted.len() as u64, digest)
}

/// Bursts the fleet workload is split into, so multi-worker runs
/// exercise the persistent shard runtime across calls (workers park
/// between bursts instead of being spawned per burst).
const BURSTS: usize = 4;

/// Run the fleet workload with `workers` in `BURSTS` inject_batch
/// calls; returns (pps, egress digest).
fn measure_fleet(workers: usize, frames: u64) -> (f64, (u64, u64)) {
    let mut d = fleet();
    let ingress = ingress_burst(frames);
    let chunk = ingress.len().div_ceil(BURSTS).max(1);
    let mut emitted = Vec::new();
    let start = Instant::now();
    let mut rest = ingress;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        let io = d.inject_batch(rest, workers);
        emitted.extend(io.emitted);
        rest = tail;
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (frames as f64 / secs, egress_digest(&emitted))
}

/// The pre-batch baseline: one `Domain::inject` call per frame.
fn measure_fleet_per_frame(frames: u64) -> (f64, (u64, u64)) {
    let mut d = fleet();
    let ingress = ingress_burst(frames);
    let mut emitted = Vec::new();
    let start = Instant::now();
    for (node, port, pkt) in ingress {
        let io = d.inject(&node, &port, pkt);
        emitted.extend(io.emitted);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (frames as f64 / secs, egress_digest(&emitted))
}

fn main() {
    let frames = frames_budget();
    println!("Data-plane sweep ({frames} frames per measurement)\n");

    // ---- Phase 1 ----
    let (linear_pps, _) = measure_fast_path(Classifier::LinearScan, frames);
    let (indexed_pps, hit_rate) = measure_fast_path(Classifier::Indexed, frames);
    let speedup = indexed_pps / linear_pps.max(1.0);
    println!("fast path   ({RULES} rules, {FLOWS} flows):");
    println!("  linear scan : {linear_pps:>12.0} pkts/s");
    println!(
        "  indexed     : {indexed_pps:>12.0} pkts/s   ({speedup:.1}x, cache hit rate {:.1}%)",
        hit_rate * 100.0
    );
    assert!(
        hit_rate > 0.0,
        "microflow cache must take hits on repeating flows"
    );

    // ---- Phase 2 ----
    let (wc_linear_pps, _) = measure_wildcard(Classifier::LinearScan, frames);
    let (wc_indexed_pps, megaflow_hits) = measure_wildcard(Classifier::Indexed, frames);
    let megaflow_speedup = wc_indexed_pps / wc_linear_pps.max(1.0);
    let wc_rules = u64::from(WC_SRC_RULES + WC_DST_RULES + WC_VLAN_RULES);
    println!("\nwildcard path ({wc_rules} CIDR/AnyTagged rules, 3 masks, no key reuse):");
    println!("  linear scan : {wc_linear_pps:>12.0} pkts/s");
    println!(
        "  megaflow    : {wc_indexed_pps:>12.0} pkts/s   ({megaflow_speedup:.1}x, {megaflow_hits} megaflow hits)"
    );
    assert!(
        megaflow_hits > 0,
        "wildcard-heavy traffic must resolve through the megaflow layer"
    );
    assert!(
        wc_indexed_pps > wc_linear_pps,
        "megaflow (O(#masks) probes) must strictly beat the linear rule scan"
    );

    // ---- Phase 3 ----
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nshard scaling ({NODES} nodes × {CHAIN}-bridge chains, {cpus} cpu(s)):");
    let (per_frame_pps, per_frame_digest) = measure_fleet_per_frame(frames);
    println!("  per-frame   : {per_frame_pps:>12.0} pkts/s   (pre-batch baseline)");
    let mut per_workers: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (pps, digest) = measure_fleet(workers, frames);
        // Full multiset equality via the commutative digest — count,
        // routing, and payload bytes all have to match the baseline.
        assert_eq!(
            digest, per_frame_digest,
            "sharded run ({workers} workers) diverged from the per-frame egress"
        );
        println!("  {workers} worker(s): {pps:>12.0} pkts/s");
        per_workers.push((workers, pps));
    }
    let pps_of = |w: usize| {
        per_workers
            .iter()
            .find(|(workers, _)| *workers == w)
            .map(|(_, pps)| *pps)
            .expect("measured")
    };
    let batching_speedup = pps_of(1) / per_frame_pps.max(1.0);
    let scaling = pps_of(4) / pps_of(1).max(1.0);
    println!("  batching speedup (per-frame → 1-worker batch): {batching_speedup:.2}x");
    println!("  1→4 worker scaling: {scaling:.2}x (needs ≥4 cpus to show)");
    let delivered = per_frame_digest.0;
    assert_eq!(delivered, frames, "chains must be lossless");

    // ---- Machine-readable trajectory ----
    let json = Json::obj()
        .set("frames", frames)
        .set(
            "note",
            "fast_path and megaflow are measured at lookup level (key \
             extraction + one table lookup per frame); linear_pps is a \
             first-match scan over FlowTable::entries(), the test \
             reference, not a mode of the production classifier",
        )
        .set(
            "fast_path",
            Json::obj()
                .set("rules", u64::from(RULES))
                .set("flows", u64::from(FLOWS))
                .set("linear_pps", linear_pps)
                .set("indexed_pps", indexed_pps)
                .set("speedup", speedup)
                .set("cache_hit_rate", hit_rate),
        )
        .set(
            "megaflow",
            Json::obj()
                .set("rules", wc_rules)
                .set("masks", 3u64)
                .set("linear_pps", wc_linear_pps)
                .set("indexed_pps", wc_indexed_pps)
                .set("speedup", megaflow_speedup)
                .set("megaflow_hits", megaflow_hits),
        )
        .set(
            "shard_scaling",
            Json::obj()
                .set("nodes", NODES as u64)
                .set("chain_len", CHAIN as u64)
                .set("cpus", cpus as u64)
                .set("bursts", BURSTS as u64)
                .set("per_frame_pps", per_frame_pps)
                .set("batching_speedup", batching_speedup)
                .set(
                    "per_workers",
                    Json::Arr(
                        per_workers
                            .iter()
                            .map(|(w, pps)| Json::obj().set("workers", *w as u64).set("pps", *pps))
                            .collect(),
                    ),
                )
                .set("scaling_1_to_4", scaling)
                .set("delivered", delivered)
                .set(
                    "note",
                    if cpus < 4 {
                        format!(
                            "host exposes {cpus} cpu(s): worker scaling is \
                             correctness coverage here, not a speedup claim"
                        )
                    } else {
                        format!("host exposes {cpus} cpus")
                    },
                ),
        );
    std::fs::write("BENCH_dataplane.json", json.render_pretty())
        .expect("write BENCH_dataplane.json");
    println!("\nwrote BENCH_dataplane.json");
}
