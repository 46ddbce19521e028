//! Layer replays: the unit cost of each layer, measured from outside.
//!
//! Nothing inside the program is instrumented. Each layer is driven
//! through its public entry point on a twin fixture — a stand-alone
//! mirror of an installed LSI, a lone `UniversalNode` with the same
//! graph, one NF instance, a fresh SA pair — with the same seeded
//! frames the workloads use. Costs that have no entry point of their
//! own (ESP on the overlay, a transit hop, the shuttle) are differences
//! between two fixtures that differ in that one thing.
//!
//! Every traced run takes all of them, whatever its workload: they are
//! properties of the code, not of the workload. All are at reference
//! host speed (`host::Calibration`), like the end-to-end metrics. A workload's visit
//! counts times these unit costs is the ledger (`report::per_layer`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use un_bench::build_ipsec_node;
use un_compute::NodeEnv;
use un_core::{PortId, UniversalNode};
use un_domain::{Domain, DomainConfig};
use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_nffg::NfFgBuilder;
use un_packet::Packet;
use un_sim::CostModel;
use un_switch::{LogicalSwitch, PacketKey, PortNo};

use crate::host::{self, Calibration};
use crate::stats;
use crate::workloads::{
    acl_node, acl_pool, bridge_chain, chain_fleet, chain_pool, cpe_pool, domain_switch_stats, node,
    split_fleet, split_pool, Placement, BURST, CHAIN, FLOWS_PER_NODE, NODES,
};

/// Median ns per op over batches, run until `budget` is spent (three
/// batches at least), at reference host speed: scaled by the host
/// speed sampled just before and just after. `prepare` builds a batch's
/// input untimed; `timed` consumes it and returns the ops it did.
fn ns_per_op<I>(
    budget: Duration,
    mut prepare: impl FnMut() -> I,
    mut timed: impl FnMut(I) -> usize,
) -> f64 {
    let mut calibration = Calibration::new();
    let speed_before = calibration.sample();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let input = prepare();
        let t = Instant::now();
        let ops = timed(input);
        samples.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    stats::median(&mut samples) * (speed_before + calibration.sample()) / 2.0
}

// ---------------------------------------------------------------------
// un-switch
// ---------------------------------------------------------------------

/// A stand-alone copy of an installed LSI: same ports, same entries in
/// the same order, empty caches.
fn mirror(lsi: &LogicalSwitch) -> LogicalSwitch {
    let mut m = LogicalSwitch::new(&lsi.name, lsi.dpid, lsi.backend());
    for (no, info) in lsi.ports() {
        m.add_port(no, &info.name).expect("ports are unique");
    }
    for (idx, table) in lsi.tables() {
        for e in table.entries() {
            m.install(idx, e.clone()).expect("table exists");
        }
    }
    m
}

/// LSI-0 (`graph = None`) or a graph's LSI of the only node named `node`.
fn lsi_of<'a>(d: &'a Domain, node: &str, graph: Option<&str>) -> &'a LogicalSwitch {
    d.node(node)
        .expect("node exists")
        .lsis()
        .find(|(id, _)| *id == graph)
        .expect("LSI exists")
        .1
}

fn port_named(lsi: &LogicalSwitch, name: &str) -> PortNo {
    lsi.ports()
        .find(|(_, info)| info.name == name)
        .expect("port exists")
        .0
}

/// ns per `LogicalSwitch::process` over `frames`, `batch` at a time,
/// cycling. Every frame must come out exactly once.
fn process_ns(
    budget: Duration,
    sw: &mut LogicalSwitch,
    port: PortNo,
    frames: &[Packet],
    batch: usize,
) -> f64 {
    let costs = CostModel::default();
    let mut chunks = frames.chunks(batch).cycle();
    ns_per_op(
        budget,
        || chunks.next().expect("frames is not empty").to_vec(),
        |burst| {
            let n = burst.len();
            let out: usize = burst
                .into_iter()
                .map(|f| sw.process(port, f, &costs).outputs.len())
                .sum();
            assert_eq!(out, n, "mirror must forward every frame");
            n
        },
    )
}

fn switch_layer(seed: u64, budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    let frames: Vec<Packet> = chain_pool(seed, 1, FLOWS_PER_NODE)
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    out.insert(
        "switch.key_extract_ns",
        ns_per_op(
            budget,
            || (),
            |()| {
                for f in &frames {
                    black_box(PacketKey::extract(PortNo(1), f));
                }
                frames.len()
            },
        ),
    );

    // Hit path: LSI-0 of a local_chain node, 512 cache-resident keys.
    let chain = chain_fleet(DomainConfig::default(), 1, CHAIN);
    let mut lsi0 = mirror(lsi_of(&chain, "n0", None));
    let eth0 = port_named(&lsi0, "eth0");
    process_ns(Duration::ZERO, &mut lsi0, eth0, &frames, frames.len());
    out.insert(
        "switch.process_hit_ns",
        process_ns(budget, &mut lsi0, eth0, &frames, frames.len()),
    );

    // Miss paths: the ACL node, keys that never repeat within 65536.
    let acl = acl_node();
    let acl_frames = acl_pool(seed, 65_536);
    let mut acl_lsi0 = mirror(lsi_of(&acl, "n0", None));
    let acl_eth0 = port_named(&acl_lsi0, "eth0");
    out.insert(
        "switch.process_exact_ns",
        process_ns(budget, &mut acl_lsi0, acl_eth0, &acl_frames, 4096),
    );
    let acl_graph = lsi_of(&acl, "n0", Some("g-acl"));
    let lan = acl_graph
        .tables()
        .flat_map(|(_, t)| t.entries())
        .find(|e| e.matches.ip_dst.is_some())
        .and_then(|e| e.matches.in_port)
        .expect("ACL rules match on the lan port");
    out.insert(
        "switch.process_miss_ns",
        process_ns(budget, &mut mirror(acl_graph), lan, &acl_frames, 4096),
    );

    // Install: every rule of the ACL LSI into an empty table, then one
    // lookup, which is when the classifier index is rebuilt.
    let entries: Vec<_> = acl_graph
        .tables()
        .flat_map(|(_, t)| t.entries().cloned())
        .collect();
    let costs = CostModel::default();
    let install_ns = ns_per_op(
        budget,
        || {
            let mut empty = LogicalSwitch::new("LSI-install", 1, acl_graph.backend());
            for (no, info) in acl_graph.ports() {
                empty.add_port(no, &info.name).expect("ports are unique");
            }
            (empty, entries.clone())
        },
        |(mut sw, entries)| {
            let n = entries.len();
            for e in entries {
                sw.install(0, e).expect("table 0 exists");
            }
            black_box(sw.process(lan, acl_frames[0].clone(), &costs));
            n
        },
    );
    out.insert("switch.install_us", install_ns / 1e3);
}

// ---------------------------------------------------------------------
// un-compute / un-nnf: the NF boundary
// ---------------------------------------------------------------------

/// ns per frame of `ComputeManager::deliver_batch` to `graph`/`nf` on
/// `node`, a burst of `frames` into port 0 per call.
fn deliver_ns(
    budget: Duration,
    node: &mut UniversalNode,
    graph: &str,
    nf: &str,
    frames: &[Packet],
) -> f64 {
    let (id, _) = node.instance_of(graph, nf).expect("NF is placed");
    ns_per_op(
        budget,
        || frames.iter().map(|f| (0u32, f.clone())).collect::<Vec<_>>(),
        |burst| {
            let n = burst.len();
            let mut env = NodeEnv {
                host: &mut node.host,
                ledger: &mut node.ledger,
                costs: &node.costs,
            };
            let out = node.compute.deliver_batch(&mut env, id, burst);
            assert!(out.iter().all(|o| o.outputs.len() == 1), "NF must forward");
            n
        },
    )
}

fn compute_layer(seed: u64, budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    let frames: Vec<Packet> = chain_pool(seed, 1, BURST)
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    for (metric, flavor) in [
        ("compute.deliver_native_ns", "native"),
        ("compute.deliver_docker_ns", "docker"),
        ("compute.deliver_vm_ns", "vm"),
    ] {
        let mut n = node("n0", 4096, &["eth0", "eth1"]);
        let graph = NfFgBuilder::new("g", "one-bridge")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("br", "bridge", 2)
            .with_flavor(flavor)
            .chain("lan", &["br"], "wan")
            .build();
        n.deploy(&graph).expect("bridge deploys in every flavor");
        out.insert(metric, deliver_ns(budget, &mut n, "g", "br", &frames));
    }
    let (mut cpe, _) = build_ipsec_node("native");
    let frames = cpe_pool(&cpe, seed, BURST);
    out.insert(
        "nnf.ipsec_deliver_ns",
        deliver_ns(budget, &mut cpe, "g-ipsec", "ipsec", &frames),
    );
}

// ---------------------------------------------------------------------
// un-ipsec: ESP on fresh SAs
// ---------------------------------------------------------------------

fn ipsec_layer(budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    const BATCH: usize = 512;
    let (a, b) = (Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2));
    for (seal, open, len) in [
        ("ipsec.seal_ns_128", "ipsec.open_ns_128", 128),
        ("ipsec.seal_ns_1400", "ipsec.open_ns_1400", 1400),
    ] {
        let inner = vec![0x5au8; len];
        let mut sa_out = SecurityAssociation::outbound(7, a, b, [9; 32], [1; 4]);
        let mut sa_in = SecurityAssociation::inbound(7, a, b, [9; 32], [1; 4]);
        out.insert(
            seal,
            ns_per_op(
                budget,
                || (),
                |()| {
                    for _ in 0..BATCH {
                        black_box(esp::encapsulate(&mut sa_out, &inner).expect("seals"));
                    }
                    BATCH
                },
            ),
        );
        // A fresh sender for the receiver's replay window to follow.
        let mut sa_out = SecurityAssociation::outbound(7, a, b, [9; 32], [1; 4]);
        out.insert(
            open,
            ns_per_op(
                budget,
                || -> Vec<Vec<u8>> {
                    (0..BATCH)
                        .map(|_| esp::encapsulate(&mut sa_out, &inner).expect("seals"))
                        .collect()
                },
                |sealed| {
                    for payload in &sealed {
                        black_box(esp::decapsulate(&mut sa_in, payload).expect("authenticates"));
                    }
                    BATCH
                },
            ),
        );
    }
}

// ---------------------------------------------------------------------
// un-core and un-domain: fabric, shuttle, overlay
// ---------------------------------------------------------------------

type Ingress = Vec<(&'static str, Packet)>;

/// ns per frame of `Domain::inject_batch` over `pool`, `burst` frames a
/// call. Every frame must leave the domain.
fn domain_ns(
    budget: Duration,
    d: &mut Domain,
    pool: &Ingress,
    burst: usize,
    workers: usize,
) -> f64 {
    ns_per_op(
        budget,
        || pool.chunks(burst).map(<[_]>::to_vec).collect::<Vec<_>>(),
        |bursts| {
            let mut emitted = 0;
            for b in bursts {
                let io = d.inject_batch(b.into_iter().map(|(n, f)| (n, "eth0", f)), workers);
                emitted += io.emitted.len();
            }
            assert_eq!(emitted, pool.len(), "fleet must forward every frame");
            emitted
        },
    )
}

fn core_and_domain_layers(seed: u64, budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    // Twin node: the local_chain graph on a lone UniversalNode, driven
    // with the bursts the shuttle hands one node (256 frames over 8 nodes).
    let per_node = BURST / NODES.len();
    let mut twin = node("n0", 2048, &["eth0", "eth1"]);
    twin.deploy(&bridge_chain("g-n0", "n0-br", CHAIN, "eth0", "eth1"))
        .expect("chain deploys");
    let eth0 = twin.port_id("eth0").expect("eth0 exists");
    let frames: Vec<Packet> = chain_pool(seed, 1, FLOWS_PER_NODE)
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    let bursts = || -> Vec<Vec<(PortId, Packet)>> {
        frames
            .chunks(per_node)
            .map(|c| c.iter().map(|f| (eth0, f.clone())).collect())
            .collect()
    };
    fn pass(twin: &mut UniversalNode, bursts: Vec<Vec<(PortId, Packet)>>) -> usize {
        bursts
            .into_iter()
            .map(|b| twin.inject_batch(b).emitted.len())
            .sum()
    }
    pass(&mut twin, bursts());
    // The twin's visit counts are known: CHAIN deliveries, and lookups
    // read off its own counters over one pass (all cache hits once warm).
    let before = twin.flow_cache_stats();
    assert_eq!(pass(&mut twin, bursts()), frames.len(), "twin must forward");
    let after = twin.flow_cache_stats();
    let lookups_per_op =
        (after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses) as f64
            / frames.len() as f64;
    let twin_ns = ns_per_op(budget, bursts, |b| pass(&mut twin, b));
    out.insert("core.inject_batch_ns_per_op", twin_ns);
    out.insert("core.twin_lookups_per_op", lookups_per_op);
    let fabric_self = twin_ns
        - lookups_per_op * out["switch.process_hit_ns"]
        - CHAIN as f64 * out["compute.deliver_native_ns"];
    out.insert("core.fabric_self_ns_per_op", fabric_self);

    // The local_chain fleet, four ways.
    let pool = chain_pool(seed, NODES.len(), FLOWS_PER_NODE);
    let fleet = |observability| {
        let config = DomainConfig {
            observability,
            ..DomainConfig::default()
        };
        let mut d = chain_fleet(config, NODES.len(), CHAIN);
        domain_ns(Duration::ZERO, &mut d, &pool, BURST, 1);
        d
    };
    let mut plain = fleet(false);
    let burst_ns = domain_ns(budget, &mut plain, &pool, BURST, 1);
    out.insert("domain.shuttle_self_ns_per_op", burst_ns - twin_ns);
    let single_ns = domain_ns(budget, &mut plain, &pool, 1, 1);
    out.insert("domain.call_overhead_us", (single_ns - burst_ns) / 1e3);
    let two = host::nproc().min(2);
    let two_ns = domain_ns(budget, &mut plain, &pool, BURST, two);
    out.insert("domain.speedup_2w", burst_ns / two_ns);
    let traced_ns = ns_per_op(
        budget,
        || pool.clone(),
        |frames| {
            let n = frames.len();
            for (node, f) in frames {
                black_box(plain.inject_traced(node, "eth0", f, 1));
            }
            n
        },
    );
    out.insert("obs.recorder_overhead_ratio", single_ns / traced_ns);
    drop(plain);
    let observed_ns = domain_ns(budget, &mut fleet(true), &pool, BURST, 1);
    out.insert("obs.metrics_overhead_ratio", burst_ns / observed_ns);

    // The overlay ladder on split_esp traffic: each rung removes one thing.
    let pool: Ingress = split_pool(seed, 4 * BURST)
        .into_iter()
        .map(|f| ("n1", f))
        .collect();
    let rung = |placement, protect| {
        let mut d = split_fleet(placement, protect);
        domain_ns(Duration::ZERO, &mut d, &pool, BURST, 1);
        // Classifier visits per frame on this rung, over one counted pass.
        let lookups = |d: &Domain| {
            let s = domain_switch_stats(d);
            s.cache_hits + s.cache_misses
        };
        let before = lookups(&d);
        for burst in pool.chunks(BURST) {
            d.inject_batch(burst.iter().cloned().map(|(n, f)| (n, "eth0", f)), 1);
        }
        let visits = (lookups(&d) - before) as f64 / pool.len() as f64;
        (domain_ns(budget, &mut d, &pool, BURST, 1), visits)
    };
    let (line_esp, line_visits) = rung(Placement::Line, true);
    let (line, _) = rung(Placement::Line, false);
    let (mesh, _) = rung(Placement::Mesh, false);
    let (colocated, colocated_visits) = rung(Placement::Colocated, false);
    // The rungs differ in classifier visits too; the ledger prices
    // visits separately and must not pay for these twice.
    out.insert(
        "domain.ladder_extra_lookups_per_op",
        line_visits - colocated_visits,
    );
    out.insert("domain.esp_ns_per_op", line_esp - line);
    out.insert("domain.transit_ns_per_op", line - mesh);
    out.insert("domain.overlay_ns_per_op", mesh - colocated);
}

/// Every unit cost, by metric name. `budget` is the time each replay
/// measures for; a traced run spends about 25 of them.
pub fn measure(seed: u64, budget: Duration) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    switch_layer(seed, budget, &mut out);
    compute_layer(seed, budget, &mut out);
    ipsec_layer(budget, &mut out);
    core_and_domain_layers(seed, budget, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_decides_like_the_installed_lsi() {
        let d = acl_node();
        let installed = lsi_of(&d, "n0", Some("g-acl"));
        let m = mirror(installed);
        assert_eq!(m.flow_count(), installed.flow_count());
        assert_eq!(m.port_count(), installed.port_count());
        assert!(m.flow_count() > 2300);
    }

    #[test]
    fn every_replay_reports_a_finite_cost() {
        let costs = measure(3, Duration::ZERO);
        assert_eq!(costs.len(), 25);
        for (name, v) in &costs {
            assert!(v.is_finite(), "{name} = {v}");
            assert!(
                crate::report::PER_LAYER.iter().any(|(n, _, _)| n == name),
                "{name} is not a declared metric"
            );
        }
        for positive in [
            "switch.process_hit_ns",
            "switch.process_miss_ns",
            "compute.deliver_native_ns",
            "nnf.ipsec_deliver_ns",
            "ipsec.seal_ns_1400",
            "core.inject_batch_ns_per_op",
        ] {
            assert!(costs[positive] > 0.0, "{positive}");
        }
    }
}
