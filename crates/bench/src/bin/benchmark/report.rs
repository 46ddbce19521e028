//! Metric definitions, the per-layer ledger, and `compare`.
//!
//! The tables here are the single definition of every metric name,
//! unit, direction and bound; a test holds `BENCHMARK.json` to them.

use std::collections::BTreeMap;

use un_nffg::Json;

use crate::run::Segment;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::Workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the other run's value by which two runs may differ
    /// (and by which a later change may be worse) before they disagree.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload. One op is one
/// injected frame; on `tenant_churn` it is one control-plane call.
///
/// Both rates are at **reference host speed**. On the shared VM this
/// runs on, identical runs of the raw rate differ by 10 % on a quiet
/// day and 40 % on a busy one, because what the host gives the process
/// drifts over seconds; no bound the contract allows would hold. Each
/// round's rate is therefore divided by the host speed sampled right
/// after it (`host::Calibration`), which brings identical runs within a
/// few percent. The raw figures are reported too, as the layer metrics
/// `e2e.ops_per_s_raw` and `e2e.cpu_us_per_op_raw`, without a bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s_ref",
        unit: "op/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op_ref",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// `(name, unit, better)` of every per-layer metric a traced run prints.
/// Unit `count` marks exact counts: they repeat bit-identically for a
/// given seed and `--seconds`, and `compare` requires that.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    // The untraced segment of the traced run, as the host delivered it.
    ("e2e.ops_per_s_raw", "op/s", "higher"),
    ("e2e.cpu_us_per_op_raw", "us", "lower"),
    ("host.speed", "ratio", "higher"),
    // Visit counts of the traced workload, per injected frame.
    ("switch.lookups_per_op", "count", "lower"),
    ("switch.microflow_hit_ratio", "ratio", "higher"),
    ("switch.exact_per_op", "count", "lower"),
    ("switch.megaflow_per_op", "count", "lower"),
    ("switch.wildcard_scan_per_op", "count", "lower"),
    ("compute.nf_deliveries_per_op", "count", "lower"),
    ("domain.overlay_hops_per_op", "count", "lower"),
    ("domain.protected_bytes_per_op", "count", "lower"),
    ("model.ns_per_op", "count", "lower"),
    ("alloc.count_per_op", "1/op", "lower"),
    ("alloc.bytes_per_op", "B/op", "lower"),
    // Spans of the traced workload.
    ("domain.call_p50_us", "us", "lower"),
    ("domain.call_p99_us", "us", "lower"),
    ("domain.call_samples", "count", "higher"),
    ("control.deploy_p50_us", "us", "lower"),
    ("control.update_p50_us", "us", "lower"),
    ("control.undeploy_p50_us", "us", "lower"),
    ("control.repair_p50_us", "us", "lower"),
    ("control.recover_p50_us", "us", "lower"),
    ("control.nfs_moved_per_repair", "count", "lower"),
    ("control.standby_promoted_ratio", "ratio", "higher"),
    ("verify.incremental_p50_us", "us", "lower"),
    ("verify.full_us", "us", "lower"),
    ("verify.rules_checked_per_pass", "count", "lower"),
    ("nffg.parse_us", "us", "lower"),
    ("nffg.validate_us", "us", "lower"),
    ("harness.overhead_share", "ratio", "lower"),
    ("harness.tracing_overhead_ratio", "ratio", "higher"),
    ("ledger.layer_sum_ratio", "ratio", "higher"),
    // Unit costs from the layer replays (`layers.rs`).
    ("switch.key_extract_ns", "ns", "lower"),
    ("switch.process_hit_ns", "ns", "lower"),
    ("switch.process_exact_ns", "ns", "lower"),
    ("switch.process_miss_ns", "ns", "lower"),
    ("switch.install_us", "us", "lower"),
    ("core.inject_batch_ns_per_op", "ns", "lower"),
    ("core.fabric_self_ns_per_op", "ns", "lower"),
    ("core.twin_lookups_per_op", "count", "lower"),
    ("compute.deliver_native_ns", "ns", "lower"),
    ("compute.deliver_docker_ns", "ns", "lower"),
    ("compute.deliver_vm_ns", "ns", "lower"),
    ("nnf.ipsec_deliver_ns", "ns", "lower"),
    ("ipsec.seal_ns_128", "ns", "lower"),
    ("ipsec.open_ns_128", "ns", "lower"),
    ("ipsec.seal_ns_1400", "ns", "lower"),
    ("ipsec.open_ns_1400", "ns", "lower"),
    ("domain.esp_ns_per_op", "ns", "lower"),
    ("domain.transit_ns_per_op", "ns", "lower"),
    ("domain.overlay_ns_per_op", "ns", "lower"),
    ("domain.ladder_extra_lookups_per_op", "count", "lower"),
    ("domain.shuttle_self_ns_per_op", "ns", "lower"),
    ("domain.call_overhead_us", "us", "lower"),
    ("domain.speedup_2w", "ratio", "higher"),
    ("obs.metrics_overhead_ratio", "ratio", "higher"),
    ("obs.recorder_overhead_ratio", "ratio", "higher"),
    // The ledger's terms for the traced workload, ns per frame.
    ("ledger.switch_ns_per_op", "ns", "lower"),
    ("ledger.nf_boundary_ns_per_op", "ns", "lower"),
    ("ledger.fabric_ns_per_op", "ns", "lower"),
    ("ledger.shuttle_ns_per_op", "ns", "lower"),
    ("ledger.overlay_ns_per_op", "ns", "lower"),
];

fn p50_us(spans: &Spans, name: &str) -> f64 {
    stats::median(&mut spans.durations_us(name))
}

/// Everything a traced run reports. `base` is the untraced segment of
/// the same run, `traced` the one recorded into `spans`, `unit` the
/// layer replays' unit costs.
pub fn per_layer(
    name: &str,
    w: &dyn Workload,
    base: &Segment,
    traced: &Segment,
    spans: &Spans,
    unit: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = unit.clone();
    let frames = traced.outcome.frames.max(1) as f64;
    let ops = traced.outcome.ops.max(1) as f64;
    let sw = traced.traced.switch;
    let lookups = (sw.cache_hits + sw.cache_misses) as f64;

    m.insert("switch.lookups_per_op", lookups / frames);
    m.insert(
        "switch.microflow_hit_ratio",
        sw.cache_hits as f64 / lookups.max(1.0),
    );
    m.insert("switch.exact_per_op", sw.exact_hits as f64 / frames);
    m.insert("switch.megaflow_per_op", sw.megaflow_hits as f64 / frames);
    m.insert(
        "switch.wildcard_scan_per_op",
        sw.wildcard_hits as f64 / frames,
    );
    let deliveries =
        traced.traced.sampled_deliveries as f64 / traced.traced.sampled_frames.max(1) as f64;
    m.insert("compute.nf_deliveries_per_op", deliveries);
    let hops = traced.outcome.overlay_hops as f64 / frames;
    m.insert("domain.overlay_hops_per_op", hops);
    m.insert(
        "domain.protected_bytes_per_op",
        traced.outcome.protected_bytes as f64 / frames,
    );
    m.insert("model.ns_per_op", traced.outcome.model_ns as f64 / frames);
    m.insert("alloc.count_per_op", traced.traced.allocs as f64 / ops);
    m.insert("alloc.bytes_per_op", traced.traced.alloc_bytes as f64 / ops);

    let mut calls = spans.durations_us("domain.inject_batch");
    calls.extend(spans.durations_us("core.inject"));
    m.insert("domain.call_samples", calls.len() as f64);
    m.insert("domain.call_p50_us", stats::median(&mut calls));
    // Where the sample cannot support p99 the slot reads 0, not a guess.
    m.insert(
        "domain.call_p99_us",
        stats::percentile(&mut calls, 99.0).unwrap_or(0.0),
    );
    for (metric, span) in [
        ("control.deploy_p50_us", "control.deploy"),
        ("control.update_p50_us", "control.update"),
        ("control.undeploy_p50_us", "control.undeploy"),
        ("control.repair_p50_us", "control.repair"),
        ("control.recover_p50_us", "control.recover"),
        ("verify.incremental_p50_us", "verify.incremental"),
        ("verify.full_us", "verify.full"),
        ("nffg.parse_us", "nffg.parse"),
        ("nffg.validate_us", "nffg.validate"),
    ] {
        m.insert(metric, p50_us(spans, span));
    }
    for metric in [
        "verify.rules_checked_per_pass",
        "control.nfs_moved_per_repair",
        "control.standby_promoted_ratio",
    ] {
        m.insert(metric, 0.0);
    }
    m.extend(w.layer_counts());
    m.insert("e2e.ops_per_s_raw", base.ops_per_s());
    m.insert("e2e.cpu_us_per_op_raw", base.cpu_us_per_op());
    m.insert("host.speed", stats::median(&mut base.round_speed.clone()));
    m.insert("harness.overhead_share", base.harness_share());
    m.insert(
        "harness.tracing_overhead_ratio",
        traced.ops_per_s() / base.ops_per_s().max(1e-9),
    );

    // The ledger: visits per frame × unit cost, layer by layer.
    let per_frame = |n: u64| n as f64 / frames;
    let switch_ns = per_frame(sw.cache_hits) * unit["switch.process_hit_ns"]
        + per_frame(sw.exact_hits) * unit["switch.process_exact_ns"]
        + per_frame(sw.megaflow_hits + sw.wildcard_hits) * unit["switch.process_miss_ns"];
    let nf_ns = deliveries
        * if name == "cpe_ipsec" {
            unit["nnf.ipsec_deliver_ns"]
        } else {
            unit["compute.deliver_native_ns"]
        };
    let fabric_per_lookup = unit["core.fabric_self_ns_per_op"] / unit["core.twin_lookups_per_op"];
    let fabric_ns = lookups / frames * fabric_per_lookup;
    let shuttle_ns = if name == "cpe_ipsec" {
        0.0 // driven at node level: no shuttle
    } else {
        unit["domain.shuttle_self_ns_per_op"]
    };
    let overlay_ns = if name == "split_esp" {
        // The ladder was measured on this very traffic and placement.
        // Its rungs also differ in classifier visits, which the switch
        // and fabric terms above already price.
        unit["domain.esp_ns_per_op"]
            + unit["domain.transit_ns_per_op"]
            + unit["domain.overlay_ns_per_op"]
            - unit["domain.ladder_extra_lookups_per_op"]
                * (unit["switch.process_hit_ns"] + fabric_per_lookup)
    } else {
        hops * unit["domain.overlay_ns_per_op"]
    };
    m.insert("ledger.switch_ns_per_op", switch_ns);
    m.insert("ledger.nf_boundary_ns_per_op", nf_ns);
    m.insert("ledger.fabric_ns_per_op", fabric_ns);
    m.insert("ledger.shuttle_ns_per_op", shuttle_ns);
    m.insert("ledger.overlay_ns_per_op", overlay_ns);
    let ratio = if name == "tenant_churn" {
        // One op is a control call here, so the ledger is in time, not
        // visits: the share of round time the control-plane spans cover.
        let self_ns = spans.self_ns_by_name();
        let covered: u64 = self_ns
            .iter()
            .filter(|(span, _)| {
                ["control.", "verify.", "nffg."]
                    .iter()
                    .any(|p| span.starts_with(p))
            })
            .map(|(_, ns)| ns)
            .sum();
        covered as f64 / self_ns.values().sum::<u64>().max(1) as f64
    } else {
        (switch_ns + nf_ns + fabric_ns + shuttle_ns + overlay_ns)
            / (base.cpu_us_per_op_ref() * 1e3 * base.outcome.ops as f64
                / base.outcome.frames.max(1) as f64)
    };
    m.insert("ledger.layer_sum_ratio", ratio);
    m
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut at = doc;
    for key in path {
        at = at.get(key)?;
    }
    match at {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

/// Disagreements between two `run --workload all --out` documents, one
/// line each, naming workload and metric. End-to-end metrics may differ
/// by their bound; failures and exact counts must match exactly.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let empty: &[(String, Json)] = &[];
    let workloads = a.get("workloads").and_then(Json::members).unwrap_or(empty);
    if workloads.is_empty() {
        out.push("first document has no workloads".to_string());
    }
    for (w, _) in workloads {
        let failed = |doc| num(doc, &["workloads", w, "failed"]);
        if failed(a) != failed(b) || failed(a).is_none() {
            out.push(format!(
                "{w}: failed differs: {:?} vs {:?}",
                failed(a),
                failed(b)
            ));
        }
        for e in &END_TO_END {
            let path = ["workloads", w, "end_to_end", e.name, "value"];
            match (num(a, &path), num(b, &path)) {
                (Some(x), Some(y)) if (y - x).abs() <= e.bound * x.abs() => {}
                (x, y) => out.push(format!(
                    "{w}: {} ({} is better) differs by more than {:.0} %: {x:?} vs {y:?}",
                    e.name,
                    e.better,
                    e.bound * 100.0
                )),
            }
        }
        for (name, unit, _) in PER_LAYER.iter().filter(|(_, unit, _)| *unit == "count") {
            let path = ["workloads", w, "per_layer", name, "value"];
            let (x, y) = (num(a, &path), num(b, &path));
            // Present in both (two traced sets) or in neither.
            if x != y {
                out.push(format!(
                    "{w}: {name} ({unit}) must match exactly: {x:?} vs {y:?}"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_plain_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for (i, n) in names.iter().enumerate() {
            assert!(plain(n), "{n}");
            assert!(!names[..i].contains(n), "{n} listed twice");
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s"));
    }

    /// `BENCHMARK.json` is written by hand; this holds it to the tables
    /// above and to the workload list, field by field.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = un_nffg::jsonval::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), e.better);
            assert_eq!(j.get("bound"), Some(&Json::Num(e.bound)), "{}", e.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), *name);
            assert_eq!(field(j, "unit"), *unit);
            assert_eq!(field(j, "better"), *better);
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(field(j, "name"), *name);
            assert_eq!(field(j, "why"), *why);
        }
        let paths = list("paths");
        assert_eq!(paths, vec![Json::from("crates/bench/src/bin/benchmark")]);
    }

    fn doc(ops_ref: f64, failed: u64, lookups: f64) -> Json {
        let metric = |v: f64| Json::obj().set("value", v);
        let mut e2e = Json::obj();
        for e in &END_TO_END {
            e2e = e2e.set(
                e.name,
                metric(if e.name == "ops_per_s_ref" {
                    ops_ref
                } else {
                    1.0
                }),
            );
        }
        let w = Json::obj()
            .set("failed", failed)
            .set("end_to_end", e2e)
            .set(
                "per_layer",
                Json::obj().set("switch.lookups_per_op", metric(lookups)),
            );
        Json::obj().set("workloads", Json::obj().set("local_chain", w))
    }

    #[test]
    fn compare_applies_bounds_and_exact_counts() {
        let a = doc(100.0, 0, 6.0);
        assert!(compare(&a, &doc(120.0, 0, 6.0)).is_empty());
        let slow = compare(&a, &doc(70.0, 0, 6.0));
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("local_chain") && slow[0].contains("ops_per_s_ref"));
        let failed = compare(&a, &doc(100.0, 1, 6.0));
        assert!(failed[0].contains("failed"));
        let count = compare(&a, &doc(100.0, 0, 6.000001));
        assert!(count[0].contains("switch.lookups_per_op"));
        assert!(!compare(&Json::obj(), &a).is_empty());
    }
}
