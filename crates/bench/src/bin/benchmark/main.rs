//! The repository's benchmark: five named workloads, four end-to-end
//! metrics, and a traced run that attributes cost to layers.
//!
//! ```sh
//! benchmark run --workload <name|all> --seed <n> [--seconds <s>]
//!               [--trace <0|1> | --traced] [--smoke] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! See `README.md` beside this file for the definitions.

mod alloc_count;
mod gen;
mod host;
mod layers;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use un_nffg::Json;

use host::{Calibration, CpuClock};
use report::{END_TO_END, PER_LAYER};
use run::{measure, Budget};
use spans::Spans;
use workloads::{Scale, WORKLOADS};

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Set-ups timed per untraced run; `setup_s` is their median. A fixed
/// count, so that the heap every run measures in has the same history.
const SETUPS: usize = 9;
/// Peak memory is read after this many seconds' worth of nominal rounds.
const RSS_AFTER_S: f64 = 2.0;
/// Rounds a `--smoke` segment runs.
const SMOKE_ROUNDS: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.to_string(),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => parsed.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => parsed.traced = true,
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let known = parsed.workload == "all" || WORKLOADS.iter().any(|(n, _)| *n == parsed.workload);
    if !known {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(parsed)
}

/// What one run of one workload established.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Rounds, noise and (traced) where the span file went.
    record: Json,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> Json {
        let mut m = Json::obj();
        for (name, value, unit) in &self.metrics {
            // JSON has no inf or NaN; a ratio over nothing reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            m = m.set(name, Json::obj().set("value", value).set("unit", *unit));
        }
        m
    }

    /// The one-line result the contract in `BENCHMARK.json` prescribes.
    fn contract_line(&self) -> String {
        Json::obj()
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", self.metrics_json())
            .render()
    }
}

fn build(name: &str, args: &Args) -> Box<dyn workloads::Workload> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    workloads::build(name, args.seed, scale).expect("workload name was checked")
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(name: &str, args: &Args) -> RunResult {
    // Set up several times and report the median, at reference host
    // speed like every other time here: a set-up is tens of ms of
    // allocation, which is what the host's drift hits hardest. The last
    // fixture is the one measured; earlier ones are dropped first so
    // peak memory is that of one fixture.
    let mut setup_s = Vec::new();
    let mut setup_speed = Vec::new();
    let mut w = build(name, args);
    let mut calibration = Calibration::new();
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(w);
        let t = Instant::now();
        w = build(name, args);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_speed.push(calibration.sample());
    }
    let setup_s_ref = stats::median(&mut setup_s) * stats::median(&mut setup_speed);

    let budget = if args.smoke {
        Budget::Rounds(SMOKE_ROUNDS)
    } else {
        Budget::Time(Duration::from_secs_f64(args.seconds))
    };
    let rss_at_round = (RSS_AFTER_S * 1e3 / w.nominal_round_ms()).ceil() as u64;
    let steal_before = host::steal_jiffies();
    let seg = measure(
        &mut *w,
        budget,
        rss_at_round,
        &mut Spans::new(false),
        &mut calibration,
        &CpuClock::open(),
    );
    let steal = host::steal_jiffies().saturating_sub(steal_before);
    let broken_invariants = w.finish();

    let values = [
        setup_s_ref,
        seg.ops_per_s_ref(),
        seg.cpu_us_per_op_ref(),
        seg.peak_rss_mb,
    ];
    let failed = (seg.outcome.failed + broken_invariants).min(seg.outcome.ops);
    RunResult {
        attempted: seg.outcome.ops,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect(),
        record: Json::obj()
            .set("host", host::host_record())
            .set("rounds", seg.rounds)
            .set("setups", setup_s.len())
            .set("ops_per_s_raw", seg.ops_per_s())
            .set("cpu_us_per_op_raw", seg.cpu_us_per_op())
            .set("broken_invariants", broken_invariants)
            .set(
                "noise",
                calibration.noise_record(steal, seg.wall_ns as f64 / 1e9),
            ),
    }
}

fn trace_path(name: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("benchmark")
        .join(format!("{name}.{seed}.trace.json"))
}

/// The traced run: every per-layer metric. A quarter of `--seconds`
/// untraced for the baseline, the same amount of work again with spans
/// and counters on, then the layer replays.
fn run_traced(name: &str, args: &Args) -> RunResult {
    let mut w = build(name, args);
    let rounds = if args.smoke {
        SMOKE_ROUNDS
    } else {
        ((args.seconds * 1e3 / 4.0 / w.nominal_round_ms()).round() as u64).max(1)
    };
    let cpu = CpuClock::open();
    let mut calibration = Calibration::new();
    let start = Instant::now();
    let steal_before = host::steal_jiffies();
    let base = measure(
        &mut *w,
        Budget::Rounds(rounds),
        u64::MAX,
        &mut Spans::new(false),
        &mut calibration,
        &cpu,
    );
    let mut spans = Spans::new(true);
    let traced = measure(
        &mut *w,
        Budget::Rounds(rounds),
        u64::MAX,
        &mut spans,
        &mut calibration,
        &cpu,
    );
    let broken_invariants = w.finish();
    let replay = Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds / 50.0 });
    let unit = layers::measure(args.seed, replay);
    let steal = host::steal_jiffies().saturating_sub(steal_before);
    let values = report::per_layer(name, &*w, &base, &traced, &spans, &unit);

    let mut record = Json::obj()
        .set("host", host::host_record())
        .set("rounds", traced.rounds)
        .set("spans", spans.len())
        .set("broken_invariants", broken_invariants)
        .set(
            "noise",
            calibration.noise_record(steal, start.elapsed().as_secs_f64()),
        );
    if !args.smoke {
        let path = trace_path(name, args.seed);
        let doc = spans.to_json().set("workload", name).set("seed", args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, doc.render()));
        record = match written {
            Ok(()) => record.set("trace_file", path.display().to_string()),
            Err(e) => record.set("trace_file_error", e.to_string()),
        };
    }

    let ops = base.outcome.ops + traced.outcome.ops;
    let failed = (base.outcome.failed + traced.outcome.failed + broken_invariants).min(ops);
    RunResult {
        attempted: ops,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(n, unit, _)| (*n, values[n], *unit))
            .collect(),
        record,
    }
}

/// One run's stdout: the metrics by name and unit, the run's record,
/// and last the result line the contract prescribes.
fn print_result(name: &str, kind: &str, r: &RunResult) {
    println!("{name} ({kind}):");
    for (metric, value, unit) in &r.metrics {
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
    println!("record {}", r.record.render());
    println!("{}", r.contract_line());
}

/// Run one workload in a process of its own, as the driver does, and
/// read its result back: `(record, result line)`. Peak memory and the
/// allocator's state belong to a process, so `--workload all` must not
/// let one workload inherit them from the one before.
fn run_in_child(name: &str, traced: bool, args: &Args) -> Result<(Json, Json), String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let json_after = |prefix: &str| {
        stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix(prefix))
            .and_then(|l| un_nffg::jsonval::parse(l).ok())
            .ok_or_else(|| format!("{name}: run printed no result (exit {})", out.status))
    };
    Ok((json_after("record ")?, json_after("")?))
}

fn run(args: &Args) -> ExitCode {
    if args.workload != "all" {
        let (kind, result) = if args.traced {
            ("traced", run_traced(&args.workload, args))
        } else {
            ("end to end", run_end_to_end(&args.workload, args))
        };
        print_result(&args.workload, kind, &result);
        return if result.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Every workload in turn; the document `compare` reads.
    let mut all_correct = true;
    let mut per_workload = Json::obj();
    for (name, _) in WORKLOADS {
        let mut entry = Json::obj();
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            let (record, line) = match run_in_child(name, traced, args) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            all_correct &= line.get("correct") == Some(&Json::Bool(true));
            let metrics = line.get("metrics").cloned().unwrap_or(Json::Null);
            entry = if traced {
                entry.set("traced_record", record).set("per_layer", metrics)
            } else {
                let count = |k| line.get(k).cloned().unwrap_or(Json::Null);
                entry
                    .set("attempted", count("attempted"))
                    .set("failed", count("failed"))
                    .set("record", record)
                    .set("end_to_end", metrics)
            };
        }
        per_workload = per_workload.set(name, entry);
    }
    let summary = Json::obj()
        .set("host", host::host_record())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("smoke", args.smoke)
        .set("correct", all_correct)
        .set("workloads", per_workload)
        // This benchmark measures; it claims no gain.
        .set("claim", Json::Null)
        .render_pretty();
    println!("{summary}");
    // A smoke run checks outputs; its numbers mean nothing and are not kept.
    if let (Some(path), false) = (&args.out, args.smoke) {
        if let Err(e) = std::fs::write(path, &summary) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &str, b: &str) -> Result<Vec<String>, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|s| un_nffg::jsonval::parse(&s).map_err(|e| format!("{path}: {e}")))
    };
    Ok(report::compare(&read(a)?, &read(b)?))
}

/// Put the allocator in the state a long-running node is in. glibc
/// raises its mmap and trim thresholds to the size of the largest
/// mapped block it has seen freed, up to 32 MB; until something that
/// large has come and gone, every round's burst of buffers is handed
/// back to the kernel when freed and faulted in again when the next
/// round allocates. On a VM the price of those faults is set by the
/// host, and it alone made identical `local_chain` runs differ by 30 %
/// where they differ by 7 % after this one allocation.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 31 << 20]));
}

fn main() -> ExitCode {
    settle_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: benchmark run --workload <name|all> --seed <n> [--seconds <s>] \
                 [--trace <0|1> | --traced] [--smoke] [--out <file>]\n       \
                 benchmark compare <a.json> <b.json>";
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run_args(rest) {
            Ok(parsed) => run(&parsed),
            Err(e) => {
                eprintln!("benchmark: {e}\n{usage}");
                ExitCode::from(2)
            }
        },
        Some((cmd, [a, b])) if cmd == "compare" => match compare(a, b) {
            Ok(disagreements) if disagreements.is_empty() => {
                println!("the two sets of runs agree");
                ExitCode::SUCCESS
            }
            Ok(disagreements) => {
                for d in &disagreements {
                    println!("{d}");
                }
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_run_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "split_esp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.traced),
            ("split_esp", 7, true)
        );
        assert!(!args(&["--workload", "all", "--trace", "0"]).unwrap().traced);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// The whole path at smoke size: both kinds of run print every
    /// metric they owe, pass their checks, and write no file.
    #[test]
    fn smoke_runs_report_every_metric() {
        let a = Args {
            workload: "split_esp".to_string(),
            seed: 11,
            seconds: 1.0,
            traced: false,
            smoke: true,
            out: None,
        };
        let e2e = run_end_to_end("split_esp", &a);
        assert!(e2e.correct() && e2e.attempted > 0);
        assert_eq!(e2e.metrics.len(), END_TO_END.len());
        assert!(e2e.metrics.iter().all(|(_, v, _)| *v > 0.0));
        let traced = run_traced("split_esp", &a);
        assert!(traced.correct());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let by_name: std::collections::BTreeMap<_, _> =
            traced.metrics.iter().map(|(n, v, _)| (*n, *v)).collect();
        assert_eq!(by_name["domain.overlay_hops_per_op"], 2.0);
        assert!(by_name["domain.protected_bytes_per_op"] > 0.0);
        assert!(by_name["switch.lookups_per_op"] > 0.0);
        assert!(traced.record.get("trace_file").is_none());
        let line = un_nffg::jsonval::parse(&traced.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
