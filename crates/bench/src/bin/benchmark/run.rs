//! The measurement loop: rounds of prepare → timed run → check.

use std::time::{Duration, Instant};

use un_switch::TableStats;

use crate::alloc_count;
use crate::host::{self, Calibration, CpuClock};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{Outcome, Workload};

/// How long a segment measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this much wall time has passed (at least one round).
    Time(Duration),
    /// Exactly this many rounds (`--smoke`).
    Rounds(u64),
}

/// Counts taken around the timed sections of a traced segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedCounts {
    pub switch: TableStats,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Frames sampled through the flight recorder, and the NF
    /// deliveries their hop records show.
    pub sampled_frames: u64,
    pub sampled_deliveries: u64,
}

/// One measured segment of a run.
#[derive(Debug, Default)]
pub struct Segment {
    pub rounds: u64,
    pub outcome: Outcome,
    /// ops ÷ wall time of the timed section, one value per round.
    pub round_rates: Vec<f64>,
    /// Host speed sampled right after each round (1.0 = reference).
    pub round_speed: Vec<f64>,
    /// Wall time inside timed sections, summed.
    pub timed_ns: u64,
    /// On-CPU time of the load thread inside timed sections, summed.
    pub cpu_ns: u64,
    /// Both again, each round's share scaled by the host speed sampled
    /// after it: the time it would have taken at reference speed.
    pub timed_ref_ns: f64,
    pub cpu_ref_ns: f64,
    /// Peak resident set when the round count reached `rss_at_round`
    /// (at the end of the segment if it never did), in MB.
    pub peak_rss_mb: f64,
    /// Wall time of the whole segment, harness work included.
    pub wall_ns: u64,
    pub traced: TracedCounts,
}

impl Segment {
    /// Median over rounds of ops per second of timed wall time.
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&mut self.round_rates.clone())
    }

    /// Ops per second of timed wall time at reference host speed: total
    /// ops over the sum of every round's time scaled by the host speed
    /// sampled right after it. A sum, not a median over rounds: rounds
    /// of `tenant_churn` differ too much in work for their median to
    /// settle in the fifty a run has.
    pub fn ops_per_s_ref(&self) -> f64 {
        self.outcome.ops as f64 / (self.timed_ref_ns / 1e9).max(1e-12)
    }

    /// On-CPU µs per op, summed over the run (never per round: the
    /// clock is tick-granular). A run too short for the clock to have
    /// ticked, or a host without per-thread schedstat, reads its timed
    /// wall time instead.
    pub fn cpu_us_per_op(&self) -> f64 {
        let ns = if self.cpu_ns > 0 {
            self.cpu_ns
        } else {
            self.timed_ns
        };
        ns as f64 / 1e3 / self.outcome.ops.max(1) as f64
    }

    /// [`Segment::cpu_us_per_op`] at reference host speed.
    pub fn cpu_us_per_op_ref(&self) -> f64 {
        let ns = if self.cpu_ns > 0 {
            self.cpu_ref_ns
        } else {
            self.timed_ref_ns
        };
        ns / 1e3 / self.outcome.ops.max(1) as f64
    }

    /// Share of the segment's wall time spent outside timed sections:
    /// input generation, output checks, calibration.
    pub fn harness_share(&self) -> f64 {
        1.0 - self.timed_ns as f64 / self.wall_ns.max(1) as f64
    }
}

fn stats_delta(after: TableStats, before: TableStats) -> TableStats {
    TableStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        exact_hits: after.exact_hits - before.exact_hits,
        megaflow_hits: after.megaflow_hits - before.megaflow_hits,
        wildcard_hits: after.wildcard_hits - before.wildcard_hits,
        misses: after.misses - before.misses,
    }
}

/// Frames sampled through the flight recorder per 64 frames injected.
const SAMPLE_ONE_IN: u64 = 64;

/// Run rounds of `w` until `budget` is spent. With `spans` enabled the
/// segment is a traced one: every call is a span, allocations and
/// classifier counters are taken around each timed section, and one
/// frame in 64 is re-sent through the flight recorder afterwards.
///
/// Memory grows with the rounds run on some workloads, and the rounds a
/// time budget buys vary with the host, so peak memory is read when the
/// round count reaches `rss_at_round`: a fixed amount of work.
pub fn measure(
    w: &mut dyn Workload,
    budget: Budget,
    rss_at_round: u64,
    spans: &mut Spans,
    calibration: &mut Calibration,
    cpu: &CpuClock,
) -> Segment {
    let mut seg = Segment::default();
    let traced = spans.enabled();
    let start = Instant::now();
    loop {
        match budget {
            Budget::Time(limit) if seg.rounds > 0 && start.elapsed() >= limit => break,
            Budget::Rounds(n) if seg.rounds >= n => break,
            _ => {}
        }
        w.prepare(seg.rounds);
        spans.set_round(seg.rounds as u32);
        let switch_before = if traced {
            w.switch_stats()
        } else {
            TableStats::default()
        };
        let allocs_before = alloc_count::snapshot();
        alloc_count::set_enabled(traced);

        let cpu_before = cpu.now_ns();
        let t0 = Instant::now();
        spans.enter("round");
        w.run(spans);
        spans.exit();
        let timed = t0.elapsed().as_nanos() as u64;
        let cpu_after = cpu.now_ns();

        alloc_count::set_enabled(false);
        let out = w.check();
        if traced {
            let (allocs, bytes) = alloc_count::snapshot();
            seg.traced.allocs += allocs - allocs_before.0;
            seg.traced.alloc_bytes += bytes - allocs_before.1;
            seg.traced
                .switch
                .merge(&stats_delta(w.switch_stats(), switch_before));
            for _ in 0..(out.frames / SAMPLE_ONE_IN).max(1) {
                seg.traced.sampled_deliveries += w.sample_nf_deliveries();
                seg.traced.sampled_frames += 1;
            }
        }
        seg.round_rates
            .push(out.ops as f64 / (timed.max(1) as f64 / 1e9));
        let speed = calibration.sample();
        let cpu = cpu_after.saturating_sub(cpu_before);
        seg.timed_ns += timed;
        seg.timed_ref_ns += timed as f64 * speed;
        seg.cpu_ns += cpu;
        seg.cpu_ref_ns += cpu as f64 * speed;
        seg.round_speed.push(speed);
        seg.outcome.add(out);
        seg.rounds += 1;
        if seg.rounds == rss_at_round {
            seg.peak_rss_mb = host::peak_rss_mb();
        }
    }
    if seg.rounds < rss_at_round {
        seg.peak_rss_mb = host::peak_rss_mb();
    }
    seg.wall_ns = start.elapsed().as_nanos() as u64;
    seg
}
