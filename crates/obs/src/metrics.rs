//! Lock-free metric primitives and the registry that owns them.
//!
//! The hot path records into one `Relaxed` atomic per counter, histogram
//! bucket and sum — one `fetch_add` per event; every writer runs on a
//! domain's caller thread, so nothing is sharded. Cumulative buckets are
//! built only when a reader renders, so the data plane never pays for the
//! exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotonic event counter. `Relaxed`: the value publishes no other
/// data.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter: one relaxed atomic.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (occupancy, queue depth, ...). Gauges are
/// set, not accumulated, so they are a single atomic cell.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Replace the gauge value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram.
///
/// Bucket upper bounds are chosen at registration time and never change, so
/// recording is: binary-search the bound (on a small fixed slice), then one
/// relaxed `fetch_add` on the bucket plus one on the sum. Reads turn the
/// buckets into cumulative Prometheus-style ones.
///
/// Atomic, fixed-bound and rendered to `/metrics`; the harnesses'
/// single-threaded virtual-time histogram is `un_sim::Histogram`.
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` bucket cells (last is +Inf overflow).
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// Build a histogram with the given ascending upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Doubling latency bounds: 256 ns up to ~8.4 ms, 16 buckets + overflow.
    pub fn latency_bounds() -> Vec<u64> {
        (0..16).map(|i| 256u64 << i).collect()
    }

    /// Doubling size bounds: 1 up to 32768, 16 buckets + overflow. Suits
    /// burst sizes and other small cardinal observations.
    pub fn size_bounds() -> Vec<u64> {
        (0..16).map(|i| 1u64 << i).collect()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Bucket upper bounds (exclusive of the implicit +Inf bucket).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Non-cumulative per-bucket counts (last entry is the +Inf overflow
    /// bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Label set attached to a metric: sorted key/value pairs.
pub type Labels = Vec<(String, String)>;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Everything a reader needs to render or check one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub name: String,
    pub labels: Labels,
    pub bounds: Vec<u64>,
    /// Non-cumulative per-bucket counts; last entry is the +Inf bucket.
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

/// The quantiles exported per histogram in the Prometheus exposition.
pub const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// inside the bucket holding the target rank — the standard
    /// Prometheus `histogram_quantile` scheme. The first bucket
    /// interpolates from 0; the +Inf overflow bucket clamps to the last
    /// finite bound (there is no upper edge to interpolate toward).
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if (cumulative as f64) < rank {
                continue;
            }
            let upper = match self.bounds.get(i) {
                Some(&b) => b as f64,
                // +Inf bucket: clamp to the last finite bound.
                None => return Some(self.bounds.last().copied().unwrap_or(0) as f64),
            };
            let lower = if i == 0 {
                0.0
            } else {
                self.bounds[i - 1] as f64
            };
            let below = cumulative - n;
            let within = if *n == 0 {
                1.0
            } else {
                (rank - below as f64) / *n as f64
            };
            return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
        }
        Some(self.bounds.last().copied().unwrap_or(0) as f64)
    }
}

/// Named metrics, keyed by `(name, labels)`. Registration is get-or-create
/// behind an `RwLock`; hot paths hold the returned `Arc` handle so steady
/// state never takes the lock.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<(String, Labels), Metric>>,
}

fn norm_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// Get or create a counter handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = (name.to_string(), norm_labels(labels));
        if let Some(Metric::Counter(c)) = self.metrics.read().unwrap().get(&key) {
            return c.clone();
        }
        let mut map = self.metrics.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} re-registered with a different type"),
        }
    }

    /// Get or create a gauge handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = (name.to_string(), norm_labels(labels));
        if let Some(Metric::Gauge(g)) = self.metrics.read().unwrap().get(&key) {
            return g.clone();
        }
        let mut map = self.metrics.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} re-registered with a different type"),
        }
    }

    /// Get or create a histogram handle with the given bucket bounds. The
    /// bounds of the first registration win.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let key = (name.to_string(), norm_labels(labels));
        if let Some(Metric::Histogram(h)) = self.metrics.read().unwrap().get(&key) {
            return h.clone();
        }
        let mut map = self.metrics.write().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} re-registered with a different type"),
        }
    }

    /// Snapshot every histogram (for invariant checks: bucket sums must
    /// equal event counts).
    pub fn histograms(&self) -> Vec<HistogramSnapshot> {
        let map = self.metrics.read().unwrap();
        map.iter()
            .filter_map(|((name, labels), m)| match m {
                Metric::Histogram(h) => Some(HistogramSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    bounds: h.bounds().to_vec(),
                    buckets: h.bucket_counts(),
                    sum: h.sum(),
                    count: h.count(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Render every registered metric in Prometheus text exposition
    /// format. Each family's samples are one contiguous group: a
    /// histogram's `<name>_q` quantile gauges follow the buckets, sums
    /// and counts of *all* its label sets rather than alternating with
    /// them.
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write;
        let map = self.metrics.read().unwrap();
        let mut last_name = String::new();
        // The `<name>_q` family of the histogram being written, held
        // back until the histogram's own samples are all out.
        let mut quantiles = String::new();
        for ((name, labels), metric) in map.iter() {
            let fresh = *name != last_name;
            if fresh {
                out.push_str(&quantiles);
                quantiles.clear();
                last_name = name.clone();
            }
            match metric {
                Metric::Counter(c) => {
                    if fresh {
                        let _ = writeln!(out, "# TYPE {name} counter");
                    }
                    let _ = writeln!(out, "{}{} {}", name, fmt_labels(labels, &[]), c.get());
                }
                Metric::Gauge(g) => {
                    if fresh {
                        let _ = writeln!(out, "# TYPE {name} gauge");
                    }
                    let _ = writeln!(out, "{}{} {}", name, fmt_labels(labels, &[]), g.get());
                }
                Metric::Histogram(h) => {
                    if fresh {
                        let _ = writeln!(out, "# TYPE {name} histogram");
                        let _ = writeln!(quantiles, "# TYPE {name}_q gauge");
                    }
                    let buckets = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, count) in buckets.iter().enumerate() {
                        cumulative += count;
                        let le = match h.bounds().get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            name,
                            fmt_labels(labels, &[("le", &le)]),
                            cumulative
                        );
                    }
                    let _ = writeln!(out, "{}_sum{} {}", name, fmt_labels(labels, &[]), h.sum());
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        name,
                        fmt_labels(labels, &[]),
                        cumulative
                    );
                    // Bucket-interpolated quantile estimates, as a
                    // sibling gauge family with a `quantile` label.
                    let snap = HistogramSnapshot {
                        name: name.clone(),
                        labels: labels.clone(),
                        bounds: h.bounds().to_vec(),
                        buckets,
                        sum: h.sum(),
                        count: cumulative,
                    };
                    for q in QUANTILES {
                        if let Some(v) = snap.quantile(q) {
                            let _ = writeln!(
                                quantiles,
                                "{}_q{} {v}",
                                name,
                                fmt_labels(labels, &[("quantile", &format!("{q}"))]),
                            );
                        }
                    }
                }
            }
        }
        out.push_str(&quantiles);
    }
}

/// Format a label set as `{k="v",...}`, appending `extra` pairs (used for
/// the histogram `le` label). Returns an empty string for no labels.
pub fn fmt_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

/// Escape a label value per the Prometheus text format.
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::default());
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_and_delta() {
        let g = Gauge::default();
        g.set(42);
        g.add(-2);
        assert_eq!(g.get(), 40);
    }

    #[test]
    fn histogram_buckets_and_conservation() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.record(5);
        h.record(10); // le="10" is inclusive
        h.record(50);
        h.record(5000); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 0, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5065);
    }

    #[test]
    fn histogram_concurrent_bucket_sum_equals_count() {
        let h = Arc::new(Histogram::new(&Histogram::latency_bounds()));
        thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::default();
        let a = r.counter("x_total", &[("node", "n1")]);
        let b = r.counter("x_total", &[("node", "n1")]);
        a.inc();
        b.inc();
        assert_eq!(r.counter("x_total", &[("node", "n1")]).get(), 2);
        // Different labels are a different series.
        assert_eq!(r.counter("x_total", &[("node", "n2")]).get(), 0);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let r = Registry::default();
        r.counter("a_total", &[("node", "n1")]).add(3);
        r.gauge("b", &[]).set(-7);
        let h = r.histogram("c_ns", &[], &[100, 200]);
        h.record(50);
        h.record(150);
        h.record(900);
        let mut text = String::new();
        r.render_prometheus(&mut text);
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total{node=\"n1\"} 3"));
        assert!(text.contains("b -7"));
        assert!(text.contains("c_ns_bucket{le=\"100\"} 1"));
        assert!(text.contains("c_ns_bucket{le=\"200\"} 2"));
        assert!(text.contains("c_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("c_ns_sum 1100"));
        assert!(text.contains("c_ns_count 3"));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[100, 200, 400]);
        for _ in 0..50 {
            h.record(50); // first bucket
        }
        for _ in 0..50 {
            h.record(150); // second bucket
        }
        let snap = HistogramSnapshot {
            name: "x".into(),
            labels: vec![],
            bounds: h.bounds().to_vec(),
            buckets: h.bucket_counts(),
            sum: h.sum(),
            count: h.count(),
        };
        // p50 sits exactly at the first bucket's upper edge.
        assert_eq!(snap.quantile(0.5), Some(100.0));
        // p75 is halfway through the second bucket: 100 + 0.5*(200-100).
        assert_eq!(snap.quantile(0.75), Some(150.0));
        // p100 clamps to the highest populated bound region.
        assert_eq!(snap.quantile(1.0), Some(200.0));
        // Empty histogram has no quantiles.
        let empty = HistogramSnapshot {
            buckets: vec![0, 0, 0, 0],
            count: 0,
            ..snap
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantile_overflow_bucket_clamps_to_last_bound() {
        let h = Histogram::new(&[10, 20]);
        h.record(5000);
        h.record(9000);
        let snap = HistogramSnapshot {
            name: "x".into(),
            labels: vec![],
            bounds: h.bounds().to_vec(),
            buckets: h.bucket_counts(),
            sum: h.sum(),
            count: h.count(),
        };
        assert_eq!(snap.quantile(0.99), Some(20.0));
    }

    #[test]
    fn rendered_exposition_includes_quantile_gauges() {
        let r = Registry::default();
        for node in ["n1", "n2"] {
            let h = r.histogram("c_ns", &[("node", node)], &[100, 200]);
            for _ in 0..10 {
                h.record(50);
            }
        }
        let mut text = String::new();
        r.render_prometheus(&mut text);
        assert!(text.contains("# TYPE c_ns_q gauge"), "{text}");
        // One group per family: every label set's histogram samples,
        // then every label set's quantile gauges.
        assert!(
            text.rfind("c_ns_count{").unwrap() < text.find("c_ns_q").unwrap(),
            "{text}"
        );
        assert!(
            text.contains("c_ns_q{node=\"n1\",quantile=\"0.5\"} "),
            "{text}"
        );
        assert!(text.contains("quantile=\"0.95\""), "{text}");
        assert!(text.contains("quantile=\"0.99\""), "{text}");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
