//! # un-obs — fleet observability substrate
//!
//! Metrics and tracing for the universal-node fleet, built for a batched
//! data plane that must not slow down when nobody is looking:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free primitives, one
//!   `Relaxed` atomic per cell (per counter, per bucket, per sum). One
//!   hot-path event costs one uncontended `fetch_add`: every writer runs
//!   on a domain's caller thread.
//! * [`Registry`] — named metric series keyed by `(name, labels)`; hot
//!   paths hold `Arc` handles so steady state never takes the registry
//!   lock. Renders Prometheus text exposition format.
//! * [`EventRing`] — bounded ring of recent control-plane spans/events
//!   with typed attributes and monotonic-clock durations.
//! * [`TraceSink`] / [`PacketTrace`] — the per-frame flight recorder:
//!   hop-by-hop records (classifier provenance, NF delivery, overlay
//!   crossings, typed [`DropReason`]s) that render as a readable walk.
//! * [`FrameLedger`] / [`Accounting`] — the conservation ledger as a value
//!   (a slot per [`DropReason`]) and its only writer, the per-call books
//!   the node fabric and the domain shuttle both drop frames through.
//! * [`Obs`] — the per-domain facade. When observability is disabled the
//!   facade is inert: instrumentation sites check one boolean (or skip the
//!   `Option<Arc<Obs>>` entirely) and touch nothing else.

#![forbid(unsafe_code)]
#![deny(warnings)]

mod flight;
mod metrics;
mod trace;

pub use flight::{
    Accounting, ClassifierStage, DropReason, FrameLedger, HopKind, HopRecord, PacketTrace,
    TraceRing, TraceSink, DEFAULT_TRACE_CAPACITY,
};
pub use metrics::{
    escape_label, fmt_labels, Counter, Gauge, Histogram, HistogramSnapshot, Labels, Registry,
    QUANTILES,
};
pub use trace::{AttrValue, Event, EventRing};

use std::sync::Arc;
use std::time::Instant;

/// Default capacity of the recent-event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Per-domain observability handle: a metric registry plus an event ring,
/// behind a single `enabled` switch.
pub struct Obs {
    enabled: bool,
    registry: Registry,
    events: EventRing,
}

impl Obs {
    /// An active handle recording into a ring of `DEFAULT_EVENT_CAPACITY`.
    pub fn enabled() -> Arc<Self> {
        Arc::new(Obs {
            enabled: true,
            registry: Registry::default(),
            events: EventRing::new(DEFAULT_EVENT_CAPACITY),
        })
    }

    /// An inert handle: every record call returns after one branch.
    pub fn disabled() -> Arc<Self> {
        Arc::new(Obs {
            enabled: false,
            registry: Registry::default(),
            events: EventRing::new(1),
        })
    }

    /// Build from a configuration flag.
    pub fn from_flag(on: bool) -> Arc<Self> {
        if on {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Whether instrumentation should record. Hot paths check this once
    /// per batch and skip handle lookups entirely when off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry (live even when disabled, so readers see an
    /// empty but well-formed exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The recent-event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Record a point event (no-op when disabled).
    pub fn event(&self, name: &'static str, attrs: Vec<(&'static str, AttrValue)>) {
        if self.enabled {
            self.events.event(name, attrs);
        }
    }

    /// Record a completed span that started at `started`, and fold its
    /// duration into the `un_span_duration_ns{span=...}` histogram
    /// (no-op when disabled).
    pub fn span(
        &self,
        name: &'static str,
        started: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        if !self.enabled {
            return;
        }
        let d = started.elapsed().as_nanos() as u64;
        self.registry
            .histogram(
                "un_span_duration_ns",
                &[("span", name)],
                &Histogram::latency_bounds(),
            )
            .record(d);
        self.events.span(name, started, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        obs.event("x", vec![]);
        obs.span("y", Instant::now(), vec![]);
        assert!(obs.events().is_empty());
        assert!(obs.registry().histograms().is_empty());
    }

    #[test]
    fn span_feeds_ring_and_duration_histogram() {
        let obs = Obs::enabled();
        obs.span(
            "domain.plan",
            Instant::now(),
            vec![("parts", 3usize.into())],
        );
        assert_eq!(obs.events().len(), 1);
        let hists = obs.registry().histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].name, "un_span_duration_ns");
        assert_eq!(hists[0].count, 1);
        assert_eq!(hists[0].buckets.iter().sum::<u64>(), hists[0].count);
    }
}
