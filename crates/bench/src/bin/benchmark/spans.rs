//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call
//! into the system: name, start, end, the span that encloses it, and
//! the id of the round all spans of one round share. They stay in
//! memory until the run ends. When the recorder is off (every untraced
//! run) [`Spans::call`] is a branch and a direct call.

use std::collections::BTreeMap;
use std::time::Instant;

use un_nffg::Json;

const NO_PARENT: u32 = u32::MAX;
/// Spans written to the trace file; the rest are counted, not listed
/// (a per-frame workload records half a million).
const MAX_WRITTEN: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    round: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            // Room for a per-frame workload's traced segment, so the
            // recorder itself does not allocate inside timed sections.
            spans: Vec::with_capacity(if enabled { 1 << 19 } else { 0 }),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Open a span that later spans nest under, until [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let name = self.name_id(name);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run one call into the system inside a leaf span.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| self.names[s.name as usize] == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time per span name, in ns: a span's duration minus the part
    /// of it its child spans cover (children of one parent never
    /// overlap here — one thread records them in sequence).
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(self.names[s.name as usize]).or_insert(0) += ns;
        }
        by_name
    }

    /// The trace document: a name table and one row per span.
    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .take(MAX_WRITTEN)
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::from(s.parent)
                };
                Json::Arr(vec![
                    Json::from(s.name),
                    parent,
                    Json::from(s.round),
                    Json::from(s.start_ns),
                    Json::from(s.end_ns),
                ])
            })
            .collect();
        Json::obj()
            .set(
                "names",
                Json::Arr(self.names.iter().map(|n| Json::from(*n)).collect()),
            )
            .set(
                "columns",
                Json::Arr(
                    ["name", "parent", "round", "start_ns", "end_ns"]
                        .map(Json::from)
                        .to_vec(),
                ),
            )
            .set("spans_recorded", self.spans.len())
            .set("spans", Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_rounds_are_shared() {
        let mut s = Spans::new(true);
        s.set_round(7);
        s.enter("round");
        s.call("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.call("a", || ());
        s.exit();
        assert_eq!(s.len(), 3);
        assert!(s.spans.iter().all(|sp| sp.round == 7));
        assert_eq!(s.spans[1].parent, 0);
        let by_name = s.self_ns_by_name();
        let round = s.durations_us("round")[0] * 1e3;
        assert!(by_name["a"] >= 2_000_000);
        assert!((by_name["round"] + by_name["a"]) as f64 <= round + 1.0);
        assert_eq!(s.durations_us("a").len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("round");
        assert_eq!(s.call("a", || 5), 5);
        s.exit();
        assert_eq!(s.len(), 0);
    }
}
