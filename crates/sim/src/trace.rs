//! Named counters.
//!
//! Components count noteworthy occurrences (`graphs_deployed`, a drop
//! reason, `no_route`) into a [`TraceLog`]; tests assert on them and
//! `/metrics` renders them.

use std::collections::BTreeMap;

/// Monotonically increasing named counters.
#[derive(Debug, Default)]
pub struct TraceLog {
    counters: BTreeMap<&'static str, u64>,
}

impl TraceLog {
    /// An empty counter map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a named counter by `n`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Read a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_independent_of_events() {
        let mut t = TraceLog::new();
        t.count("pkts", 3);
        t.count("pkts", 2);
        assert_eq!(t.counter("pkts"), 5);
        assert_eq!(t.counter("other"), 0);
        let all: Vec<_> = t.counters().collect();
        assert_eq!(all, vec![("pkts", 5)]);
    }
}
