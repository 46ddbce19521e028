//! A priority-ordered flow table with a two-stage fast path.
//!
//! Every classifier structure here speaks [`PackedKey`] — the packet's
//! header fields as five words (layout in [`crate::key`]). A flow
//! entry's match is compiled once, at [`FlowTable::insert`], into
//! `(mask, value)` words with "key matches ⇔ `key & mask == value`".
//! Lookup tries two stages, cheapest first:
//!
//! 1. **Microflow cache** — `key & union → entry index`, where `union`
//!    is the OR of every installed rule's mask: the bits *some* rule
//!    can read. The cache is keyed by what the rules can tell apart,
//!    not by the flow — the Open vSwitch megaflow idea in its coarsest,
//!    exact form. Exact, because
//!
//!    * rule *r* matches ⇔ `key & mask_r == value_r`, and
//!      `mask_r ⊆ union`, so `key & mask_r == (key & union) & mask_r`;
//!    * two keys equal under `union` therefore match the same rules,
//!      and the same rules have the same winner;
//!    * the union and every cached index are stamped by one generation
//!      counter (advanced on every mutation), so an entry written
//!      under an older rule set — and an older union — is refused.
//!
//!    A table that only steers (LSI-0, a bridge-chain graph LSI: every
//!    rule reads `in_port` and at most a vid) holds one entry per port /
//!    vid however many flows cross it; a table whose rules read the
//!    5-tuple has a full union and one entry per flow, bounded by
//!    `CACHE_CAP`. A rule change invalidates every cached decision
//!    without an O(cache) clear, and what it costs afterwards is one
//!    re-classification per *class*: O(ports) on a steering table, not
//!    O(flows). Table misses are not cached.
//! 2. **Mask tables** — entries are hash-bucketed by their *mask*: one
//!    `MaskTable` per distinct mask, mapping `value` words to the best
//!    entry carrying them. The packet key is projected onto each mask
//!    (five ANDs) and probed once, so a table with thousands of entries
//!    over a handful of masks costs O(#masks) per classification
//!    instead of O(#entries). A mask that covers only whole fields (a
//!    port, a MAC, a /32 prefix, a specific VLAN id, …) is *exact* and a
//!    hit on it reports [`LookupPath::ExactHit`]; a mask with a partial
//!    field (a CIDR prefix shorter than /32, the tagged-any presence
//!    bit) reports [`LookupPath::MegaflowHit`]. Like the cache, the
//!    index is stamped with the table generation and rebuilt lazily
//!    after any mutation, so a rule delete/modify can never serve a
//!    stale action.
//!
//! Each map probe is one SipHash pass over the five words, keyed per
//! map by `RandomState`: packet headers are attacker-chosen, so an
//! unkeyed hash over them would let a sender aim every flow at one
//! bucket. The microflow probe and the cache insert that follows a
//! fall-through share one hash through the map's entry API.
//!
//! Entries are kept sorted by (priority desc, insertion order), so
//! "first match wins" reduces to "smallest index wins" across all mask
//! tables. The reference they are tested and benchmarked against — a
//! first-match scan over [`FlowTable::entries`] — lives with its users
//! (`tests/properties.rs`), not here.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::flow::{CompiledMatch, FlowAction, FlowEntry, FlowMatch};
use crate::key::{PackedKey, PacketKey};

/// Result of a lookup, distinguishing the path taken (for cost charging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupPath {
    /// Served by the microflow cache.
    CacheHit,
    /// Served by a mask table whose mask covers only whole fields.
    ExactHit,
    /// Served by a mask table with a partially-masked field (one probe
    /// per distinct mask).
    MegaflowHit,
    /// Required a linear scan: the residual wildcard fallback (no
    /// table produces it today, see [`TableStats::wildcard_hits`]).
    Miss,
}

/// A successful lookup: the matched entry's actions plus provenance —
/// which classifier stage answered and which rule (cookie, priority)
/// won. The provenance feeds the flight recorder and costs nothing
/// extra: both fields are copied out of the entry the lookup already
/// touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupHit {
    /// The matched entry's action list, shared with the entry.
    pub actions: Arc<[FlowAction]>,
    /// Which classifier stage resolved the lookup.
    pub path: LookupPath,
    /// The matched rule's cookie (the orchestrator's rule-id hash).
    pub cookie: u64,
    /// The matched rule's priority.
    pub priority: u16,
}

/// Aggregated lookup counters of one or more tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups served by the microflow cache.
    pub cache_hits: u64,
    /// Lookups that fell through the microflow cache.
    pub cache_misses: u64,
    /// Fall-throughs resolved by an exact (whole-field) mask table.
    pub exact_hits: u64,
    /// Fall-throughs resolved by a partially-masked (megaflow) table.
    pub megaflow_hits: u64,
    /// Fall-throughs resolved by the residual wildcard linear scan
    /// (zero today: every expressible match compiles to a mask; the
    /// counter stays for exporters and for the day a non-maskable match
    /// field appears).
    pub wildcard_hits: u64,
    /// Fall-throughs that matched no entry at all (table miss / drop).
    pub misses: u64,
}

impl TableStats {
    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &TableStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.exact_hits += other.exact_hits;
        self.megaflow_hits += other.megaflow_hits;
        self.wildcard_hits += other.wildcard_hits;
        self.misses += other.misses;
    }

    /// Fraction of lookups resolved by *any* classifier stage
    /// (microflow, exact, megaflow or wildcard), in [0, 1]; 0 when no
    /// lookups happened. A cache fall-through that still matched an
    /// entry counts as a hit — only true table misses drag the rate
    /// down, so a table served entirely by the exact or megaflow paths
    /// reports 1.0, not 0.0.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        let matched = self.cache_hits + self.exact_hits + self.megaflow_hits + self.wildcard_hits;
        matched as f64 / total as f64
    }
}

/// All entries sharing one mask, hashed by their value words. On
/// duplicate values the smallest entry index (= best priority, then
/// earliest insertion) is kept.
#[derive(Debug)]
struct MaskTable {
    mask: PackedKey,
    /// The mask covers only whole fields ([`CompiledMatch::exact`]).
    exact: bool,
    map: HashMap<PackedKey, usize>,
}

/// Bound on the microflow cache before it is recycled wholesale; stale
/// generations are dropped lazily, so without a bound a long-lived
/// churning table would accumulate dead keys.
const CACHE_CAP: usize = 8_192;

/// One installed entry with its match compiled at insert time.
#[derive(Debug)]
struct Rule {
    entry: FlowEntry,
    compiled: CompiledMatch,
}

/// A single flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Rules sorted by (priority desc, insertion order).
    rules: Vec<Rule>,
    /// Advanced on *every* mutation, including removals; stamps and
    /// invalidates cache entries and the mask-table index.
    generation: u64,
    cache: HashMap<PackedKey, (u64, usize)>,
    /// Mask tables, rebuilt lazily per generation.
    index: Vec<MaskTable>,
    /// OR of every rule's mask — the bits any rule can read, and so the
    /// projection the cache is keyed by. Rebuilt with `index`.
    union: PackedKey,
    index_gen: u64,
    /// Cache hits since creation.
    pub cache_hits: u64,
    /// Cache misses since creation.
    pub cache_misses: u64,
    /// Exact mask-table hits since creation.
    pub exact_hits: u64,
    /// Megaflow mask-table hits since creation.
    pub megaflow_hits: u64,
    /// Wildcard-scan hits since creation (see [`TableStats`]).
    pub wildcard_hits: u64,
    /// Lookups that matched nothing since creation.
    pub misses: u64,
    /// Megaflow hash probes issued since creation: one per distinct
    /// non-exact mask per classification, the O(#masks) evidence.
    pub megaflow_probes: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lookup counters as one block.
    pub fn stats(&self) -> TableStats {
        TableStats {
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            exact_hits: self.exact_hits,
            megaflow_hits: self.megaflow_hits,
            wildcard_hits: self.wildcard_hits,
            misses: self.misses,
        }
    }

    /// Microflow-cache population (stale generations included until
    /// they are overwritten or the cache recycles): about one per port
    /// or vid on a steering table, up to `CACHE_CAP` on a table whose
    /// rules read per-flow fields.
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Number of distinct megaflow (non-exact) masks in the current
    /// index (builds the index if stale). Lookup cost for wildcard
    /// traffic is one hash probe per mask, regardless of how many
    /// entries share them.
    pub fn megaflow_mask_count(&mut self) -> usize {
        self.ensure_index();
        Self::megaflow_masks(&self.index)
    }

    fn megaflow_masks(index: &[MaskTable]) -> usize {
        index.iter().filter(|t| !t.exact).count()
    }

    /// Install an entry, keeping priority order. Invalidates the cache.
    pub fn insert(&mut self, entry: FlowEntry) {
        self.generation += 1;
        // After all entries with priority >= new (stable among equal
        // priorities).
        let pos = self
            .rules
            .partition_point(|r| r.entry.priority >= entry.priority);
        let compiled = entry.matches.compile();
        self.rules.insert(pos, Rule { entry, compiled });
    }

    /// Remove all entries with the given cookie; returns how many.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| r.entry.cookie != cookie);
        let removed = before - self.rules.len();
        if removed > 0 {
            self.generation += 1;
        }
        removed
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.rules.clear();
        self.generation += 1;
    }

    /// Rebuild the mask-table index if the table changed since it was
    /// last built.
    fn ensure_index(&mut self) {
        if self.index_gen == self.generation {
            return;
        }
        self.index.clear();
        self.union = PackedKey::default();
        let mut by_mask: HashMap<PackedKey, usize> = HashMap::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let CompiledMatch { mask, value, exact } = rule.compiled;
            self.union = self.union.or(&mask);
            let slot = *by_mask.entry(mask).or_insert_with(|| {
                self.index.push(MaskTable {
                    mask,
                    exact,
                    map: HashMap::new(),
                });
                self.index.len() - 1
            });
            // First (smallest) index wins on identical matches.
            self.index[slot].map.entry(value).or_insert(i);
        }
        self.index_gen = self.generation;
    }

    /// Find the winning entry index for `key` in a fresh index, and
    /// which kind of mask table produced it; `None` on table miss.
    fn classify(index: &[MaskTable], key: &PackedKey) -> Option<(usize, LookupPath)> {
        // Candidates are indices into the sorted rule vector, so the
        // smallest index is the best (priority desc, insertion asc).
        let mut best: Option<(usize, bool)> = None;
        for table in index {
            if let Some(&i) = table.map.get(&key.and(&table.mask)) {
                if best.is_none_or(|(b, _)| i < b) {
                    best = Some((i, table.exact));
                }
            }
        }
        best.map(|(i, exact)| {
            let path = if exact {
                LookupPath::ExactHit
            } else {
                LookupPath::MegaflowHit
            };
            (i, path)
        })
    }

    /// Look up the best entry for `key`, updating its counters by
    /// `bytes`. Returns the matched actions plus provenance (stage,
    /// cookie, priority), or `None` on table miss.
    pub fn lookup(&mut self, key: &PacketKey, bytes: usize) -> Option<LookupHit> {
        let (idx, path) = self.lookup_index(key, bytes)?;
        Some(self.hit(idx, path))
    }

    /// [`FlowTable::lookup`] without the [`LookupHit`]: the winning
    /// rule's index (valid for [`FlowTable::entry`] until the next
    /// mutation) and the stage that found it, so a caller can run the
    /// entry's actions off a borrow instead of a cloned `Arc`.
    pub(crate) fn lookup_index(
        &mut self,
        key: &PacketKey,
        bytes: usize,
    ) -> Option<(usize, LookupPath)> {
        self.ensure_index();
        let key = key.pack();
        let generation = self.generation;
        let full = self.cache.len() >= CACHE_CAP;
        // What the rules can tell apart about this packet.
        let class = key.and(&self.union);
        // One hash serves the probe and, on a fall-through, the insert.
        let (idx, path) = match self.cache.entry(class) {
            // Generation match ⇒ the table (and with it the union this
            // entry was keyed under) is untouched since this decision
            // was cached, so idx is valid.
            Entry::Occupied(slot) if slot.get().0 == generation => {
                self.cache_hits += 1;
                (slot.get().1, LookupPath::CacheHit)
            }
            slot => {
                self.cache_misses += 1;
                self.megaflow_probes += Self::megaflow_masks(&self.index) as u64;
                let Some((idx, path)) = Self::classify(&self.index, &key) else {
                    self.misses += 1;
                    return None;
                };
                match path {
                    LookupPath::ExactHit => self.exact_hits += 1,
                    _ => self.megaflow_hits += 1,
                }
                if full {
                    self.cache.clear();
                    self.cache.insert(class, (generation, idx));
                } else {
                    slot.insert_entry((generation, idx));
                }
                (idx, path)
            }
        };
        let entry = &mut self.rules[idx].entry;
        entry.packet_count += 1;
        entry.byte_count += bytes as u64;
        Some((idx, path))
    }

    /// Ghost lookup: the same decision [`FlowTable::lookup`] takes —
    /// generation-checked microflow probe under the same `key & union`
    /// projection, else the mask tables — with *zero* observable side
    /// effects: no stats, no entry packet/byte counters, no
    /// microflow-cache insertion, no probe effort accounting. (`&mut`
    /// only because a stale index may need rebuilding.)
    pub fn lookup_ghost(&mut self, key: &PacketKey) -> Option<LookupHit> {
        let (idx, path) = self.lookup_ghost_index(key)?;
        Some(self.hit(idx, path))
    }

    /// [`FlowTable::lookup_ghost`] in the index-returning form of
    /// [`FlowTable::lookup_index`].
    pub(crate) fn lookup_ghost_index(&mut self, key: &PacketKey) -> Option<(usize, LookupPath)> {
        self.ensure_index();
        let key = key.pack();
        match self.cache.get(&key.and(&self.union)) {
            Some(&(generation, idx)) if generation == self.generation => {
                Some((idx, LookupPath::CacheHit))
            }
            _ => Self::classify(&self.index, &key),
        }
    }

    /// The entry a lookup resolved to.
    pub(crate) fn entry(&self, idx: usize) -> &FlowEntry {
        &self.rules[idx].entry
    }

    fn hit(&self, idx: usize, path: LookupPath) -> LookupHit {
        let entry = self.entry(idx);
        LookupHit {
            actions: Arc::clone(&entry.actions),
            path,
            cookie: entry.cookie,
            priority: entry.priority,
        }
    }

    /// Find entries matching a predicate over (priority, match).
    pub fn find(&self, priority: u16, matches: &FlowMatch) -> Option<&FlowEntry> {
        self.entries()
            .find(|e| e.priority == priority && &e.matches == matches)
    }

    /// Iterate entries in match order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.rules.iter().map(|r| &r.entry)
    }

    /// Sum of packet counters (for stats endpoints).
    pub fn total_packets(&self) -> u64 {
        self.entries().map(|e| e.packet_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowAction, VlanSpec};
    use crate::lsi::PortNo;
    use un_packet::ethernet::MacAddr;
    use un_packet::Ipv4Cidr;

    fn key(port: u32) -> PacketKey {
        PacketKey {
            in_port: PortNo(port),
            eth_src: MacAddr::ZERO,
            eth_dst: MacAddr::ZERO,
            eth_type: 0x0800,
            vlan: None,
            ip_src: None,
            ip_dst: None,
            ip_proto: None,
            l4_src: None,
            l4_dst: None,
            fwmark: 0,
        }
    }

    fn entry(prio: u16, port: Option<u32>, out: u32) -> FlowEntry {
        let m = match port {
            Some(p) => FlowMatch::in_port(PortNo(p)),
            None => FlowMatch::any(),
        };
        FlowEntry::new(prio, m, vec![FlowAction::Output(PortNo(out))])
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new();
        t.insert(entry(1, None, 99)); // default
        t.insert(entry(10, Some(1), 2));
        let LookupHit { actions, .. } = t.lookup(&key(1), 100).unwrap();
        assert_eq!(*actions, [FlowAction::Output(PortNo(2))]);
        let LookupHit { actions, .. } = t.lookup(&key(5), 100).unwrap();
        assert_eq!(*actions, [FlowAction::Output(PortNo(99))]);
    }

    #[test]
    fn equal_priority_first_inserted_wins() {
        let mut t = FlowTable::new();
        t.insert(entry(5, Some(1), 10));
        t.insert(entry(5, Some(1), 20));
        let LookupHit { actions, .. } = t.lookup(&key(1), 1).unwrap();
        assert_eq!(*actions, [FlowAction::Output(PortNo(10))]);
    }

    /// The microflow cache takes hits on a repeating flow — so the
    /// fast path cannot silently rot.
    #[test]
    fn cache_hit_after_miss_and_invalidation() {
        let mut t = FlowTable::new();
        t.insert(entry(1, Some(1), 2));
        let LookupHit { path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_eq!(path, LookupPath::ExactHit, "in-port masks a whole field");
        let LookupHit { path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_eq!(path, LookupPath::CacheHit);
        assert_eq!(t.cache_hits, 1);

        // Any modification invalidates (via the generation stamp).
        t.insert(entry(9, Some(1), 3));
        let LookupHit { actions, path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_ne!(path, LookupPath::CacheHit);
        assert_eq!(*actions, [FlowAction::Output(PortNo(3))]);
    }

    /// Wildcard-heavy traffic resolves through the megaflow mask
    /// tables, never a scan over the table's entries.
    #[test]
    fn wildcard_entry_takes_megaflow_path() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any().with_ip_dst(Ipv4Cidr::new("10.0.0.0".parse().unwrap(), 8));
        t.insert(FlowEntry::new(3, m, vec![FlowAction::Output(PortNo(7))]));
        let mut k = key(1);
        k.ip_dst = Some("10.1.2.3".parse().unwrap());
        let LookupHit { path, .. } = t.lookup(&k, 1).unwrap();
        assert_eq!(path, LookupPath::MegaflowHit);
        assert_eq!(t.megaflow_hits, 1);
        assert_eq!(t.wildcard_hits, 0, "no linear fallback anymore");
        // Second lookup of the same key is cached.
        let LookupHit { path, .. } = t.lookup(&k, 1).unwrap();
        assert_eq!(path, LookupPath::CacheHit);
    }

    #[test]
    fn megaflow_probe_count_is_masks_not_entries() {
        let mut t = FlowTable::new();
        // 64 /24 entries + 64 /16 entries: 128 wildcard rules, 2 masks.
        for i in 0..64u32 {
            let net: std::net::Ipv4Addr = u32::to_be_bytes(0x0a00_0000 | (i << 8)).into();
            let m = FlowMatch::any().with_ip_dst(Ipv4Cidr::new(net, 24));
            t.insert(FlowEntry::new(5, m, vec![FlowAction::Output(PortNo(i))]));
            let net16: std::net::Ipv4Addr = u32::to_be_bytes(0xac10_0000 | (i << 16)).into();
            let m = FlowMatch::any().with_ip_dst(Ipv4Cidr::new(net16, 16));
            t.insert(FlowEntry::new(4, m, vec![FlowAction::Output(PortNo(i))]));
        }
        assert_eq!(t.megaflow_mask_count(), 2);
        let before = t.megaflow_probes;
        // Distinct keys so the microflow cache never short-circuits.
        for i in 0..32u32 {
            let mut k = key(1);
            k.ip_dst = Some(u32::to_be_bytes(0x0a00_0005 | (i << 8)).into());
            let LookupHit { path, .. } = t.lookup(&k, 1).unwrap();
            assert_eq!(path, LookupPath::MegaflowHit);
        }
        assert_eq!(
            t.megaflow_probes - before,
            32 * 2,
            "each classification probes once per distinct mask"
        );
    }

    #[test]
    fn any_tagged_vlan_is_megaflow_indexed() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any().with_vlan(VlanSpec::AnyTagged);
        t.insert(FlowEntry::new(3, m, vec![FlowAction::Output(PortNo(7))]));
        let mut k = key(1);
        k.vlan = Some(42);
        let LookupHit { path, .. } = t.lookup(&k, 1).unwrap();
        assert_eq!(path, LookupPath::MegaflowHit);
        // An untagged frame must not match the tagged-any entry.
        assert!(t.lookup(&key(1), 1).is_none());
    }

    #[test]
    fn megaflow_entry_mutation_invalidates_index() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any().with_ip_dst(Ipv4Cidr::new("10.0.0.0".parse().unwrap(), 8));
        t.insert(FlowEntry::new(3, m, vec![FlowAction::Output(PortNo(7))]).with_cookie(0xAA));
        let mut k = key(1);
        k.ip_dst = Some("10.1.2.3".parse().unwrap());
        assert!(t.lookup(&k, 1).is_some());
        t.remove_by_cookie(0xAA);
        assert!(
            t.lookup(&k, 1).is_none(),
            "deleted wildcard rule must not serve from megaflow or microflow"
        );
    }

    #[test]
    fn exact_and_wildcard_priority_interleave() {
        let mut t = FlowTable::new();
        // Wildcard /8 at high priority beats an exact in-port entry.
        let wide = FlowMatch::any().with_ip_dst(Ipv4Cidr::new("10.0.0.0".parse().unwrap(), 8));
        t.insert(FlowEntry::new(9, wide, vec![FlowAction::Output(PortNo(1))]));
        t.insert(entry(5, Some(4), 2));
        let mut k = key(4);
        k.ip_dst = Some("10.9.9.9".parse().unwrap());
        let LookupHit { actions, .. } = t.lookup(&k, 1).unwrap();
        assert_eq!(*actions, [FlowAction::Output(PortNo(1))]);
        // Non-10/8 traffic falls through to the exact entry.
        let mut k2 = key(4);
        k2.ip_dst = Some("172.16.0.1".parse().unwrap());
        let LookupHit { actions, path, .. } = t.lookup(&k2, 1).unwrap();
        assert_eq!(*actions, [FlowAction::Output(PortNo(2))]);
        assert_eq!(path, LookupPath::ExactHit);
    }

    #[test]
    fn slash32_prefix_is_exact_indexed() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any().with_ip_dst(Ipv4Cidr::new("10.0.0.9".parse().unwrap(), 32));
        t.insert(FlowEntry::new(2, m, vec![FlowAction::Output(PortNo(3))]));
        let mut k = key(1);
        k.ip_dst = Some("10.0.0.9".parse().unwrap());
        let LookupHit { path, .. } = t.lookup(&k, 1).unwrap();
        assert_eq!(path, LookupPath::ExactHit);
        k.ip_dst = Some("10.0.0.10".parse().unwrap());
        assert!(t.lookup(&k, 1).is_none());
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.insert(entry(1, Some(1), 2));
        t.lookup(&key(1), 100);
        t.lookup(&key(1), 50);
        let e = t.entries().next().unwrap();
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 150);
        assert_eq!(t.total_packets(), 2);
        let s = t.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.exact_hits, 1);
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn remove_by_cookie() {
        let mut t = FlowTable::new();
        t.insert(entry(1, Some(1), 2).with_cookie(0xAA));
        t.insert(entry(2, Some(2), 3).with_cookie(0xAA));
        t.insert(entry(3, Some(3), 4).with_cookie(0xBB));
        assert_eq!(t.remove_by_cookie(0xAA), 2);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(&key(1), 1).is_none());
        assert!(t.lookup(&key(3), 1).is_some());
    }

    #[test]
    fn removal_invalidates_cached_decision() {
        let mut t = FlowTable::new();
        t.insert(entry(5, Some(1), 2).with_cookie(0xAA));
        t.insert(entry(1, None, 99));
        t.lookup(&key(1), 1); // caches → port 2
        t.lookup(&key(1), 1);
        assert_eq!(t.cache_hits, 1);
        t.remove_by_cookie(0xAA);
        let LookupHit { actions, path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_ne!(path, LookupPath::CacheHit, "stale decision must not serve");
        assert_eq!(*actions, [FlowAction::Output(PortNo(99))]);
    }

    /// Decision (a) of the packed-key design: packet headers are
    /// attacker-chosen, so every map is keyed by its own `RandomState` —
    /// two tables built from the same rules hash the same key to
    /// different values, in the cache and in the mask tables alike.
    #[test]
    fn tables_are_keyed_not_sharing_a_seed() {
        use std::hash::BuildHasher;
        let build = || {
            let mut t = FlowTable::new();
            t.insert(entry(1, Some(1), 2));
            assert!(t.lookup(&key(1), 1).is_some());
            t
        };
        let (a, b) = (build(), build());
        let k = key(1).pack();
        assert_ne!(a.cache.hasher().hash_one(k), b.cache.hasher().hash_one(k));
        let masked = k.and(&a.index[0].mask);
        assert_ne!(
            a.index[0].map.hasher().hash_one(masked),
            b.index[0].map.hasher().hash_one(masked)
        );
    }

    #[test]
    fn table_miss_returns_none() {
        let mut t = FlowTable::new();
        t.insert(entry(1, Some(7), 2));
        assert!(t.lookup(&key(1), 1).is_none());
        assert_eq!(t.cache_misses, 1);
    }

    #[test]
    fn find_locates_exact_entry() {
        let mut t = FlowTable::new();
        t.insert(entry(4, Some(1), 2));
        assert!(t.find(4, &FlowMatch::in_port(PortNo(1))).is_some());
        assert!(t.find(5, &FlowMatch::in_port(PortNo(1))).is_none());
    }
}
