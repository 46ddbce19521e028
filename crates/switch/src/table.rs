//! A priority-ordered flow table with a memoised two-stage fast path.
//!
//! Every classifier structure here speaks [`PackedKey`] — the packet's
//! header fields as five words (layout in [`crate::key`]). A flow
//! entry's match is compiled once, at [`FlowTable::insert`], into
//! `(mask, value)` words with "key matches ⇔ `key & mask == value`".
//! The frame's key is extracted as deep as the table's union (stage 1)
//! reads; [`PacketKey`] is the reference, packed for the public
//! [`FlowTable::lookup`]. Every stage reads only `key & union`
//! or `key & mask`, with `mask ⊆ union`, and the two keys agree on
//! those bits, so they take the same decision.
//! Lookup tries three stages, cheapest first:
//!
//! 0. **Memo** — the `(generation, class, entry index)` of the last
//!    class a real lookup resolved, `class` being `key & union` (stage
//!    1). A lookup of the same class at the same generation is answered
//!    by one five-word compare, without hashing, and counts as the
//!    cache hit it is: the memo only ever holds what the microflow
//!    cache holds at that generation, the recycle included. A steering
//!    table sees long runs of one class — the node drains one
//!    `(LSI, in_port)` burst at a time — so most warm lookups stop
//!    here. It is Open vSwitch's exact-match cache in its smallest
//!    form; ghost lookups read it and never write it.
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
//!    bit) reports [`LookupPath::MegaflowHit`]. The index is kept
//!    per rule: a mask table names its rules by their stable slot with
//!    their match-order key, so an insert or a removal touches only the
//!    table of that rule's mask. A value several rules carry keeps the
//!    best one in the map and the others, in order, beside it; when the
//!    best leaves, the next takes over. A table is dropped when its last
//!    rule leaves, and only then is the union recomputed. Every
//!    mutation still advances the generation, so no cached decision
//!    outlives the rule set it was taken under.
//!
//! Each map probe the memo does not answer is one SipHash pass over the
//! five words, keyed per map by `RandomState`: packet headers are
//! attacker-chosen, so an unkeyed hash over them would let a sender aim
//! every flow at one bucket. The memo does not weaken that: a sender
//! who alternates classes pays one compare more per lookup, never a
//! collision chain. The microflow probe and the cache insert that
//! follows a fall-through share one hash through the map's entry API.
//!
//! Every rule carries an order key — priority descending, then
//! insertion order — so "first match wins" reduces to "smallest key
//! wins" across all mask tables. The reference they are tested and
//! benchmarked against — a first-match scan over [`FlowTable::entries`]
//! — lives with its users (`tests/properties.rs`), not here.
//!
//! Beside the lookup index the table keeps its rules by
//! [`TrafficClass`] — the `(in_port, VLAN)` a rule pins — each class's
//! rules in match order, and a bounded record of which classes each
//! mutation touched. A reader that audits the table class by class
//! (the static verifier, on every LSI's table) asks
//! [`FlowTable::changed_since`] the generation it last saw and reads
//! only those classes back ([`FlowTable::class_entries`]); a writer
//! takes one entry out by its class ([`FlowTable::remove_first`])
//! instead of filtering the whole table. Every mutation goes through
//! the record, so no writer can change a class unseen.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use un_packet::Packet;

use crate::flow::{CompiledMatch, FlowAction, FlowEntry, FlowMatch, TrafficClass};
use crate::key::{PackedKey, PacketKey};
use crate::lsi::PortNo;

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

/// A rule's place in match order, smaller first: the high 16 bits are
/// the priority inverted, the rest the table's insertion sequence.
type Order = u64;

/// A rule as a mask table names it: its order key and its stable slot.
type Ranked = (Order, usize);

/// All entries sharing one mask, hashed by their value words. Per value
/// the map holds the best entry (smallest order key); the others that
/// carry the same value wait in `shadowed`, best first.
#[derive(Debug)]
struct MaskTable {
    mask: PackedKey,
    /// The mask covers only whole fields ([`CompiledMatch::exact`]).
    exact: bool,
    map: HashMap<PackedKey, Ranked>,
    /// Per value, the entries its winner hides (empty, and
    /// unallocated, unless two rules share a match).
    shadowed: HashMap<PackedKey, Vec<Ranked>>,
    /// Entries under this mask, winners and shadowed alike.
    rules: usize,
}

impl MaskTable {
    fn add(&mut self, value: PackedKey, rank: Ranked) {
        self.rules += 1;
        let loser = match self.map.entry(value) {
            Entry::Vacant(slot) => {
                slot.insert(rank);
                return;
            }
            Entry::Occupied(mut best) if rank.0 < best.get().0 => {
                std::mem::replace(best.get_mut(), rank)
            }
            Entry::Occupied(_) => rank,
        };
        let waiting = self.shadowed.entry(value).or_default();
        let at = waiting.partition_point(|r| r.0 < loser.0);
        waiting.insert(at, loser);
    }

    /// Take `slot`'s entry of `value` out; a winner's next-best takes
    /// over.
    fn remove(&mut self, value: PackedKey, slot: usize) {
        self.rules -= 1;
        let Entry::Occupied(mut best) = self.map.entry(value) else {
            unreachable!("every rule's value is indexed");
        };
        let Some(waiting) = self.shadowed.get_mut(&value) else {
            debug_assert_eq!(best.get().1, slot, "a lone entry is its value's winner");
            best.remove();
            return;
        };
        if best.get().1 == slot {
            *best.get_mut() = waiting.remove(0);
        } else {
            waiting.retain(|r| r.1 != slot);
        }
        if waiting.is_empty() {
            self.shadowed.remove(&value);
        }
    }
}

/// Bound on the microflow cache before it is recycled wholesale; stale
/// generations are dropped lazily, so without a bound a long-lived
/// churning table would accumulate dead keys.
const CACHE_CAP: usize = 8_192;

/// The fewest class changes the table's record keeps; it keeps up to
/// twice the table's size beyond that.
const CHANGES_MIN: usize = 16;

/// One installed entry with its match compiled at insert time.
#[derive(Debug)]
struct Rule {
    entry: FlowEntry,
    compiled: CompiledMatch,
    order: Order,
    class: TrafficClass,
}

/// A rule as the class index names it, by class key
/// ([`TrafficClass::key`]) and slot; the index is sorted by class and
/// then the slot's order key, so a class's rules are one run, in match
/// order.
type Classed = (u64, u32);

/// A single flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Installed rules by stable slot; a freed slot is `None` until an
    /// insert takes it again.
    slots: Vec<Option<Rule>>,
    /// Freed slots.
    free: Vec<usize>,
    /// Live slots in match order (priority desc, insertion order).
    order: Vec<usize>,
    /// Insertions since creation: the low bits of the next order key.
    seq: u64,
    /// Advanced on *every* mutation, including removals; stamps and
    /// invalidates cache entries and the memo.
    generation: u64,
    cache: HashMap<PackedKey, (u64, usize)>,
    /// `(generation, class, slot)` of the last class a real lookup
    /// resolved; always a pair `cache` holds at that generation.
    memo: Option<(u64, PackedKey, usize)>,
    /// One mask table per distinct mask of the installed rules.
    index: Vec<MaskTable>,
    /// OR of every rule's mask — the bits any rule can read, and so the
    /// projection the cache is keyed by.
    union: PackedKey,
    /// Every live rule by traffic class.
    by_class: Vec<Classed>,
    /// `(generation, class)` per class a mutation touched, oldest first;
    /// complete after generation `changes_from`.
    changes: VecDeque<(u64, TrafficClass)>,
    /// The generation up to which `changes` may have dropped records.
    changes_from: u64,
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
    /// Cache hits the memo answered without hashing, since creation
    /// (a subset of `cache_hits`).
    pub memo_hits: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
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

    /// Number of distinct megaflow (non-exact) masks in the index.
    /// Lookup cost for wildcard traffic is one hash probe per mask,
    /// regardless of how many entries share them.
    pub fn megaflow_mask_count(&self) -> usize {
        Self::megaflow_masks(&self.index)
    }

    fn megaflow_masks(index: &[MaskTable]) -> usize {
        index.iter().filter(|t| !t.exact).count()
    }

    fn rule(&self, slot: usize) -> &Rule {
        self.slots[slot].as_ref().expect("a live slot")
    }

    /// The table's generation: advanced on every mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record that a mutation stamped `generation` touched `class`,
    /// dropping the oldest records past the bound. The record grows to
    /// its bound at once, so it allocates again only when the table
    /// grows past its largest size.
    fn log(&mut self, generation: u64, class: TrafficClass) {
        let cap = CHANGES_MIN.max(2 * self.order.len());
        if self.changes.capacity() < cap {
            self.changes.reserve(cap - self.changes.len());
        }
        while self.changes.len() >= cap {
            let (dropped, _) = self.changes.pop_front().expect("a full record");
            self.changes_from = dropped;
        }
        self.changes.push_back((generation, class));
    }

    /// The classes whose rules changed after generation `generation`,
    /// in the order they changed (a class changed twice is listed
    /// twice); `None` when the record no longer reaches back that far,
    /// and every class must be taken as changed.
    pub fn changed_since(
        &self,
        generation: u64,
    ) -> Option<impl Iterator<Item = TrafficClass> + '_> {
        if generation < self.changes_from {
            return None;
        }
        let from = self.changes.partition_point(|(g, _)| *g <= generation);
        Some(self.changes.range(from..).map(|(_, class)| *class))
    }

    /// Where a rule of `class` with order key `order` sits in `by_class`.
    fn classed_at(&self, class: TrafficClass, order: Order) -> usize {
        let run = self.class_range(class);
        let before = |&(_, slot): &Classed| self.rule(slot as usize).order < order;
        run.start + self.by_class[run].partition_point(before)
    }

    /// The index range of `class`'s rules in `by_class`.
    fn class_range(&self, class: TrafficClass) -> std::ops::Range<usize> {
        let key = class.key();
        let lo = self.by_class.partition_point(|(c, _)| *c < key);
        let hi = lo + self.by_class[lo..].partition_point(|(c, _)| *c == key);
        lo..hi
    }

    /// The position of the rule with order key `order` in match order.
    fn position(&self, order: Order) -> usize {
        self.order.partition_point(|&s| self.rule(s).order < order)
    }

    /// The entries of `class` in match order.
    pub fn class_rules(&self, class: TrafficClass) -> impl Iterator<Item = &FlowEntry> + '_ {
        let rules = &self.by_class[self.class_range(class)];
        rules
            .iter()
            .map(|&(_, slot)| &self.rule(slot as usize).entry)
    }

    /// The entries of `class` in match order, each with its position in
    /// the whole table's match order ([`FlowTable::entries`]).
    pub fn class_entries(
        &self,
        class: TrafficClass,
    ) -> impl Iterator<Item = (usize, &FlowEntry)> + '_ {
        let rules = &self.by_class[self.class_range(class)];
        rules.iter().map(|&(_, slot)| {
            let rule = self.rule(slot as usize);
            (self.position(rule.order), &rule.entry)
        })
    }

    /// The entry at `position` in match order ([`FlowTable::entries`]).
    pub fn entry_at(&self, position: usize) -> Option<&FlowEntry> {
        let slot = *self.order.get(position)?;
        Some(&self.rule(slot).entry)
    }

    /// Whether any entry is of `class`.
    pub fn has_class(&self, class: TrafficClass) -> bool {
        !self.class_range(class).is_empty()
    }

    /// The classes with an entry on port `port`, its whole-port class
    /// first.
    pub fn port_classes(&self, port: PortNo) -> impl Iterator<Item = TrafficClass> + '_ {
        let (first, end) = TrafficClass::port_keys(port);
        let lo = self.by_class.partition_point(|(c, _)| *c < first);
        let run = &self.by_class[lo..];
        let run = &run[..run.partition_point(|(c, _)| *c < end)];
        let starts = run.iter().enumerate();
        starts
            .filter(|(i, (key, _))| *i == 0 || run[i - 1].0 != *key)
            .map(|(_, (key, _))| TrafficClass::from_key(*key))
    }

    /// Install an entry, keeping priority order. Invalidates the cache.
    pub fn insert(&mut self, entry: FlowEntry) {
        self.generation += 1;
        let order = (u64::from(!entry.priority) << 48) | self.seq;
        self.seq += 1;
        let class = TrafficClass::of(&entry.matches);
        let compiled = entry.matches.compile();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        // After every entry with priority >= the new one's: the new key
        // is the largest of its priority.
        let pos = self.order.partition_point(|&s| self.rule(s).order < order);
        self.order.insert(pos, slot);
        let CompiledMatch { mask, value, exact } = compiled;
        let at = match self.index.iter().position(|t| t.mask == mask) {
            Some(at) => at,
            None => {
                self.union = self.union.or(&mask);
                self.index.push(MaskTable {
                    mask,
                    exact,
                    map: HashMap::new(),
                    shadowed: HashMap::new(),
                    rules: 0,
                });
                self.index.len() - 1
            }
        };
        self.index[at].add(value, (order, slot));
        let at = self.classed_at(class, order);
        self.by_class.insert(at, (class.key(), slot as u32));
        self.slots[slot] = Some(Rule {
            entry,
            compiled,
            order,
            class,
        });
        self.log(self.generation, class);
    }

    /// Remove all entries with the given cookie; returns how many.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        self.remove_where(|e| e.cookie == cookie)
    }

    /// Take the rule in `slot` out of the lookup and class indexes and
    /// free its slot; the caller takes it out of `order`.
    fn unlink(&mut self, slot: usize) -> TrafficClass {
        let (class, order) = (self.rule(slot).class, self.rule(slot).order);
        let at = self.classed_at(class, order);
        debug_assert_eq!(self.by_class[at], (class.key(), slot as u32));
        self.by_class.remove(at);
        let rule = self.slots[slot].take().expect("a live slot");
        let CompiledMatch { mask, value, .. } = rule.compiled;
        let at = self.index.iter().position(|t| t.mask == mask);
        let at = at.expect("every rule's mask is indexed");
        self.index[at].remove(value, slot);
        if self.index[at].rules == 0 {
            self.index.swap_remove(at);
            self.union = self
                .index
                .iter()
                .fold(PackedKey::default(), |u, t| u.or(&t.mask));
        }
        self.free.push(slot);
        rule.class
    }

    /// Remove every entry `gone` picks; returns how many. Each one
    /// leaves only its own mask table and its class.
    pub fn remove_where(&mut self, mut gone: impl FnMut(&FlowEntry) -> bool) -> usize {
        let (stamp, mut removed, mut at) = (self.generation + 1, 0, 0);
        while let Some(&slot) = self.order.get(at) {
            if !gone(&self.rule(slot).entry) {
                at += 1;
                continue;
            }
            self.order.remove(at);
            let class = self.unlink(slot);
            self.log(stamp, class);
            removed += 1;
        }
        if removed > 0 {
            self.generation = stamp;
        }
        removed
    }

    /// Remove the first entry of `class`, in match order, that `gone`
    /// picks — found through the class index, so the table's other
    /// classes are never read. Returns whether one went.
    pub fn remove_first(
        &mut self,
        class: TrafficClass,
        mut gone: impl FnMut(&FlowEntry) -> bool,
    ) -> bool {
        let range = self.class_range(class);
        let Some(&(_, slot)) = self.by_class[range]
            .iter()
            .find(|&&(_, slot)| gone(&self.rule(slot as usize).entry))
        else {
            return false;
        };
        let slot = slot as usize;
        self.generation += 1;
        let at = self.position(self.rule(slot).order);
        self.order.remove(at);
        self.unlink(slot);
        self.log(self.generation, class);
        true
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.index.clear();
        self.by_class.clear();
        self.changes.clear();
        self.union = PackedKey::default();
        self.generation += 1;
        self.changes_from = self.generation;
    }

    /// Find the winning entry's slot for `key` and which kind of mask
    /// table produced it; `None` on table miss.
    fn classify(index: &[MaskTable], key: &PackedKey) -> Option<(usize, LookupPath)> {
        // The smallest order key is the best (priority desc, insertion
        // asc).
        let mut best: Option<(Order, usize, bool)> = None;
        for table in index {
            if let Some(&(order, slot)) = table.map.get(&key.and(&table.mask)) {
                if best.is_none_or(|(b, _, _)| order < b) {
                    best = Some((order, slot, table.exact));
                }
            }
        }
        best.map(|(_, slot, exact)| {
            let path = if exact {
                LookupPath::ExactHit
            } else {
                LookupPath::MegaflowHit
            };
            (slot, path)
        })
    }

    /// The key of `pkt` arriving on `in_port`, parsed only as deep as
    /// the installed rules read ([`PackedKey::extract`]).
    pub(crate) fn key_of(&self, in_port: PortNo, pkt: &Packet) -> PackedKey {
        PackedKey::extract(in_port, pkt, &self.union)
    }

    /// Look up the best entry for `key`, updating its counters by
    /// `bytes`. Returns the matched actions plus provenance (stage,
    /// cookie, priority), or `None` on table miss.
    pub fn lookup(&mut self, key: &PacketKey, bytes: usize) -> Option<LookupHit> {
        let (idx, path) = self.lookup_index(&key.pack(), bytes)?;
        Some(self.hit(idx, path))
    }

    /// [`FlowTable::lookup`] without the [`LookupHit`]: the winning
    /// rule's slot (valid for [`FlowTable::entry`] until the next
    /// mutation) and the stage that found it, so a caller can run the
    /// entry's actions off a borrow instead of a cloned `Arc`.
    pub(crate) fn lookup_index(
        &mut self,
        key: &PackedKey,
        bytes: usize,
    ) -> Option<(usize, LookupPath)> {
        let generation = self.generation;
        // What the rules can tell apart about this packet.
        let class = key.and(&self.union);
        if let Some(idx) = self.memo_of(&class) {
            self.memo_hits += 1;
            self.cache_hits += 1;
            return Some(self.count(idx, bytes, LookupPath::CacheHit));
        }
        let full = self.cache.len() >= CACHE_CAP;
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
                let Some((idx, path)) = Self::classify(&self.index, key) else {
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
        // The map holds `class` at this generation now, hit or insert.
        self.memo = Some((generation, class, idx));
        Some(self.count(idx, bytes, path))
    }

    /// The memo's slot if it resolved `class` at the current generation.
    fn memo_of(&self, class: &PackedKey) -> Option<usize> {
        match self.memo {
            Some((generation, memo, idx)) if generation == self.generation && memo == *class => {
                Some(idx)
            }
            _ => None,
        }
    }

    /// Book one resolved lookup of `bytes` on the entry in slot `idx`.
    fn count(&mut self, idx: usize, bytes: usize, path: LookupPath) -> (usize, LookupPath) {
        let rule = self.slots[idx].as_mut().expect("a live slot");
        rule.entry.packet_count += 1;
        rule.entry.byte_count += bytes as u64;
        (idx, path)
    }

    /// Ghost lookup: the same decision [`FlowTable::lookup`] takes —
    /// the memo, then a generation-checked microflow probe under the
    /// same `key & union` projection, else the mask tables — with
    /// *zero* observable side effects: no stats, no entry packet/byte
    /// counters, no microflow-cache insertion or memo write, no probe
    /// effort accounting.
    pub fn lookup_ghost(&self, key: &PacketKey) -> Option<LookupHit> {
        let (idx, path) = self.lookup_ghost_index(&key.pack())?;
        Some(self.hit(idx, path))
    }

    /// [`FlowTable::lookup_ghost`] in the slot-returning form of
    /// [`FlowTable::lookup_index`].
    pub(crate) fn lookup_ghost_index(&self, key: &PackedKey) -> Option<(usize, LookupPath)> {
        let class = key.and(&self.union);
        if let Some(idx) = self.memo_of(&class) {
            return Some((idx, LookupPath::CacheHit));
        }
        match self.cache.get(&class) {
            Some(&(generation, idx)) if generation == self.generation => {
                Some((idx, LookupPath::CacheHit))
            }
            _ => Self::classify(&self.index, key),
        }
    }

    /// The entry a lookup resolved to.
    pub(crate) fn entry(&self, idx: usize) -> &FlowEntry {
        &self.rule(idx).entry
    }

    /// The [`LookupHit`] for a resolved slot.
    pub(crate) fn hit(&self, idx: usize, path: LookupPath) -> LookupHit {
        let entry = self.entry(idx);
        LookupHit {
            actions: Arc::clone(&entry.actions),
            path,
            cookie: entry.cookie,
            priority: entry.priority,
        }
    }

    /// The first entry, in match order, with `priority` and `matches`,
    /// found through the class index.
    pub fn find(&self, priority: u16, matches: &FlowMatch) -> Option<&FlowEntry> {
        self.class_entries(TrafficClass::of(matches))
            .map(|(_, e)| e)
            .find(|e| e.priority == priority && &e.matches == matches)
    }

    /// Iterate entries in match order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.order.iter().map(|&slot| &self.rule(slot).entry)
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

    /// A match several rules share keeps every one of them: removing
    /// the winner reveals the next by priority, then insertion order,
    /// and the union shrinks only when a mask's last rule leaves.
    #[test]
    fn a_removed_winner_reveals_the_next_duplicate() {
        let mut t = FlowTable::new();
        for (prio, out, cookie) in [(5, 10, 0xA), (9, 20, 0xB), (5, 30, 0xC), (9, 40, 0xD)] {
            t.insert(entry(prio, Some(1), out).with_cookie(cookie));
        }
        let wide = FlowMatch::any().with_ip_dst(Ipv4Cidr::new("10.0.0.0".parse().unwrap(), 8));
        t.insert(FlowEntry::new(1, wide, vec![FlowAction::Output(PortNo(99))]).with_cookie(0xE));
        let both = t.union;
        let winner = |t: &mut FlowTable| {
            let hit = t.lookup(&key(1), 1)?;
            match *hit.actions {
                [FlowAction::Output(PortNo(out))] => Some(out),
                _ => None,
            }
        };
        assert_eq!(winner(&mut t), Some(20));
        // A hidden duplicate leaves: the winner stands.
        assert_eq!(t.remove_by_cookie(0xD), 1);
        assert_eq!(winner(&mut t), Some(20));
        // The winner leaves: the next-best value holder takes over.
        assert_eq!(t.remove_by_cookie(0xB), 1);
        assert_eq!(winner(&mut t), Some(10));
        assert_eq!(t.remove_by_cookie(0xA), 1);
        assert_eq!(winner(&mut t), Some(30));
        assert_eq!(t.union, both, "the in-port mask still has a rule");
        assert_eq!(t.index.len(), 2);
        // The mask's last rule leaves: its table goes, the union shrinks.
        assert_eq!(t.remove_by_cookie(0xC), 1);
        assert_eq!(winner(&mut t), None);
        assert_eq!(t.index.len(), 1);
        assert_eq!(t.union, t.index[0].mask);
        assert_ne!(t.union, both);
        assert_eq!(t.remove_by_cookie(0xE), 1);
        assert_eq!((t.union, t.index.len()), (PackedKey::default(), 0));
    }

    #[test]
    fn table_miss_returns_none() {
        let mut t = FlowTable::new();
        t.insert(entry(1, Some(7), 2));
        assert!(t.lookup(&key(1), 1).is_none());
        assert_eq!(t.cache_misses, 1);
    }

    /// The class index answers what a filter over the whole table
    /// would — each class's entries in match order at their table
    /// positions — after inserts, single removals, bulk removals and a
    /// clear; the change record names every class a mutation touched,
    /// and says so when it no longer reaches back.
    #[test]
    fn the_class_index_and_its_record_follow_every_mutation() {
        let tagged = |port: u32, vid: Option<VlanSpec>, prio: u16, cookie: u64| {
            let mut m = FlowMatch::in_port(PortNo(port));
            m.vlan = vid;
            FlowEntry::new(prio, m, vec![FlowAction::Output(PortNo(9))]).with_cookie(cookie)
        };
        let check = |t: &FlowTable| {
            let all: Vec<(usize, &FlowEntry)> = t.entries().enumerate().collect();
            let mut classes: Vec<TrafficClass> = all
                .iter()
                .map(|(_, e)| TrafficClass::of(&e.matches))
                .collect();
            classes.sort_unstable();
            classes.dedup();
            let mut seen = 0;
            for class in classes {
                let want: Vec<_> = all
                    .iter()
                    .filter(|(_, e)| TrafficClass::of(&e.matches) == class)
                    .map(|(at, e)| (*at, e.cookie))
                    .collect();
                let have: Vec<_> = t
                    .class_entries(class)
                    .map(|(at, e)| (at, e.cookie))
                    .collect();
                assert_eq!(have, want, "{class:?}");
                seen += have.len();
            }
            assert_eq!(seen, t.len());
        };
        let mut t = FlowTable::new();
        let start = t.generation();
        for (i, (port, vid)) in [
            (1, Some(VlanSpec::Id(7))),
            (1, Some(VlanSpec::Id(8))),
            (1, None),
            (2, Some(VlanSpec::Untagged)),
            (1, Some(VlanSpec::Id(7))),
        ]
        .into_iter()
        .enumerate()
        {
            t.insert(tagged(port, vid, 10 - i as u16, i as u64));
        }
        t.insert(entry(1, None, 99).with_cookie(5));
        check(&t);
        let changed: Vec<_> = t.changed_since(start).unwrap().collect();
        assert_eq!(changed.len(), 6);
        let any1 = TrafficClass::Port(PortNo(1), crate::ClassVlan::Any);
        assert_eq!(
            t.port_classes(PortNo(1)).collect::<Vec<_>>(),
            [
                any1,
                TrafficClass::Port(PortNo(1), crate::ClassVlan::Id(7)),
                TrafficClass::Port(PortNo(1), crate::ClassVlan::Id(8)),
            ]
        );
        assert!(t
            .find(
                7,
                &FlowMatch::in_port(PortNo(1)).with_vlan(VlanSpec::Untagged)
            )
            .is_none());

        let seen = t.generation();
        let vid7 = TrafficClass::Port(PortNo(1), crate::ClassVlan::Id(7));
        assert!(t.remove_first(vid7, |e| e.cookie == 4));
        assert!(!t.remove_first(vid7, |e| e.cookie == 4), "gone already");
        assert!(
            !t.remove_first(any1, |e| e.cookie == 0),
            "not of that class"
        );
        check(&t);
        assert_eq!(t.changed_since(seen).unwrap().collect::<Vec<_>>(), [vid7]);
        assert_eq!(t.lookup(&key(1), 1).unwrap().cookie, 2, "the index agrees");

        let seen = t.generation();
        assert_eq!(t.remove_where(|e| e.cookie % 2 == 0), 2);
        check(&t);
        let mut changed: Vec<_> = t.changed_since(seen).unwrap().collect();
        changed.sort();
        assert_eq!(changed, [any1, vid7]);
        assert!(t.changed_since(t.generation()).unwrap().next().is_none());

        // Past its bound the record forgets the oldest changes, and a
        // reader that far behind is told to take every class as changed.
        let port3 = TrafficClass::Port(PortNo(3), crate::ClassVlan::Any);
        for i in 0..100 {
            t.insert(tagged(3, None, 1, 100 + i));
            assert!(t.remove_first(port3, |_| true));
        }
        t.insert(tagged(3, None, 1, 7));
        assert!(t.changed_since(seen).is_none());
        assert!(t.changed_since(t.generation() - 1).is_some());
        check(&t);
        t.clear();
        assert!(t.changed_since(seen).is_none());
        assert!(!t.has_class(port3));
    }

    /// A class's key orders as the class does, and stands for it.
    #[test]
    fn a_class_key_orders_as_its_class() {
        use crate::ClassVlan::{Any, Id, Untagged};
        let mut classes = vec![TrafficClass::Table];
        for port in [0, 1, 7, u32::MAX] {
            for vlan in [Any, Untagged, Id(0), Id(1), Id(4094), Id(u16::MAX)] {
                classes.push(TrafficClass::Port(PortNo(port), vlan));
            }
        }
        let mut by_key = classes.clone();
        by_key.sort_by_key(|c| c.key());
        classes.sort();
        assert_eq!(by_key, classes);
        for c in classes {
            assert_eq!(TrafficClass::from_key(c.key()), c);
        }
    }

    #[test]
    fn find_locates_exact_entry() {
        let mut t = FlowTable::new();
        t.insert(entry(4, Some(1), 2));
        assert!(t.find(4, &FlowMatch::in_port(PortNo(1))).is_some());
        assert!(t.find(5, &FlowMatch::in_port(PortNo(1))).is_none());
    }
}
