//! A priority-ordered flow table with a three-stage fast path.
//!
//! Lookup tries three classifiers, cheapest first:
//!
//! 1. **Microflow cache** — `PacketKey → entry index`, the moral
//!    equivalent of the Open vSwitch microflow cache. Entries are
//!    validated against the table's generation counter (the insertion
//!    sequence number, which also advances on removal), so a table
//!    mutation invalidates every cached decision without an O(cache)
//!    clear.
//! 2. **Exact-match shape tables** — entries whose match constrains
//!    only exactly-comparable fields (a port, a MAC, a /32 prefix, a
//!    specific VLAN id, …) are hash-bucketed by their *shape* (the set
//!    of constrained fields). One hash probe per distinct shape replaces
//!    the linear scan for the overwhelmingly common non-wildcard rules.
//! 3. **Megaflow tables** — the remaining entries (CIDR prefixes
//!    shorter than /32, any-tagged VLAN specs) are hash-bucketed by
//!    their *mega-mask*: the exact field set plus the source/destination
//!    prefix lengths and the tagged-any marker. The packet key is
//!    masked (IPs truncated to the prefix, VLAN presence canonicalised)
//!    and probed once per distinct mask, so a table with thousands of
//!    wildcard entries over a handful of masks costs O(#masks) per
//!    classification instead of O(#entries). Like the other two stages
//!    the index is stamped with the table generation and rebuilt lazily
//!    after any mutation, so a rule delete/modify can never serve a
//!    stale action.
//!
//! Entries are kept sorted by (priority desc, insertion seq asc), so
//! "first match wins" reduces to "smallest index wins" across all three
//! classifiers. The reference they are tested and benchmarked against —
//! a first-match scan over [`FlowTable::entries`] — lives with its
//! users (`tests/properties.rs`, the `dataplane_sweep` bench), not here.

use std::collections::HashMap;

use std::net::Ipv4Addr;

use crate::flow::{FlowEntry, FlowMatch, VlanSpec};
use crate::key::PacketKey;
use crate::lsi::PortNo;
use un_packet::ethernet::MacAddr;
use un_packet::Ipv4Cidr;

/// Result of a lookup, distinguishing the path taken (for cost charging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupPath {
    /// Served by the microflow cache.
    CacheHit,
    /// Served by a hash-bucketed exact-match shape table.
    ExactHit,
    /// Served by a mask-aware megaflow table (one probe per distinct
    /// wildcard mask).
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
    /// Clone of the matched entry's actions (cheap: small vectors).
    pub actions: Vec<crate::flow::FlowAction>,
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
    /// Fall-throughs resolved by an exact-match shape table.
    pub exact_hits: u64,
    /// Fall-throughs resolved by a mask-aware megaflow table.
    pub megaflow_hits: u64,
    /// Fall-throughs resolved by the residual wildcard linear scan
    /// (zero today: every expressible match is either exact-shaped or
    /// megaflow-maskable; the counter stays for exporters and for the
    /// day a non-maskable match field appears).
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

/// Bitmask of constrained [`FlowMatch`] fields (one bit per field).
type FieldMask = u16;

const F_IN_PORT: FieldMask = 1 << 0;
const F_ETH_SRC: FieldMask = 1 << 1;
const F_ETH_DST: FieldMask = 1 << 2;
const F_ETH_TYPE: FieldMask = 1 << 3;
const F_VLAN: FieldMask = 1 << 4;
const F_IP_SRC: FieldMask = 1 << 5;
const F_IP_DST: FieldMask = 1 << 6;
const F_IP_PROTO: FieldMask = 1 << 7;
const F_L4_SRC: FieldMask = 1 << 8;
const F_L4_DST: FieldMask = 1 << 9;
const F_FWMARK: FieldMask = 1 << 10;

/// The canonical "nothing" key that projections start from: every field
/// a shape does not constrain stays at this value on both the entry and
/// the packet side, so per-shape hash equality is exact.
const fn zero_key() -> PacketKey {
    PacketKey {
        in_port: PortNo(0),
        eth_src: MacAddr::ZERO,
        eth_dst: MacAddr::ZERO,
        eth_type: 0,
        vlan: None,
        ip_src: None,
        ip_dst: None,
        ip_proto: None,
        l4_src: None,
        l4_dst: None,
        fwmark: 0,
    }
}

/// Project a packet's key onto a shape: constrained fields are kept,
/// everything else is zeroed to the canonical value.
fn project(key: &PacketKey, mask: FieldMask) -> PacketKey {
    // Exhaustive destructuring (no `..`): a new PacketKey field must be
    // handled here before this compiles again.
    let PacketKey {
        in_port,
        eth_src,
        eth_dst,
        eth_type,
        vlan,
        ip_src,
        ip_dst,
        ip_proto,
        l4_src,
        l4_dst,
        fwmark,
    } = *key;
    let mut proj = zero_key();
    if mask & F_IN_PORT != 0 {
        proj.in_port = in_port;
    }
    if mask & F_ETH_SRC != 0 {
        proj.eth_src = eth_src;
    }
    if mask & F_ETH_DST != 0 {
        proj.eth_dst = eth_dst;
    }
    if mask & F_ETH_TYPE != 0 {
        proj.eth_type = eth_type;
    }
    if mask & F_VLAN != 0 {
        proj.vlan = vlan;
    }
    if mask & F_IP_SRC != 0 {
        proj.ip_src = ip_src;
    }
    if mask & F_IP_DST != 0 {
        proj.ip_dst = ip_dst;
    }
    if mask & F_IP_PROTO != 0 {
        proj.ip_proto = ip_proto;
    }
    if mask & F_L4_SRC != 0 {
        proj.l4_src = l4_src;
    }
    if mask & F_L4_DST != 0 {
        proj.l4_dst = l4_dst;
    }
    if mask & F_FWMARK != 0 {
        proj.fwmark = fwmark;
    }
    proj
}

/// One exact-match bucket: all entries sharing a field mask, hashed by
/// their projected key. On duplicate projections the smallest entry
/// index (= best priority, then earliest insertion) is kept.
#[derive(Debug, Default)]
struct ShapeTable {
    mask: FieldMask,
    map: HashMap<PacketKey, usize>,
}

/// Canonical VLAN-id marker used by `AnyTagged` megaflow projections.
/// VLAN ids are 12-bit, so no real tag collides with it, and entries
/// constraining a specific id live in a different mega-mask anyway.
const VLAN_ANY_MARK: u16 = 0xFFFF;

/// A megaflow mask: the exactly-constrained field set plus how the
/// non-exact fields are masked. Two wildcard entries land in the same
/// megaflow table iff their masks are identical, so lookup cost is one
/// hash probe per *distinct mask*, not per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MegaMask {
    /// Fields compared exactly (projected via [`project`]).
    exact: FieldMask,
    /// Source prefix length when `ip_src` is a CIDR shorter than /32.
    src_plen: Option<u8>,
    /// Destination prefix length when `ip_dst` is shorter than /32.
    dst_plen: Option<u8>,
    /// Entry requires a VLAN tag with any id (`VlanSpec::AnyTagged`).
    vlan_any: bool,
}

impl MegaMask {
    /// Nothing is masked: every constrained field is compared exactly,
    /// so the entry belongs in a [`ShapeTable`] keyed by `exact`.
    fn is_exact(&self) -> bool {
        self.src_plen.is_none() && self.dst_plen.is_none() && !self.vlan_any
    }
}

/// Truncate `addr` to its leading `plen` bits.
fn mask_ip(addr: Ipv4Addr, plen: u8) -> Ipv4Addr {
    let mask: u32 = if plen == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(plen))
    };
    Ipv4Addr::from(u32::from(addr) & mask)
}

/// Mask and projection (the key any matching packet must project to)
/// of an entry's match: the one place that decides how each field is
/// compared. A port, a MAC, a /32 prefix, a specific VLAN id are
/// exactly comparable; CIDR prefixes shorter than /32 and
/// `VlanSpec::AnyTagged` are masked. Total over today's `FlowMatch`,
/// and the exhaustive destructuring (no `..`) keeps it that way — a
/// new match field must be classified here before this compiles
/// again, so it can never be silently ignored by the index.
fn mega_shape(m: &FlowMatch) -> (MegaMask, PacketKey) {
    let FlowMatch {
        in_port,
        eth_src,
        eth_dst,
        eth_type,
        vlan,
        ip_src,
        ip_dst,
        ip_proto,
        l4_src,
        l4_dst,
        fwmark,
    } = m;
    let mut mask = MegaMask {
        exact: 0,
        src_plen: None,
        dst_plen: None,
        vlan_any: false,
    };
    let mut proj = zero_key();
    if let Some(p) = *in_port {
        mask.exact |= F_IN_PORT;
        proj.in_port = p;
    }
    if let Some(mac) = *eth_src {
        mask.exact |= F_ETH_SRC;
        proj.eth_src = mac;
    }
    if let Some(mac) = *eth_dst {
        mask.exact |= F_ETH_DST;
        proj.eth_dst = mac;
    }
    if let Some(t) = *eth_type {
        mask.exact |= F_ETH_TYPE;
        proj.eth_type = t;
    }
    match vlan {
        None => {}
        Some(VlanSpec::Untagged) => {
            mask.exact |= F_VLAN;
            proj.vlan = None;
        }
        Some(VlanSpec::Id(v)) => {
            mask.exact |= F_VLAN;
            proj.vlan = Some(*v);
        }
        Some(VlanSpec::AnyTagged) => {
            mask.vlan_any = true;
            proj.vlan = Some(VLAN_ANY_MARK);
        }
    }
    if let Some(cidr) = *ip_src {
        mask_cidr(
            cidr,
            F_IP_SRC,
            &mut mask.exact,
            &mut mask.src_plen,
            &mut proj.ip_src,
        );
    }
    if let Some(cidr) = *ip_dst {
        mask_cidr(
            cidr,
            F_IP_DST,
            &mut mask.exact,
            &mut mask.dst_plen,
            &mut proj.ip_dst,
        );
    }
    if let Some(p) = *ip_proto {
        mask.exact |= F_IP_PROTO;
        proj.ip_proto = Some(p);
    }
    if let Some(p) = *l4_src {
        mask.exact |= F_L4_SRC;
        proj.l4_src = Some(p);
    }
    if let Some(p) = *l4_dst {
        mask.exact |= F_L4_DST;
        proj.l4_dst = Some(p);
    }
    if let Some(mark) = *fwmark {
        mask.exact |= F_FWMARK;
        proj.fwmark = mark;
    }
    (mask, proj)
}

/// Classify one CIDR constraint into the mega-mask: /32 is exact, a
/// shorter prefix records its length and projects the truncated net.
fn mask_cidr(
    cidr: Ipv4Cidr,
    bit: FieldMask,
    exact: &mut FieldMask,
    plen: &mut Option<u8>,
    proj: &mut Option<Ipv4Addr>,
) {
    if cidr.prefix_len() == 32 {
        *exact |= bit;
        *proj = Some(cidr.addr());
    } else {
        *plen = Some(cidr.prefix_len());
        *proj = Some(mask_ip(cidr.addr(), cidr.prefix_len()));
    }
}

/// Project a packet key onto a mega-mask: exact fields kept, prefix
/// fields truncated, VLAN presence canonicalised. A packet lacking a
/// field the mask constrains projects to `None` there and can never
/// collide with an entry projection (which is always `Some`).
fn project_mega(key: &PacketKey, mask: &MegaMask) -> PacketKey {
    let mut proj = project(key, mask.exact);
    if let Some(p) = mask.src_plen {
        proj.ip_src = key.ip_src.map(|a| mask_ip(a, p));
    }
    if let Some(p) = mask.dst_plen {
        proj.ip_dst = key.ip_dst.map(|a| mask_ip(a, p));
    }
    if mask.vlan_any {
        proj.vlan = key.vlan.map(|_| VLAN_ANY_MARK);
    }
    proj
}

/// One megaflow bucket: all wildcard entries sharing a mega-mask,
/// hashed by their masked projection; smallest entry index wins.
#[derive(Debug)]
struct MegaTable {
    mask: MegaMask,
    map: HashMap<PacketKey, usize>,
}

/// Bound on the microflow cache before it is recycled wholesale; stale
/// generations are dropped lazily, so without a bound a long-lived
/// churning table would accumulate dead keys.
const CACHE_CAP: usize = 8_192;

/// A single flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Entries sorted by (priority desc, insertion seq asc).
    entries: Vec<FlowEntry>,
    /// Insertion sequence numbers parallel to `entries`.
    seqs: Vec<u64>,
    /// Next sequence number; doubles as the table generation (advanced
    /// on *every* mutation, including removals) that stamps and
    /// invalidates cache entries and the exact-match index.
    next_seq: u64,
    cache: HashMap<PacketKey, (u64, usize)>,
    /// Shape + megaflow tables, rebuilt lazily per generation.
    shapes: Vec<ShapeTable>,
    mega: Vec<MegaTable>,
    index_gen: u64,
    /// Cache hits since creation.
    pub cache_hits: u64,
    /// Cache misses since creation.
    pub cache_misses: u64,
    /// Exact-match shape-table hits since creation.
    pub exact_hits: u64,
    /// Megaflow-table hits since creation.
    pub megaflow_hits: u64,
    /// Wildcard-scan hits since creation (see [`TableStats`]).
    pub wildcard_hits: u64,
    /// Lookups that matched nothing since creation.
    pub misses: u64,
    /// Megaflow hash probes issued since creation: one per distinct
    /// mega-mask per classification, the O(#masks) evidence.
    pub megaflow_probes: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    /// Number of distinct megaflow masks in the current index (builds
    /// the index if stale). Lookup cost for wildcard traffic is one
    /// hash probe per mask, regardless of how many entries share them.
    pub fn megaflow_mask_count(&mut self) -> usize {
        self.ensure_index();
        self.mega.len()
    }

    /// Advance the generation: every cached decision and the exact
    /// index become stale.
    fn touch(&mut self) {
        self.next_seq += 1;
    }

    /// Install an entry, keeping priority order. Invalidates the cache.
    pub fn insert(&mut self, entry: FlowEntry) {
        let seq = self.next_seq;
        self.touch();
        // Find insert position: after all entries with priority >= new
        // (stable among equal priorities).
        let pos = self
            .entries
            .iter()
            .position(|e| e.priority < entry.priority)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, entry);
        self.seqs.insert(pos, seq);
    }

    /// Remove all entries with the given cookie; returns how many.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let before = self.entries.len();
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].cookie == cookie {
                self.entries.remove(i);
                self.seqs.remove(i);
            } else {
                i += 1;
            }
        }
        let removed = before - self.entries.len();
        if removed > 0 {
            self.touch();
        }
        removed
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.seqs.clear();
        self.touch();
    }

    /// Rebuild the exact-match index if the table changed since it was
    /// last built.
    fn ensure_index(&mut self) {
        if self.index_gen == self.next_seq {
            return;
        }
        self.shapes.clear();
        self.mega.clear();
        let mut by_mask: HashMap<FieldMask, usize> = HashMap::new();
        let mut by_mega: HashMap<MegaMask, usize> = HashMap::new();
        for (i, e) in self.entries.iter().enumerate() {
            let (mask, proj) = mega_shape(&e.matches);
            // First (smallest) index wins on identical matches.
            if mask.is_exact() {
                let slot = *by_mask.entry(mask.exact).or_insert_with(|| {
                    self.shapes.push(ShapeTable {
                        mask: mask.exact,
                        map: HashMap::new(),
                    });
                    self.shapes.len() - 1
                });
                self.shapes[slot].map.entry(proj).or_insert(i);
            } else {
                let slot = *by_mega.entry(mask).or_insert_with(|| {
                    self.mega.push(MegaTable {
                        mask,
                        map: HashMap::new(),
                    });
                    self.mega.len() - 1
                });
                self.mega[slot].map.entry(proj).or_insert(i);
            }
        }
        self.index_gen = self.next_seq;
    }

    /// Find the winning entry index for `key` via the indexed
    /// classifier, or `None` on table miss.
    fn classify(&mut self, key: &PacketKey) -> Option<(usize, LookupPath)> {
        self.ensure_index();
        // Candidates are indices into the sorted entry vector, so the
        // smallest index is the best (priority desc, insertion asc).
        let mut best: Option<usize> = None;
        for shape in &self.shapes {
            if let Some(&i) = shape.map.get(&project(key, shape.mask)) {
                if best.is_none_or(|b| i < b) {
                    best = Some(i);
                }
            }
        }
        let exact_best = best;
        for mega in &self.mega {
            if let Some(&i) = mega.map.get(&project_mega(key, &mega.mask)) {
                if best.is_none_or(|b| i < b) {
                    best = Some(i);
                }
            }
        }
        let idx = best?;
        let path = if exact_best == Some(idx) {
            LookupPath::ExactHit
        } else {
            LookupPath::MegaflowHit
        };
        Some((idx, path))
    }

    /// The classifier's decision for `key` — winning entry index and
    /// the stage that found it — with no observable side effect:
    /// generation-checked microflow probe, else [`Self::classify`].
    /// (`&mut` only because a stale index may need rebuilding.) Real
    /// and ghost lookups both decide here, so they cannot disagree.
    fn resolve(&mut self, key: &PacketKey) -> Option<(usize, LookupPath)> {
        if let Some(&(gen, idx)) = self.cache.get(key) {
            // Generation match ⇒ the table is untouched since this
            // decision was cached, so idx is valid.
            if gen == self.next_seq {
                return Some((idx, LookupPath::CacheHit));
            }
        }
        self.classify(key)
    }

    /// Look up the best entry for `key`, updating its counters by
    /// `bytes`. Returns the matched actions plus provenance (stage,
    /// cookie, priority), or `None` on table miss.
    pub fn lookup(&mut self, key: &PacketKey, bytes: usize) -> Option<LookupHit> {
        let resolved = self.resolve(key);
        if !matches!(resolved, Some((_, LookupPath::CacheHit))) {
            self.cache_misses += 1;
            self.megaflow_probes += self.mega.len() as u64;
        }
        let Some((idx, path)) = resolved else {
            self.misses += 1;
            return None;
        };
        match path {
            LookupPath::CacheHit => self.cache_hits += 1,
            LookupPath::ExactHit => self.exact_hits += 1,
            LookupPath::MegaflowHit => self.megaflow_hits += 1,
            LookupPath::Miss => self.wildcard_hits += 1,
        }
        if path != LookupPath::CacheHit {
            if self.cache.len() >= CACHE_CAP {
                self.cache.clear();
            }
            self.cache.insert(*key, (self.next_seq, idx));
        }
        let entry = &mut self.entries[idx];
        entry.packet_count += 1;
        entry.byte_count += bytes as u64;
        Some(Self::hit(entry, path))
    }

    /// Ghost lookup: the same decision [`FlowTable::lookup`] takes,
    /// with *zero* observable side effects — no stats, no entry
    /// packet/byte counters, no microflow-cache insertion, no probe
    /// effort accounting.
    pub fn lookup_ghost(&mut self, key: &PacketKey) -> Option<LookupHit> {
        let (idx, path) = self.resolve(key)?;
        Some(Self::hit(&self.entries[idx], path))
    }

    fn hit(entry: &FlowEntry, path: LookupPath) -> LookupHit {
        LookupHit {
            actions: entry.actions.clone(),
            path,
            cookie: entry.cookie,
            priority: entry.priority,
        }
    }

    /// Find entries matching a predicate over (priority, match).
    pub fn find(&self, priority: u16, matches: &FlowMatch) -> Option<&FlowEntry> {
        self.entries
            .iter()
            .find(|e| e.priority == priority && &e.matches == matches)
    }

    /// Iterate entries in match order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Sum of packet counters (for stats endpoints).
    pub fn total_packets(&self) -> u64 {
        self.entries.iter().map(|e| e.packet_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowAction;
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
        assert_eq!(actions, vec![FlowAction::Output(PortNo(2))]);
        let LookupHit { actions, .. } = t.lookup(&key(5), 100).unwrap();
        assert_eq!(actions, vec![FlowAction::Output(PortNo(99))]);
    }

    #[test]
    fn equal_priority_first_inserted_wins() {
        let mut t = FlowTable::new();
        t.insert(entry(5, Some(1), 10));
        t.insert(entry(5, Some(1), 20));
        let LookupHit { actions, .. } = t.lookup(&key(1), 1).unwrap();
        assert_eq!(actions, vec![FlowAction::Output(PortNo(10))]);
    }

    #[test]
    fn cache_hit_after_miss_and_invalidation() {
        let mut t = FlowTable::new();
        t.insert(entry(1, Some(1), 2));
        let LookupHit { path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_eq!(path, LookupPath::ExactHit, "in-port match is exact-shaped");
        let LookupHit { path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_eq!(path, LookupPath::CacheHit);
        assert_eq!(t.cache_hits, 1);

        // Any modification invalidates (via the generation stamp).
        t.insert(entry(9, Some(1), 3));
        let LookupHit { actions, path, .. } = t.lookup(&key(1), 1).unwrap();
        assert_ne!(path, LookupPath::CacheHit);
        assert_eq!(actions, vec![FlowAction::Output(PortNo(3))]);
    }

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
        assert_eq!(actions, vec![FlowAction::Output(PortNo(1))]);
        // Non-10/8 traffic falls through to the exact entry.
        let mut k2 = key(4);
        k2.ip_dst = Some("172.16.0.1".parse().unwrap());
        let LookupHit { actions, path, .. } = t.lookup(&k2, 1).unwrap();
        assert_eq!(actions, vec![FlowAction::Output(PortNo(2))]);
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
        assert_eq!(actions, vec![FlowAction::Output(PortNo(99))]);
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
