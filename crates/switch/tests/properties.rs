//! Property-based tests for the flow table: the cached/slow paths must
//! agree with a reference model.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::Arc;
use un_packet::ethernet::MacAddr;
use un_packet::icmp::IcmpKind;
use un_packet::mutate::{mutants, refilled, Mutation};
use un_packet::{Ipv4Cidr, PacketBuilder};
use un_sim::{CostModel, DetRng};
use un_switch::{
    Backend, FlowAction, FlowEntry, FlowMatch, FlowTable, LogicalSwitch, LookupHit, LookupPath,
    PackedKey, PacketKey, PortNo, TableStats, VlanSpec,
};

fn key_strategy() -> impl Strategy<Value = PacketKey> {
    (
        0u32..4,
        any::<u16>(),
        prop::option::of(0u8..4),
        0u32..3,
        prop::option::of(0u16..3),
        0u8..4,
    )
        .prop_map(|(port, dport, proto, mark, vlan, last_octet)| PacketKey {
            in_port: PortNo(port),
            eth_src: MacAddr::local(1),
            eth_dst: MacAddr::local(2),
            eth_type: 0x0800,
            vlan,
            ip_src: Some(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            ip_dst: Some(std::net::Ipv4Addr::new(10, 0, last_octet, 2)),
            ip_proto: proto.map(|p| p + 6),
            l4_src: Some(1000),
            l4_dst: Some(dport % 8), // small space → frequent matches
            fwmark: mark,
        })
}

#[derive(Debug, Clone)]
struct RuleSpec {
    priority: u16,
    in_port: Option<u32>,
    l4_dst: Option<u16>,
    fwmark: Option<u32>,
    /// 0 = no VLAN constraint, 1 = untagged, 2 = any-tagged, else Id.
    vlan: u8,
    /// ip_dst constraint: None, or (third octet, prefix length).
    ip_dst: Option<(u8, u8)>,
    out: u32,
}

fn rule_strategy() -> impl Strategy<Value = RuleSpec> {
    (
        0u16..8,
        prop::option::of(0u32..4),
        prop::option::of(0u16..8),
        prop::option::of(0u32..3),
        0u8..5,
        prop::option::of((0u8..4, prop::sample::select(vec![8u8, 24, 32]))),
        0u32..16,
    )
        .prop_map(
            |(priority, in_port, l4_dst, fwmark, vlan, ip_dst, out)| RuleSpec {
                priority,
                in_port,
                l4_dst,
                fwmark,
                vlan,
                ip_dst,
                out,
            },
        )
}

fn to_match(spec: &RuleSpec) -> FlowMatch {
    let mut m = FlowMatch::any();
    m.in_port = spec.in_port.map(PortNo);
    m.l4_dst = spec.l4_dst;
    m.fwmark = spec.fwmark;
    m.vlan = match spec.vlan {
        0 => None,
        1 => Some(VlanSpec::Untagged),
        2 => Some(VlanSpec::AnyTagged),
        v => Some(VlanSpec::Id(u16::from(v) - 3)),
    };
    m.ip_dst = spec
        .ip_dst
        .map(|(octet, prefix)| Ipv4Cidr::new(std::net::Ipv4Addr::new(10, 0, octet, 2), prefix));
    m
}

/// Reference model: scan rules sorted by (priority desc, insertion asc).
fn reference_lookup(rules: &[RuleSpec], key: &PacketKey) -> Option<u32> {
    let mut indexed: Vec<(usize, &RuleSpec)> = rules.iter().enumerate().collect();
    indexed.sort_by(|(ia, a), (ib, b)| b.priority.cmp(&a.priority).then(ia.cmp(ib)));
    indexed
        .into_iter()
        .find(|(_, r)| to_match(r).matches(key))
        .map(|(_, r)| r.out)
}

/// The linear baseline the indexed pipeline is held to: a first-match
/// scan over the table's own entries, which `FlowTable::entries` yields
/// in match order. It reads the table immutably, so it can neither
/// touch the fast-path counters nor warm the microflow cache.
fn linear_scan(table: &FlowTable, key: &PacketKey) -> Option<Arc<[FlowAction]>> {
    table
        .entries()
        .find(|e| e.matches.matches(key))
        .map(|e| e.actions.clone())
}

proptest! {
    /// The flow table (with its microflow cache) always agrees with the
    /// reference model, including on repeated lookups (cache hits).
    #[test]
    fn table_matches_reference(
        rules in prop::collection::vec(rule_strategy(), 0..24),
        keys in prop::collection::vec(key_strategy(), 1..48),
    ) {
        let mut table = FlowTable::new();
        for r in &rules {
            table.insert(FlowEntry::new(
                r.priority,
                to_match(r),
                vec![FlowAction::Output(PortNo(r.out))],
            ));
        }
        for key in &keys {
            // Look each key up twice: classifier path then cache path.
            for _ in 0..2 {
                // The linear baseline must agree with the indexed path.
                let base = linear_scan(&table, key);
                let hit = table.lookup(key, 100).map(|LookupHit { actions, .. }| actions);
                prop_assert_eq!(&hit, &base);
                let got = hit.map(|actions| match &actions[0] {
                    FlowAction::Output(p) => p.0,
                    other => panic!("unexpected action {other:?}"),
                });
                prop_assert_eq!(got, reference_lookup(&rules, key));
            }
        }
    }

    /// TableStats accounting identities hold on any table under any
    /// traffic, and `misses` counts exactly the lookups the linear
    /// baseline finds no entry for.
    #[test]
    fn stats_accounting_identities(
        rules in prop::collection::vec(rule_strategy(), 0..24),
        keys in prop::collection::vec(key_strategy(), 1..48),
        repeats in 1usize..3,
    ) {
        let mut table = FlowTable::new();
        for r in &rules {
            table.insert(FlowEntry::new(
                r.priority,
                to_match(r),
                vec![FlowAction::Output(PortNo(r.out))],
            ));
        }
        let mut lookups = 0u64;
        let mut resolved_misses = 0u64;
        let mut linear_misses = 0u64;
        for key in &keys {
            for _ in 0..repeats {
                lookups += 1;
                if linear_scan(&table, key).is_none() {
                    linear_misses += 1;
                }
                if let Some(LookupHit { path, .. }) = table.lookup(key, 64) {
                    if path != LookupPath::CacheHit {
                        resolved_misses += 1;
                    }
                }
            }
        }
        let s = table.stats();
        // Every lookup is a cache hit or a cache miss — no third bucket.
        prop_assert_eq!(s.cache_hits + s.cache_misses, lookups);
        // Every *resolved* miss is exactly one of exact / megaflow /
        // wildcard; unresolved misses (table miss) bump none of them.
        prop_assert_eq!(s.exact_hits + s.megaflow_hits + s.wildcard_hits, resolved_misses);
        prop_assert!(s.exact_hits + s.megaflow_hits + s.wildcard_hits <= s.cache_misses);
        prop_assert!(s.hit_rate() >= 0.0 && s.hit_rate() <= 1.0);
        prop_assert_eq!(s.misses, linear_misses);
    }

    /// Removing by cookie removes exactly the matching entries.
    #[test]
    fn cookie_removal(
        rules in prop::collection::vec((rule_strategy(), 0u64..4), 1..24),
        victim in 0u64..4,
    ) {
        let mut table = FlowTable::new();
        for (r, cookie) in &rules {
            table.insert(
                FlowEntry::new(r.priority, to_match(r), vec![FlowAction::Output(PortNo(r.out))])
                    .with_cookie(*cookie),
            );
        }
        let expect_removed = rules.iter().filter(|(_, c)| *c == victim).count();
        prop_assert_eq!(table.remove_by_cookie(victim), expect_removed);
        prop_assert_eq!(table.len(), rules.len() - expect_removed);
    }
}

/// A key hitting `10.0.<octet>.2` on `in_port`.
fn dst_key(port: u32, octet: u8) -> PacketKey {
    PacketKey {
        in_port: PortNo(port),
        eth_src: MacAddr::local(1),
        eth_dst: MacAddr::local(2),
        eth_type: 0x0800,
        vlan: None,
        ip_src: Some(std::net::Ipv4Addr::new(10, 0, 0, 1)),
        ip_dst: Some(std::net::Ipv4Addr::new(10, 0, octet, 2)),
        ip_proto: Some(17),
        l4_src: Some(1000),
        l4_dst: Some(7),
        fwmark: 0,
    }
}

/// The megaflow path: short CIDR prefixes and any-tagged VLAN specs
/// never reach the exact-match index — they resolve as `MegaflowHit`
/// and bump `megaflow_hits` — while /32 prefixes stay exact-indexed.
#[test]
fn megaflow_demotion_is_observable_in_stats() {
    let mut t = FlowTable::new();
    let cidr =
        FlowMatch::any().with_ip_dst(Ipv4Cidr::new(std::net::Ipv4Addr::new(10, 0, 0, 0), 16));
    t.insert(FlowEntry::new(5, cidr, vec![FlowAction::Output(PortNo(1))]));
    let mut tagged = FlowMatch::any();
    tagged.vlan = Some(VlanSpec::AnyTagged);
    t.insert(FlowEntry::new(
        4,
        tagged,
        vec![FlowAction::Output(PortNo(2))],
    ));
    let slash32 =
        FlowMatch::any().with_ip_dst(Ipv4Cidr::new(std::net::Ipv4Addr::new(10, 0, 3, 2), 32));
    t.insert(FlowEntry::new(
        3,
        slash32,
        vec![FlowAction::Output(PortNo(3))],
    ));

    // CIDR win: megaflow path.
    let LookupHit { actions, path, .. } = t.lookup(&dst_key(9, 1), 64).unwrap();
    assert_eq!(*actions, [FlowAction::Output(PortNo(1))]);
    assert_eq!(path, LookupPath::MegaflowHit);
    assert_eq!(t.stats().megaflow_hits, 1);
    assert_eq!(t.stats().exact_hits, 0);

    // Any-tagged win on a tagged frame: also the megaflow path.
    let mut k = dst_key(9, 1);
    k.ip_dst = Some(std::net::Ipv4Addr::new(172, 16, 0, 1));
    k.vlan = Some(7);
    let LookupHit { actions, path, .. } = t.lookup(&k, 64).unwrap();
    assert_eq!(*actions, [FlowAction::Output(PortNo(2))]);
    assert_eq!(path, LookupPath::MegaflowHit);
    assert_eq!(t.stats().megaflow_hits, 2);

    // The /32 stays on the exact path even though its priority is
    // lowest: nothing wilder matches this untagged, non-10.0/16 key.
    let mut k32 = dst_key(9, 3);
    k32.ip_dst = Some(std::net::Ipv4Addr::new(10, 0, 3, 2));
    // 10.0.3.2 is inside 10.0/16, so the CIDR (priority 5) wins...
    let LookupHit { actions, path, .. } = t.lookup(&k32, 64).unwrap();
    assert_eq!(*actions, [FlowAction::Output(PortNo(1))]);
    assert_eq!(path, LookupPath::MegaflowHit);
    // ...so demote the CIDR out of the way and try again.
    t.clear();
    t.insert(FlowEntry::new(
        3,
        FlowMatch::any().with_ip_dst(Ipv4Cidr::new(std::net::Ipv4Addr::new(10, 0, 3, 2), 32)),
        vec![FlowAction::Output(PortNo(3))],
    ));
    let LookupHit { actions, path, .. } = t.lookup(&k32, 64).unwrap();
    assert_eq!(*actions, [FlowAction::Output(PortNo(3))]);
    assert_eq!(path, LookupPath::ExactHit);
    assert_eq!(t.stats().exact_hits, 1);
}

/// Hit/miss counters across microflow-cache invalidation: a rule
/// insert bumps the table generation, so the cached decision re-runs
/// the classifier exactly once, then caches again.
#[test]
fn cache_counters_across_invalidation() {
    let mut t = FlowTable::new();
    t.insert(FlowEntry::new(
        5,
        FlowMatch::in_port(PortNo(9)),
        vec![FlowAction::Output(PortNo(1))],
    ));
    let k = dst_key(9, 1);
    assert_eq!(t.lookup(&k, 64).unwrap().path, LookupPath::ExactHit);
    assert_eq!(t.lookup(&k, 64).unwrap().path, LookupPath::CacheHit);
    assert_eq!(t.lookup(&k, 64).unwrap().path, LookupPath::CacheHit);
    assert_eq!((t.stats().cache_hits, t.stats().cache_misses), (2, 1));

    // Insert bumps the generation: the very next lookup must miss the
    // cache (stale decision refused) and re-resolve via the index.
    t.insert(FlowEntry::new(
        8,
        FlowMatch::in_port(PortNo(9)),
        vec![FlowAction::Output(PortNo(2))],
    ));
    let LookupHit { actions, path, .. } = t.lookup(&k, 64).unwrap();
    assert_eq!(*actions, [FlowAction::Output(PortNo(2))]);
    assert_ne!(path, LookupPath::CacheHit);
    assert_eq!((t.stats().cache_hits, t.stats().cache_misses), (2, 2));
    assert_eq!(t.lookup(&k, 64).unwrap().path, LookupPath::CacheHit);
    assert_eq!((t.stats().cache_hits, t.stats().cache_misses), (3, 2));
    assert_eq!(t.stats().exact_hits, 2);
    assert_eq!(t.stats().wildcard_hits, 0);
}

/// `TableStats::merge` sums every counter; `hit_rate` is safe on the
/// empty block, truthful about non-cache resolutions, and correct on
/// merged ones.
#[test]
fn table_stats_merge_and_hit_rate() {
    assert_eq!(TableStats::default().hit_rate(), 0.0);
    // The historical bug: a table served entirely by the exact or
    // megaflow stages (zero cache hits) must report 1.0, not 0.0.
    let no_cache = TableStats {
        cache_hits: 0,
        cache_misses: 5,
        exact_hits: 3,
        megaflow_hits: 2,
        wildcard_hits: 0,
        misses: 0,
    };
    assert!((no_cache.hit_rate() - 1.0).abs() < 1e-12);
    let mut a = TableStats {
        cache_hits: 3,
        cache_misses: 1,
        exact_hits: 1,
        megaflow_hits: 0,
        wildcard_hits: 0,
        misses: 0,
    };
    let b = TableStats {
        cache_hits: 1,
        cache_misses: 3,
        exact_hits: 1,
        megaflow_hits: 1,
        wildcard_hits: 0,
        misses: 1,
    };
    a.merge(&b);
    assert_eq!(a.cache_hits, 4);
    assert_eq!(a.cache_misses, 4);
    assert_eq!(a.exact_hits, 2);
    assert_eq!(a.megaflow_hits, 1);
    assert_eq!(a.wildcard_hits, 0);
    assert_eq!(a.misses, 1);
    // 4 cache + 2 exact + 1 megaflow resolved out of 8 lookups.
    assert!((a.hit_rate() - 7.0 / 8.0).abs() < 1e-12);
}

/// The linear baseline agrees with the indexed pipeline on a
/// wildcard-heavy table, on both the classifier and the cache path.
#[test]
fn linear_baseline_agrees_on_wildcard_heavy_table() {
    let mut indexed = {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(
            9,
            FlowMatch::any().with_ip_dst(Ipv4Cidr::new(std::net::Ipv4Addr::new(10, 0, 0, 0), 8)),
            vec![FlowAction::Output(PortNo(1))],
        ));
        let mut tagged = FlowMatch::any();
        tagged.vlan = Some(VlanSpec::AnyTagged);
        t.insert(FlowEntry::new(
            7,
            tagged,
            vec![FlowAction::Output(PortNo(2))],
        ));
        t.insert(FlowEntry::new(
            5,
            FlowMatch::in_port(PortNo(3)),
            vec![FlowAction::Output(PortNo(3))],
        ));
        t.insert(FlowEntry::new(
            1,
            FlowMatch::any(),
            vec![FlowAction::Output(PortNo(9))],
        ));
        t
    };
    let keys: Vec<PacketKey> = (0..6u32)
        .flat_map(|port| {
            (0..4u8).map(move |octet| {
                let mut k = dst_key(port, octet);
                if octet == 2 {
                    k.vlan = Some(100);
                }
                if octet == 3 {
                    k.ip_dst = Some(std::net::Ipv4Addr::new(172, 16, 0, 1));
                }
                k
            })
        })
        .collect();
    for k in &keys {
        // Twice: classifier path, then cache path.
        for _ in 0..2 {
            let b = linear_scan(&indexed, k);
            let a = indexed.lookup(k, 64).map(|h| h.actions);
            assert_eq!(a, b, "key {k:?}");
        }
    }
    assert!(indexed.stats().cache_hits > 0);
    assert!(indexed.stats().megaflow_hits > 0);
}

/// One step of table churn: install a rule, delete a cookie, or look a
/// key up. The lookup steps interleave with the mutations, so cached
/// and indexed decisions are exercised right after generation bumps.
#[derive(Debug, Clone)]
enum ChurnOp {
    Insert(RuleSpec, u64),
    RemoveCookie(u64),
    Lookup(PacketKey),
}

fn churn_strategy() -> impl Strategy<Value = ChurnOp> {
    // (The vendored proptest shim has no `prop_oneof`; pick the op kind
    // with a discriminant and feed every alternative its inputs.)
    (0u8..4, rule_strategy(), 0u64..4, key_strategy()).prop_map(|(kind, rule, cookie, key)| {
        match kind {
            0 => ChurnOp::Insert(rule, cookie),
            1 => ChurnOp::RemoveCookie(cookie),
            _ => ChurnOp::Lookup(key), // lookups twice as likely
        }
    })
}

proptest! {
    /// Megaflow/microflow invalidation: across any interleaving of rule
    /// inserts and deletes, a lookup can never serve a stale action —
    /// every result (including cache and megaflow hits) must equal what
    /// a from-scratch scan of the *current* rule set produces.
    #[test]
    fn no_stale_action_survives_generation_bumps(
        ops in prop::collection::vec(churn_strategy(), 1..64),
    ) {
        let mut table = FlowTable::new();
        let mut live: Vec<(RuleSpec, u64)> = Vec::new();
        for op in &ops {
            match op {
                ChurnOp::Insert(r, cookie) => {
                    table.insert(
                        FlowEntry::new(
                            r.priority,
                            to_match(r),
                            vec![FlowAction::Output(PortNo(r.out))],
                        )
                        .with_cookie(*cookie),
                    );
                    live.push((r.clone(), *cookie));
                }
                ChurnOp::RemoveCookie(cookie) => {
                    let removed = table.remove_by_cookie(*cookie);
                    let before = live.len();
                    live.retain(|(_, c)| c != cookie);
                    prop_assert_eq!(removed, before - live.len());
                }
                ChurnOp::Lookup(key) => {
                    // Twice: classifier path, then the freshly-cached
                    // decision — both must match the current rule set.
                    for _ in 0..2 {
                        let got = table.lookup(key, 64).map(|LookupHit { actions, .. }| {
                            match &actions[0] {
                                FlowAction::Output(p) => p.0,
                                other => panic!("unexpected action {other:?}"),
                            }
                        });
                        let rules: Vec<RuleSpec> =
                            live.iter().map(|(r, _)| r.clone()).collect();
                        prop_assert_eq!(got, reference_lookup(&rules, key));
                    }
                }
            }
        }
    }
}

/// Wildcard-heavy scaling: hundreds of CIDR entries spread over a
/// handful of masks cost one megaflow probe per *mask* per cold
/// classification — O(#masks), not O(#entries).
#[test]
fn wildcard_heavy_lookup_is_bounded_by_mask_count() {
    let mut t = FlowTable::new();
    // 256 /24 nets, 128 /16 nets, 64 any-tagged+port rules: 448
    // wildcard entries, exactly 3 distinct megaflow masks.
    for i in 0..256u32 {
        let net = std::net::Ipv4Addr::from(u32::to_be_bytes(0x0a00_0000 | (i << 8)));
        t.insert(FlowEntry::new(
            5,
            FlowMatch::any().with_ip_dst(Ipv4Cidr::new(net, 24)),
            vec![FlowAction::Output(PortNo(i % 8))],
        ));
    }
    for i in 0..128u32 {
        let net = std::net::Ipv4Addr::from(u32::to_be_bytes(0xac10_0000 | (i << 16)));
        t.insert(FlowEntry::new(
            4,
            FlowMatch::any().with_ip_dst(Ipv4Cidr::new(net, 16)),
            vec![FlowAction::Output(PortNo(i % 8))],
        ));
    }
    for i in 0..64u32 {
        let mut m = FlowMatch::in_port(PortNo(1000 + i));
        m.vlan = Some(VlanSpec::AnyTagged);
        t.insert(FlowEntry::new(
            3,
            m,
            vec![FlowAction::Output(PortNo(i % 8))],
        ));
    }
    assert_eq!(t.megaflow_mask_count(), 3);
    let before = t.megaflow_probes;
    let lookups = 200u64;
    for i in 0..lookups {
        // Distinct dst per lookup so the microflow cache never hits.
        let mut k = dst_key(9, 0);
        k.ip_dst = Some(std::net::Ipv4Addr::from(u32::to_be_bytes(
            0x0a00_0007 | ((i as u32) << 8),
        )));
        let LookupHit { path, .. } = t.lookup(&k, 64).unwrap();
        assert_eq!(path, LookupPath::MegaflowHit);
    }
    assert_eq!(
        t.megaflow_probes - before,
        lookups * 3,
        "probe count scales with masks (3), not entries (448)"
    );
    assert_eq!(t.stats().megaflow_hits, lookups);
}

/// Keys built to break a packing: every field drawn from a small set
/// that holds its zero, its all-ones and — for the optional fields —
/// `None` beside `Some(0)`, so neighbours in a word can collide if the
/// layout lets them and equal pairs are common.
fn hostile_key_strategy() -> impl Strategy<Value = PacketKey> {
    use prop::sample::select;
    let macs = || select(vec![MacAddr::ZERO, MacAddr::local(1), MacAddr([0xff; 6])]);
    let ips = || {
        select(vec![
            None,
            Some(std::net::Ipv4Addr::new(0, 0, 0, 0)),
            Some(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            Some(std::net::Ipv4Addr::new(10, 0, 1, 1)),
            Some(std::net::Ipv4Addr::new(255, 255, 255, 255)),
        ])
    };
    let l4 = || select(vec![None, Some(0u16), Some(80), Some(0xffff)]);
    (
        (
            select(vec![0u32, 1, u32::MAX]),
            macs(),
            macs(),
            select(vec![0u16, 0x0800, 0xffff]),
            select(vec![None, Some(0u16), Some(1), Some(0xffff)]),
        ),
        (
            ips(),
            ips(),
            select(vec![None, Some(0u8), Some(6), Some(0xff)]),
            l4(),
            l4(),
            select(vec![0u32, 1, u32::MAX]),
        ),
    )
        .prop_map(
            |(
                (in_port, eth_src, eth_dst, eth_type, vlan),
                (ip_src, ip_dst, ip_proto, l4_src, l4_dst, fwmark),
            )| PacketKey {
                in_port: PortNo(in_port),
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
            },
        )
}

/// A match assembled field by field from two keys: each field is left
/// wild (modes 0, 1), constrained to what `hit` carries (2) or to what
/// `other` carries (3). Fields taken from `hit` make matching matches
/// common; an absent optional field still yields a constraint (untagged,
/// `0.0.0.0/len`, port 0, …) so "constrained but absent" is exercised.
fn match_from(hit: &PacketKey, other: &PacketKey, modes: &[u8; 12], plens: [u8; 2]) -> FlowMatch {
    let pick = |i: usize| match modes[i] {
        2 => Some(hit),
        3 => Some(other),
        _ => None,
    };
    let cidr = |ip: Option<std::net::Ipv4Addr>, plen| {
        Ipv4Cidr::new(ip.unwrap_or(std::net::Ipv4Addr::UNSPECIFIED), plen)
    };
    FlowMatch {
        in_port: pick(0).map(|k| k.in_port),
        eth_src: pick(1).map(|k| k.eth_src),
        eth_dst: pick(2).map(|k| k.eth_dst),
        eth_type: pick(3).map(|k| k.eth_type),
        // The spare selector byte alternates the two ways
        // of accepting a tagged frame.
        vlan: pick(4).map(|k| match k.vlan {
            None => VlanSpec::Untagged,
            Some(_) if modes[11] < 2 => VlanSpec::AnyTagged,
            Some(v) => VlanSpec::Id(v),
        }),
        ip_src: pick(5).map(|k| cidr(k.ip_src, plens[0])),
        ip_dst: pick(6).map(|k| cidr(k.ip_dst, plens[1])),
        ip_proto: pick(7).map(|k| k.ip_proto.unwrap_or(0)),
        l4_src: pick(8).map(|k| k.l4_src.unwrap_or(0)),
        l4_dst: pick(9).map(|k| k.l4_dst.unwrap_or(0)),
        fwmark: pick(10).map(|k| k.fwmark),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The packing is injective: two keys pack to the same five words
    /// iff all eleven fields are equal. `b` is `a` with at most one
    /// field swapped for a hostile value, so both outcomes are common.
    #[test]
    fn packed_words_equal_iff_fields_equal(
        a in hostile_key_strategy(),
        donor in hostile_key_strategy(),
        field in 0usize..12,
    ) {
        let mut b = a;
        match field {
            0 => b.in_port = donor.in_port,
            1 => b.eth_src = donor.eth_src,
            2 => b.eth_dst = donor.eth_dst,
            3 => b.eth_type = donor.eth_type,
            4 => b.vlan = donor.vlan,
            5 => b.ip_src = donor.ip_src,
            6 => b.ip_dst = donor.ip_dst,
            7 => b.ip_proto = donor.ip_proto,
            8 => b.l4_src = donor.l4_src,
            9 => b.l4_dst = donor.l4_dst,
            10 => b.fwmark = donor.fwmark,
            _ => {}
        }
        prop_assert_eq!(a.pack() == b.pack(), a == b, "{:?} vs {:?}", a, b);
        // And against an unrelated key, not just a one-field neighbour.
        prop_assert_eq!(a.pack() == donor.pack(), a == donor);
    }

    /// The compiled match is the field-wise match: for every VLAN spec,
    /// every prefix length and IP matches against non-IP keys,
    /// `key & mask == value` ⇔ `FlowMatch::matches(key)`.
    #[test]
    fn compiled_match_agrees_with_field_wise_oracle(
        key in hostile_key_strategy(),
        other in hostile_key_strategy(),
        modes in prop::array::uniform12(0u8..4),
        src_plen in prop::sample::select(vec![0u8, 1, 8, 24, 31, 32]),
        dst_plen in prop::sample::select(vec![0u8, 1, 8, 24, 31, 32]),
    ) {
        let m = match_from(&key, &other, &modes, [src_plen, dst_plen]);
        let c = m.compile();
        for k in [&key, &other] {
            prop_assert_eq!(
                k.pack().and(&c.mask) == c.value,
                m.matches(k),
                "{:?} against {:?}",
                m,
                k
            );
        }
    }
}

// ---------------------------------------------------------------------
// The microflow cache is keyed by `key & union`, the union being the OR
// of every installed rule's mask: what the rules can read of a packet.
// ---------------------------------------------------------------------

/// `a` with one field (or none) taken from `donor`.
fn with_field_from(a: &PacketKey, donor: &PacketKey, field: usize) -> PacketKey {
    let mut b = *a;
    match field {
        0 => b.in_port = donor.in_port,
        1 => b.eth_src = donor.eth_src,
        2 => b.eth_dst = donor.eth_dst,
        3 => b.eth_type = donor.eth_type,
        4 => b.vlan = donor.vlan,
        5 => b.ip_src = donor.ip_src,
        6 => b.ip_dst = donor.ip_dst,
        7 => b.ip_proto = donor.ip_proto,
        8 => b.l4_src = donor.l4_src,
        9 => b.l4_dst = donor.l4_dst,
        10 => b.fwmark = donor.fwmark,
        _ => {}
    }
    b
}

fn table_of(rules: &[RuleSpec]) -> FlowTable {
    let mut table = FlowTable::new();
    for r in rules {
        table.insert(FlowEntry::new(
            r.priority,
            to_match(r),
            vec![FlowAction::Output(PortNo(r.out))],
        ));
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Two keys equal on every bit some rule reads share one cached
    /// decision; two keys that differ on such a bit never do. `b` is
    /// `a` with one field swapped, over rule sets small enough that the
    /// union often leaves fields (or the low bits of a prefix) out, so
    /// both outcomes are common. Either way the answer is the linear
    /// baseline's.
    #[test]
    fn cache_is_shared_within_a_class_and_never_across(
        rules in prop::collection::vec(rule_strategy(), 0..6),
        catch_all in 0u8..2,
        a in key_strategy(),
        donor in hostile_key_strategy(),
        field in 0usize..12,
    ) {
        let mut table = table_of(&rules);
        if catch_all == 1 {
            // Reads nothing: resolves every lookup, widens no union.
            table.insert(FlowEntry::new(
                0,
                FlowMatch::any(),
                vec![FlowAction::Output(PortNo(99))],
            ));
        }
        let union = table
            .entries()
            .fold(PackedKey::default(), |u, e| u.or(&e.matches.compile().mask));
        let b = with_field_from(&a, &donor, field);
        let same_class = a.pack().and(&union) == b.pack().and(&union);

        let first = table.lookup(&a, 64);
        prop_assert_eq!(first.as_ref().map(|h| h.actions.clone()), linear_scan(&table, &a));
        prop_assert!(first.as_ref().is_none_or(|h| h.path != LookupPath::CacheHit));

        let second = table.lookup(&b, 64);
        prop_assert_eq!(second.as_ref().map(|h| h.actions.clone()), linear_scan(&table, &b));
        // What no rule can read cannot turn a hit into a table miss.
        prop_assert!(!same_class || first.is_some() == second.is_some());
        match (&first, &second) {
            // One class, one entry: the variation rides the decision
            // cached for `a` (table misses are not cached).
            (Some(_), Some(hit)) if same_class => {
                prop_assert_eq!(hit.path, LookupPath::CacheHit, "{:?} vs {:?}", a, b);
                prop_assert_eq!(table.cache_entries(), 1);
            }
            // A bit some rule reads differs: `a`'s entry is not `b`'s.
            (_, Some(hit)) => {
                prop_assert!(!same_class);
                prop_assert_ne!(hit.path, LookupPath::CacheHit, "{:?} vs {:?}", a, b);
            }
            (_, None) => {}
        }
    }
}

/// `n` distinct 5-tuples arriving on `port` with `vlan`.
fn flows(port: u32, vlan: Option<u16>, n: u32) -> Vec<PacketKey> {
    (0..n)
        .map(|i| {
            let mut k = dst_key(port, (i % 251) as u8);
            k.vlan = vlan;
            k.ip_src = Some(std::net::Ipv4Addr::from(0x0a01_0000 + i));
            k.l4_src = Some(1024 + (i % 60_000) as u16);
            k.l4_dst = Some((i * 7 % 50_000) as u16);
            k
        })
        .collect()
}

/// Look every key up once; return how many fell through the cache, and
/// hold each answer to the linear baseline.
fn misses_over(table: &mut FlowTable, keys: &[PacketKey]) -> u64 {
    let before = table.stats().cache_misses;
    for k in keys {
        let base = linear_scan(table, k);
        assert_eq!(table.lookup(k, 64).map(|h| h.actions), base, "key {k:?}");
    }
    table.stats().cache_misses - before
}

/// ROADMAP item 3's two-tenant case under the masked key: tenant A's
/// rule change still invalidates the shared table, but tenant B pays one
/// re-classification per (port, vid) class it uses — not one per flow.
#[test]
fn a_neighbours_rule_change_costs_one_miss_per_class() {
    const N: u32 = 256;
    const TENANT_A: u64 = 0xA;
    let steer = |port: u32, vlan: VlanSpec, out: u32, cookie: u64| {
        FlowEntry::new(
            10,
            FlowMatch::in_port(PortNo(port)).with_vlan(vlan),
            vec![FlowAction::Output(PortNo(out))],
        )
        .with_cookie(cookie)
    };
    let mut t = FlowTable::new();
    t.insert(steer(1, VlanSpec::Id(10), 11, TENANT_A));
    t.insert(steer(2, VlanSpec::Id(20), 12, 0xB));
    t.insert(steer(3, VlanSpec::Untagged, 13, 0xB));

    // Tenant B: N distinct 5-tuples over its two classes.
    let mut b_flows = flows(2, Some(20), N / 2);
    b_flows.extend(flows(3, None, N / 2));
    assert_eq!(misses_over(&mut t, &b_flows), 2, "cold: one per class");
    assert_eq!(misses_over(&mut t, &b_flows), 0, "warm");

    t.insert(steer(4, VlanSpec::Id(11), 14, TENANT_A));
    assert_eq!(
        misses_over(&mut t, &b_flows),
        2,
        "A's insert: B re-classifies once per (port, vid), not {N} times"
    );
    assert_eq!(t.remove_by_cookie(TENANT_A), 2);
    assert_eq!(misses_over(&mut t, &b_flows), 2, "A's removal: the same");
    assert_eq!(misses_over(&mut t, &b_flows), 0);
}

/// The union follows the rule set, both ways: one rule that reads
/// `l4_dst` makes flows stop sharing entries, removing it makes them
/// share again.
#[test]
fn the_union_tracks_the_rule_set() {
    let mut t = FlowTable::new();
    t.insert(FlowEntry::new(
        5,
        FlowMatch::in_port(PortNo(1)),
        vec![FlowAction::Output(PortNo(2))],
    ));
    // 64 flows, 64 distinct l4_dst values.
    let keys = flows(1, None, 64);
    assert_eq!(misses_over(&mut t, &keys), 1);
    assert_eq!(t.cache_entries(), 1);

    let mut per_flow = FlowMatch::any();
    per_flow.l4_dst = Some(0);
    t.insert(FlowEntry::new(9, per_flow, vec![FlowAction::Output(PortNo(3))]).with_cookie(0xF));
    assert_eq!(misses_over(&mut t, &keys), 64, "l4_dst is read: per flow");
    assert_eq!(misses_over(&mut t, &keys), 0);
    assert!(t.cache_entries() >= 64);

    assert_eq!(t.remove_by_cookie(0xF), 1);
    assert_eq!(misses_over(&mut t, &keys), 1, "and shared again");
}

/// A ghost lookup takes the real lookup's decision through the same
/// masked key — a class warmed by one flow answers another flow's ghost
/// from the cache — and moves nothing: cache population, `TableStats`
/// and every entry counter stay put.
#[test]
fn ghost_lookup_reads_the_masked_cache_and_moves_nothing() {
    let mut t = FlowTable::new();
    for port in [1, 2] {
        t.insert(FlowEntry::new(
            5,
            FlowMatch::in_port(PortNo(port)),
            vec![FlowAction::Output(PortNo(10 + port))],
        ));
    }
    let warm = flows(1, None, 2);
    assert!(t.lookup(&warm[0], 64).is_some());

    let observed = |t: &FlowTable| {
        let counters: Vec<(u64, u64)> = t
            .entries()
            .map(|e| (e.packet_count, e.byte_count))
            .collect();
        (t.cache_entries(), t.stats(), t.megaflow_probes, counters)
    };
    let before = observed(&t);
    // Same class as the warmed flow, another 5-tuple: served by the cache.
    let hit = t.lookup_ghost(&warm[1]).unwrap();
    assert_eq!(hit.path, LookupPath::CacheHit);
    assert_eq!(Some(hit.actions), linear_scan(&t, &warm[1]));
    // A cold class resolves through the mask tables and is not cached.
    let cold = flows(2, None, 1)[0];
    for _ in 0..2 {
        let hit = t.lookup_ghost(&cold).unwrap();
        assert_eq!(hit.path, LookupPath::ExactHit);
        assert_eq!(Some(hit.actions), linear_scan(&t, &cold));
    }
    assert!(t.lookup_ghost(&flows(7, None, 1)[0]).is_none());
    assert_eq!(observed(&t), before);
}

/// A scan of random 5-tuples cannot thrash a port-steering table: three
/// times the cache's capacity (8192 entries) in distinct flows costs one
/// miss per port and the cache never comes near recycling.
#[test]
fn random_five_tuples_cannot_thrash_a_port_steering_table() {
    const CACHE_CAP: usize = 8_192;
    const PORTS: u32 = 4;
    let mut t = FlowTable::new();
    for port in 0..PORTS {
        t.insert(FlowEntry::new(
            5,
            FlowMatch::in_port(PortNo(port)),
            vec![FlowAction::Output(PortNo(100 + port))],
        ));
    }
    // xorshift64: the point is distinct flows, not statistical quality.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..3 * CACHE_CAP {
        let (a, b) = (next(), next());
        let mut k = dst_key(a as u32 % PORTS, 0);
        k.ip_src = Some(std::net::Ipv4Addr::from((a >> 32) as u32));
        k.ip_dst = Some(std::net::Ipv4Addr::from(b as u32));
        k.l4_src = Some((b >> 32) as u16);
        k.l4_dst = Some((b >> 48) as u16);
        let base = linear_scan(&t, &k);
        assert_eq!(t.lookup(&k, 64).map(|h| h.actions), base);
        assert!(t.cache_entries() <= PORTS as usize);
    }
    let s = t.stats();
    assert!(s.cache_misses <= u64::from(PORTS), "{s:?}");
    assert_eq!(s.cache_hits + s.cache_misses, 3 * CACHE_CAP as u64);
}

/// A match reading one group of fields: `in_port` and a VLAN
/// constraint, the MACs, `eth_type`, IP prefixes, `ip_proto` or the L4
/// ports, with values near those of the frames
/// `a_hostile_frame_still_extracts_a_key` builds.
fn layer_match(rng: &mut DetRng, vid: u16) -> FlowMatch {
    let mut m = FlowMatch::any();
    match rng.index(6) {
        0 => {
            m.in_port = rng.chance(0.8).then_some(PortNo(3));
            m.vlan = [
                None,
                Some(VlanSpec::Untagged),
                Some(VlanSpec::AnyTagged),
                Some(VlanSpec::Id(vid)),
            ][rng.index(4)];
        }
        1 => {
            m.eth_src = rng.chance(0.7).then_some(MacAddr::local(1));
            m.eth_dst = Some(MacAddr::local(1 + rng.index(2) as u32));
        }
        2 => m.eth_type = Some([0x0800, 0x0806, 0x8100][rng.index(3)]),
        3 => {
            let prefix = |rng: &mut DetRng| {
                let len = [8, 24, 31, 32][rng.index(4)];
                Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 1 + rng.index(2) as u8), len)
            };
            m.ip_src = rng.chance(0.5).then(|| prefix(rng));
            m.ip_dst = Some(prefix(rng));
        }
        4 => m.ip_proto = Some([1, 6, 17][rng.index(3)]),
        _ => {
            m.l4_src = rng.chance(0.3).then(|| rng.range_u16(1, u16::MAX));
            m.l4_dst = Some([53, 80, 443][rng.index(3)]);
        }
    }
    m
}

/// Typed error, never panic, at the classifier's door: the 256 cases of
/// mutated frames `un-packet` feeds its checked views (UDP, TCP or ICMP
/// over IPv4, some behind an 802.1Q tag) all extract a key. A layer
/// that does not parse leaves its fields empty, the key's VLAN is the
/// frame's, transport ports come only with TCP or UDP, and a tag pushed
/// onto an untagged mutant changes nothing in its key but `vlan`.
///
/// Each case also draws 1–4 matches, one field group each: the key
/// extracted as deep as their union reads agrees with the reference on
/// every bit of it, and an LSI holding them as rules, reused across the
/// case, emits every mutant where a first-match scan over the full
/// reference key sends it.
#[test]
fn a_hostile_frame_still_extracts_a_key() {
    let mut rng = DetRng::new(0x9ac4e7);
    let mut draw = DetRng::new(0x5ea7ed);
    let costs = CostModel::default();
    for _ in 0..256 {
        let mut payload = vec![0; rng.index(200)];
        rng.fill(&mut payload);
        let mut b = PacketBuilder::new().ethernet(MacAddr::local(1), MacAddr::local(2));
        let tagged = rng.chance(0.25);
        if tagged {
            b = b.vlan(rng.range_u16(1, 4095));
        }
        let b = b.ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let b = match rng.index(3) {
            0 => b.udp(rng.range_u16(1, u16::MAX), 53),
            1 => b.tcp_data(rng.range_u16(1, u16::MAX), 80, rng.next_u32(), 1),
            _ => b.icmp_echo(IcmpKind::EchoRequest, 7, 1),
        };
        let frame = b.payload(&payload).build();
        let m = Mutation::draw(&mut rng);
        let vid = rng.range_u16(1, 4095);
        let frame_vid = frame.vlan_id().unwrap_or(vid);
        let rules: Vec<(u16, FlowMatch)> = (0..1 + draw.index(4))
            .map(|_| (draw.index(3) as u16, layer_match(&mut draw, frame_vid)))
            .collect();
        let reads = rules
            .iter()
            .fold(PackedKey::default(), |u, (_, m)| u.or(&m.compile().mask));
        let mut lsi = LogicalSwitch::new("LSI-hostile", 1, Backend::SingleTableCached);
        lsi.add_port(PortNo(3), "in").unwrap();
        for (i, (priority, matches)) in rules.iter().enumerate() {
            let out = PortNo(10 + i as u32);
            lsi.add_port(out, "out").unwrap();
            let actions = vec![FlowAction::Output(out)];
            lsi.install(0, FlowEntry::new(*priority, matches.clone(), actions))
                .unwrap();
        }
        // Priority descending; the stable sort keeps insertion order
        // among equals.
        let mut first_match: Vec<usize> = (0..rules.len()).collect();
        first_match.sort_by_key(|&i| std::cmp::Reverse(rules[i].0));
        for mutant in mutants(&frame, &m) {
            for fed in [mutant.clone(), refilled(mutant)] {
                let key = PacketKey::extract(PortNo(3), &fed);
                assert_eq!(
                    PackedKey::extract(PortNo(3), &fed, &reads).and(&reads),
                    key.pack().and(&reads),
                    "{rules:?} on {key:?}"
                );
                let want: Vec<PortNo> = first_match
                    .iter()
                    .find(|&&i| rules[i].1.matches(&key))
                    .map(|&i| PortNo(10 + i as u32))
                    .into_iter()
                    .collect();
                let out = lsi.process(PortNo(3), fed.clone(), &costs).outputs;
                let got: Vec<PortNo> = out.iter().map(|(port, _)| *port).collect();
                assert_eq!(got, want, "{rules:?} on {key:?}");
                assert_eq!(key.vlan, fed.vlan_id());
                if fed.ethernet().is_err() {
                    assert_eq!((key.eth_type, key.eth_src), (0, MacAddr::ZERO));
                }
                if key.ip_src.is_none() {
                    assert_eq!((key.ip_dst, key.ip_proto), (None, None));
                }
                if key.l4_src.is_some() {
                    assert!(matches!(key.ip_proto, Some(6 | 17)), "{key:?}");
                }
                let mut pushed = fed.clone();
                if tagged || pushed.vlan_push(vid).is_err() {
                    continue;
                }
                let with_tag = PacketKey::extract(PortNo(3), &pushed);
                let expected = PacketKey {
                    vlan: Some(vid),
                    ..key
                };
                assert_eq!(with_tag, expected);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The memo in front of the microflow cache: the `(generation, class,
// entry)` of the last class a real lookup resolved, which answers the
// same class again without hashing. It must be invisible: every
// decision, `TableStats` and entry counter is what the cache alone
// gives.
// ---------------------------------------------------------------------

/// The population at which `FlowTable` recycles its microflow cache.
const CACHE_CAP: usize = 8_192;

/// One rule of [`CacheModel`], with the counters a lookup books on it.
#[derive(Debug)]
struct ModelRule {
    priority: u16,
    matches: FlowMatch,
    out: u32,
    cookie: u64,
    packets: u64,
    bytes: u64,
}

/// The flow table with the microflow cache alone: a first-match scan
/// decides, `class → generation` stands for the cache (same `key &
/// union` class, same generation bumps, same recycle rule), and the
/// stats and entry counters are what those imply. It has no memo; it
/// only notes which lookups the memo should answer.
#[derive(Debug, Default)]
struct CacheModel {
    /// In match order: priority desc, then insertion.
    rules: Vec<ModelRule>,
    union: PackedKey,
    generation: u64,
    cache: std::collections::HashMap<PackedKey, u64>,
    stats: TableStats,
    /// `(generation, class)` of the last resolved real lookup.
    last: Option<(u64, PackedKey)>,
    memo_hits: u64,
}

impl CacheModel {
    fn mutated(&mut self) {
        self.generation += 1;
        self.union = self
            .rules
            .iter()
            .fold(PackedKey::default(), |u, r| u.or(&r.matches.compile().mask));
    }

    fn insert(&mut self, priority: u16, matches: FlowMatch, out: u32, cookie: u64) {
        let pos = self.rules.partition_point(|r| r.priority >= priority);
        let rule = ModelRule {
            priority,
            matches,
            out,
            cookie,
            packets: 0,
            bytes: 0,
        };
        self.rules.insert(pos, rule);
        self.mutated();
    }

    fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| r.cookie != cookie);
        let removed = before - self.rules.len();
        if removed > 0 {
            self.mutated();
        }
        removed
    }

    fn clear(&mut self) {
        self.rules.clear();
        self.mutated();
    }

    /// The decision for `key` — winning rule and the stage that would
    /// report it — read off the model without changing it.
    fn decide(&self, key: &PacketKey) -> Option<(usize, LookupPath)> {
        let idx = self.rules.iter().position(|r| r.matches.matches(key))?;
        let class = key.pack().and(&self.union);
        let path = if self.cache.get(&class) == Some(&self.generation) {
            LookupPath::CacheHit
        } else if self.rules[idx].matches.compile().exact {
            LookupPath::ExactHit
        } else {
            LookupPath::MegaflowHit
        };
        Some((idx, path))
    }

    fn lookup(&mut self, key: &PacketKey, bytes: u64) -> Option<(usize, LookupPath)> {
        let class = key.pack().and(&self.union);
        let Some((idx, path)) = self.decide(key) else {
            self.stats.cache_misses += 1;
            self.stats.misses += 1;
            return None;
        };
        if path == LookupPath::CacheHit {
            self.stats.cache_hits += 1;
            if self.last == Some((self.generation, class)) {
                self.memo_hits += 1;
            }
        } else {
            self.stats.cache_misses += 1;
            match path {
                LookupPath::ExactHit => self.stats.exact_hits += 1,
                _ => self.stats.megaflow_hits += 1,
            }
            if self.cache.len() >= CACHE_CAP {
                self.cache.clear();
            }
            self.cache.insert(class, self.generation);
        }
        self.last = Some((self.generation, class));
        let rule = &mut self.rules[idx];
        rule.packets += 1;
        rule.bytes += bytes;
        Some((idx, path))
    }

    /// The hit the table must report for a decision.
    fn hit(&self, decision: Option<(usize, LookupPath)>) -> Option<(u64, u16, u32, LookupPath)> {
        decision.map(|(idx, path)| {
            let r = &self.rules[idx];
            (r.cookie, r.priority, r.out, path)
        })
    }

    /// Everything a lookup may change, as the table reports it.
    fn observed(table: &FlowTable) -> (TableStats, usize, Vec<(u64, u64)>) {
        let counters = table
            .entries()
            .map(|e| (e.packet_count, e.byte_count))
            .collect();
        (table.stats(), table.cache_entries(), counters)
    }

    /// The same, as the model predicts it.
    fn expected(&self) -> (TableStats, usize, Vec<(u64, u64)>) {
        let counters = self.rules.iter().map(|r| (r.packets, r.bytes)).collect();
        (self.stats, self.cache.len(), counters)
    }
}

/// A table's hit in the model's terms.
fn seen(hit: Option<LookupHit>) -> Option<(u64, u16, u32, LookupPath)> {
    hit.map(|h| {
        let out = match &h.actions[..] {
            [FlowAction::Output(p)] => p.0,
            other => panic!("unexpected actions {other:?}"),
        };
        (h.cookie, h.priority, out, h.path)
    })
}

/// One step of a memo run. Runs and alternations are where the memo
/// answers and where it must not; a ghost lookup sits between two real
/// ones, the second of its own class; a sweep of distinct source
/// addresses trips the cache recycle.
#[derive(Debug, Clone)]
enum MemoOp {
    Insert(RuleSpec, Option<u8>, u64),
    RemoveCookie(u64),
    Clear,
    Lookup(PacketKey),
    GhostBetween(PacketKey, PacketKey),
    Run(PacketKey, u16),
    Alternate(PacketKey, PacketKey, u16),
    Sweep(PacketKey),
}

fn memo_op_strategy() -> impl Strategy<Value = MemoOp> {
    (
        0u8..16,
        rule_strategy(),
        prop::option::of(0u8..2),
        0u64..4,
        key_strategy(),
        key_strategy(),
        1u16..40,
    )
        .prop_map(|(kind, rule, src, cookie, a, b, n)| match kind {
            0..=2 => MemoOp::Insert(rule, src, cookie),
            3 => MemoOp::RemoveCookie(cookie),
            4 => MemoOp::Clear,
            5..=7 => MemoOp::Lookup(a),
            8..=9 => MemoOp::GhostBetween(a, b),
            10..=11 => MemoOp::Run(a, n),
            12..=14 => MemoOp::Alternate(a, b, n),
            _ => MemoOp::Sweep(a),
        })
}

/// `spec`'s match, also reading the source address `10.0.0.<1 + src>`
/// when `src` is set: 10.0.0.1 is what `key_strategy` sends.
fn with_src(spec: &FlowMatch, src: Option<u8>) -> FlowMatch {
    let mut m = spec.clone();
    m.ip_src = src.map(|s| Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 1 + s), 32));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across any interleaving of inserts, cookie removals, clears,
    /// real and ghost lookups — runs of one class, two classes in
    /// turn, and sweeps past the cache's capacity — the table with its
    /// memo reports what the cache alone gives: the first-match scan's
    /// decision, the cache model's stage, the same `TableStats`, cache
    /// population and entry counters. A ghost lookup moves none of
    /// them, and `memo_hits` counts exactly the cache hits on the class
    /// the previous real lookup resolved.
    #[test]
    fn the_flow_table_memo_is_invisible(
        ops in prop::collection::vec(memo_op_strategy(), 1..40),
    ) {
        let mut rig = MemoRig::default();
        for op in &ops {
            match op {
                MemoOp::Insert(r, src, cookie) => {
                    rig.insert(r.priority, with_src(&to_match(r), *src), r.out, *cookie);
                }
                MemoOp::RemoveCookie(cookie) => {
                    let removed = rig.table.remove_by_cookie(*cookie);
                    prop_assert_eq!(removed, rig.model.remove_by_cookie(*cookie));
                    rig.again();
                }
                MemoOp::Clear => {
                    rig.table.clear();
                    rig.model.clear();
                    rig.again();
                }
                MemoOp::Lookup(key) => rig.real(key),
                MemoOp::GhostBetween(a, b) => {
                    rig.real(a);
                    rig.ghost(b);
                    rig.real(b);
                }
                MemoOp::Run(key, n) => {
                    for i in 0..*n {
                        // Another flow of the same class each time:
                        // no rule reads `l4_src`.
                        rig.real(&PacketKey { l4_src: Some(2000 + i), ..*key });
                    }
                }
                MemoOp::Alternate(a, b, n) => {
                    for i in 0..*n {
                        let (k, next) = if i % 2 == 0 { (a, b) } else { (b, a) };
                        rig.real(k);
                        if i % 5 == 4 {
                            // The class the next real lookup takes.
                            rig.ghost(next);
                        }
                    }
                }
                MemoOp::Sweep(key) => {
                    // A rule that reads the whole source address, so
                    // every swept source is a class of its own, and a
                    // catch-all, so every class resolves and is cached.
                    rig.insert(0, with_src(&FlowMatch::any(), Some(0)), 99, 3);
                    rig.insert(0, FlowMatch::any(), 99, 3);
                    let swept = |i: u32| PacketKey {
                        ip_src: Some(Ipv4Addr::from(0x0a01_0000 + i)),
                        ..*key
                    };
                    for i in 0..CACHE_CAP as u32 + 8 {
                        rig.real(&swept(i));
                        if i > 0 && rig.model.cache.len() == 1 {
                            // Just recycled: the class before is gone
                            // from the cache, and so from the memo.
                            rig.real(&swept(i - 1));
                        }
                    }
                    // Back to a source a rule may read.
                    rig.real(key);
                }
            }
            let observed = CacheModel::observed(&rig.table);
            prop_assert_eq!(observed, rig.model.expected(), "after {:?}", op);
            prop_assert_eq!(rig.table.memo_hits, rig.model.memo_hits, "after {:?}", op);
        }
    }
}

/// The table under test beside its model, and the last key a real
/// lookup took: a rule change is followed by that key again, the class
/// the memo holds, so a memo that outlives its generation shows.
#[derive(Debug, Default)]
struct MemoRig {
    table: FlowTable,
    model: CacheModel,
    bytes: u64,
    last: Option<PacketKey>,
}

impl MemoRig {
    /// A real lookup on both sides: the linear baseline's actions and
    /// the model's rule and stage.
    fn real(&mut self, key: &PacketKey) {
        self.bytes = self.bytes % 1500 + 61;
        let want = self.model.lookup(key, self.bytes);
        let want = self.model.hit(want);
        let got = self.table.lookup(key, self.bytes as usize);
        let base = linear_scan(&self.table, key);
        assert_eq!(got.as_ref().map(|h| h.actions.clone()), base);
        assert_eq!(seen(got), want, "{key:?}");
        self.last = Some(*key);
    }

    /// A ghost lookup: the model's decision, and the model unmoved.
    fn ghost(&mut self, key: &PacketKey) {
        let want = self.model.hit(self.model.decide(key));
        assert_eq!(seen(self.table.lookup_ghost(key)), want, "ghost {key:?}");
    }

    fn insert(&mut self, priority: u16, m: FlowMatch, out: u32, cookie: u64) {
        let entry = FlowEntry::new(priority, m.clone(), vec![FlowAction::Output(PortNo(out))]);
        self.table.insert(entry.with_cookie(cookie));
        self.model.insert(priority, m, out, cookie);
        self.again();
    }

    /// The last real lookup's key again, after a rule change.
    fn again(&mut self) {
        if let Some(key) = self.last {
            self.real(&key);
        }
    }
}

/// A run of one class is the memo's: 256 lookups of 256 flows on one
/// port cost one classification and 255 memo answers. Two classes in
/// turn never meet the memo: every lookup after the first two is a
/// hashed cache hit.
#[test]
fn a_run_of_one_class_is_answered_by_the_memo() {
    let table = || {
        let mut t = FlowTable::new();
        for port in [1, 2] {
            t.insert(FlowEntry::new(
                5,
                FlowMatch::in_port(PortNo(port)),
                vec![FlowAction::Output(PortNo(10 + port))],
            ));
        }
        t
    };
    let mut run = table();
    assert_eq!(misses_over(&mut run, &flows(1, None, 256)), 1);
    assert_eq!(run.memo_hits, 255);
    assert_eq!(run.stats().cache_hits, 255);

    let mut alternating = table();
    let (one, two) = (flows(1, None, 128), flows(2, None, 128));
    let turns: Vec<PacketKey> = one.iter().zip(&two).flat_map(|(a, b)| [*a, *b]).collect();
    assert_eq!(misses_over(&mut alternating, &turns), 2);
    assert_eq!(alternating.memo_hits, 0);
    assert_eq!(alternating.stats().cache_hits, 254);
}
