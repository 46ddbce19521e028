//! Property test: a rule injected *below* a rule that fully covers it
//! is always flagged by the dead-rule detector, no matter what else is
//! in the table.
//!
//! The injected rule is either an exact duplicate of a random earlier
//! rule or a strict narrowing of one (one extra constrained field) —
//! both are fully shadowed by construction, so `shadowed_rules` must
//! report the injected index every single time.
//!
//! Second property: the allocation-free disjointness pre-filter in
//! front of the region algebra changes nothing. `oracle_shadowed_rules`
//! is the analysis without the filter — every predecessor subtracted
//! from every piece — and `shadowed_rules` must return the same
//! shadowed indices, covering sets and class count on every table,
//! including ones that run out of piece budget.

use proptest::prelude::*;
use un_switch::{FlowMatch, PortNo, VlanSpec};
use un_verify::{provably_disjoint, shadowed_rules, Region};

/// The dead-rule analysis as pure algebra: no predecessor is skipped.
fn oracle_shadowed_rules(
    matches: &[&FlowMatch],
    piece_budget: usize,
) -> (Vec<(usize, Vec<usize>)>, usize) {
    let mut shadowed = Vec::new();
    let mut classes = 0usize;
    for i in 1..matches.len() {
        let Some(start) = Region::from_match(matches[i]) else {
            continue;
        };
        let mut pieces = vec![start];
        let mut covering: Vec<usize> = Vec::new();
        let mut over_budget = false;
        for (j, m) in matches.iter().enumerate().take(i) {
            let mut next: Vec<Region> = Vec::new();
            let mut cut = false;
            for p in &pieces {
                let parts = p.subtract_match(m);
                cut |= parts.len() != 1 || parts[0] != *p;
                next.extend(parts);
            }
            if cut {
                covering.push(j);
            }
            if next.len() > piece_budget {
                over_budget = true;
                break;
            }
            classes += next.len();
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        if pieces.is_empty() && !over_budget {
            shadowed.push((i, covering));
        }
    }
    (shadowed, classes)
}

/// Prefixes that nest (`/8 ⊃ /16 ⊃ /24`), sit side by side
/// (`10.1/16` vs `10.2/16`) and are unrelated (`192.168.0/24`).
const NETS: [&str; 6] = [
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.2.0.0/16",
    "192.168.0.0/24",
    "0.0.0.0/0",
];

/// A random match over every dimension the filter looks at: ports, all
/// three VLAN specs, MACs, EtherType, both prefixes, protocol, both L4
/// ports and the fwmark, each independently present or wildcarded and
/// drawn from a universe small enough that rules collide often.
fn mixed_match_strategy() -> impl Strategy<Value = FlowMatch> {
    (0u16..2048, 0u32..u32::MAX).prop_map(|(mask, seed)| {
        let pick = |shift: u32, n: u32| (seed >> shift) % n;
        let on = |bit: u16| mask & (1 << bit) != 0;
        let mac = |n: u32| un_packet::ethernet::MacAddr::local(n);
        let mut m = FlowMatch::any();
        if on(0) {
            m.in_port = Some(PortNo(pick(0, 3)));
        }
        if on(1) {
            m.vlan = Some(match pick(2, 4) {
                0 => VlanSpec::Untagged,
                1 => VlanSpec::AnyTagged,
                v => VlanSpec::Id(v as u16),
            });
        }
        if on(2) {
            m.eth_type = Some([0x0800, 0x0806][pick(4, 2) as usize]);
        }
        if on(3) {
            m.ip_src = Some(NETS[pick(5, 6) as usize].parse().unwrap());
        }
        if on(4) {
            m.ip_dst = Some(NETS[pick(8, 6) as usize].parse().unwrap());
        }
        if on(5) {
            m.ip_proto = Some([6, 17][pick(11, 2) as usize]);
        }
        if on(6) {
            m.l4_src = Some(1000 + pick(12, 2) as u16);
        }
        if on(7) {
            m.l4_dst = Some(80 + pick(13, 3) as u16);
        }
        if on(8) {
            m.fwmark = Some(pick(15, 2));
        }
        if on(9) {
            m.eth_src = Some(mac(pick(16, 2)));
        }
        if on(10) {
            m.eth_dst = Some(mac(pick(17, 2)));
        }
        m
    })
}

/// A random flow match over a small universe of values: every field is
/// independently present or wildcarded, so tables mix broad and narrow
/// rules and overlap in interesting ways.
fn match_strategy() -> impl Strategy<Value = FlowMatch> {
    (0u8..64, 0u8..4, 0u8..4, 0u8..3, 0u8..4).prop_map(|(mask, port, vlan, ip, small)| {
        let mut m = FlowMatch::any();
        if mask & 1 != 0 {
            m.in_port = Some(PortNo(port as u32));
        }
        if mask & 2 != 0 {
            m.vlan = Some(match vlan {
                0 => VlanSpec::Untagged,
                1 => VlanSpec::AnyTagged,
                v => VlanSpec::Id(v as u16),
            });
        }
        if mask & 4 != 0 {
            m.eth_type = Some(0x0800);
        }
        if mask & 8 != 0 {
            let nets = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"];
            m.ip_dst = Some(nets[ip as usize].parse().unwrap());
        }
        if mask & 16 != 0 {
            m.l4_dst = Some(80 + small as u16);
        }
        if mask & 32 != 0 {
            m.fwmark = Some(small as u32);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn injected_fully_shadowed_rule_is_always_flagged(
        table in prop::collection::vec(match_strategy(), 1..12),
        pick in any::<u16>(),
        narrowing in 0u8..3,
    ) {
        let cover_idx = pick as usize % table.len();
        let mut injected = table[cover_idx].clone();
        // Optionally narrow the copy: constraining one more field
        // keeps the region a non-empty subset of the cover's region.
        match narrowing {
            1 if injected.fwmark.is_none() => injected.fwmark = Some(9),
            2 if injected.l4_dst.is_none() => injected.l4_dst = Some(443),
            _ => {}
        }

        let mut matches: Vec<&FlowMatch> = table.iter().collect();
        matches.push(&injected);
        let injected_idx = matches.len() - 1;

        let (shadowed, classes) = shadowed_rules(&matches, 4096);
        let hit = shadowed.iter().find(|(i, _)| *i == injected_idx);
        prop_assert!(
            hit.is_some(),
            "injected copy of rule #{cover_idx} not flagged (classes={classes}): {injected:?}"
        );
        // The covering set names real predecessors, including one that
        // actually covers it on its own or as part of the union.
        let (_, covering) = hit.unwrap();
        prop_assert!(!covering.is_empty());
        prop_assert!(covering.iter().all(|j| *j < injected_idx));
    }

    #[test]
    fn detector_never_flags_the_first_rule(
        table in prop::collection::vec(match_strategy(), 1..12),
    ) {
        let matches: Vec<&FlowMatch> = table.iter().collect();
        let (shadowed, _) = shadowed_rules(&matches, 4096);
        prop_assert!(shadowed.iter().all(|(i, _)| *i != 0));
    }

    #[test]
    fn prefilter_changes_nothing(
        table in prop::collection::vec(mixed_match_strategy(), 1..24),
        budget in 0usize..5,
    ) {
        // Budgets small enough to trip on ordinary tables, and the
        // production one.
        let budget = [0, 1, 3, 16, 4096][budget];
        let matches: Vec<&FlowMatch> = table.iter().collect();
        prop_assert_eq!(
            shadowed_rules(&matches, budget),
            oracle_shadowed_rules(&matches, budget),
            "budget {}: {:#?}", budget, table
        );
    }

    #[test]
    fn prefilter_is_sound_against_the_algebra(
        a in mixed_match_strategy(),
        b in mixed_match_strategy(),
    ) {
        // "Provably disjoint" must imply an empty intersection — and,
        // for matches (single hyperrectangles), the two coincide.
        let meets = Region::from_match(&a).unwrap().intersect_match(&b).is_some();
        prop_assert_eq!(provably_disjoint(&a, &b), !meets, "{:?} vs {:?}", a, b);
        prop_assert_eq!(provably_disjoint(&a, &b), provably_disjoint(&b, &a));
    }
}

fn m(f: impl FnOnce(&mut FlowMatch)) -> FlowMatch {
    let mut m = FlowMatch::any();
    f(&mut m);
    m
}

#[test]
fn prefilter_answers_may_intersect_when_in_doubt() {
    let any_tag = m(|m| m.vlan = Some(VlanSpec::AnyTagged));
    let tag7 = m(|m| m.vlan = Some(VlanSpec::Id(7)));
    let untagged = m(|m| m.vlan = Some(VlanSpec::Untagged));
    assert!(!provably_disjoint(&any_tag, &tag7));
    assert!(!provably_disjoint(&tag7, &any_tag));
    assert!(!provably_disjoint(&any_tag, &any_tag));
    assert!(!provably_disjoint(&untagged, &untagged));
    assert!(provably_disjoint(&untagged, &any_tag));
    assert!(provably_disjoint(&tag7, &untagged));
    assert!(provably_disjoint(
        &tag7,
        &m(|m| m.vlan = Some(VlanSpec::Id(8)))
    ));

    let wide = m(|m| m.ip_dst = Some("10.0.0.0/8".parse().unwrap()));
    let narrow = m(|m| m.ip_dst = Some("10.1.0.0/16".parse().unwrap()));
    let sibling = m(|m| m.ip_dst = Some("10.2.0.0/16".parse().unwrap()));
    assert!(!provably_disjoint(&wide, &narrow));
    assert!(!provably_disjoint(&narrow, &wide));
    assert!(provably_disjoint(&narrow, &sibling));
    // Different dimensions never conflict; a wildcard meets anything.
    assert!(!provably_disjoint(&narrow, &tag7));
    assert!(!provably_disjoint(&FlowMatch::any(), &sibling));
    assert!(!provably_disjoint(
        &wide,
        &m(|m| m.ip_src = Some("192.168.0.0/24".parse().unwrap()))
    ));
}

#[test]
fn budget_accounting_survives_the_prefilter() {
    // Rule #9 is a wildcard below eight /32-ish splinters: every
    // subtraction multiplies pieces, and the disjoint port rule in the
    // middle must be charged against the budget like any other step.
    let mut table: Vec<FlowMatch> = (0..8u32)
        .map(|i| {
            m(|m| {
                m.ip_dst = Some(format!("10.{i}.0.0/16").parse().unwrap());
                m.l4_dst = Some(80 + i as u16);
            })
        })
        .collect();
    table.insert(4, m(|m| m.in_port = Some(PortNo(1))));
    table.push(m(|m| m.in_port = Some(PortNo(2))));
    let matches: Vec<&FlowMatch> = table.iter().collect();
    let mut tripped = false;
    for budget in [0, 1, 2, 8, 64, 4096] {
        let got = shadowed_rules(&matches, budget);
        assert_eq!(
            got,
            oracle_shadowed_rules(&matches, budget),
            "budget {budget}"
        );
        tripped |= got.1 < shadowed_rules(&matches, usize::MAX).1;
    }
    assert!(tripped, "no budget in the ladder was ever exhausted");
}
