//! Property test: a table audited traffic class by traffic class says
//! what the whole-table audit says.
//!
//! For every class of a random LSI-0-shaped table — pinned ports with
//! VLAN ids, untagged and any-tagged rules, rules on any port, prefixes
//! and L4 ports that overlap partly — `shadowed_rules_in` runs over the
//! rules whose class meets it, each at its table position, judging only
//! that class's rules. The union of those answers must be the whole
//! table's `shadowed_rules` answer, covering sets included, and the
//! piece counts must add up to the whole table's, also under a budget
//! low enough to trip. This is what lets an incremental verify re-audit
//! only the classes a change touched.

use proptest::prelude::*;
use un_switch::{FlowMatch, PortNo, TrafficClass, VlanSpec};
use un_verify::{shadowed_rules, shadowed_rules_in};

fn match_strategy() -> impl Strategy<Value = FlowMatch> {
    (0u32..u32::MAX, 0u32..u32::MAX).prop_map(|(a, b)| {
        let pick = |x: u32, shift: u32, n: u32| (x >> shift) % n;
        let mut m = FlowMatch::any();
        if pick(a, 0, 6) != 0 {
            m.in_port = Some(PortNo(pick(a, 3, 4)));
        }
        m.vlan = match pick(a, 6, 6) {
            0 => None,
            1 => Some(VlanSpec::Untagged),
            2 => Some(VlanSpec::AnyTagged),
            _ => Some(VlanSpec::Id(100 + pick(a, 9, 3) as u16)),
        };
        if pick(a, 12, 3) == 0 {
            let nets = ["10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "0.0.0.0/0"];
            m.ip_dst = Some(nets[pick(b, 0, 4) as usize].parse().unwrap());
        }
        if pick(a, 15, 4) == 0 {
            m.l4_dst = Some(80 + pick(b, 4, 2) as u16);
        }
        m
    })
}

/// The whole table's answer, assembled class by class.
fn by_class(table: &[FlowMatch], budget: usize) -> (Vec<(usize, Vec<usize>)>, usize) {
    let mut classes: Vec<TrafficClass> = table.iter().map(TrafficClass::of).collect();
    classes.sort_unstable();
    classes.dedup();
    let (mut shadowed, mut pieces) = (Vec::new(), 0);
    for class in classes {
        // The rules an audit of `class` reads, and where each sits.
        let at: Vec<usize> = (0..table.len())
            .filter(|&i| TrafficClass::of(&table[i]).meets(class))
            .collect();
        let matches: Vec<&FlowMatch> = at.iter().map(|&i| &table[i]).collect();
        let judged = |i: usize| TrafficClass::of(matches[i]) == class;
        let (found, n) = shadowed_rules_in(&matches, |i| at[i], judged, budget);
        pieces += n;
        for (i, covering) in found {
            shadowed.push((at[i], covering.iter().map(|&j| at[j]).collect()));
        }
    }
    shadowed.sort_unstable();
    (shadowed, pieces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_table_audited_class_by_class_is_the_whole_table(
        table in prop::collection::vec(match_strategy(), 1..24),
        low in any::<bool>(),
    ) {
        let budget = if low { 6 } else { 4096 };
        let matches: Vec<&FlowMatch> = table.iter().collect();
        let whole = shadowed_rules(&matches, budget);
        prop_assert_eq!(by_class(&table, budget), whole);
    }
}
