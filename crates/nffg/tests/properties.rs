//! Property-based tests for the NF-FG model.

use proptest::prelude::*;
use un_nffg::{diff, from_json, to_json, NfConfig, NfFg, NfFgBuilder};

fn arb_graph() -> impl Strategy<Value = NfFg> {
    (
        "[a-z]{1,8}",
        prop::collection::vec(("[a-z]{1,6}", 0usize..3), 1..5),
        1usize..4,
        prop::collection::vec(("[a-z]{1,8}", "[a-z0-9.]{0,12}"), 0..4),
    )
        .prop_map(|(id, nf_specs, n_eps, params)| {
            let mut b = NfFgBuilder::new(&format!("g-{id}"), "prop");
            for i in 0..n_eps {
                b = b.interface_endpoint(&format!("ep{i}"), &format!("eth{i}"));
            }
            let mut cfg = NfConfig::default();
            for (k, v) in params {
                cfg.params.insert(k, v);
            }
            let mut names = Vec::new();
            for (i, (name, kind)) in nf_specs.into_iter().enumerate() {
                let ft = ["bridge", "firewall", "nat"][kind % 3];
                let unique = format!("{name}{i}");
                b = b.nf_with_config(&unique, ft, 2, cfg.clone());
                names.push(unique);
            }
            // A rule per NF to make the graph non-trivial.
            for (i, nf) in names.iter().enumerate() {
                b = b.rule_through(&format!("r{i}"), (i + 1) as u16, "ep0", (nf.as_str(), 0));
            }
            b.build()
        })
}

proptest! {
    /// JSON serialization round-trips every generated graph exactly.
    #[test]
    fn json_roundtrip(g in arb_graph()) {
        let json = to_json(&g);
        let back = from_json(&json).unwrap();
        prop_assert_eq!(back, g);
    }

    /// diff(g, g) is empty; diff is consistent with its inverse.
    #[test]
    fn diff_identity_and_symmetry(a in arb_graph(), b in arb_graph()) {
        prop_assert!(diff(&a, &a).is_empty());
        let d_ab = diff(&a, &b);
        let d_ba = diff(&b, &a);
        // NFs added one way are removed the other way.
        let added_ab: Vec<&str> = d_ab.added_nfs.iter().map(|n| n.id.as_str()).collect();
        let removed_ba: Vec<&str> = d_ba.removed_nfs.iter().map(|s| s.as_str()).collect();
        let mut x = added_ab.clone();
        x.sort_unstable();
        let mut y = removed_ba.clone();
        y.sort_unstable();
        prop_assert_eq!(x, y);
        prop_assert_eq!(d_ab.changed_nfs.len(), d_ba.changed_nfs.len());
    }

    /// Builder-produced chains always validate.
    #[test]
    fn builder_chains_validate(n_nfs in 1usize..6) {
        let ids: Vec<String> = (0..n_nfs).map(|i| format!("nf{i}")).collect();
        let mut b = NfFgBuilder::new("g", "chain")
            .interface_endpoint("in", "eth0")
            .interface_endpoint("out", "eth1");
        for id in &ids {
            b = b.nf(id, "bridge", 2);
        }
        let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
        let g = b.chain("in", &refs, "out").build();
        prop_assert!(un_nffg::validate(&g).is_empty());
    }
}

/// A document using every part of the format: interface, VLAN and
/// internal endpoints, a flavor hint, scalar params and rule entries.
fn genuine_document() -> String {
    let mut fw = NfConfig::default()
        .with_param("addr0", "192.168.1.1/24")
        .with_param("policy", "drop");
    let mut rule = std::collections::BTreeMap::new();
    rule.insert("proto".to_string(), "udp".to_string());
    rule.insert("dport".to_string(), "53".to_string());
    fw.rules.push(rule);
    let g = NfFgBuilder::new("g-hostile", "mutation target")
        .interface_endpoint("lan", "eth0")
        .vlan_endpoint("wan", "eth1", 300)
        .internal_endpoint("peer", "grp")
        .nf_with_config("fw", "firewall", 2, fw)
        .with_flavor("docker")
        .nf("nat", "nat", 2)
        .chain("lan", &["fw", "nat"], "wan")
        .rule_through("to-peer", 9, ("nat", 1), "peer")
        .build();
    assert!(un_nffg::validate(&g).is_empty());
    un_nffg::to_json_pretty(&g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A hostile NF-FG body is a typed error or a graph, never a panic.
    /// A genuine document is cut anywhere, has a byte flipped, has noise
    /// spliced in and has a run of openers (deeper than the parser's
    /// bound, or not) inserted; each mutant, read as UTF-8 with bad
    /// sequences replaced, goes through `from_json` and, if it parses,
    /// `validate`.
    #[test]
    fn a_hostile_document_is_a_typed_error_or_a_graph(
        at in any::<u16>(),
        flip in 1u8..=255,
        cut in any::<u16>(),
        noise in prop::collection::vec(any::<u8>(), 1..40),
        openers in 1usize..300,
        object in any::<bool>(),
    ) {
        let doc = genuine_document().into_bytes();
        let len = doc.len();
        let pos = |n: u16| usize::from(n) % len;

        let mut flipped = doc.clone();
        flipped[pos(at)] ^= flip;
        let short = doc[..pos(cut)].to_vec();
        let mut spliced = doc[..pos(at)].to_vec();
        spliced.extend_from_slice(&noise);
        spliced.extend_from_slice(&doc[pos(at)..]);
        let opener: &[u8] = if object { b"{\"a\":" } else { b"[" };
        let mut deep = doc[..pos(cut)].to_vec();
        deep.extend(opener.repeat(openers));
        deep.extend_from_slice(&doc[pos(cut)..]);

        for mutant in [flipped, short, spliced, deep] {
            if let Ok(g) = from_json(&String::from_utf8_lossy(&mutant)) {
                un_nffg::validate(&g);
            }
        }
        prop_assert!(from_json(&String::from_utf8_lossy(&doc)).is_ok());
    }
}
