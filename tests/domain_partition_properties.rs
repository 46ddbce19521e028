//! Property tests for NF-FG partitioning: splitting a graph across a
//! fleet and reassembling it must be lossless, and every NF must land
//! on exactly one node.

use std::collections::BTreeMap;

use proptest::prelude::*;
use un_domain::{partition, reassemble};
use un_nffg::{
    Endpoint, EndpointKind, FlowRule, NetworkFunction, NfConfig, NfFg, NfPort, PortRef, RuleAction,
    TrafficMatch,
};

/// A generated scenario: a valid graph plus node assignments.
#[derive(Debug, Clone)]
struct Scenario {
    graph: NfFg,
    nf_node: BTreeMap<String, String>,
    endpoint_node: BTreeMap<String, String>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..=4, // nodes
        1usize..=5, // NFs
        1usize..=3, // endpoints
        prop::collection::vec(
            (
                any::<prop::sample::Index>(), // rule source port
                any::<prop::sample::Index>(), // rule target port
                any::<prop::sample::Index>(), // extra action variant
                1u16..100,                    // priority
            ),
            0..10,
        ),
        prop::collection::vec(any::<prop::sample::Index>(), 8), // NF→node
        prop::collection::vec(any::<prop::sample::Index>(), 8), // ep→node
    )
        .prop_map(|(n_nodes, n_nfs, n_eps, rule_specs, nf_homes, ep_homes)| {
            let nodes: Vec<String> = (0..n_nodes).map(|i| format!("node{i}")).collect();
            let nfs: Vec<NetworkFunction> = (0..n_nfs)
                .map(|i| NetworkFunction {
                    id: format!("nf{i}"),
                    functional_type: ["bridge", "firewall", "nat"][i % 3].to_string(),
                    ports: vec![NfPort { id: 0, name: None }, NfPort { id: 1, name: None }],
                    config: NfConfig::default(),
                    flavor: None,
                })
                .collect();
            let endpoints: Vec<Endpoint> = (0..n_eps)
                .map(|i| Endpoint {
                    id: format!("ep{i}"),
                    kind: EndpointKind::Interface {
                        if_name: format!("eth{i}"),
                    },
                })
                .collect();

            // The universe of referenceable ports.
            let mut ports: Vec<PortRef> = Vec::new();
            for ep in &endpoints {
                ports.push(PortRef::Endpoint(ep.id.clone()));
            }
            for nf in &nfs {
                ports.push(PortRef::Nf(nf.id.clone(), 0));
                ports.push(PortRef::Nf(nf.id.clone(), 1));
            }

            let flow_rules: Vec<FlowRule> = rule_specs
                .into_iter()
                .enumerate()
                .map(|(i, (src, dst, extra, priority))| {
                    let src = ports[src.index(ports.len())].clone();
                    let dst = ports[dst.index(ports.len())].clone();
                    let mut actions = Vec::new();
                    // Sprinkle non-output actions to prove they survive
                    // the cut untouched.
                    match extra.index(4) {
                        0 => actions.push(RuleAction::PushVlan(100 + i as u16)),
                        1 => actions.push(RuleAction::SetFwmark(i as u32 + 1)),
                        2 => actions.push(RuleAction::PopVlan),
                        _ => {}
                    }
                    actions.push(RuleAction::Output(dst));
                    FlowRule {
                        id: format!("r{i}"),
                        priority,
                        matches: TrafficMatch::from_port(src),
                        actions,
                    }
                })
                .collect();

            let graph = NfFg {
                id: "prop-graph".to_string(),
                name: "partition-prop".to_string(),
                nfs,
                endpoints,
                flow_rules,
            };
            let nf_node = graph
                .nfs
                .iter()
                .enumerate()
                .map(|(i, nf)| (nf.id.clone(), nodes[nf_homes[i].index(nodes.len())].clone()))
                .collect();
            let endpoint_node = graph
                .endpoints
                .iter()
                .enumerate()
                .map(|(i, ep)| (ep.id.clone(), nodes[ep_homes[i].index(nodes.len())].clone()))
                .collect();
            Scenario {
                graph,
                nf_node,
                endpoint_node,
            }
        })
}

fn vid_pool() -> impl FnMut(&str, &str, &PortRef) -> Option<u16> {
    let mut next = 3000u16;
    move |_, _, _| {
        let v = next;
        next = next.checked_add(1)?;
        Some(v)
    }
}

fn sorted(mut g: NfFg) -> NfFg {
    g.nfs.sort_by(|a, b| a.id.cmp(&b.id));
    g.endpoints.sort_by(|a, b| a.id.cmp(&b.id));
    g.flow_rules.sort_by(|a, b| a.id.cmp(&b.id));
    g
}

proptest! {
    /// Reassembling the per-node sub-graphs (synthesized cut-edge
    /// endpoint pairs removed, outputs retargeted) is rule-for-rule
    /// equivalent to the original NF-FG.
    #[test]
    fn partition_reassembles_to_original(s in arb_scenario()) {
        let p = partition(&s.graph, &s.nf_node, &s.endpoint_node, "fab0", &mut vid_pool())
            .unwrap();
        let back = reassemble(&p.parts, &p.links, &s.graph.id, &s.graph.name);
        prop_assert_eq!(back, sorted(s.graph.clone()));
    }

    /// Every NF lands on exactly one node — the node its assignment
    /// names — and nothing is duplicated or lost.
    #[test]
    fn every_nf_on_exactly_one_node(s in arb_scenario()) {
        let p = partition(&s.graph, &s.nf_node, &s.endpoint_node, "fab0", &mut vid_pool())
            .unwrap();
        for nf in &s.graph.nfs {
            let hosts: Vec<&String> = p
                .parts
                .iter()
                .filter(|(_, part)| part.nf(&nf.id).is_some())
                .map(|(node, _)| node)
                .collect();
            prop_assert_eq!(hosts.len(), 1, "NF '{}' on {:?}", &nf.id, hosts);
            prop_assert_eq!(hosts[0], &s.nf_node[&nf.id]);
        }
        let total: usize = p.parts.values().map(|part| part.nfs.len()).sum();
        prop_assert_eq!(total, s.graph.nfs.len());
    }

    /// Every rule lives exactly once: on the node of its port-in (the
    /// synthesized delivery rules are extra and belong to links).
    #[test]
    fn rules_follow_their_port_in(s in arb_scenario()) {
        let p = partition(&s.graph, &s.nf_node, &s.endpoint_node, "fab0", &mut vid_pool())
            .unwrap();
        let synthesized: Vec<&str> = p.links.iter().map(|l| l.in_rule_id.as_str()).collect();
        for rule in &s.graph.flow_rules {
            let node_of_port_in = match rule.matches.port_in.as_ref().unwrap() {
                PortRef::Endpoint(e) => &s.endpoint_node[e],
                PortRef::Nf(nf, _) => &s.nf_node[nf],
            };
            let hosts: Vec<&String> = p
                .parts
                .iter()
                .filter(|(_, part)| part.flow_rules.iter().any(|r| r.id == rule.id))
                .map(|(node, _)| node)
                .collect();
            prop_assert_eq!(hosts.len(), 1);
            prop_assert_eq!(hosts[0], node_of_port_in);
        }
        let total: usize = p.parts.values().map(|part| part.flow_rules.len()).sum();
        prop_assert_eq!(total, s.graph.flow_rules.len() + synthesized.len());
    }

    /// If the original graph validates, every part validates too — a
    /// partition is deployable by construction.
    #[test]
    fn valid_graphs_partition_into_valid_parts(s in arb_scenario()) {
        // Only valid graphs are in scope (the generator can produce
        // e.g. self-referencing rules the validator rejects).
        if un_nffg::validate(&s.graph).is_empty() {
            let p = partition(&s.graph, &s.nf_node, &s.endpoint_node, "fab0", &mut vid_pool())
                .unwrap();
            for (node, part) in p.parts.iter() {
                // A part holding only unreferenced NFs has no endpoints
                // and is vacuously undeployable; every other part must
                // validate apart from the no-endpoint rule.
                let errs = un_nffg::validate(part);
                let real: Vec<_> = errs
                    .iter()
                    .filter(|e| !matches!(e, un_nffg::ValidationError::NoEndpoints))
                    .collect();
                prop_assert!(real.is_empty(), "part on {} invalid: {:?}", node, real);
            }
        }
    }
}
