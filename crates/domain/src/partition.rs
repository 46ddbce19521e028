//! NF-FG partitioning: split one graph into per-node sub-graphs.
//!
//! Every flow rule lives on the node of its `port-in`. When a rule's
//! output refers to an NF or endpoint placed on *another* node, the
//! edge is **cut** and an endpoint pair is synthesized:
//!
//! * both parts gain a VLAN endpoint `ovl-<vid>` on the fabric port
//!   (the per-link VLAN id is the wire identity of the overlay link);
//! * the source rule keeps its match and action list, with the remote
//!   `Output` retargeted at the synthesized endpoint;
//! * the destination part gains one forwarding rule
//!   `ovl-<vid> → <original target>`.
//!
//! When the fabric topology is not a full mesh, a cut edge between
//! non-adjacent nodes rides a pinned multi-hop path: [`install_transit`]
//! augments the parts with **transit flow rules** on every intermediate
//! node (`ovl-<vid>` in → `ovl-<vid>` out on the fabric port), creating
//! NF-less transit parts where the node hosts nothing else.
//!
//! [`reassemble`] is the exact inverse (drop synthesized endpoints and
//! rules — including transit state — and retarget outputs back); the
//! property tests check that `reassemble(partition(g)) == g`
//! rule-for-rule and that every NF lands on exactly one node.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use un_nffg::{Endpoint, EndpointKind, FlowRule, NfFg, PortRef, RuleAction, TrafficMatch};

/// Priority of synthesized delivery rules. The match is a dedicated
/// overlay endpoint, so the value never competes with tenant rules.
const OVERLAY_RULE_PRIORITY: u16 = 100;

/// One cut edge realized as a VLAN-tagged virtual wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayLink {
    /// Fleet-unique VLAN id carrying this link on the fabric.
    pub vid: u16,
    /// Node hosting the rule that sends into the link.
    pub from_node: String,
    /// Node hosting the target.
    pub to_node: String,
    /// Synthesized endpoint id (same in both parts): `ovl-<vid>`.
    pub endpoint_id: String,
    /// The original target the link delivers to on `to_node`.
    pub dst_target: PortRef,
    /// Id of the synthesized delivery rule in the `to_node` part.
    pub in_rule_id: String,
}

/// The outcome of partitioning one graph.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per-node sub-graphs (node name → part). Part ids equal the
    /// original graph id; names carry a `@node` suffix. Shared with
    /// every verifier snapshot that lowers the graph; a plan still
    /// being built holds it alone, so `Arc::make_mut` does not copy.
    pub parts: Arc<BTreeMap<String, NfFg>>,
    /// Synthesized inter-node links.
    pub links: Vec<OverlayLink>,
}

impl Partition {
    /// Nodes that host a part.
    pub fn node_names(&self) -> Vec<String> {
        self.parts.keys().cloned().collect()
    }
}

/// Why partitioning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// An NF has no node assignment.
    UnassignedNf(String),
    /// An endpoint has no node assignment.
    UnassignedEndpoint(String),
    /// A rule references an unknown NF or endpoint.
    DanglingRef { rule: String, port: String },
    /// The VLAN id pool for overlay links is exhausted.
    VidExhausted,
    /// The graph uses an id in the reserved `ovl-` namespace.
    ReservedId(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::UnassignedNf(nf) => write!(f, "NF '{nf}' has no node assignment"),
            PartitionError::UnassignedEndpoint(ep) => {
                write!(f, "endpoint '{ep}' has no node assignment")
            }
            PartitionError::DanglingRef { rule, port } => {
                write!(f, "rule '{rule}' references unknown port '{port}'")
            }
            PartitionError::VidExhausted => write!(f, "overlay VLAN id pool exhausted"),
            PartitionError::ReservedId(id) => {
                write!(f, "id '{id}' uses the reserved 'ovl-' namespace")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Split `graph` into per-node parts given NF and endpoint assignments.
///
/// `fabric_port` is the physical interface carrying overlay traffic on
/// every node. `alloc_vid` hands out fleet-unique VLAN ids and receives
/// the cut-edge identity `(from node, to node, target)` so a caller
/// re-partitioning a live graph can return the *same* vid for an
/// unchanged cut — keeping synthesized endpoint ids stable, which is
/// what lets rule-only updates apply in place on the nodes.
///
/// Ids starting with `ovl-` are reserved for synthesized cut-edge
/// endpoints and rules; graphs using the prefix are rejected.
pub fn partition(
    graph: &NfFg,
    nf_node: &BTreeMap<String, String>,
    endpoint_node: &BTreeMap<String, String>,
    fabric_port: &str,
    alloc_vid: &mut dyn FnMut(&str, &str, &PortRef) -> Option<u16>,
) -> Result<Partition, PartitionError> {
    // The ovl- namespace belongs to the partitioner: a tenant id shaped
    // like a synthesized one would collide with cut-edge endpoints (or
    // be silently dropped by `reassemble`).
    for id in graph
        .endpoints
        .iter()
        .map(|e| &e.id)
        .chain(graph.flow_rules.iter().map(|r| &r.id))
    {
        if id.starts_with("ovl-") {
            return Err(PartitionError::ReservedId(id.clone()));
        }
    }

    // Node of a port reference.
    let node_of = |p: &PortRef| -> Result<&str, PartitionError> {
        match p {
            PortRef::Endpoint(id) => endpoint_node
                .get(id)
                .map(String::as_str)
                .ok_or_else(|| PartitionError::UnassignedEndpoint(id.clone())),
            PortRef::Nf(nf, _) => nf_node
                .get(nf)
                .map(String::as_str)
                .ok_or_else(|| PartitionError::UnassignedNf(nf.clone())),
        }
    };

    let mut parts: BTreeMap<String, NfFg> = BTreeMap::new();
    let part_of = |parts: &mut BTreeMap<String, NfFg>, node: &str| {
        if !parts.contains_key(node) {
            parts.insert(node.to_string(), empty_part(graph, node));
        }
    };

    // NFs and endpoints go to their assigned node's part.
    for nf in &graph.nfs {
        let node = nf_node
            .get(&nf.id)
            .ok_or_else(|| PartitionError::UnassignedNf(nf.id.clone()))?
            .clone();
        part_of(&mut parts, &node);
        parts.get_mut(&node).expect("created").nfs.push(nf.clone());
    }
    for ep in &graph.endpoints {
        let node = endpoint_node
            .get(&ep.id)
            .ok_or_else(|| PartitionError::UnassignedEndpoint(ep.id.clone()))?
            .clone();
        part_of(&mut parts, &node);
        parts
            .get_mut(&node)
            .expect("created")
            .endpoints
            .push(ep.clone());
    }

    // Rules: keep on the port-in node; cut remote outputs.
    let mut links: Vec<OverlayLink> = Vec::new();
    // (src node, dst node, dst target) → index into `links`.
    let mut link_index: BTreeMap<(String, String, PortRef), usize> = BTreeMap::new();

    for rule in &graph.flow_rules {
        let port_in = rule
            .matches
            .port_in
            .as_ref()
            .ok_or_else(|| PartitionError::DanglingRef {
                rule: rule.id.clone(),
                port: "<missing port-in>".into(),
            })?;
        let src_node = node_of(port_in)?.to_string();
        part_of(&mut parts, &src_node);

        let mut placed = rule.clone();
        for action in &mut placed.actions {
            let RuleAction::Output(target) = action else {
                continue;
            };
            let dst_node = node_of(target)?.to_string();
            if dst_node == src_node {
                continue;
            }
            // Cut edge: reuse or create the overlay link.
            let key = (src_node.clone(), dst_node.clone(), target.clone());
            let idx = match link_index.get(&key) {
                Some(idx) => *idx,
                None => {
                    let vid = alloc_vid(&src_node, &dst_node, target)
                        .ok_or(PartitionError::VidExhausted)?;
                    let endpoint_id = format!("ovl-{vid}");
                    let in_rule_id = format!("ovl-{vid}-in");
                    // Endpoint pair on both parts.
                    for node in [&src_node, &dst_node] {
                        part_of(&mut parts, node);
                        parts
                            .get_mut(node.as_str())
                            .expect("created")
                            .endpoints
                            .push(Endpoint {
                                id: endpoint_id.clone(),
                                kind: EndpointKind::Vlan {
                                    if_name: fabric_port.to_string(),
                                    vlan_id: vid,
                                },
                            });
                    }
                    // Delivery rule on the destination part.
                    parts
                        .get_mut(dst_node.as_str())
                        .expect("created")
                        .flow_rules
                        .push(FlowRule {
                            id: in_rule_id.clone(),
                            priority: OVERLAY_RULE_PRIORITY,
                            matches: TrafficMatch::from_port(PortRef::Endpoint(
                                endpoint_id.clone(),
                            )),
                            actions: vec![RuleAction::Output(target.clone())],
                        });
                    links.push(OverlayLink {
                        vid,
                        from_node: src_node.clone(),
                        to_node: dst_node.clone(),
                        endpoint_id,
                        dst_target: target.clone(),
                        in_rule_id,
                    });
                    let idx = links.len() - 1;
                    link_index.insert(key, idx);
                    idx
                }
            };
            *target = PortRef::Endpoint(links[idx].endpoint_id.clone());
        }
        parts
            .get_mut(&src_node)
            .expect("created")
            .flow_rules
            .push(placed);
    }

    Ok(Partition {
        parts: parts.into(),
        links,
    })
}

/// A fresh NF-less part for `node`. The id/name convention (graph id,
/// `name@node`) is what update/repair reconciliation keys on, so every
/// part — NF-bearing or transit-only — must be minted here.
fn empty_part(graph: &NfFg, node: &str) -> NfFg {
    NfFg {
        id: graph.id.clone(),
        name: format!("{}@{node}", graph.name),
        nfs: Vec::new(),
        endpoints: Vec::new(),
        flow_rules: Vec::new(),
    }
}

/// Install transit flow rules for every multi-hop overlay link.
///
/// `paths` maps each link's vid to its pinned node path (`[from, …,
/// to]`, as produced by the topology's path engine). Every intermediate
/// node gains the link's `ovl-<vid>` VLAN endpoint on the fabric port
/// plus one forwarding rule `ovl-<vid>-transit: ovl-<vid> → ovl-<vid>`
/// — the frame re-enters the fabric with its tag intact and the domain
/// shuttle advances it to the next hop of the pinned path. Nodes that
/// host nothing else get a fresh NF-less **transit part** (id/name
/// follow the part convention), so the transit state participates in
/// deploy/update/repair reconciliation like any other part.
///
/// Two-node paths (adjacent nodes, and every full-mesh path) are
/// untouched.
pub fn install_transit(
    graph: &NfFg,
    parts: &mut BTreeMap<String, NfFg>,
    links: &[OverlayLink],
    paths: &BTreeMap<u16, Vec<String>>,
    fabric_port: &str,
) {
    for link in links {
        let Some(path) = paths.get(&link.vid) else {
            continue;
        };
        for node in path.iter().take(path.len().saturating_sub(1)).skip(1) {
            let part = parts
                .entry(node.clone())
                .or_insert_with(|| empty_part(graph, node));
            part.endpoints.push(Endpoint {
                id: link.endpoint_id.clone(),
                kind: EndpointKind::Vlan {
                    if_name: fabric_port.to_string(),
                    vlan_id: link.vid,
                },
            });
            part.flow_rules.push(FlowRule {
                id: format!("ovl-{}-transit", link.vid),
                priority: OVERLAY_RULE_PRIORITY,
                matches: TrafficMatch::from_port(PortRef::Endpoint(link.endpoint_id.clone())),
                actions: vec![RuleAction::Output(PortRef::Endpoint(
                    link.endpoint_id.clone(),
                ))],
            });
        }
    }
}

/// Reconstruct the original graph from its parts — the inverse of
/// [`partition`]. `id`/`name` restore the original identity (part names
/// carry a node suffix).
pub fn reassemble(
    parts: &BTreeMap<String, NfFg>,
    links: &[OverlayLink],
    id: &str,
    name: &str,
) -> NfFg {
    let by_endpoint: BTreeMap<&str, &OverlayLink> =
        links.iter().map(|l| (l.endpoint_id.as_str(), l)).collect();

    let mut out = NfFg {
        id: id.to_string(),
        name: name.to_string(),
        nfs: Vec::new(),
        endpoints: Vec::new(),
        flow_rules: Vec::new(),
    };
    for part in parts.values() {
        out.nfs.extend(part.nfs.iter().cloned());
        for ep in &part.endpoints {
            if !ep.id.starts_with("ovl-") {
                out.endpoints.push(ep.clone());
            }
        }
        for rule in &part.flow_rules {
            // The whole `ovl-` namespace is synthesized (delivery and
            // transit rules alike) and `partition` rejects tenant ids
            // in it, so a prefix check drops exactly the cut-edge
            // machinery.
            if rule.id.starts_with("ovl-") {
                continue;
            }
            let mut rule = rule.clone();
            for action in &mut rule.actions {
                if let RuleAction::Output(PortRef::Endpoint(ep)) = action {
                    if let Some(link) = by_endpoint.get(ep.as_str()) {
                        *action = RuleAction::Output(link.dst_target.clone());
                    }
                }
            }
            out.flow_rules.push(rule);
        }
    }
    // Canonical order so reassembly is deterministic regardless of how
    // parts iterate.
    out.nfs.sort_by(|a, b| a.id.cmp(&b.id));
    out.endpoints.sort_by(|a, b| a.id.cmp(&b.id));
    out.flow_rules.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_nffg::NfFgBuilder;

    fn chain() -> NfFg {
        NfFgBuilder::new("g1", "chain")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("fw", "firewall", 2)
            .nf("gw", "ipsec", 2)
            .chain("lan", &["fw", "gw"], "wan")
            .build()
    }

    fn assignments(
        nfs: &[(&str, &str)],
        eps: &[(&str, &str)],
    ) -> (BTreeMap<String, String>, BTreeMap<String, String>) {
        (
            nfs.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            eps.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        )
    }

    fn vid_pool() -> impl FnMut(&str, &str, &PortRef) -> Option<u16> {
        let mut next = 3000u16;
        move |_, _, _| {
            let v = next;
            next += 1;
            Some(v)
        }
    }

    #[test]
    fn single_node_partition_is_identity_modulo_name() {
        let g = chain();
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n1")],
            &[("lan", "n1"), ("wan", "n1")],
        );
        let p = partition(&g, &nfs, &eps, "fab0", &mut vid_pool()).unwrap();
        assert_eq!(p.parts.len(), 1);
        assert!(p.links.is_empty());
        let part = &p.parts["n1"];
        assert_eq!(part.nfs.len(), 2);
        assert_eq!(part.flow_rules.len(), g.flow_rules.len());
    }

    #[test]
    fn split_chain_synthesizes_endpoint_pairs() {
        let g = chain();
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n2")],
            &[("lan", "n1"), ("wan", "n2")],
        );
        let p = partition(&g, &nfs, &eps, "fab0", &mut vid_pool()).unwrap();
        assert_eq!(p.parts.len(), 2);
        // The chain is bidirectional: fw:1→gw:0 is cut forward and
        // gw:0→fw:1 backward. (lan→fw and gw:1→wan stay local.)
        assert_eq!(p.links.len(), 2);
        let link = p.links.iter().find(|l| l.from_node == "n1").unwrap();
        assert_eq!(link.to_node, "n2");
        assert_eq!(link.dst_target, PortRef::Nf("gw".into(), 0));
        // Both parts carry the synthesized endpoint.
        for node in ["n1", "n2"] {
            assert!(p.parts[node]
                .endpoints
                .iter()
                .any(|e| e.id == link.endpoint_id));
        }
        // Parts validate (deployable as-is).
        for part in p.parts.values() {
            assert!(un_nffg::validate(part).is_empty(), "{part:?}");
        }
    }

    #[test]
    fn shared_links_are_reused_per_target() {
        let mut g = chain();
        // A second rule from lan straight to the remote gw:0.
        g.flow_rules.push(FlowRule {
            id: "extra".into(),
            priority: 7,
            matches: TrafficMatch::from_port(PortRef::Endpoint("lan".into())),
            actions: vec![RuleAction::Output(PortRef::Nf("gw".into(), 0))],
        });
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n2")],
            &[("lan", "n1"), ("wan", "n2")],
        );
        let p = partition(&g, &nfs, &eps, "fab0", &mut vid_pool()).unwrap();
        // fw:1→gw:0 and the extra lan→gw:0 share one n1→n2 link; the
        // reverse chain direction keeps its own. Two links total.
        assert_eq!(p.links.len(), 2);
        assert_eq!(p.links.iter().filter(|l| l.from_node == "n1").count(), 1);
    }

    #[test]
    fn reassembly_round_trips() {
        let g = chain();
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n2")],
            &[("lan", "n1"), ("wan", "n2")],
        );
        let p = partition(&g, &nfs, &eps, "fab0", &mut vid_pool()).unwrap();
        let back = reassemble(&p.parts, &p.links, &g.id, &g.name);
        let mut want = g.clone();
        want.nfs.sort_by(|a, b| a.id.cmp(&b.id));
        want.endpoints.sort_by(|a, b| a.id.cmp(&b.id));
        want.flow_rules.sort_by(|a, b| a.id.cmp(&b.id));
        assert_eq!(back, want);
    }

    #[test]
    fn transit_rules_install_and_reassembly_ignores_them() {
        let g = chain();
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n3")],
            &[("lan", "n1"), ("wan", "n3")],
        );
        let mut p = partition(&g, &nfs, &eps, "fab0", &mut vid_pool()).unwrap();
        // Both links ride n1–n2–n3 (resp. reversed).
        let paths: BTreeMap<u16, Vec<String>> = p
            .links
            .iter()
            .map(|l| {
                (
                    l.vid,
                    vec![l.from_node.clone(), "n2".to_string(), l.to_node.clone()],
                )
            })
            .collect();
        install_transit(&g, Arc::make_mut(&mut p.parts), &p.links, &paths, "fab0");
        let transit = &p.parts["n2"];
        assert!(transit.nfs.is_empty());
        assert_eq!(transit.endpoints.len(), 2);
        assert_eq!(transit.flow_rules.len(), 2);
        for rule in &transit.flow_rules {
            assert!(rule.id.starts_with("ovl-") && rule.id.ends_with("-transit"));
            // In and out on the same synthesized endpoint.
            assert_eq!(
                rule.matches.port_in.as_ref().unwrap(),
                match &rule.actions[0] {
                    RuleAction::Output(p) => p,
                    other => panic!("{other:?}"),
                }
            );
        }
        // The transit part deploys as-is (it must validate).
        assert!(un_nffg::validate(transit).is_empty(), "{transit:?}");
        // Reassembly drops all transit machinery: exact round trip.
        let back = reassemble(&p.parts, &p.links, &g.id, &g.name);
        let mut want = g.clone();
        want.nfs.sort_by(|a, b| a.id.cmp(&b.id));
        want.endpoints.sort_by(|a, b| a.id.cmp(&b.id));
        want.flow_rules.sort_by(|a, b| a.id.cmp(&b.id));
        assert_eq!(back, want);
    }

    #[test]
    fn vid_exhaustion_is_reported() {
        let g = chain();
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n2")],
            &[("lan", "n1"), ("wan", "n2")],
        );
        let mut empty = |_: &str, _: &str, _: &PortRef| None;
        let err = partition(&g, &nfs, &eps, "fab0", &mut empty).unwrap_err();
        assert_eq!(err, PartitionError::VidExhausted);
    }

    #[test]
    fn reserved_ovl_namespace_is_rejected() {
        let mut g = chain();
        g.endpoints.push(un_nffg::Endpoint {
            id: "ovl-3000".into(),
            kind: un_nffg::EndpointKind::Interface {
                if_name: "eth9".into(),
            },
        });
        let (nfs, eps) = assignments(
            &[("fw", "n1"), ("gw", "n2")],
            &[("lan", "n1"), ("wan", "n2"), ("ovl-3000", "n1")],
        );
        let err = partition(&g, &nfs, &eps, "fab0", &mut vid_pool()).unwrap_err();
        assert_eq!(err, PartitionError::ReservedId("ovl-3000".into()));
    }
}
