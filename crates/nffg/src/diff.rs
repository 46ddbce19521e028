//! Structural diffing between two versions of a graph.
//!
//! The paper's NNF plugins expose a lifecycle including *update*; the
//! orchestrator implements graph update incrementally: it diffs the old
//! and new NF-FG and only touches what changed (stops removed NFs,
//! starts added ones, replaces changed flow rules) instead of tearing the
//! whole service down.

use std::collections::BTreeMap;

use crate::model::{FlowRule, NetworkFunction, NfFg};

/// The difference between two graph versions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDiff {
    /// NFs present only in the new graph.
    pub added_nfs: Vec<NetworkFunction>,
    /// NF ids present only in the old graph.
    pub removed_nfs: Vec<String>,
    /// NFs whose configuration or ports changed (same id).
    pub changed_nfs: Vec<NetworkFunction>,
    /// Rules present only in the new graph.
    pub added_rules: Vec<FlowRule>,
    /// Rule ids present only in the old graph.
    pub removed_rules: Vec<String>,
    /// Rules whose content changed (same id).
    pub changed_rules: Vec<FlowRule>,
    /// Endpoint ids added.
    pub added_endpoints: Vec<String>,
    /// Endpoint ids removed.
    pub removed_endpoints: Vec<String>,
    /// Endpoint ids whose kind changed (an interface, a VLAN id, a
    /// group).
    pub changed_endpoints: Vec<String>,
}

impl GraphDiff {
    /// True if the change is **structural**: the NF set, an NF's
    /// definition, the endpoint set or an endpoint's kind changed.
    /// Structural changes force the affected parts to be re-instantiated;
    /// non-structural (rule-only) changes apply in place on a live
    /// deployment.
    pub fn is_structural(&self) -> bool {
        !self.added_nfs.is_empty()
            || !self.removed_nfs.is_empty()
            || !self.changed_nfs.is_empty()
            || !self.added_endpoints.is_empty()
            || !self.removed_endpoints.is_empty()
            || !self.changed_endpoints.is_empty()
    }

    /// True if something changed but only at the flow-rule level.
    pub fn is_rules_only(&self) -> bool {
        !self.is_empty() && !self.is_structural()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added_nfs.is_empty()
            && self.removed_nfs.is_empty()
            && self.changed_nfs.is_empty()
            && self.added_rules.is_empty()
            && self.removed_rules.is_empty()
            && self.changed_rules.is_empty()
            && self.added_endpoints.is_empty()
            && self.removed_endpoints.is_empty()
            && self.changed_endpoints.is_empty()
    }
}

/// Compute the diff that transforms `old` into `new`.
pub fn diff(old: &NfFg, new: &NfFg) -> GraphDiff {
    let mut d = GraphDiff::default();

    let old_nfs: BTreeMap<&str, &NetworkFunction> =
        old.nfs.iter().map(|n| (n.id.as_str(), n)).collect();
    let new_nfs: BTreeMap<&str, &NetworkFunction> =
        new.nfs.iter().map(|n| (n.id.as_str(), n)).collect();

    for (id, nf) in &new_nfs {
        match old_nfs.get(id) {
            None => d.added_nfs.push((*nf).clone()),
            Some(o) if o != nf => d.changed_nfs.push((*nf).clone()),
            _ => {}
        }
    }
    for id in old_nfs.keys() {
        if !new_nfs.contains_key(id) {
            d.removed_nfs.push(id.to_string());
        }
    }

    let old_rules: BTreeMap<&str, &FlowRule> =
        old.flow_rules.iter().map(|r| (r.id.as_str(), r)).collect();
    let new_rules: BTreeMap<&str, &FlowRule> =
        new.flow_rules.iter().map(|r| (r.id.as_str(), r)).collect();

    for (id, r) in &new_rules {
        match old_rules.get(id) {
            None => d.added_rules.push((*r).clone()),
            Some(o) if o != r => d.changed_rules.push((*r).clone()),
            _ => {}
        }
    }
    for id in old_rules.keys() {
        if !new_rules.contains_key(id) {
            d.removed_rules.push(id.to_string());
        }
    }

    for e in &new.endpoints {
        match old.endpoints.iter().find(|o| o.id == e.id) {
            None => d.added_endpoints.push(e.id.clone()),
            Some(o) if o.kind != e.kind => d.changed_endpoints.push(e.id.clone()),
            _ => {}
        }
    }
    for o in &old.endpoints {
        if !new.endpoints.iter().any(|e| e.id == o.id) {
            d.removed_endpoints.push(o.id.clone());
        }
    }

    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NfFgBuilder;
    use crate::model::{Endpoint, EndpointKind, NfConfig};

    fn base() -> NfFg {
        NfFgBuilder::new("g", "base")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("fw", "firewall", 2)
            .chain("lan", &["fw"], "wan")
            .build()
    }

    #[test]
    fn identical_graphs_have_empty_diff() {
        let g = base();
        assert!(diff(&g, &g).is_empty());
    }

    #[test]
    fn detects_added_and_removed_nf() {
        let old = base();
        let mut new = base();
        new.nfs.push(NetworkFunction {
            id: "nat".into(),
            functional_type: "nat".into(),
            ports: vec![crate::model::NfPort { id: 0, name: None }],
            config: NfConfig::default(),
            flavor: None,
        });
        let d = diff(&old, &new);
        assert_eq!(d.added_nfs.len(), 1);
        assert_eq!(d.added_nfs[0].id, "nat");

        let d2 = diff(&new, &old);
        assert_eq!(d2.removed_nfs, vec!["nat".to_string()]);
    }

    #[test]
    fn detects_changed_nf_config() {
        let old = base();
        let mut new = base();
        new.nfs[0].config = NfConfig::default().with_param("policy", "drop");
        let d = diff(&old, &new);
        assert!(d.added_nfs.is_empty());
        assert_eq!(d.changed_nfs.len(), 1);
        assert_eq!(d.changed_nfs[0].id, "fw");
    }

    #[test]
    fn detects_rule_changes() {
        let old = base();
        let mut new = base();
        new.flow_rules[0].priority = 99;
        new.flow_rules.remove(1);
        let d = diff(&old, &new);
        assert_eq!(d.changed_rules.len(), 1);
        assert_eq!(d.removed_rules.len(), 1);
        assert!(d.added_rules.is_empty());
    }

    #[test]
    fn classifies_structural_vs_rules_only() {
        let old = base();
        assert!(!diff(&old, &old).is_structural());
        assert!(!diff(&old, &old).is_rules_only());

        let mut rules = base();
        rules.flow_rules[0].priority = 42;
        let d = diff(&old, &rules);
        assert!(!d.is_structural());
        assert!(d.is_rules_only());

        let mut structural = base();
        structural.nfs[0].config = NfConfig::default().with_param("policy", "drop");
        let d = diff(&old, &structural);
        assert!(d.is_structural());
        assert!(!d.is_rules_only());

        let mut eps = base();
        eps.endpoints.remove(0);
        assert!(diff(&old, &eps).is_structural());
    }

    #[test]
    fn detects_endpoint_changes() {
        let old = base();
        let mut new = base();
        new.endpoints.remove(0);
        let d = diff(&old, &new);
        assert_eq!(d.removed_endpoints, vec!["lan".to_string()]);
        assert!(d.added_endpoints.is_empty());
        assert!(d.changed_endpoints.is_empty());
    }

    /// An endpoint that keeps its id but changes its kind — another
    /// interface, a VLAN id, an interface turned VLAN — is a structural
    /// change, neither an addition nor a removal.
    #[test]
    fn an_endpoint_whose_kind_changes_is_changed() {
        let vlan = |vid| {
            NfFgBuilder::new("g", "base")
                .vlan_endpoint("lan", "eth0", vid)
                .interface_endpoint("wan", "eth1")
                .nf("fw", "firewall", 2)
                .chain("lan", &["fw"], "wan")
                .build()
        };
        let mut moved = base();
        moved.endpoints[1] = Endpoint {
            id: "wan".into(),
            kind: EndpointKind::Interface {
                if_name: "eth2".into(),
            },
        };
        for (old, new, id) in [
            (vlan(10), vlan(20), "lan"),
            (base(), vlan(10), "lan"),
            (base(), moved, "wan"),
        ] {
            let d = diff(&old, &new);
            assert_eq!(d.changed_endpoints, vec![id.to_string()]);
            assert!(d.added_endpoints.is_empty() && d.removed_endpoints.is_empty());
            assert!(d.is_structural() && !d.is_empty() && !d.is_rules_only());
            assert!(diff(&new, &new).is_empty());
        }
    }
}
