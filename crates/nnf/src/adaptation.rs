//! The adaptation layer for single-interface sharable NNFs.
//!
//! Paper §2: "an additional adaptation layer is required to cope with
//! the fact that NNFs may be designed to receive traffic from a single
//! network interface. Such layer attaches the NNF to one port of the
//! switch and configures it to receive the traffic from multiple
//! service graphs, appropriately marked to make it distinguishable."
//!
//! Mechanically (all standard Linux machinery, which is the point):
//!
//! * the NNF has **one** attachment interface (`parent`);
//! * per service graph, two 802.1Q sub-interfaces are created on it
//!   (LAN-side and WAN-side VIDs from the [`GraphBinding`]);
//! * ingress on those sub-interfaces stamps the graph's **fwmark** (via
//!   a mangle/PREROUTING rule) and **conntrack zone** (per-interface);
//! * a per-graph **routing table**, selected by an `ip rule fwmark`,
//!   forms the graph's private internal path;
//! * egress through a sub-interface re-tags traffic automatically, so
//!   the LSI can demultiplex graphs on the way out.

use un_linux::netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
use un_linux::route::IpRule;
use un_linux::IfaceId;

use crate::plugin::{GraphBinding, NnfContext, NnfError};

/// Routing-table id offset for per-graph tables.
pub const GRAPH_TABLE_BASE: u32 = 100;

/// Sub-interfaces created for one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphIfaces {
    /// LAN-side sub-interface.
    pub lan: IfaceId,
    /// WAN-side sub-interface.
    pub wan: IfaceId,
}

/// The adaptation layer bound to one parent attachment port.
#[derive(Debug)]
pub struct AdaptationLayer {
    parent: IfaceId,
    attached: Vec<(GraphBinding, GraphIfaces)>,
}

impl AdaptationLayer {
    /// Create the layer over the single attachment interface.
    pub fn new(parent: IfaceId) -> Self {
        AdaptationLayer {
            parent,
            attached: Vec::new(),
        }
    }

    /// The parent attachment interface.
    pub fn parent(&self) -> IfaceId {
        self.parent
    }

    /// Graphs currently attached.
    pub fn graph_count(&self) -> usize {
        self.attached.len()
    }

    /// The per-graph routing table id for a binding.
    pub fn table_for(binding: &GraphBinding) -> u32 {
        GRAPH_TABLE_BASE + binding.mark
    }

    /// Attach one more service graph: create its marked sub-interfaces
    /// and its private routing table/rule.
    pub fn attach(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<GraphIfaces, NnfError> {
        let lan = ctx.host.add_vlan_sub(
            self.parent,
            binding.vid_lan,
            &format!("g{}-lan", binding.graph),
        )?;
        let wan = ctx.host.add_vlan_sub(
            self.parent,
            binding.vid_wan,
            &format!("g{}-wan", binding.graph),
        )?;
        ctx.host.set_up(lan, true)?;
        ctx.host.set_up(wan, true)?;
        ctx.host.set_ct_zone(lan, binding.zone)?;
        ctx.host.set_ct_zone(wan, binding.zone)?;

        // Mark everything arriving from either side of this graph.
        for sub in [lan, wan] {
            ctx.host.nf_append(
                ctx.ns,
                NfTable::Mangle,
                Chain::Prerouting,
                NfRule::new(
                    RuleMatch {
                        in_iface: Some(sub),
                        ..Default::default()
                    },
                    Target::SetMark(binding.mark),
                ),
            )?;
        }

        // Private internal path: fwmark → dedicated table.
        ctx.host.rule_add(
            ctx.ns,
            IpRule {
                priority: 100 + binding.mark,
                fwmark: Some(binding.mark),
                table: Self::table_for(binding),
            },
        )?;

        self.attached
            .push((binding.clone(), GraphIfaces { lan, wan }));
        Ok(GraphIfaces { lan, wan })
    }

    /// Detach a graph: remove its marking rules, routing table and
    /// sub-interfaces.
    pub fn detach(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        let Some(pos) = self.attached.iter().position(|(b, _)| b == binding) else {
            return Err(NnfError::BadState("graph not attached"));
        };
        let (_, ifaces) = self.attached.remove(pos);
        for sub in [ifaces.lan, ifaces.wan] {
            ctx.host.remove_iface(sub)?;
            let ns = ctx.ns;
            if let Some(nsr) = ctx.host.namespace_mut(ns) {
                nsr.netfilter.remove_rule(
                    NfTable::Mangle,
                    Chain::Prerouting,
                    &RuleMatch {
                        in_iface: Some(sub),
                        ..Default::default()
                    },
                    &Target::SetMark(binding.mark),
                );
            }
        }
        let ns = ctx.ns;
        if let Some(nsr) = ctx.host.namespace_mut(ns) {
            nsr.routing.remove_table(Self::table_for(binding));
        }
        Ok(())
    }

    /// The sub-interfaces of an attached graph.
    pub fn ifaces_of(&self, graph: &str) -> Option<GraphIfaces> {
        self.attached
            .iter()
            .find(|(b, _)| b.graph == graph)
            .map(|(_, i)| *i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_linux::Host;
    use un_sim::{CostModel, MemLedger};

    fn binding(graph: &str, mark: u32) -> GraphBinding {
        GraphBinding {
            graph: graph.to_string(),
            mark,
            zone: mark as u16,
            vid_lan: (mark * 2) as u16 + 100,
            vid_wan: (mark * 2) as u16 + 101,
            params: Default::default(),
        }
    }

    #[test]
    fn attach_creates_marked_subifaces_and_table() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nnf");
        let port = host.add_external(ns, "attach0", 7).unwrap();
        host.set_up(port, true).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);

        let mut layer = AdaptationLayer::new(port);
        let b1 = binding("g1", 1);
        let b2 = binding("g2", 2);
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            layer.attach(&mut ctx, &b1).unwrap();
            layer.attach(&mut ctx, &b2).unwrap();
        }
        assert_eq!(layer.graph_count(), 2);
        assert!(layer.ifaces_of("g1").is_some());

        // The namespace now has: 2 marking rules per graph, a policy
        // rule per graph, and per-interface zones.
        let nsr = host.namespace(ns).unwrap();
        assert_eq!(
            nsr.netfilter
                .rules(NfTable::Mangle, Chain::Prerouting)
                .len(),
            4
        );
        let rules: Vec<_> = nsr.routing.rules().collect();
        assert!(rules.iter().any(|r| r.fwmark == Some(1) && r.table == 101));
        assert!(rules.iter().any(|r| r.fwmark == Some(2) && r.table == 102));

        let lan1 = layer.ifaces_of("g1").unwrap().lan;
        assert_eq!(host.iface(lan1).unwrap().ct_zone, 1);
    }

    #[test]
    fn duplicate_vid_rejected() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nnf");
        let port = host.add_external(ns, "attach0", 7).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut layer = AdaptationLayer::new(port);
        let b = binding("g1", 1);
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        layer.attach(&mut ctx, &b).unwrap();
        let mut dup = binding("g9", 9);
        dup.vid_lan = b.vid_lan; // collides
        assert!(matches!(
            layer.attach(&mut ctx, &dup),
            Err(NnfError::Kernel(_))
        ));
    }

    #[test]
    fn detach_cleans_up() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nnf");
        let port = host.add_external(ns, "attach0", 7).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut layer = AdaptationLayer::new(port);
        let b = binding("g1", 1);
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            layer.attach(&mut ctx, &b).unwrap();
            layer.detach(&mut ctx, &b).unwrap();
            assert!(matches!(
                layer.detach(&mut ctx, &b),
                Err(NnfError::BadState(_))
            ));
        }
        assert_eq!(layer.graph_count(), 0);
        assert_eq!(host.iface_count(), 3, "root lo, nnf lo, attach0");
        let nsr = host.namespace(ns).unwrap();
        assert!(nsr
            .netfilter
            .rules(NfTable::Mangle, Chain::Prerouting)
            .is_empty());
        assert!(!nsr.routing.rules().any(|r| r.fwmark == Some(1)));
    }
}
