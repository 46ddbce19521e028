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
//! * the NNF has **one** attachment interface (`parent`), the only port
//!   a shared instance starts on;
//! * per [`GraphBinding`], two 802.1Q sub-interfaces are created on it
//!   on the binding's LAN-side and WAN-side VIDs, named by its mark:
//!   `m<mark>-lan` and `m<mark>-wan`;
//! * ingress on those sub-interfaces stamps the binding's **fwmark** (via
//!   a mangle/PREROUTING rule) and **conntrack zone** (per-interface);
//! * a per-binding **routing table**, selected by an `ip rule fwmark`,
//!   forms its private internal path;
//! * egress through a sub-interface re-tags traffic automatically, so
//!   the LSI can demultiplex graphs on the way out.
//!
//! The layer is the one record of who rides a shared instance: a binding
//! is in [`AdaptationLayer::bindings`] exactly while its sub-interfaces,
//! rules and table exist. It is keyed by the binding, not the graph, so a
//! graph with two NFs on one shared instance holds two bindings, told
//! apart by their marks.
//!
//! The one sharable NNF is NAT: [`AdaptationLayer::bind_nat`] gives each
//! binding the addresses, private routes, masquerade rule and port
//! forwards its graph's config compiled to. It parses nothing: the
//! binding carries the [`NatBinding`](crate::translate::NatBinding)
//! [`compile`](crate::translate::compile) made.

use std::net::Ipv4Addr;

use un_linux::netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
use un_linux::route::IpRule;
use un_linux::IfaceId;
use un_packet::Ipv4Cidr;

use crate::plugin::{GraphBinding, NnfContext, NnfError};

/// Routing-table id offset for per-graph tables.
pub const GRAPH_TABLE_BASE: u32 = 100;

/// Sub-interfaces created for one binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphIfaces {
    /// LAN-side sub-interface.
    pub lan: IfaceId,
    /// WAN-side sub-interface.
    pub wan: IfaceId,
}

/// The bindings riding one shared instance, with what each was given.
#[derive(Debug, Default)]
pub struct AdaptationLayer {
    attached: Vec<(GraphBinding, GraphIfaces)>,
}

impl AdaptationLayer {
    /// The bindings attached, in attach order.
    pub fn bindings(&self) -> impl Iterator<Item = &GraphBinding> {
        self.attached.iter().map(|(b, _)| b)
    }

    /// The per-graph routing table id for a binding.
    pub fn table_for(binding: &GraphBinding) -> u32 {
        GRAPH_TABLE_BASE + binding.mark
    }

    /// Attach one more binding over the instance's attachment interface
    /// `parent`: create its marked sub-interfaces and its private routing
    /// table/rule.
    pub fn attach(
        &mut self,
        ctx: &mut NnfContext<'_>,
        parent: IfaceId,
        binding: &GraphBinding,
    ) -> Result<GraphIfaces, NnfError> {
        let name = |side: &str| format!("m{}-{side}", binding.mark);
        let lan = ctx
            .host
            .add_vlan_sub(parent, binding.vid_lan, &name("lan"))?;
        let wan = ctx
            .host
            .add_vlan_sub(parent, binding.vid_wan, &name("wan"))?;
        ctx.host.set_up(lan, true)?;
        ctx.host.set_up(wan, true)?;
        ctx.host.set_ct_zone(lan, binding.zone)?;
        ctx.host.set_ct_zone(wan, binding.zone)?;

        // Mark everything arriving from either side of this binding.
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

    /// Detach a binding: remove its sub-interfaces (their addresses and
    /// connected routes go with them), marking rules, routing table and
    /// the connections tracked in its zone, which a later binding may
    /// take. Returns the sub-interfaces it had.
    pub fn detach(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<GraphIfaces, NnfError> {
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
            nsr.conntrack.flush_zone(binding.zone);
        }
        Ok(ifaces)
    }

    /// Attach a binding to a shared NAT over `parent`: its sub-interfaces
    /// take the binding's addresses, its table routes the LAN prefix and
    /// a default out its WAN side, its traffic is masqueraded out its own
    /// WAN sub-interface, and its port forwards apply to what arrives on
    /// that sub-interface.
    pub fn bind_nat(
        &mut self,
        ctx: &mut NnfContext<'_>,
        parent: IfaceId,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        let nat = binding.nat.as_ref().ok_or(NnfError::BadState(
            "a NAT binding without its compiled config",
        ))?;
        let ifaces = self.attach(ctx, parent, binding)?;
        ctx.host.addr_add(ifaces.lan, nat.lan)?;
        ctx.host.addr_add(ifaces.wan, nat.wan)?;

        // This binding's private internal path: connected prefixes plus a
        // default toward its own WAN side, all in its dedicated table.
        let table = Self::table_for(binding);
        let lan_net = Ipv4Cidr::new(nat.lan.network(), nat.lan.prefix_len());
        ctx.host
            .route_add(ctx.ns, table, lan_net, None, ifaces.lan, 0)?;
        let default = Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 0);
        ctx.host
            .route_add(ctx.ns, table, default, nat.gw, ifaces.wan, 0)?;

        // Masquerade this binding's traffic out its own WAN sub-interface.
        let masquerade = NfRule::new(Self::masqueraded(binding, ifaces), Target::Masquerade);
        ctx.host
            .nf_append(ctx.ns, NfTable::Nat, Chain::Postrouting, masquerade)?;
        // Its port forwards take only what arrives on its WAN side.
        for forward in &nat.dnat {
            let rule = forward.rule(Some(ifaces.wan));
            ctx.host
                .nf_append(ctx.ns, NfTable::Nat, Chain::Prerouting, rule)?;
        }
        Ok(())
    }

    /// Detach a binding from a shared NAT: everything [`Self::attach`]
    /// made, then its masquerade rule and port forwards.
    pub fn unbind_nat(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        let ifaces = self.detach(ctx, binding)?;
        if let Some(nsr) = ctx.host.namespace_mut(ctx.ns) {
            let nf = &mut nsr.netfilter;
            let masqueraded = Self::masqueraded(binding, ifaces);
            nf.remove_rule(
                NfTable::Nat,
                Chain::Postrouting,
                &masqueraded,
                &Target::Masquerade,
            );
            for forward in binding.nat.iter().flat_map(|nat| &nat.dnat) {
                let rule = forward.rule(Some(ifaces.wan));
                nf.remove_rule(NfTable::Nat, Chain::Prerouting, &rule.matches, &rule.target);
            }
        }
        Ok(())
    }

    /// What a binding masquerades: its marked traffic leaving its WAN
    /// side.
    fn masqueraded(binding: &GraphBinding, ifaces: GraphIfaces) -> RuleMatch {
        RuleMatch {
            out_iface: Some(ifaces.wan),
            fwmark: Some(binding.mark),
            ..Default::default()
        }
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
            nat: None,
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

        let mut layer = AdaptationLayer::default();
        let b1 = binding("g1", 1);
        let b2 = binding("g2", 2);
        let g1 = {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            let g1 = layer.attach(&mut ctx, port, &b1).unwrap();
            layer.attach(&mut ctx, port, &b2).unwrap();
            g1
        };
        assert_eq!(layer.bindings().collect::<Vec<_>>(), [&b1, &b2]);
        assert_eq!(host.iface(g1.lan).unwrap().name, "m1-lan");

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

        assert_eq!(host.iface(g1.lan).unwrap().ct_zone, 1);
    }

    #[test]
    fn duplicate_vid_rejected() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nnf");
        let port = host.add_external(ns, "attach0", 7).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut layer = AdaptationLayer::default();
        let b = binding("g1", 1);
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        layer.attach(&mut ctx, port, &b).unwrap();
        let mut dup = binding("g9", 9);
        dup.vid_lan = b.vid_lan; // collides
        assert!(matches!(
            layer.attach(&mut ctx, port, &dup),
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
        let mut layer = AdaptationLayer::default();
        let b = binding("g1", 1);
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            layer.attach(&mut ctx, port, &b).unwrap();
            layer.detach(&mut ctx, &b).unwrap();
            assert!(matches!(
                layer.detach(&mut ctx, &b),
                Err(NnfError::BadState(_))
            ));
        }
        assert_eq!(layer.bindings().count(), 0);
        assert_eq!(host.iface_count(), 3, "root lo, nnf lo, attach0");
        let nsr = host.namespace(ns).unwrap();
        assert!(nsr
            .netfilter
            .rules(NfTable::Mangle, Chain::Prerouting)
            .is_empty());
        assert!(!nsr.routing.rules().any(|r| r.fwmark == Some(1)));
    }
}
