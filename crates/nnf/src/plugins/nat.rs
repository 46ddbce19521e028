//! The NAT NNF — iptables MASQUERADE as a native component, and the
//! flagship *sharable* NNF.
//!
//! The kernel has exactly one conntrack/NAT engine per namespace, so
//! multiple instances cannot be spun up inside one namespace — the
//! situation the paper describes. The NAT NNF is therefore **sharable**:
//!
//! * in *dedicated* mode (`start` with two ports) it is a plain
//!   masquerading router for one graph;
//! * in *shared* mode (`start` with one port) the adaptation layer
//!   attaches every service graph over per-graph VLAN sub-interfaces,
//!   stamps per-graph fwmarks/conntrack zones, and builds per-graph
//!   routing tables — multiple isolated NAT services out of one
//!   instance.

use un_linux::netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
use un_linux::IfaceId;
use un_nffg::NfConfig;
use un_packet::Ipv4Cidr;

use crate::adaptation::AdaptationLayer;
use crate::plugin::{GraphBinding, NnfContext, NnfError, NnfPlugin};
use crate::plugins::execute;
use crate::translate::translate;

/// Bookkeeping RSS for the NAT tooling.
pub const NAT_RSS: u64 = 700_000;

fn parse_cidr(key: &str, v: &str) -> Result<Ipv4Cidr, NnfError> {
    v.parse().map_err(|_| NnfError::BadParam {
        key: key.to_string(),
        value: v.to_string(),
    })
}

/// The NAT NNF plugin.
#[derive(Debug, Default)]
pub struct NatNnf {
    started: bool,
    ports: Vec<IfaceId>,
    adaptation: Option<AdaptationLayer>,
}

impl NatNnf {
    /// A fresh plugin instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of graphs bound in shared mode.
    pub fn bound_graphs(&self) -> usize {
        self.adaptation
            .as_ref()
            .map(|a| a.graph_count())
            .unwrap_or(0)
    }
}

impl NnfPlugin for NatNnf {
    fn functional_type(&self) -> &'static str {
        "nat"
    }

    fn start(
        &mut self,
        ctx: &mut NnfContext<'_>,
        ports: &[IfaceId],
        config: &NfConfig,
    ) -> Result<(), NnfError> {
        if self.started {
            return Err(NnfError::BadState("already started"));
        }
        match ports.len() {
            0 => {
                return Err(NnfError::NotEnoughPorts { need: 1, have: 0 });
            }
            1 => {
                // Shared mode: single attachment port + adaptation layer.
                ctx.host.set_up(ports[0], true)?;
                ctx.host.sysctl_ip_forward(ctx.ns, true)?;
                self.adaptation = Some(AdaptationLayer::new(ports[0]));
            }
            _ => {
                // Dedicated mode: classic two-port masquerading router.
                let lan = parse_cidr(
                    "lan-addr",
                    config
                        .param("lan-addr")
                        .ok_or(NnfError::MissingParam("lan-addr"))?,
                )?;
                let wan = parse_cidr(
                    "wan-addr",
                    config
                        .param("wan-addr")
                        .ok_or(NnfError::MissingParam("wan-addr"))?,
                )?;
                ctx.host.addr_add(ports[0], lan)?;
                ctx.host.addr_add(ports[1], wan)?;
                ctx.host.set_up(ports[0], true)?;
                ctx.host.set_up(ports[1], true)?;
                if let Some(gw) = config.param("wan-gw") {
                    let via = gw.parse().map_err(|_| NnfError::BadParam {
                        key: "wan-gw".into(),
                        value: gw.to_string(),
                    })?;
                    ctx.host.route_add(
                        ctx.ns,
                        un_linux::MAIN_TABLE,
                        Ipv4Cidr::new(std::net::Ipv4Addr::UNSPECIFIED, 0),
                        Some(via),
                        ports[1],
                        0,
                    )?;
                }
                let mut cmds =
                    translate("nat", config).map_err(|e| NnfError::Kernel(e.to_string()))?;
                // Bind the masquerade to the WAN interface specifically.
                for cmd in &mut cmds {
                    if let crate::translate::NnfCommand::IptablesAppend { rule, chain, .. } = cmd {
                        if *chain == Chain::Postrouting && rule.target == Target::Masquerade {
                            rule.matches.out_iface = Some(ports[1]);
                        }
                    }
                }
                execute(ctx, ports, &cmds)?;
            }
        }
        ctx.ledger
            .alloc(ctx.account, "nat-tools", NAT_RSS)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        self.ports = ports.to_vec();
        self.started = true;
        Ok(())
    }

    fn bind_graph(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        if !self.started {
            return Err(NnfError::BadState("bind before start"));
        }
        let Some(adaptation) = self.adaptation.as_mut() else {
            return Err(NnfError::NotSharable); // dedicated mode
        };
        let lan_addr = parse_cidr(
            "lan-addr",
            binding
                .params
                .get("lan-addr")
                .ok_or(NnfError::MissingParam("lan-addr"))?,
        )?;
        let wan_addr = parse_cidr(
            "wan-addr",
            binding
                .params
                .get("wan-addr")
                .ok_or(NnfError::MissingParam("wan-addr"))?,
        )?;
        let wan_gw = match binding.params.get("wan-gw") {
            Some(v) => Some(v.parse().map_err(|_| NnfError::BadParam {
                key: "wan-gw".into(),
                value: v.to_string(),
            })?),
            None => None,
        };

        // Every parameter is parsed: nothing past this point fails on
        // what the tenant sent, so a refused bind has attached nothing.
        let ifaces = adaptation.attach(ctx, binding)?;
        ctx.host.addr_add(ifaces.lan, lan_addr)?;
        ctx.host.addr_add(ifaces.wan, wan_addr)?;

        // This graph's private internal path: connected prefixes plus a
        // default toward its own WAN side, all in its dedicated table.
        let table = AdaptationLayer::table_for(binding);
        ctx.host.route_add(
            ctx.ns,
            table,
            Ipv4Cidr::new(lan_addr.network(), lan_addr.prefix_len()),
            None,
            ifaces.lan,
            0,
        )?;
        ctx.host.route_add(
            ctx.ns,
            table,
            Ipv4Cidr::new(std::net::Ipv4Addr::UNSPECIFIED, 0),
            wan_gw,
            ifaces.wan,
            0,
        )?;

        // Masquerade this graph's traffic out its own WAN sub-interface.
        ctx.host.nf_append(
            ctx.ns,
            NfTable::Nat,
            Chain::Postrouting,
            NfRule::new(
                RuleMatch {
                    out_iface: Some(ifaces.wan),
                    fwmark: Some(binding.mark),
                    ..Default::default()
                },
                Target::Masquerade,
            ),
        )?;
        Ok(())
    }

    fn unbind_graph(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        let Some(adaptation) = self.adaptation.as_mut() else {
            return Err(NnfError::NotSharable);
        };
        let ifaces = adaptation
            .ifaces_of(&binding.graph)
            .ok_or(NnfError::BadState("graph not bound"))?;
        let ns = ctx.ns;
        if let Some(nsr) = ctx.host.namespace_mut(ns) {
            nsr.netfilter.remove_rule(
                NfTable::Nat,
                Chain::Postrouting,
                &RuleMatch {
                    out_iface: Some(ifaces.wan),
                    fwmark: Some(binding.mark),
                    ..Default::default()
                },
                &Target::Masquerade,
            );
        }
        adaptation.detach(ctx, binding)
    }

    fn update(&mut self, _ctx: &mut NnfContext<'_>, _config: &NfConfig) -> Result<(), NnfError> {
        if !self.started {
            return Err(NnfError::BadState("update before start"));
        }
        Ok(()) // NAT has no updatable global state beyond bindings.
    }

    fn stop(&mut self, ctx: &mut NnfContext<'_>) -> Result<(), NnfError> {
        if !self.started {
            return Err(NnfError::BadState("stop before start"));
        }
        ctx.ledger
            .free(ctx.account, "nat-tools", NAT_RSS)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        for p in &self.ports {
            ctx.host.set_up(*p, false)?;
        }
        let ns = ctx.ns;
        if let Some(nsr) = ctx.host.namespace_mut(ns) {
            nsr.conntrack.clear();
        }
        self.started = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use un_linux::Host;
    use un_packet::MacAddr;
    use un_sim::{CostModel, MemLedger};

    fn binding(graph: &str, mark: u32, lan: &str, wan: &str) -> GraphBinding {
        let mut params = BTreeMap::new();
        params.insert("lan-addr".into(), lan.into());
        params.insert("wan-addr".into(), wan.into());
        GraphBinding {
            graph: graph.into(),
            mark,
            zone: mark as u16,
            vid_lan: 100 + (mark * 2) as u16,
            vid_wan: 101 + (mark * 2) as u16,
            params,
        }
    }

    #[test]
    fn dedicated_mode_masquerades() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nat");
        let p0 = host.add_external(ns, "lan", 1).unwrap();
        let p1 = host.add_external(ns, "wan", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nat", None);
        let cfg = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24");
        let mut plugin = NatNnf::new();
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin.start(&mut ctx, &[p0, p1], &cfg).unwrap();
        }
        host.neigh_add(ns, "203.0.113.9".parse().unwrap(), MacAddr::local(9))
            .unwrap();
        let lan_mac = host.iface(p0).unwrap().mac;
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(50), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "203.0.113.9".parse().unwrap(),
            )
            .udp(5000, 53)
            .payload(b"q")
            .build();
        let out = host.inject(p0, pkt);
        assert_eq!(out.emitted.len(), 1);
        let (_, wire) = &out.emitted[0];
        let eth = wire.ethernet().unwrap();
        let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(
            ip.src(),
            "203.0.113.1".parse::<std::net::Ipv4Addr>().unwrap(),
            "source rewritten to the NAT's WAN address"
        );
    }

    /// The paper's sharable-NNF scenario: two service graphs with
    /// *identical* (overlapping) customer address plans share one NAT
    /// instance, isolated by marks, zones and per-graph tables.
    #[test]
    fn shared_mode_isolates_two_graphs_with_overlapping_plans() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nat-shared");
        let port = host.add_external(ns, "attach", 1).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nat", None);
        let mut plugin = NatNnf::new();

        let b1 = binding("g1", 1, "192.168.1.1/24", "203.0.113.1/24");
        let b2 = binding("g2", 2, "192.168.1.1/24", "198.51.100.1/24");
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin
                .start(&mut ctx, &[port], &NfConfig::default())
                .unwrap();
            plugin.bind_graph(&mut ctx, &b1).unwrap();
            plugin.bind_graph(&mut ctx, &b2).unwrap();
        }
        assert_eq!(plugin.bound_graphs(), 2);
        host.neigh_add(ns, "8.8.8.8".parse().unwrap(), MacAddr::local(9))
            .unwrap();

        // Identical inner packets from the two graphs, tagged with each
        // graph's LAN VID on the single attachment port.
        let parent_mac = host.iface(port).unwrap().mac;
        let mk = |vid: u16| {
            un_packet::PacketBuilder::new()
                .ethernet(MacAddr::local(50), parent_mac)
                .vlan(vid)
                .ipv4("192.168.1.10".parse().unwrap(), "8.8.8.8".parse().unwrap())
                .udp(5000, 53)
                .payload(b"q")
                .build()
        };

        let out1 = host.inject(port, mk(b1.vid_lan));
        assert_eq!(out1.emitted.len(), 1, "graph 1 forwarded");
        let w1 = &out1.emitted[0].1;
        assert_eq!(
            w1.vlan_id(),
            Some(b1.vid_wan),
            "egress re-tagged for graph 1"
        );
        let mut w1c = w1.clone();
        w1c.vlan_pop().unwrap();
        let ip1 = {
            let eth = w1c.ethernet().unwrap();
            un_packet::Ipv4Packet::new_checked(eth.payload())
                .unwrap()
                .src()
        };
        assert_eq!(ip1, "203.0.113.1".parse::<std::net::Ipv4Addr>().unwrap());

        let out2 = host.inject(port, mk(b2.vid_lan));
        assert_eq!(out2.emitted.len(), 1, "graph 2 forwarded");
        let w2 = &out2.emitted[0].1;
        assert_eq!(
            w2.vlan_id(),
            Some(b2.vid_wan),
            "egress re-tagged for graph 2"
        );
        let mut w2c = w2.clone();
        w2c.vlan_pop().unwrap();
        let ip2 = {
            let eth = w2c.ethernet().unwrap();
            un_packet::Ipv4Packet::new_checked(eth.payload())
                .unwrap()
                .src()
        };
        assert_eq!(
            ip2,
            "198.51.100.1".parse::<std::net::Ipv4Addr>().unwrap(),
            "same inner tuple, different graph, different translation"
        );

        // Conntrack state is zone-separated.
        let nsr = host.namespace(ns).unwrap();
        assert_eq!(nsr.conntrack.zone_conns(1).count(), 1);
        assert_eq!(nsr.conntrack.zone_conns(2).count(), 1);
        assert_eq!(nsr.conntrack.zone_conns(0).count(), 0);
    }

    #[test]
    fn unbind_detaches_cleanly() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nat-shared");
        let port = host.add_external(ns, "attach", 1).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nat", None);
        let mut plugin = NatNnf::new();
        let b1 = binding("g1", 1, "192.168.1.1/24", "203.0.113.1/24");
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        plugin
            .start(&mut ctx, &[port], &NfConfig::default())
            .unwrap();
        plugin.bind_graph(&mut ctx, &b1).unwrap();
        assert_eq!(plugin.bound_graphs(), 1);
        plugin.unbind_graph(&mut ctx, &b1).unwrap();
        assert_eq!(plugin.bound_graphs(), 0);
        assert!(matches!(
            plugin.unbind_graph(&mut ctx, &b1),
            Err(NnfError::BadState(_))
        ));
    }

    #[test]
    fn dedicated_mode_rejects_bind() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nat");
        let p0 = host.add_external(ns, "lan", 1).unwrap();
        let p1 = host.add_external(ns, "wan", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nat", None);
        let cfg = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24");
        let mut plugin = NatNnf::new();
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        plugin.start(&mut ctx, &[p0, p1], &cfg).unwrap();
        let b = binding("g1", 1, "192.168.1.1/24", "203.0.113.1/24");
        assert!(matches!(
            plugin.bind_graph(&mut ctx, &b),
            Err(NnfError::NotSharable)
        ));
    }
}
