//! The firewall NNF — iptables as a native component.
//!
//! A routed stateful firewall: port 0 = inside, port 1 = outside.
//! Policy and rules come from the generic config via the translation
//! layer. Multi-instance: every graph can get its own instance in its
//! own namespace (netfilter state is per-namespace).
//!
//! Config parameters: `addr0`/`addr1` (CIDRs for the two ports),
//! optional `gw` (upstream next hop), `policy` (`drop`/`accept`),
//! `stateful` (`true` default), plus `rules` entries with
//! `action`/`src`/`dst`/`proto`/`sport`/`dport`.

use un_linux::IfaceId;
use un_nffg::NfConfig;

use crate::plugin::{NnfContext, NnfError, NnfPlugin};
use crate::plugins::execute;
use crate::translate::translate;

/// Firewall instances have no long-running daemon; only kernel state.
/// A small bookkeeping RSS covers the rule-management tooling.
pub const FIREWALL_RSS: u64 = 900_000;

/// The firewall NNF plugin.
#[derive(Debug, Default)]
pub struct FirewallNnf {
    started: bool,
    ports: Vec<IfaceId>,
}

impl FirewallNnf {
    /// A fresh plugin instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NnfPlugin for FirewallNnf {
    fn functional_type(&self) -> &'static str {
        "firewall"
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
        if ports.len() < 2 {
            return Err(NnfError::NotEnoughPorts {
                need: 2,
                have: ports.len(),
            });
        }
        execute(ctx, ports, translate("firewall", config, ports.len())?)?;
        ctx.ledger
            .alloc(ctx.account, "fw-tools", FIREWALL_RSS)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        self.ports = ports.to_vec();
        self.started = true;
        Ok(())
    }

    fn stop(&mut self, ctx: &mut NnfContext<'_>) -> Result<(), NnfError> {
        if !self.started {
            return Err(NnfError::BadState("stop before start"));
        }
        ctx.ledger
            .free(ctx.account, "fw-tools", FIREWALL_RSS)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        for p in &self.ports {
            ctx.host.set_up(*p, false)?;
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
    use un_sim::{CostModel, MemLedger};

    fn base_config() -> NfConfig {
        let mut c = NfConfig::default()
            .with_param("addr0", "192.168.1.1/24")
            .with_param("addr1", "10.0.0.1/24")
            .with_param("policy", "drop");
        let mut allow_dns = BTreeMap::new();
        allow_dns.insert("action".into(), "accept".into());
        allow_dns.insert("proto".into(), "udp".into());
        allow_dns.insert("dport".into(), "53".into());
        c.rules.push(allow_dns);
        c
    }

    struct Fixture {
        host: Host,
        ns: un_linux::NsId,
        ports: Vec<IfaceId>,
        ledger: MemLedger,
        account: un_sim::AccountId,
    }

    fn fixture() -> Fixture {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("fw");
        let p0 = host.add_external(ns, "in", 1).unwrap();
        let p1 = host.add_external(ns, "out", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("fw", None);
        Fixture {
            host,
            ns,
            ports: vec![p0, p1],
            ledger,
            account,
        }
    }

    #[test]
    fn enforces_policy_on_forwarded_traffic() {
        let mut f = fixture();
        let mut plugin = FirewallNnf::new();
        {
            let mut ctx = NnfContext {
                host: &mut f.host,
                ns: f.ns,
                ledger: &mut f.ledger,
                account: f.account,
            };
            plugin.start(&mut ctx, &f.ports, &base_config()).unwrap();
        }
        // Neighbor for the outside next hops.
        f.host
            .neigh_add(
                f.ns,
                "10.0.0.9".parse().unwrap(),
                un_packet::MacAddr::local(9),
            )
            .unwrap();

        let in_mac = f.host.iface(f.ports[0]).unwrap().mac;
        let mk = |dport: u16| {
            un_packet::PacketBuilder::new()
                .ethernet(un_packet::MacAddr::local(50), in_mac)
                .ipv4("192.168.1.5".parse().unwrap(), "10.0.0.9".parse().unwrap())
                .udp(4000, dport)
                .payload(b"x")
                .build()
        };

        // DNS passes.
        let out = f.host.inject(f.ports[0], mk(53));
        assert_eq!(out.emitted.len(), 1);
        // Telnet-ish does not.
        let out = f.host.inject(f.ports[0], mk(23));
        assert!(out.emitted.is_empty());
        assert!(f.host.namespace(f.ns).unwrap().netfilter.dropped >= 1);
    }

    #[test]
    fn rss_accounting_roundtrip() {
        let mut f = fixture();
        let mut plugin = FirewallNnf::new();
        let mut ctx = NnfContext {
            host: &mut f.host,
            ns: f.ns,
            ledger: &mut f.ledger,
            account: f.account,
        };
        plugin.start(&mut ctx, &f.ports, &base_config()).unwrap();
        assert_eq!(ctx.ledger.usage(f.account), FIREWALL_RSS);
        plugin.stop(&mut ctx).unwrap();
        assert_eq!(ctx.ledger.usage(f.account), 0);
    }
}
