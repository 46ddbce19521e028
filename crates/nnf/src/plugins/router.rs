//! The static-router NNF — `ip route` as a native component.
//!
//! Config: `addr<i>` params assign CIDRs to port *i*; `rules` entries
//! (`dst`, optional `via`, `port`) install static routes.

use un_linux::IfaceId;
use un_nffg::NfConfig;

use crate::plugin::{NnfContext, NnfError, NnfPlugin};
use crate::plugins::execute;
use crate::translate::translate;

/// Bookkeeping RSS.
pub const ROUTER_RSS: u64 = 400_000;

/// The router NNF plugin.
#[derive(Debug, Default)]
pub struct RouterNnf {
    started: bool,
    ports: Vec<IfaceId>,
}

impl RouterNnf {
    /// A fresh plugin instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NnfPlugin for RouterNnf {
    fn functional_type(&self) -> &'static str {
        "router"
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
        execute(ctx, ports, translate("router", config, ports.len())?)?;
        ctx.ledger
            .alloc(ctx.account, "router-tools", ROUTER_RSS)
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
            .free(ctx.account, "router-tools", ROUTER_RSS)
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
    use un_packet::MacAddr;
    use un_sim::{CostModel, MemLedger};

    #[test]
    fn routes_between_subnets() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("rtr");
        let p0 = host.add_external(ns, "a", 1).unwrap();
        let p1 = host.add_external(ns, "b", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("rtr", None);

        let mut cfg = NfConfig::default()
            .with_param("addr0", "10.1.0.1/24")
            .with_param("addr1", "10.2.0.1/24");
        let mut extra = BTreeMap::new();
        extra.insert("dst".into(), "172.16.0.0/16".into());
        extra.insert("via".into(), "10.2.0.254".into());
        extra.insert("port".into(), "1".into());
        cfg.rules.push(extra);

        let mut plugin = RouterNnf::new();
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin.start(&mut ctx, &[p0, p1], &cfg).unwrap();
        }
        host.neigh_add(ns, "10.2.0.254".parse().unwrap(), MacAddr::local(99))
            .unwrap();

        let mac0 = host.iface(p0).unwrap().mac;
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(50), mac0)
            .ipv4("10.1.0.9".parse().unwrap(), "172.16.5.5".parse().unwrap())
            .udp(1, 2)
            .build();
        let out = host.inject(p0, pkt);
        assert_eq!(out.emitted.len(), 1);
        assert_eq!(
            out.emitted[0].0, 2,
            "routed out port 1 via the static route"
        );
    }
}
