//! The linuxbridge NNF — transparent L2 switching as a native component.

use un_linux::IfaceId;
use un_nffg::NfConfig;

use crate::plugin::{NnfContext, NnfError, NnfPlugin};

/// Bridges have no daemon; tiny bookkeeping RSS.
pub const BRIDGE_RSS: u64 = 300_000;

/// The bridge NNF plugin.
#[derive(Debug, Default)]
pub struct BridgeNnf {
    started: bool,
    ports: Vec<IfaceId>,
    bridge: Option<IfaceId>,
}

impl BridgeNnf {
    /// A fresh plugin instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kernel bridge interface, once started.
    pub fn bridge_iface(&self) -> Option<IfaceId> {
        self.bridge
    }
}

impl NnfPlugin for BridgeNnf {
    fn functional_type(&self) -> &'static str {
        "bridge"
    }

    fn start(
        &mut self,
        ctx: &mut NnfContext<'_>,
        ports: &[IfaceId],
        _config: &NfConfig,
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
        let br = ctx.host.add_bridge(ctx.ns, "br0")?;
        for p in ports {
            ctx.host.bridge_attach(br, *p)?;
            ctx.host.set_up(*p, true)?;
        }
        ctx.host.set_up(br, true)?;
        ctx.ledger
            .alloc(ctx.account, "bridge-tools", BRIDGE_RSS)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        self.bridge = Some(br);
        self.ports = ports.to_vec();
        self.started = true;
        Ok(())
    }

    fn stop(&mut self, ctx: &mut NnfContext<'_>) -> Result<(), NnfError> {
        if !self.started {
            return Err(NnfError::BadState("stop before start"));
        }
        ctx.ledger
            .free(ctx.account, "bridge-tools", BRIDGE_RSS)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        if let Some(br) = self.bridge {
            ctx.host.set_up(br, false)?;
        }
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
    use un_linux::Host;
    use un_packet::MacAddr;
    use un_sim::{CostModel, MemLedger};

    #[test]
    fn bridges_frames_between_ports() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("br");
        let p0 = host.add_external(ns, "p0", 1).unwrap();
        let p1 = host.add_external(ns, "p1", 2).unwrap();
        let p2 = host.add_external(ns, "p2", 3).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("br", None);
        let mut plugin = BridgeNnf::new();
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin
                .start(&mut ctx, &[p0, p1, p2], &NfConfig::default())
                .unwrap();
        }

        let frame = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(10), MacAddr::local(11))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1, 2)
            .build();
        // Unknown dst: flooded to the other two ports.
        let out = host.inject(p0, frame);
        let mut tags: Vec<u64> = out.emitted.iter().map(|(t, _)| *t).collect();
        tags.sort();
        assert_eq!(tags, vec![2, 3]);
    }

    #[test]
    fn needs_two_ports_and_stops_cleanly() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("br");
        let p0 = host.add_external(ns, "p0", 1).unwrap();
        let p1 = host.add_external(ns, "p1", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("br", None);
        let mut plugin = BridgeNnf::new();
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        assert!(matches!(
            plugin.start(&mut ctx, &[p0], &NfConfig::default()),
            Err(NnfError::NotEnoughPorts { .. })
        ));
        plugin
            .start(&mut ctx, &[p0, p1], &NfConfig::default())
            .unwrap();
        assert!(plugin.bridge_iface().is_some());
        assert_eq!(ctx.ledger.usage(account), BRIDGE_RSS);
        plugin.stop(&mut ctx).unwrap();
        assert_eq!(ctx.ledger.usage(account), 0);
    }
}
