//! The IPsec NNF — strongSwan as a native component.
//!
//! Port 0 faces the protected LAN, port 1 the WAN. The plugin assigns
//! addresses, installs kernel XFRM states/policies (keys derived from
//! the PSK in "predefined configuration script" mode, as in the paper's
//! initial implementation) and enables forwarding. The data plane then
//! runs entirely in the simulated kernel — the property that makes the
//! native flavor fast in Table 1.
//!
//! Config parameters, which [`translate`] reads (the VM flavor's guest
//! takes all but the two interface addresses):
//!
//! | key | meaning | required |
//! |---|---|---|
//! | `psk` | pre-shared key | yes |
//! | `local-addr` | WAN tunnel endpoint address | yes |
//! | `peer-addr` | remote tunnel endpoint | yes |
//! | `protected-local` | inner prefix behind this end | yes |
//! | `protected-remote` | inner prefix behind the peer | yes |
//! | `lan-addr` | CIDR for port 0 | yes |
//! | `wan-addr` | CIDR for port 1 | yes |
//! | `role` | `initiator` (default) / `responder` | no |

use un_linux::IfaceId;
use un_nffg::NfConfig;

use crate::plugin::{NnfContext, NnfError, NnfPlugin};
use crate::plugins::execute;
use crate::translate::translate;

/// Daemon RSS of the native strongSwan (charon) instance, bytes.
/// Together with in-kernel state this is the paper's 19.4 MB figure.
pub const CHARON_RSS: u64 = 19_400_000;

/// The IPsec NNF plugin.
#[derive(Debug, Default)]
pub struct IpsecNnf {
    started: bool,
    ports: Vec<IfaceId>,
}

impl IpsecNnf {
    /// A fresh plugin instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NnfPlugin for IpsecNnf {
    fn functional_type(&self) -> &'static str {
        "ipsec"
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
        execute(ctx, ports, translate("ipsec", config, ports.len())?)?;
        // The charon daemon's memory.
        ctx.ledger
            .alloc(ctx.account, "charon-rss", CHARON_RSS)
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
            .free(ctx.account, "charon-rss", CHARON_RSS)
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
    use un_linux::Host;
    use un_sim::{CostModel, MemLedger};

    fn config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "192.0.2.2")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24")
    }

    #[test]
    fn start_installs_kernel_state_and_rss() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("ipsec-nnf");
        let p0 = host.add_external(ns, "port0", 1).unwrap();
        let p1 = host.add_external(ns, "port1", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf:ipsec", None);

        let mut plugin = IpsecNnf::new();
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin.start(&mut ctx, &[p0, p1], &config()).unwrap();
        }
        assert_eq!(ledger.usage(account), CHARON_RSS);
        let nsr = host.namespace(ns).unwrap();
        assert_eq!(nsr.xfrm.sad.len(), 2, "out + in SA installed");
        assert_eq!(nsr.xfrm.spd.len(), 1);
        assert!(nsr.ip_forward);

        // Stop releases memory and downs ports.
        {
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin.stop(&mut ctx).unwrap();
        }
        assert_eq!(ledger.usage(account), 0);
        assert!(!host.iface(p0).unwrap().up);
    }

    #[test]
    fn start_guards_and_param_validation() {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("x");
        let p0 = host.add_external(ns, "a", 1).unwrap();
        let p1 = host.add_external(ns, "b", 2).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("n", None);
        let mut plugin = IpsecNnf::new();
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        assert!(matches!(plugin.stop(&mut ctx), Err(NnfError::BadState(_))));
        assert!(matches!(
            plugin.start(&mut ctx, &[p0], &config()),
            Err(NnfError::NotEnoughPorts { need: 2, have: 1 })
        ));
        assert!(matches!(
            plugin.start(&mut ctx, &[p0, p1], &NfConfig::default()),
            Err(NnfError::MissingParam(_))
        ));
        let bad = config().with_param("lan-addr", "not-a-cidr");
        assert!(matches!(
            plugin.start(&mut ctx, &[p0, p1], &bad),
            Err(NnfError::BadParam { .. })
        ));
        plugin.start(&mut ctx, &[p0, p1], &config()).unwrap();
        assert!(matches!(
            plugin.start(&mut ctx, &[p0, p1], &config()),
            Err(NnfError::BadState(_))
        ));
    }

    #[test]
    fn two_nnf_hosts_form_working_tunnel() {
        // CPE (initiator) and gateway (responder) both run the IPsec NNF
        // with the same PSK; traffic between the protected prefixes is
        // encrypted on the wire and delivered in the clear.
        let costs = CostModel::default();
        let mut cpe = Host::new("cpe", costs.clone());
        let cpe_ns = cpe.add_namespace("ipsec");
        let cpe_lan = cpe.add_external(cpe_ns, "lan", 10).unwrap();
        let cpe_wan = cpe.add_external(cpe_ns, "wan", 11).unwrap();

        let mut gw = Host::new("gw", costs);
        let gw_ns = gw.add_namespace("ipsec");
        let gw_lan = gw.add_external(gw_ns, "lan", 20).unwrap();
        let gw_wan = gw.add_external(gw_ns, "wan", 21).unwrap();

        let mut l1 = MemLedger::new();
        let a1 = l1.create_account("cpe-ipsec", None);
        let mut l2 = MemLedger::new();
        let a2 = l2.create_account("gw-ipsec", None);

        let cpe_cfg = config(); // initiator by default
        let gw_cfg = NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.2")
            .with_param("peer-addr", "192.0.2.1")
            .with_param("protected-local", "172.16.0.0/16")
            .with_param("protected-remote", "192.168.1.0/24")
            .with_param("lan-addr", "172.16.0.1/16")
            .with_param("wan-addr", "192.0.2.2/24")
            .with_param("role", "responder");

        let mut cpe_plugin = IpsecNnf::new();
        let mut gw_plugin = IpsecNnf::new();
        {
            let mut ctx = NnfContext {
                host: &mut cpe,
                ns: cpe_ns,
                ledger: &mut l1,
                account: a1,
            };
            cpe_plugin
                .start(&mut ctx, &[cpe_lan, cpe_wan], &cpe_cfg)
                .unwrap();
        }
        {
            let mut ctx = NnfContext {
                host: &mut gw,
                ns: gw_ns,
                ledger: &mut l2,
                account: a2,
            };
            gw_plugin
                .start(&mut ctx, &[gw_lan, gw_wan], &gw_cfg)
                .unwrap();
        }
        // Static neighbors (the fabric's LSIs would let ARP resolve).
        let cpe_wan_mac = cpe.iface(cpe_wan).unwrap().mac;
        let gw_wan_mac = gw.iface(gw_wan).unwrap().mac;
        cpe.neigh_add(cpe_ns, "192.0.2.2".parse().unwrap(), gw_wan_mac)
            .unwrap();
        gw.neigh_add(gw_ns, "192.0.2.1".parse().unwrap(), cpe_wan_mac)
            .unwrap();

        // A LAN client's packet toward the remote protected subnet
        // enters the CPE's LAN port.
        let cpe_lan_mac = cpe.iface(cpe_lan).unwrap().mac;
        let payload = vec![0x5A; 512];
        let mut frame = un_packet::PacketBuilder::new()
            .ethernet(un_packet::MacAddr::local(77), cpe_lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(4444, 5555)
            .payload(&payload)
            .build();
        frame.meta.trace_id = 1;
        let out = cpe.inject(cpe_lan, frame);
        assert_eq!(out.emitted.len(), 1, "ESP packet leaves the CPE WAN");
        let (tag, wire) = &out.emitted[0];
        assert_eq!(*tag, 11);
        assert!(
            !wire
                .data()
                .windows(payload.len())
                .any(|w| w == &payload[..]),
            "payload must be encrypted on the WAN"
        );

        // Gateway decapsulates and forwards into its LAN. It needs a
        // neighbor for the inner destination on its LAN side.
        gw.neigh_add(
            gw_ns,
            "172.16.0.9".parse().unwrap(),
            un_packet::MacAddr::local(88),
        )
        .unwrap();
        let out = gw.inject(gw_wan, wire.clone());
        assert_eq!(out.emitted.len(), 1, "plaintext delivered to gw LAN");
        let (tag, plain) = &out.emitted[0];
        assert_eq!(*tag, 20);
        assert!(
            plain
                .data()
                .windows(payload.len())
                .any(|w| w == &payload[..]),
            "payload restored in the clear"
        );
        assert_eq!(cpe.trace.counter("xfrm_encap"), 1);
        assert_eq!(gw.trace.counter("xfrm_decap"), 1);
    }
}
