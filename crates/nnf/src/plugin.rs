//! The NNF instance: one native function in one namespace.
//!
//! An instance is its type's [`NnfDescriptor`]; what it runs is the
//! command list [`compile`](crate::translate::compile) made of its NF's
//! config before anything was built, handed to `start`. Running the list
//! configures kernel objects (XFRM, iptables, bridges, routes) inside
//! the network namespace the compute manager created for it. A shared
//! instance instead accepts per-service-graph *bindings* carrying the
//! mark / VLAN / conntrack-zone triple the node assigned and the NAT
//! binding compiled from the graph's config; each runs as its own
//! command list, and the adaptation layer is their one record.

use std::fmt;

use un_linux::{Host, IfaceId, NsId};
use un_sim::{AccountId, MemLedger};

use crate::adaptation::AdaptationLayer;
use crate::plugins::{execute, undo, BRIDGE};
use crate::translate::{self, binding_program, NatBinding, NnfCommand};

/// Static characteristics of one NNF type: what the paper's orchestrator
/// consults when deciding whether to deploy an NF as a native component
/// (can several instances run? can one serve several graphs? what does
/// it cost?). A descriptor is the only owner of those facts: an
/// [`NnfInstance`] reads its port minimum and RSS from the descriptor it
/// was built from. The node's repository holds one per native type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NnfDescriptor {
    /// Functional type, matching `NetworkFunction::functional_type`.
    pub functional_type: &'static str,
    /// Can several instances run concurrently (one per graph)?
    pub multi_instance: bool,
    /// Can a single instance serve several graphs (marking + internal
    /// paths, per the paper's definition of "sharable")?
    pub sharable: bool,
    /// Native package size on disk (the paper's "image size" column).
    pub package_bytes: u64,
    /// Daemon/tooling RSS per instance.
    pub rss_bytes: u64,
    /// Fewest ports a dedicated instance starts on. A shared instance
    /// starts on its one attachment port whatever this says.
    pub min_ports: usize,
}

/// Everything an instance needs to touch the node.
pub struct NnfContext<'a> {
    /// The CPE's kernel.
    pub host: &'a mut Host,
    /// The namespace the compute manager created for this NNF instance.
    pub ns: NsId,
    /// Memory ledger for RSS accounting.
    pub ledger: &'a mut MemLedger,
    /// This instance's memory account.
    pub account: AccountId,
}

/// Per-binding identifiers the node assigns when a sharable NNF serves
/// multiple service graphs through one attachment port (paper §2:
/// marking + multiple internal paths), and what the graph's config
/// compiled to. The adaptation layer keys on the whole binding: a graph
/// with two NFs on one instance holds two.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphBinding {
    /// Graph id.
    pub graph: String,
    /// Firewall mark distinguishing this graph's traffic.
    pub mark: u32,
    /// Conntrack zone for state isolation.
    pub zone: u16,
    /// VLAN id carrying this graph's LAN-side traffic on the single port.
    pub vid_lan: u16,
    /// VLAN id carrying this graph's WAN-side traffic on the single port.
    pub vid_wan: u16,
    /// The NAT binding [`compile`](crate::translate::compile) parsed
    /// from the graph's NF config: addresses, next hop, port forwards.
    pub nat: Option<NatBinding>,
}

/// NNF failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnfError {
    /// The generic configuration is missing a required parameter.
    MissingParam(&'static str),
    /// A parameter failed to parse.
    BadParam {
        /// Parameter name.
        key: String,
        /// Offending value.
        value: String,
    },
    /// The NNF needed more ports than the driver attached.
    NotEnoughPorts {
        /// Ports required.
        need: usize,
        /// Ports provided.
        have: usize,
    },
    /// Underlying kernel configuration failed.
    Kernel(String),
    /// Lifecycle misuse (configure before create, etc.).
    BadState(&'static str),
    /// A binding was asked of a dedicated instance, or a shared instance
    /// of a type that is not sharable.
    NotSharable,
}

impl fmt::Display for NnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnfError::MissingParam(p) => write!(f, "missing config parameter '{p}'"),
            NnfError::BadParam { key, value } => {
                write!(f, "bad config parameter {key}='{value}'")
            }
            NnfError::NotEnoughPorts { need, have } => {
                write!(f, "plugin needs {need} ports, driver attached {have}")
            }
            NnfError::Kernel(e) => write!(f, "kernel configuration failed: {e}"),
            NnfError::BadState(s) => write!(f, "lifecycle misuse: {s}"),
            NnfError::NotSharable => write!(f, "NNF is not sharable"),
        }
    }
}

impl std::error::Error for NnfError {}

impl From<un_linux::HostError> for NnfError {
    fn from(e: un_linux::HostError) -> Self {
        NnfError::Kernel(e.to_string())
    }
}

/// One native network function instance, built by [`NnfInstance::new`]
/// from its type's descriptor. It holds no config and no program: the
/// compiled command list arrives with `start`, and a shared instance's
/// bindings bring what their graphs compiled to.
///
/// Lifecycle: `start` → zero or more `bind_graph`/`unbind_graph` (shared
/// only) → `stop`. The compute manager guarantees `start` is called
/// before any other method, and once.
///
/// An instance is shared because it was built as one, and
/// holds its [`AdaptationLayer`], the one record of who rides it, from
/// construction. A dedicated instance starts on at least `min_ports` and
/// runs its list; a shared one starts on its one attachment port, brings
/// it up and turns forwarding on, and each binding brings the rest. Both
/// port guards stay here, at `start`: whether an instance is shared is
/// the node's decision, made after compilation.
///
/// There is no in-place update. A changed NF config is a structural
/// change of the graph (`un_nffg::diff`): the node undeploys the graph
/// and deploys a fresh instance from the new config; re-running a config
/// over a live namespace would duplicate what is already there (a second
/// SPD entry, repeated routes). A fresh start does not make a PSK tunnel
/// safe: [`derive_psk_tunnel`](crate::translate::derive_psk_tunnel)
/// gives the same keys and salts for the PSK on every start, and the
/// SAs count from sequence number 0 again. So a restarted or redeployed
/// IPsec NNF seals under (key, nonce) pairs it has used before, and the
/// peer drops its first frames as replays. Fresh keys per start need a
/// key exchange (`un_ipsec::ike`), which the NNF does not run.
#[derive(Debug)]
pub struct NnfInstance {
    descriptor: NnfDescriptor,
    started: bool,
    /// The ports `start` ran the list on.
    ports: Vec<IfaceId>,
    /// Who rides a shared instance; `None` on a dedicated one.
    adaptation: Option<AdaptationLayer>,
}

impl NnfInstance {
    /// An instance of `descriptor`'s type, dedicated or `shared`. A
    /// shared instance of a type not sharable is refused with
    /// [`NnfError::NotSharable`].
    pub fn new(descriptor: &NnfDescriptor, shared: bool) -> Result<Self, NnfError> {
        if shared && !descriptor.sharable {
            return Err(NnfError::NotSharable);
        }
        Ok(NnfInstance {
            descriptor: *descriptor,
            started: false,
            ports: Vec::new(),
            adaptation: shared.then(AdaptationLayer::default),
        })
    }

    /// The descriptor the instance was built from: its functional type
    /// and characteristics.
    pub fn descriptor(&self) -> &NnfDescriptor {
        &self.descriptor
    }

    /// Is the function up?
    pub fn started(&self) -> bool {
        self.started
    }

    /// Was it built shared?
    #[cfg(test)]
    pub(crate) fn is_shared(&self) -> bool {
        self.adaptation.is_some()
    }

    /// The bindings riding a shared instance, in bind order; none on a
    /// dedicated one.
    pub fn bindings(&self) -> impl Iterator<Item = &GraphBinding> {
        self.adaptation.iter().flat_map(AdaptationLayer::bindings)
    }

    /// Bring the function up inside the namespace: run `program`, the
    /// NF's compiled command list, and book its RSS on the instance's
    /// account. A shared instance runs its attachment program instead;
    /// its tenants' configs arrive with their bindings.
    ///
    /// `ports` are interfaces the compute manager created in the
    /// namespace, in NF port order (port 0 first).
    pub fn start(
        &mut self,
        ctx: &mut NnfContext<'_>,
        ports: &[IfaceId],
        program: &[NnfCommand],
    ) -> Result<(), NnfError> {
        if self.started {
            return Err(NnfError::BadState("already started"));
        }
        let (need, have) = (self.descriptor.min_ports, ports.len());
        let program = match self.adaptation {
            Some(_) if have == 1 => translate::SHARED_ATTACHMENT,
            Some(_) => return Err(NnfError::BadState("a shared instance starts on one port")),
            None if have < need => return Err(NnfError::NotEnoughPorts { need, have }),
            None => program,
        };
        let ports = execute(ctx, ports, program)?;
        let d = &self.descriptor;
        ctx.ledger
            .alloc(ctx.account, d.functional_type, d.rss_bytes)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        self.ports = ports;
        self.started = true;
        Ok(())
    }

    /// Attach one more binding to a running shared instance: execute its
    /// [`binding_program`] over the attachment port. A binding that fails
    /// leaves the namespace as it was.
    pub fn bind_graph(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        let adaptation = self.adaptation.as_mut().ok_or(NnfError::NotSharable)?;
        if !self.started {
            return Err(NnfError::BadState("bind before start"));
        }
        let ports = execute(ctx, &self.ports, &binding_program(binding)?)?;
        adaptation.insert(binding, ports);
        Ok(())
    }

    /// Detach a binding from a shared instance: undo its
    /// [`binding_program`]. A binding it does not hold is a `BadState`.
    pub fn unbind_graph(
        &mut self,
        ctx: &mut NnfContext<'_>,
        binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        let adaptation = self.adaptation.as_mut().ok_or(NnfError::NotSharable)?;
        let ports = adaptation
            .remove(binding)
            .ok_or(NnfError::BadState("graph not attached"))?;
        undo(ctx, &ports, &binding_program(binding)?)
    }

    /// Tear the function down: free its RSS, down what `start` brought
    /// up (the ports, and a bridge's `br0`) and forget the namespace's
    /// connections.
    pub fn stop(&mut self, ctx: &mut NnfContext<'_>) -> Result<(), NnfError> {
        if !self.started {
            return Err(NnfError::BadState("stop before start"));
        }
        let d = &self.descriptor;
        ctx.ledger
            .free(ctx.account, d.functional_type, d.rss_bytes)
            .map_err(|e| NnfError::Kernel(e.to_string()))?;
        let bridge = ctx.host.iface_by_name(ctx.ns, BRIDGE).map(|br| br.id);
        for iface in self.ports.iter().copied().chain(bridge) {
            ctx.host.set_up(iface, false)?;
        }
        if let Some(nsr) = ctx.host.namespace_mut(ctx.ns) {
            nsr.conntrack.clear();
        }
        self.started = false;
        Ok(())
    }
}

/// A descriptor of `functional_type` for this crate's tests: sharable,
/// multi-instance, two ports, 1 MB of RSS. The node's real descriptors
/// live in its repository.
#[cfg(test)]
pub(crate) fn described(functional_type: &'static str) -> NnfDescriptor {
    NnfDescriptor {
        functional_type,
        multi_instance: true,
        sharable: true,
        package_bytes: 0,
        rss_bytes: 1_000_000,
        min_ports: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::compiled;
    use std::collections::BTreeMap;
    use un_nffg::NfConfig;
    use un_packet::MacAddr;
    use un_sim::CostModel;

    /// What `config` compiles to for a `functional_type` NF on `n_ports`
    /// ports.
    fn program(functional_type: &str, config: &NfConfig, n_ports: u32) -> Vec<NnfCommand> {
        let compiled = compiled(functional_type, config, n_ports).expect("a type with a program");
        compiled.expect("the config compiles").commands.to_vec()
    }

    fn nnf(functional_type: &'static str) -> NnfInstance {
        NnfInstance::new(&described(functional_type), false).unwrap()
    }

    fn shared_nat() -> NnfInstance {
        NnfInstance::new(&described("nat"), true).unwrap()
    }

    /// The RSS the descriptor books for one instance of a type.
    fn rss(functional_type: &'static str) -> u64 {
        described(functional_type).rss_bytes
    }

    /// A shared instance of a type not sharable is refused; a dedicated
    /// one is built from the descriptor alone.
    #[test]
    fn a_shared_instance_of_a_dedicated_type_is_refused() {
        let dedicated_only = NnfDescriptor {
            sharable: false,
            ..described("nat")
        };
        assert!(matches!(
            NnfInstance::new(&dedicated_only, true),
            Err(NnfError::NotSharable)
        ));
        assert!(NnfInstance::new(&dedicated_only, false).is_ok());
    }

    fn bound_graphs(nnf: &NnfInstance) -> usize {
        nnf.bindings().count()
    }

    /// A namespace with `n` external ports tagged `1..=n`, as the driver
    /// hands it over, and the account an instance books into.
    struct Rig {
        host: Host,
        ns: NsId,
        ports: Vec<IfaceId>,
        ledger: MemLedger,
        account: AccountId,
    }

    impl Rig {
        fn new(n: usize) -> Self {
            let mut host = Host::new("cpe", CostModel::default());
            let ns = host.add_namespace("nnf");
            let ports = (0..n)
                .map(|i| host.add_external(ns, &format!("port{i}"), i as u64 + 1))
                .collect::<Result<_, _>>()
                .unwrap();
            let mut ledger = MemLedger::new();
            let account = ledger.create_account("nnf", None);
            Rig {
                host,
                ns,
                ports,
                ledger,
                account,
            }
        }

        /// The context an instance configures the namespace through, and
        /// the namespace's ports.
        fn ctx(&mut self) -> (NnfContext<'_>, &[IfaceId]) {
            let ctx = NnfContext {
                host: &mut self.host,
                ns: self.ns,
                ledger: &mut self.ledger,
                account: self.account,
            };
            (ctx, &self.ports)
        }
    }

    #[test]
    fn error_display() {
        let errs: Vec<NnfError> = vec![
            NnfError::MissingParam("psk"),
            NnfError::BadParam {
                key: "peer".into(),
                value: "x".into(),
            },
            NnfError::NotEnoughPorts { need: 2, have: 1 },
            NnfError::Kernel("boom".into()),
            NnfError::BadState("configure before create"),
            NnfError::NotSharable,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn bridges_frames_between_ports() {
        let mut rig = Rig::new(3);
        let (mut ctx, ports) = rig.ctx();
        nnf("bridge")
            .start(&mut ctx, ports, &program("bridge", &NfConfig::default(), 3))
            .unwrap();

        let frame = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(10), MacAddr::local(11))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1, 2)
            .build();
        // Unknown dst: flooded to the other two ports.
        let out = rig.host.inject(rig.ports[0], frame);
        let mut tags: Vec<u64> = out.emitted.iter().map(|(t, _)| *t).collect();
        tags.sort();
        assert_eq!(tags, vec![2, 3]);
    }

    #[test]
    fn needs_two_ports_and_stops_cleanly() {
        let mut rig = Rig::new(2);
        let (ns, account) = (rig.ns, rig.account);
        let mut plugin = nnf("bridge");
        let bridge = program("bridge", &NfConfig::default(), 2);
        let (mut ctx, ports) = rig.ctx();
        assert!(matches!(
            plugin.start(&mut ctx, &ports[..1], &bridge),
            Err(NnfError::NotEnoughPorts { .. })
        ));
        plugin.start(&mut ctx, ports, &bridge).unwrap();
        assert!(ctx.host.iface_by_name(ns, BRIDGE).is_some());
        assert_eq!(ctx.ledger.usage(account), rss("bridge"));
        plugin.stop(&mut ctx).unwrap();
        assert_eq!(ctx.ledger.usage(account), 0);
        assert!(!ctx.host.iface_by_name(ns, BRIDGE).unwrap().up);
    }

    fn firewall_config() -> NfConfig {
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

    #[test]
    fn enforces_policy_on_forwarded_traffic() {
        let mut rig = Rig::new(2);
        let (mut ctx, ports) = rig.ctx();
        nnf("firewall")
            .start(&mut ctx, ports, &program("firewall", &firewall_config(), 2))
            .unwrap();
        // Neighbor for the outside next hops.
        rig.host
            .neigh_add(rig.ns, "10.0.0.9".parse().unwrap(), MacAddr::local(9))
            .unwrap();

        let in_mac = rig.host.iface(rig.ports[0]).unwrap().mac;
        let mk = |dport: u16| {
            un_packet::PacketBuilder::new()
                .ethernet(MacAddr::local(50), in_mac)
                .ipv4("192.168.1.5".parse().unwrap(), "10.0.0.9".parse().unwrap())
                .udp(4000, dport)
                .payload(b"x")
                .build()
        };

        // DNS passes.
        let out = rig.host.inject(rig.ports[0], mk(53));
        assert_eq!(out.emitted.len(), 1);
        // Telnet-ish does not.
        let out = rig.host.inject(rig.ports[0], mk(23));
        assert!(out.emitted.is_empty());
        assert!(rig.host.namespace(rig.ns).unwrap().netfilter.dropped >= 1);
    }

    #[test]
    fn rss_accounting_roundtrip() {
        let mut rig = Rig::new(2);
        let account = rig.account;
        let mut plugin = nnf("firewall");
        let (mut ctx, ports) = rig.ctx();
        let firewall = program("firewall", &firewall_config(), 2);
        plugin.start(&mut ctx, ports, &firewall).unwrap();
        assert_eq!(ctx.ledger.usage(account), rss("firewall"));
        plugin.stop(&mut ctx).unwrap();
        assert_eq!(ctx.ledger.usage(account), 0);
    }

    fn ipsec_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "192.0.2.2")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24")
    }

    /// The gateway's end of [`ipsec_config`]'s tunnel.
    fn responder_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "hunter2")
            .with_param("local-addr", "192.0.2.2")
            .with_param("peer-addr", "192.0.2.1")
            .with_param("protected-local", "172.16.0.0/16")
            .with_param("protected-remote", "192.168.1.0/24")
            .with_param("lan-addr", "172.16.0.1/16")
            .with_param("wan-addr", "192.0.2.2/24")
            .with_param("role", "responder")
    }

    #[test]
    fn start_installs_kernel_state_and_rss() {
        let mut rig = Rig::new(2);
        let mut plugin = nnf("ipsec");
        let (mut ctx, ports) = rig.ctx();
        plugin
            .start(&mut ctx, ports, &program("ipsec", &ipsec_config(), 2))
            .unwrap();
        assert_eq!(rig.ledger.usage(rig.account), rss("ipsec"));
        let nsr = rig.host.namespace(rig.ns).unwrap();
        assert_eq!(nsr.xfrm.sad.len(), 2, "out + in SA installed");
        assert_eq!(nsr.xfrm.spd.len(), 1);
        assert!(nsr.ip_forward);

        // Stop releases memory and downs ports.
        plugin.stop(&mut rig.ctx().0).unwrap();
        assert_eq!(rig.ledger.usage(rig.account), 0);
        assert!(!rig.host.iface(rig.ports[0]).unwrap().up);
    }

    /// `start` guards the lifecycle and the port count; the config was
    /// checked when it compiled.
    #[test]
    fn start_guards_and_param_validation() {
        let mut rig = Rig::new(2);
        let mut plugin = nnf("ipsec");
        let ipsec = program("ipsec", &ipsec_config(), 2);
        let (mut ctx, ports) = rig.ctx();
        assert!(matches!(plugin.stop(&mut ctx), Err(NnfError::BadState(_))));
        assert!(matches!(
            plugin.start(&mut ctx, &ports[..1], &ipsec),
            Err(NnfError::NotEnoughPorts { need: 2, have: 1 })
        ));
        assert!(matches!(
            compiled("ipsec", &NfConfig::default(), 2),
            Some(Err(NnfError::MissingParam(_)))
        ));
        let bad = ipsec_config().with_param("lan-addr", "not-a-cidr");
        assert!(matches!(
            compiled("ipsec", &bad, 2),
            Some(Err(NnfError::BadParam { .. }))
        ));
        plugin.start(&mut ctx, ports, &ipsec).unwrap();
        assert!(matches!(
            plugin.start(&mut ctx, ports, &ipsec),
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

        let cpe_cfg = ipsec_config(); // initiator by default
        let gw_cfg = responder_config();

        let mut cpe_plugin = nnf("ipsec");
        let mut gw_plugin = nnf("ipsec");
        {
            let mut ctx = NnfContext {
                host: &mut cpe,
                ns: cpe_ns,
                ledger: &mut l1,
                account: a1,
            };
            cpe_plugin
                .start(
                    &mut ctx,
                    &[cpe_lan, cpe_wan],
                    &program("ipsec", &cpe_cfg, 2),
                )
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
                .start(&mut ctx, &[gw_lan, gw_wan], &program("ipsec", &gw_cfg, 2))
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
            .ethernet(MacAddr::local(77), cpe_lan_mac)
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
        gw.neigh_add(gw_ns, "172.16.0.9".parse().unwrap(), MacAddr::local(88))
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

    /// A PSK tunnel derives the same keys and salts from `(psk, role)` on
    /// every start, and its outbound sequence number starts at 0 again.
    /// The ESP nonce is the sequence number, so a restarted or redeployed
    /// instance seals its first frame under a (key, nonce) pair it already
    /// used, and the peer drops it as a replay. Both halves flip when the
    /// NNF agrees fresh keys per start.
    #[test]
    fn a_restarted_psk_tunnel_repeats_its_nonces() {
        let mut ledger = MemLedger::new();
        let mut gw = Host::new("gw", CostModel::default());
        let gw_ns = gw.add_namespace("ipsec");
        let gw_lan = gw.add_external(gw_ns, "lan", 20).unwrap();
        let gw_wan = gw.add_external(gw_ns, "wan", 21).unwrap();
        let gw_account = ledger.create_account("gw-ipsec", None);
        let mut ctx = NnfContext {
            host: &mut gw,
            ns: gw_ns,
            ledger: &mut ledger,
            account: gw_account,
        };
        nnf("ipsec")
            .start(
                &mut ctx,
                &[gw_lan, gw_wan],
                &program("ipsec", &responder_config(), 2),
            )
            .unwrap();
        gw.neigh_add(gw_ns, "172.16.0.9".parse().unwrap(), MacAddr::local(88))
            .unwrap();
        let gw_wan_mac = gw.iface(gw_wan).unwrap().mac;

        // One incarnation of the CPE: a fresh namespace, start, seal one
        // frame, stop, and the namespace goes, as a redeploy does it.
        let mut cpe = Host::new("cpe", CostModel::default());
        let account = ledger.create_account("cpe-ipsec", None);
        let mut seal_once = || {
            let ns = cpe.add_namespace("ipsec");
            let lan = cpe.add_external(ns, "lan", 10).unwrap();
            let wan = cpe.add_external(ns, "wan", 11).unwrap();
            let mut plugin = nnf("ipsec");
            let mut ctx = NnfContext {
                host: &mut cpe,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin
                .start(&mut ctx, &[lan, wan], &program("ipsec", &ipsec_config(), 2))
                .unwrap();
            cpe.neigh_add(ns, "192.0.2.2".parse().unwrap(), gw_wan_mac)
                .unwrap();
            let lan_mac = cpe.iface(lan).unwrap().mac;
            let frame = un_packet::PacketBuilder::new()
                .ethernet(MacAddr::local(77), lan_mac)
                .ipv4(
                    "192.168.1.10".parse().unwrap(),
                    "172.16.0.9".parse().unwrap(),
                )
                .udp(4444, 5555)
                .payload(&[0x5A; 64])
                .build();
            let mut out = cpe.inject(lan, frame);
            assert_eq!(out.emitted.len(), 1, "ESP packet leaves the CPE WAN");
            let mut ctx = NnfContext {
                host: &mut cpe,
                ns,
                ledger: &mut ledger,
                account,
            };
            plugin.stop(&mut ctx).unwrap();
            cpe.remove_namespace(ns).unwrap();
            out.emitted.remove(0).1
        };
        let first = seal_once();
        let second = seal_once();

        // From the SPI through the ICV, the two ESP payloads are one.
        let esp = |wire: &un_packet::Packet| {
            let eth = wire.ethernet().unwrap();
            let ip = un_packet::Ipv4Packet::new_checked(eth.payload()).unwrap();
            ip.payload().to_vec()
        };
        assert_eq!(esp(&first), esp(&second), "same key, same nonce");

        // The gateway that opened the first refuses the second as a replay.
        assert_eq!(gw.inject(gw_wan, first).emitted.len(), 1, "first opens");
        let errors = gw.trace.counter("xfrm_decap_errors");
        assert!(gw.inject(gw_wan, second).emitted.is_empty(), "replayed");
        assert_eq!(gw.trace.counter("xfrm_decap_errors"), errors + 1);
    }

    fn nat_config() -> NfConfig {
        NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24")
    }

    fn nat_binding(graph: &str, mark: u32, lan: &str, wan: &str) -> GraphBinding {
        let nat = NatBinding {
            lan: lan.parse().unwrap(),
            wan: wan.parse().unwrap(),
            gw: None,
            dnat: Vec::new(),
        };
        GraphBinding {
            graph: graph.into(),
            mark,
            zone: mark as u16,
            vid_lan: 100 + (mark * 2) as u16,
            vid_wan: 101 + (mark * 2) as u16,
            nat: Some(nat),
        }
    }

    #[test]
    fn dedicated_mode_masquerades() {
        let mut rig = Rig::new(2);
        let (mut ctx, ports) = rig.ctx();
        let nat = program("nat", &nat_config(), 2);
        nnf("nat").start(&mut ctx, ports, &nat).unwrap();
        let Rig {
            mut host,
            ns,
            ports,
            ..
        } = rig;
        host.neigh_add(ns, "203.0.113.9".parse().unwrap(), MacAddr::local(9))
            .unwrap();
        let lan_mac = host.iface(ports[0]).unwrap().mac;
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(50), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "203.0.113.9".parse().unwrap(),
            )
            .udp(5000, 53)
            .payload(b"q")
            .build();
        let out = host.inject(ports[0], pkt);
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
        let mut rig = Rig::new(1);
        let mut plugin = shared_nat();

        let b1 = nat_binding("g1", 1, "192.168.1.1/24", "203.0.113.1/24");
        let b2 = nat_binding("g2", 2, "192.168.1.1/24", "198.51.100.1/24");
        {
            let (mut ctx, ports) = rig.ctx();
            plugin.start(&mut ctx, ports, &[]).unwrap();
            plugin.bind_graph(&mut ctx, &b1).unwrap();
            plugin.bind_graph(&mut ctx, &b2).unwrap();
        }
        assert_eq!(bound_graphs(&plugin), 2);
        let Rig {
            mut host,
            ns,
            ports,
            ..
        } = rig;
        let port = ports[0];
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
        let mut rig = Rig::new(1);
        let mut plugin = shared_nat();
        let b1 = nat_binding("g1", 1, "192.168.1.1/24", "203.0.113.1/24");
        let (mut ctx, ports) = rig.ctx();
        plugin.start(&mut ctx, ports, &[]).unwrap();
        plugin.bind_graph(&mut ctx, &b1).unwrap();
        assert_eq!(bound_graphs(&plugin), 1);
        plugin.unbind_graph(&mut ctx, &b1).unwrap();
        assert_eq!(bound_graphs(&plugin), 0);
        assert!(matches!(
            plugin.unbind_graph(&mut ctx, &b1),
            Err(NnfError::BadState(_))
        ));
    }

    #[test]
    fn dedicated_mode_rejects_bind() {
        let mut rig = Rig::new(2);
        let mut plugin = nnf("nat");
        let (mut ctx, ports) = rig.ctx();
        plugin
            .start(&mut ctx, ports, &program("nat", &nat_config(), 2))
            .unwrap();
        let b = nat_binding("g1", 1, "192.168.1.1/24", "203.0.113.1/24");
        assert!(matches!(
            plugin.bind_graph(&mut ctx, &b),
            Err(NnfError::NotSharable)
        ));
    }

    #[test]
    fn routes_between_subnets() {
        let mut rig = Rig::new(2);
        let mut cfg = NfConfig::default()
            .with_param("addr0", "10.1.0.1/24")
            .with_param("addr1", "10.2.0.1/24");
        let mut extra = BTreeMap::new();
        extra.insert("dst".into(), "172.16.0.0/16".into());
        extra.insert("via".into(), "10.2.0.254".into());
        extra.insert("port".into(), "1".into());
        cfg.rules.push(extra);

        let (mut ctx, ports) = rig.ctx();
        let router = program("router", &cfg, 2);
        nnf("router").start(&mut ctx, ports, &router).unwrap();
        let Rig {
            mut host,
            ns,
            ports,
            ..
        } = rig;
        host.neigh_add(ns, "10.2.0.254".parse().unwrap(), MacAddr::local(99))
            .unwrap();

        let mac0 = host.iface(ports[0]).unwrap().mac;
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(MacAddr::local(50), mac0)
            .ipv4("10.1.0.9".parse().unwrap(), "172.16.5.5".parse().unwrap())
            .udp(1, 2)
            .build();
        let out = host.inject(ports[0], pkt);
        assert_eq!(out.emitted.len(), 1);
        assert_eq!(
            out.emitted[0].0, 2,
            "routed out port 1 via the static route"
        );
    }
}
