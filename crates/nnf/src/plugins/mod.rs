//! The shell every NNF's program runs in, and its inverse.

use un_linux::netfilter::NfRule;
use un_linux::{HostError, IfaceId};

use crate::plugin::{NnfContext, NnfError};
use crate::translate::NnfCommand;

/// The name of the bridge [`NnfCommand::Bridge`] creates.
pub(crate) const BRIDGE: &str = "br0";

/// Execute compiled commands against the NNF's namespace, and return its
/// ports after them: `ports`, then each sub-interface the list made.
///
/// This is the plugin scripts' shared "shell": every [`NnfCommand`]
/// corresponds to the `ip`/`iptables`/`sysctl` invocation its doc names.
/// Port indices resolve to `ports`, the namespace's interfaces in NF
/// port order, and a sub-interface takes the next index. A command that
/// fails is the error, once [`undo`] has removed what ran before it.
pub fn execute(
    ctx: &mut NnfContext<'_>,
    ports: &[IfaceId],
    cmds: &[NnfCommand],
) -> Result<Vec<IfaceId>, NnfError> {
    let mut ports = ports.to_vec();
    for (ran, cmd) in cmds.iter().enumerate() {
        if let Err(error) = run(ctx, &mut ports, cmd) {
            undo(ctx, &ports, &cmds[..ran])?;
            return Err(error);
        }
    }
    Ok(ports)
}

/// Undo what [`execute`] made of `cmds` on `ports` (the ports it
/// returned), last command first: a sub-interface is removed with its
/// addresses and routes, an appended rule is deleted, an `ip rule`'s
/// table is dropped with every rule pointing at it, and a zone's
/// connections are flushed. Everything else a binding's list sets lives
/// on one of those; a dedicated list goes with its namespace.
pub fn undo(
    ctx: &mut NnfContext<'_>,
    ports: &[IfaceId],
    cmds: &[NnfCommand],
) -> Result<(), NnfError> {
    let mut made = ports.len();
    for cmd in cmds.iter().rev() {
        if let NnfCommand::VlanSub { .. } = cmd {
            made -= 1;
            ctx.host.remove_iface(ports[made])?;
            continue;
        }
        let missing = HostError::NoSuchNamespace(ctx.ns.0);
        let nsr = ctx.host.namespace_mut(ctx.ns).ok_or(missing)?;
        match cmd {
            NnfCommand::IptablesAppend {
                table,
                chain,
                rule,
                in_port,
                out_port,
            } => {
                let rule = bound(rule, *in_port, *out_port, &ports[..made])?;
                let (matches, target) = (&rule.matches, &rule.target);
                nsr.netfilter.remove_rule(*table, *chain, matches, target);
            }
            NnfCommand::IpRule(rule) => nsr.routing.remove_table(rule.table),
            NnfCommand::CtZone { zone, .. } => nsr.conntrack.flush_zone(*zone),
            NnfCommand::VlanSub { .. }
            | NnfCommand::IpAddr { .. }
            | NnfCommand::LinkUp { .. }
            | NnfCommand::IpRoute { .. }
            | NnfCommand::Sysctl { .. }
            | NnfCommand::IptablesPolicy { .. }
            | NnfCommand::XfrmState(_)
            | NnfCommand::XfrmPolicy(_)
            | NnfCommand::Bridge { .. } => {}
        }
    }
    Ok(())
}

/// The interface at NF port index `i`.
fn port(ports: &[IfaceId], i: usize) -> Result<IfaceId, NnfError> {
    ports.get(i).copied().ok_or(NnfError::NotEnoughPorts {
        need: i + 1,
        have: ports.len(),
    })
}

/// `rule` matching the interfaces at `in_port` and `out_port`.
fn bound(
    rule: &NfRule,
    in_port: Option<usize>,
    out_port: Option<usize>,
    ports: &[IfaceId],
) -> Result<NfRule, NnfError> {
    let mut rule = rule.clone();
    rule.matches.in_iface = in_port.map(|i| port(ports, i)).transpose()?;
    rule.matches.out_iface = out_port.map(|i| port(ports, i)).transpose()?;
    Ok(rule)
}

/// Run one command, pushing the sub-interface it makes onto `ports`.
fn run(
    ctx: &mut NnfContext<'_>,
    ports: &mut Vec<IfaceId>,
    cmd: &NnfCommand,
) -> Result<(), NnfError> {
    match cmd {
        NnfCommand::IpAddr { cidr, dev_port } => {
            ctx.host.addr_add(port(ports, *dev_port)?, *cidr)?
        }
        NnfCommand::LinkUp { dev_port } => ctx.host.set_up(port(ports, *dev_port)?, true)?,
        NnfCommand::IpRoute {
            table,
            dst,
            via,
            dev_port,
            metric,
        } => {
            let dev = port(ports, *dev_port)?;
            ctx.host
                .route_add(ctx.ns, *table, *dst, *via, dev, *metric)?;
        }
        NnfCommand::Sysctl { ip_forward } => ctx.host.sysctl_ip_forward(ctx.ns, *ip_forward)?,
        NnfCommand::IptablesPolicy {
            table,
            chain,
            accept,
        } => ctx.host.nf_policy(ctx.ns, *table, *chain, *accept)?,
        NnfCommand::IptablesAppend {
            table,
            chain,
            rule,
            in_port,
            out_port,
        } => {
            let rule = bound(rule, *in_port, *out_port, ports)?;
            ctx.host.nf_append(ctx.ns, *table, *chain, rule)?;
        }
        NnfCommand::XfrmState(sa) => ctx.host.xfrm_mut(ctx.ns)?.sad.install(sa.clone()),
        NnfCommand::XfrmPolicy(policy) => ctx.host.xfrm_mut(ctx.ns)?.spd.install(policy.clone()),
        NnfCommand::Bridge { members } => {
            let br = ctx.host.add_bridge(ctx.ns, BRIDGE)?;
            for &i in members {
                let dev = port(ports, i)?;
                ctx.host.bridge_attach(br, dev)?;
                ctx.host.set_up(dev, true)?;
            }
            ctx.host.set_up(br, true)?;
        }
        NnfCommand::VlanSub {
            parent_port,
            vid,
            name,
        } => {
            let parent = port(ports, *parent_port)?;
            ports.push(ctx.host.add_vlan_sub(parent, *vid, name)?);
        }
        NnfCommand::CtZone { dev_port, zone } => {
            ctx.host.set_ct_zone(port(ports, *dev_port)?, *zone)?
        }
        NnfCommand::IpRule(rule) => ctx.host.rule_add(ctx.ns, rule.clone())?,
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    //! Each NNF's namespace, pinned against the host calls the plugins
    //! made by hand before `start` became one command list: an instance
    //! starts on a fresh namespace, its twin runs the reference script,
    //! and the two namespaces must agree on everything an NNF can
    //! configure.

    use std::collections::{BTreeMap, BTreeSet};
    use std::fmt::Write;
    use std::net::Ipv4Addr;

    use un_ipsec::sa::SecurityAssociation;
    use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
    use un_linux::conntrack::CtState;
    use un_linux::netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
    use un_linux::route::IpRule;
    use un_linux::{Host, IfaceId, IfaceKind, NsId, MAIN_TABLE};
    use un_nffg::NfConfig;
    use un_packet::mutate::{mutants, refilled, Mutation};
    use un_packet::{Ipv4Cidr, MacAddr, Packet, PacketBuilder};
    use un_sim::{CostModel, MemLedger};

    use crate::plugin::{described, GraphBinding, NnfContext, NnfError, NnfInstance};
    use crate::translate::{compiled, derive_psk_tunnel, NatBinding, PortForward};

    /// A namespace with `n` external ports, as the driver hands it over.
    fn fresh(n: usize) -> (Host, NsId, Vec<IfaceId>) {
        let mut host = Host::new("cpe", CostModel::default());
        let ns = host.add_namespace("nnf");
        let ports = (0..n)
            .map(|i| host.add_external(ns, &format!("port{i}"), i as u64 + 1))
            .collect::<Result<_, _>>()
            .unwrap();
        (host, ns, ports)
    }

    /// Everything a plugin configures in a namespace: each interface's
    /// addresses, up flag and conntrack zone, each bridge's members, the
    /// routing tables and rules, every netfilter chain with its policy
    /// and rule order, the SAD/SPD and `ip_forward`.
    pub(crate) fn snapshot(host: &Host, ns: NsId) -> String {
        let nsr = host.namespace(ns).unwrap();
        let mut out = String::new();
        for id in &nsr.ifaces {
            let iface = host.iface(*id).unwrap();
            let (name, addrs, up, zone) = (&iface.name, &iface.addrs, iface.up, iface.ct_zone);
            writeln!(out, "{name} {addrs:?} up={up} zone={zone}").unwrap();
            if let IfaceKind::Bridge { members, .. } = &iface.kind {
                let names: Vec<&str> = members
                    .iter()
                    .map(|m| host.iface(*m).unwrap().name.as_str())
                    .collect();
                writeln!(out, "{} members {names:?}", iface.name).unwrap();
            }
        }
        writeln!(out, "{:?}", nsr.routing).unwrap();
        for table in [NfTable::Mangle, NfTable::Nat, NfTable::Filter] {
            for chain in [
                Chain::Prerouting,
                Chain::Input,
                Chain::Forward,
                Chain::Output,
                Chain::Postrouting,
            ] {
                let accept = nsr.netfilter.policy_accept(table, chain);
                let rules = nsr.netfilter.rules(table, chain);
                writeln!(out, "{table:?}/{chain:?} accept={accept} {rules:?}").unwrap();
            }
        }
        let mut sad: Vec<String> = nsr.xfrm.sad.iter().map(|sa| format!("{sa:?}")).collect();
        sad.sort();
        writeln!(
            out,
            "{sad:?}\n{:?}\nip_forward={}",
            nsr.xfrm.spd, nsr.ip_forward
        )
        .unwrap();
        out
    }

    fn nnf(functional_type: &'static str) -> NnfInstance {
        NnfInstance::new(&described(functional_type), false).unwrap()
    }

    fn shared_nat() -> NnfInstance {
        NnfInstance::new(&described("nat"), true).unwrap()
    }

    /// Start `plugin` on `ports` with what `config` compiles to on that
    /// many ports; a shared instance runs its attachment program, and its
    /// config is its tenants'.
    fn start(
        plugin: &mut NnfInstance,
        host: &mut Host,
        ns: NsId,
        ports: &[IfaceId],
        config: &NfConfig,
    ) -> Result<(), NnfError> {
        let program = match plugin.is_shared() {
            true => Vec::new(),
            false => {
                let n_ports = ports.len() as u32;
                let compiled = compiled(plugin.descriptor().functional_type, config, n_ports);
                compiled.expect("a type with a program")?.commands.to_vec()
            }
        };
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut ctx = NnfContext {
            host,
            ns,
            ledger: &mut ledger,
            account,
        };
        plugin.start(&mut ctx, ports, &program)
    }

    /// `plugin` started with `config` on `n` ports leaves the namespace
    /// `script` builds on a twin.
    fn pin(
        mut plugin: NnfInstance,
        config: &NfConfig,
        n: usize,
        script: impl FnOnce(&mut Host, NsId, &[IfaceId]) -> Result<(), un_linux::HostError>,
    ) {
        let (mut host, ns, ports) = fresh(n);
        start(&mut plugin, &mut host, ns, &ports, config).unwrap();
        let (mut twin, twin_ns, twin_ports) = fresh(n);
        script(&mut twin, twin_ns, &twin_ports).unwrap();
        assert_eq!(snapshot(&host, ns), snapshot(&twin, twin_ns));
    }

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn rule(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
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

    #[test]
    fn ipsec_namespace_is_pinned() {
        pin(nnf("ipsec"), &ipsec_config(), 2, |h, ns, p| {
            h.addr_add(p[0], cidr("192.168.1.1/24"))?;
            h.addr_add(p[1], cidr("192.0.2.1/24"))?;
            h.set_up(p[0], true)?;
            h.set_up(p[1], true)?;
            let remote = cidr("172.16.0.0/16");
            h.route_add(ns, MAIN_TABLE, remote, Some(ip("192.0.2.2")), p[1], 0)?;
            h.sysctl_ip_forward(ns, true)?;
            let (local, peer) = (ip("192.0.2.1"), ip("192.0.2.2"));
            let (ko, so, ki, si, spi_out, spi_in) = derive_psk_tunnel(b"hunter2", true);
            let xfrm = h.xfrm_mut(ns)?;
            let sa_out = SecurityAssociation::outbound(spi_out, local, peer, ko, so);
            xfrm.sad.install(sa_out);
            let sa_in = SecurityAssociation::inbound(spi_in, peer, local, ki, si);
            xfrm.sad.install(sa_in);
            xfrm.spd.install(SecurityPolicy {
                selector: TrafficSelector::between(cidr("192.168.1.0/24"), remote),
                direction: PolicyDirection::Out,
                action: PolicyAction::Protect(spi_out),
                priority: 10,
            });
            Ok(())
        });
    }

    #[test]
    fn firewall_namespace_is_pinned() {
        let mut config = NfConfig::default()
            .with_param("addr0", "192.168.1.1/24")
            .with_param("addr1", "10.0.0.1/24")
            .with_param("gw", "10.0.0.254")
            .with_param("policy", "drop");
        let dns = [("proto", "udp"), ("dport", "53"), ("src", "192.168.1.0/24")];
        config.rules.push(rule(&dns));
        let telnet = [("action", "drop"), ("proto", "tcp"), ("dport", "23")];
        config.rules.push(rule(&telnet));
        pin(nnf("firewall"), &config, 2, |h, ns, p| {
            h.addr_add(p[0], cidr("192.168.1.1/24"))?;
            h.set_up(p[0], true)?;
            h.addr_add(p[1], cidr("10.0.0.1/24"))?;
            h.set_up(p[1], true)?;
            let default = cidr("0.0.0.0/0");
            h.route_add(ns, MAIN_TABLE, default, Some(ip("10.0.0.254")), p[1], 0)?;
            h.sysctl_ip_forward(ns, true)?;
            h.nf_policy(ns, NfTable::Filter, Chain::Forward, false)?;
            let forward = |h: &mut Host, m: RuleMatch, t: Target| {
                h.nf_append(ns, NfTable::Filter, Chain::Forward, NfRule::new(m, t))
            };
            let established = RuleMatch {
                ct_state: Some(CtState::Established),
                ..Default::default()
            };
            forward(h, established, Target::Accept)?;
            let dns = RuleMatch {
                src: Some(cidr("192.168.1.0/24")),
                proto: Some(17),
                dport: Some(53),
                ..Default::default()
            };
            forward(h, dns, Target::Accept)?;
            let telnet = RuleMatch {
                proto: Some(6),
                dport: Some(23),
                ..Default::default()
            };
            forward(h, telnet, Target::Drop)
        });
    }

    #[test]
    fn dedicated_nat_namespace_is_pinned() {
        let mut config = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24")
            .with_param("wan-gw", "203.0.113.254");
        let web = [
            ("kind", "dnat"),
            ("dport", "8080"),
            ("to", "192.168.1.20"),
            ("to-port", "80"),
        ];
        config.rules.push(rule(&web));
        pin(nnf("nat"), &config, 2, |h, ns, p| {
            h.addr_add(p[0], cidr("192.168.1.1/24"))?;
            h.addr_add(p[1], cidr("203.0.113.1/24"))?;
            h.set_up(p[0], true)?;
            h.set_up(p[1], true)?;
            let default = cidr("0.0.0.0/0");
            h.route_add(ns, MAIN_TABLE, default, Some(ip("203.0.113.254")), p[1], 0)?;
            h.sysctl_ip_forward(ns, true)?;
            let wan = RuleMatch {
                out_iface: Some(p[1]),
                ..Default::default()
            };
            let masquerade = NfRule::new(wan, Target::Masquerade);
            h.nf_append(ns, NfTable::Nat, Chain::Postrouting, masquerade)?;
            let web = RuleMatch {
                in_iface: Some(p[1]),
                dport: Some(8080),
                ..Default::default()
            };
            let to = Target::Dnat {
                to: ip("192.168.1.20"),
                port: Some(80),
            };
            h.nf_append(ns, NfTable::Nat, Chain::Prerouting, NfRule::new(web, to))?;
            forward_filter(h, ns, [p[0], p[1]], &[(ip("192.168.1.20"), 80)])
        });
    }

    /// The FORWARD rules of a NAT between `lan` and `wan` whose port
    /// forwards translate to `forwards`: LAN out to WAN, replies back in,
    /// each forward's DNAT'd connection to its target in, and a drop for
    /// whatever else enters either side.
    fn forward_filter(
        h: &mut Host,
        ns: NsId,
        [lan, wan]: [IfaceId; 2],
        forwards: &[(Ipv4Addr, u16)],
    ) -> Result<(), un_linux::HostError> {
        let mut rules = Vec::new();
        let between = |in_iface, out_iface| RuleMatch {
            in_iface: Some(in_iface),
            out_iface,
            ..Default::default()
        };
        rules.push(NfRule::new(between(lan, Some(wan)), Target::Accept));
        let reply = RuleMatch {
            ct_state: Some(CtState::Established),
            ..between(wan, Some(lan))
        };
        rules.push(NfRule::new(reply, Target::Accept));
        for &(to, port) in forwards {
            let translated = RuleMatch {
                dst: Some(Ipv4Cidr::new(to, 32)),
                dport: Some(port),
                ct_dnat: true,
                ..between(wan, Some(lan))
            };
            rules.push(NfRule::new(translated, Target::Accept));
        }
        for side in [lan, wan] {
            rules.push(NfRule::new(between(side, None), Target::Drop));
        }
        for rule in rules {
            h.nf_append(ns, NfTable::Filter, Chain::Forward, rule)?;
        }
        Ok(())
    }

    #[test]
    fn shared_nat_namespace_is_pinned() {
        pin(shared_nat(), &NfConfig::default(), 1, |h, ns, p| {
            h.set_up(p[0], true)?;
            h.sysctl_ip_forward(ns, true)?;
            h.nf_policy(ns, NfTable::Filter, Chain::Forward, false)
        });
    }

    /// A binding of `mark` whose NAT faces the LAN `192.168.1.1/24` and
    /// the WAN `wan`, with next hop `gw` and port forwards `dnat`.
    fn nat_binding(mark: u32, wan: &str, gw: Option<&str>, dnat: Vec<PortForward>) -> GraphBinding {
        let addressing = NatBinding {
            lan: cidr("192.168.1.1/24"),
            wan: cidr(wan),
            gw: gw.map(ip),
            dnat,
        };
        GraphBinding {
            graph: format!("g{mark}"),
            mark,
            zone: mark as u16,
            vid_lan: (100 + 2 * mark) as u16,
            vid_wan: (101 + 2 * mark) as u16,
            nat: Some(addressing),
        }
    }

    /// Two bindings on a started shared NAT — one with `wan-gw` and two
    /// port forwards, one without a next hop — leave the namespace that
    /// the adaptation layer's hand-written host calls built, binding by
    /// binding: marked sub-interfaces, zones, marking rules and `ip
    /// rule`, then addresses, private table, masquerade rule and port
    /// forwards.
    #[test]
    fn shared_nat_binding_namespace_is_pinned() {
        let forwards = vec![
            PortForward {
                dport: 8080,
                to: ip("192.168.1.20"),
                port: Some(80),
            },
            PortForward {
                dport: 2222,
                to: ip("192.168.1.21"),
                port: None,
            },
        ];
        let bindings = [
            nat_binding(1, "203.0.113.1/24", Some("203.0.113.254"), forwards),
            nat_binding(2, "198.51.100.1/24", None, Vec::new()),
        ];
        let (mut host, ns, ports) = fresh(1);
        let mut nat = shared_nat();
        start(&mut nat, &mut host, ns, &ports, &NfConfig::default()).unwrap();
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        for binding in &bindings {
            nat.bind_graph(&mut ctx, binding).unwrap();
        }

        let (mut twin, twin_ns, twin_ports) = fresh(1);
        let script = |h: &mut Host, ns: NsId, parent: IfaceId| {
            h.set_up(parent, true)?;
            h.sysctl_ip_forward(ns, true)?;
            h.nf_policy(ns, NfTable::Filter, Chain::Forward, false)?;
            for b in &bindings {
                let nat = b.nat.as_ref().unwrap();
                let lan = h.add_vlan_sub(parent, b.vid_lan, &format!("m{}-lan", b.mark))?;
                let wan = h.add_vlan_sub(parent, b.vid_wan, &format!("m{}-wan", b.mark))?;
                h.set_up(lan, true)?;
                h.set_up(wan, true)?;
                h.set_ct_zone(lan, b.zone)?;
                h.set_ct_zone(wan, b.zone)?;
                for sub in [lan, wan] {
                    let arrived = RuleMatch {
                        in_iface: Some(sub),
                        ..Default::default()
                    };
                    let mark = NfRule::new(arrived, Target::SetMark(b.mark));
                    h.nf_append(ns, NfTable::Mangle, Chain::Prerouting, mark)?;
                }
                let table = 100 + b.mark;
                let rule = IpRule {
                    priority: 100 + b.mark,
                    fwmark: Some(b.mark),
                    table,
                };
                h.rule_add(ns, rule)?;
                h.addr_add(lan, nat.lan)?;
                h.addr_add(wan, nat.wan)?;
                h.route_add(ns, table, cidr("192.168.1.0/24"), None, lan, 0)?;
                h.route_add(ns, table, cidr("0.0.0.0/0"), nat.gw, wan, 0)?;
                let leaving = RuleMatch {
                    out_iface: Some(wan),
                    fwmark: Some(b.mark),
                    ..Default::default()
                };
                let masquerade = NfRule::new(leaving, Target::Masquerade);
                h.nf_append(ns, NfTable::Nat, Chain::Postrouting, masquerade)?;
                for f in &nat.dnat {
                    let arrived = RuleMatch {
                        in_iface: Some(wan),
                        dport: Some(f.dport),
                        ..Default::default()
                    };
                    let to = Target::Dnat {
                        to: f.to,
                        port: f.port,
                    };
                    let forward = NfRule::new(arrived, to);
                    h.nf_append(ns, NfTable::Nat, Chain::Prerouting, forward)?;
                }
                let forwards: Vec<(Ipv4Addr, u16)> = nat
                    .dnat
                    .iter()
                    .map(|f| (f.to, f.port.unwrap_or(f.dport)))
                    .collect();
                forward_filter(h, ns, [lan, wan], &forwards)?;
            }
            Ok::<_, un_linux::HostError>(())
        };
        script(&mut twin, twin_ns, twin_ports[0]).unwrap();
        assert_eq!(snapshot(&host, ns), snapshot(&twin, twin_ns));
    }

    /// Random bind / unbind sequences over one shared NAT, some bindings
    /// of one graph: after every operation the instance's bindings are
    /// the model's, in order, and a binding it does not hold is refused
    /// without a trace. Whenever the last binding has left, the namespace
    /// is the one the instance started with — each binding's addresses
    /// and connected routes, table and rule, marking and masquerade rules
    /// and port forwards are gone.
    #[test]
    fn bind_unbind_churn_leaves_the_started_namespace() {
        let mut rng = un_sim::DetRng::new(31);
        for case in 0..64 {
            let (mut host, ns, ports) = fresh(1);
            let mut ledger = MemLedger::new();
            let account = ledger.create_account("nnf", None);
            let mut ctx = NnfContext {
                host: &mut host,
                ns,
                ledger: &mut ledger,
                account,
            };
            let mut nat = shared_nat();
            nat.start(&mut ctx, &ports, &[]).unwrap();
            let started = snapshot(ctx.host, ns);
            let mut model: Vec<GraphBinding> = Vec::new();
            for step in 0..48u32 {
                let tag = format!("case {case} step {step}");
                // The second half drains what the first half bound.
                if step < 24 && (model.is_empty() || rng.chance(0.6)) {
                    let mark = step + 1;
                    let gw = rng.chance(0.5).then(|| ip(&format!("203.0.{mark}.254")));
                    let dnat = (0..rng.index(3))
                        .map(|i| PortForward {
                            dport: 8080 + i as u16,
                            to: ip(&format!("192.168.1.{}", 20 + i)),
                            port: rng.chance(0.5).then_some(80),
                        })
                        .collect();
                    let addressing = NatBinding {
                        lan: cidr("192.168.1.1/24"),
                        wan: cidr(&format!("203.0.{mark}.1/24")),
                        gw,
                        dnat,
                    };
                    let binding = GraphBinding {
                        graph: format!("g{}", rng.index(3)),
                        mark,
                        zone: mark as u16,
                        vid_lan: (100 + 2 * mark) as u16,
                        vid_wan: (101 + 2 * mark) as u16,
                        nat: Some(addressing),
                    };
                    nat.bind_graph(&mut ctx, &binding).expect(&tag);
                    model.push(binding);
                } else if !model.is_empty() {
                    let binding = model.remove(rng.index(model.len()));
                    nat.unbind_graph(&mut ctx, &binding).expect(&tag);
                    let before = snapshot(ctx.host, ns);
                    assert!(
                        matches!(
                            nat.unbind_graph(&mut ctx, &binding),
                            Err(NnfError::BadState(_))
                        ),
                        "{tag}"
                    );
                    assert_eq!(snapshot(ctx.host, ns), before, "{tag}");
                }
                assert!(nat.bindings().eq(&model), "{tag}");
                if model.is_empty() {
                    assert_eq!(snapshot(ctx.host, ns), started, "{tag}");
                }
            }
        }
    }

    /// A side of a NAT.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Side {
        Lan,
        Wan,
    }

    /// One UDP or TCP frame's addresses and ports, and the side it
    /// arrives on.
    #[derive(Debug, Clone, Copy)]
    struct Flow {
        side: Side,
        tcp: bool,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
    }

    impl Flow {
        /// The reply to the IPv4 packet `ip`, which left on `side`.
        fn reply(side: Side, ip: &[u8]) -> Self {
            let at = |i: usize| Ipv4Addr::new(ip[i], ip[i + 1], ip[i + 2], ip[i + 3]);
            let l4 = usize::from(ip[0] & 0x0f) * 4;
            let port = |i: usize| u16::from_be_bytes([ip[l4 + i], ip[l4 + i + 1]]);
            Flow {
                side,
                tcp: ip[9] == 6,
                src: at(16),
                dst: at(12),
                sport: port(2),
                dport: port(0),
            }
        }

        /// The frame, to `mac`, tagged `vid` if given.
        fn frame(&self, mac: MacAddr, vid: Option<u16>) -> Packet {
            let mut b = PacketBuilder::new().ethernet(MacAddr::local(50), mac);
            if let Some(vid) = vid {
                b = b.vlan(vid);
            }
            b = b.ipv4(self.src, self.dst);
            b = match self.tcp {
                true => b.tcp_data(self.sport, self.dport, 1, 1),
                false => b.udp(self.sport, self.dport),
            };
            b.payload(b"nat").build()
        }
    }

    /// A frame's bytes from its IPv4 header on, its VLAN tag popped.
    fn ipv4_bytes(mut frame: Packet) -> Vec<u8> {
        if frame.vlan_id().is_some() {
            frame.vlan_pop().unwrap();
        }
        frame.ethernet().unwrap().payload().to_vec()
    }

    /// One NAT program serves both modes: a dedicated NAT and a shared
    /// NAT holding the same config as its only binding emit the same
    /// IPv4 bytes on the same side, VLAN tags and MACs aside. Each case
    /// is a random config, about half of them without `wan-gw`, with 0–2
    /// port forwards, and a run of UDP and TCP frames from either side:
    /// replies to what left, unsolicited frames, frames to forwarded and
    /// unforwarded ports, to the NAT's own addresses and to an
    /// off-subnet host, which both modes route out the WAN side, via the
    /// gateway or on-link.
    #[test]
    fn a_dedicated_and_a_shared_nat_translate_alike() {
        let inside = ["192.168.1.5", "192.168.1.20", "192.168.1.21"].map(ip);
        let outside = ["203.0.113.9", "198.51.100.7", "8.8.8.8"].map(ip);
        let own = ["192.168.1.1", "203.0.113.1"].map(ip);
        let anyone = [&inside[..], &outside, &own].concat();
        let neighbours = [&inside[..], &outside, &[ip("203.0.113.254")]].concat();
        let mut rng = un_sim::DetRng::new(44);
        let mut left = [0usize; 2];
        for case in 0..64 {
            let mut config = NfConfig::default()
                .with_param("lan-addr", "192.168.1.1/24")
                .with_param("wan-addr", "203.0.113.1/24");
            if rng.chance(0.5) {
                config = config.with_param("wan-gw", "203.0.113.254");
            }
            for i in 0..rng.index(3) {
                let (dport, to) = (format!("{}", 8080 + i), format!("192.168.1.{}", 20 + i));
                let mut forward = rule(&[("kind", "dnat"), ("dport", &dport), ("to", &to)]);
                if rng.chance(0.5) {
                    forward.insert("to-port".into(), "80".into());
                }
                config.rules.push(forward);
            }
            let (mut dedicated, d_ns, d_ports) = fresh(2);
            start(&mut nnf("nat"), &mut dedicated, d_ns, &d_ports, &config).unwrap();
            let (mut shared, s_ns, s_ports) = fresh(1);
            let mut nat = shared_nat();
            start(&mut nat, &mut shared, s_ns, &s_ports, &NfConfig::default()).unwrap();
            let compiled = compiled("nat", &config, 2).unwrap().unwrap();
            let binding = GraphBinding {
                nat: compiled.nat,
                ..nat_binding(1, "203.0.113.1/24", None, Vec::new())
            };
            let mut ledger = MemLedger::new();
            let account = ledger.create_account("nnf", None);
            let mut ctx = NnfContext {
                host: &mut shared,
                ns: s_ns,
                ledger: &mut ledger,
                account,
            };
            nat.bind_graph(&mut ctx, &binding).unwrap();
            for (i, &addr) in neighbours.iter().enumerate() {
                let mac = MacAddr::local(100 + i as u32);
                dedicated.neigh_add(d_ns, addr, mac).unwrap();
                shared.neigh_add(s_ns, addr, mac).unwrap();
            }
            let shared_mac = shared.iface(s_ports[0]).unwrap().mac;

            let mut sent: Vec<(Side, Vec<u8>)> = Vec::new();
            for step in 0..24 {
                let tag = format!("case {case} step {step}");
                let pick =
                    |rng: &mut un_sim::DetRng, from: &[Ipv4Addr]| from[rng.index(from.len())];
                let flow = if !sent.is_empty() && rng.chance(0.3) {
                    let (side, ip) = &sent[rng.index(sent.len())];
                    Flow::reply(*side, ip)
                } else {
                    let (side, hosts) =
                        [(Side::Lan, &inside[..]), (Side::Wan, &outside[..])][rng.index(2)];
                    let dports = [53, 80, 8080, 8081, 9999];
                    Flow {
                        side,
                        tcp: rng.chance(0.5),
                        src: pick(&mut rng, hosts),
                        dst: pick(&mut rng, &anyone),
                        sport: [5000, 5001, 40000][rng.index(3)],
                        dport: dports[rng.index(dports.len())],
                    }
                };
                let port = d_ports[flow.side as usize];
                let mac = dedicated.iface(port).unwrap().mac;
                let by_port = |(tag, frame): (u64, Packet)| {
                    let side = if tag == 1 { Side::Lan } else { Side::Wan };
                    (side, ipv4_bytes(frame))
                };
                let out = dedicated.inject(port, flow.frame(mac, None)).emitted;
                let out: Vec<_> = out.into_iter().map(by_port).collect();
                let vid = [binding.vid_lan, binding.vid_wan][flow.side as usize];
                let by_vid = |(_, frame): (u64, Packet)| {
                    let side = match frame.vlan_id() {
                        Some(vid) if vid == binding.vid_lan => Side::Lan,
                        Some(vid) if vid == binding.vid_wan => Side::Wan,
                        other => panic!("left on VLAN {other:?}"),
                    };
                    (side, ipv4_bytes(frame))
                };
                let frame = flow.frame(shared_mac, Some(vid));
                let shared_out = shared.inject(s_ports[0], frame).emitted;
                let shared_out: Vec<_> = shared_out.into_iter().map(by_vid).collect();
                assert_eq!(out, shared_out, "{tag}: {flow:?}");
                for (side, _) in &out {
                    left[*side as usize] += 1;
                }
                sent.extend(out);
            }
        }
        assert!(
            left.iter().all(|&n| n > 100),
            "frames left each side: {left:?}"
        );
    }

    /// `(protocol, source, source port, destination, destination port)`.
    type Tuple = (u8, Ipv4Addr, u16, Ipv4Addr, u16);

    /// The tuple of the IPv4 packet `ip`, read where a host reads it,
    /// if `ip` is long enough to carry one.
    fn tuple(ip: &[u8]) -> Option<Tuple> {
        let l4 = usize::from(ip.first()? & 0x0f) * 4;
        if ip.len() < (l4 + 4).max(20) {
            return None;
        }
        let at = |i: usize| Ipv4Addr::new(ip[i], ip[i + 1], ip[i + 2], ip[i + 3]);
        let port = |i: usize| u16::from_be_bytes([ip[l4 + i], ip[l4 + i + 1]]);
        Some((ip[9], at(12), port(0), at(16), port(2)))
    }

    /// A NAT under test: a dedicated one (one binding, its two ports) or
    /// a shared one (each binding a VLAN pair on the attachment port).
    struct NatUnderTest {
        host: Host,
        ports: Vec<IfaceId>,
        /// Per binding, `[LAN, WAN]` VIDs; `None` for a dedicated NAT.
        vids: Option<Vec<[u16; 2]>>,
    }

    impl NatUnderTest {
        /// Send `frame`, untagged, into `side` of `binding`; what leaves,
        /// as `(binding, side, IPv4 bytes)`. `None` when the frame cannot
        /// carry a tag.
        fn send(
            &mut self,
            binding: usize,
            side: Side,
            mut frame: Packet,
        ) -> Option<Vec<(usize, Side, Vec<u8>)>> {
            let Some(vids) = &self.vids else {
                let out = self.host.inject(self.ports[side as usize], frame).emitted;
                let by_port = |(tag, frame): (u64, Packet)| {
                    let side = if tag == 1 { Side::Lan } else { Side::Wan };
                    (0, side, ipv4_bytes(frame))
                };
                return Some(out.into_iter().map(by_port).collect());
            };
            frame.vlan_push(vids[binding][side as usize]).ok()?;
            let out = self.host.inject(self.ports[0], frame).emitted;
            let by_vid = |(_, frame): (u64, Packet)| {
                let vid = frame.vlan_id().expect("a binding's frame leaves tagged");
                let (binding, pair) = (vids.iter().enumerate())
                    .find(|(_, pair)| pair.contains(&vid))
                    .unwrap_or_else(|| panic!("left on VLAN {vid}, no binding's"));
                let side = if pair[0] == vid { Side::Lan } else { Side::Wan };
                (binding, side, ipv4_bytes(frame))
            };
            Some(out.into_iter().map(by_vid).collect())
        }
    }

    /// Unsolicited WAN traffic a NAT drops leaves no connection behind:
    /// 1000 new flows from outside, to LAN hosts and off-net, each
    /// dropped by FORWARD, leave the dedicated NAT's conntrack table —
    /// confirmed and unconfirmed entries alike — and its reserved NAT
    /// ports as they were.
    #[test]
    fn a_dropped_flow_leaves_no_connection_behind() {
        let config = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24")
            .with_param("wan-gw", "203.0.113.254");
        let (mut host, ns, ports) = fresh(2);
        start(&mut nnf("nat"), &mut host, ns, &ports, &config).unwrap();
        for (i, addr) in ["192.168.1.5", "203.0.113.254"].into_iter().enumerate() {
            host.neigh_add(ns, ip(addr), MacAddr::local(100 + i as u32))
                .unwrap();
        }
        let flow = |side, tcp, src: &str, dst: &str, sport, dport| Flow {
            side,
            tcp,
            src: ip(src),
            dst: ip(dst),
            sport,
            dport,
        };
        let table = |h: &Host| {
            let ct = &h.namespace(ns).unwrap().conntrack;
            (ct.tracked(), ct.len(), ct.nat_ports())
        };
        // One LAN flow out: a confirmed connection and a reserved port.
        let lan_mac = host.iface(ports[0]).unwrap().mac;
        let out = flow(Side::Lan, false, "192.168.1.5", "8.8.8.8", 5000, 53);
        let out = host.inject(ports[0], out.frame(lan_mac, None)).emitted;
        assert_eq!(out.len(), 1);
        let before = table(&host);
        assert_eq!(before, (1, 1, 1));
        let wan_mac = host.iface(ports[1]).unwrap().mac;
        for i in 0..1000u16 {
            let dst = ["192.168.1.5", "192.168.1.77", "10.9.9.9"][usize::from(i % 3)];
            let unsolicited = flow(Side::Wan, i % 2 == 0, "198.51.100.7", dst, 1024 + i, 80);
            let out = host.inject(ports[1], unsolicited.frame(wan_mac, None));
            assert!(out.emitted.is_empty(), "frame {i} to {dst} left");
        }
        assert_eq!(table(&host), before);
    }

    /// Untagged frames on a shared NAT's attachment port belong to no
    /// binding, so they leave nowhere: not to a tenant's LAN host, not to
    /// either tenant's WAN side, past no binding's FORWARD rules or
    /// masquerade.
    #[test]
    fn an_untagged_frame_on_a_shared_nat_leaves_nowhere() {
        let (mut host, ns, ports) = fresh(1);
        let mut nat = shared_nat();
        start(&mut nat, &mut host, ns, &ports, &NfConfig::default()).unwrap();
        let bindings = [
            nat_binding(1, "203.0.113.1/24", Some("203.0.113.254"), Vec::new()),
            nat_binding(2, "198.51.100.1/24", Some("198.51.100.254"), Vec::new()),
        ];
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut ctx = NnfContext {
            host: &mut host,
            ns,
            ledger: &mut ledger,
            account,
        };
        for binding in &bindings {
            nat.bind_graph(&mut ctx, binding).unwrap();
        }
        let neighbours = ["192.168.1.5", "203.0.113.9", "198.51.100.7"];
        for (i, addr) in neighbours.into_iter().enumerate() {
            host.neigh_add(ns, ip(addr), MacAddr::local(100 + i as u32))
                .unwrap();
        }
        let mac = host.iface(ports[0]).unwrap().mac;
        for dst in neighbours {
            for src in ["192.168.1.10", "8.8.8.8"] {
                let flow = Flow {
                    side: Side::Lan,
                    tcp: false,
                    src: ip(src),
                    dst: ip(dst),
                    sport: 4000,
                    dport: 53,
                };
                let out = host.inject(ports[0], flow.frame(mac, None)).emitted;
                assert!(out.is_empty(), "{src} → {dst} left untagged");
            }
        }
    }

    /// The same NAT twice, each knowing `neighbours`' MACs: a dedicated
    /// one between `192.168.1.1/24` and `203.0.113.1/24` with next hop
    /// `203.0.113.254` and the port forward `web`, and a shared one whose
    /// first binding is that NAT and whose second is another tenant's
    /// on `198.51.100.1/24` with no port forward.
    fn nats_forwarding(web: PortForward, neighbours: &[Ipv4Addr]) -> [NatUnderTest; 2] {
        let mut config = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24")
            .with_param("wan-gw", "203.0.113.254");
        let (dport, to) = (web.dport.to_string(), web.to.to_string());
        let mut dnat = rule(&[("kind", "dnat"), ("dport", &dport), ("to", &to)]);
        if let Some(port) = web.port {
            dnat.insert("to-port".into(), port.to_string());
        }
        config.rules.push(dnat);
        let (mut dedicated, d_ns, d_ports) = fresh(2);
        start(&mut nnf("nat"), &mut dedicated, d_ns, &d_ports, &config).unwrap();

        let (mut shared, s_ns, s_ports) = fresh(1);
        let mut nat = shared_nat();
        start(&mut nat, &mut shared, s_ns, &s_ports, &NfConfig::default()).unwrap();
        let bindings = [
            nat_binding(1, "203.0.113.1/24", Some("203.0.113.254"), vec![web]),
            nat_binding(2, "198.51.100.1/24", Some("198.51.100.254"), Vec::new()),
        ];
        let mut ledger = MemLedger::new();
        let account = ledger.create_account("nnf", None);
        let mut ctx = NnfContext {
            host: &mut shared,
            ns: s_ns,
            ledger: &mut ledger,
            account,
        };
        for binding in &bindings {
            nat.bind_graph(&mut ctx, binding).unwrap();
        }
        for (i, &addr) in neighbours.iter().enumerate() {
            let mac = MacAddr::local(100 + i as u32);
            dedicated.neigh_add(d_ns, addr, mac).unwrap();
            shared.neigh_add(s_ns, addr, mac).unwrap();
        }
        let vids = bindings.iter().map(|b| [b.vid_lan, b.vid_wan]).collect();
        [
            NatUnderTest {
                host: dedicated,
                ports: d_ports,
                vids: None,
            },
            NatUnderTest {
                host: shared,
                ports: s_ports,
                vids: Some(vids),
            },
        ]
    }

    /// A port forward admits only the connections it translated. From
    /// the WAN side of a dedicated NAT and of a shared NAT's binding, a
    /// frame to the forward's port on the WAN address reaches its target
    /// on the LAN side; the same frame sent straight to the target's
    /// address and port is dropped.
    #[test]
    fn a_port_forward_admits_only_its_translations() {
        let target = (ip("192.168.1.20"), 80);
        let web = PortForward {
            dport: 8080,
            to: target.0,
            port: Some(target.1),
        };
        let neighbours = [target.0, ip("203.0.113.9"), ip("203.0.113.254")];
        for (n, mut nat) in nats_forwarding(web, &neighbours).into_iter().enumerate() {
            let from_wan = |dst, dport| Flow {
                side: Side::Wan,
                tcp: true,
                src: ip("203.0.113.9"),
                dst,
                sport: 40000,
                dport,
            };
            let direct = from_wan(target.0, target.1).frame(MacAddr::BROADCAST, None);
            let out = nat.send(0, Side::Wan, direct).expect("an untagged frame");
            assert!(out.is_empty(), "NAT {n}: a frame to the target crossed");

            let forwarded = from_wan(ip("203.0.113.1"), web.dport);
            let frame = forwarded.frame(MacAddr::BROADCAST, None);
            let out = nat.send(0, Side::Wan, frame).expect("an untagged frame");
            let [(0, Side::Lan, ip)] = &out[..] else {
                panic!("NAT {n}: the forwarded frame left as {out:?}");
            };
            let (_, _, _, dst, dport) = tuple(ip).expect("a whole packet");
            assert_eq!((dst, dport), target, "NAT {n}");
        }
    }

    /// A NAT forwards only what it translates. Into both sides of a
    /// dedicated NAT and of a shared NAT with two bindings go random
    /// frames — flows from either side to anyone, the NATs' own
    /// addresses and forwarded ports included, replies to what left, and
    /// their mutants. Nothing leaves the port it entered; nothing from
    /// the WAN side reaches the LAN side unless it answers a flow the
    /// LAN side began or matches a port forward; and no binding's frame
    /// leaves another binding's sub-interface.
    #[test]
    fn a_nat_forwards_only_what_it_translates() {
        let inside = ["192.168.1.5", "192.168.1.20", "192.168.1.1"].map(ip);
        let gws = ["203.0.113.254", "198.51.100.254"].map(ip);
        let wans = ["203.0.113.1", "198.51.100.1"].map(ip);
        let outside = [
            ip("203.0.113.9"),
            ip("198.51.100.7"),
            ip("8.8.8.8"),
            wans[0],
            wans[1],
        ];
        let web = PortForward {
            dport: 8080,
            to: ip("192.168.1.20"),
            port: Some(80),
        };
        let neighbours = [&inside[..2], &outside[..3], &gws].concat();
        let nats = nats_forwarding(web, &neighbours);

        let mut rng = un_sim::DetRng::new(47);
        for (n, mut nat) in nats.into_iter().enumerate() {
            let served = nat.vids.as_ref().map_or(1, Vec::len);
            // Per binding, the tuples that answer what left on its WAN
            // side, and the IPv4 packets that left there.
            let mut answers: BTreeSet<(usize, Tuple)> = BTreeSet::new();
            let mut left_wan: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut crossed = [0usize; 2];
            for step in 0..768 {
                let tag = format!("NAT {n} step {step}");
                let pick =
                    |rng: &mut un_sim::DetRng, from: &[Ipv4Addr]| from[rng.index(from.len())];
                let (binding, flow) = if !left_wan.is_empty() && rng.chance(0.3) {
                    let (binding, ip) = &left_wan[rng.index(left_wan.len())];
                    (*binding, Flow::reply(Side::Wan, ip))
                } else {
                    let side = [Side::Lan, Side::Wan][rng.index(2)];
                    let hosts = if side == Side::Lan {
                        &inside[..2]
                    } else {
                        &outside[..3]
                    };
                    let anyone = [&inside[..], &outside].concat();
                    let flow = Flow {
                        side,
                        tcp: rng.chance(0.5),
                        src: pick(&mut rng, hosts),
                        dst: pick(&mut rng, &anyone),
                        sport: [5000, 40000][rng.index(2)],
                        dport: [53, 80, 8080][rng.index(3)],
                    };
                    (rng.index(served), flow)
                };
                let mut frame = flow.frame(MacAddr::BROADCAST, None);
                if rng.chance(0.3) {
                    let m = Mutation::draw(&mut rng);
                    frame = mutants(&frame, &m)[rng.index(5)].clone();
                    if rng.chance(0.5) {
                        frame = refilled(frame);
                    }
                }
                let sent = frame.data().get(14..).and_then(tuple);
                let Some(out) = nat.send(binding, flow.side, frame) else {
                    continue;
                };
                for (to, side, ip) in out {
                    assert_eq!(to, binding, "{tag}: left another binding's side");
                    assert_ne!(side, flow.side, "{tag}: left the side it entered");
                    crossed[flow.side as usize] += 1;
                    if flow.side == Side::Lan {
                        let (proto, src, sport, dst, dport) = tuple(&ip).expect("a whole packet");
                        answers.insert((binding, (proto, dst, dport, src, sport)));
                        left_wan.push((binding, ip));
                        continue;
                    }
                    // A port forward's traffic: its port arriving on the
                    // WAN side, whatever the address. A frame sent to its
                    // target's address and port is not translated, and
                    // FORWARD drops it.
                    let sent = sent.expect("what crossed has a tuple");
                    let forwarded = binding == 0 && sent.4 == web.dport;
                    assert!(
                        forwarded || answers.contains(&(binding, sent)),
                        "{tag}: {sent:?} reached the LAN side unasked"
                    );
                }
            }
            assert!(
                crossed.iter().all(|&c| c > 50),
                "NAT {n}: frames crossed LAN → WAN, WAN → LAN: {crossed:?}"
            );
        }
    }

    #[test]
    fn router_namespace_is_pinned() {
        let mut config = NfConfig::default()
            .with_param("addr0", "10.1.0.1/24")
            .with_param("addr2", "10.3.0.1/24");
        let r1 = [
            ("dst", "172.16.0.0/16"),
            ("via", "10.3.0.254"),
            ("port", "2"),
        ];
        config.rules.push(rule(&r1));
        config
            .rules
            .push(rule(&[("dst", "10.2.0.0/24"), ("port", "1")]));
        pin(nnf("router"), &config, 3, |h, ns, p| {
            h.addr_add(p[0], cidr("10.1.0.1/24"))?;
            h.set_up(p[0], true)?;
            h.set_up(p[1], true)?;
            h.addr_add(p[2], cidr("10.3.0.1/24"))?;
            h.set_up(p[2], true)?;
            h.sysctl_ip_forward(ns, true)?;
            let r1 = cidr("172.16.0.0/16");
            h.route_add(ns, MAIN_TABLE, r1, Some(ip("10.3.0.254")), p[2], 0)?;
            h.route_add(ns, MAIN_TABLE, cidr("10.2.0.0/24"), None, p[1], 0)
        });
    }

    #[test]
    fn bridge_namespace_is_pinned() {
        pin(nnf("bridge"), &NfConfig::default(), 3, |h, ns, p| {
            let br = h.add_bridge(ns, "br0")?;
            for port in p {
                h.bridge_attach(br, *port)?;
                h.set_up(*port, true)?;
            }
            h.set_up(br, true)
        });
    }

    /// A config is parsed whole before anything is built: one the
    /// compiler refuses is a typed error with no command list, so there
    /// is nothing a `start` could run. (`UniversalNode::deploy` and the
    /// domain's planner compile before their first node call.)
    #[test]
    fn a_start_refused_on_its_config_configures_nothing() {
        let mut no_psk = ipsec_config();
        no_psk.params.remove("psk");
        let mut reject = NfConfig::default().with_param("addr0", "192.168.1.1/24");
        reject.rules.push(rule(&[("action", "reject")]));
        let mut far_route = NfConfig::default().with_param("addr0", "10.1.0.1/24");
        far_route
            .rules
            .push(rule(&[("dst", "10.9.0.0/16"), ("port", "5")]));
        let bad_action = NnfError::BadParam {
            key: "rules[0].action".into(),
            value: "reject".into(),
        };
        let cases: [(NnfInstance, NfConfig, NnfError); 3] = [
            (nnf("ipsec"), no_psk, NnfError::MissingParam("psk")),
            (nnf("firewall"), reject, bad_action),
            (
                nnf("router"),
                far_route,
                NnfError::NotEnoughPorts { need: 6, have: 2 },
            ),
        ];
        for (plugin, config, refusal) in cases {
            let compiled = compiled(plugin.descriptor().functional_type, &config, 2);
            assert_eq!(compiled.unwrap().unwrap_err(), refusal);
        }
    }
}
