//! The shell every NNF's program runs in.

use un_linux::IfaceId;

use crate::plugin::{NnfContext, NnfError};
use crate::translate::NnfCommand;

/// The name of the bridge [`NnfCommand::Bridge`] creates.
pub(crate) const BRIDGE: &str = "br0";

/// Execute compiled commands against the NNF's namespace.
///
/// This is the plugin scripts' shared "shell": every [`NnfCommand`]
/// corresponds to the `ip`/`iptables`/`sysctl` invocation its doc names.
/// Port indices resolve to `ports`, the namespace's interfaces in NF
/// port order.
pub fn execute(
    ctx: &mut NnfContext<'_>,
    ports: &[IfaceId],
    cmds: &[NnfCommand],
) -> Result<(), NnfError> {
    let port = |i: usize| {
        ports.get(i).copied().ok_or(NnfError::NotEnoughPorts {
            need: i + 1,
            have: ports.len(),
        })
    };
    for cmd in cmds {
        match cmd {
            NnfCommand::IpAddr { cidr, dev_port } => ctx.host.addr_add(port(*dev_port)?, *cidr)?,
            NnfCommand::LinkUp { dev_port } => ctx.host.set_up(port(*dev_port)?, true)?,
            NnfCommand::IpRoute {
                table,
                dst,
                via,
                dev_port,
                metric,
            } => {
                let dev = port(*dev_port)?;
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
                out_port,
            } => {
                let mut rule = rule.clone();
                if let Some(i) = out_port {
                    rule.matches.out_iface = Some(port(*i)?);
                }
                ctx.host.nf_append(ctx.ns, *table, *chain, rule)?;
            }
            NnfCommand::XfrmState(sa) => ctx.host.xfrm_mut(ctx.ns)?.sad.install(sa.clone()),
            NnfCommand::XfrmPolicy(policy) => {
                ctx.host.xfrm_mut(ctx.ns)?.spd.install(policy.clone())
            }
            NnfCommand::Bridge { members } => {
                let br = ctx.host.add_bridge(ctx.ns, BRIDGE)?;
                for &i in members {
                    let dev = port(i)?;
                    ctx.host.bridge_attach(br, dev)?;
                    ctx.host.set_up(dev, true)?;
                }
                ctx.host.set_up(br, true)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Each NNF's namespace, pinned against the host calls the plugins
    //! made by hand before `start` became one command list: an instance
    //! starts on a fresh namespace, its twin runs the reference script,
    //! and the two namespaces must agree on everything an NNF can
    //! configure.

    use std::collections::BTreeMap;
    use std::fmt::Write;
    use std::net::Ipv4Addr;

    use un_ipsec::sa::SecurityAssociation;
    use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
    use un_linux::conntrack::CtState;
    use un_linux::netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
    use un_linux::{Host, IfaceId, IfaceKind, NsId, MAIN_TABLE};
    use un_nffg::NfConfig;
    use un_packet::Ipv4Cidr;
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
    /// addresses and up flag, each bridge's members, the routing tables
    /// and rules, every netfilter chain with its policy and rule order,
    /// the SAD/SPD and `ip_forward`.
    fn snapshot(host: &Host, ns: NsId) -> String {
        let nsr = host.namespace(ns).unwrap();
        let mut out = String::new();
        for id in &nsr.ifaces {
            let iface = host.iface(*id).unwrap();
            writeln!(out, "{} {:?} up={}", iface.name, iface.addrs, iface.up).unwrap();
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
                dport: Some(8080),
                ..Default::default()
            };
            let to = Target::Dnat {
                to: ip("192.168.1.20"),
                port: Some(80),
            };
            h.nf_append(ns, NfTable::Nat, Chain::Prerouting, NfRule::new(web, to))
        });
    }

    #[test]
    fn shared_nat_namespace_is_pinned() {
        pin(shared_nat(), &NfConfig::default(), 1, |h, ns, p| {
            h.set_up(p[0], true)?;
            h.sysctl_ip_forward(ns, true)
        });
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
