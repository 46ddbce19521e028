//! Generic-config → NNF-command translation (the paper's future work).
//!
//! "Support for a dynamic configuration mechanism able to translate a
//! generic NF configuration, provided by the orchestrator, in commands
//! appropriate to the specific NNF is not in the scope of this initial
//! implementation and will be targeted by future work." — §2.
//!
//! This module implements that mechanism, and it is the one reader of an
//! NF's [`NfConfig`]: nothing else parses a config key. [`compile`] runs
//! once per graph, before anything is built for it — in the domain's
//! planner, or at the top of a standalone node's deploy — and turns
//! every NF's NF-agnostic configuration into a [`CompiledNf`]: its
//! [`NnfCommand`]s, the typed equivalent of the shell commands a plugin
//! script would run (`ip addr add …`, `ip link add … type bridge`,
//! `ip route add …`, `iptables -A …`, `ip xfrm state add …`), in the
//! order the script runs them, and for a NAT the [`NatBinding`] it
//! parsed. Below the compiler only lists travel: a dedicated instance's
//! [`start`](crate::NnfInstance::start) is a guard,
//! [`execute`](crate::plugins::execute) of its list, and its RSS
//! booking; a shared one runs `SHARED_ATTACHMENT`, and each binding
//! riding it is [`binding_program`], the same NAT program a dedicated
//! NAT runs, written over the binding's own sub-interfaces, table and
//! mark. Every flavor is configured from here: native, Docker, VM and
//! DPDK instances run the same list in a namespace (a VM's is its guest
//! kernel), and every type the node lists has a program.
//!
//! Translation parses everything before it emits anything, and
//! compilation happens before the first node call, so a config refused
//! here has configured nothing anywhere.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::str::FromStr;

use un_crypto::{hkdf_expand, hkdf_extract};
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
use un_linux::conntrack::CtState;
use un_linux::netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
use un_linux::route::IpRule;
use un_linux::MAIN_TABLE;
use un_nffg::{NfConfig, NfFg};
use un_packet::Ipv4Cidr;

use crate::plugin::{GraphBinding, NnfError};

/// A typed NNF configuration command (what the bash scripts would run).
/// Ports are NF port indices; [`execute`](crate::plugins::execute)
/// resolves them to the namespace's interfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum NnfCommand {
    /// `ip addr add <cidr> dev <port idx>`
    IpAddr {
        /// Address with prefix.
        cidr: Ipv4Cidr,
        /// NF port index.
        dev_port: usize,
    },
    /// `ip link set <port idx> up`
    LinkUp {
        /// NF port index.
        dev_port: usize,
    },
    /// `ip route add <dst> via <via> dev <port idx> table <table>`
    IpRoute {
        /// Routing table id.
        table: u32,
        /// Destination prefix.
        dst: Ipv4Cidr,
        /// Gateway (None = on-link).
        via: Option<Ipv4Addr>,
        /// NF port index to use as device.
        dev_port: usize,
        /// Metric.
        metric: u32,
    },
    /// `sysctl net.ipv4.ip_forward=…`
    Sysctl {
        /// Enable forwarding.
        ip_forward: bool,
    },
    /// `iptables -t <table> -P <chain> <policy>`
    IptablesPolicy {
        /// Table.
        table: NfTable,
        /// Chain.
        chain: Chain,
        /// ACCEPT (true) or DROP (false).
        accept: bool,
    },
    /// `iptables -t <table> -A <chain> [-i <port idx>] [-o <port idx>] …`
    IptablesAppend {
        /// Table.
        table: NfTable,
        /// Chain.
        chain: Chain,
        /// The rule.
        rule: NfRule,
        /// NF port index the rule matches as its in-interface.
        in_port: Option<usize>,
        /// NF port index the rule matches as its out-interface.
        out_port: Option<usize>,
    },
    /// `ip xfrm state add …`
    XfrmState(SecurityAssociation),
    /// `ip xfrm policy add … dir out tmpl …`
    XfrmPolicy(SecurityPolicy),
    /// `ip link add br0 type bridge`, then `ip link set <port idx> master
    /// br0 up` per member, then `ip link set br0 up`.
    Bridge {
        /// NF port indices enslaved to the bridge, in order.
        members: Vec<usize>,
    },
    /// `ip link add link <port idx> name <name> type vlan id <vid>`; the
    /// sub-interface is the next port index.
    VlanSub {
        /// NF port index of the parent interface.
        parent_port: usize,
        /// 802.1Q VLAN id.
        vid: u16,
        /// Interface name.
        name: String,
    },
    /// Track what arrives on `<port idx>` in conntrack zone `zone`.
    CtZone {
        /// NF port index.
        dev_port: usize,
        /// Conntrack zone.
        zone: u16,
    },
    /// `ip rule add fwmark <mark> table <table> priority <priority>`
    IpRule(IpRule),
}

/// One NF's configuration, compiled.
#[derive(Debug, Clone)]
pub struct CompiledNf {
    /// A dedicated instance's namespace program; the instance's sandbox
    /// keeps its own copy, to run on each start.
    pub commands: Vec<NnfCommand>,
    /// A NAT's addressing and port forwards: what a binding on a shared
    /// instance carries to its [`binding_program`].
    pub nat: Option<NatBinding>,
}

impl From<Vec<NnfCommand>> for CompiledNf {
    fn from(commands: Vec<NnfCommand>) -> Self {
        CompiledNf {
            commands,
            nat: None,
        }
    }
}

/// A graph's compiled NFs, by NF id. An NF whose type has no program (a
/// type no node offers) has no entry.
pub type Programs = BTreeMap<String, CompiledNf>;

/// A config [`compile`] refused, and the NF it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The NF id.
    pub nf: String,
    /// Why its config was refused.
    pub error: NnfError,
}

/// Compile every NF of `graph` whose type has a program, each on the
/// ports the graph gives it (at least one, as the node creates them).
/// The first config refused is the error, and nothing has been built.
pub fn compile(graph: &NfFg) -> Result<Programs, CompileError> {
    graph
        .nfs
        .iter()
        .filter_map(|nf| {
            let program = program(&nf.functional_type)?;
            let compiled = program(&nf.config, nf.ports.len().max(1));
            let refused = |error| CompileError {
                nf: nf.id.clone(),
                error,
            };
            Some(compiled.map(|c| (nf.id.clone(), c)).map_err(refused))
        })
        .collect()
}

/// A functional type's program: its config and port count in, its
/// compiled form out.
type Program = fn(&NfConfig, usize) -> Result<CompiledNf, NnfError>;

/// The program for `functional_type`, the one map from a type's name to
/// its code; `None` for a type that runs none.
fn program(functional_type: &str) -> Option<Program> {
    Some(match functional_type {
        "ipsec" => translate_ipsec,
        "firewall" => translate_firewall,
        "nat" => translate_nat,
        "router" => translate_router,
        "bridge" => translate_bridge,
        "l2fwd-fast" => translate_l2fwd,
        _ => return None,
    })
}

/// String parameters: an NF's scalar params, one of its rule entries,
/// or a shared NNF's per-graph binding.
type Params = BTreeMap<String, String>;

/// `p[key]` parsed, if present; a bad value is reported as `{at}{key}`.
fn opt<T: FromStr>(p: &Params, at: &str, key: &str) -> Result<Option<T>, NnfError> {
    let Some(v) = p.get(key) else { return Ok(None) };
    v.parse().map(Some).map_err(|_| NnfError::BadParam {
        key: format!("{at}{key}"),
        value: v.clone(),
    })
}

/// `p[key]` parsed; it must be present.
fn req<T: FromStr>(p: &Params, at: &str, key: &'static str) -> Result<T, NnfError> {
    opt(p, at, key)?.ok_or(NnfError::MissingParam(key))
}

/// Derive deterministic tunnel keys from a PSK.
///
/// Both tunnel ends run the same derivation with opposite `initiator`
/// flags and agree on keys and SPIs — this is the "predefined
/// configuration script" mode the paper's initial implementation uses
/// (the full IKE exchange lives in `un-ipsec::ike`). The derivation is a
/// pure function of `(psk, initiator)`, so every start installs the same
/// keys with sequence numbers back at 0 (see
/// [`NnfInstance`](crate::NnfInstance)).
pub fn derive_psk_tunnel(
    psk: &[u8],
    initiator: bool,
) -> ([u8; 32], [u8; 4], [u8; 32], [u8; 4], u32, u32) {
    let prk = hkdf_extract(b"un-nnf-ipsec-static", psk);
    let mut okm = [0u8; 80];
    hkdf_expand(&prk, b"tunnel-keys", &mut okm);
    let key_i: [u8; 32] = okm[0..32].try_into().unwrap();
    let salt_i: [u8; 4] = okm[32..36].try_into().unwrap();
    let key_r: [u8; 32] = okm[36..68].try_into().unwrap();
    let salt_r: [u8; 4] = okm[68..72].try_into().unwrap();
    let spi_i = u32::from_be_bytes(okm[72..76].try_into().unwrap()) | 0x1000_0000;
    let spi_r = u32::from_be_bytes(okm[76..80].try_into().unwrap()) | 0x2000_0000;
    if initiator {
        // (out key, out salt, in key, in salt, out spi, in spi)
        (key_i, salt_i, key_r, salt_r, spi_i, spi_r)
    } else {
        (key_r, salt_r, key_i, salt_i, spi_r, spi_i)
    }
}

/// A route in `table` out `dev_port`.
fn route(table: u32, dst: Ipv4Cidr, via: Option<Ipv4Addr>, dev_port: usize) -> NnfCommand {
    NnfCommand::IpRoute {
        table,
        dst,
        via,
        dev_port,
        metric: 0,
    }
}

/// The default route in `table` toward `via` out `dev_port`.
fn default_route(table: u32, via: Option<Ipv4Addr>, dev_port: usize) -> NnfCommand {
    let any = Ipv4Cidr::new(Ipv4Addr::UNSPECIFIED, 0);
    route(table, any, via, dev_port)
}

/// Port by port: its address, if it has one, then link up.
fn bring_up(addrs: &[Option<Ipv4Cidr>]) -> Vec<NnfCommand> {
    let mut cmds = Vec::new();
    for (dev_port, cidr) in addrs.iter().enumerate() {
        cmds.extend(cidr.map(|cidr| NnfCommand::IpAddr { cidr, dev_port }));
        cmds.push(NnfCommand::LinkUp { dev_port });
    }
    cmds
}

/// A LAN / WAN pair on its two ports: both addresses, then both links.
fn lan_wan(ports: [usize; 2], lan: Ipv4Cidr, wan: Ipv4Cidr) -> Vec<NnfCommand> {
    let addrs = [lan, wan].into_iter().zip(ports);
    let addrs = addrs.map(|(cidr, dev_port)| NnfCommand::IpAddr { cidr, dev_port });
    let links = ports.map(|dev_port| NnfCommand::LinkUp { dev_port });
    addrs.chain(links).collect()
}

/// Port 0 faces the protected LAN, port 1 the WAN: the interface half
/// (`lan-addr`, `wan-addr`), then the tunnel half.
fn translate_ipsec(c: &NfConfig, _n_ports: usize) -> Result<CompiledNf, NnfError> {
    let p = &c.params;
    let mut cmds = lan_wan([0, 1], req(p, "", "lan-addr")?, req(p, "", "wan-addr")?);
    cmds.extend(ipsec_tunnel(c)?);
    Ok(cmds.into())
}

/// The tunnel half of an IPsec config. Keys `psk`, `local-addr`,
/// `peer-addr`, `protected-local`, `protected-remote` and an optional
/// `role` (`initiator` by default) become the route toward the peer out
/// the WAN port (port 1), forwarding, the outbound and inbound SAs, and
/// the outbound policy.
fn ipsec_tunnel(c: &NfConfig) -> Result<Vec<NnfCommand>, NnfError> {
    let p = &c.params;
    let psk: String = req(p, "", "psk")?;
    let local: Ipv4Addr = req(p, "", "local-addr")?;
    let peer: Ipv4Addr = req(p, "", "peer-addr")?;
    let prot_local: Ipv4Cidr = req(p, "", "protected-local")?;
    let prot_remote: Ipv4Cidr = req(p, "", "protected-remote")?;
    let initiator = c.param("role").unwrap_or("initiator") == "initiator";

    let (key_out, salt_out, key_in, salt_in, spi_out, spi_in) =
        derive_psk_tunnel(psk.as_bytes(), initiator);

    Ok(vec![
        // Traffic for the protected remote prefix heads toward the peer;
        // XFRM intercepts and encapsulates it on the way out.
        route(MAIN_TABLE, prot_remote, Some(peer), 1),
        NnfCommand::Sysctl { ip_forward: true },
        NnfCommand::XfrmState(SecurityAssociation::outbound(
            spi_out, local, peer, key_out, salt_out,
        )),
        NnfCommand::XfrmState(SecurityAssociation::inbound(
            spi_in, peer, local, key_in, salt_in,
        )),
        NnfCommand::XfrmPolicy(SecurityPolicy {
            selector: TrafficSelector::between(prot_local, prot_remote),
            direction: PolicyDirection::Out,
            action: PolicyAction::Protect(spi_out),
            priority: 10,
        }),
    ])
}

/// A routed stateful firewall, port 0 inside and port 1 outside:
/// `addr0`/`addr1` address the ports, an optional `gw` is the upstream
/// next hop, `policy` (`drop` by default) is the FORWARD policy,
/// `stateful` (`true` by default) lets replies pass, and each `rules`
/// entry (`action`, `src`, `dst`, `proto`, `sport`, `dport`) is one
/// FORWARD rule.
fn translate_firewall(c: &NfConfig, _n_ports: usize) -> Result<CompiledNf, NnfError> {
    let p = &c.params;
    let mut cmds = bring_up(&[opt(p, "", "addr0")?, opt(p, "", "addr1")?]);
    let gw: Option<Ipv4Addr> = opt(p, "", "gw")?;
    cmds.extend(gw.map(|gw| default_route(MAIN_TABLE, Some(gw), 1)));
    cmds.push(NnfCommand::Sysctl { ip_forward: true });
    let forward = |matches, target| NnfCommand::IptablesAppend {
        table: NfTable::Filter,
        chain: Chain::Forward,
        rule: NfRule::new(matches, target),
        in_port: None,
        out_port: None,
    };
    cmds.push(NnfCommand::IptablesPolicy {
        table: NfTable::Filter,
        chain: Chain::Forward,
        accept: c.param("policy").unwrap_or("drop") != "drop",
    });
    // Stateful default: replies always pass.
    if c.param("stateful").unwrap_or("true") == "true" {
        let established = RuleMatch {
            ct_state: Some(CtState::Established),
            ..Default::default()
        };
        cmds.push(forward(established, Target::Accept));
    }
    for (i, r) in c.rules.iter().enumerate() {
        let at = format!("rules[{i}].");
        let matches = RuleMatch {
            src: opt(r, &at, "src")?,
            dst: opt(r, &at, "dst")?,
            proto: match r.get("proto").map(String::as_str) {
                Some("tcp") => Some(6),
                Some("udp") => Some(17),
                Some("icmp") => Some(1),
                _ => opt(r, &at, "proto")?,
            },
            dport: opt(r, &at, "dport")?,
            sport: opt(r, &at, "sport")?,
            ..Default::default()
        };
        let target = match r.get("action").map_or("accept", String::as_str) {
            "accept" => Target::Accept,
            "drop" => Target::Drop,
            other => {
                return Err(NnfError::BadParam {
                    key: format!("{at}action"),
                    value: other.to_string(),
                })
            }
        };
        cmds.push(forward(matches, target));
    }
    Ok(cmds.into())
}

/// A shared instance's program, whatever its type: its one attachment
/// port up, forwarding on, and FORWARD's policy DROP. Each binding brings
/// the rest, as its [`binding_program`], over its own sub-interfaces,
/// and its FORWARD rules end with a drop for anything else entering
/// them — so the policy takes only what enters on the attachment
/// itself, untagged: a frame that belongs to no binding.
pub(crate) const SHARED_ATTACHMENT: &[NnfCommand] = &[
    NnfCommand::LinkUp { dev_port: 0 },
    NnfCommand::Sysctl { ip_forward: true },
    NnfCommand::IptablesPolicy {
        table: NfTable::Filter,
        chain: Chain::Forward,
        accept: false,
    },
];

/// A NAT's addressing and port forwards, parsed from `lan-addr`,
/// `wan-addr`, an optional `wan-gw`, and each `rules` entry of `kind`
/// `dnat`. A dedicated NAT's program and a shared NAT's
/// [`binding_program`] run the one NAT program over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NatBinding {
    /// LAN-side address with prefix.
    pub lan: Ipv4Cidr,
    /// WAN-side address with prefix.
    pub wan: Ipv4Cidr,
    /// Upstream next hop, if any.
    pub gw: Option<Ipv4Addr>,
    /// Static port forwards, in config order.
    pub dnat: Vec<PortForward>,
}

impl NatBinding {
    /// Parse it from a NAT's config, addresses first, then each port
    /// forward in order.
    fn parse(c: &NfConfig) -> Result<Self, NnfError> {
        let p = &c.params;
        let (lan, wan, gw) = (
            req(p, "", "lan-addr")?,
            req(p, "", "wan-addr")?,
            opt(p, "", "wan-gw")?,
        );
        let mut dnat = Vec::new();
        for (i, r) in c.rules.iter().enumerate() {
            if r.get("kind").map(String::as_str) != Some("dnat") {
                continue;
            }
            let at = format!("rules[{i}].");
            let to = req(r, &at, "to")?;
            let dport = req(r, &at, "dport")?;
            let port = opt(r, &at, "to-port")?;
            dnat.push(PortForward { dport, to, port });
        }
        Ok(NatBinding { lan, wan, gw, dnat })
    }
}

/// One static port forward: what arrives on the WAN side for `dport`
/// goes to `to`, on `port` if given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortForward {
    /// Destination port matched.
    pub dport: u16,
    /// Address traffic is forwarded to.
    pub to: Ipv4Addr,
    /// Port it is forwarded to; the matched one if `None`.
    pub port: Option<u16>,
}

/// The one NAT program, dedicated or shared: a masquerading router from
/// the `lan` port to the `wan` port, its routes in `table`, masquerading
/// the traffic that carries `mark` (all of it if `None`), then the port
/// forwards, which take only what arrives on the WAN port. Every table
/// holds a default route out the WAN port, via `wan-gw` if given and
/// on-link otherwise, so both modes route an off-subnet destination
/// alike. A private table also holds the LAN route (the main table has
/// the connected routes): without both a marked frame falls through to
/// the main table, which holds every tenant's connected routes.
///
/// It forwards only what it translates: FORWARD rules on its own two
/// ports let LAN out to WAN, and back in only a reply to a LAN-initiated
/// flow or a connection a port forward translated to its target;
/// whatever else enters either port is dropped. So no frame leaves the
/// port it came in on, and on a shared NAT no binding's frame leaves
/// another's sub-interface. The chain's policy is left alone: another binding's
/// traffic never meets these rules' drops.
fn nat_program(
    nat: &NatBinding,
    [lan, wan]: [usize; 2],
    table: u32,
    mark: Option<u32>,
) -> Vec<NnfCommand> {
    let mut cmds = lan_wan([lan, wan], nat.lan, nat.wan);
    if table != MAIN_TABLE {
        let lan_net = Ipv4Cidr::new(nat.lan.network(), nat.lan.prefix_len());
        cmds.push(route(table, lan_net, None, lan));
    }
    cmds.push(default_route(table, nat.gw, wan));
    cmds.push(NnfCommand::Sysctl { ip_forward: true });
    let marked = RuleMatch {
        fwmark: mark,
        ..Default::default()
    };
    cmds.push(NnfCommand::IptablesAppend {
        table: NfTable::Nat,
        chain: Chain::Postrouting,
        rule: NfRule::new(marked, Target::Masquerade),
        in_port: None,
        out_port: Some(wan),
    });
    for &PortForward { dport, to, port } in &nat.dnat {
        let arriving = RuleMatch {
            dport: Some(dport),
            ..Default::default()
        };
        cmds.push(NnfCommand::IptablesAppend {
            table: NfTable::Nat,
            chain: Chain::Prerouting,
            rule: NfRule::new(arriving, Target::Dnat { to, port }),
            in_port: Some(wan),
            out_port: None,
        });
    }
    let forward = |matches, target, in_port, out_port| NnfCommand::IptablesAppend {
        table: NfTable::Filter,
        chain: Chain::Forward,
        rule: NfRule::new(matches, target),
        in_port: Some(in_port),
        out_port,
    };
    cmds.push(forward(
        RuleMatch::default(),
        Target::Accept,
        lan,
        Some(wan),
    ));
    let reply = RuleMatch {
        ct_state: Some(CtState::Established),
        ..Default::default()
    };
    cmds.push(forward(reply, Target::Accept, wan, Some(lan)));
    for &PortForward { dport, to, port } in &nat.dnat {
        let translated = RuleMatch {
            dst: Some(Ipv4Cidr::new(to, 32)),
            dport: Some(port.unwrap_or(dport)),
            ct_dnat: true,
            ..Default::default()
        };
        cmds.push(forward(translated, Target::Accept, wan, Some(lan)));
    }
    for side in [lan, wan] {
        cmds.push(forward(RuleMatch::default(), Target::Drop, side, None));
    }
    cmds
}

/// A dedicated NAT: the NAT program from LAN (port 0) to WAN (port 1) in
/// the main table.
fn translate_nat(c: &NfConfig, _n_ports: usize) -> Result<CompiledNf, NnfError> {
    let nat = NatBinding::parse(c)?;
    let commands = nat_program(&nat, [0, 1], MAIN_TABLE, None);
    Ok(CompiledNf {
        commands,
        nat: Some(nat),
    })
}

/// A binding's program on a shared NAT whose attachment is port 0. Per
/// side, an 802.1Q sub-interface on the binding's VID (`m<mark>-lan` is
/// port 1, `m<mark>-wan` port 2) in its conntrack zone, and a mangle rule
/// stamping its mark on what arrives there; then an `ip rule` sending
/// marked traffic to its private table, and the NAT program over the two
/// sides in that table, masquerading only its marked traffic. Egress
/// through a sub-interface re-tags the frame, so the LSI tells the graphs
/// apart on the way out. [`undo`](crate::plugins::undo) removes it.
pub fn binding_program(binding: &GraphBinding) -> Result<Vec<NnfCommand>, NnfError> {
    let nat = binding.nat.as_ref().ok_or(NnfError::BadState(
        "a NAT binding without its compiled config",
    ))?;
    let (mark, zone) = (binding.mark, binding.zone);
    let mut cmds = Vec::new();
    for (dev_port, vid, side) in [(1, binding.vid_lan, "lan"), (2, binding.vid_wan, "wan")] {
        let name = format!("m{mark}-{side}");
        cmds.push(NnfCommand::VlanSub {
            parent_port: 0,
            vid,
            name,
        });
        cmds.push(NnfCommand::CtZone { dev_port, zone });
        cmds.push(NnfCommand::IptablesAppend {
            table: NfTable::Mangle,
            chain: Chain::Prerouting,
            rule: NfRule::new(RuleMatch::default(), Target::SetMark(mark)),
            in_port: Some(dev_port),
            out_port: None,
        });
    }
    // The rule's priority and its table are both 100 + mark.
    let table = 100 + mark;
    cmds.push(NnfCommand::IpRule(IpRule {
        priority: table,
        fwmark: Some(mark),
        table,
    }));
    cmds.extend(nat_program(nat, [1, 2], table, Some(mark)));
    Ok(cmds)
}

/// `addr<i>` addresses port *i*; `rules` entries (`dst`, optional `via`,
/// `port`) are static routes.
fn translate_router(c: &NfConfig, n_ports: usize) -> Result<CompiledNf, NnfError> {
    let addrs: Vec<Option<Ipv4Cidr>> = (0..n_ports)
        .map(|i| opt(&c.params, "", &format!("addr{i}")))
        .collect::<Result<_, _>>()?;
    let mut cmds = bring_up(&addrs);
    cmds.push(NnfCommand::Sysctl { ip_forward: true });
    for (i, r) in c.rules.iter().enumerate() {
        let at = format!("rules[{i}].");
        let dst = req(r, &at, "dst")?;
        let via = opt(r, &at, "via")?;
        let dev_port: usize = req(r, &at, "port")?;
        if dev_port >= n_ports {
            return Err(NnfError::NotEnoughPorts {
                need: dev_port.saturating_add(1),
                have: n_ports,
            });
        }
        cmds.push(route(MAIN_TABLE, dst, via, dev_port));
    }
    Ok(cmds.into())
}

/// A bridge is pure topology: every port enslaved to one `br0`.
fn translate_bridge(_c: &NfConfig, n_ports: usize) -> Result<CompiledNf, NnfError> {
    let bridge = NnfCommand::Bridge {
        members: (0..n_ports).collect(),
    };
    Ok(vec![bridge].into())
}

/// DPDK's `l2fwd-fast` forwards port 0 to port 1 and back: a bridge of
/// the two, whatever else the graph wires. It takes no config.
fn translate_l2fwd(_c: &NfConfig, _n_ports: usize) -> Result<CompiledNf, NnfError> {
    let bridge = NnfCommand::Bridge {
        members: vec![0, 1],
    };
    Ok(vec![bridge].into())
}

/// `config` compiled as the one NF, `nf`, of a graph that gives it
/// `n_ports` ports; `None` for a type without a program.
#[cfg(test)]
pub(crate) fn compiled(
    functional_type: &str,
    config: &NfConfig,
    n_ports: u32,
) -> Option<Result<CompiledNf, NnfError>> {
    let graph = un_nffg::NfFgBuilder::new("g", "one NF")
        .nf_with_config("nf", functional_type, n_ports, config.clone())
        .build();
    match compile(&graph) {
        Ok(mut programs) => programs.remove("nf").map(Ok),
        Err(CompileError { nf, error }) => {
            assert_eq!(nf, "nf");
            Some(Err(error))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_ipsec::sa::SaDirection;

    /// The commands `config` compiles to for a `functional_type` NF on
    /// `n_ports` ports.
    fn translate(
        functional_type: &str,
        config: &NfConfig,
        n_ports: u32,
    ) -> Result<Vec<NnfCommand>, NnfError> {
        let compiled = compiled(functional_type, config, n_ports).expect("a type with a program");
        compiled.map(|c| c.commands.to_vec())
    }

    fn tunnel_config() -> NfConfig {
        NfConfig::default()
            .with_param("psk", "s3cret")
            .with_param("local-addr", "192.0.2.1")
            .with_param("peer-addr", "203.0.113.7")
            .with_param("protected-local", "192.168.1.0/24")
            .with_param("protected-remote", "172.16.0.0/16")
    }

    #[test]
    fn ipsec_translation_and_key_agreement() {
        let cfg = tunnel_config()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "192.0.2.1/24");
        let cmds = translate("ipsec", &cfg, 2).unwrap();
        assert_eq!(cmds.len(), 9);
        assert!(matches!(cmds[0], NnfCommand::IpAddr { dev_port: 0, .. }));
        assert!(matches!(cmds[1], NnfCommand::IpAddr { dev_port: 1, .. }));
        assert!(matches!(cmds[3], NnfCommand::LinkUp { dev_port: 1 }));
        match &cmds[4] {
            NnfCommand::IpRoute {
                dst, via, dev_port, ..
            } => {
                assert_eq!(*dst, "172.16.0.0/16".parse().unwrap());
                assert_eq!(*via, Some(Ipv4Addr::new(203, 0, 113, 7)));
                assert_eq!(*dev_port, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(cmds[5], NnfCommand::Sysctl { ip_forward: true }));
        assert!(matches!(&cmds[6], NnfCommand::XfrmState(sa) if sa.direction == SaDirection::Out));
        assert!(matches!(&cmds[7], NnfCommand::XfrmState(sa) if sa.direction == SaDirection::In));
        assert!(matches!(cmds[8], NnfCommand::XfrmPolicy(_)));

        // The tunnel half is what a VM guest installs: it needs no
        // interface addresses, which the native namespace refuses to go
        // without.
        assert_eq!(ipsec_tunnel(&tunnel_config()).unwrap().len(), 5);
        assert_eq!(
            translate("ipsec", &tunnel_config(), 2).unwrap_err(),
            NnfError::MissingParam("lan-addr")
        );

        // Both roles agree crosswise.
        let (ko_i, so_i, ki_i, si_i, spo_i, spi_i) = derive_psk_tunnel(b"s3cret", true);
        let (ko_r, so_r, ki_r, si_r, spo_r, spi_r) = derive_psk_tunnel(b"s3cret", false);
        assert_eq!(ko_i, ki_r);
        assert_eq!(so_i, si_r);
        assert_eq!(ki_i, ko_r);
        assert_eq!(si_i, so_r);
        assert_eq!(spo_i, spi_r);
        assert_eq!(spi_i, spo_r);
        // Different PSKs give different keys.
        let (ko2, ..) = derive_psk_tunnel(b"other", true);
        assert_ne!(ko_i, ko2);
    }

    #[test]
    fn ipsec_requires_params() {
        let err = ipsec_tunnel(&NfConfig::default()).unwrap_err();
        assert_eq!(err, NnfError::MissingParam("psk"));
        let cfg = tunnel_config().with_param("local-addr", "not-an-ip");
        assert_eq!(
            ipsec_tunnel(&cfg).unwrap_err(),
            NnfError::BadParam {
                key: "local-addr".into(),
                value: "not-an-ip".into()
            }
        );
    }

    #[test]
    fn firewall_translation() {
        let mut cfg = NfConfig::default().with_param("policy", "drop");
        let mut rule = BTreeMap::new();
        rule.insert("action".into(), "accept".into());
        rule.insert("proto".into(), "udp".into());
        rule.insert("dport".into(), "53".into());
        cfg.rules.push(rule);
        let cmds = translate("firewall", &cfg, 2).unwrap();
        // 2 × link up + sysctl + policy + established + 1 rule.
        assert_eq!(cmds.len(), 6);
        assert!(matches!(
            cmds[3],
            NnfCommand::IptablesPolicy { accept: false, .. }
        ));
        match &cmds[5] {
            NnfCommand::IptablesAppend { rule, .. } => {
                assert_eq!(rule.matches.proto, Some(17));
                assert_eq!(rule.matches.dport, Some(53));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn firewall_rejects_bad_action() {
        let mut cfg = NfConfig::default();
        let mut rule = BTreeMap::new();
        rule.insert("action".into(), "explode".into());
        cfg.rules.push(rule);
        assert_eq!(
            translate("firewall", &cfg, 2).unwrap_err(),
            NnfError::BadParam {
                key: "rules[0].action".into(),
                value: "explode".into()
            }
        );
    }

    #[test]
    fn nat_translation_with_dnat() {
        let mut cfg = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24");
        let mut fwd = BTreeMap::new();
        fwd.insert("kind".into(), "dnat".into());
        fwd.insert("dport".into(), "8080".into());
        fwd.insert("to".into(), "192.168.1.20".into());
        fwd.insert("to-port".into(), "80".into());
        cfg.rules.push(fwd);
        let cmds = translate("nat", &cfg, 2).unwrap();
        // 2 × address + 2 × link up + the default route + sysctl +
        // masquerade + 1 DNAT, then FORWARD: LAN out, replies in, the
        // forward in, a drop per side.
        assert_eq!(cmds.len(), 13);
        // No `wan-gw`: the default route is on-link out the WAN port.
        assert_eq!(cmds[4], default_route(MAIN_TABLE, None, 1));
        assert!(matches!(
            cmds[6],
            NnfCommand::IptablesAppend {
                chain: Chain::Postrouting,
                out_port: Some(1),
                ..
            }
        ));
        match &cmds[7] {
            NnfCommand::IptablesAppend { rule, .. } => {
                assert_eq!(
                    rule.target,
                    Target::Dnat {
                        to: Ipv4Addr::new(192, 168, 1, 20),
                        port: Some(80)
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn router_translation() {
        let mut cfg = NfConfig::default();
        let mut r = BTreeMap::new();
        r.insert("dst".into(), "0.0.0.0/0".into());
        r.insert("via".into(), "10.0.0.254".into());
        r.insert("port".into(), "1".into());
        cfg.rules.push(r);
        let cmds = translate("router", &cfg, 2).unwrap();
        assert_eq!(cmds.len(), 4);
        assert!(matches!(cmds[3], NnfCommand::IpRoute { dev_port: 1, .. }));
        // A route out a port the instance lacks is refused up front.
        assert_eq!(
            translate("router", &cfg, 1).unwrap_err(),
            NnfError::NotEnoughPorts { need: 2, have: 1 }
        );
    }

    /// A type with no program — one no node offers — compiles to
    /// nothing: the repository, not the compiler, refuses a type it does
    /// not list. A bridge's program needs no config, and neither does
    /// DPDK's fast path, which is the two-port bridge.
    #[test]
    fn a_type_without_a_program_compiles_to_nothing() {
        assert!(compiled("quantum-fw", &NfConfig::default(), 2).is_none());
        for functional_type in ["bridge", "l2fwd-fast"] {
            assert!(matches!(
                &translate(functional_type, &NfConfig::default(), 2).unwrap()[..],
                [NnfCommand::Bridge { members }] if members == &[0, 1]
            ));
        }
    }

    /// A graph compiles NF by NF: every NF with a program has its list,
    /// a NAT its parsed binding, and the first config refused names its
    /// NF.
    #[test]
    fn a_graph_compiles_per_nf_and_a_refusal_names_its_nf() {
        let mut nat = NfConfig::default()
            .with_param("lan-addr", "192.168.1.1/24")
            .with_param("wan-addr", "203.0.113.1/24")
            .with_param("wan-gw", "203.0.113.254");
        let mut web = BTreeMap::new();
        web.insert("kind".into(), "dnat".into());
        web.insert("dport".into(), "8080".into());
        web.insert("to".into(), "192.168.1.20".into());
        nat.rules.push(web);
        let graph = un_nffg::NfFgBuilder::new("g", "three NFs")
            .nf("br", "bridge", 2)
            .nf_with_config("nat", "nat", 2, nat)
            .nf("fw", "quantum-fw", 2)
            .build();
        let programs = compile(&graph).unwrap();
        assert_eq!(programs.keys().collect::<Vec<_>>(), ["br", "nat"]);
        assert!(programs["br"].nat.is_none());
        let binding = NatBinding {
            lan: "192.168.1.1/24".parse().unwrap(),
            wan: "203.0.113.1/24".parse().unwrap(),
            gw: Some(Ipv4Addr::new(203, 0, 113, 254)),
            dnat: vec![PortForward {
                dport: 8080,
                to: Ipv4Addr::new(192, 168, 1, 20),
                port: None,
            }],
        };
        assert_eq!(programs["nat"].nat, Some(binding));

        let broken = un_nffg::NfFgBuilder::new("g", "a NAT without its WAN")
            .nf("br", "bridge", 2)
            .nf_with_config(
                "nat",
                "nat",
                2,
                NfConfig::default().with_param("lan-addr", "192.168.1.1/24"),
            )
            .build();
        assert_eq!(
            compile(&broken).unwrap_err(),
            CompileError {
                nf: "nat".into(),
                error: NnfError::MissingParam("wan-addr"),
            }
        );
    }
}
