//! The netfilter engine: tables, chains, rules, targets.
//!
//! This is the substrate of the iptables-based NNFs (firewall, NAT).
//! The hook layout follows Linux: `mangle` runs before `nat` on
//! PREROUTING; `filter` guards INPUT/FORWARD/OUTPUT; `nat` POSTROUTING
//! performs source translation. Default chain policy is ACCEPT, per-chain
//! overridable (the firewall NNF sets FORWARD policy to DROP).

use std::net::Ipv4Addr;

use un_packet::Ipv4Cidr;

use crate::conntrack::CtState;
use crate::iface::IfaceId;

/// Which table a rule lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfTable {
    /// Mark/mangle operations.
    Mangle,
    /// NAT (PREROUTING=DNAT, POSTROUTING=MASQUERADE).
    Nat,
    /// Accept/drop filtering.
    Filter,
}

/// Which hook/chain a rule is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Chain {
    /// Before routing, on ingress.
    Prerouting,
    /// Traffic addressed to this namespace.
    Input,
    /// Traffic routed through this namespace.
    Forward,
    /// Locally generated traffic.
    Output,
    /// After routing, on egress.
    Postrouting,
}

/// Rule matcher; all present fields must match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleMatch {
    /// Ingress interface (PREROUTING/INPUT/FORWARD only).
    pub in_iface: Option<IfaceId>,
    /// Egress interface (FORWARD/OUTPUT/POSTROUTING only).
    pub out_iface: Option<IfaceId>,
    /// Source prefix.
    pub src: Option<Ipv4Cidr>,
    /// Destination prefix.
    pub dst: Option<Ipv4Cidr>,
    /// IP protocol number.
    pub proto: Option<u8>,
    /// L4 source port.
    pub sport: Option<u16>,
    /// L4 destination port.
    pub dport: Option<u16>,
    /// Firewall mark.
    pub fwmark: Option<u32>,
    /// Connection tracking state.
    pub ct_state: Option<CtState>,
    /// Only a connection whose original destination was translated
    /// (`-m conntrack --ctstate DNAT`).
    pub ct_dnat: bool,
}

impl RuleMatch {
    /// Match everything.
    pub fn any() -> Self {
        Self::default()
    }
}

/// What to do with a matching packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Let it continue.
    Accept,
    /// Silently drop.
    Drop,
    /// Rewrite the destination address/port — `nat/PREROUTING`.
    Dnat {
        /// New destination address.
        to: Ipv4Addr,
        /// Optional new destination port.
        port: Option<u16>,
    },
    /// SNAT to the egress interface's primary address.
    Masquerade,
    /// Set the firewall mark and continue (`mangle` tables).
    SetMark(u32),
}

/// One rule.
#[derive(Debug, Clone, PartialEq)]
pub struct NfRule {
    /// The matcher.
    pub matches: RuleMatch,
    /// The target.
    pub target: Target,
    /// Hit counter.
    pub packets: u64,
}

impl NfRule {
    /// Build a rule.
    pub fn new(matches: RuleMatch, target: Target) -> Self {
        NfRule {
            matches,
            target,
            packets: 0,
        }
    }
}

/// A packet summary the engine matches against (pre-extracted by the
/// pipeline so the rules don't reparse headers).
#[derive(Debug, Clone, Copy)]
pub struct NfPacket {
    /// Ingress interface, if any.
    pub in_iface: Option<IfaceId>,
    /// Egress interface, if decided.
    pub out_iface: Option<IfaceId>,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP protocol.
    pub proto: u8,
    /// L4 source port (0 if none).
    pub sport: u16,
    /// L4 destination port (0 if none).
    pub dport: u16,
    /// Current firewall mark.
    pub fwmark: u32,
    /// Conntrack state of the flow.
    pub ct_state: CtState,
    /// The flow's connection has its destination translated.
    pub ct_dnat: bool,
}

/// The verdict of running a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Continue processing (possibly with mutations recorded).
    Accept,
    /// Drop the packet.
    Drop,
    /// Apply destination NAT.
    Dnat {
        /// New destination address.
        to: Ipv4Addr,
        /// Optional new port.
        port: Option<u16>,
    },
    /// SNAT to egress interface address.
    Masquerade,
}

/// Side effects a chain run can produce besides the verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainEffects {
    /// New fwmark, if a SetMark rule fired.
    pub set_mark: Option<u32>,
    /// Number of rules evaluated (for cost accounting).
    pub rules_evaluated: u32,
}

/// One (table, chain) rule list with a default policy.
#[derive(Debug, Clone)]
pub struct RuleChain {
    /// Rules in evaluation order.
    pub rules: Vec<NfRule>,
    /// Policy when nothing matches: true = ACCEPT (default), false = DROP.
    pub policy_accept: bool,
}

impl Default for RuleChain {
    fn default() -> Self {
        RuleChain {
            rules: Vec::new(),
            policy_accept: true, // iptables ships with ACCEPT policies
        }
    }
}

/// All netfilter state of one namespace.
#[derive(Debug, Clone)]
pub struct Netfilter {
    chains: std::collections::HashMap<(NfTable, Chain), RuleChain>,
    /// Packets dropped by any chain.
    pub dropped: u64,
}

fn rule_matches(m: &RuleMatch, p: &NfPacket) -> bool {
    if let Some(i) = m.in_iface {
        if p.in_iface != Some(i) {
            return false;
        }
    }
    if let Some(i) = m.out_iface {
        if p.out_iface != Some(i) {
            return false;
        }
    }
    if let Some(c) = m.src {
        if !c.contains(p.src) {
            return false;
        }
    }
    if let Some(c) = m.dst {
        if !c.contains(p.dst) {
            return false;
        }
    }
    if let Some(proto) = m.proto {
        if p.proto != proto {
            return false;
        }
    }
    if let Some(port) = m.sport {
        if p.sport != port {
            return false;
        }
    }
    if let Some(port) = m.dport {
        if p.dport != port {
            return false;
        }
    }
    if let Some(mark) = m.fwmark {
        if p.fwmark != mark {
            return false;
        }
    }
    if let Some(state) = m.ct_state {
        if p.ct_state != state {
            return false;
        }
    }
    if m.ct_dnat && !p.ct_dnat {
        return false;
    }
    true
}

impl Default for Netfilter {
    fn default() -> Self {
        Self::new()
    }
}

impl Netfilter {
    /// Empty rule set, all policies ACCEPT.
    pub fn new() -> Self {
        Netfilter {
            chains: std::collections::HashMap::new(),
            dropped: 0,
        }
    }

    /// Append a rule (`iptables -A`).
    pub fn append(&mut self, table: NfTable, chain: Chain, rule: NfRule) {
        self.chains
            .entry((table, chain))
            .or_default()
            .rules
            .push(rule);
    }

    /// Set a chain's default policy (`iptables -P`).
    pub fn set_policy(&mut self, table: NfTable, chain: Chain, accept: bool) {
        self.chains.entry((table, chain)).or_default().policy_accept = accept;
    }

    /// Delete the first rule with this exact match+target
    /// (`iptables -D`); returns whether one was found.
    pub fn remove_rule(
        &mut self,
        table: NfTable,
        chain: Chain,
        matches: &RuleMatch,
        target: &Target,
    ) -> bool {
        if let Some(rc) = self.chains.get_mut(&(table, chain)) {
            if let Some(pos) = rc
                .rules
                .iter()
                .position(|r| &r.matches == matches && &r.target == target)
            {
                rc.rules.remove(pos);
                return true;
            }
        }
        false
    }

    /// Flush a chain (`iptables -F`); returns removed rule count.
    pub fn flush(&mut self, table: NfTable, chain: Chain) -> usize {
        self.chains
            .get_mut(&(table, chain))
            .map(|c| {
                let n = c.rules.len();
                c.rules.clear();
                n
            })
            .unwrap_or(0)
    }

    /// A chain's policy: true = ACCEPT.
    pub fn policy_accept(&self, table: NfTable, chain: Chain) -> bool {
        self.chains
            .get(&(table, chain))
            .is_none_or(|c| c.policy_accept)
    }

    /// Rules installed in a chain.
    pub fn rules(&self, table: NfTable, chain: Chain) -> &[NfRule] {
        self.chains
            .get(&(table, chain))
            .map(|c| c.rules.as_slice())
            .unwrap_or(&[])
    }

    /// Total rules across all chains.
    pub fn rule_count(&self) -> usize {
        self.chains.values().map(|c| c.rules.len()).sum()
    }

    /// Run a (table, chain) over a packet summary.
    ///
    /// First matching terminal rule (ACCEPT/DROP/NAT) decides; SetMark
    /// records its effect and continues (as `mangle` targets do), and
    /// the new mark is what later rules of the traversal see.
    pub fn run(&mut self, table: NfTable, chain: Chain, pkt: &NfPacket) -> (Verdict, ChainEffects) {
        let mut effects = ChainEffects::default();
        let Some(rc) = self.chains.get_mut(&(table, chain)) else {
            return (Verdict::Accept, effects);
        };
        let mut view = *pkt;
        let mut decided = None;
        for rule in &mut rc.rules {
            effects.rules_evaluated += 1;
            if !rule_matches(&rule.matches, &view) {
                continue;
            }
            rule.packets += 1;
            decided = Some(match rule.target {
                Target::Accept => Verdict::Accept,
                Target::Drop => Verdict::Drop,
                Target::Dnat { to, port } => Verdict::Dnat { to, port },
                Target::Masquerade => Verdict::Masquerade,
                Target::SetMark(m) => {
                    effects.set_mark = Some(m);
                    view.fwmark = m;
                    continue;
                }
            });
            break;
        }
        let verdict = decided.unwrap_or(if rc.policy_accept {
            Verdict::Accept
        } else {
            Verdict::Drop
        });
        if verdict == Verdict::Drop {
            self.dropped += 1;
        }
        (verdict, effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> NfPacket {
        NfPacket {
            in_iface: Some(IfaceId(1)),
            out_iface: None,
            src: Ipv4Addr::new(10, 0, 0, 5),
            dst: Ipv4Addr::new(8, 8, 8, 8),
            proto: 17,
            sport: 5001,
            dport: 53,
            fwmark: 0,
            ct_state: CtState::New,
            ct_dnat: false,
        }
    }

    #[test]
    fn empty_chain_accepts() {
        let mut nf = Netfilter::new();
        assert_eq!(
            nf.run(NfTable::Filter, Chain::Forward, &pkt()).0,
            Verdict::Accept
        );
    }

    #[test]
    fn drop_policy_when_no_match() {
        let mut nf = Netfilter::new();
        nf.set_policy(NfTable::Filter, Chain::Forward, false);
        assert_eq!(
            nf.run(NfTable::Filter, Chain::Forward, &pkt()).0,
            Verdict::Drop
        );
        assert_eq!(nf.dropped, 1);
    }

    #[test]
    fn first_match_wins_and_counts() {
        let mut nf = Netfilter::new();
        nf.append(
            NfTable::Filter,
            Chain::Forward,
            NfRule::new(
                RuleMatch {
                    dport: Some(53),
                    ..Default::default()
                },
                Target::Accept,
            ),
        );
        nf.append(
            NfTable::Filter,
            Chain::Forward,
            NfRule::new(RuleMatch::any(), Target::Drop),
        );
        let (v, fx) = nf.run(NfTable::Filter, Chain::Forward, &pkt());
        assert_eq!(v, Verdict::Accept);
        assert_eq!(nf.rules(NfTable::Filter, Chain::Forward)[0].packets, 1);
        assert_eq!(fx.rules_evaluated, 1);

        let mut other = pkt();
        other.dport = 80;
        let (v, fx) = nf.run(NfTable::Filter, Chain::Forward, &other);
        assert_eq!(v, Verdict::Drop);
        assert_eq!(fx.rules_evaluated, 2);
    }

    #[test]
    fn setmark_continues_and_affects_later_rules() {
        let mut nf = Netfilter::new();
        nf.append(
            NfTable::Mangle,
            Chain::Prerouting,
            NfRule::new(
                RuleMatch {
                    in_iface: Some(IfaceId(1)),
                    ..Default::default()
                },
                Target::SetMark(42),
            ),
        );
        nf.append(
            NfTable::Mangle,
            Chain::Prerouting,
            NfRule::new(
                RuleMatch {
                    fwmark: Some(42),
                    ..Default::default()
                },
                Target::SetMark(43),
            ),
        );
        let (v, fx) = nf.run(NfTable::Mangle, Chain::Prerouting, &pkt());
        assert_eq!(v, Verdict::Accept);
        assert_eq!(
            fx.set_mark,
            Some(43),
            "the second rule saw the first's mark"
        );
    }

    #[test]
    fn ct_state_match() {
        let mut nf = Netfilter::new();
        nf.append(
            NfTable::Filter,
            Chain::Forward,
            NfRule::new(
                RuleMatch {
                    ct_state: Some(CtState::Established),
                    ..Default::default()
                },
                Target::Accept,
            ),
        );
        nf.set_policy(NfTable::Filter, Chain::Forward, false);

        assert_eq!(
            nf.run(NfTable::Filter, Chain::Forward, &pkt()).0,
            Verdict::Drop,
            "NEW must hit the DROP policy"
        );
        let mut est = pkt();
        est.ct_state = CtState::Established;
        assert_eq!(
            nf.run(NfTable::Filter, Chain::Forward, &est).0,
            Verdict::Accept
        );
    }

    #[test]
    fn nat_verdicts_pass_through() {
        let mut nf = Netfilter::new();
        nf.append(
            NfTable::Nat,
            Chain::Postrouting,
            NfRule::new(RuleMatch::any(), Target::Masquerade),
        );
        nf.append(
            NfTable::Nat,
            Chain::Prerouting,
            NfRule::new(
                RuleMatch {
                    dport: Some(8080),
                    ..Default::default()
                },
                Target::Dnat {
                    to: Ipv4Addr::new(192, 168, 1, 10),
                    port: Some(80),
                },
            ),
        );
        assert_eq!(
            nf.run(NfTable::Nat, Chain::Postrouting, &pkt()).0,
            Verdict::Masquerade
        );
        let mut web = pkt();
        web.dport = 8080;
        assert_eq!(
            nf.run(NfTable::Nat, Chain::Prerouting, &web).0,
            Verdict::Dnat {
                to: Ipv4Addr::new(192, 168, 1, 10),
                port: Some(80)
            }
        );
    }

    #[test]
    fn flush_and_counts() {
        let mut nf = Netfilter::new();
        nf.append(
            NfTable::Filter,
            Chain::Input,
            NfRule::new(RuleMatch::any(), Target::Accept),
        );
        assert_eq!(nf.rule_count(), 1);
        assert_eq!(nf.flush(NfTable::Filter, Chain::Input), 1);
        assert_eq!(nf.rule_count(), 0);
    }
}
