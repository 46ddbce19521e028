//! Routing: LPM tables and policy rules (`ip route` / `ip rule`).
//!
//! Policy routing is the heart of the paper's "multiple internal paths"
//! requirement for sharable NNFs: the adaptation layer marks traffic per
//! service graph (fwmark) and an `ip rule` per graph selects a dedicated
//! routing table, so one NNF instance forwards each graph's traffic
//! differently and in isolation.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use un_packet::Ipv4Cidr;

use crate::iface::IfaceId;

/// The main routing table id (Linux convention: 254).
pub const MAIN_TABLE: u32 = 254;

/// One route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub dst: Ipv4Cidr,
    /// Next-hop gateway (None = on-link).
    pub via: Option<Ipv4Addr>,
    /// Egress interface.
    pub dev: IfaceId,
    /// Metric; lower preferred among equal prefix lengths.
    pub metric: u32,
}

/// A routing table with longest-prefix-match lookup.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: Vec<Route>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a route.
    pub fn add(&mut self, route: Route) {
        self.routes.push(route);
    }

    /// Remove routes to an exact prefix; returns how many were removed.
    pub fn remove(&mut self, dst: Ipv4Cidr) -> usize {
        let before = self.routes.len();
        self.routes.retain(|r| r.dst != dst);
        before - self.routes.len()
    }

    /// Remove all routes through an interface (when it goes away).
    pub fn remove_dev(&mut self, dev: IfaceId) {
        self.routes.retain(|r| r.dev != dev);
    }

    /// Longest-prefix match; ties by lowest metric, then insertion order.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&Route> {
        self.routes
            .iter()
            .filter(|r| r.dst.contains(dst))
            .max_by(|a, b| {
                a.dst
                    .prefix_len()
                    .cmp(&b.dst.prefix_len())
                    .then(b.metric.cmp(&a.metric))
            })
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterate routes.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }
}

/// An `ip rule`: which routing table to consult for which traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpRule {
    /// Rule priority; lower runs first (Linux semantics).
    pub priority: u32,
    /// Match on firewall mark (None = any).
    pub fwmark: Option<u32>,
    /// The table to use when matched.
    pub table: u32,
}

/// The per-namespace routing policy database.
#[derive(Debug, Clone)]
pub struct RoutingPolicy {
    rules: Vec<IpRule>,
    /// All routing tables, keyed by id. `MAIN_TABLE` always exists.
    pub tables: BTreeMap<u32, RouteTable>,
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        let mut tables = BTreeMap::new();
        tables.insert(MAIN_TABLE, RouteTable::new());
        RoutingPolicy {
            // Default rule: everything → main, lowest priority last.
            rules: vec![IpRule {
                priority: 32766,
                fwmark: None,
                table: MAIN_TABLE,
            }],
            tables,
        }
    }
}

impl RoutingPolicy {
    /// Fresh policy with only the main table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an `ip rule` (kept sorted by priority).
    pub fn add_rule(&mut self, rule: IpRule) {
        let pos = self
            .rules
            .iter()
            .position(|r| r.priority > rule.priority)
            .unwrap_or(self.rules.len());
        self.rules.insert(pos, rule);
    }

    /// Drop an entire routing table and every rule pointing at it
    /// (cannot drop the main table).
    pub fn remove_table(&mut self, table: u32) {
        if table == MAIN_TABLE {
            return;
        }
        self.tables.remove(&table);
        self.rules.retain(|r| r.table != table);
    }

    /// Get (or create) a table.
    pub fn table_mut(&mut self, id: u32) -> &mut RouteTable {
        self.tables.entry(id).or_default()
    }

    /// The main table.
    pub fn main_mut(&mut self) -> &mut RouteTable {
        self.table_mut(MAIN_TABLE)
    }

    /// Policy-aware lookup: walk rules in priority order, first table
    /// with a matching route wins (Linux behaviour: an empty table falls
    /// through to later rules).
    pub fn lookup(&self, dst: Ipv4Addr, fwmark: u32) -> Option<&Route> {
        for rule in &self.rules {
            if let Some(mark) = rule.fwmark {
                if fwmark != mark {
                    continue;
                }
            }
            if let Some(t) = self.tables.get(&rule.table) {
                if let Some(r) = t.lookup(dst) {
                    return Some(r);
                }
            }
        }
        None
    }

    /// Iterate rules in evaluation order.
    pub fn rules(&self) -> impl Iterator<Item = &IpRule> {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let mut t = RouteTable::new();
        t.add(Route {
            dst: cidr("0.0.0.0/0"),
            via: Some(Ipv4Addr::new(10, 0, 0, 254)),
            dev: IfaceId(1),
            metric: 0,
        });
        t.add(Route {
            dst: cidr("10.1.0.0/16"),
            via: None,
            dev: IfaceId(2),
            metric: 0,
        });
        t.add(Route {
            dst: cidr("10.1.2.0/24"),
            via: None,
            dev: IfaceId(3),
            metric: 0,
        });
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap().dev,
            IfaceId(3)
        );
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 1, 9, 9)).unwrap().dev,
            IfaceId(2)
        );
        assert_eq!(t.lookup(Ipv4Addr::new(8, 8, 8, 8)).unwrap().dev, IfaceId(1));
    }

    #[test]
    fn metric_breaks_ties() {
        let mut t = RouteTable::new();
        t.add(Route {
            dst: cidr("10.0.0.0/8"),
            via: None,
            dev: IfaceId(1),
            metric: 100,
        });
        t.add(Route {
            dst: cidr("10.0.0.0/8"),
            via: None,
            dev: IfaceId(2),
            metric: 10,
        });
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 5, 5, 5)).unwrap().dev,
            IfaceId(2)
        );
    }

    #[test]
    fn remove_routes() {
        let mut t = RouteTable::new();
        t.add(Route {
            dst: cidr("10.0.0.0/8"),
            via: None,
            dev: IfaceId(1),
            metric: 0,
        });
        assert_eq!(t.remove(cidr("10.0.0.0/8")), 1);
        assert!(t.lookup(Ipv4Addr::new(10, 0, 0, 1)).is_none());
    }

    #[test]
    fn policy_rules_select_tables_by_mark() {
        let mut p = RoutingPolicy::new();
        p.main_mut().add(Route {
            dst: cidr("0.0.0.0/0"),
            via: None,
            dev: IfaceId(1),
            metric: 0,
        });
        // Graph 2's dedicated table 102: everything out iface 2.
        p.table_mut(102).add(Route {
            dst: cidr("0.0.0.0/0"),
            via: None,
            dev: IfaceId(2),
            metric: 0,
        });
        p.add_rule(IpRule {
            priority: 100,
            fwmark: Some(2),
            table: 102,
        });

        let dst = Ipv4Addr::new(8, 8, 8, 8);
        assert_eq!(p.lookup(dst, 0).unwrap().dev, IfaceId(1));
        assert_eq!(p.lookup(dst, 2).unwrap().dev, IfaceId(2));
        assert_eq!(p.lookup(dst, 3).unwrap().dev, IfaceId(1));
    }

    #[test]
    fn empty_marked_table_falls_through_to_main() {
        let mut p = RoutingPolicy::new();
        p.main_mut().add(Route {
            dst: cidr("0.0.0.0/0"),
            via: None,
            dev: IfaceId(1),
            metric: 0,
        });
        p.add_rule(IpRule {
            priority: 100,
            fwmark: Some(7),
            table: 107, // never populated
        });
        assert_eq!(
            p.lookup(Ipv4Addr::new(1, 2, 3, 4), 7).unwrap().dev,
            IfaceId(1)
        );
    }

    #[test]
    fn no_route_returns_none() {
        let p = RoutingPolicy::new();
        assert!(p.lookup(Ipv4Addr::new(1, 1, 1, 1), 0).is_none());
    }
}
