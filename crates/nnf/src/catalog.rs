//! The node's NNF catalogue.
//!
//! This is the information the paper's orchestrator consults when
//! deciding whether to deploy an NF as a native component: which NNFs
//! the node offers, whether each can run multiple instances, whether a
//! single instance is *sharable* across service graphs, and what it
//! costs (native package size, daemon RSS).

use std::collections::BTreeMap;

use crate::plugin::NnfPlugin;
use crate::plugins::{BridgeNnf, FirewallNnf, IpsecNnf, NatNnf, RouterNnf};

/// Static characteristics of one NNF type.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Minimum ports a dedicated instance needs.
    pub min_ports: usize,
    /// True if the NNF accepts traffic on a single interface only and
    /// thus needs the adaptation layer when shared.
    pub single_port_when_shared: bool,
}

/// The catalogue: functional type → descriptor + plugin factory.
pub struct NnfCatalog {
    entries: BTreeMap<&'static str, NnfDescriptor>,
}

impl std::fmt::Debug for NnfCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NnfCatalog")
            .field("entries", &self.entries.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for NnfCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

impl NnfCatalog {
    /// An empty catalogue.
    pub fn empty() -> Self {
        NnfCatalog {
            entries: BTreeMap::new(),
        }
    }

    /// The catalogue of a stock Linux CPE, with these characteristics:
    ///
    /// * `ipsec` — strongSwan: single instance (one charon per host),
    ///   not sharable. 5 MB package, 19.4 MB RSS (Table 1's native row).
    /// * `nat` — iptables MASQUERADE: single instance per namespace but
    ///   *sharable* via marks/zones/tables through one port.
    /// * `firewall`, `bridge`, `router` — multi-instance (kernel state
    ///   is per-namespace).
    pub fn standard() -> Self {
        let mut c = Self::empty();
        c.register(NnfDescriptor {
            functional_type: "ipsec",
            multi_instance: false,
            sharable: false,
            package_bytes: 5_000_000,
            rss_bytes: crate::plugins::ipsec::CHARON_RSS,
            min_ports: 2,
            single_port_when_shared: false,
        });
        c.register(NnfDescriptor {
            functional_type: "nat",
            multi_instance: false,
            sharable: true,
            package_bytes: 1_200_000,
            rss_bytes: crate::plugins::nat::NAT_RSS,
            min_ports: 1,
            single_port_when_shared: true,
        });
        c.register(NnfDescriptor {
            functional_type: "firewall",
            multi_instance: true,
            sharable: false,
            package_bytes: 1_200_000,
            rss_bytes: crate::plugins::firewall::FIREWALL_RSS,
            min_ports: 2,
            single_port_when_shared: false,
        });
        c.register(NnfDescriptor {
            functional_type: "bridge",
            multi_instance: true,
            sharable: false,
            package_bytes: 800_000,
            rss_bytes: crate::plugins::bridge::BRIDGE_RSS,
            min_ports: 2,
            single_port_when_shared: false,
        });
        c.register(NnfDescriptor {
            functional_type: "router",
            multi_instance: true,
            sharable: false,
            package_bytes: 900_000,
            rss_bytes: crate::plugins::router::ROUTER_RSS,
            min_ports: 2,
            single_port_when_shared: false,
        });
        c
    }

    /// Register (or replace) a descriptor.
    pub fn register(&mut self, d: NnfDescriptor) {
        self.entries.insert(d.functional_type, d);
    }

    /// Look up a functional type.
    pub fn get(&self, functional_type: &str) -> Option<&NnfDescriptor> {
        self.entries.get(functional_type)
    }

    /// Instantiate the plugin for a functional type.
    pub fn instantiate(&self, functional_type: &str) -> Option<Box<dyn NnfPlugin>> {
        if !self.entries.contains_key(functional_type) {
            return None;
        }
        let plugin: Box<dyn NnfPlugin> = match functional_type {
            "ipsec" => Box::new(IpsecNnf::new()),
            "firewall" => Box::new(FirewallNnf::new()),
            "nat" => Box::new(NatNnf::new()),
            "bridge" => Box::new(BridgeNnf::new()),
            "router" => Box::new(RouterNnf::new()),
            _ => return None,
        };
        Some(plugin)
    }

    /// Iterate descriptors (node capability reporting).
    pub fn iter(&self) -> impl Iterator<Item = &NnfDescriptor> {
        self.entries.values()
    }

    /// Number of NNF types offered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_contents() {
        let c = NnfCatalog::standard();
        assert_eq!(c.len(), 5);
        let ipsec = c.get("ipsec").unwrap();
        assert!(!ipsec.multi_instance);
        assert!(!ipsec.sharable);
        assert_eq!(ipsec.package_bytes, 5_000_000);
        let nat = c.get("nat").unwrap();
        assert!(nat.sharable);
        assert!(nat.single_port_when_shared);
        assert!(c.get("firewall").unwrap().multi_instance);
        assert!(c.get("quantum").is_none());
    }

    #[test]
    fn instantiates_plugins() {
        let c = NnfCatalog::standard();
        for ft in ["ipsec", "firewall", "nat", "bridge", "router"] {
            let p = c.instantiate(ft).unwrap();
            assert_eq!(p.functional_type(), ft);
        }
        assert!(c.instantiate("dpi").is_none());
    }

    #[test]
    fn custom_registration() {
        let mut c = NnfCatalog::empty();
        assert!(c.is_empty());
        c.register(NnfDescriptor {
            functional_type: "dpi",
            multi_instance: true,
            sharable: false,
            package_bytes: 1,
            rss_bytes: 1,
            min_ports: 2,
            single_port_when_shared: false,
        });
        assert_eq!(c.len(), 1);
        assert!(c.get("dpi").is_some());
        // No factory for unknown plugins even if described.
        assert!(c.instantiate("dpi").is_none());
    }
}
