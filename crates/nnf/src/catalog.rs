//! The node's NNF catalogue.
//!
//! This is the information the paper's orchestrator consults when
//! deciding whether to deploy an NF as a native component: which NNFs
//! the node offers, whether each can run multiple instances, whether a
//! single instance is *sharable* across service graphs, and what it
//! costs (native package size, daemon RSS). A descriptor is the only
//! owner of those facts: an [`NnfInstance`] reads its port minimum and
//! RSS from the descriptor it was built from.

use std::collections::BTreeMap;

use crate::plugin::{NnfError, NnfInstance};
use crate::translate;

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
    /// Fewest ports a dedicated instance starts on. A shared instance
    /// starts on its one attachment port whatever this says.
    pub min_ports: usize,
}

/// The catalogue: functional type → descriptor.
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
    ///   not sharable. 5 MB package; the charon daemon's 19.4 MB RSS is,
    ///   with its in-kernel state, Table 1's native row.
    /// * `nat` — iptables MASQUERADE: single instance per namespace but
    ///   *sharable* via marks/zones/tables through one port.
    /// * `firewall`, `bridge`, `router` — multi-instance (kernel state
    ///   is per-namespace). They run no daemon: their RSS is the
    ///   bookkeeping of the tooling that manages rules, bridges, routes.
    pub fn standard() -> Self {
        let mut c = Self::empty();
        c.register(NnfDescriptor {
            functional_type: "ipsec",
            multi_instance: false,
            sharable: false,
            package_bytes: 5_000_000,
            rss_bytes: 19_400_000,
            min_ports: 2,
        });
        c.register(NnfDescriptor {
            functional_type: "nat",
            multi_instance: false,
            sharable: true,
            package_bytes: 1_200_000,
            rss_bytes: 700_000,
            min_ports: 2,
        });
        c.register(NnfDescriptor {
            functional_type: "firewall",
            multi_instance: true,
            sharable: false,
            package_bytes: 1_200_000,
            rss_bytes: 900_000,
            min_ports: 2,
        });
        c.register(NnfDescriptor {
            functional_type: "bridge",
            multi_instance: true,
            sharable: false,
            package_bytes: 800_000,
            rss_bytes: 300_000,
            min_ports: 2,
        });
        c.register(NnfDescriptor {
            functional_type: "router",
            multi_instance: true,
            sharable: false,
            package_bytes: 900_000,
            rss_bytes: 400_000,
            min_ports: 2,
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

    /// An instance of a described type, running the program
    /// [`translate`](crate::translate()) has for it, or a `shared` one.
    /// A type not described or with no program is a bad `functional-type`,
    /// and a shared instance of a type not sharable is refused with
    /// [`NnfError::NotSharable`].
    pub fn instantiate(
        &self,
        functional_type: &str,
        shared: bool,
    ) -> Result<NnfInstance, NnfError> {
        let program = translate::program(functional_type)?;
        let descriptor = self
            .get(functional_type)
            .ok_or_else(|| translate::unknown(functional_type))?;
        if shared && !descriptor.sharable {
            return Err(NnfError::NotSharable);
        }
        Ok(NnfInstance::new(descriptor.clone(), program, shared))
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
        assert!(c.get("firewall").unwrap().multi_instance);
        assert!(c.get("quantum").is_none());
    }

    #[test]
    fn instantiates_plugins() {
        let c = NnfCatalog::standard();
        for ft in ["ipsec", "firewall", "nat", "bridge", "router"] {
            let p = c.instantiate(ft, false).unwrap();
            assert_eq!(p.functional_type(), ft);
        }
        assert!(c.instantiate("dpi", false).is_err());
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
        });
        assert_eq!(c.len(), 1);
        assert!(c.get("dpi").is_some());
        // No instance of a type translate has no program for, even if
        // described.
        assert!(c.instantiate("dpi", false).is_err());
    }
}
