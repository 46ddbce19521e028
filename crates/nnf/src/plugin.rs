//! The NNF plugin abstraction.
//!
//! A plugin drives one native function *instance*: it configures kernel
//! objects (XFRM, iptables, bridges, routes) inside the network
//! namespace the NNF driver created for it. Sharable plugins
//! additionally accept per-service-graph *bindings* carrying the mark /
//! VLAN / conntrack-zone triple the adaptation layer assigned.

use std::fmt;

use un_linux::{Host, IfaceId, NsId};
use un_nffg::NfConfig;
use un_sim::{AccountId, MemLedger};

/// Everything a plugin needs to touch the node.
pub struct NnfContext<'a> {
    /// The CPE's kernel.
    pub host: &'a mut Host,
    /// The namespace the driver created for this NNF instance.
    pub ns: NsId,
    /// Memory ledger for RSS accounting.
    pub ledger: &'a mut MemLedger,
    /// This instance's memory account.
    pub account: AccountId,
}

/// Per-graph identifiers assigned by the adaptation layer when a
/// sharable NNF serves multiple service graphs through one attachment
/// port (paper §2: marking + multiple internal paths).
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
    /// Function-specific addressing/config for this graph (e.g.
    /// `lan-addr`, `wan-addr`, `wan-gw` for the NAT NNF).
    pub params: std::collections::BTreeMap<String, String>,
}

/// Plugin failures.
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
    /// The plugin needed more ports than the driver attached.
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
    /// This plugin is not sharable but a second binding was requested.
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

/// One native network function instance.
///
/// Lifecycle: `start` (configure kernel objects for the given ports and
/// config) → zero or more `bind_graph`/`unbind_graph` (sharable only) →
/// `stop` (tear everything down). The driver guarantees `start` is
/// called exactly once before any other method.
///
/// There is no in-place update. A changed NF config is a structural
/// change of the graph (`un_nffg::diff`): the node undeploys the graph
/// and deploys it again, so a fresh instance starts from the new
/// config. Re-running a config over a live
/// namespace would duplicate what is already there (a second SPD entry,
/// repeated routes) and re-install PSK-derived SAs with their sequence
/// numbers back at zero — a nonce reused under the same key.
pub trait NnfPlugin: Send {
    /// The functional type this plugin implements (`"ipsec"`, …).
    fn functional_type(&self) -> &'static str;

    /// Bring the function up inside the namespace.
    ///
    /// `ports` are interfaces the driver created in the namespace, in NF
    /// port order (port 0 first).
    fn start(
        &mut self,
        ctx: &mut NnfContext<'_>,
        ports: &[IfaceId],
        config: &NfConfig,
    ) -> Result<(), NnfError>;

    /// Attach one more service graph to a *sharable* instance.
    fn bind_graph(
        &mut self,
        _ctx: &mut NnfContext<'_>,
        _binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        Err(NnfError::NotSharable)
    }

    /// Detach a service graph from a sharable instance.
    fn unbind_graph(
        &mut self,
        _ctx: &mut NnfContext<'_>,
        _binding: &GraphBinding,
    ) -> Result<(), NnfError> {
        Err(NnfError::NotSharable)
    }

    /// Tear the function down (kernel objects, daemon memory).
    fn stop(&mut self, ctx: &mut NnfContext<'_>) -> Result<(), NnfError>;
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
