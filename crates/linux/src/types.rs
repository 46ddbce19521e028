//! Shared identifiers, results and errors for the simulated kernel.

use std::fmt;

use un_packet::Packet;
use un_sim::Cost;

/// A network namespace handle (index into the host's namespace table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NsId(pub u32);

impl fmt::Display for NsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ns{}", self.0)
    }
}

/// Tag identifying an external attachment point (LSI port, tap, NIC).
/// Opaque to the host; meaningful to the node fabric.
pub type ExternalTag = u64;

/// What came out of injecting or sending traffic into a host.
#[derive(Debug, Default)]
pub struct IoResult {
    /// Frames emitted on external interfaces, in order.
    pub emitted: Vec<(ExternalTag, Packet)>,
    /// Virtual time charged for all processing performed.
    pub cost: Cost,
}

impl IoResult {
    /// Merge another result into this one.
    pub fn absorb(&mut self, other: IoResult) {
        self.emitted.extend(other.emitted);
        self.cost += other.cost;
    }
}

/// Errors from host configuration or socket operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// Referenced namespace does not exist.
    NoSuchNamespace(u32),
    /// Referenced interface does not exist.
    NoSuchIface(u32),
    /// Interface name already used in that namespace.
    IfaceNameInUse(String),
    /// Operation not valid for this interface kind.
    WrongIfaceKind(&'static str),
    /// Address/port already bound.
    AddrInUse(String),
    /// Referenced socket does not exist.
    NoSuchSocket(u32),
    /// No route to the destination.
    NoRoute(String),
    /// A bridge operation referenced a non-member interface.
    NotBridgeMember(u32),
    /// VLAN id already demuxed on that parent.
    VlanInUse(u16),
    /// The root namespace cannot be removed.
    RootNamespace,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NoSuchNamespace(id) => write!(f, "no such namespace ns{id}"),
            HostError::NoSuchIface(id) => write!(f, "no such interface if{id}"),
            HostError::IfaceNameInUse(n) => write!(f, "interface name '{n}' in use"),
            HostError::WrongIfaceKind(op) => {
                write!(f, "operation '{op}' invalid for this interface kind")
            }
            HostError::AddrInUse(a) => write!(f, "address in use: {a}"),
            HostError::NoSuchSocket(id) => write!(f, "no such socket {id}"),
            HostError::NoRoute(d) => write!(f, "no route to {d}"),
            HostError::NotBridgeMember(id) => write!(f, "if{id} is not a bridge member"),
            HostError::VlanInUse(v) => write!(f, "vlan {v} already configured on parent"),
            HostError::RootNamespace => write!(f, "the root namespace cannot be removed"),
        }
    }
}

impl std::error::Error for HostError {}
