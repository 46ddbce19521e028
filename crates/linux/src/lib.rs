//! # un-linux — the simulated CPE kernel network stack
//!
//! The paper's whole premise is that a Linux-based CPE *already contains*
//! most of the network functions an NSP wants to deploy: iptables
//! (firewall/NAT), linuxbridge, the XFRM IPsec stack, policy routing.
//! A Native Network Function is nothing but a configuration of these
//! kernel objects inside a network namespace.
//!
//! This crate is that kernel, reproduced at the semantic level the paper
//! needs:
//!
//! * [`host::Host`] — one simulated machine: network namespaces, the
//!   packet pipeline, and an `ip`/`iptables`/`sysctl`-like config API.
//! * [`iface`] — loopback, veth pairs, bridges (with learning FDB),
//!   802.1Q sub-interfaces, and *external* ports that attach the host to
//!   the node fabric (LSI ports / taps). Neighbor resolution is real
//!   ARP with an incomplete-entry pending queue.
//! * [`route`] — LPM routing tables plus `ip rule` policy routing
//!   (fwmark → table), the mechanism the paper's *sharable NNFs* use to
//!   build "multiple internal paths".
//! * [`netfilter`] — the five-hook table/chain/rule engine (mangle/nat/
//!   filter subset) with marks and connection state matches.
//! * [`conntrack`] — connection tracking with SNAT/DNAT/MASQUERADE and
//!   conntrack *zones* for per-service-graph isolation.
//! * [`xfrm`] — kernel IPsec: per-namespace SAD/SPD glued to `un-ipsec`
//!   ESP tunnel processing (this is where the native and Docker flavors
//!   of the paper's Table 1 do their crypto).
//! * [`socket`] — minimal UDP/RAW sockets for the userspace daemons of
//!   the simulation (IKE-lite, iperf-like load generators, DHCP).
//!
//! Every data-path operation charges virtual time through the
//! [`un_sim::CostModel`], so end-to-end throughput measured across a
//! `Host` is meaningful.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod conntrack;
pub mod host;
pub mod iface;
pub mod netfilter;
pub mod route;
mod slots;
pub mod socket;
pub mod types;
pub mod xfrm;

pub use host::Host;
pub use iface::{IfaceId, IfaceKind};
pub use netfilter::{Chain, NfRule, NfTable, RuleMatch, Target};
pub use route::{IpRule, Route, RouteTable, MAIN_TABLE};
pub use socket::{Datagram, SocketId};
pub use types::{HostError, IoResult, NsId};
