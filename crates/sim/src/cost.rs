//! The calibrated cost model.
//!
//! Every packet-processing component in the workspace charges virtual time
//! through a [`CostModel`]. This module is the **single source of absolute
//! numbers** in the reproduction: the Table 1 harness divides bytes
//! delivered by virtual time elapsed, so throughput is fully determined by
//! these constants plus the *structure* of each flavor's packet path
//! (how many copies, domain crossings and crypto passes it makes).
//!
//! The constants are order-of-magnitude calibrated from public
//! microbenchmarks of the era the paper targets (low-cost CPE-class x86):
//!
//! * AEAD crypto at a handful of ns/byte — kernel `chacha20poly1305` and
//!   AES-CBC+HMAC on CPEs without AES-NI land in the 5–10 ns/B range;
//!   ~6 ns/B puts a ~1500 B-frame ESP path at ≈1.09 Gbps, the scale the
//!   paper measured for the Docker/native flavors.
//! * A vmexit/vmentry round trip costs on the order of a microsecond once
//!   cache effects are counted; virtio-net pays one notification per burst
//!   plus descriptor processing per packet.
//! * A memory copy streams at several GB/s → fractions of a ns per byte.
//! * Netfilter hooks, route lookups and bridge FDB lookups are tens of ns
//!   each on warm caches.
//!
//! The *shape* of Table 1 (VM ≪ Docker ≈ Native) is robust to the exact
//! values: the VM path structurally pays 4 extra copies, 2 vmexits and 2
//! guest user/kernel crossings per packet that the host-kernel flavors
//! cannot incur. `tests/flavors_table1.rs` pins measured-vs-paper numbers.

use crate::time::SimDuration;

/// A charge of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Cost(pub SimDuration);

impl Cost {
    /// A free operation.
    pub const ZERO: Cost = Cost(SimDuration::ZERO);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Cost(SimDuration::from_nanos(ns))
    }

    /// The underlying duration.
    pub const fn duration(self) -> SimDuration {
        self.0
    }

    /// Nanoseconds charged.
    pub const fn as_nanos(self) -> u64 {
        self.0.as_nanos()
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

/// A linear per-operation cost: `fixed + per_byte * len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCost {
    /// Fixed nanoseconds per invocation.
    pub fixed_ns: u64,
    /// Additional nanoseconds per byte processed.
    pub per_byte_ns: f64,
}

impl LinearCost {
    /// A fixed-only cost.
    pub const fn fixed(ns: u64) -> Self {
        LinearCost {
            fixed_ns: ns,
            per_byte_ns: 0.0,
        }
    }

    /// Evaluate for a payload of `len` bytes.
    pub fn eval(&self, len: usize) -> Cost {
        let bytes = (self.per_byte_ns * len as f64).round() as u64;
        Cost::from_nanos(self.fixed_ns + bytes)
    }
}

/// The calibrated cost constants for every simulated mechanism.
///
/// Obtain the defaults with [`CostModel::default`]; tests that want a
/// degenerate model (e.g. everything free, to isolate logic from timing)
/// can use [`CostModel::free`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ---- crypto ----
    /// AEAD seal/open (ChaCha20-Poly1305) executed in *kernel* context.
    pub aead: LinearCost,
    /// Extra penalty multiplier context for AEAD in *userspace* of a guest:
    /// same algorithmic cost, but the data must be copied in and out of the
    /// process (charged separately via `copy`).
    pub aead_user: LinearCost,
    /// SHA-256/HMAC (per byte) for control-plane authentication.
    pub hmac: LinearCost,

    // ---- memory movement & domain crossings ----
    /// One memcpy of packet data (per copy).
    pub copy: LinearCost,
    /// One vmexit + vmentry round trip (virtio kick or interrupt injection).
    pub vmexit_ns: u64,
    /// One user↔kernel crossing (syscall-ish) inside a guest or host.
    pub user_kernel_crossing_ns: u64,
    /// Per-descriptor virtio ring processing (avail/used bookkeeping).
    pub virtio_descriptor_ns: u64,
    /// Crossing a veth pair (softirq handoff between namespaces).
    pub veth_crossing_ns: u64,
    /// Tap device read/write (host side of a VM port).
    pub tap_ns: u64,

    // ---- kernel stack ----
    /// Traversing one netfilter hook with an empty chain.
    pub netfilter_hook_ns: u64,
    /// Evaluating one netfilter rule.
    pub netfilter_rule_ns: u64,
    /// One LPM route lookup.
    pub route_lookup_ns: u64,
    /// One policy-routing (`ip rule`) evaluation pass.
    pub ip_rule_ns: u64,
    /// Bridge FDB lookup + learn.
    pub bridge_fdb_ns: u64,
    /// Conntrack lookup on an established flow.
    pub conntrack_lookup_ns: u64,
    /// Creating a new conntrack entry (incl. NAT setup).
    pub conntrack_new_ns: u64,
    /// XFRM policy+state lookup.
    pub xfrm_lookup_ns: u64,
    /// IP header processing (validation, checksum, TTL).
    pub ip_processing_ns: u64,
    /// UDP/TCP header processing + socket demux.
    pub l4_processing_ns: u64,

    // ---- switching ----
    /// Flow-table lookup, slow path (linear masked match).
    pub flow_lookup_ns: u64,
    /// Flow-table lookup, cached exact-match fast path.
    pub flow_cache_hit_ns: u64,
    /// Flow-table lookup served by a hash-bucketed exact-match table
    /// (slower than the microflow cache, far cheaper than the scan).
    pub flow_exact_hit_ns: u64,
    /// Flow-table lookup served by a mask-aware megaflow table: one
    /// hash probe per distinct wildcard mask (pricier than one exact
    /// probe, far cheaper than the linear scan it replaces).
    pub flow_megaflow_hit_ns: u64,
    /// Applying one flow action (output/set-field).
    pub flow_action_ns: u64,
    /// VLAN push or pop.
    pub vlan_op_ns: u64,
    /// Crossing a virtual link between two LSIs.
    pub virtual_link_ns: u64,

    // ---- DPDK-style userspace I/O ----
    /// Per-packet cost of a poll-mode driver burst slot (no interrupts,
    /// no syscalls; this is why DPDK VNFs are fast but burn a core).
    pub pmd_per_packet_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            aead: LinearCost {
                fixed_ns: 350,
                per_byte_ns: 6.0,
            },
            aead_user: LinearCost {
                fixed_ns: 350,
                per_byte_ns: 6.0,
            },
            hmac: LinearCost {
                fixed_ns: 200,
                per_byte_ns: 3.1,
            },
            copy: LinearCost {
                fixed_ns: 40,
                per_byte_ns: 0.25,
            },
            vmexit_ns: 1_200,
            user_kernel_crossing_ns: 300,
            virtio_descriptor_ns: 120,
            veth_crossing_ns: 290,
            tap_ns: 260,
            netfilter_hook_ns: 45,
            netfilter_rule_ns: 25,
            route_lookup_ns: 85,
            ip_rule_ns: 40,
            bridge_fdb_ns: 60,
            conntrack_lookup_ns: 120,
            conntrack_new_ns: 420,
            xfrm_lookup_ns: 110,
            ip_processing_ns: 70,
            l4_processing_ns: 90,
            flow_lookup_ns: 160,
            flow_cache_hit_ns: 55,
            flow_exact_hit_ns: 75,
            flow_megaflow_hit_ns: 95,
            flow_action_ns: 25,
            vlan_op_ns: 30,
            virtual_link_ns: 90,
            pmd_per_packet_ns: 55,
        }
    }
}

impl CostModel {
    /// A model where everything is free. Useful in unit tests that verify
    /// pure logic (matching, NAT, isolation) without timing concerns.
    pub fn free() -> Self {
        CostModel {
            aead: LinearCost::fixed(0),
            aead_user: LinearCost::fixed(0),
            hmac: LinearCost::fixed(0),
            copy: LinearCost::fixed(0),
            vmexit_ns: 0,
            user_kernel_crossing_ns: 0,
            virtio_descriptor_ns: 0,
            veth_crossing_ns: 0,
            tap_ns: 0,
            netfilter_hook_ns: 0,
            netfilter_rule_ns: 0,
            route_lookup_ns: 0,
            ip_rule_ns: 0,
            bridge_fdb_ns: 0,
            conntrack_lookup_ns: 0,
            conntrack_new_ns: 0,
            xfrm_lookup_ns: 0,
            ip_processing_ns: 0,
            l4_processing_ns: 0,
            flow_lookup_ns: 0,
            flow_cache_hit_ns: 0,
            flow_exact_hit_ns: 0,
            flow_megaflow_hit_ns: 0,
            flow_action_ns: 0,
            vlan_op_ns: 0,
            virtual_link_ns: 0,
            pmd_per_packet_ns: 0,
        }
    }

    /// AEAD in kernel context for `len` payload bytes.
    pub fn aead_kernel(&self, len: usize) -> Cost {
        self.aead.eval(len)
    }

    /// AEAD in guest-userspace context for `len` payload bytes: the
    /// algorithm costs the same, but the caller must additionally charge
    /// the copies in/out of the process and the crossings (see
    /// `un-hypervisor`).
    pub fn aead_userspace(&self, len: usize) -> Cost {
        self.aead_user.eval(len)
    }

    /// One packet-data copy of `len` bytes.
    pub fn copy(&self, len: usize) -> Cost {
        self.copy.eval(len)
    }

    /// Fixed-cost helper.
    pub fn fixed(&self, ns: u64) -> Cost {
        Cost::from_nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_cost_evaluates() {
        let c = LinearCost {
            fixed_ns: 100,
            per_byte_ns: 2.0,
        };
        assert_eq!(c.eval(0).as_nanos(), 100);
        assert_eq!(c.eval(10).as_nanos(), 120);
    }

    #[test]
    fn cost_addition() {
        let a = Cost::from_nanos(5);
        let b = Cost::from_nanos(7);
        assert_eq!((a + b).as_nanos(), 12);
        let total: Cost = [a, b, Cost::from_nanos(1)].into_iter().sum();
        assert_eq!(total.as_nanos(), 13);
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.aead_kernel(1500).as_nanos(), 0);
        assert_eq!(m.copy(1500).as_nanos(), 0);
        assert_eq!(m.vmexit_ns, 0);
    }

    #[test]
    fn default_model_native_path_is_gbps_scale() {
        // Sanity: AEAD-dominated kernel path for a 1400B payload should be
        // on the order of 10us/packet => ~1 Gbps, the paper's scale.
        let m = CostModel::default();
        let per_packet = m.aead_kernel(1400).as_nanos();
        assert!(per_packet > 5_000 && per_packet < 20_000, "{per_packet}");
    }

    #[test]
    fn vm_path_structurally_slower() {
        // The VM flavor pays at least 4 copies + 2 vmexits + 2 crossings
        // more than the native flavor for the same packet.
        let m = CostModel::default();
        let extra = m.copy(1500).as_nanos() * 4 + m.vmexit_ns * 2 + m.user_kernel_crossing_ns * 2;
        assert!(extra > 3_000, "VM overhead should be us-scale, got {extra}");
    }
}
