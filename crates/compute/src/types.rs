//! The data the driver abstraction ([`crate::ComputeDriver`]) and the
//! compute manager speak in.

use std::fmt;

use un_packet::Packet;
use un_sim::Cost;

/// An NF instance handle, unique per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nf{}", self.0)
    }
}

/// Execution technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// KVM/QEMU virtual machine.
    Vm,
    /// Docker container.
    Docker,
    /// DPDK poll-mode userspace process.
    Dpdk,
    /// Native network function.
    Native,
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flavor::Vm => "vm",
            Flavor::Docker => "docker",
            Flavor::Dpdk => "dpdk",
            Flavor::Native => "native",
        };
        f.write_str(s)
    }
}

impl Flavor {
    /// Parse a flavor name (as used in NF-FG `flavor` hints).
    pub fn parse(s: &str) -> Option<Flavor> {
        match s {
            "vm" => Some(Flavor::Vm),
            "docker" => Some(Flavor::Docker),
            "dpdk" => Some(Flavor::Dpdk),
            "native" => Some(Flavor::Native),
            _ => None,
        }
    }
}

/// What runs inside a VM for a given functional type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestAppKind {
    /// strongSwan in guest userspace (the paper's VM workload).
    IpsecUserspace,
    /// Generic transparent middlebox.
    L2Forward,
}

/// How to realize an NF in a specific technology — the repository entry
/// the resolver picks from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlavorSpec {
    /// A VM flavor.
    Vm {
        /// Disk image name (must exist in the hypervisor store).
        image: String,
        /// vCPUs.
        vcpus: u32,
        /// Guest RAM in MB.
        mem_mb: u64,
        /// Guest workload.
        app: GuestAppKind,
    },
    /// A Docker flavor.
    Docker {
        /// Image repository name.
        image: String,
        /// Image tag.
        tag: String,
        /// Entrypoint RSS in bytes.
        process_rss: u64,
    },
    /// A DPDK process flavor.
    Dpdk {
        /// Dedicated cores (each pins one).
        cores: u32,
        /// Hugepage memory in MB.
        hugepages_mb: u64,
    },
    /// A native flavor (details come from the NNF catalogue).
    Native,
}

impl FlavorSpec {
    /// The technology of this spec.
    pub fn flavor(&self) -> Flavor {
        match self {
            FlavorSpec::Vm { .. } => Flavor::Vm,
            FlavorSpec::Docker { .. } => Flavor::Docker,
            FlavorSpec::Dpdk { .. } => Flavor::Dpdk,
            FlavorSpec::Native => Flavor::Native,
        }
    }
}

/// Result of delivering one packet to an instance port.
#[derive(Debug, Default)]
pub struct IoOutcome {
    /// Packets emitted on instance ports, in order.
    pub outputs: Vec<(u32, Packet)>,
    /// Virtual time charged.
    pub cost: Cost,
}

/// Compute-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputeError {
    /// No such instance.
    NoSuchInstance(u64),
    /// The requested technology cannot realize this NF.
    Unsupported(String),
    /// The underlying substrate failed.
    Substrate(String),
    /// Lifecycle misuse.
    BadState(&'static str),
    /// The NNF catalogue does not offer this functional type.
    NoSuchNnf(String),
    /// Single-instance NNF already in use and not sharable.
    NnfBusy(String),
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::NoSuchInstance(i) => write!(f, "no such instance nf{i}"),
            ComputeError::Unsupported(s) => write!(f, "unsupported: {s}"),
            ComputeError::Substrate(s) => write!(f, "substrate error: {s}"),
            ComputeError::BadState(s) => write!(f, "lifecycle misuse: {s}"),
            ComputeError::NoSuchNnf(s) => write!(f, "no native implementation of '{s}'"),
            ComputeError::NnfBusy(s) => write!(f, "NNF '{s}' already in use and not sharable"),
        }
    }
}

impl std::error::Error for ComputeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_parse_display_roundtrip() {
        for f in [Flavor::Vm, Flavor::Docker, Flavor::Dpdk, Flavor::Native] {
            assert_eq!(Flavor::parse(&f.to_string()), Some(f));
        }
        assert_eq!(Flavor::parse("unikernel"), None);
    }

    #[test]
    fn spec_flavor_mapping() {
        assert_eq!(FlavorSpec::Native.flavor(), Flavor::Native);
        assert_eq!(
            FlavorSpec::Dpdk {
                cores: 1,
                hugepages_mb: 64
            }
            .flavor(),
            Flavor::Dpdk
        );
    }
}
