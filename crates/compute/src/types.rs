//! The data the driver abstraction ([`crate::ComputeDriver`]) and the
//! compute manager speak in.

use std::fmt;
use std::iter::Take;
use std::vec::Drain;

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

/// How to realize an NF in a specific technology — the repository entry
/// the resolver picks from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlavorSpec {
    /// A VM flavor: its guest runs the functional type's NNF instance.
    Vm {
        /// Disk image name (must exist in the hypervisor store).
        image: String,
        /// vCPUs.
        vcpus: u32,
        /// Guest RAM in MB.
        mem_mb: u64,
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
    /// A native flavor (details come from the type's repository row).
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

/// One burst's crossing of an NF boundary, flat, in buffers the caller
/// owns and hands in clear: every frame the instance emitted, in order,
/// and per input frame where its outputs end and the time it was
/// charged. Drivers fill it; the caller reads it back with
/// [`Crossing::drain_frames`]. The buffers keep their capacity from
/// burst to burst, so a warm crossing allocates nothing here.
#[derive(Debug, Default)]
pub struct Crossing {
    /// `(instance port, frame)` for every frame emitted, in order. A
    /// port is as wide as the host's external tag, so a sandbox rebases
    /// what its host emitted in place.
    pub(crate) outputs: Vec<(u64, Packet)>,
    /// Per input frame, in order: `outputs.len()` once its outputs are
    /// in, and its cost. Never decreasing, never past `outputs.len()`.
    pub(crate) ends: Vec<(usize, Cost)>,
}

impl Crossing {
    /// Close the current input frame: its outputs are everything pushed
    /// since the previous close.
    pub(crate) fn end_frame(&mut self, cost: Cost) {
        self.ends.push((self.outputs.len(), cost));
    }

    /// Drain `frames` as frames no instance took: each ends with no
    /// output at no cost.
    pub(crate) fn refuse(&mut self, frames: &mut Vec<(u32, Packet)>) {
        for _ in frames.drain(..) {
            self.end_frame(Cost::ZERO);
        }
    }

    /// True when neither buffer holds anything.
    pub fn is_clear(&self) -> bool {
        self.outputs.is_empty() && self.ends.is_empty()
    }

    /// Drain both buffers input frame by input frame, in order: `each`
    /// gets a frame's cost and its outputs. Both buffers are left
    /// clear, with their capacity.
    pub fn drain_frames(
        &mut self,
        mut each: impl FnMut(Cost, Take<&mut Drain<'_, (u64, Packet)>>),
    ) {
        let mut outputs = self.outputs.drain(..);
        let mut start = 0;
        for (end, cost) in self.ends.drain(..) {
            each(cost, outputs.by_ref().take(end - start));
            start = end;
        }
        debug_assert_eq!(outputs.len(), 0, "an output past the last end");
    }

    /// The owning form: one [`IoOutcome`] per input frame, in order.
    pub fn into_outcomes(mut self) -> Vec<IoOutcome> {
        let mut per_frame = Vec::with_capacity(self.ends.len());
        self.drain_frames(|cost, mine| {
            let outputs = mine.map(|(port, p)| (port as u32, p)).collect();
            per_frame.push(IoOutcome { outputs, cost });
        });
        per_frame
    }
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
    /// The repository has no native implementation of this type.
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
