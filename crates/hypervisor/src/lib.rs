//! # un-hypervisor — the KVM/QEMU-like VM substrate
//!
//! Models the properties of the VM flavor that the paper's Table 1
//! blames for its cost:
//!
//! * **Data plane**: every packet crosses the virtualization boundary —
//!   tap → virtio ring (copy) → vmexit/interrupt → guest kernel →
//!   guest *userspace* (the paper's strongSwan-in-a-VM does its IPsec in
//!   the process running inside the VM) → back. That is 4 extra copies,
//!   2 vmexits and 2 guest user/kernel crossings per packet compared to
//!   the host-kernel flavors — the structural reason the paper measures
//!   796 vs ~1095 Mbps.
//! * **Footprint**: a full guest (kernel + userspace) lives in RAM next
//!   to the hypervisor process, and the disk image carries an entire
//!   OS (522 MB vs Docker's 240 MB layers vs the 5 MB native package).
//!
//! The guest itself is the NF's own kernel state behind that boundary,
//! handed in by whoever defines the VM: this crate charges the boundary
//! and names nothing inside it.
//!
//! [`virtio`] implements split-ring virtqueues with kick accounting;
//! [`image`] the monolithic disk-image store; [`vm`] the VM lifecycle
//! and the boundary a frame crosses into and out of the guest.

#![forbid(unsafe_code)]
#![deny(warnings)]

pub mod image;
pub mod virtio;
pub mod vm;

pub use image::{DiskImage, VmImageStore};
pub use virtio::{Virtqueue, VIRTQUEUE_SIZE};
pub use vm::{Hypervisor, Vm, VmError, VmId, VmState};
