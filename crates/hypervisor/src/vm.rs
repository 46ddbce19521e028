//! VM lifecycle and the virtio boundary around a guest.
//!
//! The guest is the NF's own kernel state behind the boundary: whoever
//! defines the VM hands [`Hypervisor::deliver`] the guest as a function
//! from `(NIC, frame)` to the guest's emissions and the time its kernel
//! and NF took. The hypervisor charges what a frame pays to get in and
//! out of the guest — ring copies, virtio descriptors, vmexits, and the
//! user/kernel crossings of an NF that runs in guest userspace (the
//! paper's strongSwan "executing in user space (i.e., in the process,
//! within the hypervisor, running the VM)") — and names nothing inside.

use std::collections::BTreeMap;
use std::fmt;

use un_packet::Packet;
use un_sim::mem::{mb, mb_f};
use un_sim::{AccountId, Cost, CostModel, MemLedger};

use crate::image::VmImageStore;
use crate::virtio::Virtqueue;

/// VM handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

/// VM lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Defined, not started.
    Created,
    /// Running.
    Running,
    /// Shut down.
    Stopped,
}

/// Hypervisor errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Disk image missing from the store.
    NoSuchImage(String),
    /// VM id unknown.
    NoSuchVm(u32),
    /// Invalid lifecycle transition.
    BadState {
        /// Attempted operation.
        op: &'static str,
        /// Current state.
        state: VmState,
    },
    /// NIC index out of range.
    NoSuchNic(usize),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoSuchImage(i) => write!(f, "no such disk image {i}"),
            VmError::NoSuchVm(v) => write!(f, "no such VM {v}"),
            VmError::BadState { op, state } => write!(f, "cannot {op} a VM in state {state:?}"),
            VmError::NoSuchNic(n) => write!(f, "no such NIC {n}"),
        }
    }
}

impl std::error::Error for VmError {}

#[derive(Debug)]
struct VirtioNic {
    rx: Virtqueue,
    tx: Virtqueue,
}

/// QEMU process overhead beyond guest RAM (device emulation, buffers),
/// MB. Together with the template's guest RAM this composes the paper's
/// 390.6 MB VM RAM figure.
pub const QEMU_OVERHEAD_MB: f64 = 70.6;

/// One virtual machine.
#[derive(Debug)]
pub struct Vm {
    /// Handle.
    pub id: VmId,
    /// Name.
    pub name: String,
    /// vCPU count (capacity accounting).
    pub vcpus: u32,
    /// Guest RAM in MB.
    pub mem_mb: u64,
    /// Disk image name.
    pub image: String,
    /// Lifecycle state.
    pub state: VmState,
    /// Memory account.
    pub account: AccountId,
    nics: Vec<VirtioNic>,
    /// Packets the guest processed.
    pub rx_packets: u64,
    /// Packets the guest emitted.
    pub tx_packets: u64,
    /// Packets dropped (not running, no such NIC, ring full).
    pub dropped: u64,
}

/// Result of pushing a packet through a VM.
#[derive(Debug, Default)]
pub struct VmIo {
    /// (nic index, packet) emissions.
    pub outputs: Vec<(usize, Packet)>,
    /// Virtual time charged.
    pub cost: Cost,
}

impl Vm {
    /// Virtqueue statistics of a NIC: (kicks, ring-full drops).
    pub fn nic_stats(&self, nic: usize) -> Option<(u64, u64)> {
        self.nics.get(nic).map(|n| {
            (
                n.rx.kicks + n.tx.kicks,
                n.rx.ring_full_drops + n.tx.ring_full_drops,
            )
        })
    }

    /// Carry a frame from the host side into `nic`, through `guest`, and
    /// back out: ring copy in, vmexit, the guest NF's crossing and copy
    /// in, the guest's own work, its crossing out, then per emission the
    /// copies to the tx ring and a vmexit.
    fn deliver<G>(&mut self, nic: usize, pkt: Packet, costs: &CostModel, guest: G) -> VmIo
    where
        G: FnOnce(usize, Packet) -> (Vec<(usize, Packet)>, Cost),
    {
        let mut io = VmIo::default();
        if self.state != VmState::Running || nic >= self.nics.len() {
            self.dropped += 1;
            return io;
        }
        let len = pkt.len();

        // Host: copy into the rx ring, kick → vmexit.
        io.cost += costs.copy(len);
        io.cost += Cost::from_nanos(costs.virtio_descriptor_ns);
        let kicked = self.nics[nic].rx.push(pkt);
        if kicked {
            io.cost += Cost::from_nanos(costs.vmexit_ns);
        }
        let Some(pkt) = self.nics[nic].rx.pop() else {
            self.dropped += 1;
            return io;
        };
        self.rx_packets += 1;

        // The guest NF in userspace: crossing + copy in, the guest's
        // kernel and NF, crossing out.
        io.cost += Cost::from_nanos(costs.user_kernel_crossing_ns);
        io.cost += costs.copy(len);
        let (outputs, work) = guest(nic, pkt);
        io.cost += work;
        io.cost += Cost::from_nanos(costs.user_kernel_crossing_ns);

        // Guest tx: copy out of userspace + ring + kick per packet.
        for (out_nic, out_pkt) in outputs {
            if out_nic >= self.nics.len() {
                self.dropped += 1;
                continue;
            }
            let out_len = out_pkt.len();
            io.cost += costs.copy(out_len); // user → kernel
            io.cost += costs.copy(out_len); // kernel → tx ring
            io.cost += Cost::from_nanos(costs.virtio_descriptor_ns);
            let kicked = self.nics[out_nic].tx.push(out_pkt);
            if kicked {
                io.cost += Cost::from_nanos(costs.vmexit_ns);
            }
            if let Some(p) = self.nics[out_nic].tx.pop() {
                self.tx_packets += 1;
                io.outputs.push((out_nic, p));
            }
        }
        io
    }
}

/// The hypervisor: image store + VM table.
#[derive(Debug, Default)]
pub struct Hypervisor {
    /// Disk images.
    pub images: VmImageStore,
    vms: BTreeMap<u32, Vm>,
    next_id: u32,
}

impl Hypervisor {
    /// A hypervisor with an empty image store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a VM with `nic_count` virtio NICs. The disk image must
    /// exist.
    #[allow(clippy::too_many_arguments)]
    pub fn create_vm(
        &mut self,
        name: &str,
        image: &str,
        vcpus: u32,
        mem_mb: u64,
        nic_count: usize,
        ledger: &mut MemLedger,
        parent_account: AccountId,
    ) -> Result<VmId, VmError> {
        if self.images.get(image).is_none() {
            return Err(VmError::NoSuchImage(image.to_string()));
        }
        let id = VmId(self.next_id);
        self.next_id += 1;
        let account = ledger.create_account(&format!("vm:{name}"), Some(parent_account));
        let nics = (0..nic_count)
            .map(|_| VirtioNic {
                rx: Virtqueue::new(),
                tx: Virtqueue::new(),
            })
            .collect();
        self.vms.insert(
            id.0,
            Vm {
                id,
                name: name.to_string(),
                vcpus,
                mem_mb,
                image: image.to_string(),
                state: VmState::Created,
                account,
                nics,
                rx_packets: 0,
                tx_packets: 0,
                dropped: 0,
            },
        );
        Ok(id)
    }

    /// Boot a VM: allocates guest RAM + hypervisor process overhead.
    pub fn start(&mut self, id: VmId, ledger: &mut MemLedger) -> Result<(), VmError> {
        let vm = self.vms.get_mut(&id.0).ok_or(VmError::NoSuchVm(id.0))?;
        match vm.state {
            VmState::Created | VmState::Stopped => {
                ledger
                    .alloc(vm.account, "guest-ram", mb(vm.mem_mb))
                    .expect("account alive");
                ledger
                    .alloc(vm.account, "qemu-process", mb_f(QEMU_OVERHEAD_MB))
                    .expect("account alive");
                vm.state = VmState::Running;
                Ok(())
            }
            s => Err(VmError::BadState {
                op: "start",
                state: s,
            }),
        }
    }

    /// Shut a VM down: releases its RAM.
    pub fn stop(&mut self, id: VmId, ledger: &mut MemLedger) -> Result<(), VmError> {
        let vm = self.vms.get_mut(&id.0).ok_or(VmError::NoSuchVm(id.0))?;
        match vm.state {
            VmState::Running => {
                ledger
                    .free(vm.account, "guest-ram", mb(vm.mem_mb))
                    .expect("allocated at start");
                ledger
                    .free(vm.account, "qemu-process", mb_f(QEMU_OVERHEAD_MB))
                    .expect("allocated at start");
                vm.state = VmState::Stopped;
                Ok(())
            }
            s => Err(VmError::BadState {
                op: "stop",
                state: s,
            }),
        }
    }

    /// Undefine a VM that does not run.
    pub fn destroy(&mut self, id: VmId) -> Result<Vm, VmError> {
        match self.vms.get(&id.0) {
            None => Err(VmError::NoSuchVm(id.0)),
            Some(vm) if vm.state == VmState::Running => Err(VmError::BadState {
                op: "destroy",
                state: vm.state,
            }),
            Some(_) => Ok(self.vms.remove(&id.0).unwrap()),
        }
    }

    /// Access a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id.0)
    }

    /// Deliver a frame to a VM NIC; `guest` is what runs inside. A frame
    /// for an unknown VM, one that is not running or a NIC it does not
    /// have never reaches the guest.
    pub fn deliver<G>(
        &mut self,
        id: VmId,
        nic: usize,
        pkt: Packet,
        costs: &CostModel,
        guest: G,
    ) -> VmIo
    where
        G: FnOnce(usize, Packet) -> (Vec<(usize, Packet)>, Cost),
    {
        match self.vms.get_mut(&id.0) {
            Some(vm) => vm.deliver(nic, pkt, costs, guest),
            None => VmIo::default(),
        }
    }

    /// Number of defined VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// True if no VMs are defined.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }
}

#[cfg(test)]
mod tests;
