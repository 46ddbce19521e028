//! VM lifecycle, virtio NICs, and guest applications.
//!
//! The guest application for the paper's headline experiment is
//! [`UserspaceIpsecApp`]: strongSwan running *inside the VM process*,
//! which is exactly the configuration the paper measured ("the IPsec
//! functionalities executing in user space (i.e., in the process, within
//! the hypervisor, running the VM)").

use std::collections::BTreeMap;
use std::fmt;

use un_ipsec::esp;
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, Spd};
use un_packet::ethernet::{EtherType, EthernetFrame, MacAddr, ETHERNET_HEADER_LEN};
use un_packet::ipv4::{IpProtocol, Ipv4Packet, IPV4_HEADER_LEN};
use un_packet::packet::DEFAULT_HEADROOM;
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
    /// Paused (packets dropped).
    Paused,
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

/// strongSwan-in-a-VM: userspace ESP tunnel processing.
///
/// NIC 0 faces the plaintext (LAN) side, NIC 1 the ciphertext (WAN)
/// side. Outbound traffic matching the SPD is encapsulated under
/// `sa_out`; inbound ESP is decapsulated under `sa_in`.
#[derive(Debug)]
pub struct UserspaceIpsecApp {
    /// Outbound SA.
    pub sa_out: Option<SecurityAssociation>,
    /// Inbound SA.
    pub sa_in: Option<SecurityAssociation>,
    /// Outbound policies (Protect selectors).
    pub spd: Spd,
    /// Packets transformed.
    pub processed: u64,
    /// Packets dropped (no SA, auth failure…).
    pub errors: u64,
}

impl UserspaceIpsecApp {
    /// An app with no SAs yet (installed by the control plane).
    pub fn new() -> Self {
        UserspaceIpsecApp {
            sa_out: None,
            sa_in: None,
            spd: Spd::new(),
            processed: 0,
            errors: 0,
        }
    }
}

impl Default for UserspaceIpsecApp {
    fn default() -> Self {
        Self::new()
    }
}

/// What runs inside the guest.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum GuestApp {
    /// Userspace IPsec endpoint (the paper's VM workload).
    UserspaceIpsec(UserspaceIpsecApp),
    /// Transparent bidirectional forwarder between NIC 0 and NIC 1
    /// (a generic middlebox VNF: the packet crosses the VM boundary and
    /// guest kernel but is not otherwise touched).
    L2Forward,
    /// Bounce frames back out the NIC they arrived on (diagnostics).
    Reflector,
}

#[derive(Debug)]
struct VirtioNic {
    mac: MacAddr,
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
    /// The guest workload.
    pub app: GuestApp,
    /// Memory account.
    pub account: AccountId,
    nics: Vec<VirtioNic>,
    /// Packets the guest processed.
    pub rx_packets: u64,
    /// Packets the guest emitted.
    pub tx_packets: u64,
    /// Packets dropped (not running, ring full).
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
    /// MAC address of a NIC.
    pub fn nic_mac(&self, nic: usize) -> Option<MacAddr> {
        self.nics.get(nic).map(|n| n.mac)
    }

    /// Number of NICs.
    pub fn nic_count(&self) -> usize {
        self.nics.len()
    }

    /// Virtqueue statistics of a NIC: (kicks, ring-full drops).
    pub fn nic_stats(&self, nic: usize) -> Option<(u64, u64)> {
        self.nics.get(nic).map(|n| {
            (
                n.rx.kicks + n.tx.kicks,
                n.rx.ring_full_drops + n.tx.ring_full_drops,
            )
        })
    }

    /// Deliver a frame from the host side into `nic`.
    ///
    /// Performs the whole cut-through: ring copy in, vmexit, guest
    /// kernel, guest app, guest kernel, ring copy out, vmexit. All costs
    /// are accumulated in the returned [`VmIo`].
    pub fn deliver(&mut self, nic: usize, pkt: Packet, costs: &CostModel) -> VmIo {
        let mut io = VmIo::default();
        if self.state != VmState::Running {
            self.dropped += 1;
            return io;
        }
        if nic >= self.nics.len() {
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

        // Guest kernel rx processing.
        io.cost += Cost::from_nanos(costs.ip_processing_ns + costs.l4_processing_ns);

        // Guest app (userspace): crossing + copy in, work, crossing + copy out.
        io.cost += Cost::from_nanos(costs.user_kernel_crossing_ns);
        io.cost += costs.copy(len);
        let outputs = match &mut self.app {
            GuestApp::UserspaceIpsec(app) => ipsec_process(app, nic, pkt, costs, &mut io.cost),
            GuestApp::L2Forward => {
                let out_nic = if nic == 0 { 1 } else { 0 };
                vec![(out_nic, pkt)]
            }
            GuestApp::Reflector => vec![(nic, pkt)],
        };
        io.cost += Cost::from_nanos(costs.user_kernel_crossing_ns);

        // Guest tx: copy out of userspace + ring + kick per packet.
        for (out_nic, out_pkt) in outputs {
            if out_nic >= self.nics.len() {
                self.dropped += 1;
                continue;
            }
            let out_len = out_pkt.len();
            io.cost += costs.copy(out_len); // user → kernel
            io.cost += Cost::from_nanos(costs.ip_processing_ns); // guest kernel tx
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

/// The userspace strongSwan data path. Charges *userspace* AEAD plus the
/// extra copy the crypto library makes.
fn ipsec_process(
    app: &mut UserspaceIpsecApp,
    nic: usize,
    pkt: Packet,
    costs: &CostModel,
    cost: &mut Cost,
) -> Vec<(usize, Packet)> {
    // Work at the IP level; keep the Ethernet header for re-framing.
    let Ok(eth) = EthernetFrame::new_checked(pkt.data()) else {
        app.errors += 1;
        return Vec::new();
    };
    if eth.ethertype() != EtherType::Ipv4 {
        // Non-IP passes through unchanged toward the other side.
        let out_nic = if nic == 0 { 1 } else { 0 };
        return vec![(out_nic, pkt)];
    }
    let (eth_src, eth_dst) = (eth.src(), eth.dst());
    let ip_bytes = eth.payload().to_vec();
    let Ok(ip) = Ipv4Packet::new_checked(&ip_bytes[..]) else {
        app.errors += 1;
        return Vec::new();
    };

    if nic == 0 {
        // Plaintext side: consult SPD, encapsulate.
        let Some(policy) = app.spd.lookup(
            PolicyDirection::Out,
            ip.src(),
            ip.dst(),
            u8::from(ip.protocol()),
        ) else {
            // Bypass traffic crosses unprotected.
            return vec![(1, pkt)];
        };
        let PolicyAction::Protect(_) = policy.action else {
            return vec![(1, pkt)];
        };
        let Some(sa) = app.sa_out.as_mut() else {
            app.errors += 1;
            return Vec::new();
        };
        *cost += costs.aead_userspace(ip_bytes.len());
        // Sealed straight behind room for the outer headers and the
        // packet's own headroom: one allocation, no copy.
        let room = DEFAULT_HEADROOM + ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
        match esp::encapsulate_into(sa, &ip_bytes, room) {
            Ok(buf) => {
                app.processed += 1;
                let mut outer = Packet::from_buffer(buf, DEFAULT_HEADROOM);
                fill_outer_headers(eth_src, eth_dst, sa, &mut outer);
                vec![(1, outer)]
            }
            Err(_) => {
                app.errors += 1;
                Vec::new()
            }
        }
    } else {
        // Ciphertext side: decapsulate ESP.
        if ip.protocol() != IpProtocol::Esp {
            return vec![(0, pkt)];
        }
        let Some(sa) = app.sa_in.as_mut() else {
            app.errors += 1;
            return Vec::new();
        };
        *cost += costs.aead_userspace(ip.payload().len());
        match esp::decapsulate(sa, ip.payload()) {
            Ok(inner) => {
                app.processed += 1;
                let mut frame = Packet::zeroed(ETHERNET_HEADER_LEN + inner.len());
                {
                    let buf = frame.data_mut();
                    let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
                    e.set_src(eth_src);
                    e.set_dst(eth_dst);
                    e.set_ethertype(EtherType::Ipv4);
                    buf[ETHERNET_HEADER_LEN..].copy_from_slice(&inner);
                }
                vec![(0, frame)]
            }
            Err(_) => {
                app.errors += 1;
                Vec::new()
            }
        }
    }
}

/// Write the outer Ethernet and tunnel IPv4 headers in front of the ESP
/// payload `frame` already carries behind them.
fn fill_outer_headers(
    eth_src: MacAddr,
    eth_dst: MacAddr,
    sa: &SecurityAssociation,
    frame: &mut Packet,
) {
    let buf = frame.data_mut();
    let mut e = EthernetFrame::new_unchecked(&mut buf[..]);
    e.set_src(eth_src);
    e.set_dst(eth_dst);
    e.set_ethertype(EtherType::Ipv4);
    esp::fill_tunnel_header(sa, &mut buf[ETHERNET_HEADER_LEN..]);
}

/// The hypervisor: image store + VM table.
#[derive(Debug, Default)]
pub struct Hypervisor {
    /// Disk images.
    pub images: VmImageStore,
    vms: BTreeMap<u32, Vm>,
    next_id: u32,
    next_mac: u32,
}

impl Hypervisor {
    /// A hypervisor with an empty image store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a VM. The disk image must exist.
    #[allow(clippy::too_many_arguments)]
    pub fn create_vm(
        &mut self,
        name: &str,
        image: &str,
        vcpus: u32,
        mem_mb: u64,
        nic_count: usize,
        app: GuestApp,
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
            .map(|_| {
                self.next_mac += 1;
                VirtioNic {
                    mac: MacAddr::local(0x00AA_0000 + self.next_mac),
                    rx: Virtqueue::new(),
                    tx: Virtqueue::new(),
                }
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
                app,
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

    /// Pause a running VM (packets dropped while paused).
    pub fn pause(&mut self, id: VmId) -> Result<(), VmError> {
        let vm = self.vms.get_mut(&id.0).ok_or(VmError::NoSuchVm(id.0))?;
        match vm.state {
            VmState::Running => {
                vm.state = VmState::Paused;
                Ok(())
            }
            s => Err(VmError::BadState {
                op: "pause",
                state: s,
            }),
        }
    }

    /// Resume a paused VM.
    pub fn resume(&mut self, id: VmId) -> Result<(), VmError> {
        let vm = self.vms.get_mut(&id.0).ok_or(VmError::NoSuchVm(id.0))?;
        match vm.state {
            VmState::Paused => {
                vm.state = VmState::Running;
                Ok(())
            }
            s => Err(VmError::BadState {
                op: "resume",
                state: s,
            }),
        }
    }

    /// Shut a VM down: releases its RAM.
    pub fn stop(&mut self, id: VmId, ledger: &mut MemLedger) -> Result<(), VmError> {
        let vm = self.vms.get_mut(&id.0).ok_or(VmError::NoSuchVm(id.0))?;
        match vm.state {
            VmState::Running | VmState::Paused => {
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

    /// Undefine a stopped VM.
    pub fn destroy(&mut self, id: VmId) -> Result<Vm, VmError> {
        match self.vms.get(&id.0) {
            None => Err(VmError::NoSuchVm(id.0)),
            Some(vm) if matches!(vm.state, VmState::Running | VmState::Paused) => {
                Err(VmError::BadState {
                    op: "destroy",
                    state: vm.state,
                })
            }
            Some(_) => Ok(self.vms.remove(&id.0).unwrap()),
        }
    }

    /// Access a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id.0)
    }

    /// Mutable access to a VM (control plane: SA installation etc.).
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.vms.get_mut(&id.0)
    }

    /// Deliver a frame to a VM NIC.
    pub fn deliver(&mut self, id: VmId, nic: usize, pkt: Packet, costs: &CostModel) -> VmIo {
        match self.vms.get_mut(&id.0) {
            Some(vm) => vm.deliver(nic, pkt, costs),
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
