//! VM substrate tests. Guests are closures: the hypervisor owns the
//! boundary and nothing inside it.

use super::*;
use crate::image::DiskImage;
use std::net::Ipv4Addr;
use un_packet::{MacAddr, PacketBuilder};

fn hv_with_image() -> Hypervisor {
    let mut hv = Hypervisor::new();
    hv.images.add(DiskImage {
        name: "strongswan-vm".into(),
        size: mb(522),
    });
    hv
}

fn lan_frame(payload_len: usize) -> Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(192, 168, 1, 10), Ipv4Addr::new(172, 16, 0, 9))
        .udp(5001, 5201)
        .payload(&vec![0xCD; payload_len])
        .build()
}

/// A guest that forwards NIC 0 ↔ NIC 1 and charges `work_ns`.
fn crossing_guest(work_ns: u64) -> impl FnOnce(usize, Packet) -> (Vec<(usize, Packet)>, Cost) {
    move |nic, pkt| (vec![(1 - nic, pkt)], Cost::from_nanos(work_ns))
}

#[test]
fn lifecycle_and_memory_composition() {
    let mut hv = hv_with_image();
    let mut ledger = MemLedger::new();
    let node = ledger.create_account("node", None);
    let id = hv
        .create_vm("ipsec-vm", "strongswan-vm", 1, 320, 2, &mut ledger, node)
        .unwrap();
    assert_eq!(ledger.usage(node), 0);

    hv.start(id, &mut ledger).unwrap();
    // 320 MB guest + 70.6 MB QEMU = 390.6 MB — the paper's VM RAM cell.
    assert_eq!(ledger.usage(node), mb(320) + mb_f(QEMU_OVERHEAD_MB));

    hv.stop(id, &mut ledger).unwrap();
    assert_eq!(ledger.usage(node), 0);
    hv.destroy(id).unwrap();
    assert!(hv.is_empty());
}

#[test]
fn state_machine_guards() {
    let mut hv = hv_with_image();
    let mut ledger = MemLedger::new();
    let node = ledger.create_account("node", None);
    assert!(matches!(
        hv.create_vm("x", "ghost", 1, 64, 1, &mut ledger, node),
        Err(VmError::NoSuchImage(_))
    ));
    let id = hv
        .create_vm("x", "strongswan-vm", 1, 64, 1, &mut ledger, node)
        .unwrap();
    assert!(matches!(
        hv.stop(id, &mut ledger),
        Err(VmError::BadState { .. })
    ));
    hv.start(id, &mut ledger).unwrap();
    assert!(matches!(
        hv.start(id, &mut ledger),
        Err(VmError::BadState { .. })
    ));
    assert!(matches!(hv.destroy(id), Err(VmError::BadState { .. })));
    hv.stop(id, &mut ledger).unwrap();
    hv.destroy(id).unwrap();
    assert!(matches!(hv.destroy(id), Err(VmError::NoSuchVm(_))));
}

#[test]
fn stopped_vm_drops_packets() {
    let mut hv = hv_with_image();
    let mut ledger = MemLedger::new();
    let node = ledger.create_account("node", None);
    let id = hv
        .create_vm("x", "strongswan-vm", 1, 64, 2, &mut ledger, node)
        .unwrap();
    let io = hv.deliver(id, 0, lan_frame(100), &CostModel::default(), |_, _| {
        unreachable!("a VM that does not run runs no guest")
    });
    assert!(io.outputs.is_empty());
    assert_eq!(hv.vm(id).unwrap().dropped, 1);
}

/// Each direction crosses to the other NIC, and the charge is the
/// guest's own work plus the boundary: two copies and a crossing each
/// way, a descriptor and a vmexit per ring.
#[test]
fn l2_forward_crosses_nics() {
    let mut hv = hv_with_image();
    let mut ledger = MemLedger::new();
    let node = ledger.create_account("node", None);
    let id = hv
        .create_vm("fwd", "strongswan-vm", 1, 64, 2, &mut ledger, node)
        .unwrap();
    hv.start(id, &mut ledger).unwrap();
    let costs = CostModel::default();
    let io = hv.deliver(id, 0, lan_frame(64), &costs, crossing_guest(500));
    assert_eq!(io.outputs.len(), 1);
    assert_eq!(io.outputs[0].0, 1, "nic0 -> nic1");
    let len = lan_frame(64).len();
    let boundary = 4 * costs.copy(len).as_nanos()
        + 2 * (costs.virtio_descriptor_ns + costs.vmexit_ns + costs.user_kernel_crossing_ns);
    assert_eq!(io.cost.as_nanos(), 500 + boundary);

    let io = hv.deliver(id, 1, lan_frame(64), &costs, crossing_guest(0));
    assert_eq!(io.outputs[0].0, 0, "nic1 -> nic0");
    // No such NIC: dropped before the guest.
    let io = hv.deliver(id, 2, lan_frame(64), &costs, |_, _| {
        unreachable!("no guest behind a missing NIC")
    });
    assert!(io.outputs.is_empty());
}

#[test]
fn virtqueue_kicks_counted_per_packet() {
    let mut hv = hv_with_image();
    let mut ledger = MemLedger::new();
    let node = ledger.create_account("node", None);
    let id = hv
        .create_vm("fwd", "strongswan-vm", 1, 64, 2, &mut ledger, node)
        .unwrap();
    hv.start(id, &mut ledger).unwrap();
    for _ in 0..10 {
        hv.deliver(
            id,
            0,
            lan_frame(64),
            &CostModel::default(),
            crossing_guest(0),
        );
    }
    let (kicks_nic0, drops0) = hv.vm(id).unwrap().nic_stats(0).unwrap();
    let (kicks_nic1, _d1) = hv.vm(id).unwrap().nic_stats(1).unwrap();
    assert_eq!(kicks_nic0, 10, "one rx kick per packet");
    assert_eq!(kicks_nic1, 10, "one tx kick per packet");
    assert_eq!(drops0, 0);
}
