//! The VM (libvirt/KVM-QEMU) driver.
//!
//! A VM is the sandbox every flavor runs — an NNF instance in a
//! namespace — behind a virtio boundary, as a Docker instance is that
//! sandbox plus a container. The guest kernel is namespace `vm-<name>`
//! of the node's host with ports `eth<i>`, and it runs the functional
//! type's own [`NnfInstance`](un_nnf::NnfInstance): the same command
//! list every flavor runs. `un-hypervisor` charges every frame its
//! crossing into and out of that namespace. The NF's RSS lives inside
//! the guest RAM the hypervisor books, so the guest keeps its own
//! ledger.

use un_hypervisor::vm::QEMU_OVERHEAD_MB;
use un_hypervisor::{Hypervisor, VmId};
use un_nnf::NnfDescriptor;
use un_sim::mem::{mb, mb_f};
use un_sim::MemLedger;

use super::{foreign, foreign_handle, substrate, ComputeDriver, CreateRequest, NodeEnv, Packaging};
use crate::types::{ComputeError, FlavorSpec};

/// Driver state: the hypervisor. The default driver's image store is
/// empty.
#[derive(Default)]
pub struct VmDriver {
    /// The node's hypervisor (image store + VMs).
    pub hypervisor: Hypervisor,
}

fn vm(packaging: &Packaging) -> Result<VmId, ComputeError> {
    match packaging {
        Packaging::Vm { vm, .. } => Ok(*vm),
        _ => Err(foreign_handle()),
    }
}

impl ComputeDriver for VmDriver {
    fn label(&self) -> &'static str {
        "VM driver (libvirt/KVM)"
    }

    /// Define the VM, one virtio NIC per sandbox port, and open the
    /// guest's books.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<Packaging, ComputeError> {
        let FlavorSpec::Vm {
            image,
            vcpus,
            mem_mb,
        } = req.spec
        else {
            return Err(foreign(req.spec));
        };
        let made = self.hypervisor.create_vm(
            req.name,
            image,
            *vcpus,
            *mem_mb,
            req.n_ports,
            env.ledger,
            req.account,
        );
        let vm = made.map_err(substrate)?;
        let mut guest = MemLedger::new();
        let account = guest.create_account(req.name, None);
        Ok(Packaging::Vm { vm, guest, account })
    }

    /// Boot, before the NF's command list runs in the guest.
    fn start(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError> {
        let vm = vm(packaging)?;
        self.hypervisor.start(vm, env.ledger).map_err(substrate)
    }

    /// Shut down, after the NF's teardown.
    fn stop(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError> {
        let vm = vm(packaging)?;
        self.hypervisor.stop(vm, env.ledger).map_err(substrate)
    }

    fn destroy(&mut self, packaging: &Packaging) -> Result<(), ComputeError> {
        let undefined = self.hypervisor.destroy(vm(packaging)?);
        undefined.map(drop).map_err(substrate)
    }

    /// The disk image's size.
    fn image_footprint(&self, spec: &FlavorSpec, _nf: &NnfDescriptor) -> u64 {
        match spec {
            FlavorSpec::Vm { image, .. } => self.hypervisor.images.get(image).map_or(0, |i| i.size),
            _ => 0,
        }
    }

    /// Guest RAM plus the QEMU process around it.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Vm { mem_mb, .. } => mb(*mem_mb) + mb_f(QEMU_OVERHEAD_MB),
            _ => 0,
        }
    }

    fn instance_count(&self) -> usize {
        self.hypervisor.len()
    }
}

#[cfg(test)]
mod tests {
    //! VM NFs through the compute manager, beside native ones.

    use un_nffg::NfConfig;
    use un_nnf::NnfError;
    use un_packet::ethernet::ETHERNET_HEADER_LEN;
    use un_packet::{MacAddr, PacketBuilder};
    use un_sim::mem::mb;

    use crate::drivers::ComputeDriver;
    use crate::manager::tests::{ipsec, ipsec_config, program, vm_spec, Rig, NATIVE};
    use crate::types::{ComputeError, InstanceId, IoOutcome};

    /// One 1500-byte frame into the LAN port of IPsec NNF `id`, addressed
    /// to that port's MAC, with the tunnel peer resolvable in its kernel.
    fn seal_one(rig: &mut Rig, id: InstanceId) -> IoOutcome {
        let ns = rig.ns(id).unwrap();
        let peer = "192.0.2.2".parse().unwrap();
        rig.host.neigh_add(ns, peer, MacAddr::local(99)).unwrap();
        let lan = rig.port(id, 0).unwrap();
        let lan_mac = rig.host.iface(lan).unwrap().mac;
        let frame = PacketBuilder::new()
            .ethernet(MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1000, 2000)
            .payload(&[0x77; 1458])
            .build();
        assert_eq!(frame.len(), 1500);
        rig.deliver_one(id, 0, frame)
    }

    /// A running native IPsec NNF and a running VM of the same config, side
    /// by side on one host.
    fn both_flavors(rig: &mut Rig) -> (InstanceId, InstanceId) {
        let config = ipsec();
        let native = rig.create("ipsec", NATIVE, &config, false).unwrap();
        rig.start(native).unwrap();
        let vm = rig
            .create("ipsec", &vm_spec("img"), &config, false)
            .unwrap();
        rig.start(vm).unwrap();
        (native, vm)
    }

    #[test]
    fn create_requires_image_and_config() {
        let mut rig = Rig::new();
        let plain = NfConfig::default();
        let bridge = program("bridge", &plain).unwrap();
        // Missing image: refused, and the guest's namespace goes with it.
        assert!(matches!(
            rig.create("bridge", &vm_spec("ghost"), &bridge, false),
            Err(ComputeError::Substrate(_))
        ));
        assert_eq!(rig.residue(), (1, 1));
        // No guest runs a type the repository does not list.
        assert!(matches!(
            rig.create("quantum", &vm_spec("img"), &[], false),
            Err(ComputeError::Unsupported(_))
        ));
        assert_eq!(rig.mgr.vm.instance_count(), 0);
        // IPsec without its config never reaches a guest: it does not
        // compile, as it would not for a native NNF.
        assert_eq!(
            program("ipsec", &plain).unwrap_err(),
            NnfError::MissingParam("lan-addr")
        );
        // A bridge needs nothing.
        let vm = rig
            .create("bridge", &vm_spec("img"), &bridge, false)
            .unwrap();
        rig.start(vm).unwrap();
        let frame = PacketBuilder::new()
            .ethernet(MacAddr::local(5), MacAddr::local(6))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1000, 2000)
            .payload(b"through the guest")
            .build();
        let io = rig.deliver_one(vm, 0, frame.clone());
        assert_eq!(io.outputs.len(), 1);
        assert_eq!((io.outputs[0].0, io.outputs[0].1.data()), (1, frame.data()));
        assert_eq!(rig.mgr.image_footprint(vm), mb(522));
        assert_eq!(rig.mgr.image_footprint(InstanceId(999)), 0);
    }

    /// One config, two flavors: the native NNF's kernel and the VM's
    /// guest kernel run the same command list, so one frame forwards and
    /// seals into the same outer IPv4 packet, header and ESP bytes alike.
    /// A config without interface addresses reaches neither: it does not
    /// compile, and the list it would have been is the one both run.
    #[test]
    fn a_vm_guest_and_a_native_nnf_seal_alike() {
        let mut rig = Rig::new();
        let (kernel, guest) = both_flavors(&mut rig);
        let sealed = |io: IoOutcome| {
            assert_eq!(io.outputs.len(), 1);
            let (port, pkt) = &io.outputs[0];
            assert_eq!(*port, 1, "out the WAN side");
            pkt.data()[ETHERNET_HEADER_LEN..].to_vec()
        };
        let by_kernel = sealed(seal_one(&mut rig, kernel));
        let by_guest = sealed(seal_one(&mut rig, guest));
        assert_eq!(by_kernel, by_guest);

        let mut tunnel_only = ipsec_config();
        tunnel_only.params.remove("lan-addr");
        tunnel_only.params.remove("wan-addr");
        assert_eq!(
            program("ipsec", &tunnel_only).unwrap_err(),
            NnfError::MissingParam("lan-addr")
        );
    }

    /// For one 1500-byte IPsec frame, the VM charges what the native NNF
    /// charges plus its boundary, exactly: two copies and a user/kernel
    /// crossing each way, a descriptor and a vmexit per ring.
    #[test]
    fn a_vm_charges_the_native_path_plus_its_boundary() {
        let mut rig = Rig::new();
        let (kernel, guest) = both_flavors(&mut rig);
        let by_kernel = seal_one(&mut rig, kernel);
        let by_guest = seal_one(&mut rig, guest);
        let c = &rig.costs;
        let outer = by_guest.outputs[0].1.len();
        assert_eq!(outer, 1554, "20 B outer header + 34 B of ESP framing");
        let boundary = 2 * (c.copy(1500) + c.copy(outer)).as_nanos()
            + 2 * (c.virtio_descriptor_ns + c.vmexit_ns + c.user_kernel_crossing_ns);
        assert_eq!(boundary, 4928);
        assert_eq!(
            by_guest.cost.as_nanos() - by_kernel.cost.as_nanos(),
            boundary
        );
    }

    /// The guest kernel is namespace `vm-<name>` of the node's host, with
    /// ports `eth<i>`, so what it refuses the host's counters book, as
    /// they do for a native NNF.
    #[test]
    fn the_host_books_what_a_guest_kernel_drops() {
        let mut rig = Rig::new();
        let vm = rig
            .create("ipsec", &vm_spec("img"), &ipsec(), false)
            .unwrap();
        rig.start(vm).unwrap();
        let ns = rig.ns(vm).unwrap();
        assert_eq!(rig.host.namespace(ns).unwrap().name, "vm-nf1");
        let lan = rig.host.iface_by_name(ns, "eth0").unwrap();
        assert_eq!(Some(lan.id), rig.port(vm, 0));
        let unroutable = PacketBuilder::new()
            .ethernet(MacAddr::local(5), lan.mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "198.51.100.7".parse().unwrap(),
            )
            .udp(1000, 2000)
            .build();
        let io = rig.deliver_one(vm, 0, unroutable);
        assert!(io.outputs.is_empty());
        assert_eq!(rig.host.trace.no_route, 1);
    }

    /// Fleet placement prices a VM at what a started one books: guest RAM
    /// and the QEMU process, the NF inside counted once, as guest RAM.
    #[test]
    fn the_estimate_is_what_a_started_vm_books() {
        let mut rig = Rig::new();
        let spec = vm_spec("img");
        let vm = rig.create("ipsec", &spec, &ipsec(), false).unwrap();
        rig.start(vm).unwrap();
        assert_eq!(rig.ram(vm), rig.mgr.estimate_ram(&spec));
    }
}
