//! The VM (libvirt/KVM-QEMU) driver.
//!
//! A VM is the sandbox the native and Docker drivers also run — an NNF
//! instance in a namespace — behind a virtio boundary, as a Docker
//! instance is that sandbox plus a container. The guest kernel is
//! namespace `vm-<name>` of the node's host with ports `eth<i>`, and it
//! runs the functional type's own [`NnfInstance`]:
//! the same command list every flavor runs. `un-hypervisor` charges
//! every frame its crossing into and out of that namespace. The NF's RSS
//! lives inside the guest RAM the hypervisor books, so the guest keeps
//! its own ledger.

use std::collections::HashMap;

use un_hypervisor::vm::QEMU_OVERHEAD_MB;
use un_hypervisor::{Hypervisor, VmId};
use un_linux::{IfaceId, NsId};
use un_nnf::NnfInstance;
use un_packet::Packet;
use un_sim::mem::{mb, mb_f};
use un_sim::MemLedger;

use super::sandbox::Sandbox;
use super::{foreign, record, substrate, ComputeDriver, CreateRequest, NodeEnv};
use crate::types::{ComputeError, Crossing, FlavorSpec, InstanceId};

struct VmInstance {
    vm: VmId,
    /// The guest kernel and the NF configured in it.
    sandbox: Sandbox,
    /// The guest's own books: what its NF allocates is guest RAM, which
    /// the node's ledger already holds.
    guest: MemLedger,
}

/// Driver state: the hypervisor plus per-instance guests. The default
/// driver's image store is empty.
#[derive(Default)]
pub struct VmDriver {
    /// The node's hypervisor (image store + VMs).
    pub hypervisor: Hypervisor,
    instances: HashMap<InstanceId, VmInstance>,
}

impl ComputeDriver for VmDriver {
    fn label(&self) -> &'static str {
        "VM driver (libvirt/KVM)"
    }

    /// Define the VM, then its guest: a namespace with the type's NNF
    /// instance. A guest the host refuses takes the VM with it.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<(), ComputeError> {
        let FlavorSpec::Vm {
            image,
            vcpus,
            mem_mb,
        } = req.spec
        else {
            return Err(foreign(req.spec));
        };
        let ft = req.functional_type;
        let plugin = req
            .nf
            .and_then(|nf| NnfInstance::new(nf, false).ok())
            .ok_or_else(|| ComputeError::Unsupported(format!("no guest image runs '{ft}'")))?;
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
        let guest_req = CreateRequest { account, ..*req };
        match Sandbox::create(env.host, "vm", "eth", req.n_ports, plugin, &guest_req) {
            Ok(sandbox) => {
                let inst = VmInstance { vm, sandbox, guest };
                self.instances.insert(req.id, inst);
                Ok(())
            }
            Err(e) => {
                let _ = self.hypervisor.destroy(vm);
                Err(e)
            }
        }
    }

    /// Boot, then run the NF's command list in the guest.
    fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let inst = record(&mut self.instances, id)?;
        self.hypervisor
            .start(inst.vm, env.ledger)
            .map_err(substrate)?;
        inst.sandbox.start(env.host, &mut inst.guest)
    }

    /// The NF's teardown, then shut down.
    fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let inst = record(&mut self.instances, id)?;
        inst.sandbox.stop(env.host, &mut inst.guest)?;
        self.hypervisor.stop(inst.vm, env.ledger).map_err(substrate)
    }

    /// The hypervisor refuses a VM that runs; an undefined one goes with
    /// its guest's namespace.
    fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let vm = record(&mut self.instances, id)?.vm;
        self.hypervisor.destroy(vm).map_err(substrate)?;
        let inst = self.instances.remove(&id).expect("looked up above");
        inst.sandbox.destroy(env.host)
    }

    /// Each frame crosses the boundary into the guest kernel and back.
    fn deliver_into(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: &mut Vec<(u32, Packet)>,
        out: &mut Crossing,
    ) {
        let Some(inst) = self.instances.get(&id) else {
            return out.refuse(frames);
        };
        let host = &mut *env.host;
        for (port, pkt) in frames.drain(..) {
            let guest = |nic: usize, pkt| {
                let mut emitted = Vec::new();
                let cost = inst.sandbox.deliver(nic as u32, pkt, host, &mut emitted);
                let outputs = emitted.into_iter().map(|(p, f)| (p as usize, f));
                (outputs.collect(), cost)
            };
            let io = self
                .hypervisor
                .deliver(inst.vm, port as usize, pkt, env.costs, guest);
            let outputs = io.outputs.into_iter().map(|(nic, p)| (nic as u64, p));
            out.outputs.extend(outputs);
            out.end_frame(io.cost);
        }
    }

    /// The disk image's size.
    fn image_footprint(&self, id: InstanceId) -> u64 {
        let inst = self.instances.get(&id);
        let vm = inst.and_then(|i| self.hypervisor.vm(i.vm));
        vm.and_then(|vm| self.hypervisor.images.get(&vm.image))
            .map_or(0, |image| image.size)
    }

    /// Guest RAM plus the QEMU process around it.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Vm { mem_mb, .. } => mb(*mem_mb) + mb_f(QEMU_OVERHEAD_MB),
            _ => 0,
        }
    }

    fn instance_count(&self) -> usize {
        self.instances.len()
    }

    fn namespace_of(&self, id: InstanceId) -> Option<NsId> {
        self.instances.get(&id).map(|i| i.sandbox.ns())
    }

    fn port_iface(&self, id: InstanceId, port: u32) -> Option<IfaceId> {
        self.instances.get(&id)?.sandbox.port(port)
    }
}

#[cfg(test)]
mod tests {
    use super::super::native::NativeDriver;
    use super::super::testkit::{ipsec, ipsec_config, program, Rig};
    use super::*;
    use crate::types::IoOutcome;
    use un_hypervisor::DiskImage;
    use un_nffg::NfConfig;
    use un_nnf::NnfError;
    use un_packet::ethernet::ETHERNET_HEADER_LEN;
    use un_packet::{MacAddr, PacketBuilder};

    fn spec(image: &str) -> FlavorSpec {
        FlavorSpec::Vm {
            image: image.into(),
            vcpus: 1,
            mem_mb: 64,
        }
    }

    /// A driver whose store holds image `img`.
    fn driver() -> VmDriver {
        let mut d = VmDriver::default();
        d.hypervisor.images.add(DiskImage {
            name: "img".into(),
            size: mb(522),
        });
        d
    }

    /// One 1500-byte frame into the LAN port of IPsec NNF `id`, addressed
    /// to that port's MAC, with the tunnel peer resolvable in its kernel.
    fn seal_one(rig: &mut Rig, driver: &mut dyn ComputeDriver, id: InstanceId) -> IoOutcome {
        let ns = driver.namespace_of(id).unwrap();
        let peer = "192.0.2.2".parse().unwrap();
        rig.host.neigh_add(ns, peer, MacAddr::local(99)).unwrap();
        let lan = driver.port_iface(id, 0).unwrap();
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
        driver
            .deliver_batch(&mut rig.env(), id, vec![(0, frame)])
            .remove(0)
    }

    /// A running native IPsec NNF (instance 1) and a running VM of the
    /// same config (instance 2), side by side on one host.
    fn both_flavors(rig: &mut Rig) -> (NativeDriver, VmDriver) {
        let (mut native, mut vm) = (NativeDriver::default(), driver());
        let config = ipsec();
        rig.create(&mut native, 1, "ipsec", &FlavorSpec::Native, &config, false)
            .unwrap();
        native.start(&mut rig.env(), InstanceId(1)).unwrap();
        rig.create(&mut vm, 2, "ipsec", &spec("img"), &config, false)
            .unwrap();
        vm.start(&mut rig.env(), InstanceId(2)).unwrap();
        (native, vm)
    }

    #[test]
    fn create_requires_image_and_config() {
        let mut d = VmDriver::default();
        let mut rig = Rig::new();
        let plain = NfConfig::default();
        let bridge = program("bridge", &plain).unwrap();
        // Missing image: refused before the guest exists.
        assert!(matches!(
            rig.create(&mut d, 1, "bridge", &spec("ghost"), &bridge, false),
            Err(ComputeError::Substrate(_))
        ));
        assert_eq!((rig.host.namespace_count(), rig.host.iface_count()), (1, 1));
        let mut d = driver();
        // No guest runs a type the repository has no native NF for.
        assert!(matches!(
            rig.create(&mut d, 1, "quantum", &spec("img"), &[], false),
            Err(ComputeError::Unsupported(_))
        ));
        assert_eq!(d.instance_count(), 0);
        // IPsec without its config never reaches a guest: it does not
        // compile, as it would not for a native NNF.
        assert_eq!(
            program("ipsec", &plain).unwrap_err(),
            NnfError::MissingParam("lan-addr")
        );
        // A bridge needs nothing.
        rig.create(&mut d, 2, "bridge", &spec("img"), &bridge, false)
            .unwrap();
        let vm = InstanceId(2);
        d.start(&mut rig.env(), vm).unwrap();
        let frame = PacketBuilder::new()
            .ethernet(MacAddr::local(5), MacAddr::local(6))
            .ipv4("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .udp(1000, 2000)
            .payload(b"through the guest")
            .build();
        let io = &d.deliver_batch(&mut rig.env(), vm, vec![(0, frame.clone())])[0];
        assert_eq!(io.outputs.len(), 1);
        assert_eq!((io.outputs[0].0, io.outputs[0].1.data()), (1, frame.data()));
        assert_eq!(d.image_footprint(vm), mb(522));
        assert_eq!(d.image_footprint(InstanceId(3)), 0);
    }

    /// One config, two flavors: the native NNF's kernel and the VM's
    /// guest kernel run the same command list, so one frame forwards and
    /// seals into the same outer IPv4 packet, header and ESP bytes alike.
    /// A config without interface addresses reaches neither: it does not
    /// compile, and the list it would have been is the one both run.
    #[test]
    fn a_vm_guest_and_a_native_nnf_seal_alike() {
        let mut rig = Rig::new();
        let (mut native, mut vm) = both_flavors(&mut rig);
        let (kernel, guest) = (InstanceId(1), InstanceId(2));
        let sealed = |io: IoOutcome| {
            assert_eq!(io.outputs.len(), 1);
            let (port, pkt) = &io.outputs[0];
            assert_eq!(*port, 1, "out the WAN side");
            pkt.data()[ETHERNET_HEADER_LEN..].to_vec()
        };
        let by_kernel = sealed(seal_one(&mut rig, &mut native, kernel));
        let by_guest = sealed(seal_one(&mut rig, &mut vm, guest));
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
        let (mut native, mut vm) = both_flavors(&mut rig);
        let by_kernel = seal_one(&mut rig, &mut native, InstanceId(1));
        let by_guest = seal_one(&mut rig, &mut vm, InstanceId(2));
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
        let mut d = driver();
        rig.create(&mut d, 1, "ipsec", &spec("img"), &ipsec(), false)
            .unwrap();
        let vm = InstanceId(1);
        d.start(&mut rig.env(), vm).unwrap();
        let ns = d.namespace_of(vm).unwrap();
        assert_eq!(rig.host.namespace(ns).unwrap().name, "vm-nf1");
        let lan = rig.host.iface_by_name(ns, "eth0").unwrap();
        assert_eq!(Some(lan.id), d.port_iface(vm, 0));
        let unroutable = PacketBuilder::new()
            .ethernet(MacAddr::local(5), lan.mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "198.51.100.7".parse().unwrap(),
            )
            .udp(1000, 2000)
            .build();
        let io = &d.deliver_batch(&mut rig.env(), vm, vec![(0, unroutable)])[0];
        assert!(io.outputs.is_empty());
        assert_eq!(rig.host.trace.no_route, 1);
    }

    /// Fleet placement prices a VM at what a started one books: guest RAM
    /// and the QEMU process, the NF inside counted once, as guest RAM.
    #[test]
    fn the_estimate_is_what_a_started_vm_books() {
        let mut rig = Rig::new();
        let mut d = driver();
        let spec = spec("img");
        let account = rig
            .create(&mut d, 1, "ipsec", &spec, &ipsec(), false)
            .unwrap();
        d.start(&mut rig.env(), InstanceId(1)).unwrap();
        assert_eq!(rig.ledger.usage(account), d.estimate_ram(&spec));
    }
}
