//! The VM (libvirt/KVM-QEMU) driver.

use std::collections::HashMap;

use un_hypervisor::{GuestApp, Hypervisor, UserspaceIpsecApp, VmId};
use un_ipsec::sa::SaDirection;
use un_nffg::NfConfig;
use un_nnf::translate::ipsec_tunnel;
use un_nnf::NnfCommand;
use un_packet::Packet;
use un_sim::mem::mb;

use super::{foreign, no_outcomes, record, substrate, ComputeDriver, CreateRequest, NodeEnv};
use crate::types::{ComputeError, FlavorSpec, GuestAppKind, InstanceId, IoOutcome};

/// Driver state: the hypervisor plus per-instance VM handles.
#[derive(Debug, Default)]
pub struct VmDriver {
    /// The node's hypervisor (image store + VMs).
    pub hypervisor: Hypervisor,
    vms: HashMap<InstanceId, VmId>,
}

impl VmDriver {
    /// Build the guest application for a functional type. The IPsec
    /// guest runs the tunnel half of the config a native NNF runs.
    fn build_app(kind: GuestAppKind, config: &NfConfig) -> Result<GuestApp, ComputeError> {
        match kind {
            GuestAppKind::L2Forward => Ok(GuestApp::L2Forward),
            GuestAppKind::IpsecUserspace => {
                let tunnel = ipsec_tunnel(config)
                    .map_err(|e| ComputeError::Substrate(format!("ipsec VM: {e}")))?;
                let mut app = UserspaceIpsecApp::new();
                for cmd in tunnel {
                    match cmd {
                        NnfCommand::XfrmState(sa) if sa.direction == SaDirection::Out => {
                            app.sa_out = Some(sa)
                        }
                        NnfCommand::XfrmState(sa) => app.sa_in = Some(sa),
                        NnfCommand::XfrmPolicy(policy) => app.spd.install(policy),
                        // The guest has no routing table or sysctl: it
                        // protects what crosses from NIC 0 to NIC 1.
                        _ => {}
                    }
                }
                Ok(GuestApp::UserspaceIpsec(app))
            }
        }
    }
}

impl ComputeDriver for VmDriver {
    fn label(&self) -> &'static str {
        "VM driver (libvirt/KVM)"
    }

    /// Define a VM running the guest application `req.spec` names.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<(), ComputeError> {
        let FlavorSpec::Vm {
            image,
            vcpus,
            mem_mb,
            app,
        } = req.spec
        else {
            return Err(foreign(req.spec));
        };
        let app = Self::build_app(*app, req.config)?;
        let made = self.hypervisor.create_vm(
            req.name,
            image,
            *vcpus,
            *mem_mb,
            req.n_ports,
            app,
            env.ledger,
            req.account,
        );
        let vm = made.map_err(substrate)?;
        self.vms.insert(req.id, vm);
        Ok(())
    }

    /// Boot.
    fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let vm = *record(&mut self.vms, id)?;
        self.hypervisor.start(vm, env.ledger).map_err(substrate)
    }

    /// Shut down.
    fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let vm = *record(&mut self.vms, id)?;
        self.hypervisor.stop(vm, env.ledger).map_err(substrate)
    }

    /// Undefine; the hypervisor refuses a VM that runs.
    fn destroy(&mut self, _env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let vm = *record(&mut self.vms, id)?;
        self.hypervisor.destroy(vm).map_err(substrate)?;
        self.vms.remove(&id);
        Ok(())
    }

    /// The guest keeps per-frame virtio semantics; the VM handle
    /// resolves once per burst.
    fn deliver_batch(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: Vec<(u32, Packet)>,
    ) -> Vec<IoOutcome> {
        let Some(&vm) = self.vms.get(&id) else {
            return no_outcomes(&frames);
        };
        frames
            .into_iter()
            .map(|(port, pkt)| {
                let io = self.hypervisor.deliver(vm, port as usize, pkt, env.costs);
                IoOutcome {
                    outputs: io
                        .outputs
                        .into_iter()
                        .map(|(nic, p)| (nic as u32, p))
                        .collect(),
                    cost: io.cost,
                }
            })
            .collect()
    }

    /// The disk image's size.
    fn image_footprint(&self, id: InstanceId) -> u64 {
        let vm = self.vms.get(&id).and_then(|vm| self.hypervisor.vm(*vm));
        vm.and_then(|vm| self.hypervisor.images.get(&vm.image))
            .map_or(0, |image| image.size)
    }

    /// Guest RAM plus the QEMU process around it.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Vm { mem_mb, .. } => mb(*mem_mb) + mb(71),
            _ => 0,
        }
    }

    fn instance_count(&self) -> usize {
        self.vms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::native::NativeDriver;
    use super::super::testkit::{ipsec_config, Rig};
    use super::*;
    use un_hypervisor::DiskImage;
    use un_packet::ethernet::ETHERNET_HEADER_LEN;
    use un_packet::{MacAddr, PacketBuilder};

    fn spec(image: &str, app: GuestAppKind) -> FlavorSpec {
        FlavorSpec::Vm {
            image: image.into(),
            vcpus: 1,
            mem_mb: 64,
            app,
        }
    }

    #[test]
    fn create_requires_image_and_config() {
        let mut d = VmDriver::default();
        let mut rig = Rig::new();
        let plain = NfConfig::default();
        // Missing image.
        let ghost = spec("ghost", GuestAppKind::L2Forward);
        assert!(matches!(
            rig.create(&mut d, 1, "bridge", &ghost, &plain, false),
            Err(ComputeError::Substrate(_))
        ));
        d.hypervisor.images.add(DiskImage {
            name: "img".into(),
            size: mb(522),
        });
        // IPsec app without PSK.
        let swan = spec("img", GuestAppKind::IpsecUserspace);
        assert!(matches!(
            rig.create(&mut d, 1, "ipsec", &swan, &plain, false),
            Err(ComputeError::Substrate(_))
        ));
        assert_eq!(d.instance_count(), 0);
        // Forwarder needs nothing.
        let forwarder = spec("img", GuestAppKind::L2Forward);
        rig.create(&mut d, 1, "bridge", &forwarder, &plain, false)
            .unwrap();
        let vm = InstanceId(1);
        d.start(&mut rig.env(), vm).unwrap();
        let burst = vec![(0, Packet::from_slice(&[0u8; 64]))];
        let io = &d.deliver_batch(&mut rig.env(), vm, burst)[0];
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(d.image_footprint(vm), mb(522));
        assert_eq!(d.image_footprint(InstanceId(2)), 0);
    }

    /// One config, two flavors: the native NNF's kernel and the VM's
    /// guest install the same tunnel, so they seal one inner packet into
    /// the same outer IPv4 packet, header and ESP bytes alike. Each still
    /// accepts what it did: the guest needs no interface addresses, the
    /// native namespace refuses to start without them.
    #[test]
    fn a_vm_guest_and_a_native_nnf_seal_alike() {
        let mut rig = Rig::new();
        let mut native = NativeDriver::default();
        let mut vm = VmDriver::default();
        vm.hypervisor.images.add(DiskImage {
            name: "img".into(),
            size: mb(522),
        });
        let swan = spec("img", GuestAppKind::IpsecUserspace);
        let (kernel, guest) = (InstanceId(1), InstanceId(2));
        rig.create(
            &mut native,
            1,
            "ipsec",
            &FlavorSpec::Native,
            &ipsec_config(),
            false,
        )
        .unwrap();
        native.start(&mut rig.env(), kernel).unwrap();
        rig.create(&mut vm, 2, "ipsec", &swan, &ipsec_config(), false)
            .unwrap();
        vm.start(&mut rig.env(), guest).unwrap();

        let ns = native.namespace_of(kernel).unwrap();
        let peer = "192.0.2.2".parse().unwrap();
        rig.host.neigh_add(ns, peer, MacAddr::local(99)).unwrap();
        let lan = native.port_iface(kernel, 0).unwrap();
        let lan_mac = rig.host.iface(lan).unwrap().mac;
        let frame = |ttl| {
            PacketBuilder::new()
                .ethernet(MacAddr::local(5), lan_mac)
                .ipv4(
                    "192.168.1.10".parse().unwrap(),
                    "172.16.0.9".parse().unwrap(),
                )
                .ttl(ttl)
                .udp(1000, 2000)
                .payload(&[0x77; 333])
                .build()
        };
        // The kernel forwards before it seals, so its copy arrives with
        // one more hop to spend.
        let sealed = |mut io: Vec<IoOutcome>| {
            let (port, pkt) = io.remove(0).outputs.remove(0);
            assert_eq!(port, 1, "out the WAN side");
            pkt.data()[ETHERNET_HEADER_LEN..].to_vec()
        };
        let by_kernel = sealed(native.deliver_batch(&mut rig.env(), kernel, vec![(0, frame(65))]));
        let by_guest = sealed(vm.deliver_batch(&mut rig.env(), guest, vec![(0, frame(64))]));
        assert_eq!(by_kernel, by_guest);

        let mut tunnel_only = ipsec_config();
        tunnel_only.params.remove("lan-addr");
        tunnel_only.params.remove("wan-addr");
        rig.create(&mut vm, 3, "ipsec", &swan, &tunnel_only, false)
            .unwrap();
        native.stop(&mut rig.env(), kernel).unwrap();
        native.destroy(&mut rig.env(), kernel).unwrap();
        rig.create(
            &mut native,
            4,
            "ipsec",
            &FlavorSpec::Native,
            &tunnel_only,
            false,
        )
        .unwrap();
        assert!(matches!(
            native.start(&mut rig.env(), InstanceId(4)),
            Err(ComputeError::Substrate(e)) if e.contains("lan-addr")
        ));
    }
}
