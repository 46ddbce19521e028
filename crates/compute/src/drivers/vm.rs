//! The VM (libvirt/KVM-QEMU) driver.

use std::collections::HashMap;

use un_hypervisor::{GuestApp, Hypervisor, UserspaceIpsecApp, VmId};
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
use un_nffg::NfConfig;
use un_nnf::translate::derive_psk_tunnel;
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
    /// Build the guest application for a functional type.
    fn build_app(kind: GuestAppKind, config: &NfConfig) -> Result<GuestApp, ComputeError> {
        /// A parameter the guest cannot be configured without.
        fn need<T: std::str::FromStr>(config: &NfConfig, key: &str) -> Result<T, ComputeError> {
            let value = config.param(key).and_then(|v| v.parse().ok());
            value.ok_or_else(|| ComputeError::Substrate(format!("ipsec VM needs '{key}'")))
        }
        match kind {
            GuestAppKind::L2Forward => Ok(GuestApp::L2Forward),
            GuestAppKind::IpsecUserspace => {
                let psk: String = need(config, "psk")?;
                let local: std::net::Ipv4Addr = need(config, "local-addr")?;
                let peer: std::net::Ipv4Addr = need(config, "peer-addr")?;
                let prot_local: un_packet::Ipv4Cidr = need(config, "protected-local")?;
                let prot_remote: un_packet::Ipv4Cidr = need(config, "protected-remote")?;
                let initiator = config.param("role").unwrap_or("initiator") == "initiator";
                let (key_out, salt_out, key_in, salt_in, spi_out, spi_in) =
                    derive_psk_tunnel(psk.as_bytes(), initiator);

                let mut app = UserspaceIpsecApp::new();
                app.sa_out = Some(SecurityAssociation::outbound(
                    spi_out, local, peer, key_out, salt_out,
                ));
                app.sa_in = Some(SecurityAssociation::inbound(
                    spi_in, peer, local, key_in, salt_in,
                ));
                app.spd.install(SecurityPolicy {
                    selector: TrafficSelector::between(prot_local, prot_remote),
                    direction: PolicyDirection::Out,
                    action: PolicyAction::Protect(spi_out),
                    priority: 10,
                });
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
    use super::super::testkit::Rig;
    use super::*;
    use un_hypervisor::DiskImage;

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
}
