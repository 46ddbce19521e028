//! The VM (libvirt/KVM-QEMU) driver.

use un_hypervisor::{GuestApp, Hypervisor, UserspaceIpsecApp, VmId};
use un_ipsec::sa::SecurityAssociation;
use un_ipsec::spd::{PolicyAction, PolicyDirection, SecurityPolicy, TrafficSelector};
use un_nffg::NfConfig;
use un_nnf::translate::derive_psk_tunnel;
use un_packet::Packet;
use un_sim::{AccountId, MemLedger};

use crate::types::{ComputeError, GuestAppKind, IoOutcome};

/// Driver state: the hypervisor plus per-instance VM handles.
#[derive(Debug, Default)]
pub struct VmDriver {
    /// The node's hypervisor (image store + VMs).
    pub hypervisor: Hypervisor,
}

impl VmDriver {
    /// Fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the guest application for a functional type.
    fn build_app(kind: GuestAppKind, config: &NfConfig) -> Result<GuestApp, ComputeError> {
        match kind {
            GuestAppKind::L2Forward => Ok(GuestApp::L2Forward),
            GuestAppKind::Reflector => Ok(GuestApp::Reflector),
            GuestAppKind::IpsecUserspace => {
                let psk = config
                    .param("psk")
                    .ok_or(ComputeError::Substrate("ipsec VM needs 'psk'".into()))?;
                let local: std::net::Ipv4Addr = config
                    .param("local-addr")
                    .and_then(|v| v.parse().ok())
                    .ok_or(ComputeError::Substrate(
                        "ipsec VM needs 'local-addr'".into(),
                    ))?;
                let peer: std::net::Ipv4Addr = config
                    .param("peer-addr")
                    .and_then(|v| v.parse().ok())
                    .ok_or(ComputeError::Substrate("ipsec VM needs 'peer-addr'".into()))?;
                let prot_local: un_packet::Ipv4Cidr = config
                    .param("protected-local")
                    .and_then(|v| v.parse().ok())
                    .ok_or(ComputeError::Substrate(
                        "ipsec VM needs 'protected-local'".into(),
                    ))?;
                let prot_remote: un_packet::Ipv4Cidr = config
                    .param("protected-remote")
                    .and_then(|v| v.parse().ok())
                    .ok_or(ComputeError::Substrate(
                        "ipsec VM needs 'protected-remote'".into(),
                    ))?;
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

    /// Define a VM for an NF.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        name: &str,
        image: &str,
        vcpus: u32,
        mem_mb: u64,
        n_ports: usize,
        app: GuestAppKind,
        config: &NfConfig,
        ledger: &mut MemLedger,
        account: AccountId,
    ) -> Result<VmId, ComputeError> {
        let guest_app = Self::build_app(app, config)?;
        self.hypervisor
            .create_vm(
                name, image, vcpus, mem_mb, n_ports, guest_app, ledger, account,
            )
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Boot.
    pub fn start(&mut self, vm: VmId, ledger: &mut MemLedger) -> Result<(), ComputeError> {
        self.hypervisor
            .start(vm, ledger)
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Shut down.
    pub fn stop(&mut self, vm: VmId, ledger: &mut MemLedger) -> Result<(), ComputeError> {
        self.hypervisor
            .stop(vm, ledger)
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Undefine.
    pub fn destroy(&mut self, vm: VmId) -> Result<(), ComputeError> {
        self.hypervisor
            .destroy(vm)
            .map(|_| ())
            .map_err(|e| ComputeError::Substrate(e.to_string()))
    }

    /// Batched delivery: the guest keeps per-frame virtio semantics,
    /// but the VM handle resolves once per burst at the manager layer.
    /// One `IoOutcome` per input frame, in order.
    pub fn deliver_batch(
        &mut self,
        vm: VmId,
        frames: Vec<(u32, Packet)>,
        costs: &un_sim::CostModel,
    ) -> Vec<IoOutcome> {
        frames
            .into_iter()
            .map(|(port, pkt)| {
                let io = self.hypervisor.deliver(vm, port as usize, pkt, costs);
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

    /// Disk image footprint for an instance's image.
    pub fn image_footprint(&self, image: &str) -> u64 {
        self.hypervisor
            .images
            .get(image)
            .map(|i| i.size)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_hypervisor::DiskImage;
    use un_sim::mem::mb;
    use un_sim::CostModel;

    #[test]
    fn create_requires_image_and_config() {
        let mut d = VmDriver::new();
        let mut ledger = MemLedger::new();
        let acct = ledger.create_account("n", None);
        // Missing image.
        assert!(matches!(
            d.create(
                "x",
                "ghost",
                1,
                64,
                2,
                GuestAppKind::L2Forward,
                &NfConfig::default(),
                &mut ledger,
                acct
            ),
            Err(ComputeError::Substrate(_))
        ));
        d.hypervisor.images.add(DiskImage {
            name: "img".into(),
            size: mb(522),
        });
        // IPsec app without PSK.
        assert!(matches!(
            d.create(
                "x",
                "img",
                1,
                64,
                2,
                GuestAppKind::IpsecUserspace,
                &NfConfig::default(),
                &mut ledger,
                acct
            ),
            Err(ComputeError::Substrate(_))
        ));
        // Forwarder needs nothing.
        let vm = d
            .create(
                "x",
                "img",
                1,
                64,
                2,
                GuestAppKind::L2Forward,
                &NfConfig::default(),
                &mut ledger,
                acct,
            )
            .unwrap();
        d.start(vm, &mut ledger).unwrap();
        let burst = vec![(0, Packet::from_slice(&[0u8; 64]))];
        let io = &d.deliver_batch(vm, burst, &CostModel::default())[0];
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(d.image_footprint("img"), mb(522));
        assert_eq!(d.image_footprint("ghost"), 0);
    }
}
