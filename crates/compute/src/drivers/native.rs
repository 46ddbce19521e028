//! The native (NNF) driver — the paper's contribution.
//!
//! "When a NNF should be used, the compute manager selects a NNF driver
//! developed as part of this work. This NNF driver implements the same
//! abstraction defined for the other compute drivers and dynamically
//! activates the plugin associated to the selected NNF … The NNF driver
//! starts the NNF in a new network namespace, to provide a basic form
//! of isolation, and configures the NNF with a predefined configuration
//! script." — §2.
//!
//! The namespace, the plugin (an [`NnfInstance`](un_nnf::NnfInstance)
//! built from the type's descriptor) and its script (the command list
//! `un_nnf::compile` made of the NF's config) are the sandbox every
//! flavor runs, which the compute manager owns. A native NF is that
//! sandbox with nothing around it, so this driver packages nothing.

use un_nnf::NnfDescriptor;
use un_sim::mem::mb;

use super::{ComputeDriver, CreateRequest, NodeEnv, Packaging};
use crate::types::{ComputeError, FlavorSpec};

/// Driver state: how many native instances there are.
#[derive(Default)]
pub struct NativeDriver {
    instances: usize,
}

impl ComputeDriver for NativeDriver {
    fn label(&self) -> &'static str {
        "Native driver (NNF)"
    }

    fn create(
        &mut self,
        _env: &mut NodeEnv<'_>,
        _req: &CreateRequest<'_>,
    ) -> Result<Packaging, ComputeError> {
        self.instances += 1;
        Ok(Packaging::Native)
    }

    fn start(
        &mut self,
        _env: &mut NodeEnv<'_>,
        _packaging: &Packaging,
    ) -> Result<(), ComputeError> {
        Ok(())
    }

    fn stop(&mut self, _env: &mut NodeEnv<'_>, _packaging: &Packaging) -> Result<(), ComputeError> {
        Ok(())
    }

    fn destroy(&mut self, _packaging: &Packaging) -> Result<(), ComputeError> {
        self.instances -= 1;
        Ok(())
    }

    /// The descriptor's package: a native NF's "image".
    fn image_footprint(&self, _spec: &FlavorSpec, nf: &NnfDescriptor) -> u64 {
        nf.package_bytes
    }

    /// A daemon and its kernel state, no guest or runtime around them.
    fn estimate_ram(&self, _spec: &FlavorSpec) -> u64 {
        mb(24)
    }

    fn instance_count(&self) -> usize {
        self.instances
    }
}

#[cfg(test)]
mod tests {
    //! Native NFs through the compute manager: the singleton rule, shared mode and the packet path.

    use un_nnf::{GraphBinding, NatBinding};
    use un_packet::{MacAddr, PacketBuilder};

    use crate::manager::tests::{ipsec, Rig, NATIVE};
    use crate::types::ComputeError;

    #[test]
    fn single_instance_nnf_enforced() {
        let mut rig = Rig::new();
        let first = rig.create("ipsec", NATIVE, &ipsec(), false).unwrap();
        // A second native IPsec must be refused (charon is a singleton).
        let err = rig.create("ipsec", NATIVE, &ipsec(), false).unwrap_err();
        assert!(matches!(err, ComputeError::NnfBusy(_)));
        assert_eq!(rig.mgr.existing_instance("ipsec"), Some(first));

        // Multi-instance NNFs are fine twice.
        for _ in 0..2 {
            rig.create("firewall", NATIVE, &[], false).unwrap();
        }
    }

    #[test]
    fn shared_mode_rules() {
        let mut rig = Rig::new();
        // firewall is not sharable.
        assert!(matches!(
            rig.create("firewall", NATIVE, &[], true),
            Err(ComputeError::Unsupported(_))
        ));
        // nat is sharable; shared instance gets a single port.
        let nat = rig.create("nat", NATIVE, &[], true).unwrap();
        assert!(rig.port(nat, 0).is_some());
        assert!(rig.port(nat, 1).is_none());
        rig.start(nat).unwrap();

        let addressing = NatBinding {
            lan: "192.168.1.1/24".parse().unwrap(),
            wan: "203.0.113.1/24".parse().unwrap(),
            gw: None,
            dnat: Vec::new(),
        };
        let binding = GraphBinding {
            graph: "g1".into(),
            mark: 1,
            zone: 1,
            vid_lan: 100,
            vid_wan: 101,
            nat: Some(addressing),
        };
        rig.bind(nat, &binding).unwrap();
        assert_eq!(rig.mgr.binding_count(nat), 1);
        rig.unbind(nat, &binding).unwrap();
        assert_eq!(rig.mgr.binding_count(nat), 0);
        assert!(matches!(
            rig.unbind(nat, &binding),
            Err(ComputeError::BadState(_))
        ));
    }

    #[test]
    fn lifecycle_and_packet_path() {
        let mut rig = Rig::new();
        let swan = rig.create("ipsec", NATIVE, &ipsec(), false).unwrap();
        rig.start(swan).unwrap();

        let ns = rig.ns(swan).unwrap();
        rig.host
            .neigh_add(ns, "192.0.2.2".parse().unwrap(), MacAddr::local(99))
            .unwrap();
        let lan = rig.port(swan, 0).unwrap();
        assert_eq!(rig.host.iface_by_name(ns, "port0").unwrap().id, lan);
        let lan_mac = rig.host.iface(lan).unwrap().mac;
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1, 2)
            .payload(&[0xEE; 100])
            .build();
        let io = rig.deliver_one(swan, 0, pkt);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1);
        assert!(io.cost.as_nanos() > 0);

        // destroy-while-running is refused; stop then destroy works and
        // frees the singleton slot.
        assert!(matches!(rig.destroy(swan), Err(ComputeError::BadState(_))));
        rig.stop(swan).unwrap();
        rig.destroy(swan).unwrap();
        assert_eq!(rig.mgr.existing_instance("ipsec"), None);
        assert!(
            rig.host.namespace(ns).is_none(),
            "namespace outlived its NNF"
        );
        assert_eq!(rig.residue(), (1, 1));
        rig.create("ipsec", NATIVE, &ipsec(), false).unwrap();
    }
}
