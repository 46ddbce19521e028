//! The Docker driver.
//!
//! Containers share the host kernel: a container joins the instance's
//! sandbox namespace, where the same NNF instance a native NF runs is
//! configured by the same command list — the entrypoint script of the
//! containerized NF. Packaging and footprint differ (image layers,
//! runtime shim); the data path does not. Table 1's near-identical
//! Docker/native throughput follows.

use un_container::{ContainerRuntime, Registry};
use un_nnf::NnfDescriptor;
use un_sim::mem::mb;

use super::{foreign, foreign_handle, substrate, ComputeDriver, CreateRequest, NodeEnv, Packaging};
use crate::types::{ComputeError, FlavorSpec};

/// Driver state: the container engine and the registry it pulls from.
/// The default driver's registry is empty.
#[derive(Default)]
pub struct DockerDriver {
    /// The container engine (image store inside).
    pub runtime: ContainerRuntime,
    /// The registry images are pulled from.
    pub registry: Registry,
}

fn container(packaging: &Packaging) -> Result<un_container::ContainerId, ComputeError> {
    match packaging {
        Packaging::Docker(container) => Ok(*container),
        _ => Err(foreign_handle()),
    }
}

impl ComputeDriver for DockerDriver {
    fn label(&self) -> &'static str {
        "Docker driver"
    }

    /// Pull the image, then define a container in the sandbox's
    /// namespace.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<Packaging, ComputeError> {
        let FlavorSpec::Docker {
            image,
            tag,
            process_rss,
        } = req.spec
        else {
            return Err(foreign(req.spec));
        };
        self.runtime
            .store
            .pull(&self.registry, image, tag)
            .ok_or_else(|| {
                ComputeError::Substrate(format!("image {image}:{tag} not in registry"))
            })?;
        let made = self.runtime.create(
            req.name,
            image,
            tag,
            req.ns,
            *process_rss,
            env.ledger,
            req.account,
        );
        made.map(Packaging::Docker).map_err(substrate)
    }

    fn start(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError> {
        let container = container(packaging)?;
        self.runtime.start(container, env.ledger).map_err(substrate)
    }

    fn stop(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError> {
        let container = container(packaging)?;
        self.runtime.stop(container, env.ledger).map_err(substrate)
    }

    fn destroy(&mut self, packaging: &Packaging) -> Result<(), ComputeError> {
        let removed = self.runtime.remove(container(packaging)?);
        removed.map(drop).map_err(substrate)
    }

    /// Virtual size (all layers) of the image the container runs.
    fn image_footprint(&self, spec: &FlavorSpec, _nf: &NnfDescriptor) -> u64 {
        match spec {
            FlavorSpec::Docker { image, tag, .. } => self
                .runtime
                .store
                .image_virtual_size(image, tag)
                .unwrap_or(0),
            _ => 0,
        }
    }

    /// The entrypoint's userland plus the NF daemon and runtime shim.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Docker { process_rss, .. } => process_rss + mb(25),
            _ => 0,
        }
    }

    fn instance_count(&self) -> usize {
        self.runtime.len()
    }
}

#[cfg(test)]
mod tests {
    //! Docker NFs through the compute manager.

    use un_packet::{MacAddr, PacketBuilder};
    use un_sim::mem::{mb, mb_f};

    use crate::drivers::{ComputeDriver, CreateRequest, NodeEnv};
    use crate::manager::tests::{docker_spec, ipsec, Rig, NATIVE};
    use crate::types::ComputeError;

    #[test]
    fn containerized_ipsec_encrypts_via_host_kernel() {
        let mut rig = Rig::new();
        let spec = docker_spec("strongswan", mb_f(19.4));
        let swan = rig.create("ipsec", &spec, &ipsec(), false).unwrap();
        rig.start(swan).unwrap();

        // RAM = process + shim + charon bookkeeping (plugin).
        assert!(rig.ram(swan) >= mb_f(19.4) + mb_f(4.8));
        assert_eq!(rig.mgr.image_footprint(swan), mb(240));

        // Static neighbor toward the peer, then traffic through port 0
        // leaves encrypted on port 1 — all in the *host* kernel.
        let ns = rig.ns(swan).unwrap();
        rig.host
            .neigh_add(ns, "192.0.2.2".parse().unwrap(), MacAddr::local(99))
            .unwrap();
        let lan = rig.port(swan, 0).unwrap();
        assert_eq!(rig.host.iface_by_name(ns, "eth0").unwrap().id, lan);
        let lan_mac = rig.host.iface(lan).unwrap().mac;
        let payload = vec![0x77u8; 333];
        let pkt = PacketBuilder::new()
            .ethernet(MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1000, 2000)
            .payload(&payload)
            .build();
        let io = rig.deliver_one(swan, 0, pkt);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1, "out the WAN port");
        assert!(
            !io.outputs[0]
                .1
                .data()
                .windows(payload.len())
                .any(|w| w == &payload[..]),
            "encrypted on the wire"
        );

        rig.stop(swan).unwrap();
        assert_eq!(rig.ram(swan), 0);
        rig.destroy(swan).unwrap();
        assert_eq!(rig.residue(), (1, 1));
    }

    #[test]
    fn create_failures() {
        let mut rig = Rig::new();
        // No such functional type.
        assert!(matches!(
            rig.create("quantum", &docker_spec("img", 0), &[], false),
            Err(ComputeError::Unsupported(_))
        ));
        // Image not in registry.
        assert!(matches!(
            rig.create("ipsec", &docker_spec("ghost", 0), &[], false),
            Err(ComputeError::Substrate(_))
        ));
        // A spec of another technology.
        let req = CreateRequest {
            account: rig.node,
            name: "nf",
            spec: NATIVE,
            n_ports: 2,
            ns: rig.host.add_namespace("docker-nf"),
        };
        let mut env = NodeEnv {
            host: &mut rig.host,
            ledger: &mut rig.ledger,
            costs: &rig.costs,
        };
        assert!(matches!(
            rig.mgr.docker.create(&mut env, &req),
            Err(ComputeError::Unsupported(_))
        ));
        rig.host.remove_namespace(req.ns).unwrap();
        assert_eq!(rig.mgr.docker.instance_count(), 0);
        assert_eq!(rig.residue(), (1, 1));
    }
}
