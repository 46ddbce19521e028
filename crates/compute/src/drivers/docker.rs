//! The Docker driver.
//!
//! Containers share the host kernel: the driver joins the container to
//! the same plugin-in-a-namespace sandbox the native driver runs —
//! the plugin is the entrypoint script of the containerized NF.
//! Packaging and footprint differ (image layers, runtime shim); the
//! data path does not. Table 1's near-identical Docker/native
//! throughput follows.

use std::collections::HashMap;

use un_container::{ContainerId, ContainerRuntime, Registry};
use un_linux::{IfaceId, NsId};
use un_nnf::NnfCatalog;
use un_packet::Packet;
use un_sim::mem::mb;

use super::sandbox::Sandbox;
use super::{foreign, no_outcomes, record, substrate, ComputeDriver, CreateRequest, NodeEnv};
use crate::types::{ComputeError, FlavorSpec, InstanceId, IoOutcome};

struct DockerInstance {
    container: ContainerId,
    sandbox: Sandbox,
    /// Virtual size (all layers) of the image the container runs.
    image_bytes: u64,
}

/// Driver state: the container engine plus per-instance bookkeeping.
pub struct DockerDriver {
    /// The container engine (image store inside).
    pub runtime: ContainerRuntime,
    /// The registry images are pulled from.
    pub registry: Registry,
    catalog: NnfCatalog,
    instances: HashMap<InstanceId, DockerInstance>,
}

impl Default for DockerDriver {
    /// A driver with an empty registry.
    fn default() -> Self {
        DockerDriver {
            runtime: ContainerRuntime::new(),
            registry: Registry::new(),
            catalog: NnfCatalog::standard(),
            instances: HashMap::new(),
        }
    }
}

impl ComputeDriver for DockerDriver {
    fn label(&self) -> &'static str {
        "Docker driver"
    }

    /// Pull the image, make namespace + ports, define the container.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<(), ComputeError> {
        let FlavorSpec::Docker {
            image,
            tag,
            process_rss,
        } = req.spec
        else {
            return Err(foreign(req.spec));
        };
        let ft = req.functional_type;
        let plugin = self.catalog.instantiate(ft).ok_or_else(|| {
            ComputeError::Unsupported(format!("no container entrypoint for '{ft}'"))
        })?;
        self.runtime
            .store
            .pull(&self.registry, image, tag)
            .ok_or_else(|| {
                ComputeError::Substrate(format!("image {image}:{tag} not in registry"))
            })?;

        let sandbox = Sandbox::create(env.host, "docker", "eth", req.n_ports, plugin, req)?;
        let (ns, rss) = (sandbox.ns(), *process_rss);
        let made = self
            .runtime
            .create(req.name, image, tag, ns, rss, env.ledger, req.account);
        match made {
            Ok(container) => {
                let image_bytes = self.runtime.store.image_virtual_size(image, tag);
                let inst = DockerInstance {
                    container,
                    sandbox,
                    image_bytes: image_bytes.unwrap_or(0),
                };
                self.instances.insert(req.id, inst);
                Ok(())
            }
            Err(e) => {
                let _ = sandbox.destroy(env.host);
                Err(substrate(e))
            }
        }
    }

    /// Start the container and run its entrypoint configuration.
    fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let inst = record(&mut self.instances, id)?;
        self.runtime
            .start(inst.container, env.ledger)
            .map_err(substrate)?;
        inst.sandbox.start(env.host, env.ledger)
    }

    /// Entrypoint teardown, then the runtime's stop.
    fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let inst = record(&mut self.instances, id)?;
        inst.sandbox.stop(env.host, env.ledger)?;
        self.runtime
            .stop(inst.container, env.ledger)
            .map_err(substrate)
    }

    /// The runtime refuses a running container; a stopped one goes
    /// with its network namespace.
    fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let container = record(&mut self.instances, id)?.container;
        self.runtime.remove(container).map_err(substrate)?;
        let inst = self.instances.remove(&id).expect("looked up above");
        inst.sandbox.destroy(env.host)
    }

    fn deliver_batch(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: Vec<(u32, Packet)>,
    ) -> Vec<IoOutcome> {
        match self.instances.get(&id) {
            Some(inst) => inst.sandbox.deliver_batch(frames, env.host),
            None => no_outcomes(&frames),
        }
    }

    fn image_footprint(&self, id: InstanceId) -> u64 {
        self.instances.get(&id).map_or(0, |i| i.image_bytes)
    }

    /// The entrypoint's userland plus the NF daemon and runtime shim.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Docker { process_rss, .. } => process_rss + mb(25),
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
    use super::super::testkit::{ipsec_config, Rig};
    use super::*;
    use un_container::{Image, Layer};
    use un_nffg::NfConfig;
    use un_sim::mem::mb_f;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.push(Image {
            name: "strongswan".into(),
            tag: "latest".into(),
            layers: vec![
                Layer::new("sha256:base", mb(235)),
                Layer::new("sha256:swan", mb(5)),
            ],
        });
        r
    }

    fn spec(image: &str, process_rss: u64) -> FlavorSpec {
        FlavorSpec::Docker {
            image: image.into(),
            tag: "latest".into(),
            process_rss,
        }
    }

    #[test]
    fn containerized_ipsec_encrypts_via_host_kernel() {
        let mut rig = Rig::new();
        let mut d = DockerDriver {
            registry: registry(),
            ..Default::default()
        };
        let swan = InstanceId(1);
        let acct = rig
            .create(
                &mut d,
                1,
                "ipsec",
                &spec("strongswan", mb_f(19.4)),
                &ipsec_config(),
                false,
            )
            .unwrap();
        d.start(&mut rig.env(), swan).unwrap();

        // RAM = process + shim + charon bookkeeping (plugin).
        assert!(rig.ledger.usage(acct) >= mb_f(19.4) + mb_f(4.8));
        assert_eq!(d.image_footprint(swan), mb(240));

        // Static neighbor toward the peer, then traffic through port 0
        // leaves encrypted on port 1 — all in the *host* kernel.
        let ns = d.namespace_of(swan).unwrap();
        rig.host
            .neigh_add(
                ns,
                "192.0.2.2".parse().unwrap(),
                un_packet::MacAddr::local(99),
            )
            .unwrap();
        let lan = d.port_iface(swan, 0).unwrap();
        assert_eq!(rig.host.iface_by_name(ns, "eth0").unwrap().id, lan);
        let lan_mac = rig.host.iface(lan).unwrap().mac;
        let payload = vec![0x77u8; 333];
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(un_packet::MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1000, 2000)
            .payload(&payload)
            .build();
        let io = &d.deliver_batch(&mut rig.env(), swan, vec![(0, pkt)])[0];
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

        d.stop(&mut rig.env(), swan).unwrap();
        assert_eq!(rig.ledger.usage(acct), 0);
        d.destroy(&mut rig.env(), swan).unwrap();
        assert_eq!((rig.host.namespace_count(), rig.host.iface_count()), (1, 1));
    }

    #[test]
    fn create_failures() {
        let mut rig = Rig::new();
        let mut d = DockerDriver::default();
        let plain = NfConfig::default();
        // No such functional type.
        assert!(matches!(
            rig.create(&mut d, 1, "quantum", &spec("img", 0), &plain, false),
            Err(ComputeError::Unsupported(_))
        ));
        // Image not in registry.
        assert!(matches!(
            rig.create(&mut d, 1, "ipsec", &spec("ghost", 0), &plain, false),
            Err(ComputeError::Substrate(_))
        ));
        // A spec of another technology.
        assert!(matches!(
            rig.create(&mut d, 1, "ipsec", &FlavorSpec::Native, &plain, false),
            Err(ComputeError::Unsupported(_))
        ));
        assert_eq!(d.instance_count(), 0);
        assert_eq!((rig.host.namespace_count(), rig.host.iface_count()), (1, 1));
    }
}
