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
//! Here the plugin is an [`NnfInstance`] built from the descriptor the
//! request carries, and the script is the command list it carries,
//! compiled from the NF's config by `un_nnf::compile`.

use std::collections::HashMap;

use un_linux::{IfaceId, NsId};
use un_nnf::{GraphBinding, NnfError, NnfInstance};
use un_packet::Packet;
use un_sim::mem::mb;

use super::sandbox::Sandbox;
use super::{record, substrate, ComputeDriver, CreateRequest, NodeEnv};
use crate::types::{ComputeError, Crossing, FlavorSpec, InstanceId};

struct NativeInstance {
    sandbox: Sandbox,
    /// The descriptor's package size: a native NF's "image".
    package_bytes: u64,
}

/// An NNF's refusal of a request about sharing: asked of a dedicated
/// instance or a type not sharable, it is `Unsupported`; a binding the
/// instance does not hold is a `BadState`.
fn refusal(e: NnfError) -> ComputeError {
    match e {
        NnfError::NotSharable => ComputeError::Unsupported(e.to_string()),
        NnfError::BadState(s) => ComputeError::BadState(s),
        e => substrate(e),
    }
}

/// Driver state: the instance table.
#[derive(Default)]
pub struct NativeDriver {
    instances: HashMap<InstanceId, NativeInstance>,
    /// functional type → instance, for single-instance NNFs.
    singletons: HashMap<String, InstanceId>,
}

impl NativeDriver {
    /// Is there already a live instance of this single-instance type?
    pub fn existing_instance(&self, functional_type: &str) -> Option<InstanceId> {
        self.singletons.get(functional_type).copied()
    }

    /// The bindings on a shared instance, in bind order, as its
    /// adaptation layer records them (a graph with two NFs on it holds
    /// two); none on any other.
    pub fn bindings(&self, id: InstanceId) -> impl Iterator<Item = &GraphBinding> {
        let instance = self.instances.get(&id);
        instance
            .into_iter()
            .flat_map(|i| i.sandbox.plugin.bindings())
    }

    /// Bindings on an instance (shared mode).
    pub fn binding_count(&self, id: InstanceId) -> usize {
        self.bindings(id).count()
    }
}

impl ComputeDriver for NativeDriver {
    fn label(&self) -> &'static str {
        "Native driver (NNF)"
    }

    /// An NNF in a fresh namespace with the ports the graph wires.
    /// `req.shared` asks for a shared instance on one attachment port
    /// (sharable NNFs only; graphs then attach via `bind_graph`). A type
    /// with no descriptor has no native implementation.
    fn create(
        &mut self,
        env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<(), ComputeError> {
        let ft = req.functional_type;
        let desc = req
            .nf
            .ok_or_else(|| ComputeError::NoSuchNnf(ft.to_string()))?;
        if !desc.multi_instance && self.singletons.contains_key(ft) {
            return Err(ComputeError::NnfBusy(ft.to_string()));
        }
        let plugin = NnfInstance::new(desc, req.shared).map_err(refusal)?;
        let n_ports = if req.shared { 1 } else { req.n_ports };
        let sandbox = Sandbox::create(env.host, "nnf", "port", n_ports, plugin, req)?;

        if !desc.multi_instance {
            self.singletons.insert(ft.to_string(), req.id);
        }
        let inst = NativeInstance {
            sandbox,
            package_bytes: desc.package_bytes,
        };
        self.instances.insert(req.id, inst);
        Ok(())
    }

    /// Run the NNF's command list.
    fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        record(&mut self.instances, id)?
            .sandbox
            .start(env.host, env.ledger)
    }

    fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        record(&mut self.instances, id)?
            .sandbox
            .stop(env.host, env.ledger)
    }

    /// The namespace the NNF ran in goes with it.
    fn destroy(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        if record(&mut self.instances, id)?.sandbox.started() {
            return Err(ComputeError::BadState("destroy while running"));
        }
        let inst = self.instances.remove(&id).expect("looked up above");
        self.singletons.retain(|_, v| *v != id);
        inst.sandbox.destroy(env.host)
    }

    fn deliver_into(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: &mut Vec<(u32, Packet)>,
        out: &mut Crossing,
    ) {
        match self.instances.get(&id) {
            Some(inst) => inst.sandbox.deliver_into(frames, env.host, out),
            None => out.refuse(frames),
        }
    }

    fn image_footprint(&self, id: InstanceId) -> u64 {
        self.instances.get(&id).map_or(0, |i| i.package_bytes)
    }

    /// A daemon and its kernel state, no guest or runtime around them.
    fn estimate_ram(&self, _spec: &FlavorSpec) -> u64 {
        mb(24)
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

    fn bind_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        let inst = record(&mut self.instances, id)?;
        let mut ctx = inst.sandbox.ctx(env.host, env.ledger);
        let bound = inst.sandbox.plugin.bind_graph(&mut ctx, binding);
        bound.map_err(refusal)
    }

    fn unbind_graph(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        binding: &GraphBinding,
    ) -> Result<(), ComputeError> {
        let inst = record(&mut self.instances, id)?;
        let mut ctx = inst.sandbox.ctx(env.host, env.ledger);
        let unbound = inst.sandbox.plugin.unbind_graph(&mut ctx, binding);
        unbound.map_err(refusal)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{ipsec, Rig};
    use super::*;
    use un_nnf::NatBinding;

    const NATIVE: &FlavorSpec = &FlavorSpec::Native;

    #[test]
    fn single_instance_nnf_enforced() {
        let mut rig = Rig::new();
        let mut d = NativeDriver::default();
        rig.create(&mut d, 1, "ipsec", NATIVE, &ipsec(), false)
            .unwrap();
        // A second native IPsec must be refused (charon is a singleton).
        let err = rig
            .create(&mut d, 2, "ipsec", NATIVE, &ipsec(), false)
            .unwrap_err();
        assert!(matches!(err, ComputeError::NnfBusy(_)));
        assert_eq!(d.existing_instance("ipsec"), Some(InstanceId(1)));

        // Multi-instance NNFs are fine twice.
        for id in [3, 4] {
            rig.create(&mut d, id, "firewall", NATIVE, &[], false)
                .unwrap();
        }
    }

    #[test]
    fn shared_mode_rules() {
        let mut rig = Rig::new();
        let mut d = NativeDriver::default();
        // firewall is not sharable.
        assert!(matches!(
            rig.create(&mut d, 1, "firewall", NATIVE, &[], true),
            Err(ComputeError::Unsupported(_))
        ));
        // nat is sharable; shared instance gets a single port.
        let nat = InstanceId(2);
        rig.create(&mut d, 2, "nat", NATIVE, &[], true).unwrap();
        assert!(d.port_iface(nat, 0).is_some());
        assert!(d.port_iface(nat, 1).is_none());
        d.start(&mut rig.env(), nat).unwrap();

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
        d.bind_graph(&mut rig.env(), nat, &binding).unwrap();
        assert_eq!(d.binding_count(nat), 1);
        d.unbind_graph(&mut rig.env(), nat, &binding).unwrap();
        assert_eq!(d.binding_count(nat), 0);
        assert!(matches!(
            d.unbind_graph(&mut rig.env(), nat, &binding),
            Err(ComputeError::BadState(_))
        ));
    }

    #[test]
    fn lifecycle_and_packet_path() {
        let mut rig = Rig::new();
        let mut d = NativeDriver::default();
        let swan = InstanceId(1);
        rig.create(&mut d, 1, "ipsec", NATIVE, &ipsec(), false)
            .unwrap();
        d.start(&mut rig.env(), swan).unwrap();

        let ns = d.namespace_of(swan).unwrap();
        rig.host
            .neigh_add(
                ns,
                "192.0.2.2".parse().unwrap(),
                un_packet::MacAddr::local(99),
            )
            .unwrap();
        let lan = d.port_iface(swan, 0).unwrap();
        assert_eq!(rig.host.iface_by_name(ns, "port0").unwrap().id, lan);
        let lan_mac = rig.host.iface(lan).unwrap().mac;
        let pkt = un_packet::PacketBuilder::new()
            .ethernet(un_packet::MacAddr::local(5), lan_mac)
            .ipv4(
                "192.168.1.10".parse().unwrap(),
                "172.16.0.9".parse().unwrap(),
            )
            .udp(1, 2)
            .payload(&[0xEE; 100])
            .build();
        let io = &d.deliver_batch(&mut rig.env(), swan, vec![(0, pkt)])[0];
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1);
        assert!(io.cost.as_nanos() > 0);

        // destroy-while-running is refused; stop then destroy works and
        // frees the singleton slot.
        assert!(matches!(
            d.destroy(&mut rig.env(), swan),
            Err(ComputeError::BadState(_))
        ));
        d.stop(&mut rig.env(), swan).unwrap();
        d.destroy(&mut rig.env(), swan).unwrap();
        assert_eq!(d.existing_instance("ipsec"), None);
        assert!(
            rig.host.namespace(ns).is_none(),
            "namespace outlived its NNF"
        );
        assert_eq!((rig.host.namespace_count(), rig.host.iface_count()), (1, 1));
        rig.create(&mut d, 9, "ipsec", NATIVE, &ipsec(), false)
            .unwrap();
    }
}
