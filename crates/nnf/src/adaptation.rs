//! The adaptation layer for single-interface sharable NNFs.
//!
//! Paper §2: "an additional adaptation layer is required to cope with
//! the fact that NNFs may be designed to receive traffic from a single
//! network interface. Such layer attaches the NNF to one port of the
//! switch and configures it to receive the traffic from multiple
//! service graphs, appropriately marked to make it distinguishable."
//!
//! A shared instance starts on **one** attachment interface. Each
//! [`GraphBinding`] riding it is a command list,
//! [`binding_program`](crate::translate::binding_program): two marked
//! VLAN sub-interfaces, a private routing table ("multiple internal
//! paths") and the NAT program over them. [`execute`](crate::plugins::execute)
//! runs it and [`undo`](crate::plugins::undo) removes it; the layer
//! makes no kernel call of its own.
//!
//! The layer is the one record of who rides a shared instance: a binding
//! is in [`AdaptationLayer::bindings`] exactly while its list is
//! installed, kept with the ports it ran on. It is keyed by the binding,
//! not the graph, so a graph with two NFs on one shared instance holds
//! two bindings, told apart by their marks.

use un_linux::IfaceId;

use crate::plugin::GraphBinding;

/// The bindings riding one shared instance, each with the ports its list
/// ran on: the attachment, then its two sub-interfaces.
#[derive(Debug, Default)]
pub struct AdaptationLayer {
    attached: Vec<(GraphBinding, Vec<IfaceId>)>,
}

impl AdaptationLayer {
    /// The bindings attached, in attach order.
    pub fn bindings(&self) -> impl Iterator<Item = &GraphBinding> {
        self.attached.iter().map(|(b, _)| b)
    }

    /// Record `binding`, installed on `ports`.
    pub(crate) fn insert(&mut self, binding: &GraphBinding, ports: Vec<IfaceId>) {
        self.attached.push((binding.clone(), ports));
    }

    /// Forget `binding`, returning the ports it was installed on; `None`
    /// if it is not attached.
    pub(crate) fn remove(&mut self, binding: &GraphBinding) -> Option<Vec<IfaceId>> {
        let pos = self.attached.iter().position(|(b, _)| b == binding)?;
        Some(self.attached.remove(pos).1)
    }
}

#[cfg(test)]
mod tests {
    use un_linux::netfilter::{Chain, NfTable};
    use un_linux::{Host, NsId};
    use un_sim::{AccountId, CostModel, MemLedger};

    use crate::plugin::{described, NnfContext, NnfError, NnfInstance};
    use crate::plugins::tests::snapshot;
    use crate::translate::NatBinding;

    use super::*;

    fn binding(graph: &str, mark: u32) -> GraphBinding {
        let nat = NatBinding {
            lan: "192.168.1.1/24".parse().unwrap(),
            wan: format!("203.0.113.{mark}/24").parse().unwrap(),
            gw: None,
            dnat: Vec::new(),
        };
        GraphBinding {
            graph: graph.to_string(),
            mark,
            zone: mark as u16,
            vid_lan: (mark * 2) as u16 + 100,
            vid_wan: (mark * 2) as u16 + 101,
            nat: Some(nat),
        }
    }

    /// A shared NAT started on its one attachment port, `attach0`.
    struct Rig {
        host: Host,
        ns: NsId,
        ledger: MemLedger,
        account: AccountId,
        nat: NnfInstance,
    }

    impl Rig {
        fn new() -> Self {
            let mut host = Host::new("cpe", CostModel::default());
            let ns = host.add_namespace("nnf");
            let port = host.add_external(ns, "attach0", 7).unwrap();
            let mut ledger = MemLedger::new();
            let account = ledger.create_account("nnf", None);
            let nat = NnfInstance::new(&described("nat"), true).unwrap();
            let mut rig = Rig {
                host,
                ns,
                ledger,
                account,
                nat,
            };
            let (nat, mut ctx) = rig.parts();
            nat.start(&mut ctx, &[port], &[]).unwrap();
            rig
        }

        /// The instance, and the context it configures the namespace
        /// through.
        fn parts(&mut self) -> (&mut NnfInstance, NnfContext<'_>) {
            let ctx = NnfContext {
                host: &mut self.host,
                ns: self.ns,
                ledger: &mut self.ledger,
                account: self.account,
            };
            (&mut self.nat, ctx)
        }

        fn bind(&mut self, binding: &GraphBinding) -> Result<(), NnfError> {
            let (nat, mut ctx) = self.parts();
            nat.bind_graph(&mut ctx, binding)
        }

        fn unbind(&mut self, binding: &GraphBinding) -> Result<(), NnfError> {
            let (nat, mut ctx) = self.parts();
            nat.unbind_graph(&mut ctx, binding)
        }
    }

    #[test]
    fn attach_creates_marked_subifaces_and_table() {
        let mut rig = Rig::new();
        let b1 = binding("g1", 1);
        let b2 = binding("g2", 2);
        rig.bind(&b1).unwrap();
        rig.bind(&b2).unwrap();
        assert_eq!(rig.nat.bindings().collect::<Vec<_>>(), [&b1, &b2]);
        let g1_lan = rig.host.iface_by_name(rig.ns, "m1-lan").unwrap();
        assert_eq!(g1_lan.name, "m1-lan");

        // The namespace now has: 2 marking rules per graph, a policy
        // rule per graph, and per-interface zones.
        let nsr = rig.host.namespace(rig.ns).unwrap();
        assert_eq!(
            nsr.netfilter
                .rules(NfTable::Mangle, Chain::Prerouting)
                .len(),
            4
        );
        let rules: Vec<_> = nsr.routing.rules().collect();
        assert!(rules.iter().any(|r| r.fwmark == Some(1) && r.table == 101));
        assert!(rules.iter().any(|r| r.fwmark == Some(2) && r.table == 102));

        assert_eq!(g1_lan.ct_zone, 1);
    }

    /// A binding refused part-way leaves the namespace as it found it:
    /// its WAN VID is taken, so its LAN sub-interface was made first and
    /// must go again, or no later unbind could reach it.
    #[test]
    fn duplicate_vid_rejected() {
        let mut rig = Rig::new();
        let b = binding("g1", 1);
        rig.bind(&b).unwrap();
        let before = snapshot(&rig.host, rig.ns);
        let mut dup = binding("g9", 9);
        dup.vid_wan = b.vid_wan; // collides
        assert!(matches!(rig.bind(&dup), Err(NnfError::Kernel(_))));
        assert_eq!(snapshot(&rig.host, rig.ns), before);
        assert!(rig.host.iface_by_name(rig.ns, "m9-lan").is_none());
        assert_eq!(rig.nat.bindings().collect::<Vec<_>>(), [&b]);
    }

    #[test]
    fn detach_cleans_up() {
        let mut rig = Rig::new();
        let b = binding("g1", 1);
        rig.bind(&b).unwrap();
        rig.unbind(&b).unwrap();
        assert!(matches!(rig.unbind(&b), Err(NnfError::BadState(_))));
        assert_eq!(rig.nat.bindings().count(), 0);
        assert_eq!(rig.host.iface_count(), 3, "root lo, nnf lo, attach0");
        let nsr = rig.host.namespace(rig.ns).unwrap();
        assert!(nsr
            .netfilter
            .rules(NfTable::Mangle, Chain::Prerouting)
            .is_empty());
        assert!(!nsr.routing.rules().any(|r| r.fwmark == Some(1)));
    }
}
