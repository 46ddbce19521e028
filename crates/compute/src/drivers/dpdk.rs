//! The DPDK driver: poll-mode userspace NF processes.
//!
//! A DPDK process bypasses the kernel — per-packet cost is a few tens of
//! nanoseconds of PMD work, no interrupts, no syscalls — but each
//! instance pins dedicated cores and hugepage memory, which is why the
//! orchestrator reserves it for NFs that need the speed. What the
//! process forwards is its NF's command list, run in a sandbox like
//! every other flavor's; the compute manager charges each frame the PMD
//! cost in place of the kernel's. This driver pins and maps.

use un_nnf::NnfDescriptor;
use un_sim::mem::mb;

use super::{foreign, foreign_handle, substrate, ComputeDriver, CreateRequest, NodeEnv, Packaging};
use crate::types::{ComputeError, FlavorSpec};

/// Driver state.
#[derive(Debug, Default)]
pub struct DpdkDriver {
    procs: usize,
    /// Cores currently pinned by running instances.
    pub cores_in_use: u32,
}

impl ComputeDriver for DpdkDriver {
    fn label(&self) -> &'static str {
        "DPDK driver"
    }

    /// Define a DPDK process: the cores and hugepages it will take.
    fn create(
        &mut self,
        _env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<Packaging, ComputeError> {
        let FlavorSpec::Dpdk {
            cores,
            hugepages_mb,
        } = *req.spec
        else {
            return Err(foreign(req.spec));
        };
        self.procs += 1;
        Ok(Packaging::Dpdk {
            cores,
            hugepages_mb,
            account: req.account,
        })
    }

    /// Pin cores, map hugepages.
    fn start(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError> {
        let &Packaging::Dpdk {
            cores,
            hugepages_mb,
            account,
        } = packaging
        else {
            return Err(foreign_handle());
        };
        env.ledger
            .alloc(account, "hugepages", mb(hugepages_mb))
            .map_err(substrate)?;
        self.cores_in_use += cores;
        Ok(())
    }

    /// Release cores and hugepages.
    fn stop(&mut self, env: &mut NodeEnv<'_>, packaging: &Packaging) -> Result<(), ComputeError> {
        let &Packaging::Dpdk {
            cores,
            hugepages_mb,
            account,
        } = packaging
        else {
            return Err(foreign_handle());
        };
        env.ledger
            .free(account, "hugepages", mb(hugepages_mb))
            .map_err(substrate)?;
        self.cores_in_use -= cores;
        Ok(())
    }

    fn destroy(&mut self, _packaging: &Packaging) -> Result<(), ComputeError> {
        self.procs -= 1;
        Ok(())
    }

    /// The statically linked application binary: the descriptor's
    /// package.
    fn image_footprint(&self, _spec: &FlavorSpec, nf: &NnfDescriptor) -> u64 {
        nf.package_bytes
    }

    /// The hugepages it maps.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Dpdk { hugepages_mb, .. } => mb(*hugepages_mb),
            _ => 0,
        }
    }

    fn instance_count(&self) -> usize {
        self.procs
    }
}

#[cfg(test)]
mod tests {
    //! DPDK NFs through the compute manager.

    use un_nnf::NnfError;
    use un_packet::{MacAddr, Packet};
    use un_sim::mem::mb;
    use un_sim::{Cost, CostModel};

    use crate::manager::tests::{dpdk_spec, frame, l2fwd, Rig};
    use crate::types::ComputeError;

    #[test]
    fn lifecycle_resources_and_forwarding() {
        let mut rig = Rig::new();
        let proc = rig
            .create("l2fwd-fast", &dpdk_spec(2, 512), &l2fwd(), false)
            .unwrap();
        rig.start(proc).unwrap();
        assert_eq!(rig.mgr.dpdk.cores_in_use, 2);
        assert_eq!(rig.ram(proc), mb(512));

        let io = rig.deliver_one(proc, 0, frame(MacAddr::local(1), MacAddr::local(2), 64));
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1);
        assert_eq!(
            io.cost.as_nanos(),
            CostModel::default().pmd_per_packet_ns,
            "DPDK path is cheap and kernel-free"
        );

        assert!(matches!(rig.destroy(proc), Err(ComputeError::BadState(_))));
        rig.stop(proc).unwrap();
        assert_eq!(rig.mgr.dpdk.cores_in_use, 0);
        assert_eq!(rig.ram(proc), 0);
        rig.destroy(proc).unwrap();
        let gone = rig.deliver_one(proc, 0, Packet::from_slice(&[0]));
        assert!(gone.outputs.is_empty());
    }

    /// A process that does not run takes no frame and charges nothing.
    #[test]
    fn stopped_process_drops() {
        let mut rig = Rig::new();
        let proc = rig
            .create("l2fwd-fast", &dpdk_spec(1, 64), &l2fwd(), false)
            .unwrap();
        let io = rig.deliver_one(proc, 0, frame(MacAddr::local(1), MacAddr::local(2), 64));
        assert!(io.outputs.is_empty());
        assert_eq!(io.cost, Cost::ZERO);
        rig.start(proc).unwrap();
        rig.stop(proc).unwrap();
        let io = rig.deliver_one(proc, 0, frame(MacAddr::local(1), MacAddr::local(2), 64));
        assert!(io.outputs.is_empty());
        assert_eq!(io.cost, Cost::ZERO);
    }

    /// A DPDK NF forwards what a two-port bridge forwards: a frame whose
    /// destination was learned on its ingress port, or whose source is not
    /// a unicast MAC, is taken at PMD cost and dropped, and the host's
    /// counters see it.
    #[test]
    fn a_dpdk_nf_forwards_what_a_bridge_forwards() {
        let mut rig = Rig::new();
        let proc = rig
            .create("l2fwd-fast", &dpdk_spec(1, 64), &l2fwd(), false)
            .unwrap();
        rig.start(proc).unwrap();
        let pmd = rig.costs.pmd_per_packet_ns;
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        // b is learned behind port 0; a frame from port 0 to it stays there.
        assert_eq!(rig.deliver_one(proc, 0, frame(b, a, 64)).outputs.len(), 1);
        let hairpin = rig.deliver_one(proc, 0, frame(a, b, 64));
        assert!(hairpin.outputs.is_empty());
        assert_eq!(hairpin.cost.as_nanos(), pmd);
        let invalid = rig.host.trace.rx_invalid_src_mac;
        let zero = rig.deliver_one(proc, 0, Packet::from_slice(&[0u8; 64]));
        assert!(zero.outputs.is_empty());
        assert_eq!(zero.cost.as_nanos(), pmd);
        assert_eq!(rig.host.trace.rx_invalid_src_mac, invalid + 1);
    }

    /// A DPDK NF with one port is refused at start, and keeps no core or
    /// hugepage.
    #[test]
    fn a_one_port_dpdk_nf_is_refused_at_start() {
        let mut rig = Rig::new();
        let node = rig.node;
        let proc = rig
            .run(|m, env| {
                let spec = dpdk_spec(1, 64);
                m.create(env, "one", "l2fwd-fast", &spec, 1, &l2fwd(), false, node)
            })
            .unwrap();
        let refusal = NnfError::NotEnoughPorts { need: 2, have: 1 };
        assert_eq!(
            rig.start(proc),
            Err(ComputeError::Substrate(refusal.to_string()))
        );
        assert_eq!(rig.mgr.dpdk.cores_in_use, 0);
        assert_eq!(rig.ram(proc), 0);
        rig.destroy(proc).unwrap();
        assert_eq!(rig.residue(), (1, 1));
    }
}
