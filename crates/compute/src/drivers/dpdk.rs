//! The DPDK driver: poll-mode userspace NF processes.
//!
//! A DPDK process bypasses the kernel entirely — per-packet cost is a
//! few tens of nanoseconds of PMD work, no interrupts, no syscalls —
//! but each instance pins dedicated cores and hugepage memory, which is
//! why the orchestrator reserves it for NFs that need the speed.

use std::collections::HashMap;

use un_packet::Packet;
use un_sim::mem::mb;
use un_sim::{AccountId, Cost};

use super::{foreign, record, substrate, ComputeDriver, CreateRequest, NodeEnv};
use crate::types::{ComputeError, Crossing, FlavorSpec, InstanceId};

/// The statically linked DPDK application binary.
const APP_BINARY_BYTES: u64 = 12_000_000;

#[derive(Debug)]
struct DpdkProc {
    cores: u32,
    hugepages_mb: u64,
    n_ports: usize,
    running: bool,
    account: AccountId,
}

/// Driver state.
#[derive(Debug, Default)]
pub struct DpdkDriver {
    procs: HashMap<InstanceId, DpdkProc>,
    /// Cores currently pinned by running instances.
    pub cores_in_use: u32,
}

impl ComputeDriver for DpdkDriver {
    fn label(&self) -> &'static str {
        "DPDK driver"
    }

    /// Define a DPDK process NF (a transparent forwarder between its
    /// ports, processed at PMD cost).
    fn create(
        &mut self,
        _env: &mut NodeEnv<'_>,
        req: &CreateRequest<'_>,
    ) -> Result<(), ComputeError> {
        let FlavorSpec::Dpdk {
            cores,
            hugepages_mb,
        } = *req.spec
        else {
            return Err(foreign(req.spec));
        };
        let proc = DpdkProc {
            cores,
            hugepages_mb,
            n_ports: req.n_ports,
            running: false,
            account: req.account,
        };
        self.procs.insert(req.id, proc);
        Ok(())
    }

    /// Start: pins cores, maps hugepages.
    fn start(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let p = record(&mut self.procs, id)?;
        if p.running {
            return Err(ComputeError::BadState("already running"));
        }
        env.ledger
            .alloc(p.account, "hugepages", mb(p.hugepages_mb))
            .map_err(substrate)?;
        p.running = true;
        self.cores_in_use += p.cores;
        Ok(())
    }

    /// Stop: releases cores and hugepages.
    fn stop(&mut self, env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        let p = record(&mut self.procs, id)?;
        if !p.running {
            return Err(ComputeError::BadState("not running"));
        }
        env.ledger
            .free(p.account, "hugepages", mb(p.hugepages_mb))
            .map_err(substrate)?;
        p.running = false;
        self.cores_in_use -= p.cores;
        Ok(())
    }

    fn destroy(&mut self, _env: &mut NodeEnv<'_>, id: InstanceId) -> Result<(), ComputeError> {
        if record(&mut self.procs, id)?.running {
            return Err(ComputeError::BadState("destroy while running"));
        }
        self.procs.remove(&id);
        Ok(())
    }

    /// One PMD poll slot serves the whole burst — the process resolves
    /// once, frames PMD-forward to the next port in order.
    fn deliver_into(
        &mut self,
        env: &mut NodeEnv<'_>,
        id: InstanceId,
        frames: &mut Vec<(u32, Packet)>,
        out: &mut Crossing,
    ) {
        let Some(p) = self.procs.get(&id) else {
            return out.refuse(frames);
        };
        for (port, pkt) in frames.drain(..) {
            if !p.running || (port as usize) >= p.n_ports {
                out.end_frame(Cost::ZERO);
                continue;
            }
            let to = match (p.n_ports >= 2, port) {
                (true, 0) => 1,
                (true, _) => 0,
                (false, port) => port,
            };
            out.outputs.push((u64::from(to), pkt));
            out.end_frame(Cost::from_nanos(env.costs.pmd_per_packet_ns));
        }
    }

    fn image_footprint(&self, id: InstanceId) -> u64 {
        match self.procs.contains_key(&id) {
            true => APP_BINARY_BYTES,
            false => 0,
        }
    }

    /// The hugepages it maps.
    fn estimate_ram(&self, spec: &FlavorSpec) -> u64 {
        match spec {
            FlavorSpec::Dpdk { hugepages_mb, .. } => mb(*hugepages_mb),
            _ => 0,
        }
    }

    fn instance_count(&self) -> usize {
        self.procs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::Rig;
    use super::*;
    use crate::types::IoOutcome;
    use un_sim::CostModel;

    const PROC: InstanceId = InstanceId(1);

    fn create(rig: &mut Rig, d: &mut DpdkDriver, cores: u32, hugepages_mb: u64) -> AccountId {
        let spec = FlavorSpec::Dpdk {
            cores,
            hugepages_mb,
        };
        rig.create(d, PROC.0, "l2fwd", &spec, &[], false).unwrap()
    }

    /// A one-frame burst on `port` of the process.
    fn deliver(rig: &mut Rig, d: &mut DpdkDriver, port: u32, bytes: &[u8]) -> IoOutcome {
        let burst = vec![(port, Packet::from_slice(bytes))];
        d.deliver_batch(&mut rig.env(), PROC, burst).remove(0)
    }

    #[test]
    fn lifecycle_resources_and_forwarding() {
        let mut d = DpdkDriver::default();
        let mut rig = Rig::new();
        let a = create(&mut rig, &mut d, 2, 512);
        d.start(&mut rig.env(), PROC).unwrap();
        assert_eq!(d.cores_in_use, 2);
        assert_eq!(rig.ledger.usage(a), mb(512));

        let io = deliver(&mut rig, &mut d, 0, &[0u8; 64]);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1);
        assert_eq!(
            io.cost.as_nanos(),
            CostModel::default().pmd_per_packet_ns,
            "DPDK path is cheap and kernel-free"
        );

        assert!(matches!(
            d.destroy(&mut rig.env(), PROC),
            Err(ComputeError::BadState(_))
        ));
        d.stop(&mut rig.env(), PROC).unwrap();
        assert_eq!(d.cores_in_use, 0);
        assert_eq!(rig.ledger.usage(a), 0);
        d.destroy(&mut rig.env(), PROC).unwrap();
        assert!(deliver(&mut rig, &mut d, 0, &[0]).outputs.is_empty());
    }

    #[test]
    fn stopped_process_drops() {
        let mut d = DpdkDriver::default();
        let mut rig = Rig::new();
        create(&mut rig, &mut d, 1, 64);
        let io = deliver(&mut rig, &mut d, 0, &[0u8; 64]);
        assert!(io.outputs.is_empty());
    }
}
