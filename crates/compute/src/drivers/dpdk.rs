//! The DPDK driver: poll-mode userspace NF processes.
//!
//! A DPDK process bypasses the kernel entirely — per-packet cost is a
//! few tens of nanoseconds of PMD work, no interrupts, no syscalls —
//! but each instance pins dedicated cores and hugepage memory, which is
//! why the orchestrator reserves it for NFs that need the speed.

use std::collections::HashMap;

use un_packet::Packet;
use un_sim::mem::mb;
use un_sim::{AccountId, Cost, CostModel, MemLedger};

use crate::types::{ComputeError, IoOutcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Created,
    Running,
    Stopped,
}

#[derive(Debug)]
struct DpdkProc {
    cores: u32,
    hugepages_mb: u64,
    n_ports: usize,
    state: ProcState,
    account: AccountId,
    rx_packets: u64,
}

/// Driver state.
#[derive(Debug, Default)]
pub struct DpdkDriver {
    procs: HashMap<u64, DpdkProc>,
    /// Cores currently pinned by running instances.
    pub cores_in_use: u32,
}

impl DpdkDriver {
    /// Fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a DPDK process NF (a transparent forwarder between its
    /// ports, processed at PMD cost).
    pub fn create(
        &mut self,
        key: u64,
        cores: u32,
        hugepages_mb: u64,
        n_ports: usize,
        account: AccountId,
    ) -> Result<(), ComputeError> {
        self.procs.insert(
            key,
            DpdkProc {
                cores,
                hugepages_mb,
                n_ports,
                state: ProcState::Created,
                account,
                rx_packets: 0,
            },
        );
        Ok(())
    }

    /// Start: pins cores, maps hugepages.
    pub fn start(&mut self, key: u64, ledger: &mut MemLedger) -> Result<(), ComputeError> {
        let p = self
            .procs
            .get_mut(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        if p.state == ProcState::Running {
            return Err(ComputeError::BadState("already running"));
        }
        ledger
            .alloc(p.account, "hugepages", mb(p.hugepages_mb))
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;
        self.cores_in_use += p.cores;
        p.state = ProcState::Running;
        Ok(())
    }

    /// Stop: releases cores and hugepages.
    pub fn stop(&mut self, key: u64, ledger: &mut MemLedger) -> Result<(), ComputeError> {
        let p = self
            .procs
            .get_mut(&key)
            .ok_or(ComputeError::NoSuchInstance(key))?;
        if p.state != ProcState::Running {
            return Err(ComputeError::BadState("not running"));
        }
        ledger
            .free(p.account, "hugepages", mb(p.hugepages_mb))
            .map_err(|e| ComputeError::Substrate(e.to_string()))?;
        self.cores_in_use -= p.cores;
        p.state = ProcState::Stopped;
        Ok(())
    }

    /// Remove a stopped process.
    pub fn destroy(&mut self, key: u64) -> Result<(), ComputeError> {
        match self.procs.get(&key) {
            None => Err(ComputeError::NoSuchInstance(key)),
            Some(p) if p.state == ProcState::Running => {
                Err(ComputeError::BadState("destroy while running"))
            }
            Some(_) => {
                self.procs.remove(&key);
                Ok(())
            }
        }
    }

    /// Batched delivery: one PMD poll slot serves the whole burst —
    /// the process resolves once, frames PMD-forward to the next port
    /// in order.
    pub fn deliver_batch(
        &mut self,
        key: u64,
        frames: Vec<(u32, Packet)>,
        costs: &CostModel,
    ) -> Vec<IoOutcome> {
        let Some(p) = self.procs.get_mut(&key) else {
            return frames.iter().map(|_| IoOutcome::default()).collect();
        };
        frames
            .into_iter()
            .map(|(port, pkt)| {
                if p.state != ProcState::Running || (port as usize) >= p.n_ports {
                    return IoOutcome::default();
                }
                p.rx_packets += 1;
                let out = if p.n_ports >= 2 {
                    if port == 0 {
                        1
                    } else {
                        0
                    }
                } else {
                    port
                };
                IoOutcome {
                    outputs: vec![(out, pkt)],
                    cost: Cost::from_nanos(costs.pmd_per_packet_ns),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-frame burst on `port` of process 1.
    fn deliver(d: &mut DpdkDriver, port: u32, bytes: &[u8]) -> IoOutcome {
        let burst = vec![(port, Packet::from_slice(bytes))];
        d.deliver_batch(1, burst, &CostModel::default()).remove(0)
    }

    #[test]
    fn lifecycle_resources_and_forwarding() {
        let mut d = DpdkDriver::new();
        let mut ledger = MemLedger::new();
        let a = ledger.create_account("dpdk", None);
        d.create(1, 2, 512, 2, a).unwrap();
        d.start(1, &mut ledger).unwrap();
        assert_eq!(d.cores_in_use, 2);
        assert_eq!(ledger.usage(a), mb(512));

        let io = deliver(&mut d, 0, &[0u8; 64]);
        assert_eq!(io.outputs.len(), 1);
        assert_eq!(io.outputs[0].0, 1);
        assert_eq!(
            io.cost.as_nanos(),
            CostModel::default().pmd_per_packet_ns,
            "DPDK path is cheap and kernel-free"
        );

        assert!(matches!(d.destroy(1), Err(ComputeError::BadState(_))));
        d.stop(1, &mut ledger).unwrap();
        assert_eq!(d.cores_in_use, 0);
        assert_eq!(ledger.usage(a), 0);
        d.destroy(1).unwrap();
        assert!(matches!(
            deliver(&mut d, 0, &[0]),
            IoOutcome { ref outputs, .. } if outputs.is_empty()
        ));
    }

    #[test]
    fn stopped_process_drops() {
        let mut d = DpdkDriver::new();
        let mut ledger = MemLedger::new();
        let a = ledger.create_account("dpdk", None);
        d.create(1, 1, 64, 2, a).unwrap();
        let io = deliver(&mut d, 0, &[0u8; 64]);
        assert!(io.outputs.is_empty());
    }
}
