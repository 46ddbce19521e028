//! An NNF instance in a namespace: what every flavor runs.
//!
//! Every NF runs as an [`NnfInstance`] whose command list configures
//! kernel state inside a network namespace whose external ports are
//! tagged into the node's port space. A flavor is packaging and a
//! boundary around it: nothing for a native NF, a container for Docker,
//! a guest behind virtio for a VM, pinned cores charged at PMD cost for
//! DPDK. That is why Table 1's Docker and native throughput are
//! near-identical — the data path is this file — and why a VM's NF
//! costs the same plus its boundary.

use un_linux::{Host, IfaceId, NsId};
use un_nnf::{NnfCommand, NnfContext, NnfInstance};
use un_packet::Packet;
use un_sim::{AccountId, Cost, MemLedger};

use super::substrate;
use crate::types::{ComputeError, InstanceId};

/// An instance's ports are tagged `instance id * TAG_STRIDE + port` on
/// the host side.
const TAG_STRIDE: u64 = 16;

pub(crate) struct Sandbox {
    ns: NsId,
    ports: Vec<IfaceId>,
    base_tag: u64,
    /// The NNF (a shared one takes per-graph bindings).
    pub(crate) plugin: NnfInstance,
    program: Vec<NnfCommand>,
}

impl Sandbox {
    /// Make namespace `ns_name` with `n_ports` external ports
    /// `<port_prefix>0..`, tagged into instance `id`'s range on the host
    /// side, to run `program`. A port the host refuses takes the
    /// namespace with it.
    pub(crate) fn create(
        host: &mut Host,
        id: InstanceId,
        ns_name: &str,
        port_prefix: &str,
        n_ports: usize,
        plugin: NnfInstance,
        program: &[NnfCommand],
    ) -> Result<Self, ComputeError> {
        let base_tag = id.0 * TAG_STRIDE;
        let ns = host.add_namespace(ns_name);
        let ports: Result<Vec<IfaceId>, _> = (0..n_ports)
            .map(|i| host.add_external(ns, &format!("{port_prefix}{i}"), base_tag + i as u64))
            .collect();
        match ports {
            Ok(ports) => Ok(Sandbox {
                ns,
                ports,
                base_tag,
                plugin,
                program: program.to_vec(),
            }),
            Err(e) => {
                let _ = host.remove_namespace(ns);
                Err(substrate(e))
            }
        }
    }

    /// The command list the instance was built to run.
    pub(crate) fn program(&self) -> &[NnfCommand] {
        &self.program
    }

    pub(crate) fn ns(&self) -> NsId {
        self.ns
    }

    /// The host interface behind instance port `port`.
    pub(crate) fn port(&self, port: u32) -> Option<IfaceId> {
        self.ports.get(port as usize).copied()
    }

    /// The context the NNF configures this namespace through, booking
    /// on `account` of `ledger`.
    pub(crate) fn ctx<'a>(
        &self,
        host: &'a mut Host,
        ledger: &'a mut MemLedger,
        account: AccountId,
    ) -> NnfContext<'a> {
        NnfContext {
            host,
            ns: self.ns,
            ledger,
            account,
        }
    }

    /// Run the NNF's command list.
    pub(crate) fn start(
        &mut self,
        host: &mut Host,
        (ledger, account): (&mut MemLedger, AccountId),
    ) -> Result<(), ComputeError> {
        let mut ctx = self.ctx(host, ledger, account);
        self.plugin
            .start(&mut ctx, &self.ports, &self.program)
            .map_err(substrate)
    }

    /// Stop the NNF.
    pub(crate) fn stop(
        &mut self,
        host: &mut Host,
        (ledger, account): (&mut MemLedger, AccountId),
    ) -> Result<(), ComputeError> {
        let mut ctx = self.ctx(host, ledger, account);
        self.plugin.stop(&mut ctx).map_err(substrate)
    }

    /// Remove the namespace — ports, and whatever kernel state the
    /// NNF configured, go with it.
    pub(crate) fn destroy(self, host: &mut Host) -> Result<(), ComputeError> {
        host.remove_namespace(self.ns).map_err(substrate)
    }

    /// Inject one frame at instance port `port`, pushing what it emits
    /// on this sandbox's ports onto `outputs` as `(instance port,
    /// frame)`; returns the time the kernel charged. A port the sandbox
    /// lacks takes nothing, at no cost.
    pub(crate) fn deliver(
        &self,
        port: u32,
        pkt: Packet,
        host: &mut Host,
        outputs: &mut Vec<(u64, Packet)>,
    ) -> Cost {
        let Some(iface) = self.port(port) else {
            return Cost::ZERO;
        };
        let from = outputs.len();
        let cost = host.inject_into(iface, pkt, outputs);
        self.rebase(outputs, from);
        cost
    }

    /// Rebase the host tags of `outputs[from..]` to instance-local port
    /// numbers in place, in order, dropping any emission tagged outside
    /// this sandbox's port range.
    fn rebase(&self, outputs: &mut Vec<(u64, Packet)>, from: usize) {
        let ours = self.base_tag..self.base_tag + self.ports.len() as u64;
        let mut kept = from;
        for i in from..outputs.len() {
            if ours.contains(&outputs[i].0) {
                outputs[i].0 -= ours.start;
                outputs.swap(kept, i);
                kept += 1;
            }
        }
        outputs.truncate(kept);
    }
}
