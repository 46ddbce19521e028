//! An NNF instance in a namespace: what the native, Docker and VM
//! drivers share.
//!
//! All three run an NF as an [`NnfInstance`] whose command list
//! configures kernel state inside a network namespace whose external
//! ports are tagged into the node's port space. A flavor is the boundary
//! around it: the native driver is a sandbox plus singleton/sharing
//! rules, the Docker driver a sandbox plus a container, the VM driver a
//! sandbox (its guest kernel) behind virtio. That is why Table 1's Docker
//! and native throughput are near-identical — the data path is this
//! file — and why a VM's NF costs the same plus its boundary.

use un_linux::{Host, IfaceId, NsId};
use un_nnf::{NnfCommand, NnfContext, NnfInstance};
use un_packet::Packet;
use un_sim::{AccountId, Cost, MemLedger};

use super::{substrate, CreateRequest};
use crate::types::{ComputeError, Crossing};

/// An instance's ports are tagged `instance id * TAG_STRIDE + port` on
/// the host side.
const TAG_STRIDE: u64 = 16;

pub(super) struct Sandbox {
    ns: NsId,
    ports: Vec<IfaceId>,
    base_tag: u64,
    /// The NNF (a shared one takes per-graph bindings).
    pub(super) plugin: NnfInstance,
    program: Vec<NnfCommand>,
    account: AccountId,
}

impl Sandbox {
    /// Make namespace `<ns_prefix>-<name>` with `n_ports` external
    /// ports `<port_prefix>0..`, tagged into the instance's range on
    /// the host side. A port the host refuses takes the namespace with
    /// it.
    pub(super) fn create(
        host: &mut Host,
        ns_prefix: &str,
        port_prefix: &str,
        n_ports: usize,
        plugin: NnfInstance,
        req: &CreateRequest<'_>,
    ) -> Result<Self, ComputeError> {
        let base_tag = req.id.0 * TAG_STRIDE;
        let ns = host.add_namespace(&format!("{ns_prefix}-{}", req.name));
        let ports: Result<Vec<IfaceId>, _> = (0..n_ports)
            .map(|i| host.add_external(ns, &format!("{port_prefix}{i}"), base_tag + i as u64))
            .collect();
        match ports {
            Ok(ports) => Ok(Sandbox {
                ns,
                ports,
                base_tag,
                plugin,
                program: req.program.to_vec(),
                account: req.account,
            }),
            Err(e) => {
                let _ = host.remove_namespace(ns);
                Err(substrate(e))
            }
        }
    }

    pub(super) fn ns(&self) -> NsId {
        self.ns
    }

    pub(super) fn started(&self) -> bool {
        self.plugin.started()
    }

    /// The host interface behind instance port `port`.
    pub(super) fn port(&self, port: u32) -> Option<IfaceId> {
        self.ports.get(port as usize).copied()
    }

    /// The context the NNF configures this namespace through.
    pub(super) fn ctx<'a>(&self, host: &'a mut Host, ledger: &'a mut MemLedger) -> NnfContext<'a> {
        NnfContext {
            host,
            ns: self.ns,
            ledger,
            account: self.account,
        }
    }

    /// Run the NNF's command list.
    pub(super) fn start(
        &mut self,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        let mut ctx = self.ctx(host, ledger);
        self.plugin
            .start(&mut ctx, &self.ports, &self.program)
            .map_err(substrate)
    }

    /// Stop the NNF if it runs.
    pub(super) fn stop(
        &mut self,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        if self.started() {
            let mut ctx = self.ctx(host, ledger);
            self.plugin.stop(&mut ctx).map_err(substrate)?;
        }
        Ok(())
    }

    /// Remove the namespace — ports, and whatever kernel state the
    /// NNF configured, go with it.
    pub(super) fn destroy(self, host: &mut Host) -> Result<(), ComputeError> {
        host.remove_namespace(self.ns).map_err(substrate)
    }

    /// Inject a burst, draining `frames`: each frame's emissions land
    /// on `out` and close one entry, so callers keep per-frame
    /// accounting.
    pub(super) fn deliver_into(
        &self,
        frames: &mut Vec<(u32, Packet)>,
        host: &mut Host,
        out: &mut Crossing,
    ) {
        for (port, pkt) in frames.drain(..) {
            let cost = self.deliver(port, pkt, host, &mut out.outputs);
            out.end_frame(cost);
        }
    }

    /// Inject one frame at instance port `port`, pushing what it emits
    /// on this sandbox's ports onto `outputs` as `(instance port,
    /// frame)`; returns the time charged.
    pub(super) fn deliver(
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
