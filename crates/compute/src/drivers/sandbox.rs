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
use un_nffg::NfConfig;
use un_nnf::{NnfContext, NnfInstance};
use un_packet::Packet;
use un_sim::{AccountId, MemLedger};

use super::{substrate, CreateRequest};
use crate::types::{ComputeError, IoOutcome};

/// An instance's ports are tagged `instance id * TAG_STRIDE + port` on
/// the host side.
const TAG_STRIDE: u64 = 16;

pub(super) struct Sandbox {
    ns: NsId,
    ports: Vec<IfaceId>,
    base_tag: u64,
    /// The NNF (a shared one takes per-graph bindings).
    pub(super) plugin: NnfInstance,
    config: NfConfig,
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
                config: req.config.clone(),
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
            .start(&mut ctx, &self.ports, &self.config)
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

    /// Inject a burst, one `IoOutcome` per input frame in order, so
    /// callers keep per-frame accounting.
    pub(super) fn deliver_batch(
        &self,
        frames: Vec<(u32, Packet)>,
        host: &mut Host,
    ) -> Vec<IoOutcome> {
        frames
            .into_iter()
            .map(|(port, pkt)| self.deliver(port, pkt, host))
            .collect()
    }

    /// Inject one frame at instance port `port`.
    pub(super) fn deliver(&self, port: u32, pkt: Packet, host: &mut Host) -> IoOutcome {
        match self.port(port) {
            Some(iface) => self.tag_filter(host.inject(iface, pkt)),
            None => IoOutcome::default(),
        }
    }

    /// Keep only the emissions tagged into this sandbox's port range,
    /// rebased to instance-local port numbers.
    fn tag_filter(&self, res: un_linux::IoResult) -> IoOutcome {
        let (base, n) = (self.base_tag, self.ports.len() as u64);
        IoOutcome {
            outputs: res
                .emitted
                .into_iter()
                .filter(|(tag, _)| *tag >= base && *tag < base + n)
                .map(|(tag, p)| ((tag - base) as u32, p))
                .collect(),
            cost: res.cost,
        }
    }
}
