//! A plugin in a namespace: what the native and Docker drivers share.
//!
//! Both run an NF as an [`NnfPlugin`] configuring kernel state inside a
//! network namespace whose external ports are tagged into the node's
//! port space; a container only adds packaging around it. The native
//! driver is a sandbox plus singleton/sharing rules, the Docker driver
//! a sandbox plus a container — which is why Table 1's Docker and
//! native throughput are near-identical: the data path is this file.

use un_linux::{Host, IfaceId, NsId};
use un_nffg::NfConfig;
use un_nnf::{NnfContext, NnfPlugin};
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
    plugin: Box<dyn NnfPlugin>,
    config: NfConfig,
    account: AccountId,
    started: bool,
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
        plugin: Box<dyn NnfPlugin>,
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
                started: false,
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
        self.started
    }

    /// The host interface behind instance port `port`.
    pub(super) fn port(&self, port: u32) -> Option<IfaceId> {
        self.ports.get(port as usize).copied()
    }

    /// The plugin (sharable ones take per-graph bindings).
    pub(super) fn plugin_mut(&mut self) -> &mut dyn NnfPlugin {
        self.plugin.as_mut()
    }

    /// The context the plugin configures this namespace through.
    pub(super) fn ctx<'a>(&self, host: &'a mut Host, ledger: &'a mut MemLedger) -> NnfContext<'a> {
        NnfContext {
            host,
            ns: self.ns,
            ledger,
            account: self.account,
        }
    }

    /// Run the plugin's lifecycle script.
    pub(super) fn start(
        &mut self,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        let mut ctx = self.ctx(host, ledger);
        self.plugin
            .start(&mut ctx, &self.ports, &self.config)
            .map_err(substrate)?;
        self.started = true;
        Ok(())
    }

    /// Stop the plugin if it runs.
    pub(super) fn stop(
        &mut self,
        host: &mut Host,
        ledger: &mut MemLedger,
    ) -> Result<(), ComputeError> {
        if self.started {
            let mut ctx = self.ctx(host, ledger);
            self.plugin.stop(&mut ctx).map_err(substrate)?;
            self.started = false;
        }
        Ok(())
    }

    /// Remove the namespace — ports, and whatever kernel state the
    /// plugin configured, go with it.
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
            .map(|(port, pkt)| match self.port(port) {
                Some(iface) => self.tag_filter(host.inject(iface, pkt)),
                None => IoOutcome::default(),
            })
            .collect()
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
