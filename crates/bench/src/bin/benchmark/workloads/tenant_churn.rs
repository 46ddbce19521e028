//! `tenant_churn` — the control plane, with reads beside writes.
//!
//! Four edge nodes (ports only: 1 MB of memory, so no NF fits) and
//! twelve compute nodes carry 32 tenant graphs, each a 4-bridge chain
//! between two edge nodes on VLAN endpoints. One round, for each tenant
//! in seeded order: `undeploy` → `from_json` + `validate` + `deploy` →
//! `update` to 5 NFs → `verify()` (must be incremental and clean) →
//! a 64-frame probe burst through this tenant **and its neighbour**
//! (flow-table installs beside lookups on shared LSI-0 tables) →
//! `update` back. Then `fail_node(busiest compute node)` (nothing may
//! strand) → an 8-frame probe of every tenant → `recover_node` →
//! `verify_full()`. The egress endpoint re-tags with the tenant's vid,
//! so a probe frame must leave exactly as it entered.
//! One operation is one control-plane call: 163 per round at full size.
//! A probe that does not come out right fails the call it follows.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use un_domain::{DeployHints, Domain, DomainConfig, DomainIo, PlacementStrategy};
use un_nffg::{from_json, to_json, validate, NfFg, NfFgBuilder};
use un_packet::Packet;
use un_switch::TableStats;

use super::{
    check_transparent, domain, domain_invariant_violations, domain_switch_stats, expect_at,
    nf_deliveries, node, Outcome, Scale, Workload,
};
use crate::gen::{Flow, Rng};
use crate::spans::Spans;

const EDGES: usize = 4;
const BASE_NFS: usize = 4;

struct Tenant {
    id: String,
    /// The 4-bridge chain as it arrives over REST.
    base_json: String,
    base: NfFg,
    /// The same chain grown to 5 bridges.
    grown: NfFg,
    hints: DeployHints,
    ingress: String,
    egress: String,
    probe: Vec<Packet>,
}

fn tenant_graph(t: usize, nfs: usize) -> NfFg {
    let ids: Vec<String> = (0..nfs).map(|i| format!("t{t}-br{i}")).collect();
    let vid = 100 + t as u16;
    let mut b = NfFgBuilder::new(&format!("tenant-{t}"), "tenant")
        .vlan_endpoint("a", "eth0", vid)
        .vlan_endpoint("b", "eth0", vid);
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    b.chain("a", &refs, "b").build()
}

fn tenant(t: usize, probe_len: usize, payload: &mut Rng) -> Tenant {
    let ingress = format!("e{}", t % EDGES);
    let egress = format!("e{}", (t + 1 + (t / EDGES) % (EDGES - 1)) % EDGES);
    let base = tenant_graph(t, BASE_NFS);
    let probe: Vec<Packet> = (0..probe_len)
        .map(|i| {
            let flow = Flow {
                src: Ipv4Addr::new(10, 2, t as u8, i as u8),
                dst: Ipv4Addr::new(192, 0, 2, 9),
                sport: 5000,
                dport: 5001,
                vlan: Some(100 + t as u16),
            };
            flow.frame(22, payload)
        })
        .collect();
    Tenant {
        id: base.id.clone(),
        base_json: to_json(&base),
        grown: tenant_graph(t, BASE_NFS + 1),
        hints: DeployHints {
            endpoint_node: [("a", &ingress), ("b", &egress)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            nf_node: BTreeMap::new(),
            strategy: Some(PlacementStrategy::Spread),
        },
        base,
        ingress,
        egress,
        probe,
    }
}

/// What the round's calls reported, kept for `check` and the layer metrics.
#[derive(Default)]
struct ChurnCounts {
    verify_passes: u64,
    rules_checked: u64,
    repairs: u64,
    nfs_moved: u64,
    standby_promoted: u64,
}

pub struct TenantChurn {
    domain: Domain,
    tenants: Vec<Tenant>,
    compute: Vec<String>,
    order_rng: Rng,
    order: Vec<usize>,
    /// One flag per control call of the round: did it succeed.
    ops_ok: Vec<bool>,
    /// Probe results: `(index of the call it follows, tenant, frames, io)`.
    probes: Vec<(usize, usize, usize, DomainIo)>,
    counts: ChurnCounts,
}

impl TenantChurn {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let n_compute = scale.pick(12, 4);
        let n_tenants = scale.pick(32, 4);
        let probe_len = scale.pick(64, 8);
        let mut compute: Vec<String> = (0..n_compute).map(|i| format!("c{i}")).collect();
        let nodes = (0..EDGES)
            .map(|i| node(&format!("e{i}"), 1, &["eth0"]))
            .chain(compute.iter().map(|c| node(c, 2048, &[])))
            .collect();
        let mut domain = domain(DomainConfig::default(), nodes);
        let mut payload = Rng::new(seed, 2);
        let tenants: Vec<Tenant> = (0..n_tenants)
            .map(|t| tenant(t, probe_len, &mut payload))
            .collect();
        for t in &tenants {
            domain
                .deploy_with(&t.base, &t.hints)
                .expect("tenant chain deploys");
        }
        assert!(domain.verify_full().ok(), "fresh fleet verifies clean");
        // Seeded victim order: ties for "busiest" go to the first listed.
        Rng::new(seed, 4).shuffle(&mut compute);
        let mut w = TenantChurn {
            domain,
            tenants,
            compute,
            order_rng: Rng::new(seed, 3),
            order: Vec::new(),
            ops_ok: Vec::new(),
            probes: Vec::new(),
            counts: ChurnCounts::default(),
        };
        w.prepare(0);
        w.run(&mut Spans::new(false));
        assert_eq!(w.check().failed, 0, "tenant_churn warm-up round must pass");
        w.counts = ChurnCounts::default();
        w
    }

    /// Send the first `frames` of tenant `t`'s probe burst.
    fn probe(&mut self, after_op: usize, t: usize, frames: usize, spans: &mut Spans) {
        let tenant = &self.tenants[t];
        let burst = tenant.probe[..frames].to_vec();
        let ingress = tenant.ingress.as_str();
        let domain = &mut self.domain;
        let io = spans.call("domain.inject_batch", || {
            domain.inject_batch(burst.into_iter().map(|f| (ingress, "eth0", f)), 1)
        });
        self.probes.push((after_op, t, frames, io));
    }

    /// The compute node hosting the most NFs; ties go to the seeded order.
    fn busiest_compute(&self) -> String {
        let mut load: BTreeMap<&str, usize> = BTreeMap::new();
        for t in &self.tenants {
            for host in self.domain.assignment_of(&t.id).into_iter().flatten() {
                *load.entry(host.1.as_str()).or_insert(0) += 1;
            }
        }
        let busiest = |c: &&String| load.get(c.as_str()).copied().unwrap_or(0);
        let most = self.compute.iter().map(|c| busiest(&c)).max().unwrap_or(0);
        self.compute
            .iter()
            .find(|c| busiest(c) == most)
            .expect("fleet has compute nodes")
            .clone()
    }
}

impl Workload for TenantChurn {
    fn prepare(&mut self, _round: u64) {
        self.order = (0..self.tenants.len()).collect();
        self.order_rng.shuffle(&mut self.order);
        self.ops_ok.clear();
        self.probes.clear();
    }

    fn run(&mut self, spans: &mut Spans) {
        for t in self.order.clone() {
            let tenant = &self.tenants[t];
            let d = &mut self.domain;
            let undeployed = spans.call("control.undeploy", || d.undeploy(&tenant.id));
            self.ops_ok.push(undeployed.is_ok());

            let parsed = spans.call("nffg.parse", || from_json(&tenant.base_json));
            let deployed = parsed.is_ok_and(|graph| {
                spans.call("nffg.validate", || validate(&graph)).is_empty()
                    && spans
                        .call("control.deploy", || d.deploy_with(&graph, &tenant.hints))
                        .is_ok()
            });
            self.ops_ok.push(deployed);

            let grown = spans.call("control.update", || d.update(&tenant.grown));
            self.ops_ok.push(grown.is_ok());
            let update_op = self.ops_ok.len() - 1;

            let report = spans.call("verify.incremental", || d.verify());
            self.counts.verify_passes += 1;
            self.counts.rules_checked += report.stats.rules_checked as u64;
            self.ops_ok
                .push(report.ok() && report.mode == "incremental");

            let full = self.tenants[t].probe.len();
            self.probe(update_op, t, full, spans);
            self.probe(update_op, (t + 1) % self.tenants.len(), full, spans);

            let tenant = &self.tenants[t];
            let d = &mut self.domain;
            let shrunk = spans.call("control.update", || d.update(&tenant.base));
            self.ops_ok.push(shrunk.is_ok());
        }

        let victim = self.busiest_compute();
        let d = &mut self.domain;
        let repair = spans.call("control.repair", || d.fail_node(&victim));
        self.ops_ok
            .push(repair.as_ref().is_ok_and(|r| r.stranded.is_empty()));
        let repair_op = self.ops_ok.len() - 1;
        for outcome in repair.iter().flat_map(|r| &r.repairs) {
            self.counts.repairs += 1;
            self.counts.nfs_moved += outcome.nfs_moved as u64;
            self.counts.standby_promoted += u64::from(outcome.standby_promoted);
        }
        // An eighth of a burst each: enough to see every tenant forward again.
        for t in 0..self.tenants.len() {
            self.probe(repair_op, t, self.tenants[t].probe.len() / 8, spans);
        }
        let d = &mut self.domain;
        let recovered = spans.call("control.recover", || d.recover_node(&victim));
        self.ops_ok.push(recovered.is_ok());
        let report = spans.call("verify.full", || d.verify_full());
        self.ops_ok.push(report.ok());
    }

    fn check(&mut self) -> Outcome {
        let mut total = Outcome {
            ops: self.ops_ok.len() as u64,
            ..Outcome::default()
        };
        for (after_op, t, frames, io) in self.probes.drain(..) {
            let tenant = &self.tenants[t];
            let expected = expect_at(&tenant.egress, "eth0", tenant.probe[..frames].iter());
            let probe = check_transparent(&io, frames as u64, expected);
            if probe.failed > 0 {
                self.ops_ok[after_op] = false;
            }
            total.frames += probe.frames;
            total.model_ns += probe.model_ns;
            total.overlay_hops += probe.overlay_hops;
        }
        total.failed = self.ops_ok.iter().filter(|ok| !**ok).count() as u64;
        total
    }

    fn switch_stats(&self) -> TableStats {
        domain_switch_stats(&self.domain)
    }

    fn sample_nf_deliveries(&mut self) -> u64 {
        let tenant = &self.tenants[0];
        let frame = tenant.probe[0].clone();
        let (_, trace) = self.domain.inject_traced(&tenant.ingress, "eth0", frame, 1);
        nf_deliveries(&trace)
    }

    fn finish(&mut self) -> u64 {
        domain_invariant_violations(&self.domain)
    }

    fn nominal_round_ms(&self) -> f64 {
        170.0
    }

    fn layer_counts(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        vec![
            (
                "verify.rules_checked_per_pass",
                per(c.rules_checked, c.verify_passes),
            ),
            ("control.nfs_moved_per_repair", per(c.nfs_moved, c.repairs)),
            (
                "control.standby_promoted_ratio",
                per(c.standby_promoted, c.repairs),
            ),
        ]
    }
}
