//! Repair sweep: make-before-break vs reactive incremental repair vs
//! from-scratch re-placement, on one split-chain scenario per chain
//! length.
//!
//! A bridge chain is spread two NFs per rack node: VM "filler" NFs
//! shape capacity so the placer *has* to spread, and are removed after
//! the deploy, so a later re-plan is free to consolidate. The rack
//! hosting the chain tail — and the `wan` endpoint — then fails, and
//! the same failure is repaired on identical fleets:
//!
//! * **make-before-break** — the victim is marked suspect first, so a
//!   standby plan (placement, vids, routes) is staged and the failure
//!   promotes it;
//! * [`RepairPolicy::Incremental`] — survivors pinned, overlay vids
//!   inherited, only the lost sub-partition moves, planned inside the
//!   outage;
//! * [`RepairPolicy::FromScratch`] — tear everything down and re-plan,
//!   which consolidates the whole chain and moves every survivor.
//!
//! The books are virtual time, so one run per (length, policy) decides.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use un_core::UniversalNode;
use un_domain::{DeployHints, Domain, DomainConfig, RepairOutcome, RepairPolicy, PLAN_CHARGE};
use un_nffg::{NfFg, NfFgBuilder};
use un_packet::ethernet::MacAddr;
use un_packet::PacketBuilder;
use un_sim::mem::mb;

/// Chain lengths swept (even: two NFs per rack node).
const LENGTHS: [usize; 3] = [4, 6, 8];

fn chain(len: usize) -> NfFg {
    let ids: Vec<String> = (0..len).map(|i| format!("br{i}")).collect();
    let mut b = NfFgBuilder::new("svc", "chain")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for id in &ids {
        b = b.nf(id, "bridge", 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

/// A capacity filler: one VM-flavored bridge behind VLAN endpoints on
/// the management interface (no conflict with the service chain).
fn filler(id: &str, vid: u16) -> NfFg {
    NfFgBuilder::new(id, "filler")
        .vlan_endpoint("in", "mgmt", vid)
        .vlan_endpoint("out", "mgmt", vid + 1)
        .nf("f0", "bridge", 2)
        .with_flavor("vm")
        .chain("in", &["f0"], "out")
        .build()
}

/// What the scheduler estimates one native bridge costs, and what one
/// VM filler really takes.
fn probe_costs() -> (u64, u64) {
    let mut probe = UniversalNode::new("probe", mb(8192));
    probe.add_physical_port("mgmt");
    let native_est = probe
        .estimate_nf_ram("bridge", None)
        .expect("bridge template");
    let before = probe.memory_used();
    probe.deploy(&filler("probe-f", 100)).expect("vm filler");
    (native_est, probe.memory_used() - before)
}

/// Build the fleet, shape capacity with fillers, deploy the chain
/// unpinned (it is forced to spread), then free the filler capacity.
/// Returns the domain and the chain's assignment before the failure.
fn build(len: usize, policy: RepairPolicy) -> (Domain, BTreeMap<String, String>) {
    let (native_est, vm_actual) = probe_costs();
    let racks = len / 2;
    // Enough filler headroom that a free re-plan could consolidate the
    // whole chain on one node, plus room for exactly two natives while
    // the fillers are in place (2.5 estimates: the third does not fit).
    let fillers_per_node =
        1 + (len as u64 * native_est).saturating_sub(native_est * 5 / 2) / vm_actual;
    let capacity = fillers_per_node * vm_actual + native_est * 5 / 2;

    let mut d = Domain::new(DomainConfig {
        repair: policy,
        ..DomainConfig::default()
    });
    let mut names: Vec<String> = Vec::new();
    for i in 1..=racks {
        let mut n = UniversalNode::new(&format!("n{i}"), capacity);
        n.add_physical_port("mgmt");
        if i == 1 {
            n.add_physical_port("eth0");
        }
        if i == racks {
            n.add_physical_port("eth1");
        }
        names.push(d.add_node(n));
    }
    let mut spare = UniversalNode::new("spare", capacity);
    spare.add_physical_port("mgmt");
    spare.add_physical_port("eth1");
    names.push(d.add_node(spare));

    // Fillers: pin one batch per node, globally unique VLAN ids.
    let mut vid = 200u16;
    for name in &names {
        for f in 0..fillers_per_node {
            let on = |id: &str| (id.to_string(), name.clone());
            let hints = DeployHints {
                endpoint_node: [on("in"), on("out")].into(),
                nf_node: [on("f0")].into(),
                ..Default::default()
            };
            d.deploy_with(&filler(&format!("fill-{name}-{f}"), vid), &hints)
                .expect("filler");
            vid += 2;
        }
    }

    d.deploy(&chain(len)).expect("chain deploys");
    let before = d.assignment_of("svc").expect("deployed").clone();
    let spread: BTreeSet<&String> = before.values().collect();
    assert!(spread.len() >= racks, "chain must spread: {before:?}");

    for fid in d.graph_ids().into_iter().filter(|g| g.starts_with("fill-")) {
        d.undeploy(&fid).expect("filler undeploy");
    }
    (d, before)
}

/// Fail the tail rack of a `len`-NF chain under `policy` (suspected
/// first when `warn`), check the repaired chain, and return its
/// outcome and final assignment.
fn repair(
    len: usize,
    policy: RepairPolicy,
    warn: bool,
) -> (RepairOutcome, BTreeMap<String, String>) {
    let (mut d, before) = build(len, policy);
    let victim = format!("n{}", len / 2);
    if warn {
        d.suspect_node(&victim).expect("victim exists");
        assert!(!d.standby_graphs().is_empty(), "standby must stage");
    }
    let report = d.fail_node(&victim).expect("victim exists");
    assert_eq!(report.replaced, vec!["svc".to_string()], "{policy:?}");
    assert!(report.stranded.is_empty());
    let outcome = report.repairs.into_iter().next().expect("one repair");
    assert_eq!(outcome.standby_promoted, warn, "{outcome:?}");

    let after = d.assignment_of("svc").expect("still deployed").clone();
    assert!(
        after.values().all(|n| *n != victim),
        "{policy:?}: {after:?}"
    );
    let moved = after
        .iter()
        .filter(|(nf, node)| before.get(*nf) != Some(node))
        .count();
    assert_eq!(moved, outcome.nfs_moved, "report must match observation");
    let frame = PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
        .udp(5000, 5001)
        .payload(&[0x5A; 256])
        .build();
    let io = d.inject("n1", "eth0", frame);
    assert_eq!(io.emitted.len(), 1, "{policy:?} chain must forward");
    assert_eq!(io.emitted[0].1, "eth1");
    (outcome, after)
}

#[test]
fn each_chain_length_repairs_three_ways() {
    for len in LENGTHS {
        let (swap, swapped) = repair(len, RepairPolicy::Incremental, true);
        let (inc, planned) = repair(len, RepairPolicy::Incremental, false);
        let (scratch, _) = repair(len, RepairPolicy::FromScratch, false);

        // Incremental repair never moves more NFs than from-scratch,
        // and strictly fewer once there are survivors to consolidate.
        assert!(!inc.full_replace, "incremental must not fall back");
        assert!(scratch.full_replace);
        let (a, b) = (inc.nfs_moved, scratch.nfs_moved);
        assert!(a <= b, "len {len}: {a} vs {b}");
        assert!(len < 6 || a < b, "len {len}: {a} vs {b}");

        // The staged swap lands where the reactive repair does, and is
        // booked exactly the plan it computed at Suspect time less.
        assert_eq!(swapped, planned, "len {len}: same placement");
        assert_eq!(swap.links_kept, inc.links_kept);
        let plan = PLAN_CHARGE.as_nanos();
        assert_eq!(swap.repair_duration_ns + plan, inc.repair_duration_ns);
        // `fail_node` is its own detection: the downtime is the repair.
        assert_eq!(swap.downtime_estimate_ns, swap.repair_duration_ns);
        assert_eq!(swap.downtime_estimate_ns + plan, inc.downtime_estimate_ns);
    }
}
