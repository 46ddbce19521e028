//! Domain-wide sharable-NNF registry: fleet-level reuse of native
//! network functions.
//!
//! The paper's sharable NNFs let one native instance serve many graphs
//! — but only for graphs that land on the node already running it.
//! This module lifts that reuse to the whole fleet: a domain-wide
//! catalog holding **one** shared instance per functional type (its
//! [`ShareKey`]), with explicit **leases** (one per tenant graph,
//! acquired on deploy and released on undeploy). The instance lives
//! where it was first demanded — on the sharable node nearest the
//! endpoints of the tenant that first needed it — and every later
//! tenant rides it there. Nothing in an NF's config picks an instance:
//! every tenant of a type rides the same one.
//!
//! The registry itself is pure bookkeeping — `Domain::plan` consults it
//! to pin a tenant's shared NFs onto the instance's host (the
//! partitioner then synthesizes cut edges to that node and the overlay
//! path engine routes them, multi-hop if need be), and commits or
//! releases leases as deployments succeed, update, park, or die. When
//! the host node fails, the domain re-elects a host **once** at
//! registry level and every tenant repair converges on the new home; a
//! tenant's own plan never moves a live instance.
//! The registry is the one record of tenancy: a graph's leases are
//! [`SharedRegistry::leases_of`], and no graph keeps a copy.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use un_nffg::NfFg;

use crate::domain::FleetView;
use crate::placement::NodeView;
use crate::topology::Topology;

/// Identity of one domain-shared instance: its functional type. A node
/// runs at most one sharable instance of a type, and the fleet shares
/// at most one, so the type alone names it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShareKey {
    /// Functional type, e.g. `"nat"`.
    pub functional_type: String,
}

impl ShareKey {
    /// The key of `functional_type`'s shared instance.
    pub fn new(functional_type: &str) -> Self {
        ShareKey {
            functional_type: functional_type.to_string(),
        }
    }

    /// The key an NF demands: its functional type.
    pub fn of_nf(nf: &un_nffg::NetworkFunction) -> Self {
        ShareKey::new(&nf.functional_type)
    }
}

impl fmt::Display for ShareKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.functional_type)
    }
}

/// Domain-level sharing settings.
#[derive(Debug, Clone, Default)]
pub struct SharingConfig {
    /// Master switch; off preserves strictly per-node sharing (the
    /// pre-registry behavior). Can be toggled at runtime — deployed
    /// graphs keep the leases they hold, new plans follow the switch.
    pub enabled: bool,
    /// Functional types shared fleet-wide. A listed type must be
    /// sharable in the node NNF catalogs; nodes whose catalog does not
    /// mark it sharable are never elected hosts.
    pub types: BTreeSet<String>,
}

impl SharingConfig {
    /// Sharing enabled for the given functional types.
    pub fn for_types(types: &[&str]) -> Self {
        SharingConfig {
            enabled: true,
            types: types.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Why a sharing decision failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharingError {
    /// No serving node can host the key: none offers the type as a
    /// sharable NNF, or the key's live instance sits on a node that no
    /// longer serves and the registry has not re-hosted it.
    NoSharableHost {
        /// The share key: the functional type.
        key: String,
    },
}

impl fmt::Display for SharingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingError::NoSharableHost { key } => {
                write!(f, "no serving node can host shared NNF '{key}'")
            }
        }
    }
}

impl std::error::Error for SharingError {}

/// One graph's stake in one shared instance: what a plan claims, and
/// what [`SharedRegistry::leases_of`] reads back from the lease table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedClaim {
    /// The node hosting the instance this graph rides.
    pub host: String,
    /// How many of the graph's NFs ride the instance (≥ 1; still one
    /// lease).
    pub nfs: usize,
}

/// One live domain-shared instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedInstance {
    /// What it is.
    pub key: ShareKey,
    /// Where it lives.
    pub host: String,
    /// Tenant graph → number of that graph's NFs riding the instance.
    /// Never empty: the last release drops the instance.
    pub leases: BTreeMap<String, usize>,
}

impl SharedInstance {
    /// Number of tenant graphs holding a lease.
    pub fn tenant_count(&self) -> usize {
        self.leases.len()
    }

    /// Total NF wires across all leases.
    pub fn wires(&self) -> usize {
        self.leases.values().sum()
    }
}

/// The domain-wide catalog of shared instances: at most one instance
/// per key, holding at most one lease per graph.
#[derive(Debug, Default)]
pub struct SharedRegistry {
    instances: BTreeMap<ShareKey, SharedInstance>,
}

impl SharedRegistry {
    /// Iterate live instances.
    pub fn instances(&self) -> impl Iterator<Item = &SharedInstance> {
        self.instances.values()
    }

    /// The live instance of `key`, if any.
    pub fn get(&self, key: &ShareKey) -> Option<&SharedInstance> {
        self.instances.get(key)
    }

    /// Keys of every instance hosted on `node`.
    pub fn hosted_on(&self, node: &str) -> Vec<ShareKey> {
        self.instances()
            .filter(|i| i.host == node)
            .map(|i| i.key.clone())
            .collect()
    }

    /// Every lease `graph` holds, as per-graph claims.
    pub fn leases_of(&self, graph: &str) -> BTreeMap<ShareKey, SharedClaim> {
        self.instances()
            .filter_map(|i| {
                i.leases.get(graph).map(|nfs| {
                    (
                        i.key.clone(),
                        SharedClaim {
                            host: i.host.clone(),
                            nfs: *nfs,
                        },
                    )
                })
            })
            .collect()
    }

    /// Move `key`'s instance to a new host (re-election / standby
    /// promotion after failure); leases carry over untouched. No-op
    /// if the key has no instance.
    pub(crate) fn set_host(&mut self, key: &ShareKey, to: &str) {
        if let Some(inst) = self.instances.get_mut(key) {
            inst.host = to.to_string();
        }
    }

    /// Record (or refresh) `graph`'s lease on `key`'s instance at
    /// `host`, creating the instance on first demand. Returns
    /// `(instance_new, lease_new)` for the caller's counters.
    /// Re-acquiring a lease the graph already holds only updates its
    /// wire count. A live instance is only ever claimed where it
    /// lives: it moves by [`SharedRegistry::set_host`], never by a
    /// lease.
    pub(crate) fn commit(
        &mut self,
        graph: &str,
        key: &ShareKey,
        host: &str,
        nfs: usize,
    ) -> (bool, bool) {
        let mut instance_new = false;
        let inst = self.instances.entry(key.clone()).or_insert_with(|| {
            instance_new = true;
            SharedInstance {
                key: key.clone(),
                host: host.to_string(),
                leases: BTreeMap::new(),
            }
        });
        debug_assert_eq!(inst.host, host, "shared NNF '{key}' claimed off its host");
        let lease_new = inst.leases.insert(graph.to_string(), nfs).is_none();
        (instance_new, lease_new)
    }

    /// Release every lease `graph` holds; instances left without
    /// tenants are dropped (no orphan instances). Returns the dropped
    /// keys.
    pub(crate) fn release_graph(&mut self, graph: &str) -> Vec<ShareKey> {
        self.release_where(|_| true, graph)
    }

    /// Release `graph`'s leases on every key **not** in `keep` (the
    /// update path: a re-planned graph keeps only its current claims).
    pub(crate) fn release_except(
        &mut self,
        graph: &str,
        keep: &BTreeSet<ShareKey>,
    ) -> Vec<ShareKey> {
        self.release_where(|key| !keep.contains(key), graph)
    }

    fn release_where(&mut self, applies: impl Fn(&ShareKey) -> bool, graph: &str) -> Vec<ShareKey> {
        let mut dropped = Vec::new();
        self.instances.retain(|key, inst| {
            if applies(key) && inst.leases.remove(graph).is_some() && inst.leases.is_empty() {
                dropped.push(key.clone());
                return false;
            }
            true
        });
        dropped
    }
}

/// The shared instances a plan of `graph` rides, one claim per share
/// key: every NF of a fleet-shared type is pinned (into `pins`) onto
/// its key's host — where the live instance sits, or for a key with no
/// instance yet, a freshly elected one. The partitioner then cuts the
/// tenant's edges toward that node and the path engine routes them, so
/// the graph rides the shared instance instead of instantiating its
/// own. NFs in `opted_out` (the caller pinned them) stay private.
/// `endpoints` is where the graph's endpoints sit: the demand a
/// first-demand election anchors on.
pub(crate) fn claim_shared(
    view: &FleetView<'_>,
    graph: &NfFg,
    opted_out: &BTreeMap<String, String>,
    endpoints: &BTreeMap<String, String>,
    pins: &mut BTreeMap<String, String>,
) -> Result<BTreeMap<ShareKey, SharedClaim>, SharingError> {
    let config = &view.config.sharing;
    let serves = |host: &String| view.serving.contains(host);
    let demand: BTreeSet<String> = endpoints.values().cloned().collect();
    let mut claims: BTreeMap<ShareKey, SharedClaim> = BTreeMap::new();
    for nf in &graph.nfs {
        if !config.types.contains(&nf.functional_type) || opted_out.contains_key(&nf.id) {
            continue;
        }
        let key = ShareKey::of_nf(nf);
        if let Some(claim) = claims.get_mut(&key) {
            // Second NF of the same key: same host, same lease.
            pins.insert(nf.id.clone(), claim.host.clone());
            claim.nfs += 1;
            continue;
        }
        // The live instance's host while it serves; else the standby
        // host pre-elected at Suspect time (a plan staged against the
        // fleet without the instance's host); else, for a key with no
        // instance, a first-demand election. A live instance whose
        // host stopped serving moves only by registry re-election,
        // never by one tenant's plan.
        let live = view.sharing.get(&key).map(|i| &i.host);
        let standby = view.shared_standby.get(&key).filter(|h| serves(h));
        let host = match (live, standby) {
            (Some(host), _) if serves(host) => host.clone(),
            (_, Some(standby)) => standby.clone(),
            (Some(_), None) => {
                return Err(SharingError::NoSharableHost {
                    key: key.to_string(),
                })
            }
            (None, None) => elect(&key, &view.views, view.fabric_hops.as_ref(), &demand)?,
        };
        pins.insert(nf.id.clone(), host.clone());
        claims.insert(key, SharedClaim { host, nfs: 1 });
    }
    Ok(claims)
}

/// Elect the host node for a shared instance: the sharable node
/// nearest the demand.
///
/// Candidates are the viewed (serving) nodes whose NNF catalog marks
/// the type sharable. No candidate can already hold the type: the
/// registry holds one instance per type, and an election happens only
/// for a type with none, or for one whose host has no view (failed, or
/// counted out by `FleetView::without`). `demand` is the
/// node set the demanding tenants occupy, `fabric_hops` the hop matrix
/// (`None` = full mesh, every distinct pair one hop). Scoring is total
/// hop distance to the demand, ties broken lexicographically, so
/// election is deterministic and independent of memory churn.
pub(crate) fn elect(
    key: &ShareKey,
    views: &[NodeView<'_>],
    fabric_hops: Option<&BTreeMap<String, BTreeMap<String, u32>>>,
    demand: &BTreeSet<String>,
) -> Result<String, SharingError> {
    let usable = |v: &NodeView<'_>| v.sharable_types.contains(key.functional_type.as_str());
    let dist = |a: &str, b: &str| u64::from(Topology::hop_distance(fabric_hops, a, b));
    let mut best: Option<(u64, &str)> = None;
    for view in views.iter().filter(|v| usable(v)) {
        let score: u64 = demand.iter().map(|a| dist(&view.name, a)).sum();
        if best.is_none_or(|(s, n)| (score, view.name.as_str()) < (s, n)) {
            best = Some((score, view.name.as_str()));
        }
    }
    best.map(|(_, name)| name.to_string())
        .ok_or_else(|| SharingError::NoSharableHost {
            key: key.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(name: &str, sharable: &[&'a str]) -> NodeView<'a> {
        NodeView {
            name: name.to_string(),
            free_memory: 1 << 30,
            capacity: 1 << 30,
            native_types: sharable.iter().copied().collect(),
            shared_running: BTreeSet::new(),
            sharable_types: sharable.iter().copied().collect(),
            ports: BTreeSet::new(),
        }
    }

    fn matrix(pairs: &[(&str, &str, u32)]) -> BTreeMap<String, BTreeMap<String, u32>> {
        let mut m: BTreeMap<String, BTreeMap<String, u32>> = BTreeMap::new();
        for (a, b, d) in pairs {
            m.entry(a.to_string())
                .or_default()
                .insert(b.to_string(), *d);
            m.entry(b.to_string())
                .or_default()
                .insert(a.to_string(), *d);
        }
        m
    }

    #[test]
    fn first_demand_elects_nearest_sharable_node() {
        // line a–b–c–d; demand sits at a; only c and d are sharable.
        let views = vec![
            view("a", &[]),
            view("b", &[]),
            view("c", &["nat"]),
            view("d", &["nat"]),
        ];
        let hops = matrix(&[
            ("a", "b", 1),
            ("a", "c", 2),
            ("a", "d", 3),
            ("b", "c", 1),
            ("b", "d", 2),
            ("c", "d", 1),
        ]);
        let demand: BTreeSet<String> = ["a".to_string()].into();
        let host = elect(&ShareKey::new("nat"), &views, Some(&hops), &demand).unwrap();
        assert_eq!(host, "c", "nearest sharable node to the demand");
    }

    #[test]
    fn dead_nodes_are_skipped() {
        // The one host that ever held the type is the one a re-election
        // replaces, and it has no view: only serving nodes are listed.
        let key = ShareKey::new("nat");
        let host = elect(&key, &[view("b", &["nat"])], None, &BTreeSet::new()).unwrap();
        assert_eq!(host, "b", "dead node is no candidate");
        assert!(matches!(
            elect(&key, &[], None, &BTreeSet::new()),
            Err(SharingError::NoSharableHost { .. })
        ));
    }

    #[test]
    fn registry_leases_are_per_graph_and_last_release_drops() {
        let mut r = SharedRegistry::default();
        let key = ShareKey::new("nat");
        assert_eq!(r.commit("g1", &key, "n1", 1), (true, true));
        // Re-acquire by the same graph: no new lease, wires updated.
        assert_eq!(r.commit("g1", &key, "n1", 2), (false, false));
        assert_eq!(r.commit("g2", &key, "n1", 1), (false, true));
        let inst = r.get(&key).unwrap();
        assert_eq!(inst.tenant_count(), 2);
        assert_eq!(inst.wires(), 3);
        assert_eq!(r.leases_of("g1")[&key].nfs, 2);

        assert!(r.release_graph("g1").is_empty(), "g2 still leases");
        assert_eq!(r.release_graph("g2"), vec![key.clone()]);
        assert_eq!(r.instances().count(), 0, "no orphan instances");
    }

    #[test]
    fn set_host_moves_only_the_named_replica() {
        let mut r = SharedRegistry::default();
        let nat = ShareKey::new("nat");
        let fw = ShareKey::new("firewall");
        r.commit("g1", &nat, "n1", 1);
        r.commit("g2", &nat, "n1", 1);
        r.commit("g2", &fw, "n2", 1);
        r.set_host(&nat, "n3");
        assert!(r.hosted_on("n1").is_empty());
        assert_eq!(r.hosted_on("n3"), vec![nat.clone()]);
        for g in ["g1", "g2"] {
            assert_eq!(r.leases_of(g)[&nat].host, "n3", "every lease moves along");
        }
        assert_eq!(r.leases_of("g2")[&fw].host, "n2", "other type untouched");
        assert_eq!(r.instances().count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "claimed off its host")]
    fn a_live_key_is_never_claimed_off_its_host() {
        let mut r = SharedRegistry::default();
        let key = ShareKey::new("nat");
        r.commit("g1", &key, "n1", 1);
        r.commit("g2", &key, "n2", 1);
    }

    #[test]
    fn release_except_keeps_current_claims() {
        let mut r = SharedRegistry::default();
        let nat = ShareKey::new("nat");
        let fw = ShareKey::new("firewall");
        r.commit("g1", &nat, "n1", 1);
        r.commit("g1", &fw, "n2", 1);
        let keep: BTreeSet<ShareKey> = [nat.clone()].into();
        assert_eq!(r.release_except("g1", &keep), vec![fw]);
        assert_eq!(r.get(&nat).unwrap().host, "n1");
        assert_eq!(r.instances().count(), 1);
    }
}
