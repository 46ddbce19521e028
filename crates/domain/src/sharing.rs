//! Domain-wide sharable-NNF registry: fleet-level reuse of native
//! network functions.
//!
//! The paper's sharable NNFs let one native instance serve many graphs
//! — but only for graphs that land on the node already running it.
//! This module lifts that reuse to the whole fleet: a domain-wide
//! catalog of shared instances keyed by [`ShareKey`] (functional type
//! plus an optional capability tag), with explicit **leases** (one per
//! tenant graph, acquired on deploy and released on undeploy, typed
//! errors on capacity exhaustion) and an **election policy** deciding
//! which node hosts each instance:
//!
//! * [`ElectionPolicy::FirstDemand`] — the instance lives next to the
//!   tenant that first demanded it (nearest sharable node to that
//!   graph's endpoints);
//! * [`ElectionPolicy::TopologyCentroid`] — the instance lives at the
//!   fabric centroid (minimum total hop distance to every alive node),
//!   so no tenant is pathologically far;
//! * [`ElectionPolicy::Pinned`] — the operator names the host per
//!   functional type (or per `type/capability` key).
//!
//! The registry itself is pure bookkeeping — `Domain::plan` consults it
//! to pin a tenant's shared NFs onto the elected host (the partitioner
//! then synthesizes cut edges to that node and the overlay path engine
//! routes them, multi-hop if need be), and commits or releases leases
//! as deployments succeed, update, park, or die. When the host node
//! fails, the domain re-elects a host **once** at registry level and
//! every tenant repair converges on the new home.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use un_nffg::NfFg;

use crate::domain::FleetView;
use crate::placement::NodeView;
use crate::topology::Topology;

/// Identity of one domain-shared instance: the functional type plus a
/// free-form capability tag (empty by default), so e.g. a default NAT
/// pool and a `cgnat` pool can coexist as distinct shared instances.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShareKey {
    /// Functional type, e.g. `"nat"`.
    pub functional_type: String,
    /// Capability tag (from the NF's `share-capability` config param);
    /// empty string means the default pool.
    pub capability: String,
}

impl ShareKey {
    /// A key from its parts.
    pub fn new(functional_type: &str, capability: &str) -> Self {
        ShareKey {
            functional_type: functional_type.to_string(),
            capability: capability.to_string(),
        }
    }

    /// The key an NF demands: its functional type plus the
    /// `share-capability` config param (default pool when absent).
    pub fn of_nf(nf: &un_nffg::NetworkFunction) -> Self {
        ShareKey {
            functional_type: nf.functional_type.clone(),
            capability: nf
                .config
                .params
                .get("share-capability")
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Human-readable rendering: `nat` or `nat/cgnat`.
    pub fn render(&self) -> String {
        if self.capability.is_empty() {
            self.functional_type.clone()
        } else {
            format!("{}/{}", self.functional_type, self.capability)
        }
    }
}

impl fmt::Display for ShareKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Where a shared instance lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ElectionPolicy {
    /// Host the instance on the sharable node nearest to the endpoints
    /// of the tenant that first demanded it.
    #[default]
    FirstDemand,
    /// Host the instance at the fabric centroid: minimum total hop
    /// distance to every alive node.
    TopologyCentroid,
    /// Operator-pinned hosts: `type` (or `type/capability`) → node.
    Pinned(BTreeMap<String, String>),
}

impl ElectionPolicy {
    /// Policy name for documents and logs.
    pub fn name(&self) -> &'static str {
        match self {
            ElectionPolicy::FirstDemand => "first-demand",
            ElectionPolicy::TopologyCentroid => "topology-centroid",
            ElectionPolicy::Pinned(_) => "pinned",
        }
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
    /// Where shared instances live.
    pub election: ElectionPolicy,
    /// Maximum tenant *graphs* per shared instance (`None` =
    /// unlimited). A graph with several NFs of one key still holds a
    /// single lease, and re-planning a graph never double-counts the
    /// lease it already holds.
    pub max_leases: Option<usize>,
    /// When every replica of a key sits at `max_leases`, elect an
    /// additional replica on a fresh host and split tenants across the
    /// pool instead of returning
    /// [`SharingError::CapacityExhausted`]. Off by default — rejection
    /// stays the contract unless the operator opts in.
    pub scale_out: bool,
}

impl SharingConfig {
    /// Sharing enabled for the given functional types, first-demand
    /// election, unlimited leases.
    pub fn for_types(types: &[&str]) -> Self {
        SharingConfig {
            enabled: true,
            types: types.iter().map(|s| s.to_string()).collect(),
            election: ElectionPolicy::FirstDemand,
            max_leases: None,
            scale_out: false,
        }
    }
}

/// Why a sharing decision failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharingError {
    /// No serving node offers the type as a sharable NNF (or every
    /// candidate already hosts a different instance of the type).
    NoSharableHost {
        /// The share key (rendered).
        key: String,
    },
    /// The pinned host is unknown, dead, lacks the sharable NNF, or is
    /// not pinned at all under [`ElectionPolicy::Pinned`].
    PinnedHostUnusable {
        /// The share key (rendered).
        key: String,
        /// The pinned node (`<unpinned>` when the map has no entry).
        node: String,
    },
    /// The instance already serves `max_leases` tenant graphs.
    CapacityExhausted {
        /// The share key (rendered).
        key: String,
        /// The instance's host node.
        host: String,
        /// The configured per-instance tenant limit.
        max_leases: usize,
    },
}

impl fmt::Display for SharingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingError::NoSharableHost { key } => {
                write!(f, "no serving node can host shared NNF '{key}'")
            }
            SharingError::PinnedHostUnusable { key, node } => {
                write!(f, "shared NNF '{key}' pinned to unusable node '{node}'")
            }
            SharingError::CapacityExhausted {
                key,
                host,
                max_leases,
            } => write!(
                f,
                "shared NNF '{key}' on '{host}' is at capacity ({max_leases} tenant graphs)"
            ),
        }
    }
}

impl std::error::Error for SharingError {}

/// One graph's stake in one shared instance (stored per graph and
/// mirrored by the registry's lease table).
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

    /// Total NF wires across all leases (the chaos suite's
    /// lease-conservation invariant balances this against the per-graph
    /// claim ledger).
    pub fn wires(&self) -> usize {
        self.leases.values().sum()
    }
}

/// The domain-wide catalog of shared instances.
///
/// A key maps to a *pool* of replicas (one per host). The common case
/// is a single replica; scale-out (see [`SharingConfig::scale_out`])
/// adds more when every existing replica sits at `max_leases`. A graph
/// holds at most one lease per key, on exactly one replica of the
/// pool.
#[derive(Debug, Default)]
pub struct SharedRegistry {
    instances: BTreeMap<ShareKey, Vec<SharedInstance>>,
}

impl SharedRegistry {
    /// Iterate live instances (every replica of every key).
    pub fn instances(&self) -> impl Iterator<Item = &SharedInstance> {
        self.instances.values().flatten()
    }

    /// Every replica of a key, in host order (empty slice when none).
    pub fn replicas(&self, key: &ShareKey) -> &[SharedInstance] {
        self.instances.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The replica of `key` living on `host`, if any.
    pub fn replica_on(&self, key: &ShareKey, host: &str) -> Option<&SharedInstance> {
        self.replicas(key).iter().find(|i| i.host == host)
    }

    /// Keys of every instance hosted on `node` (at most one replica of
    /// a key lives on a given node, so keys are unique).
    pub fn hosted_on(&self, node: &str) -> Vec<ShareKey> {
        self.instances
            .values()
            .flatten()
            .filter(|i| i.host == node)
            .map(|i| i.key.clone())
            .collect()
    }

    /// Every lease `graph` holds, as per-graph claims. A graph leases
    /// at most one replica per key.
    pub fn leases_of(&self, graph: &str) -> BTreeMap<ShareKey, SharedClaim> {
        self.instances
            .values()
            .flatten()
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

    /// Hosts that cannot take another instance of `functional_type`.
    /// Node-level NNF singletons cannot host two instances of one
    /// type, so every host already carrying it is out — sibling
    /// capability pools, same-key replicas (a scale-out must land
    /// elsewhere), and the hosts a plan under construction `claimed` a
    /// few NFs ago.
    pub(crate) fn occupied(
        &self,
        functional_type: &str,
        claimed: &BTreeMap<ShareKey, SharedClaim>,
    ) -> BTreeSet<String> {
        let live = self.instances().map(|i| (&i.key, &i.host));
        live.chain(claimed.iter().map(|(key, claim)| (key, &claim.host)))
            .filter(|(key, _)| key.functional_type == functional_type)
            .map(|(_, host)| host.clone())
            .collect()
    }

    /// Move the replica of `key` living on `from` to a new host
    /// (re-election / standby promotion after failure); leases carry
    /// over untouched. No-op if no replica lives on `from`.
    pub(crate) fn set_host(&mut self, key: &ShareKey, from: &str, to: &str) {
        if let Some(pool) = self.instances.get_mut(key) {
            if let Some(inst) = pool.iter_mut().find(|i| i.host == from) {
                inst.host = to.to_string();
            }
            pool.sort_by(|a, b| a.host.cmp(&b.host));
        }
    }

    /// Record (or refresh) `graph`'s lease on `key`'s replica at
    /// `host`, creating the replica on first demand. A lease the graph
    /// held on a *different* replica of the same key moves here (a
    /// graph never double-leases a key); a replica emptied by such a
    /// move is dropped. Returns `(instance_new, lease_new,
    /// replicas_dropped)` for the caller's counters. Re-acquiring a
    /// lease the graph already holds only updates its wire count — it
    /// never consumes a second capacity slot.
    pub(crate) fn commit(
        &mut self,
        graph: &str,
        key: &ShareKey,
        host: &str,
        nfs: usize,
    ) -> (bool, bool, usize) {
        let pool = self.instances.entry(key.clone()).or_default();
        // Drop the graph's lease on any other replica of this key,
        // discarding replicas the move empties.
        let mut moved = false;
        let before = pool.len();
        pool.retain_mut(|inst| {
            if inst.host != host && inst.leases.remove(graph).is_some() {
                moved = true;
            }
            !inst.leases.is_empty() || inst.host == host
        });
        let dropped = before - pool.len();
        let instance_new = !pool.iter().any(|i| i.host == host);
        if instance_new {
            pool.push(SharedInstance {
                key: key.clone(),
                host: host.to_string(),
                leases: BTreeMap::new(),
            });
            pool.sort_by(|a, b| a.host.cmp(&b.host));
        }
        let inst = pool
            .iter_mut()
            .find(|i| i.host == host)
            .expect("replica at host exists");
        let lease_new = inst.leases.insert(graph.to_string(), nfs).is_none() && !moved;
        (instance_new, lease_new, dropped)
    }

    /// Release every lease `graph` holds; replicas left without
    /// tenants are dropped (no orphan instances). Returns the dropped
    /// keys, one entry per dropped replica.
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
        self.instances.retain(|key, pool| {
            if applies(key) {
                pool.retain_mut(|inst| {
                    inst.leases.remove(graph);
                    if inst.leases.is_empty() {
                        dropped.push(key.clone());
                        false
                    } else {
                        true
                    }
                });
            }
            !pool.is_empty()
        });
        dropped
    }
}

/// The shared instances a plan of `graph` rides, one claim per share
/// key: every NF of a fleet-shared type is pinned (into `pins`) onto
/// the registry's host for its key — the host a live replica already
/// has, or a freshly elected one. The partitioner then cuts the
/// tenant's edges toward that node and the path engine routes them, so
/// the graph rides the shared instance instead of instantiating its
/// own. NFs in `opted_out` (the caller pinned them) stay private.
/// `endpoints` is where the graph's endpoints sit: the demand a
/// first-demand election anchors on.
pub(crate) fn claim_replicas(
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
        // Replica choice, in decreasing order of stability: (a) the
        // replica this graph already leases (if its host serves) —
        // re-planning never migrates a tenant gratuitously; (b) the
        // serving replica with the most lease headroom (fewest leases,
        // host-name tie-break); (c) a standby host pre-elected at
        // Suspect time; (d) a fresh election — the first instance of
        // the pool, a failover, or (when `scale_out` is on and every
        // serving replica is full) a second instance that splits the
        // tenancy instead of erroring.
        let replicas = view.sharing.replicas(&key);
        let mut chosen: Option<&String> = replicas
            .iter()
            .find(|i| i.leases.contains_key(&graph.id))
            .map(|i| &i.host)
            .filter(|h| serves(h));
        let mut full_host: Option<&String> = None;
        if chosen.is_none() {
            let mut best: Option<(usize, &String)> = None;
            for inst in replicas.iter().filter(|i| serves(&i.host)) {
                let leases = inst.leases.len();
                if config.max_leases.is_some_and(|max| leases >= max) {
                    full_host = Some(&inst.host);
                } else if best.is_none_or(|b| (leases, &inst.host) < b) {
                    best = Some((leases, &inst.host));
                }
            }
            let standby = view.shared_standby.get(&key).filter(|h| serves(h));
            chosen = best.map(|(_, host)| host).or(standby);
        }
        let host = match (chosen, full_host) {
            (Some(host), _) => host.clone(),
            (None, Some(full)) if !config.scale_out => {
                return Err(SharingError::CapacityExhausted {
                    key: key.render(),
                    host: full.clone(),
                    max_leases: config.max_leases.unwrap_or(0),
                });
            }
            (None, _) => elect(
                &key,
                &config.election,
                &view.views,
                view.fabric_hops.as_ref(),
                &demand,
                &view.sharing.occupied(&key.functional_type, &claims),
            )?,
        };
        pins.insert(nf.id.clone(), host.clone());
        claims.insert(key, SharedClaim { host, nfs: 1 });
    }
    Ok(claims)
}

/// Elect the host node for a shared instance.
///
/// Candidates are alive nodes whose NNF catalog marks the type
/// sharable, excluding `occupied` (nodes already hosting a *different*
/// instance of the same functional type — node-level NNF singletons
/// cannot run two). `demand` is the node set the demanding tenant
/// already occupies (its endpoints), `fabric_hops` the hop matrix
/// (`None` = full mesh, every distinct pair one hop). Scoring is total
/// hop distance to the policy's anchor set, ties broken
/// lexicographically, so election is deterministic and independent of
/// memory churn.
pub(crate) fn elect(
    key: &ShareKey,
    policy: &ElectionPolicy,
    views: &[NodeView],
    fabric_hops: Option<&BTreeMap<String, BTreeMap<String, u32>>>,
    demand: &BTreeSet<String>,
    occupied: &BTreeSet<String>,
) -> Result<String, SharingError> {
    let usable = |v: &NodeView| {
        v.alive && v.sharable_types.contains(&key.functional_type) && !occupied.contains(&v.name)
    };
    if let ElectionPolicy::Pinned(pins) = policy {
        let pin = pins
            .get(&key.render())
            .or_else(|| pins.get(&key.functional_type));
        let Some(node) = pin else {
            return Err(SharingError::PinnedHostUnusable {
                key: key.render(),
                node: "<unpinned>".to_string(),
            });
        };
        if views.iter().any(|v| v.name == *node && usable(v)) {
            return Ok(node.clone());
        }
        return Err(SharingError::PinnedHostUnusable {
            key: key.render(),
            node: node.clone(),
        });
    }
    let dist = |a: &str, b: &str| u64::from(Topology::hop_distance(fabric_hops, a, b));
    let anchors: BTreeSet<&str> = match policy {
        ElectionPolicy::FirstDemand => demand.iter().map(String::as_str).collect(),
        _ => views
            .iter()
            .filter(|v| v.alive)
            .map(|v| v.name.as_str())
            .collect(),
    };
    let mut best: Option<(u64, &str)> = None;
    for view in views.iter().filter(|v| usable(v)) {
        let score: u64 = anchors.iter().map(|a| dist(&view.name, a)).sum();
        if best.is_none_or(|(s, n)| (score, view.name.as_str()) < (s, n)) {
            best = Some((score, view.name.as_str()));
        }
    }
    best.map(|(_, name)| name.to_string())
        .ok_or_else(|| SharingError::NoSharableHost { key: key.render() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(name: &str, sharable: &[&str], alive: bool) -> NodeView {
        NodeView {
            name: name.to_string(),
            free_memory: 1 << 30,
            capacity: 1 << 30,
            native_types: sharable.iter().map(|s| s.to_string()).collect(),
            shared_running: BTreeSet::new(),
            sharable_types: sharable.iter().map(|s| s.to_string()).collect(),
            ports: BTreeSet::new(),
            alive,
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
    fn share_key_reads_capability_from_config() {
        let mut g = un_nffg::NfFgBuilder::new("g", "g")
            .nf("a", "nat", 2)
            .build();
        assert_eq!(ShareKey::of_nf(&g.nfs[0]), ShareKey::new("nat", ""));
        g.nfs[0]
            .config
            .params
            .insert("share-capability".into(), "cgnat".into());
        let key = ShareKey::of_nf(&g.nfs[0]);
        assert_eq!(key, ShareKey::new("nat", "cgnat"));
        assert_eq!(key.render(), "nat/cgnat");
    }

    #[test]
    fn first_demand_elects_nearest_sharable_node() {
        // line a–b–c–d; demand sits at a; only c and d are sharable.
        let views = vec![
            view("a", &[], true),
            view("b", &[], true),
            view("c", &["nat"], true),
            view("d", &["nat"], true),
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
        let host = elect(
            &ShareKey::new("nat", ""),
            &ElectionPolicy::FirstDemand,
            &views,
            Some(&hops),
            &demand,
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(host, "c", "nearest sharable node to the demand");
    }

    #[test]
    fn centroid_minimizes_total_distance() {
        // line a–b–c: b is the centroid.
        let views = vec![
            view("a", &["nat"], true),
            view("b", &["nat"], true),
            view("c", &["nat"], true),
        ];
        let hops = matrix(&[("a", "b", 1), ("b", "c", 1), ("a", "c", 2)]);
        let host = elect(
            &ShareKey::new("nat", ""),
            &ElectionPolicy::TopologyCentroid,
            &views,
            Some(&hops),
            &BTreeSet::new(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(host, "b");
    }

    #[test]
    fn pinned_policy_demands_a_usable_pin() {
        let views = vec![view("a", &["nat"], true), view("b", &["nat"], false)];
        let pins: BTreeMap<String, String> = [("nat".to_string(), "a".to_string())].into();
        let key = ShareKey::new("nat", "");
        let ok = elect(
            &key,
            &ElectionPolicy::Pinned(pins.clone()),
            &views,
            None,
            &BTreeSet::new(),
            &BTreeSet::new(),
        );
        assert_eq!(ok.unwrap(), "a");
        // Dead pin and missing pin are typed errors.
        let dead: BTreeMap<String, String> = [("nat".to_string(), "b".to_string())].into();
        assert!(matches!(
            elect(
                &key,
                &ElectionPolicy::Pinned(dead),
                &views,
                None,
                &BTreeSet::new(),
                &BTreeSet::new()
            ),
            Err(SharingError::PinnedHostUnusable { .. })
        ));
        assert!(matches!(
            elect(
                &ShareKey::new("firewall", ""),
                &ElectionPolicy::Pinned(pins),
                &views,
                None,
                &BTreeSet::new(),
                &BTreeSet::new()
            ),
            Err(SharingError::PinnedHostUnusable { .. })
        ));
    }

    #[test]
    fn occupied_hosts_and_dead_nodes_are_skipped() {
        let views = vec![view("a", &["nat"], false), view("b", &["nat"], true)];
        let key = ShareKey::new("nat", "cgnat");
        let host = elect(
            &key,
            &ElectionPolicy::FirstDemand,
            &views,
            None,
            &BTreeSet::new(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(host, "b", "dead node is no candidate");
        // b hosts the default pool already: the cgnat pool cannot land
        // on the same node-level singleton.
        let occupied: BTreeSet<String> = ["b".to_string()].into();
        assert!(matches!(
            elect(
                &key,
                &ElectionPolicy::FirstDemand,
                &views,
                None,
                &BTreeSet::new(),
                &occupied
            ),
            Err(SharingError::NoSharableHost { .. })
        ));
    }

    #[test]
    fn registry_leases_are_per_graph_and_last_release_drops() {
        let mut r = SharedRegistry::default();
        let key = ShareKey::new("nat", "");
        assert_eq!(r.commit("g1", &key, "n1", 1), (true, true, 0));
        // Re-acquire by the same graph: no new lease, wires updated.
        assert_eq!(r.commit("g1", &key, "n1", 2), (false, false, 0));
        assert_eq!(r.commit("g2", &key, "n1", 1), (false, true, 0));
        let inst = &r.replicas(&key)[0];
        assert_eq!(inst.tenant_count(), 2);
        assert_eq!(inst.wires(), 3);
        assert_eq!(r.leases_of("g1")[&key].nfs, 2);

        assert!(r.release_graph("g1").is_empty(), "g2 still leases");
        assert_eq!(r.release_graph("g2"), vec![key.clone()]);
        assert_eq!(r.instances().count(), 0, "no orphan instances");
    }

    #[test]
    fn scale_out_pools_hold_one_lease_per_key_per_graph() {
        let mut r = SharedRegistry::default();
        let key = ShareKey::new("nat", "");
        // Two replicas of one key (scale-out), tenants split.
        assert_eq!(r.commit("g1", &key, "n1", 1), (true, true, 0));
        assert_eq!(r.commit("g2", &key, "n2", 1), (true, true, 0));
        assert_eq!(r.instances().count(), 2, "two replicas");
        assert_eq!(r.replicas(&key).len(), 2);
        assert_eq!(r.replica_on(&key, "n2").unwrap().tenant_count(), 1);
        assert_eq!(r.leases_of("g1")[&key].host, "n1");
        assert_eq!(r.leases_of("g2")[&key].host, "n2");
        assert_eq!(r.hosted_on("n2"), vec![key.clone()]);

        // Re-committing g1 onto n2 *moves* the lease (never two leases
        // on one key) and drops the replica the move emptied.
        assert_eq!(r.commit("g1", &key, "n2", 1), (false, false, 1));
        assert_eq!(r.instances().count(), 1);
        assert_eq!(r.leases_of("g1")[&key].host, "n2");
        assert_eq!(r.replica_on(&key, "n2").unwrap().tenant_count(), 2);
    }

    #[test]
    fn set_host_moves_only_the_named_replica() {
        let mut r = SharedRegistry::default();
        let key = ShareKey::new("nat", "");
        r.commit("g1", &key, "n1", 1);
        r.commit("g2", &key, "n2", 1);
        r.set_host(&key, "n1", "n3");
        assert!(r.replica_on(&key, "n1").is_none());
        assert_eq!(r.leases_of("g1")[&key].host, "n3");
        assert_eq!(
            r.leases_of("g2")[&key].host,
            "n2",
            "other replica untouched"
        );
    }

    #[test]
    fn release_except_keeps_current_claims() {
        let mut r = SharedRegistry::default();
        let nat = ShareKey::new("nat", "");
        let cg = ShareKey::new("nat", "cgnat");
        r.commit("g1", &nat, "n1", 1);
        r.commit("g1", &cg, "n2", 1);
        let keep: BTreeSet<ShareKey> = [nat.clone()].into();
        assert_eq!(r.release_except("g1", &keep), vec![cg]);
        assert_eq!(r.replicas(&nat).len(), 1);
        assert_eq!(r.instances().count(), 1);
    }
}
