//! The VNF repository: NF templates and their technology flavors.
//!
//! The resolver ("VNF resolver" in Figure 1) answers: *which concrete
//! realizations exist for functional type X on this node?* The
//! scheduler then picks one (see [`crate::placement`]).

use std::collections::BTreeMap;

use un_compute::FlavorSpec;
use un_sim::mem::{mb, mb_f};

/// A deployable NF type and its available realizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfTemplate {
    /// Functional type, e.g. `"ipsec"`.
    pub functional_type: String,
    /// Available flavors, in *fallback preference order* (used when the
    /// native option is unavailable).
    pub flavors: Vec<FlavorSpec>,
    /// Default number of ports.
    pub default_ports: usize,
}

impl NfTemplate {
    /// The spec for a given technology, if offered.
    pub fn spec_for(&self, flavor: un_compute::Flavor) -> Option<&FlavorSpec> {
        self.flavors.iter().find(|s| s.flavor() == flavor)
    }
}

/// The repository: functional type → template.
#[derive(Debug, Default)]
pub struct VnfRepository {
    templates: BTreeMap<String, NfTemplate>,
}

impl VnfRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard CPE repository used by the evaluation: every NF type
    /// the NNF catalogue offers also exists as a Docker and a VM flavor,
    /// with footprints composing the paper's Table 1 numbers (the
    /// arithmetic is in the body; `un_sim::cost` owns the timing side).
    pub fn standard() -> Self {
        let mut r = Self::new();
        for ft in ["ipsec", "firewall", "nat", "bridge", "router"] {
            // VM: 320 MB guest, the NF's RSS inside it, + 70.6 MB QEMU
            // ⇒ 390.6 MB total.
            // Docker: the NF daemon's RSS is accounted by the plugin
            // (the container entrypoint *is* the NF software: 19.4 MB
            // for charon), plus the 4.8 MB runtime shim ⇒ 24.2 MB.
            // `process_rss` covers extra userland beyond the daemon.
            let (vm_mem, docker_rss) = if ft == "ipsec" {
                (320, 0)
            } else {
                (256, mb_f(3.0))
            };
            r.register(NfTemplate {
                functional_type: ft.to_string(),
                flavors: vec![
                    FlavorSpec::Native,
                    FlavorSpec::Docker {
                        image: ft.to_string(),
                        tag: "latest".to_string(),
                        process_rss: docker_rss,
                    },
                    FlavorSpec::Vm {
                        image: format!("{ft}-vm"),
                        vcpus: 1,
                        mem_mb: vm_mem,
                    },
                ],
                default_ports: 2,
            });
        }
        // A DPDK-only fast path NF as well (no native equivalent).
        r.register(NfTemplate {
            functional_type: "l2fwd-fast".to_string(),
            flavors: vec![FlavorSpec::Dpdk {
                cores: 1,
                hugepages_mb: 256,
            }],
            default_ports: 2,
        });
        r
    }

    /// Register (or replace) a template.
    pub fn register(&mut self, t: NfTemplate) {
        self.templates.insert(t.functional_type.clone(), t);
    }

    /// Resolve a functional type.
    pub fn resolve(&self, functional_type: &str) -> Option<&NfTemplate> {
        self.templates.get(functional_type)
    }

    /// Iterate templates.
    pub fn iter(&self) -> impl Iterator<Item = &NfTemplate> {
        self.templates.values()
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// Provision the standard images into a compute manager's stores so the
/// standard repository's flavors are actually deployable:
///
/// * VM disk images: full OS + NF ⇒ 522 MB for strongswan-vm, a bit
///   less for the others (no layer sharing between VM images).
/// * Docker images: a shared 235 MB base layer + a small per-NF layer
///   (the strongswan package layer is 5 MB ⇒ 240 MB total).
pub fn provision_standard_images(mgr: &mut un_compute::ComputeManager) {
    use un_container::{Image, Layer};
    use un_hypervisor::DiskImage;

    for (ft, vm_size, pkg_size) in [
        ("ipsec", mb(522), mb(5)),
        ("firewall", mb(519), mb(2)),
        ("nat", mb(519), mb(2)),
        ("bridge", mb(518), mb(1)),
        ("router", mb(518), mb(1)),
    ] {
        mgr.vm.hypervisor.images.add(DiskImage {
            name: format!("{ft}-vm"),
            size: vm_size,
        });
        mgr.docker.registry.push(Image {
            name: ft.to_string(),
            tag: "latest".to_string(),
            layers: vec![
                Layer::new("sha256:base-os", mb(235)),
                Layer::new(&format!("sha256:{ft}-pkg"), pkg_size),
            ],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_compute::Flavor;

    #[test]
    fn standard_repository_contents() {
        let r = VnfRepository::standard();
        assert_eq!(r.len(), 6);
        let ipsec = r.resolve("ipsec").unwrap();
        assert_eq!(ipsec.flavors.len(), 3);
        assert!(ipsec.spec_for(Flavor::Native).is_some());
        assert!(ipsec.spec_for(Flavor::Docker).is_some());
        assert!(ipsec.spec_for(Flavor::Vm).is_some());
        assert!(ipsec.spec_for(Flavor::Dpdk).is_none());
        assert!(r
            .resolve("l2fwd-fast")
            .unwrap()
            .spec_for(Flavor::Dpdk)
            .is_some());
        assert!(r.resolve("quantum").is_none());
    }

    #[test]
    fn provisioning_makes_flavors_deployable() {
        let mut mgr = un_compute::ComputeManager::new();
        provision_standard_images(&mut mgr);
        assert_eq!(
            mgr.vm.hypervisor.images.get("ipsec-vm").unwrap().size,
            mb(522)
        );
        assert!(mgr.docker.registry.manifest("ipsec", "latest").is_some());
        // Docker images share the base layer in the registry definition;
        // pulling two should dedupe in the local store.
        let dl1 = mgr
            .docker
            .runtime
            .store
            .pull(&mgr.docker.registry, "ipsec", "latest")
            .unwrap();
        let dl2 = mgr
            .docker
            .runtime
            .store
            .pull(&mgr.docker.registry, "firewall", "latest")
            .unwrap();
        assert_eq!(dl1, mb(240));
        assert_eq!(dl2, mb(2));
    }
}
