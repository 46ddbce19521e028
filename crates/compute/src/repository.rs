//! The repository: one row per functional type, listing every
//! implementation the node offers of it, native included.
//!
//! Paper §2: the orchestrator chooses VNF or NNF from "the node
//! capability set, the available NNFs and their characteristics". That is
//! one body of knowledge, kept as un-orchestrator's name-resolver keeps
//! it: one entry per network function, its implementations listed under
//! it. The scheduler reads a row to pick a flavor, the compute manager
//! builds every instance of the type from the row's [`NnfDescriptor`],
//! whatever its flavor, and the images every VNF flavor runs from are
//! built from the row's package.

use un_container::{Image, Layer};
use un_hypervisor::DiskImage;
use un_nnf::NnfDescriptor;
use un_sim::mem::{mb, mb_f};

use crate::drivers::{DockerDriver, VmDriver};
use crate::types::{Flavor, FlavorSpec};

/// A VM disk is a full guest OS plus the NF's package; VM images share
/// nothing.
const VM_GUEST_OS: u64 = mb(517);
/// Every Docker image is this base layer plus the NF's package layer.
const DOCKER_BASE: u64 = mb(235);

/// One functional type and every implementation of it the node offers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NfType {
    /// What every instance of the type is built from, whatever its
    /// flavor: the NNF instance each flavor's sandbox runs. Its
    /// functional type is the row's name.
    pub nf: NnfDescriptor,
    /// The implementations, in preference order: [`FlavorSpec::Native`]
    /// first when the node ships the type natively, then the VNFs in
    /// fallback order (used when the native one is unavailable).
    pub flavors: Vec<FlavorSpec>,
    /// Bytes of the NF's package: the layer each of its images adds to
    /// its base.
    pub package: u64,
}

impl NfType {
    /// Functional type, e.g. `"ipsec"`.
    pub fn name(&self) -> &'static str {
        self.nf.functional_type
    }

    /// The spec for a technology, if the type is offered in it.
    pub fn spec_for(&self, flavor: Flavor) -> Option<&FlavorSpec> {
        self.flavors.iter().find(|s| s.flavor() == flavor)
    }
}

/// The repository: the node's rows, in name order.
#[derive(Debug)]
pub struct Repository {
    types: Vec<NfType>,
}

impl Repository {
    /// The repository of a stock Linux CPE, used by the evaluation. Each
    /// of its five native types is also a Docker and a VM flavor, with
    /// footprints composing the paper's Table 1 numbers; `l2fwd-fast` is
    /// a DPDK fast path with no native equivalent, whose descriptor
    /// books no RSS (its process's memory is its hugepages) and whose
    /// package is the 12 MB statically linked application binary. The
    /// native characteristics:
    ///
    /// * `ipsec` — strongSwan: single instance (one charon per host), not
    ///   sharable. 5 MB package; the charon daemon's 19.4 MB RSS is, with
    ///   its in-kernel state, Table 1's native row.
    /// * `nat` — iptables MASQUERADE: single instance per namespace but
    ///   *sharable* via marks/zones/tables through one port.
    /// * `firewall`, `bridge`, `router` — multi-instance (kernel state is
    ///   per-namespace). They run no daemon: their RSS is the bookkeeping
    ///   of the tooling that manages rules, bridges, routes.
    ///
    /// A VM's guest takes the NF's RSS inside its RAM, and QEMU adds
    /// 70.6 MB: 320 + 70.6 = 390.6 MB for IPsec. A container's entrypoint
    /// *is* the NF software, whose RSS its NNF instance books (19.4 MB
    /// for charon), plus the 4.8 MB runtime shim: 24.2 MB; the Docker
    /// column adds what userland runs beyond the daemon.
    pub fn standard() -> Self {
        #[rustfmt::skip]
        let rows = [
            // type, multi-instance, sharable, native package, daemon RSS,
            // image package, VM guest MB, Docker userland
            ("ipsec", false, false, 5_000_000, 19_400_000, mb(5), 320, 0),
            ("nat", false, true, 1_200_000, 700_000, mb(2), 256, mb_f(3.0)),
            ("firewall", true, false, 1_200_000, 900_000, mb(2), 256, mb_f(3.0)),
            ("bridge", true, false, 800_000, 300_000, mb(1), 256, mb_f(3.0)),
            ("router", true, false, 900_000, 400_000, mb(1), 256, mb_f(3.0)),
        ];
        let cpe = rows.map(
            |(name, multi_instance, sharable, package_bytes, rss_bytes, package, vm_mb, rss)| {
                let nnf = NnfDescriptor {
                    functional_type: name,
                    multi_instance,
                    sharable,
                    package_bytes,
                    rss_bytes,
                    min_ports: 2,
                };
                let docker = FlavorSpec::Docker {
                    image: name.to_string(),
                    tag: "latest".to_string(),
                    process_rss: rss,
                };
                let vm = FlavorSpec::Vm {
                    image: format!("{name}-vm"),
                    vcpus: 1,
                    mem_mb: vm_mb,
                };
                NfType {
                    nf: nnf,
                    flavors: vec![FlavorSpec::Native, docker, vm],
                    package,
                }
            },
        );
        let fast_path = NfType {
            nf: NnfDescriptor {
                functional_type: "l2fwd-fast",
                multi_instance: true,
                sharable: false,
                package_bytes: 12_000_000,
                rss_bytes: 0,
                min_ports: 2,
            },
            flavors: vec![FlavorSpec::Dpdk {
                cores: 1,
                hugepages_mb: 256,
            }],
            package: 0,
        };
        let mut types: Vec<NfType> = cpe.into_iter().chain([fast_path]).collect();
        types.sort_by_key(NfType::name);
        Repository { types }
    }

    /// The row of a functional type.
    pub fn resolve(&self, functional_type: &str) -> Option<&NfType> {
        self.types.iter().find(|t| t.name() == functional_type)
    }

    /// The native implementation of a functional type, if there is one.
    pub fn nnf(&self, functional_type: &str) -> Option<&NnfDescriptor> {
        let row = self.resolve(functional_type)?;
        row.spec_for(Flavor::Native).map(|_| &row.nf)
    }

    /// Every row, in name order.
    pub fn iter(&self) -> impl Iterator<Item = &NfType> {
        self.types.iter()
    }

    /// Every native implementation, in name order (the node's NNF
    /// capability set).
    pub fn nnfs(&self) -> impl Iterator<Item = &NnfDescriptor> {
        let native = self
            .types
            .iter()
            .filter(|t| t.spec_for(Flavor::Native).is_some());
        native.map(|t| &t.nf)
    }

    /// Put the image each VNF implementation runs from into its driver's
    /// store: a VM disk is [`VM_GUEST_OS`] plus the package (522 MB for
    /// strongSwan), a Docker image the shared [`DOCKER_BASE`] layer plus a
    /// package layer (240 MB), so pulling two dedupes the base.
    pub(crate) fn provision(&self, vm: &mut VmDriver, docker: &mut DockerDriver) {
        for t in &self.types {
            for spec in &t.flavors {
                match spec {
                    FlavorSpec::Vm { image, .. } => vm.hypervisor.images.add(DiskImage {
                        name: image.clone(),
                        size: VM_GUEST_OS + t.package,
                    }),
                    FlavorSpec::Docker { image, tag, .. } => docker.registry.push(Image {
                        name: image.clone(),
                        tag: tag.clone(),
                        layers: vec![
                            Layer::new("sha256:base-os", DOCKER_BASE),
                            Layer::new(&format!("sha256:{}-pkg", t.name()), t.package),
                        ],
                    }),
                    FlavorSpec::Dpdk { .. } | FlavorSpec::Native => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputeManager;
    use un_nnf::NnfInstance;

    #[test]
    fn standard_repository_contents() {
        let r = Repository::standard();
        assert_eq!(r.iter().count(), 6);
        let ipsec = r.resolve("ipsec").unwrap();
        assert!(ipsec.spec_for(Flavor::Native).is_some());
        assert!(ipsec.spec_for(Flavor::Docker).is_some());
        assert!(ipsec.spec_for(Flavor::Vm).is_some());
        assert!(ipsec.spec_for(Flavor::Dpdk).is_none());
        let fast_path = r.resolve("l2fwd-fast").unwrap();
        assert!(fast_path.spec_for(Flavor::Dpdk).is_some());
        assert!(fast_path.spec_for(Flavor::Native).is_none());
        assert!(fast_path.spec_for(Flavor::Docker).is_none());
        assert!(r.resolve("quantum").is_none());
    }

    #[test]
    fn standard_catalog_contents() {
        let r = Repository::standard();
        assert_eq!(r.nnfs().count(), 5);
        let ipsec = r.nnf("ipsec").unwrap();
        assert!(!ipsec.multi_instance);
        assert!(!ipsec.sharable);
        assert_eq!(ipsec.package_bytes, 5_000_000);
        assert!(r.nnf("nat").unwrap().sharable);
        assert!(r.nnf("firewall").unwrap().multi_instance);
        assert!(r.nnf("l2fwd-fast").is_none());
        assert!(r.nnf("quantum").is_none());
    }

    /// Every row builds its instances, in every flavor, from its
    /// descriptor, and only a sharable type builds a shared one.
    #[test]
    fn instantiates_plugins() {
        for row in Repository::standard().iter() {
            let instance = NnfInstance::new(&row.nf, false).unwrap();
            assert_eq!(instance.descriptor(), &row.nf);
            assert_eq!(NnfInstance::new(&row.nf, true).is_ok(), row.nf.sharable);
        }
    }

    #[test]
    fn provisioning_makes_flavors_deployable() {
        let mut mgr = ComputeManager::new();
        for (image, size) in [
            ("ipsec-vm", 522),
            ("firewall-vm", 519),
            ("nat-vm", 519),
            ("bridge-vm", 518),
            ("router-vm", 518),
        ] {
            let disk = mgr.vm.hypervisor.images.get(image).unwrap();
            assert_eq!(disk.size, mb(size), "{image}");
        }
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
