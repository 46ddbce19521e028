//! The VNF scheduler's placement policy: NNF or VNF, and which flavor.
//!
//! Paper §2: "For each NF in a NF-FG, the orchestrator decides whether
//! to deploy it as VNF or NNF based on its knowledge of the node
//! capability set, the available NNFs and their characteristics (e.g.,
//! whether they are sharable), and their status (e.g., already used in
//! another chain)."

use un_compute::{ComputeError, Flavor, FlavorSpec, InstanceId};
use un_nnf::NnfCatalog;

use crate::repository::NfTemplate;

/// The scheduler's verdict for one NF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Deploy a fresh native instance (dedicated ports).
    NativeNew,
    /// Deploy a fresh native instance in shared (single-port) mode —
    /// chosen for sharable single-instance NNFs so later graphs can
    /// join.
    NativeNewShared,
    /// Reuse this existing shared native instance (bind the graph).
    NativeShare(InstanceId),
    /// Deploy a VNF with this spec.
    Vnf(FlavorSpec),
}

/// Status of existing native instances, as the scheduler sees it.
pub trait NativeStatus {
    /// The live instance of a functional type, if any, with whether it
    /// runs in shared mode.
    fn existing(&self, functional_type: &str) -> Option<(InstanceId, bool)>;
}

/// Decide the realization for one NF.
///
/// `flavor_hint` comes from the NF-FG (`"native"`, `"docker"`, …): a
/// hinted flavor is obeyed or the decision fails; without a hint the
/// native flavor is preferred and a busy singleton falls back to a VNF.
pub fn decide(
    template: &NfTemplate,
    flavor_hint: Option<&str>,
    catalog: &NnfCatalog,
    status: &dyn NativeStatus,
) -> Result<Decision, ComputeError> {
    // Explicit hint: obey or fail loudly (the tenant asked for it).
    if let Some(hint) = flavor_hint {
        let flavor = Flavor::parse(hint)
            .ok_or_else(|| ComputeError::Unsupported(format!("unknown flavor '{hint}'")))?;
        if flavor == Flavor::Native {
            return decide_native(template, catalog, status);
        }
        let spec = template
            .spec_for(flavor)
            .ok_or_else(|| {
                ComputeError::Unsupported(format!(
                    "'{}' has no {flavor} flavor",
                    template.functional_type
                ))
            })?
            .clone();
        return Ok(Decision::Vnf(spec));
    }

    // No hint: prefer native when the node can (the paper's point:
    // lowest overhead on a resource-constrained CPE).
    match decide_native(template, catalog, status) {
        Ok(d) => Ok(d),
        Err(_) => fallback_vnf(template),
    }
}

fn decide_native(
    template: &NfTemplate,
    catalog: &NnfCatalog,
    status: &dyn NativeStatus,
) -> Result<Decision, ComputeError> {
    let ft = template.functional_type.as_str();
    let Some(desc) = catalog.get(ft) else {
        return Err(ComputeError::NoSuchNnf(ft.to_string()));
    };
    match status.existing(ft) {
        None => {
            // First user. Sharable single-instance NNFs start in shared
            // mode so later graphs can join (paper: marking mechanism +
            // internal paths).
            if !desc.multi_instance && desc.sharable {
                Ok(Decision::NativeNewShared)
            } else {
                Ok(Decision::NativeNew)
            }
        }
        Some((id, shared)) => {
            if desc.multi_instance {
                Ok(Decision::NativeNew)
            } else if desc.sharable && shared {
                Ok(Decision::NativeShare(id))
            } else {
                // Busy singleton: the caller decides whether that is
                // final (native was demanded) or falls back to a VNF.
                Err(ComputeError::NnfBusy(ft.to_string()))
            }
        }
    }
}

fn fallback_vnf(template: &NfTemplate) -> Result<Decision, ComputeError> {
    // Fallback preference: Docker, then VM, then DPDK (cheapest first on
    // a CPE).
    for flavor in [Flavor::Docker, Flavor::Vm, Flavor::Dpdk] {
        if let Some(spec) = template.spec_for(flavor) {
            return Ok(Decision::Vnf(spec.clone()));
        }
    }
    Err(ComputeError::Unsupported(format!(
        "'{}' has no deployable flavor",
        template.functional_type
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::VnfRepository;

    struct Status(Vec<(&'static str, InstanceId, bool)>);

    impl NativeStatus for Status {
        fn existing(&self, ft: &str) -> Option<(InstanceId, bool)> {
            self.0
                .iter()
                .find(|(t, _, _)| *t == ft)
                .map(|(_, id, s)| (*id, *s))
        }
    }

    fn repo() -> VnfRepository {
        VnfRepository::standard()
    }

    #[test]
    fn prefers_native_when_free() {
        let r = repo();
        let c = NnfCatalog::standard();
        let d = decide(r.resolve("ipsec").unwrap(), None, &c, &Status(vec![])).unwrap();
        assert_eq!(d, Decision::NativeNew);
    }

    #[test]
    fn sharable_nnf_starts_shared_and_then_shares() {
        let r = repo();
        let c = NnfCatalog::standard();
        // First NAT: shared mode from the start.
        let d = decide(r.resolve("nat").unwrap(), None, &c, &Status(vec![])).unwrap();
        assert_eq!(d, Decision::NativeNewShared);
        // Second graph: join the existing instance.
        let st = Status(vec![("nat", InstanceId(7), true)]);
        let d = decide(r.resolve("nat").unwrap(), None, &c, &st).unwrap();
        assert_eq!(d, Decision::NativeShare(InstanceId(7)));
    }

    #[test]
    fn busy_singleton_falls_back_to_docker() {
        let r = repo();
        let c = NnfCatalog::standard();
        // IPsec NNF already used by another chain, not sharable.
        let st = Status(vec![("ipsec", InstanceId(3), false)]);
        let d = decide(r.resolve("ipsec").unwrap(), None, &c, &st).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Docker),
            other => panic!("expected docker fallback, got {other:?}"),
        }
    }

    #[test]
    fn multi_instance_nnf_always_new() {
        let r = repo();
        let c = NnfCatalog::standard();
        let st = Status(vec![("firewall", InstanceId(5), false)]);
        let d = decide(r.resolve("firewall").unwrap(), None, &c, &st).unwrap();
        assert_eq!(d, Decision::NativeNew);
    }

    #[test]
    fn explicit_hints_are_obeyed_or_fail() {
        let r = repo();
        let c = NnfCatalog::standard();
        let none = Status(vec![]);

        let d = decide(r.resolve("ipsec").unwrap(), Some("vm"), &c, &none).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Vm),
            other => panic!("{other:?}"),
        }
        let d = decide(r.resolve("ipsec").unwrap(), Some("native"), &c, &none).unwrap();
        assert_eq!(d, Decision::NativeNew);

        // Forced native while busy: hard error (no silent fallback).
        let busy = Status(vec![("ipsec", InstanceId(3), false)]);
        assert!(matches!(
            decide(r.resolve("ipsec").unwrap(), Some("native"), &c, &busy),
            Err(ComputeError::NnfBusy(_))
        ));
        // Unknown flavor string.
        assert!(matches!(
            decide(r.resolve("ipsec").unwrap(), Some("unikernel"), &c, &none),
            Err(ComputeError::Unsupported(_))
        ));
        // DPDK NF has no native/docker; hint-free deploy picks DPDK.
        let d = decide(r.resolve("l2fwd-fast").unwrap(), None, &c, &none).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Dpdk),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_native_in_catalog_falls_back() {
        let r = repo();
        let c = NnfCatalog::empty();
        let d = decide(r.resolve("ipsec").unwrap(), None, &c, &Status(vec![])).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Docker),
            other => panic!("{other:?}"),
        }
    }
}
