//! The VNF scheduler's placement policy: NNF or VNF, and which flavor.
//!
//! Paper §2: "For each NF in a NF-FG, the orchestrator decides whether
//! to deploy it as VNF or NNF based on its knowledge of the node
//! capability set, the available NNFs and their characteristics (e.g.,
//! whether they are sharable), and their status (e.g., already used in
//! another chain)." The capabilities and the NNF's characteristics are
//! one repository row ([`NfType`]); the status is the caller's.

use un_compute::{ComputeError, Flavor, FlavorSpec, InstanceId, NfType};

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

/// Decide the realization for one NF of type `row`.
///
/// `flavor_hint` comes from the NF-FG (`"native"`, `"docker"`, …): a
/// hinted flavor is obeyed or the decision fails; without a hint the
/// native flavor is preferred and a busy singleton falls back to a VNF.
pub fn decide(
    row: &NfType,
    flavor_hint: Option<&str>,
    status: &dyn NativeStatus,
) -> Result<Decision, ComputeError> {
    // Explicit hint: obey or fail loudly (the tenant asked for it).
    if let Some(hint) = flavor_hint {
        let flavor = Flavor::parse(hint)
            .ok_or_else(|| ComputeError::Unsupported(format!("unknown flavor '{hint}'")))?;
        if flavor == Flavor::Native {
            return decide_native(row, status);
        }
        let spec = row
            .spec_for(flavor)
            .ok_or_else(|| {
                ComputeError::Unsupported(format!("'{}' has no {flavor} flavor", row.name()))
            })?
            .clone();
        return Ok(Decision::Vnf(spec));
    }

    // No hint: prefer native when the node can (the paper's point:
    // lowest overhead on a resource-constrained CPE).
    match decide_native(row, status) {
        Ok(d) => Ok(d),
        Err(_) => fallback_vnf(row),
    }
}

fn decide_native(row: &NfType, status: &dyn NativeStatus) -> Result<Decision, ComputeError> {
    let ft = row.name();
    if row.spec_for(Flavor::Native).is_none() {
        return Err(ComputeError::NoSuchNnf(ft.to_string()));
    }
    let desc = &row.nf;
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

/// The row's first VNF: its list is in fallback preference order
/// (cheapest first on a CPE).
fn fallback_vnf(row: &NfType) -> Result<Decision, ComputeError> {
    let mut vnfs = row.flavors.iter().filter(|s| **s != FlavorSpec::Native);
    match vnfs.next() {
        Some(spec) => Ok(Decision::Vnf(spec.clone())),
        None => Err(ComputeError::Unsupported(format!(
            "'{}' has no deployable flavor",
            row.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use un_compute::Repository;

    struct Status(Vec<(&'static str, InstanceId, bool)>);

    impl NativeStatus for Status {
        fn existing(&self, ft: &str) -> Option<(InstanceId, bool)> {
            self.0
                .iter()
                .find(|(t, _, _)| *t == ft)
                .map(|(_, id, s)| (*id, *s))
        }
    }

    fn row(functional_type: &str) -> NfType {
        Repository::standard()
            .resolve(functional_type)
            .unwrap()
            .clone()
    }

    #[test]
    fn prefers_native_when_free() {
        let d = decide(&row("ipsec"), None, &Status(vec![])).unwrap();
        assert_eq!(d, Decision::NativeNew);
    }

    #[test]
    fn sharable_nnf_starts_shared_and_then_shares() {
        // First NAT: shared mode from the start.
        let d = decide(&row("nat"), None, &Status(vec![])).unwrap();
        assert_eq!(d, Decision::NativeNewShared);
        // Second graph: join the existing instance.
        let st = Status(vec![("nat", InstanceId(7), true)]);
        let d = decide(&row("nat"), None, &st).unwrap();
        assert_eq!(d, Decision::NativeShare(InstanceId(7)));
    }

    #[test]
    fn busy_singleton_falls_back_to_docker() {
        // IPsec NNF already used by another chain, not sharable.
        let st = Status(vec![("ipsec", InstanceId(3), false)]);
        let d = decide(&row("ipsec"), None, &st).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Docker),
            other => panic!("expected docker fallback, got {other:?}"),
        }
    }

    #[test]
    fn multi_instance_nnf_always_new() {
        let st = Status(vec![("firewall", InstanceId(5), false)]);
        let d = decide(&row("firewall"), None, &st).unwrap();
        assert_eq!(d, Decision::NativeNew);
    }

    #[test]
    fn explicit_hints_are_obeyed_or_fail() {
        let none = Status(vec![]);

        let d = decide(&row("ipsec"), Some("vm"), &none).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Vm),
            other => panic!("{other:?}"),
        }
        let d = decide(&row("ipsec"), Some("native"), &none).unwrap();
        assert_eq!(d, Decision::NativeNew);

        // Forced native while busy: hard error (no silent fallback).
        let busy = Status(vec![("ipsec", InstanceId(3), false)]);
        assert!(matches!(
            decide(&row("ipsec"), Some("native"), &busy),
            Err(ComputeError::NnfBusy(_))
        ));
        // Unknown flavor string.
        assert!(matches!(
            decide(&row("ipsec"), Some("unikernel"), &none),
            Err(ComputeError::Unsupported(_))
        ));
        // DPDK NF has no native/docker; hint-free deploy picks DPDK.
        let d = decide(&row("l2fwd-fast"), None, &none).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Dpdk),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_native_in_catalog_falls_back() {
        let ipsec = row("ipsec");
        let vnf_only = NfType {
            flavors: ipsec.flavors[1..].to_vec(),
            ..ipsec
        };
        assert!(vnf_only.spec_for(Flavor::Native).is_none());
        let d = decide(&vnf_only, None, &Status(vec![])).unwrap();
        match d {
            Decision::Vnf(spec) => assert_eq!(spec.flavor(), Flavor::Docker),
            other => panic!("{other:?}"),
        }
    }
}
