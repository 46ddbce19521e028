//! What a ghost probe freezes, and what it does not.
//!
//! `Domain::trace_frame` walks a synthetic frame through the genuine
//! pipeline with every orchestrator book frozen: the conservation
//! ledger, LSI statistics, node and domain trace counters and the
//! `/metrics` exposition all read the same afterwards. The NFs it
//! crosses are the real implementation, though, so a probe through a
//! native IPsec NNF seals the frame with the live SA: the SA's
//! sequence number, the namespace's XFRM counters and the host's trace
//! counters move exactly as for a real frame. (Only a model of the NF,
//! ROADMAP item 2's `NfModel`, could let a probe stop touching it.)

use un_bench::{build_ipsec_node, lan_spec};
use un_core::UniversalNode;
use un_domain::{Domain, DomainConfig};
use un_rest::render;

/// Everything the orchestrator books about traffic, by name, as
/// comparable text.
fn books(d: &Domain) -> Vec<(&'static str, String)> {
    let node = d.node("cpe").expect("cpe joined");
    let lsi_stats = node
        .lsis()
        .map(|(_, lsi)| ("lsi stats", format!("{:?}", lsi.stats)));
    [
        ("conservation", format!("{:?}", d.conservation_report())),
        ("domain ledger", format!("{:?}", d.frame_ledger())),
        ("node ledger", format!("{:?}", node.frame_ledger())),
        (
            "domain trace",
            format!("{:?}", d.trace.counters().collect::<Vec<_>>()),
        ),
        (
            "node trace",
            format!("{:?}", node.trace.counters().collect::<Vec<_>>()),
        ),
        ("/metrics", render::metrics(d)),
    ]
    .into_iter()
    .chain(lsi_stats)
    .collect()
}

/// What the IPsec NNF's own state says about traffic: host trace
/// counters, the namespace's XFRM encapsulations, and the sum of its
/// outbound SA sequence numbers.
fn nf_state(node: &UniversalNode) -> (u64, u64, u64) {
    let (instance, _) = node.instance_of("g-ipsec", "ipsec").expect("placed");
    let ns = node.compute.namespace_of(instance).expect("native NNF");
    let xfrm = &node.host.namespace(ns).expect("namespace").xfrm;
    let seq: u64 = xfrm.sad.iter().map(|sa| u64::from(sa.seq_out)).sum();
    (node.host.trace.counter("xfrm_encap"), xfrm.encap_count, seq)
}

#[test]
fn a_ghost_probe_freezes_the_books_but_not_the_nf_it_crosses() {
    let (node, _) = build_ipsec_node("native");
    let spec = lan_spec(&node);
    let mut d = Domain::new(DomainConfig {
        observability: true,
        ..DomainConfig::default()
    });
    d.add_node(node);
    // Real traffic first, so every book has something to keep still.
    for seq in 1..=3 {
        let io = d.inject("cpe", "eth0", spec.frame(256, seq));
        assert_eq!(io.emitted.len(), 1);
    }

    let (books_before, nf_before) = (books(&d), nf_state(d.node("cpe").unwrap()));
    let trace = d.trace_frame("cpe", "eth0", spec.frame(256, 0));
    assert!(trace.ghost);
    assert_eq!(trace.egress_count(), 1, "{}", trace.render());
    // A probe that dies in the node fabric books no drop either.
    let trace = d.trace_frame("cpe", "eth9", spec.frame(256, 0));
    assert_eq!(trace.drops().len(), 1, "{}", trace.render());

    assert_eq!(books(&d), books_before, "a ghost probe moved a book");
    let (host_encaps, xfrm_encaps, seq) = nf_before;
    assert_eq!(
        nf_state(d.node("cpe").unwrap()),
        (host_encaps + 1, xfrm_encaps + 1, seq + 1),
        "the probe was sealed by the live SA"
    );

    // The same two frames sent for real move every book but the domain
    // trace, which counts only overlay crossings.
    d.inject("cpe", "eth0", spec.frame(256, 0));
    d.inject("cpe", "eth9", spec.frame(256, 0));
    for ((name, was), (_, now)) in books_before.iter().zip(books(&d)) {
        if *name != "domain trace" {
            assert_ne!(*was, now, "the {name} does not see real traffic");
        }
    }
}
