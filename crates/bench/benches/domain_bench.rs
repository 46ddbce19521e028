//! Domain-orchestrator benchmarks: fleet placement at 10/100/1000
//! nodes, graph partitioning, and the full cross-node deploy cycle.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use un_core::UniversalNode;
use un_domain::{assign, assign_endpoints, partition, Domain, NodeView, PlacementStrategy};
use un_nffg::NfFgBuilder;
use un_sim::mem::mb;

fn fleet_views(n: usize) -> Vec<NodeView<'static>> {
    (0..n)
        .map(|i| NodeView {
            name: format!("node{i:04}"),
            // Heterogeneous free memory so bin-packing has real work.
            free_memory: mb(512 + (i as u64 * 37) % 3584),
            capacity: mb(4096),
            native_types: ["ipsec", "firewall", "nat", "bridge", "router"].into(),
            shared_running: if i % 7 == 0 {
                ["nat"].into()
            } else {
                Default::default()
            },
            sharable_types: ["nat"].into(),
            ports: ["eth0", "eth1"].into(),
        })
        .collect()
}

fn chain_graph(nfs: usize) -> un_nffg::NfFg {
    let ids: Vec<String> = (0..nfs).map(|i| format!("nf{i}")).collect();
    let mut b = NfFgBuilder::new("g", "bench")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1");
    for (i, id) in ids.iter().enumerate() {
        b = b.nf(id, ["firewall", "nat", "bridge"][i % 3], 2);
    }
    let refs: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    b.chain("lan", &refs, "wan").build()
}

fn placement_scaling(c: &mut Criterion) {
    let graph = chain_graph(10);
    let estimates: BTreeMap<String, u64> = graph
        .nfs
        .iter()
        .map(|nf| (nf.id.clone(), mb(128)))
        .collect();
    let mut group = c.benchmark_group("domain_placement_10nf");
    for fleet in [10usize, 100, 1000] {
        let views = fleet_views(fleet);
        let eps = assign_endpoints(&graph, &views, &BTreeMap::new(), None).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(fleet), &fleet, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    assign(
                        &graph,
                        &views,
                        &estimates,
                        &eps,
                        &BTreeMap::new(),
                        &BTreeMap::new(),
                        PlacementStrategy::Pack,
                        None,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn partition_cost(c: &mut Criterion) {
    let graph = chain_graph(10);
    let views = fleet_views(4);
    let eps = assign_endpoints(&graph, &views, &BTreeMap::new(), None).unwrap();
    let estimates: BTreeMap<String, u64> = graph
        .nfs
        .iter()
        .map(|nf| (nf.id.clone(), mb(128)))
        .collect();
    let assignment = assign(
        &graph,
        &views,
        &estimates,
        &eps,
        &BTreeMap::new(),
        &BTreeMap::new(),
        PlacementStrategy::Spread,
        None,
    )
    .unwrap();
    c.bench_function("domain_partition_10nf_4nodes", |b| {
        b.iter(|| {
            let mut next = 3000u16;
            let mut alloc = |_: &str, _: &str, _: &un_nffg::PortRef| {
                let v = next;
                next += 1;
                Some(v)
            };
            std::hint::black_box(partition(&graph, &assignment, &eps, "fab0", &mut alloc).unwrap())
        })
    });
}

fn cross_node_deploy_cycle(c: &mut Criterion) {
    c.bench_function("domain_deploy_undeploy_2node_split", |b| {
        let mut domain = Domain::with_defaults();
        let mut n1 = UniversalNode::new("n1", mb(4096));
        n1.add_physical_port("eth0");
        let mut n2 = UniversalNode::new("n2", mb(4096));
        n2.add_physical_port("eth1");
        domain.add_node(n1);
        domain.add_node(n2);
        let g = NfFgBuilder::new("g", "split")
            .interface_endpoint("lan", "eth0")
            .interface_endpoint("wan", "eth1")
            .nf("br1", "bridge", 2)
            .nf("br2", "bridge", 2)
            .chain("lan", &["br1", "br2"], "wan")
            .build();
        let hints = un_domain::DeployHints {
            nf_node: [
                ("br1".to_string(), "n1".to_string()),
                ("br2".to_string(), "n2".to_string()),
            ]
            .into(),
            ..Default::default()
        };
        b.iter(|| {
            domain.deploy_with(&g, &hints).unwrap();
            domain.undeploy("g").unwrap();
        });
    });
}

criterion_group!(
    benches,
    placement_scaling,
    partition_cost,
    cross_node_deploy_cycle
);
criterion_main!(benches);
