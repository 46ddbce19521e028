//! LSI benchmarks: flow lookup fast and slow path, and VLAN tag ops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::net::Ipv4Addr;
use un_packet::ethernet::MacAddr;
use un_packet::{Ipv4Cidr, PacketBuilder};
use un_sim::CostModel;
use un_switch::{Backend, FlowAction, FlowEntry, FlowMatch, LogicalSwitch, PortNo};

fn packet(dport: u16) -> un_packet::Packet {
    PacketBuilder::new()
        .ethernet(MacAddr::local(1), MacAddr::local(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .udp(5001, dport)
        .payload(&[0u8; 64])
        .build()
}

fn lsi_with_rules(n_rules: u16) -> LogicalSwitch {
    let mut sw = LogicalSwitch::new("bench", 1, Backend::SingleTableCached);
    sw.add_port(PortNo(1), "in").unwrap();
    sw.add_port(PortNo(2), "out").unwrap();
    for i in 0..n_rules {
        let mut m = FlowMatch::in_port(PortNo(1));
        m.l4_dst = Some(10_000 + i);
        m.ip_dst = Some(Ipv4Cidr::new(Ipv4Addr::new(10, 0, 0, 2), 32));
        sw.install(
            0,
            FlowEntry::new(100, m, vec![FlowAction::Output(PortNo(2))]),
        )
        .unwrap();
    }
    // Catch-all at the bottom.
    sw.install(
        0,
        FlowEntry::new(
            1,
            FlowMatch::in_port(PortNo(1)),
            vec![FlowAction::Output(PortNo(2))],
        ),
    )
    .unwrap();
    sw
}

/// Same 5-tuple every time: after the first packet the microflow cache
/// serves every lookup.
fn cached_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsi_cached_lookup");
    for rules in [10u16, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, &rules| {
            let mut sw = lsi_with_rules(rules);
            let costs = CostModel::default();
            let pkt = packet(10_005);
            b.iter(|| std::hint::black_box(sw.process(PortNo(1), pkt.clone(), &costs)));
        });
    }
    group.finish();
}

/// A different 5-tuple every packet: every lookup walks the table.
fn uncached_slow_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsi_uncached_lookup");
    for rules in [10u16, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, &rules| {
            let mut sw = lsi_with_rules(rules);
            let costs = CostModel::default();
            let mut port = 0u16;
            b.iter(|| {
                port = port.wrapping_add(1);
                std::hint::black_box(sw.process(PortNo(1), packet(port), &costs))
            });
        });
    }
    group.finish();
}

fn vlan_ops(c: &mut Criterion) {
    c.bench_function("vlan_push_pop", |b| {
        let pkt = packet(80);
        b.iter(|| {
            let mut p = pkt.clone();
            p.vlan_push(100).unwrap();
            std::hint::black_box(p.vlan_pop().unwrap())
        });
    });
}

criterion_group!(benches, cached_fast_path, uncached_slow_path, vlan_ops);
criterion_main!(benches);
