//! ESP tunnel-mode encapsulation/decapsulation benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::Ipv4Addr;
use un_ipsec::sa::SecurityAssociation;

fn sa_pair() -> (SecurityAssociation, SecurityAssociation) {
    let key = [0x42u8; 32];
    let salt = [1, 2, 3, 4];
    let a = Ipv4Addr::new(192, 0, 2, 1);
    let b = Ipv4Addr::new(203, 0, 113, 7);
    (
        SecurityAssociation::outbound(0x100, a, b, key, salt),
        SecurityAssociation::inbound(0x100, a, b, key, salt),
    )
}

fn encap(c: &mut Criterion) {
    let mut group = c.benchmark_group("esp_encapsulate");
    for size in [64usize, 576, 1400] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let (mut tx, _) = sa_pair();
            let inner = vec![0xEEu8; size];
            b.iter(|| std::hint::black_box(un_ipsec::encapsulate(&mut tx, &inner).unwrap()));
        });
    }
    group.finish();
}

fn decap(c: &mut Criterion) {
    use criterion::BatchSize;
    let mut group = c.benchmark_group("esp_decapsulate");
    for size in [64usize, 1400] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let (mut tx, _) = sa_pair();
            let inner = vec![0xEEu8; size];
            let wire = un_ipsec::encapsulate(&mut tx, &inner).unwrap();
            // A fresh inbound SA per iteration so the replay window never
            // rejects; SA construction is trivially cheap next to AEAD.
            b.iter_batched(
                || sa_pair().1,
                |mut rx| std::hint::black_box(un_ipsec::decapsulate(&mut rx, &wire).unwrap()),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// A protected overlay link's crossing: 174-byte frames — the size
/// `split_esp` seals — in bursts of 1, 16 and 256, sealed and opened
/// through the burst functions the overlay wire uses.
fn burst(c: &mut Criterion) {
    use criterion::BatchSize;
    use un_ipsec::esp::{decapsulate_burst, encapsulate_burst};
    const FRAME: usize = 174;
    let mut group = c.benchmark_group("esp_burst_174");
    for frames in [1usize, 16, 256] {
        let inners = vec![vec![0xEEu8; FRAME]; frames];
        group.throughput(Throughput::Bytes((FRAME * frames) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("seal/{frames}")),
            &frames,
            |b, _| {
                let (mut tx, _) = sa_pair();
                b.iter(|| {
                    let burst = inners.iter().map(Vec::as_slice);
                    encapsulate_burst(&mut tx, burst, 0, |v| {
                        std::hint::black_box(v.unwrap());
                    });
                });
            },
        );
        let (mut tx, _) = sa_pair();
        let wire: Vec<Vec<u8>> = inners
            .iter()
            .map(|inner| un_ipsec::encapsulate(&mut tx, inner).unwrap())
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("open/{frames}")),
            &frames,
            |b, _| {
                // A fresh inbound SA per iteration, as in `esp_decapsulate`.
                b.iter_batched(
                    || sa_pair().1,
                    |mut rx| {
                        let burst = wire.iter().map(Vec::as_slice);
                        decapsulate_burst(&mut rx, burst, 0, |v| {
                            std::hint::black_box(v.unwrap());
                        });
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn handshake(c: &mut Criterion) {
    c.bench_function("ike_lite_handshake", |b| {
        let mut rng = un_sim::DetRng::new(1);
        let cfg_i = un_ipsec::IkeConfig {
            psk: b"benchmark-psk".to_vec(),
            local_id: "cpe".into(),
            local_addr: Ipv4Addr::new(192, 0, 2, 1),
            peer_addr: Ipv4Addr::new(192, 0, 2, 2),
        };
        let cfg_r = un_ipsec::IkeConfig {
            psk: b"benchmark-psk".to_vec(),
            local_id: "gw".into(),
            local_addr: Ipv4Addr::new(192, 0, 2, 2),
            peer_addr: Ipv4Addr::new(192, 0, 2, 1),
        };
        b.iter(|| {
            let mut init = un_ipsec::IkeInitiator::new(cfg_i.clone(), &mut rng);
            let mut resp = un_ipsec::IkeResponder::new(cfg_r.clone());
            let m1 = init.initial_message();
            let (m2, _sas, _id) = resp.handle_initial(&m1, &mut rng).unwrap();
            std::hint::black_box(init.handle_response(&m2).unwrap());
        });
    });
}

criterion_group!(benches, encap, decap, burst, handshake);
criterion_main!(benches);
