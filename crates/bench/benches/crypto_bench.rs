//! Real-time micro-benchmarks of the from-scratch crypto primitives.
//!
//! These measure genuine wall-clock throughput of the `un-crypto`
//! implementations (unlike the Table 1 harness, which reports
//! virtual-time Mbps from the cost model).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn aead_seal(c: &mut Criterion) {
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut group = c.benchmark_group("chacha20poly1305_seal");
    for size in [64usize, 512, 1500] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut buf = vec![0xABu8; size];
            b.iter(|| {
                let tag = un_crypto::seal(&key, &nonce, b"aad", &mut buf);
                std::hint::black_box(tag);
            });
        });
    }
    group.finish();
}

fn aead_open(c: &mut Criterion) {
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut group = c.benchmark_group("chacha20poly1305_open");
    for size in [64usize, 1500] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut sealed = vec![0xABu8; size];
            let tag = un_crypto::seal(&key, &nonce, b"aad", &mut sealed);
            b.iter(|| {
                let mut ct = sealed.clone();
                un_crypto::open(&key, &nonce, b"aad", &mut ct, &tag).unwrap();
                std::hint::black_box(ct);
            });
        });
    }
    group.finish();
}

/// The MAC alone, from a short frame up to the ESP payload of a
/// 1500-byte frame.
fn poly1305_mac(c: &mut Criterion) {
    let key = [7u8; 32];
    let mut group = c.benchmark_group("poly1305_mac");
    for size in [64usize, 176, 1464] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let data = vec![0xABu8; size];
            b.iter(|| std::hint::black_box(un_crypto::Poly1305::mac(&key, &data)));
        });
    }
    group.finish();
}

/// The cipher alone over the same lengths, so that a seal's cost splits
/// into its cipher and its MAC.
fn chacha20_keystream(c: &mut Criterion) {
    let cipher = un_crypto::ChaCha20::new(&[7u8; 32], &[9u8; 12]);
    let mut group = c.benchmark_group("chacha20_keystream");
    for size in [176usize, 1464] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let mut buf = vec![0xABu8; size];
            b.iter(|| {
                cipher.apply_keystream(1, &mut buf);
                std::hint::black_box(&buf);
            });
        });
    }
    group.finish();
}

fn sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1500] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let data = vec![0x5Au8; size];
            b.iter(|| std::hint::black_box(un_crypto::Sha256::digest(&data)));
        });
    }
    group.finish();
}

fn hmac(c: &mut Criterion) {
    c.bench_function("hmac_sha256_64B", |b| {
        let data = [0x5Au8; 64];
        b.iter(|| std::hint::black_box(un_crypto::hmac_sha256(b"key", &data)));
    });
}

criterion_group!(
    benches,
    aead_seal,
    aead_open,
    poly1305_mac,
    chacha20_keystream,
    sha256,
    hmac
);
criterion_main!(benches);
