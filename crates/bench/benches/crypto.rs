//! Criterion microbenchmarks of the crypto substrate.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use sim_crypto::schnorr::{Keypair, PrivateKey};
use sim_crypto::sha256;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [64usize, 1_024, 16_384] {
        let data = vec![0xA5u8; size];
        group.bench_function(format!("{size}B"), |b| b.iter(|| sha256(&data)));
    }
    group.finish();
}

fn bench_sign_verify(c: &mut Criterion) {
    let keypair = Keypair::from_seed(1);
    let message = b"guest block 42";
    // Key derivation is one fixed-base power of the generator and nothing else.
    let private = PrivateKey::from_seed(1);
    c.bench_function("crypto/public", |b| b.iter(|| black_box(&private).public()));
    c.bench_function("crypto/sign", |b| b.iter(|| keypair.sign(message)));
    let signature = keypair.sign(message);
    c.bench_function("crypto/verify", |b| {
        b.iter(|| assert!(keypair.public().verify(message, &signature)));
    });
}

criterion_group!(benches, bench_sha256, bench_sign_verify);
criterion_main!(benches);
