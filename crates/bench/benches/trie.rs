//! Criterion microbenchmarks of the sealable trie (§III-A), including the
//! seal-vs-no-seal ablation on write throughput and the proof-at-height
//! history.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sealable_trie::Trie;

fn populated(n: u64) -> Trie {
    let mut trie = Trie::new();
    for i in 0..n {
        trie.insert(&i.to_be_bytes(), &[0xAB; 32]).unwrap();
    }
    trie
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie/insert");
    for size in [100u64, 1_000, 10_000] {
        group.bench_function(format!("into_{size}"), |b| {
            b.iter_batched(
                || populated(size),
                |mut trie| {
                    trie.insert(&u64::MAX.to_be_bytes(), &[1; 32]).unwrap();
                    trie // return so the drop is not measured
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let trie = populated(10_000);
    c.bench_function("trie/get_of_10k", |b| {
        b.iter(|| trie.get(&5_000u64.to_be_bytes()).unwrap());
    });
}

fn bench_prove_and_verify(c: &mut Criterion) {
    let trie = populated(10_000);
    let root = trie.root_hash();
    let key = 5_000u64.to_be_bytes();
    c.bench_function("trie/prove_of_10k", |b| {
        b.iter(|| trie.prove(&key).unwrap());
    });
    let proof = trie.prove(&key).unwrap();
    c.bench_function("trie/verify_member", |b| {
        b.iter(|| assert!(proof.verify_member(&root, &key, &[0xAB; 32])));
    });
    let absent_proof = trie.prove(&999_999u64.to_be_bytes()).unwrap();
    c.bench_function("trie/verify_non_member", |b| {
        b.iter(|| assert!(absent_proof.verify_non_member(&root, &999_999u64.to_be_bytes())));
    });
}

fn bench_seal(c: &mut Criterion) {
    c.bench_function("trie/seal_one_of_1k", |b| {
        b.iter_batched(
            || populated(1_000),
            |mut trie| {
                trie.seal(&500u64.to_be_bytes()).unwrap();
                trie
            },
            BatchSize::SmallInput,
        );
    });
    // Ablation: the cost of the insert+seal receipt pattern vs plain insert.
    let mut group = c.benchmark_group("trie/receipt_pattern");
    group.bench_function("insert_only_x256", |b| {
        b.iter_batched(
            Trie::new,
            |mut trie| {
                for seq in 0..256u64 {
                    trie.insert(&seq.to_be_bytes(), &[7; 32]).unwrap();
                }
                trie
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("insert_and_seal_x256", |b| {
        b.iter_batched(
            Trie::new,
            |mut trie| {
                for seq in 0..256u64 {
                    trie.insert(&seq.to_be_bytes(), &[7; 32]).unwrap();
                    trie.seal(&seq.to_be_bytes()).unwrap();
                }
                trie
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// One block of a busy chain: checkpoint, then 16 overwrites spread over
/// the key space. Returns the next height.
fn block(trie: &mut Trie, height: u64, size: u64) -> u64 {
    trie.checkpoint(height, 32);
    for i in 0..16 {
        let key = (height * 16 + i).wrapping_mul(0x9E37_79B9) % size;
        trie.insert(&key.to_be_bytes(), &height.to_be_bytes()).unwrap();
    }
    height + 1
}

fn bench_history(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie/history");
    // Proof-at-height costs what a block writes, not what the state
    // holds: ten times the state may add one trie level to each write's
    // path, never ten times the time.
    for size in [10_000u64, 100_000] {
        let (mut trie, mut height) = (populated(size), 1);
        group.bench_function(format!("checkpoint_and_16_writes_on_{size}"), |b| {
            b.iter(|| height = block(&mut trie, height, size));
        });
    }
    let (mut trie, mut height) = (populated(10_000), 1);
    while height <= 32 {
        height = block(&mut trie, height, 10_000);
    }
    let key = 5_000u64.to_be_bytes();
    for (name, at) in [("newest", 32), ("oldest", 1)] {
        group.bench_function(format!("prove_at_{name}_of_32"), |b| {
            b.iter(|| trie.prove_at(at, &key).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_get,
    bench_prove_and_verify,
    bench_seal,
    bench_history
);
criterion_main!(benches);
