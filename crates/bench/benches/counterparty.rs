//! Criterion microbenchmarks of the counterparty chain's commit path:
//! producing a block (which records who voted and signs nothing), the
//! first read of a header (which signs it) and a repeated read (a copy of
//! the memoised commit).

use counterparty_sim::{CounterpartyChain, CounterpartyConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// The paper's counterparty: 124 validators, ≈ 105 of them in a commit.
fn chain_with_blocks(blocks: u64) -> CounterpartyChain {
    let mut chain = CounterpartyChain::new(CounterpartyConfig::default(), 7);
    for i in 1..=blocks {
        chain.produce_block(i * 6_000);
    }
    chain
}

fn bench_commit_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("counterparty");
    let mut chain = chain_with_blocks(0);
    let mut now = 0;
    group.bench_function("produce_block/124", |b| {
        b.iter(|| {
            now += 6_000;
            chain.produce_block(now).height
        })
    });
    group.bench_function("header_first_read/124", |b| {
        b.iter_batched(
            || chain_with_blocks(1),
            // The chain goes back out so its drop is not timed.
            |chain| (chain.latest_header(), chain),
            BatchSize::SmallInput,
        )
    });
    let chain = chain_with_blocks(1);
    chain.latest_header();
    group.bench_function("header_cached_read", |b| b.iter(|| chain.latest_header()));
    group.finish();
}

criterion_group!(benches, bench_commit_path);
criterion_main!(benches);
