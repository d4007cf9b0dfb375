//! Block-allocator benchmark: the paged KV cache's overhead on the decode hot
//! path.
//!
//! Maps to the paging experiment (`kf_experiments paging`): the `block_pool`
//! group prices the raw allocator (alloc + refcounted release), and the
//! `decode_block_churn` group prices the worst-case per-token pattern a
//! budgeted decode produces — append one slot (sometimes allocating a block),
//! then compact one slot away (sometimes releasing a block) — across block
//! sizes. Smaller blocks churn the allocator more often; this bench is the
//! evidence the per-operation cost stays negligible next to a forward pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_core::block::{BlockPool, OvercommitPolicy, SharedBlockPool};
use keyformer_core::cache::LayerKvCache;

fn pool_alloc_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_pool");
    group.bench_function("alloc_release_64", |b| {
        let mut pool = BlockPool::bounded(16, 64, OvercommitPolicy::Strict).expect("valid pool");
        b.iter(|| {
            let ids: Vec<_> = (0..64).map(|_| pool.alloc().expect("capacity")).collect();
            for id in ids {
                pool.release(id).expect("allocated above");
            }
            pool.blocks_in_use()
        });
    });
    group.bench_function("reserve_unreserve", |b| {
        let mut pool = BlockPool::bounded(16, 1024, OvercommitPolicy::Strict).expect("valid pool");
        b.iter(|| {
            for _ in 0..64 {
                assert!(pool.try_reserve(8));
            }
            for _ in 0..64 {
                pool.unreserve(8);
            }
            pool.blocks_reserved()
        });
    });
    group.finish();
}

/// Steady-state decode step on a budgeted layer (GPT-J-like head shape:
/// 4 heads x 64 dims): append one token, evict the oldest slot.
fn decode_block_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_block_churn");
    for &block_size in &[4usize, 8, 16, 32] {
        group.bench_with_input(
            BenchmarkId::new("append_evict", block_size),
            &block_size,
            |b, &block_size| {
                let pool = SharedBlockPool::unbounded(block_size);
                let mut layer = LayerKvCache::with_pool(4, 64, pool);
                let keys: Vec<f32> = (0..4 * 64).map(|c| (c / 64) as f32).collect();
                let values = keys.clone();
                for i in 0..32 {
                    layer
                        .append_from_slices(i, &keys, &values)
                        .expect("unbounded pool");
                }
                // Sliding-window shape: drop slot 0, keep the 32 newest.
                let retained: Vec<usize> = (1..=32).collect();
                let mut position = 32;
                b.iter(|| {
                    layer
                        .append_from_slices(position, &keys, &values)
                        .expect("unbounded");
                    position += 1;
                    layer.retain_slots(&retained).expect("valid selection");
                    layer.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(block_pool, pool_alloc_release, decode_block_churn);
criterion_main!(block_pool);
