//! Per-step policy cost: the score function (Figure 10's Gumbel-softmax overhead,
//! Table 4's adjustment ablation), a prompt chunk's observation replay on one
//! and two workers, and the eviction selection itself (Table 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_bench::{observation, synthetic_logits};
use keyformer_core::accumulator::ScoreScope;
use keyformer_core::adjustment::LogitAdjustment;
use keyformer_core::budget::CacheBudget;
use keyformer_core::observation::{ObservationRows, Phase};
use keyformer_core::policies::scored::{KeyformerConfig, ScoredPolicy};
use keyformer_core::policy::KvCachePolicy;
use keyformer_core::spec::PolicySpec;
use keyformer_core::temperature::TemperatureSchedule;
use std::hint::black_box;
use std::time::Duration;

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

/// Figure 10 / Table 4: cost of one score-function update per logit-adjustment
/// distribution.
fn bench_score_function(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_function");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let logits = synthetic_logits(2048, 7);
    for adjustment in [
        LogitAdjustment::None,
        LogitAdjustment::paper_constant(),
        LogitAdjustment::paper_gaussian(),
        LogitAdjustment::Gumbel,
    ] {
        let mut policy = ScoredPolicy::keyformer(
            KeyformerConfig::default()
                .with_adjustment(adjustment)
                .with_temperature(TemperatureSchedule::default())
                .with_scope(ScoreScope::PerLayer),
        );
        group.bench_with_input(
            BenchmarkId::new("observe", adjustment.label()),
            &logits,
            |b, logits| {
                b.iter(|| policy.observe(black_box(&observation(logits))));
            },
        );
    }
    group.finish();
}

/// The observation replay of one prefill chunk, in isolation: 128 tokens x 4
/// layers x 4 heads behind 860 cached slots (token `t` sees `861 + t`), Gumbel
/// Keyformer, on one worker and split by layer over two.
fn bench_observe_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("observe_rows");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let (tokens, layers, heads, pre) = (128, 4, 4, 860);
    let data = synthetic_logits(pre + tokens, 5);
    let index: Vec<(usize, usize)> = (0..tokens)
        .flat_map(|t| std::iter::repeat_n((0, pre + t + 1), layers * heads))
        .collect();
    let rows = ObservationRows {
        phase: Phase::Prompt,
        first_step: pre,
        total_steps: 64,
        num_layers: layers,
        num_heads: heads,
        index: &index,
        data: &data,
    };
    for workers in [1, 2] {
        let mut policy = ScoredPolicy::keyformer(KeyformerConfig::default());
        group.bench_function(BenchmarkId::from_parameter(workers), |b| {
            b.iter(|| policy.observe_rows(black_box(&rows), workers));
        });
    }
    group.finish();
}

/// Table 3 ablation / per-step eviction cost of every policy against a 1024-slot
/// budget: the prompt-end cut of a 2048-slot cache (`select_retained`) and a
/// decode step at budget, 1025 slots down to 1024 (`select_retained_decode`).
/// Both select into one reused buffer, as a session does.
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let budget = CacheBudget::new(1024, 307);
    let logits = synthetic_logits(2048, 11);
    for (name, live) in [
        ("select_retained", 2048usize),
        ("select_retained_decode", 1025),
    ] {
        for spec in [
            PolicySpec::Window,
            PolicySpec::streaming_default(),
            PolicySpec::h2o_default(),
            PolicySpec::keyformer_default(),
        ] {
            let mut policy = spec.build().expect("valid spec");
            // Populate accumulated scores before measuring selection.
            policy.observe(&observation(&logits[..live]));
            let mut out = Vec::new();
            group.bench_function(BenchmarkId::new(name, spec.label()), |b| {
                b.iter(|| {
                    policy.select_retained_into(0, live, &budget, &mut out);
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    let c = configure(c);
    bench_score_function(c);
    bench_observe_rows(c);
    bench_selection(c);
}

criterion_group!(policy_overhead, benches);
criterion_main!(policy_overhead);
