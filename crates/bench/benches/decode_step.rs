//! Decode-path benchmarks on the substrate transformer: per-request latency under
//! each cache policy (Figure 9 / Table 1 shape) and the effect of the cache budget
//! on a single request (Figure 1 shape, measured rather than modelled).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_bench::bench_samples;
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::session::Session;
use std::hint::black_box;
use std::time::Duration;

/// Figure 9 / Table 1: end-to-end request latency per policy at a 50% budget.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let model = ModelFamily::MptLike.build(3);
    let sample = bench_samples(1).remove(0);
    let config = GenerationConfig::new(sample.reference.len());
    for (label, policy, budget) in [
        ("full", PolicySpec::Full, None),
        (
            "h2o_50pct",
            PolicySpec::h2o_default(),
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid")),
        ),
        (
            "keyformer_50pct",
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid")),
        ),
        (
            "window_50pct",
            PolicySpec::Window,
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid")),
        ),
    ] {
        group.bench_function(BenchmarkId::new("generate", label), |b| {
            b.iter(|| {
                let mut session = Session::new(&model, policy.build().expect("valid"), budget);
                black_box(session.generate(black_box(&sample.prompt), &config))
            });
        });
    }
    group.finish();
}

/// Figure 1 shape: request latency as the prompt grows, full attention vs. Keyformer.
fn bench_prompt_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention_step");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let model = ModelFamily::GptJLike.build(3);
    for prompt_len in [128usize, 256, 512] {
        let prompt: Vec<u32> = (0..prompt_len).map(|i| 16 + (i % 900) as u32).collect();
        let config = GenerationConfig::new(8);
        for (label, budget) in [
            ("full", None),
            (
                "keyformer_50pct",
                Some(CacheBudgetSpec::with_fraction(0.5).expect("valid")),
            ),
        ] {
            let policy = if budget.is_some() {
                PolicySpec::keyformer_default()
            } else {
                PolicySpec::Full
            };
            group.bench_with_input(BenchmarkId::new(label, prompt_len), &prompt, |b, prompt| {
                b.iter(|| {
                    let mut session = Session::new(&model, policy.build().expect("valid"), budget);
                    black_box(session.generate(black_box(prompt), &config))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(decode_step, bench_end_to_end, bench_prompt_scaling);
criterion_main!(decode_step);
