//! Forward hot-path microbenchmarks of the zero-allocation product forward.
//!
//! Two granularities. `forward_path` times a full request (prompt + decode)
//! on each positional family, where the cached RoPE key rotations and the
//! chunk GEMMs show up end to end. `decode_tail` isolates steady-state decode
//! by timing only the generated-token steps after a fixed prompt — the regime
//! the zero-allocation claim is about — once with the full cache and once
//! with Keyformer at a 50 % budget, where every step evicts one key: the
//! difference between the two is the eviction tax in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::session::Session;
use std::hint::black_box;
use std::time::Duration;

const PROMPT_LEN: usize = 64;
const GEN_TOKENS: usize = 64;

fn prompt(vocab: usize) -> Vec<u32> {
    (0..PROMPT_LEN)
        .map(|t| ((t * 17 + 3) % vocab) as u32)
        .collect()
}

/// Full request latency across the positional families.
fn bench_forward_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_path");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let config = GenerationConfig::new(GEN_TOKENS);
    for family in [
        ModelFamily::GptJLike,
        ModelFamily::CerebrasLike,
        ModelFamily::MptLike,
    ] {
        let model = family.build(3);
        let prompt = prompt(model.config().vocab_size);
        group.bench_with_input(
            BenchmarkId::new("workspace", format!("{family:?}")),
            &prompt,
            |b, prompt| {
                b.iter(|| {
                    let policy = PolicySpec::Full.build().expect("valid");
                    let mut session = Session::new(&model, policy, None);
                    black_box(session.generate(black_box(prompt), &config))
                });
            },
        );
    }
    group.finish();
}

/// Steady-state decode: prompt processed outside the timed region, only the
/// generated-token steps are measured. The `keyformer50` cases decode *at
/// budget*: the prompt-end cut leaves the cache exactly full, so each timed
/// step pays select → compact → rotated-row hand-off for one evicted key.
fn bench_decode_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_tail");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let model = ModelFamily::GptJLike.build(3);
    let prompt = prompt(model.config().vocab_size);
    let config = GenerationConfig::new(GEN_TOKENS);
    let half = CacheBudgetSpec::with_fraction(0.5).expect("valid fraction");
    for (case, spec, budget) in [
        ("gptj_full", PolicySpec::Full, None),
        (
            "gptj_keyformer50",
            PolicySpec::keyformer_default(),
            Some(half),
        ),
    ] {
        // Prefill once into a template session; each iteration forks it (a
        // cheap copy-on-write block attach) and times only the decode steps.
        let policy = spec.build().expect("valid");
        let mut template = Session::new(&model, policy, budget);
        template.begin(&prompt, &config).expect("prompt admits");
        while template.is_prefilling() {
            template.advance_prefill().expect("prefill advances");
        }
        group.bench_function(BenchmarkId::new(case, "workspace"), |b| {
            b.iter(|| {
                let mut session = template.fork().expect("fork");
                while session.is_decoding() {
                    session.step().expect("decode step");
                }
                black_box(session.take_output())
            });
        });
    }
    group.finish();
}

criterion_group!(attention_hotpath, bench_forward_path, bench_decode_tail);
criterion_main!(attention_hotpath);
