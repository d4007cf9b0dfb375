//! Forward hot-path microbenchmark of the zero-allocation product forward.
//!
//! `forward_path` times a full request (prompt + decode) on each positional
//! family, where the cached RoPE key rotations and the chunk GEMMs show up end
//! to end. A decode step alone is timed by the `kf_bench` benchmark's
//! `model.decode_step_us` probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

criterion_group!(attention_hotpath, bench_forward_path);
criterion_main!(attention_hotpath);
