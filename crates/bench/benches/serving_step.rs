//! Serving-layer benchmark: cost of one batched scheduler step and of draining a
//! whole request burst, versus batch size and cache policy.
//!
//! Maps to the serving-throughput experiment (`kf_experiments serve_throughput`):
//! the `step` group measures the per-iteration scheduler cost the continuous
//! batcher adds on top of the raw decode forwards, and the `burst` group measures
//! end-to-end wall time for a fixed oversubscribed workload per policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_serve::{Engine, Request, ServerConfig};

const PROMPT_LEN: usize = 32;
const GEN_TOKENS: usize = 6;

fn request(i: u64) -> Request {
    let prompt: Vec<u32> = (0..PROMPT_LEN)
        .map(|t| (t as u32 * 11 + 3 + i as u32 * 29) % 120)
        .collect();
    Request::new(i, prompt, GenerationConfig::new(GEN_TOKENS))
}

fn server_with_batch(model: &TransformerModel, batch: usize) -> Engine<'_> {
    let bytes = model.empty_cache().bytes_per_token();
    // Pool sized to hold exactly `batch` budgeted sessions at steady state.
    let capacity = CacheBudgetSpec::with_fraction(0.5)
        .expect("valid fraction")
        .for_prompt_len(PROMPT_LEN)
        .capacity();
    let config = ServerConfig::new(
        PolicySpec::keyformer_default(),
        Some(CacheBudgetSpec::with_fraction(0.5).expect("valid fraction")),
        batch * capacity * bytes,
    )
    .with_prefills_per_step(batch);
    batch_engine(model, config)
}

/// An engine for a driver that never drains events, so recording is off.
fn batch_engine(model: &TransformerModel, config: ServerConfig) -> Engine<'_> {
    let mut engine = Engine::new(model, config).expect("valid serving config");
    engine.record_events(false);
    engine
}

/// One batched scheduler step at a steady batch size: the server is refilled so
/// every measured iteration decodes `batch` sessions.
fn serving_step(c: &mut Criterion) {
    let model = ModelFamily::Tiny.build(21);
    let mut group = c.benchmark_group("serving_step");
    for &batch in &[1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("step", batch), &batch, |b, &batch| {
            let mut server = server_with_batch(&model, batch);
            let mut next_id = 0u64;
            b.iter(|| {
                // Keep the queue topped up so the batch never shrinks.
                while server.queued() + server.running() < batch {
                    server.submit(request(next_id)).expect("no overrides");
                    next_id += 1;
                }
                server.step()
            });
        });
    }
    group.finish();
}

/// Drain a fixed oversubscribed burst to completion, per policy.
fn serving_burst(c: &mut Criterion) {
    let model = ModelFamily::Tiny.build(22);
    let bytes = model.empty_cache().bytes_per_token();
    let pool = 2 * (PROMPT_LEN + GEN_TOKENS) * bytes;
    let mut group = c.benchmark_group("serving_burst");
    group.sample_size(10);
    for (label, policy, budget) in [
        ("full", PolicySpec::Full, None),
        (
            "keyformer50",
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid fraction")),
        ),
    ] {
        group.bench_function(BenchmarkId::new("drain8", label), |b| {
            b.iter(|| {
                let mut server = batch_engine(&model, ServerConfig::new(policy, budget, pool));
                for i in 0..8 {
                    server.submit(request(i)).expect("no overrides");
                }
                server.run(512);
                server.completions().len()
            });
        });
    }
    group.finish();
}

criterion_group!(serving, serving_step, serving_burst);
criterion_main!(serving);
