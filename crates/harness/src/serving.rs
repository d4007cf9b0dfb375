//! Serving-throughput experiment: requests completed per scheduler-step budget
//! under a fixed KV-byte pool, per cache policy.
//!
//! This is the end-to-end demonstration of the paper's systems claim (§6.3,
//! Table 1): reducing each sequence's KV footprint lets a fixed memory pool hold
//! more concurrent sequences, and with iteration-level batching that concurrency
//! converts directly into requests finished per batched decode step. Full
//! attention reserves the whole `prompt + generation` footprint per request; the
//! 50%-budget policies reserve roughly half, so the same pool runs roughly twice
//! the batch — and completes roughly twice the requests inside the same step
//! budget.

use crate::report::{fmt, Table};
use keyformer_core::block::BlockPoolStats;
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_serve::{Engine, Request, ServerConfig, ServerStats};
use serde::{Deserialize, Serialize};

/// Weight seed of the serving experiments' model.
const MODEL_SEED: u64 = 11;

/// Prompt length of every synthetic serving request, in all five serving
/// experiments — one constant, so their artefacts stay comparable.
pub(crate) const PROMPT_LEN: usize = 48;
/// Tokens generated per request.
pub(crate) const GEN_TOKENS: usize = 8;
/// KV budget fraction applied to the budgeted policies.
const CACHE_FRACTION: f64 = 0.5;

/// Machine-readable per-policy summary of one serving run, emitted as
/// `BENCH_serving.json` by `kf_experiments` so the perf trajectory has data
/// points across PRs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyServingSummary {
    /// Policy label (e.g. `Keyformer(gumbel, per-layer)@50%`).
    pub policy: String,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests completed within the step budget.
    pub completed: usize,
    /// Scheduler steps executed (= the step budget unless the server went idle).
    pub steps: usize,
    /// Requests completed per scheduler step — the headline throughput metric.
    pub requests_per_step: f64,
    /// Mean live KV bytes across the run.
    pub mean_kv_bytes: f64,
    /// Peak live KV bytes across the run.
    pub peak_kv_bytes: usize,
    /// Peak concurrently running sessions.
    pub peak_concurrency: usize,
    /// Mean end-to-end latency (scheduler steps) of the completed requests.
    pub mean_latency_steps: f64,
    /// Mean live-slots / allocated-slots at end-of-step steady state
    /// (1.0 minus internal fragmentation).
    pub utilization: f64,
    /// Pool high-water mark in blocks.
    pub peak_blocks: usize,
    /// High-water mark of blocks mapped by more than one holder (0 without
    /// prefix sharing).
    pub shared_blocks_peak: usize,
}

/// The policy line-up the serving experiment compares: full attention against
/// the three main reduced-cache policies at a 50% budget.
pub fn serving_policies() -> Vec<(String, PolicySpec, Option<CacheBudgetSpec>)> {
    let budget = CacheBudgetSpec::with_fraction(CACHE_FRACTION).expect("valid fraction");
    let pct = (CACHE_FRACTION * 100.0) as usize;
    vec![
        ("Full".into(), PolicySpec::Full, None),
        (format!("Window@{pct}%"), PolicySpec::Window, Some(budget)),
        (
            format!("H2O@{pct}%"),
            PolicySpec::h2o_default(),
            Some(budget),
        ),
        (
            format!("Keyformer@{pct}%"),
            PolicySpec::keyformer_default(),
            Some(budget),
        ),
    ]
}

/// The model every serving experiment runs and the one byte pool they all
/// serve from: the tight steady-state pool of [`crate::sizing`], sized in f32
/// terms, so the five artefacts describe the same memory envelope.
pub(crate) fn serving_fixture() -> (TransformerModel, usize) {
    let model = ModelFamily::Tiny.build(MODEL_SEED);
    let pool_bytes = crate::sizing::steady_pool_bytes(&model, PROMPT_LEN, GEN_TOKENS, KvDtype::F32);
    (model, pool_bytes)
}

/// Deterministic synthetic request stream: `num` prompts of `PROMPT_LEN`
/// tokens, each with its own token pattern.
pub(crate) fn request_stream(num: usize) -> impl Iterator<Item = Request> {
    (0..num).map(|i| {
        let salt = i as u32;
        let prompt: Vec<u32> = (0..PROMPT_LEN)
            .map(|t| (t as u32 * 13 + 7 + salt * 31) % 120)
            .collect();
        Request::new(i as u64, prompt, GenerationConfig::new(GEN_TOKENS))
    })
}

/// What one batch run leaves behind for an experiment to summarise.
pub(crate) struct BatchRun {
    /// The engine's lifetime counters.
    pub stats: ServerStats,
    /// The pool's allocator accounting.
    pub pool: BlockPoolStats,
    /// Block capacity the byte pool converted to.
    pub capacity_blocks: usize,
    /// Requests completed inside the step budget.
    pub completed: usize,
    /// Mean end-to-end latency (scheduler steps) of the completed requests.
    pub mean_latency_steps: f64,
}

/// The batch run every step-counted serving experiment makes: submit the whole
/// stream up front, run at most `step_budget` scheduler steps, read the
/// counters. Nothing drains events, so recording is off.
///
/// # Panics
///
/// Panics on an invalid `config` or a request with invalid overrides — the
/// experiments build both from constants.
pub(crate) fn run_batch(
    model: &TransformerModel,
    config: ServerConfig,
    requests: impl IntoIterator<Item = Request>,
    step_budget: usize,
) -> BatchRun {
    let mut engine = Engine::new(model, config).expect("experiment configs are valid");
    engine.record_events(false);
    for request in requests {
        engine
            .submit(request)
            .expect("synthetic requests carry no overrides");
    }
    engine.run(step_budget);
    let completions = engine.completions();
    let completed = completions.len();
    let mean_latency_steps = if completed == 0 {
        0.0
    } else {
        completions
            .iter()
            .map(|c| c.latency_steps() as f64)
            .sum::<f64>()
            / completed as f64
    };
    BatchRun {
        stats: *engine.stats(),
        pool: engine.pool_stats(),
        capacity_blocks: engine.total_blocks(),
        completed,
        mean_latency_steps,
    }
}

/// Runs the serving comparison and returns both the rendered table and the
/// per-policy summaries.
///
/// `samples` scales the request count (the queue is kept oversubscribed relative
/// to the step budget, so completions — not submissions — are the binding
/// quantity).
pub fn serve_throughput_report(samples: usize) -> (Table, Vec<PolicyServingSummary>) {
    let samples = samples.max(1);
    // Oversubscribed on purpose: the step budget, not the request count, is the
    // binding constraint, so completions measure throughput rather than workload
    // size. Full attention sustains ~pool/(prompt+gen) concurrent requests and
    // cannot drain the queue inside the budget.
    let num_requests = 16 * samples;
    let step_budget = 3 * GEN_TOKENS * samples;
    // Pool sized so full attention fits two steady-state requests
    // (prompt + generation slots each) with a little headroom.
    let (model, pool_bytes) = serving_fixture();

    let mut table = Table::new(
        format!(
            "Serving throughput: requests per scheduler step at a fixed \
             {pool_bytes}-byte KV pool ({num_requests} requests, {step_budget}-step budget)"
        ),
        &[
            "policy",
            "completed",
            "steps",
            "requests_per_step",
            "mean_kv_bytes",
            "peak_concurrency",
            "mean_latency_steps",
        ],
    );
    let mut summaries = Vec::new();
    for (label, policy, budget) in serving_policies() {
        let run = run_batch(
            &model,
            ServerConfig::new(policy, budget, pool_bytes),
            request_stream(num_requests),
            step_budget,
        );
        let (stats, pool, completed) = (run.stats, run.pool, run.completed);
        let summary = PolicyServingSummary {
            policy: label,
            submitted: num_requests,
            completed,
            steps: stats.steps,
            requests_per_step: completed as f64 / stats.steps.max(1) as f64,
            mean_kv_bytes: stats.mean_live_kv_bytes(),
            peak_kv_bytes: stats.peak_live_kv_bytes,
            peak_concurrency: stats.peak_concurrency,
            mean_latency_steps: run.mean_latency_steps,
            utilization: stats.mean_pool_utilization(),
            peak_blocks: pool.peak_in_use,
            shared_blocks_peak: pool.peak_shared_blocks,
        };
        table.push_row(vec![
            summary.policy.clone(),
            summary.completed.to_string(),
            summary.steps.to_string(),
            fmt(summary.requests_per_step),
            format!("{:.0}", summary.mean_kv_bytes),
            summary.peak_concurrency.to_string(),
            fmt(summary.mean_latency_steps),
        ]);
        summaries.push(summary);
    }
    (table, summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyformer_completes_strictly_more_requests_than_full_at_fixed_pool() {
        let (_, summaries) = serve_throughput_report(1);
        let by_name = |needle: &str| {
            summaries
                .iter()
                .find(|s| s.policy.starts_with(needle))
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        let full = by_name("Full");
        let keyformer = by_name("Keyformer");
        assert!(
            keyformer.completed > full.completed,
            "keyformer {} vs full {} completed requests",
            keyformer.completed,
            full.completed
        );
        assert!(keyformer.requests_per_step > full.requests_per_step);
        assert!(
            keyformer.peak_concurrency > full.peak_concurrency,
            "the whole effect should come from higher admitted concurrency"
        );
        // Both policies fill the same fixed pool — that is the design point: the
        // reduced per-request footprint converts pool bytes into concurrency,
        // not into an emptier pool.
        assert!(
            full.completed < full.submitted,
            "the workload must oversubscribe the step budget to measure throughput"
        );
        assert!(keyformer.mean_kv_bytes > 0.0);
    }

    #[test]
    fn summaries_cover_every_policy_and_serialize() {
        let (table, summaries) = serve_throughput_report(1);
        assert_eq!(summaries.len(), 4);
        assert_eq!(table.rows.len(), 4);
        for s in &summaries {
            assert!(s.completed <= s.submitted);
            assert!(s.steps > 0);
        }
        let json = serde_json::to_string(&summaries).unwrap();
        let back: Vec<PolicyServingSummary> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summaries);
    }
}
