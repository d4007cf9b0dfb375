//! Quantization experiment: what u8 KV block storage buys a fixed byte pool,
//! across the policy zoo and cache budgets.
//!
//! Every row serves the *same* oversubscribed workload through the *same*
//! KV-byte pool (sized in f32 terms, exactly like the serving-throughput
//! experiment) and varies the storage dtype, the eviction policy and the
//! cache-budget fraction. Quantizing sealed blocks to u8 with per-block
//! affine scale/zero-point cuts `bytes_per_slot` to a quarter, so the same
//! byte pool converts to 4x the blocks — and with iteration-level batching
//! that capacity converts into concurrency and completed requests, exactly
//! the mechanism the paper exploits via eviction. The two levers compose:
//! Keyformer@50% in u8 stacks a ~2x footprint cut on top of a 4x one.
//!
//! Each (dtype, policy, budget) point reports the serving leg — completed
//! requests, steady-state pool utilization, peak concurrency — plus a
//! standalone accuracy leg (ROUGE-2 on the synthetic summarization task at
//! that dtype/policy/budget, via [`evaluate_generation`]); u8 rows carry their
//! completed-requests multiplier and ROUGE-2 delta against the matching f32
//! row. The headline: at least one policy/budget point completes >= 2x the
//! requests in u8 at (near-)matched ROUGE, from the same byte pool.

use crate::accuracy::{Datasets, MODEL_SEED};
use crate::report::{fmt, Table};
use crate::serving::{request_stream, run_batch, serving_fixture, GEN_TOKENS};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_serve::ServerConfig;
use keyformer_text::eval::{evaluate_generation, EvalSetting};
use serde::Serialize;

/// Budget fractions swept for the budgeted policies.
const BUDGET_FRACTIONS: [f64; 2] = [0.3, 0.5];

/// Machine-readable summary of one (dtype, policy, budget) point, emitted as
/// `BENCH_quant.json` by `kf_experiments`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantSummary {
    /// Storage dtype label (`f32` or `u8`).
    pub dtype: String,
    /// Policy label (e.g. `Keyformer`).
    pub policy: String,
    /// Cache-budget fraction; `None` = full attention (no eviction).
    pub budget_fraction: Option<f64>,
    /// The fixed byte pool every row serves from.
    pub pool_bytes: usize,
    /// Block capacity that byte pool converts to at this dtype.
    pub capacity_blocks: usize,
    /// Requests submitted (oversubscribed relative to the step budget).
    pub submitted: usize,
    /// Requests completed within the step budget — the headline quantity.
    pub completed: usize,
    /// Scheduler steps executed.
    pub steps: usize,
    /// Requests completed per scheduler step.
    pub requests_per_step: f64,
    /// Mean live-slots / allocated-slots at end-of-step steady state.
    pub utilization: f64,
    /// Peak concurrently running sessions.
    pub peak_concurrency: usize,
    /// ROUGE-2 F1 of this dtype/policy/budget on the summarization task
    /// (the [`evaluate_generation`] leg, not the serving workload).
    pub rouge2: f64,
    /// `completed / completed(f32)` at the same policy/budget; 1.0 on f32
    /// rows by construction.
    pub completed_multiplier_vs_f32: f64,
    /// `rouge2 - rouge2(f32)` at the same policy/budget; 0.0 on f32 rows.
    pub rouge2_delta_vs_f32: f64,
}

/// The (policy, budget) grid: full attention plus the three main reduced-cache
/// policies at each swept budget fraction.
fn policy_budget_grid() -> Vec<(String, PolicySpec, Option<CacheBudgetSpec>, Option<f64>)> {
    let mut grid = vec![("Full".to_string(), PolicySpec::Full, None, None)];
    for &fraction in &BUDGET_FRACTIONS {
        let budget = CacheBudgetSpec::with_fraction(fraction).expect("valid fraction");
        let pct = (fraction * 100.0) as usize;
        for (label, policy) in [
            ("Window", PolicySpec::Window),
            ("H2O", PolicySpec::h2o_default()),
            ("Keyformer", PolicySpec::keyformer_default()),
        ] {
            grid.push((
                format!("{label}@{pct}%"),
                policy,
                Some(budget),
                Some(fraction),
            ));
        }
    }
    grid
}

/// Runs the quantization sweep and returns both the rendered table and the
/// per-point summaries.
///
/// `samples` scales the request count, the step budget and the accuracy leg's
/// dataset size, exactly like the sibling serving experiments; the accuracy
/// leg draws its summarization samples from `datasets`.
pub fn quantization_report(datasets: &Datasets, samples: usize) -> (Table, Vec<QuantSummary>) {
    let samples = samples.max(1);
    // Heavily oversubscribed: even the u8 rows (4x the block capacity) must
    // stay queue-bound, so completions measure capacity, not workload size.
    let num_requests = 64 * samples;
    let step_budget = 3 * GEN_TOKENS * samples;
    // The *same* byte pool for every row, sized in f32 terms.
    let (model, pool_bytes) = serving_fixture();
    // The accuracy leg needs the full synthetic vocabulary the summarization
    // task generates over; Tiny's 128-token vocab is serving-only.
    let accuracy_model = ModelFamily::CerebrasLike.build(MODEL_SEED);
    let eval_samples = datasets.summarization_samples(samples.max(2));

    let mut table = Table::new(
        format!(
            "Quantized KV storage at a fixed {pool_bytes}-byte pool: u8 blocks \
             (per-block affine scale/zero-point) vs f32 across policies and \
             budgets ({num_requests} requests, {step_budget}-step budget)"
        ),
        &[
            "dtype",
            "policy",
            "blocks",
            "completed",
            "requests_per_step",
            "utilization",
            "peak_concurrency",
            "rouge2",
            "completed_x_vs_f32",
            "rouge2_delta",
        ],
    );

    let mut summaries = Vec::new();
    for (label, policy, budget, fraction) in policy_budget_grid() {
        let mut f32_completed = 0usize;
        let mut f32_rouge2 = 0.0f64;
        for dtype in [KvDtype::F32, KvDtype::U8] {
            // Two prefills per step so the u8 rows can actually ramp to their
            // 4x concurrency inside the step budget; both dtypes get the same
            // schedule.
            let config = ServerConfig::new(policy, budget, pool_bytes)
                .with_prefills_per_step(2)
                .with_kv_dtype(dtype);
            let run = run_batch(&model, config, request_stream(num_requests), step_budget);
            let completed = run.completed;
            let setting = EvalSetting {
                policy,
                budget,
                dtype,
            };
            let rouge2 = evaluate_generation(&accuracy_model, &setting, &eval_samples)
                .rouge2
                .f1;
            let (multiplier, delta) = match dtype {
                KvDtype::F32 => {
                    f32_completed = completed;
                    f32_rouge2 = rouge2;
                    (1.0, 0.0)
                }
                KvDtype::U8 => (
                    completed as f64 / f32_completed.max(1) as f64,
                    rouge2 - f32_rouge2,
                ),
            };
            let summary = QuantSummary {
                dtype: dtype.label().to_string(),
                policy: label.clone(),
                budget_fraction: fraction,
                pool_bytes,
                capacity_blocks: run.capacity_blocks,
                submitted: num_requests,
                completed,
                steps: run.stats.steps,
                requests_per_step: completed as f64 / run.stats.steps.max(1) as f64,
                utilization: run.stats.mean_pool_utilization(),
                peak_concurrency: run.stats.peak_concurrency,
                rouge2,
                completed_multiplier_vs_f32: multiplier,
                rouge2_delta_vs_f32: delta,
            };
            table.push_row(vec![
                summary.dtype.clone(),
                summary.policy.clone(),
                summary.capacity_blocks.to_string(),
                summary.completed.to_string(),
                fmt(summary.requests_per_step),
                fmt(summary.utilization),
                summary.peak_concurrency.to_string(),
                fmt(summary.rouge2),
                fmt(summary.completed_multiplier_vs_f32),
                fmt(summary.rouge2_delta_vs_f32),
            ]);
            summaries.push(summary);
        }
    }
    (table, summaries)
}

/// [`quantization_report`] on the small specs at one sample, computed once
/// per test process: the debug-build sweep is the slowest thing in the
/// crate's tests, and two of them check it.
#[cfg(test)]
pub(crate) fn report_at_one_sample() -> &'static (Table, Vec<QuantSummary>) {
    static REPORT: std::sync::OnceLock<(Table, Vec<QuantSummary>)> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| quantization_report(&Datasets::small(), 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance headline: at the same byte pool, at least one
    /// policy/budget point completes >= 2x the requests in u8 — and every
    /// point's u8 capacity is exactly 4x its f32 capacity.
    #[test]
    fn u8_doubles_completed_requests_at_some_point() {
        let (_, summaries) = report_at_one_sample();
        assert_eq!(summaries.len(), 2 * policy_budget_grid().len());
        for pair in summaries.chunks(2) {
            let (f32_row, u8_row) = (&pair[0], &pair[1]);
            assert_eq!(f32_row.dtype, "f32");
            assert_eq!(u8_row.dtype, "u8");
            assert_eq!(f32_row.policy, u8_row.policy);
            assert_eq!(f32_row.pool_bytes, u8_row.pool_bytes, "fixed byte pool");
            // u8 quarters bytes_per_slot, so the same pool holds 4x the
            // blocks — up to the flooring of pool_bytes / bytes_per_block,
            // which the u8 conversion performs at a 4x finer granularity.
            assert!(
                u8_row.capacity_blocks >= 4 * f32_row.capacity_blocks
                    && u8_row.capacity_blocks < 4 * (f32_row.capacity_blocks + 1),
                "u8 capacity {} vs f32 {}",
                u8_row.capacity_blocks,
                f32_row.capacity_blocks
            );
            assert!(
                u8_row.completed >= f32_row.completed,
                "{}: u8 completed {} < f32 {}",
                u8_row.policy,
                u8_row.completed,
                f32_row.completed
            );
        }
        let best = summaries
            .iter()
            .filter(|s| s.dtype == "u8")
            .map(|s| s.completed_multiplier_vs_f32)
            .fold(0.0f64, f64::max);
        assert!(
            best >= 2.0,
            "headline requires >= 2x completed requests at some policy/budget point, best {best:.2}x"
        );
    }
}
