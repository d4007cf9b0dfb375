//! Streaming-latency experiment: TTFT and inter-token-latency percentiles per
//! cache policy under mixed-priority traffic with mid-flight cancellations.
//!
//! The serving-throughput experiment measures *how many* requests a fixed
//! KV-byte pool completes; this one measures *how it feels per token*. Every
//! policy of the zoo runs the same staggered arrival stream through the
//! event-driven [`Engine`]: requests arrive two per scheduler step, every
//! fourth arrival is submitted at elevated priority (jumping the admission
//! queue), and every sixth is cancelled two steps after its first token — the
//! interactive-client behaviours (impatient users, priority tiers) a real
//! streaming endpoint sees. From each completion's
//! [`Completion::first_token_step`]/[`Completion::token_steps`] telemetry the
//! experiment reports, per policy:
//!
//! * **TTFT p50/p95/p99** — scheduler steps from submission to the first
//!   surfaced token. Dominated by queueing: policies with smaller KV budgets
//!   admit more concurrent sequences at the same pool, so the queue drains
//!   faster and tail TTFT falls — the latency face of the paper's throughput
//!   claim (Adnan et al., MLSys 2024, §6.3).
//! * **ITL p50/p95/p99** — the gap between consecutive surfaced tokens,
//!   pooled over all completions. Mostly 1 (one token per batched step);
//!   tail gaps mark steps lost to neighbours' prefills and admissions.
//!
//! [`Engine`]: keyformer_serve::Engine
//! [`Completion::first_token_step`]: keyformer_serve::Completion::first_token_step
//! [`Completion::token_steps`]: keyformer_serve::Completion::token_steps

use crate::report::{fmt, Table};
use crate::serving::{request_stream, serving_fixture};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_serve::{Engine, EventKind, RequestId, ServerConfig, SubmitOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// KV budget fraction applied to the budgeted policies.
const CACHE_FRACTION: f64 = 0.5;
/// Requests submitted per scheduler step while the stream lasts.
const ARRIVALS_PER_STEP: usize = 2;
/// Every `PRIORITY_EVERY`-th arrival is submitted at [`HIGH_PRIORITY`].
const PRIORITY_EVERY: usize = 4;
/// The elevated priority of the interactive tier.
const HIGH_PRIORITY: u8 = 2;
/// Every `CANCEL_EVERY`-th arrival is cancelled [`CANCEL_AFTER_STEPS`] steps
/// after its first token (an impatient client closing the stream).
const CANCEL_EVERY: usize = 6;
/// Steps between a doomed request's first token and its cancellation.
const CANCEL_AFTER_STEPS: usize = 2;

/// Machine-readable per-policy summary of one streaming-latency run, emitted
/// as `BENCH_latency.json` by `kf_experiments`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Policy label (e.g. `Keyformer(gumbel, per-layer)@50%`).
    pub policy: String,
    /// Requests submitted.
    pub submitted: usize,
    /// Requests that completed (streamed every token).
    pub completed: usize,
    /// Requests cancelled mid-stream by the synthetic impatient clients.
    pub cancelled: usize,
    /// Scheduler steps until the stream drained.
    pub steps: usize,
    /// Median time-to-first-token over completions, in scheduler steps.
    pub ttft_p50: f64,
    /// 95th-percentile TTFT.
    pub ttft_p95: f64,
    /// 99th-percentile TTFT.
    pub ttft_p99: f64,
    /// Mean TTFT.
    pub ttft_mean: f64,
    /// Median inter-token gap over all completions' consecutive tokens.
    pub itl_p50: f64,
    /// 95th-percentile inter-token gap.
    pub itl_p95: f64,
    /// 99th-percentile inter-token gap.
    pub itl_p99: f64,
    /// Mean TTFT of the elevated-priority completions (the interactive tier).
    pub ttft_mean_high_priority: f64,
    /// Mean TTFT of the normal-priority completions.
    pub ttft_mean_normal: f64,
}

/// The full policy zoo, each with the budget the experiments run it under
/// (`None` only for the full-attention baseline).
fn latency_policies() -> Vec<(String, PolicySpec, Option<CacheBudgetSpec>)> {
    let budget = CacheBudgetSpec::with_fraction(CACHE_FRACTION).expect("valid fraction");
    let pct = (CACHE_FRACTION * 100.0) as usize;
    vec![
        ("Full".into(), PolicySpec::Full, None),
        (format!("Window@{pct}%"), PolicySpec::Window, Some(budget)),
        (
            format!("Dilated@{pct}%"),
            PolicySpec::DilatedWindow { dilation: 1 },
            Some(budget),
        ),
        (format!("KeyOnly@{pct}%"), PolicySpec::KeyOnly, Some(budget)),
        (
            format!("H2O@{pct}%"),
            PolicySpec::h2o_default(),
            Some(budget),
        ),
        (
            format!("Damped@{pct}%"),
            PolicySpec::Damped { alpha: 0.9 },
            Some(budget),
        ),
        (
            format!("StreamingLLM@{pct}%"),
            PolicySpec::streaming_default(),
            Some(budget),
        ),
        (
            format!("Keyformer@{pct}%"),
            PolicySpec::keyformer_default(),
            Some(budget),
        ),
    ]
}

/// Nearest-rank percentile of an unsorted sample set (0.0 when empty).
fn percentile(samples: &[usize], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

fn mean(samples: &[usize]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<usize>() as f64 / samples.len() as f64
    }
}

/// Runs the streaming-latency comparison and returns both the rendered table
/// and the per-policy summaries.
///
/// `samples` scales the request count (16 per sample, matching the serving
/// experiment's stream).
pub fn streaming_latency_report(samples: usize) -> (Table, Vec<LatencySummary>) {
    let samples = samples.max(1);
    let num_requests = 16 * samples;
    let (model, pool_bytes) = serving_fixture();
    let step_cap = 400 * samples;

    let mut table = Table::new(
        format!(
            "Streaming latency at a fixed {pool_bytes}-byte KV pool: TTFT and \
             inter-token-latency percentiles in scheduler steps ({num_requests} requests, \
             {ARRIVALS_PER_STEP}/step arrivals, every {PRIORITY_EVERY}th high-priority, \
             every {CANCEL_EVERY}th cancelled {CANCEL_AFTER_STEPS} steps after first token)"
        ),
        &[
            "policy",
            "completed",
            "cancelled",
            "steps",
            "ttft_p50",
            "ttft_p95",
            "ttft_p99",
            "itl_p50",
            "itl_p95",
            "itl_p99",
            "ttft_high_prio",
        ],
    );
    let mut summaries = Vec::new();
    for (label, policy, budget) in latency_policies() {
        let mut engine = Engine::new(&model, ServerConfig::new(policy, budget, pool_bytes))
            .expect("latency config is valid");
        // The serving experiment's stream, every `PRIORITY_EVERY`-th
        // arrival at elevated priority.
        let mut arrivals = request_stream(num_requests)
            .enumerate()
            .map(|(i, request)| {
                let options = if i % PRIORITY_EVERY == PRIORITY_EVERY - 1 {
                    SubmitOptions::new().with_priority(HIGH_PRIORITY)
                } else {
                    SubmitOptions::new()
                };
                (request, options)
            });
        let mut cancel_at: HashMap<RequestId, usize> = HashMap::new();
        let mut exhausted = false;
        while !exhausted || !engine.is_idle() {
            if engine.steps() >= step_cap {
                break;
            }
            for _ in 0..ARRIVALS_PER_STEP {
                match arrivals.next() {
                    Some((request, options)) => {
                        engine
                            .submit_with(request, options)
                            .expect("synthetic requests carry no overrides");
                    }
                    None => exhausted = true,
                }
            }
            engine.step();
            // Impatient clients: watch for first tokens of doomed requests
            // and schedule their cancellation.
            for event in engine.drain_events() {
                if let EventKind::FirstToken { .. } = event.kind {
                    if event.id.raw() as usize % CANCEL_EVERY == CANCEL_EVERY - 1 {
                        cancel_at.insert(event.id, event.step + CANCEL_AFTER_STEPS);
                    }
                }
            }
            let now = engine.steps();
            let due: Vec<RequestId> = cancel_at
                .iter()
                .filter(|(_, &at)| at <= now)
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                cancel_at.remove(&id);
                engine.cancel(id);
            }
        }
        let stats = *engine.stats();
        let completions = engine.completions();
        let ttft: Vec<usize> = completions.iter().filter_map(|c| c.ttft_steps()).collect();
        let itl: Vec<usize> = completions
            .iter()
            .flat_map(|c| c.inter_token_steps())
            .collect();
        let high: Vec<usize> = completions
            .iter()
            .filter(|c| c.id.raw() as usize % PRIORITY_EVERY == PRIORITY_EVERY - 1)
            .filter_map(|c| c.ttft_steps())
            .collect();
        let normal: Vec<usize> = completions
            .iter()
            .filter(|c| c.id.raw() as usize % PRIORITY_EVERY != PRIORITY_EVERY - 1)
            .filter_map(|c| c.ttft_steps())
            .collect();
        let summary = LatencySummary {
            policy: label,
            submitted: num_requests,
            completed: completions.len(),
            cancelled: stats.cancelled,
            steps: stats.steps,
            ttft_p50: percentile(&ttft, 50.0),
            ttft_p95: percentile(&ttft, 95.0),
            ttft_p99: percentile(&ttft, 99.0),
            ttft_mean: mean(&ttft),
            itl_p50: percentile(&itl, 50.0),
            itl_p95: percentile(&itl, 95.0),
            itl_p99: percentile(&itl, 99.0),
            ttft_mean_high_priority: mean(&high),
            ttft_mean_normal: mean(&normal),
        };
        table.push_row(vec![
            summary.policy.clone(),
            summary.completed.to_string(),
            summary.cancelled.to_string(),
            summary.steps.to_string(),
            fmt(summary.ttft_p50),
            fmt(summary.ttft_p95),
            fmt(summary.ttft_p99),
            fmt(summary.itl_p50),
            fmt(summary.itl_p95),
            fmt(summary.itl_p99),
            fmt(summary.ttft_mean_high_priority),
        ]);
        summaries.push(summary);
    }
    (table, summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        // Ranks are round(p/100 * (n-1)) into the sorted samples.
        let samples: Vec<usize> = (0..100).rev().collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 95.0), 94.0);
        assert_eq!(percentile(&samples, 99.0), 98.0);
        assert_eq!(percentile(&samples, 0.0), 0.0);
        assert_eq!(percentile(&samples, 100.0), 99.0);
    }

    #[test]
    fn summaries_cover_the_zoo_exercise_cancellation_and_serialize() {
        let (table, summaries) = streaming_latency_report(1);
        assert_eq!(summaries.len(), 8, "the whole policy zoo runs");
        assert_eq!(table.rows.len(), 8);
        for s in &summaries {
            assert_eq!(
                s.completed + s.cancelled,
                s.submitted,
                "{}: every request completes or is cancelled",
                s.policy
            );
            assert!(s.cancelled > 0, "{}: cancellations must fire", s.policy);
            assert!(s.ttft_p50 >= 1.0, "{}: TTFT is at least one step", s.policy);
            assert!(s.ttft_p95 >= s.ttft_p50, "{}", s.policy);
            assert!(s.ttft_p99 >= s.ttft_p95, "{}", s.policy);
            assert!(s.itl_p50 >= 1.0, "{}: tokens are one step apart", s.policy);
            assert!(s.itl_p95 >= s.itl_p50, "{}", s.policy);
        }
        let json = serde_json::to_string(&summaries).unwrap();
        let back: Vec<LatencySummary> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summaries);
    }

    #[test]
    fn smaller_budgets_cut_tail_ttft_and_priority_cuts_the_queue() {
        let (_, summaries) = streaming_latency_report(1);
        let by_name = |needle: &str| {
            summaries
                .iter()
                .find(|s| s.policy.starts_with(needle))
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        let full = by_name("Full");
        let keyformer = by_name("Keyformer");
        // The latency face of the throughput claim: at the same pool, the
        // smaller per-request footprint admits more concurrency, so the queue
        // drains faster and tail TTFT falls.
        assert!(
            keyformer.ttft_p95 < full.ttft_p95,
            "keyformer p95 TTFT {} vs full {}",
            keyformer.ttft_p95,
            full.ttft_p95
        );
        // Elevated-priority arrivals jump the admission queue.
        for s in &summaries {
            assert!(
                s.ttft_mean_high_priority <= s.ttft_mean_normal,
                "{}: high-priority TTFT {} vs normal {}",
                s.policy,
                s.ttft_mean_high_priority,
                s.ttft_mean_normal
            );
        }
    }
}
