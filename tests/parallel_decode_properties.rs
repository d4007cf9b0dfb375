//! Parallel-decode properties: the PR 6 worker pool must be an invisible
//! optimization. Across the whole policy zoo, with prefix sharing on and off,
//! under preemption pressure, with mixed priorities, deadlines and
//! cancellations, an engine running `decode_workers` ∈ {2, 4, 8} must be
//! *byte-identical* to the sequential engine in everything observable:
//!
//! 1. **Token/event/stats identity** — completions (tokens, cache footprints,
//!    latency telemetry), failures, the full event stream, `ServerStats`, the
//!    live pool counters (`in_use`, `reserved`, `shared_blocks`,
//!    `total_allocs`, `total_frees`) and the prefix-registry stats all match
//!    the 1-worker run exactly. Only the pool's transient high-water marks
//!    (`peak_in_use`, `peak_reserved`, `peak_shared_blocks`) may differ: a
//!    parallel round legitimately holds several sessions' decode transients
//!    at once.
//! 2. **Soak leak-freedom** — 100+ randomized schedules on a tight strict
//!    pool with sharing enabled (forcing preemption and copy-on-write forks)
//!    drain to an empty pool and registry every time, with every request
//!    retiring exactly once.
//!
//! Cancellation is serialized with the round: `Engine::cancel` takes the
//! engine mutably, so it lands between steps, never inside one.

use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::serve::{
    Completion, Engine, Event, FailedRequest, Request, RequestId, ServerConfig, ServerStats,
    SubmitOptions,
};
use proptest::prelude::*;

/// Worker counts the identity properties compare against the sequential run.
const PARALLEL_WORKERS: [usize; 3] = [2, 4, 8];

/// The whole policy zoo, each with the budget the experiments run it under
/// (`None` only for the full-attention baseline).
fn policy_zoo() -> Vec<(PolicySpec, Option<CacheBudgetSpec>)> {
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    vec![
        (PolicySpec::Full, None),
        (PolicySpec::Window, budget),
        (PolicySpec::DilatedWindow { dilation: 1 }, budget),
        (PolicySpec::KeyOnly, budget),
        (PolicySpec::h2o_default(), budget),
        (PolicySpec::Damped { alpha: 0.9 }, budget),
        (PolicySpec::streaming_default(), budget),
        (PolicySpec::keyformer_default(), budget),
    ]
}

/// `num` requests sharing a `prefix_len`-token prefix, each with a unique
/// suffix (so prefix sharing genuinely attaches when enabled).
fn shared_prefix_requests(
    num: usize,
    prefix_len: usize,
    total_len: usize,
    gen: usize,
    seed: u64,
) -> Vec<Request> {
    (0..num)
        .map(|i| {
            let mut p: Vec<u32> = (0..prefix_len)
                .map(|t| (t as u32 * 13 + 7 + seed as u32 * 3) % 120)
                .collect();
            p.extend(
                (prefix_len..total_len)
                    .map(|t| (t as u32 * 13 + 7 + (i as u32 + 1) * 31 + seed as u32 * 3) % 120),
            );
            let config = GenerationConfig::new(gen).with_top_k(16, 2.0, seed + i as u64);
            Request::new(i as u64, p, config)
        })
        .collect()
}

/// Everything observable about one finished run, minus the pool's transient
/// high-water marks (the one schedule-dependent quantity parallel decode is
/// allowed to change).
#[derive(Debug, Clone, PartialEq)]
struct RunFingerprint {
    completions: Vec<Completion>,
    failures: Vec<FailedRequest>,
    events: Vec<Event>,
    stats: ServerStats,
    /// `(in_use, reserved, shared_blocks, total_allocs, total_frees)`.
    pool: (usize, usize, usize, u64, u64),
    registry: Option<keyformer::core::prefix::PrefixRegistryStats>,
}

/// Runs one engine to idle and fingerprints it.
fn fingerprint(
    model: &keyformer::model::model::TransformerModel,
    config: ServerConfig,
    requests: &[Request],
) -> RunFingerprint {
    let mut engine = Engine::new(model, config).unwrap();
    for request in requests {
        engine.submit(request.clone()).unwrap();
    }
    engine.run(10_000);
    assert!(engine.is_idle(), "engine did not drain");
    let events = engine.drain_events();
    let pool = engine.pool_stats();
    RunFingerprint {
        completions: engine.completions().to_vec(),
        failures: engine.failures().to_vec(),
        events,
        stats: *engine.stats(),
        pool: (
            pool.in_use,
            pool.reserved,
            pool.shared_blocks,
            pool.total_allocs,
            pool.total_frees,
        ),
        registry: engine.registry_stats(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 1 (the headline): every worker count is byte-identical to the
    /// sequential engine for every policy, with sharing off and on, both on a
    /// roomy pool and on a tight strict pool that forces preemption.
    #[test]
    fn parallel_decode_is_identical_across_the_zoo(
        total_len in 18usize..26,
        gen_tokens in 3usize..6,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(41);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        for (policy, budget) in policy_zoo() {
            for sharing in [false, true] {
                // Roomy non-strict pool, and a tight strict pool small enough
                // that the third request's growth preempts a neighbour.
                for (pool_slots, strict) in [(160usize, false), (40usize, true)] {
                    let requests = shared_prefix_requests(3, 12, total_len, gen_tokens, seed);
                    let config =
                        ServerConfig::new(policy, budget, pool_slots * bytes_per_token)
                            .with_block_size(4)
                            .with_prefill_chunk(4)
                            .with_prefix_sharing(sharing)
                            .with_strict_pool(strict);
                    let label = format!(
                        "{} (sharing={sharing}, strict={strict})",
                        policy.label()
                    );
                    let sequential =
                        fingerprint(&model, config.with_decode_workers(1), &requests);
                    for workers in PARALLEL_WORKERS {
                        let parallel = fingerprint(
                            &model,
                            config.with_decode_workers(workers),
                            &requests,
                        );
                        prop_assert!(
                            parallel == sequential,
                            "{label}: {workers} workers diverged from sequential\n\
                             sequential: {sequential:?}\nparallel: {parallel:?}"
                        );
                    }
                }
            }
        }
    }

    /// Property 2: mixed-priority traffic with a deadline and a mid-flight
    /// cancellation stays identical at every worker count — the serialized
    /// plan/commit phases preserve admission order, deadline expiry and
    /// cancellation points exactly.
    #[test]
    fn mixed_traffic_is_identical_at_every_worker_count(
        num_requests in 4usize..6,
        base_len in 14usize..22,
        gen_tokens in 3usize..6,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(43);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        let run = |workers: usize| {
            let config = ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                48 * bytes_per_token,
            )
            .with_block_size(4)
            .with_prefill_chunk(4)
            .with_decode_workers(workers);
            let mut engine = Engine::new(&model, config).unwrap();
            let mut submitted: Vec<RequestId> = Vec::new();
            for i in 0..num_requests {
                let prompt: Vec<u32> = (0..base_len + 2 * i)
                    .map(|t| (t as u32 * 13 + 5 + (i as u32 + 1) * 37 + seed as u32) % 120)
                    .collect();
                let gen = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed + i as u64);
                let options = SubmitOptions::new()
                    .with_priority((i % 3) as u8)
                    .with_deadline_steps(if i == 1 { 6 } else { usize::MAX / 2 });
                let handle = engine
                    .submit_with(Request::new(i as u64, prompt, gen), options)
                    .unwrap();
                submitted.push(handle.id());
            }
            let victim = *submitted.last().unwrap();
            let mut events: Vec<Event> = Vec::new();
            let mut cancelled = false;
            for step in 0..10_000 {
                if engine.is_idle() {
                    break;
                }
                engine.step();
                events.extend(engine.drain_events());
                // Deterministic mid-flight cancellation: same step boundary in
                // every run, so every worker count sees the same schedule.
                if step == 3 && !cancelled {
                    cancelled = engine.cancel(victim);
                    events.extend(engine.drain_events());
                }
            }
            assert!(engine.is_idle(), "engine did not drain");
            events.extend(engine.drain_events());
            let pool = engine.pool_stats();
            RunFingerprint {
                completions: engine.completions().to_vec(),
                failures: engine.failures().to_vec(),
                events,
                stats: *engine.stats(),
                pool: (
                    pool.in_use,
                    pool.reserved,
                    pool.shared_blocks,
                    pool.total_allocs,
                    pool.total_frees,
                ),
                registry: engine.registry_stats(),
            }
        };
        let sequential = run(1);
        prop_assert!(
            sequential.completions.len() + sequential.failures.len() == num_requests,
            "every request retires exactly once"
        );
        for workers in PARALLEL_WORKERS {
            let parallel = run(workers);
            prop_assert!(
                parallel == sequential,
                "{workers} workers diverged under mixed traffic\n\
                 sequential: {sequential:?}\nparallel: {parallel:?}"
            );
        }
    }
}

/// PR 7 fallback-removal regression: PR 6 serialized any decode round whose
/// plan contained a budgeted session still mapping shared blocks. With the
/// pool-level atomic fork probe that fallback is gone — so this schedule,
/// engineered to hit exactly that window, must fan out and stay identical.
/// Budgeting exactly the prompt means every session enters its *first* decode
/// round with its whole prefix still shared, and the round's own appends
/// trigger the evictions that copy-on-write-fork those blocks while the
/// workers are running.
#[test]
fn budgeted_sessions_still_sharing_at_decode_stay_identical() {
    let model = ModelFamily::Tiny.build(59);
    let bytes_per_token = model.empty_cache().bytes_per_token();
    let budget = Some(CacheBudgetSpec::with_fraction(1.0).unwrap());
    let requests = shared_prefix_requests(4, 16, 20, 6, 59);
    let run = |workers: usize| {
        let config = ServerConfig::new(
            PolicySpec::keyformer_default(),
            budget,
            256 * bytes_per_token,
        )
        .with_block_size(4)
        .with_prefix_sharing(true)
        .with_decode_workers(workers);
        fingerprint(&model, config, &requests)
    };
    let sequential = run(1);
    assert!(
        sequential.stats.prefix_tokens_reused > 0,
        "the schedule must actually attach to the shared prefix"
    );
    assert_eq!(
        sequential.completions.len(),
        requests.len(),
        "every request completes"
    );
    for workers in PARALLEL_WORKERS {
        let parallel = run(workers);
        assert!(
            parallel == sequential,
            "{workers} workers diverged on budgeted-but-still-shared sessions\n\
             sequential: {sequential:?}\nparallel: {parallel:?}"
        );
    }
}

/// Property 3 (soak): 100 randomized schedules on a tight strict pool with
/// sharing enabled — the mix that forces preemption and copy-on-write forks —
/// drain to an empty pool and registry at the worker count under test
/// (`KF_DECODE_WORKERS`, default 4), with every request retiring exactly once.
#[test]
fn soak_tight_strict_pool_never_leaks() {
    let workers = ServerConfig::decode_workers_from_env().unwrap_or(4);
    let model = ModelFamily::Tiny.build(47);
    let bytes_per_token = model.empty_cache().bytes_per_token();
    for seed in 0u64..100 {
        // Cheap deterministic schedule knobs derived from the seed.
        let num_requests = 3 + (seed % 2) as usize;
        let total_len = 18 + (seed % 7) as usize;
        let gen_tokens = 3 + (seed % 4) as usize;
        let pool_slots = 36 + (seed % 3) as usize * 4;
        let config = ServerConfig::new(
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
            pool_slots * bytes_per_token,
        )
        .with_block_size(4)
        .with_prefill_chunk(4)
        .with_prefix_sharing(true)
        .with_strict_pool(true)
        .with_decode_workers(workers);
        let mut engine = Engine::new(&model, config).unwrap();
        let requests = shared_prefix_requests(num_requests, 12, total_len, gen_tokens, seed);
        for request in &requests {
            engine.submit(request.clone()).unwrap();
        }
        engine.run(10_000);
        assert!(engine.is_idle(), "seed {seed}: engine did not drain");
        assert_eq!(
            engine.completions().len() + engine.failures().len(),
            num_requests,
            "seed {seed}: every request retires exactly once"
        );
        // The only blocks (and, on a strict pool, reservations) still held
        // belong to the registry's deliberate pins: clearing it must drain
        // the pool to exactly empty.
        let registry = engine.prefix_registry().expect("sharing is on");
        registry.clear();
        assert_eq!(
            engine.pool().blocks_reserved(),
            0,
            "seed {seed}: reservation leaked after registry clear"
        );
        assert_eq!(
            engine.pool().blocks_in_use(),
            0,
            "seed {seed}: blocks leaked after registry clear: {:?}",
            engine.pool_stats()
        );
        assert_eq!(
            engine.pool_stats().total_allocs,
            engine.pool_stats().total_frees,
            "seed {seed}: alloc/free imbalance"
        );
    }
}
