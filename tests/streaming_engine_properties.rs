//! Streaming-engine properties, across the whole policy zoo:
//!
//! 1. **Stream/batch identity** — the token sequence a request's event stream
//!    surfaces (`FirstToken` then `Token`*) is bit-identical to the
//!    `completions()` of a non-recording `Engine` run of the same workload,
//!    for every policy, with and without prefix sharing. Streaming is an
//!    observation channel; it must never perturb scheduling or decoding.
//! 2. **Cancellation leak-freedom** — cancelling at every phase (queued,
//!    mid-prefill, mid-decode, preempted) immediately returns reservations and
//!    releases the session's blocks: once the engine is idle the pool holds
//!    nothing beyond the prefix registry's deliberate pins, and clearing the
//!    registry drains it to empty.
//! 3. **Event-stream well-formedness** — under mixed-priority traffic with
//!    deadlines and cancellations, every submitted request's stream starts
//!    with `Queued`, carries exactly one terminal event (and nothing after
//!    it), emits `FirstToken` before any `Token`, and numbers `Token` indices
//!    contiguously — even across preemption replays.

use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::serve::{
    Engine, Event, EventKind, FailureReason, Request, RequestId, ServerConfig, SubmitOptions,
};
use proptest::prelude::*;

/// Worker-pool width these properties run the engine with: `KF_DECODE_WORKERS`
/// when set (CI runs the suite a second time at 4), sequential otherwise.
/// Every invariant here must hold at any width — parallel decode is an
/// invisible optimization.
fn decode_workers() -> usize {
    ServerConfig::decode_workers_from_env().unwrap_or(1)
}

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

/// Tokens surfaced by a request's event stream, in emission order.
fn streamed_tokens(events: &[Event]) -> Vec<u32> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::FirstToken { token } => Some(token),
            EventKind::Token { token, .. } => Some(token),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 1: the streamed token sequence of every request equals the
    /// `completions()` output of a non-recording engine run, for every policy
    /// in the zoo, with and without prefix sharing.
    #[test]
    fn streamed_tokens_match_batch_completions_across_the_zoo(
        total_len in 18usize..30,
        gen_tokens in 3usize..6,
        chunk in 3usize..6,
        pool_slots in 72usize..120,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(31);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        for (policy, budget) in policy_zoo() {
            for sharing in [false, true] {
                let requests = shared_prefix_requests(3, 12, total_len, gen_tokens, seed);
                let config = ServerConfig::new(policy, budget, pool_slots * bytes_per_token)
                    .with_block_size(4)
                    .with_prefill_chunk(chunk)
                    .with_prefix_sharing(sharing)
                    .with_decode_workers(decode_workers());
                let label = format!("{} (sharing={sharing})", policy.label());

                let mut server = Engine::new(&model, config).unwrap();
                server.record_events(false);
                for request in &requests {
                    server.submit(request.clone()).unwrap();
                }
                server.run(10_000);
                prop_assert!(server.is_idle(), "{label}: server did not drain");
                prop_assert!(server.failures().is_empty(), "{label}: failures");

                let mut engine = Engine::new(&model, config).unwrap();
                for request in &requests {
                    engine.submit(request.clone()).unwrap();
                }
                engine.run(10_000);
                prop_assert!(engine.is_idle(), "{label}: engine did not drain");
                prop_assert!(engine.failures().is_empty(), "{label}: failures");
                let events = engine.drain_events();

                for request in &requests {
                    let batch = server
                        .completions()
                        .iter()
                        .find(|c| c.id == request.id)
                        .expect("batch completion exists");
                    let streamed = engine
                        .completions()
                        .iter()
                        .find(|c| c.id == request.id)
                        .expect("engine completion exists");
                    prop_assert!(
                        batch.output == streamed.output,
                        "{label}: recording engine diverged from the batch run for {}",
                        request.id
                    );
                    let per_request: Vec<Event> = events
                        .iter()
                        .filter(|e| e.id == request.id)
                        .cloned()
                        .collect();
                    prop_assert!(
                        streamed_tokens(&per_request) == batch.output.generated,
                        "{label}: streamed tokens diverged from batch output for {}",
                        request.id
                    );
                    prop_assert!(
                        streamed.token_steps.len() == batch.output.generated.len(),
                        "{label}: token_steps does not cover the output"
                    );
                }
            }
        }
    }

    /// Property 2 (queued / mid-prefill / mid-decode): cancellation at any of
    /// these phases immediately returns the reservation, and once the engine
    /// is idle the pool holds nothing beyond the registry's deliberate pins —
    /// clearing the registry drains it to empty. With sharing off the pool
    /// returns exactly to its pre-submit state.
    #[test]
    fn cancellation_leaks_nothing_at_any_phase(
        // Suffix after the 12-token shared prefix stays longer than the
        // 3-token chunk, so the mid-prefill phase is real even when a prefix
        // attach skips the shared blocks.
        prompt_len in 20usize..28,
        gen_tokens in 4usize..8,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(33);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        for sharing in [false, true] {
            let config = ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                256 * bytes_per_token,
            )
            .with_block_size(4)
            .with_prefill_chunk(3)
            .with_prefix_sharing(sharing)
            .with_decode_workers(decode_workers());
            let mut engine = Engine::new(&model, config).unwrap();
            let requests = shared_prefix_requests(4, 12, prompt_len, gen_tokens, seed);

            // A donor completes normally first, seeding the registry (when
            // sharing) so later cancellations also exercise attached prefixes.
            engine.submit(requests[0].clone()).unwrap();
            engine.run(10_000);
            prop_assert!(engine.is_idle());

            // Phase: queued — cancelled before any step runs it.
            let queued = engine.submit(requests[1].clone()).unwrap();
            prop_assert!(engine.cancel(queued.id()));
            prop_assert!(engine.is_idle());

            // Phase: mid-prefill — one 3-token chunk of the prompt has run.
            let prefills_before = engine.stats().prefills;
            let prefilling = engine.submit(requests[2].clone()).unwrap();
            engine.step();
            prop_assert!(engine.running() == 1);
            prop_assert!(
                engine.stats().prefills == prefills_before,
                "prefill must still be mid-flight for the phase to be real"
            );
            prop_assert!(engine.cancel(prefilling.id()));
            prop_assert!(engine.is_idle());
            prop_assert!(engine.pool().blocks_reserved() == 0, "reservation leaked");

            // Phase: mid-decode — cancel once the first token has streamed.
            let decoding = engine.submit(requests[3].clone()).unwrap();
            let mut saw_token = false;
            for _ in 0..10_000 {
                engine.step();
                if engine
                    .drain_events_for(decoding.id())
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::FirstToken { .. }))
                {
                    saw_token = true;
                    break;
                }
                prop_assert!(!engine.is_idle(), "request retired before its first token");
            }
            prop_assert!(saw_token);
            prop_assert!(engine.cancel(decoding.id()));
            prop_assert!(engine.is_idle());

            // Nothing leaked: reservations are zero and the only blocks still
            // held are the registry's deliberate pins; clearing the registry
            // drains the pool to empty (with sharing off it already is).
            prop_assert!(engine.pool().blocks_reserved() == 0, "reservation leaked");
            if let Some(registry) = engine.prefix_registry() {
                registry.clear();
            } else {
                prop_assert!(!sharing);
            }
            prop_assert!(
                engine.pool().blocks_in_use() == 0,
                "cancelled requests leaked blocks (sharing={sharing}): {:?}",
                engine.pool_stats()
            );
            // Every cancellation is visible as a Cancelled failure.
            let cancelled = engine
                .failures()
                .iter()
                .filter(|f| matches!(f.reason, FailureReason::Cancelled))
                .count();
            prop_assert!(cancelled == 3);
        }
    }

    /// Property 3: under mixed-priority traffic with a deadline, a mid-flight
    /// cancellation and (possibly) preemption, every request's event stream
    /// is well-formed: `Queued` first, exactly one terminal event and nothing
    /// after it, `FirstToken` before any `Token`, contiguous token indices.
    #[test]
    fn event_streams_are_well_formed_under_mixed_traffic(
        num_requests in 4usize..7,
        base_len in 14usize..24,
        gen_tokens in 3usize..7,
        pool_slots in 24usize..64,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(37);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        let mut engine = Engine::new(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                pool_slots * bytes_per_token,
            )
            .with_block_size(4)
            .with_prefill_chunk(4)
            .with_decode_workers(decode_workers()),
        )
        .unwrap();
        let mut submitted: Vec<RequestId> = Vec::new();
        for i in 0..num_requests {
            let prompt: Vec<u32> = (0..base_len + 2 * i)
                .map(|t| (t as u32 * 13 + 5 + (i as u32 + 1) * 37 + seed as u32) % 120)
                .collect();
            let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed + i as u64);
            let options = SubmitOptions::new()
                .with_priority((i % 3) as u8)
                // One request carries a deadline it may or may not make.
                .with_deadline_steps(if i == 1 { 6 } else { usize::MAX / 2 });
            let handle = engine
                .submit_with(Request::new(i as u64, prompt, config), options)
                .unwrap();
            submitted.push(handle.id());
        }
        let victim = submitted[num_requests - 1];
        let mut cancelled_victim = false;
        let mut all_events: Vec<Event> = Vec::new();
        for step in 0..10_000 {
            if engine.is_idle() {
                break;
            }
            engine.step();
            all_events.extend(engine.drain_events());
            if step == 3 && !cancelled_victim {
                cancelled_victim = engine.cancel(victim);
                all_events.extend(engine.drain_events());
            }
        }
        prop_assert!(engine.is_idle(), "engine did not drain");
        all_events.extend(engine.drain_events());
        prop_assert!(
            engine.completions().len() + engine.failures().len() == num_requests,
            "every request retires exactly once"
        );
        for &id in &submitted {
            let events: Vec<&Event> = all_events.iter().filter(|e| e.id == id).collect();
            prop_assert!(!events.is_empty(), "{id}: no events");
            prop_assert!(
                events[0].kind == EventKind::Queued,
                "{id}: stream must start Queued: {events:?}"
            );
            let terminals = events.iter().filter(|e| e.kind.is_terminal()).count();
            prop_assert!(terminals == 1, "{id}: {terminals} terminal events: {events:?}");
            prop_assert!(
                events.last().unwrap().kind.is_terminal(),
                "{id}: events after the terminal: {events:?}"
            );
            let mut first_token_seen = false;
            let mut next_index = 1;
            for e in &events {
                match &e.kind {
                    EventKind::FirstToken { .. } => {
                        prop_assert!(!first_token_seen, "{id}: duplicate FirstToken");
                        first_token_seen = true;
                    }
                    EventKind::Token { index, .. } => {
                        prop_assert!(first_token_seen, "{id}: Token before FirstToken");
                        prop_assert!(*index == next_index, "{id}: index gap: {events:?}");
                        next_index += 1;
                    }
                    _ => {}
                }
            }
            // Completed requests surfaced every output token exactly once.
            if let Some(completion) = engine.completions().iter().find(|c| c.id == id) {
                let owned: Vec<Event> = events.iter().map(|e| (*e).clone()).collect();
                prop_assert!(
                    streamed_tokens(&owned) == completion.output.generated,
                    "{id}: streamed tokens diverged from the completion"
                );
            }
        }
        // The pool drains completely (sharing is off here).
        prop_assert!(engine.pool().blocks_in_use() == 0);
        prop_assert!(engine.pool().blocks_reserved() == 0);
    }
}

/// Deterministic preempted-phase cancellation: the dry-strict-pool scenario
/// preempts the young decoder; cancelling it while re-queued must leak
/// nothing and leave the survivor to finish normally.
#[test]
fn cancelling_a_preempted_request_leaks_nothing() {
    let model = ModelFamily::Tiny.build(17);
    let bytes = model.empty_cache().bytes_per_token();
    let budget = CacheBudgetSpec::new(0.5, 0.3).unwrap();
    let mut engine = Engine::new(
        &model,
        ServerConfig::new(PolicySpec::keyformer_default(), Some(budget), 28 * bytes)
            .with_block_size(4)
            .with_prefill_chunk(4)
            .with_strict_pool(true)
            .with_decode_workers(decode_workers()),
    )
    .unwrap();
    engine
        .submit(Request::new(
            0,
            (0..16).map(|t| (t * 13 + 5) % 120).collect(),
            GenerationConfig::new(24),
        ))
        .unwrap();
    engine
        .submit(Request::new(
            1,
            (0..24).map(|t| (t * 13 + 22) % 120).collect(),
            GenerationConfig::new(4),
        ))
        .unwrap();
    let mut preempted_id = None;
    for _ in 0..2_000 {
        if engine.is_idle() {
            break;
        }
        engine.step();
        if preempted_id.is_none() {
            preempted_id = engine
                .drain_events()
                .iter()
                .find(|e| e.kind == EventKind::Preempted)
                .map(|e| e.id);
            if let Some(id) = preempted_id {
                // The request sits in the queue, preempted: cancel it there.
                assert!(engine.cancel(id), "preempted request not cancellable");
            }
        }
    }
    let preempted_id = preempted_id.expect("scenario must preempt");
    assert!(engine.is_idle(), "engine did not drain");
    assert_eq!(engine.completions().len(), 1, "the survivor completes");
    assert_ne!(engine.completions()[0].id, preempted_id);
    let cancelled: Vec<_> = engine
        .failures()
        .iter()
        .filter(|f| matches!(f.reason, FailureReason::Cancelled))
        .collect();
    assert_eq!(cancelled.len(), 1);
    assert_eq!(cancelled[0].id, preempted_id);
    assert_eq!(engine.pool().blocks_in_use(), 0, "preempted cancel leaked");
    assert_eq!(engine.pool().blocks_reserved(), 0);
    assert_eq!(engine.stats().cancelled, 1);
}
