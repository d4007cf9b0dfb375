//! Chunk-batched prefill identity: the GEMM-batched prompt path
//! (`ForwardPath::Workspace`, the default) must be *byte-identical* to the
//! token-at-a-time loop (`ForwardPath::Legacy`) — same generated tokens, same
//! cache shapes and byte watermarks, same attention statistics bits, same
//! pool counters and the same stall points against a dry strict pool — for
//! every policy in the zoo, both KV dtypes, any chunk size, and across the
//! sharing machinery (prefix attachment, mid-prefill forks, stall/resume).
//!
//! The batched path reorders the *schedule* (layer-major per chunk, bulk
//! appends, deferred policy-observation replay) but never the per-token
//! arithmetic; these tests are the contract that the reordering is
//! unobservable.

use keyformer::core::block::{OvercommitPolicy, SharedBlockPool};
use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::cache::KvDtype;
use keyformer::core::prefix::SharedPrefixRegistry;
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::{GenerationConfig, GenerationOutput};
use keyformer::model::session::Session;
use keyformer::model::workspace::ForwardPath;
use proptest::prelude::*;

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

fn synthetic_prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len)
        .map(|i| (i as u32 * 11 + 3 + salt * 29) % 120)
        .collect()
}

/// Drives a session to completion through chunked prefill + decode.
fn finish(session: &mut Session<'_>) -> GenerationOutput {
    while session.is_prefilling() {
        session.advance_prefill().unwrap();
    }
    while session.is_decoding() {
        session.step().unwrap();
    }
    session.take_output().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Batched == sequential for every policy, both dtypes and any chunk
    /// size: generated stream, final cache shape, and the peak byte
    /// watermark (which on `u8` must see the f32-staged rows a
    /// quantize-on-seal collapses mid-chunk).
    #[test]
    fn batched_prefill_matches_sequential_across_zoo(
        prompt_len in 12usize..40,
        chunk in 1usize..12,
        gen_tokens in 2usize..6,
        seed in 0u64..500,
    ) {
        let model = ModelFamily::Tiny.build(31);
        let prompt = synthetic_prompt(prompt_len, 3);
        for dtype in [KvDtype::F32, KvDtype::U8] {
            for (policy, budget) in policy_zoo() {
                let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
                let mut sequential =
                    Session::with_dtype(&model, policy.build().unwrap(), budget, dtype)
                        .with_forward_path(ForwardPath::Legacy)
                        .with_prefill_chunk(chunk);
                sequential.begin(&prompt, &config).unwrap();
                let expected = finish(&mut sequential);
                let mut batched =
                    Session::with_dtype(&model, policy.build().unwrap(), budget, dtype)
                        .with_prefill_chunk(chunk);
                prop_assert_eq!(batched.forward_path(), ForwardPath::Workspace);
                batched.begin(&prompt, &config).unwrap();
                let actual = finish(&mut batched);
                prop_assert!(
                    actual == expected,
                    "{}/{:?}: chunk {} diverged from the sequential path",
                    policy.label(),
                    dtype,
                    chunk
                );
            }
        }
    }

    /// The deferred observation replay also reproduces the attention
    /// statistics stream bit-for-bit: same records, in the same order, with
    /// the same softmax bits and position tables.
    #[test]
    fn batched_prefill_replays_identical_attention_statistics(
        prompt_len in 10usize..30,
        chunk in 1usize..9,
    ) {
        let model = ModelFamily::Tiny.build(31);
        let prompt = synthetic_prompt(prompt_len, 4);
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = GenerationConfig::new(3);
        let run = |path: ForwardPath| {
            let mut session = Session::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                budget,
            )
            .with_forward_path(path)
            .with_prefill_chunk(chunk);
            session.enable_stats();
            session.begin(&prompt, &config).unwrap();
            let output = finish(&mut session);
            let records = format!("{:?}", session.stats().unwrap().records());
            (output, records)
        };
        let (seq_out, seq_records) = run(ForwardPath::Legacy);
        let (bat_out, bat_records) = run(ForwardPath::Workspace);
        prop_assert!(bat_out == seq_out);
        prop_assert_eq!(bat_records, seq_records);
    }

    /// Prefix attachment under the batched path: a donor registers its prompt
    /// blocks mid-chunk, an attacher resumes from the snapshot, and both
    /// match the sequential path bit-for-bit (including the pool's final
    /// accounting).
    #[test]
    fn batched_prefix_attach_matches_sequential(
        suffix_salt in 1u32..50,
        chunk in 1usize..10,
    ) {
        let shared = synthetic_prompt(16, 9);
        let mut full = shared.clone();
        full.extend(synthetic_prompt(24, suffix_salt).split_off(16));
        let model = ModelFamily::Tiny.build(33);
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = GenerationConfig::new(4);
        let run = |path: ForwardPath| {
            let pool = SharedBlockPool::unbounded(4);
            let registry = SharedPrefixRegistry::new(&pool);
            let mk = |ctx: u64| {
                Session::with_pool(
                    &model,
                    PolicySpec::keyformer_default().build().unwrap(),
                    budget,
                    pool.clone(),
                )
                .with_forward_path(path)
                .with_prefill_chunk(chunk)
                .with_prefix_registry(registry.clone(), ctx)
            };
            let mut donor = mk(1);
            let donor_out = donor.generate(&full, &config).unwrap();
            let mut attacher = mk(1);
            let reused = attacher.begin_with_prefix(&full, &config).unwrap();
            let attacher_out = finish(&mut attacher);
            drop(donor);
            drop(attacher);
            (donor_out, reused, attacher_out, pool.blocks_in_use())
        };
        let expected = run(ForwardPath::Legacy);
        let actual = run(ForwardPath::Workspace);
        prop_assert!(actual.1 > 0, "the cached prefix must attach");
        prop_assert!(actual == expected, "attach flow diverged between paths");
    }

    /// Forking a session between two batched `advance_prefill` calls: both
    /// sides resume, and both match the sequential fork at the same point.
    #[test]
    fn batched_fork_mid_prefill_matches_sequential(
        prompt_len in 14usize..36,
        chunk in 2usize..8,
        gen_tokens in 2usize..5,
    ) {
        let model = ModelFamily::Tiny.build(34);
        let prompt = synthetic_prompt(prompt_len, 6);
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = GenerationConfig::new(gen_tokens);
        let run = |path: ForwardPath| {
            let pool = SharedBlockPool::unbounded(4);
            let mut original = Session::with_pool(
                &model,
                PolicySpec::h2o_default().build().unwrap(),
                budget,
                pool.clone(),
            )
            .with_forward_path(path)
            .with_prefill_chunk(chunk);
            original.begin(&prompt, &config).unwrap();
            original.advance_prefill().unwrap();
            let mut fork = original.fork().unwrap();
            let a = finish(&mut original);
            let b = finish(&mut fork);
            drop(original);
            drop(fork);
            assert_eq!(pool.blocks_in_use(), 0, "forked blocks all returned");
            (a, b)
        };
        let (seq_a, seq_b) = run(ForwardPath::Legacy);
        let (bat_a, bat_b) = run(ForwardPath::Workspace);
        prop_assert!(seq_a == seq_b, "fork must continue identically");
        prop_assert!(bat_a == seq_a && bat_b == seq_b, "fork flow diverged");
    }
}

/// Long prompts on the paper-scale families, where the attention GEMMs span
/// many 16-slot key panels and, under ALiBi, far keys' probabilities underflow
/// to subnormals and exact zeros (the proptests above stay on `Tiny` with
/// prompts under 40 tokens and reach neither): at chunk 128 and one-shot, the
/// generated stream, the cache watermarks and every prompt-phase softmax row
/// the deferred replay reconstructs must equal the sequential path's, by bits.
fn long_prompt_matches_sequential(family: ModelFamily) {
    let model = family.build(41);
    let prompt: Vec<u32> = (0..491u32)
        .map(|i| 16 + (i * 37 + i / 7 * 11) % 1000)
        .collect();
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    let config = GenerationConfig::new(6);
    let run = |path: ForwardPath, chunk: Option<usize>| {
        let mut session = Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            budget,
        )
        .with_forward_path(path);
        session.set_prefill_chunk(chunk);
        session.enable_stats();
        session.begin(&prompt, &config).unwrap();
        let output = finish(&mut session);
        // FNV-1a over the probability bits of every record, in order.
        let records = session.stats().unwrap().records();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let (mut subnormal, mut zero) = (0usize, 0usize);
        for p in records.iter().flat_map(|r| r.probs.iter()) {
            hash = (hash ^ u64::from(p.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
            subnormal += usize::from(p.is_subnormal());
            zero += usize::from(*p == 0.0);
        }
        (output, records.len(), hash, subnormal, zero)
    };
    let expected = run(ForwardPath::Legacy, None);
    if family == ModelFamily::MptLike {
        assert!(
            expected.3 > 0 && expected.4 > 0,
            "the ALiBi case must reach subnormal and exactly-zero probabilities"
        );
    }
    for chunk in [Some(128), None] {
        assert!(
            run(ForwardPath::Workspace, chunk) == expected,
            "{family}: chunk {chunk:?} diverged from the sequential path"
        );
    }
}

#[test]
fn long_alibi_prompt_matches_sequential() {
    long_prompt_matches_sequential(ModelFamily::MptLike);
}

#[test]
fn long_rope_prompt_matches_sequential() {
    long_prompt_matches_sequential(ModelFamily::GptJLike);
}

/// Stall/resume against a dry strict pool: the batched admission (one exact
/// block-need query + largest-fitting-prefix) must stop at exactly the token
/// the sequential per-token pre-flight stalled at, report the same progress
/// numbers, and resume to the same output once blocks free up.
#[test]
fn batched_stall_points_match_sequential_on_a_strict_pool() {
    let model = ModelFamily::Tiny.build(3);
    for chunk in [1usize, 3, 4, 7, 14] {
        let run = |path: ForwardPath| {
            // 2 layers x 4-slot blocks, 8 blocks total; a neighbour holds 4.
            let pool = SharedBlockPool::bounded(4, 8, OvercommitPolicy::Strict).unwrap();
            let mut blocker = Session::with_pool(
                &model,
                PolicySpec::Full.build().unwrap(),
                None,
                pool.clone(),
            );
            blocker
                .generate(&synthetic_prompt(6, 1), &GenerationConfig::new(1))
                .unwrap();
            let mut session = Session::with_pool(
                &model,
                PolicySpec::Full.build().unwrap(),
                None,
                pool.clone(),
            )
            .with_forward_path(path)
            .with_prefill_chunk(chunk);
            session
                .begin(&synthetic_prompt(14, 2), &GenerationConfig::new(2))
                .unwrap();
            // Drive to the stall, recording every progress report.
            let mut reports = Vec::new();
            loop {
                let p = session.advance_prefill().unwrap();
                reports.push((p.processed, p.remaining, p.ready, p.stalled));
                if p.stalled && p.processed == 0 {
                    break;
                }
            }
            drop(blocker);
            while session.is_prefilling() {
                let p = session.advance_prefill().unwrap();
                reports.push((p.processed, p.remaining, p.ready, p.stalled));
            }
            while session.is_decoding() {
                session.step().unwrap();
            }
            (reports, session.take_output().unwrap())
        };
        let expected = run(ForwardPath::Legacy);
        let actual = run(ForwardPath::Workspace);
        assert_eq!(
            actual, expected,
            "chunk {chunk}: stall progression diverged between paths"
        );
    }
}

/// Preempt-then-recompute: abort a half-done batched prefill (as a scheduler
/// preemption would), rerun it from scratch, and the recompute matches the
/// sequential path's output and leaks nothing.
#[test]
fn batched_preempt_then_recompute_matches_sequential() {
    let model = ModelFamily::Tiny.build(35);
    let prompt = synthetic_prompt(26, 8);
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    let config = GenerationConfig::new(4);
    let run = |path: ForwardPath| {
        let pool = SharedBlockPool::unbounded(4);
        let mut session = Session::with_pool(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            budget,
            pool.clone(),
        )
        .with_forward_path(path)
        .with_prefill_chunk(5);
        session.begin(&prompt, &config).unwrap();
        session.advance_prefill().unwrap();
        session.advance_prefill().unwrap();
        // Preemption: the scheduler drops the half-done prefill...
        session.reset();
        assert_eq!(pool.blocks_in_use(), 0, "preempted prefill leaked blocks");
        // ...and later recomputes the request from scratch.
        session.begin(&prompt, &config).unwrap();
        let out = finish(&mut session);
        drop(session);
        assert_eq!(pool.blocks_in_use(), 0);
        out
    };
    assert!(run(ForwardPath::Workspace) == run(ForwardPath::Legacy));
}
