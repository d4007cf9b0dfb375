//! Session-level byte-identity of the product forward against the reference
//! forward (`crate::reference`), across the configuration space the serving
//! stack exercises.
//!
//! Each test runs the same request twice: once on a default session, and
//! once on a session whose `reference_forward` seam forwards every token on
//! its own through the allocating reference pass — observations delivered
//! directly, statistics recorded directly, prefixes registered and peak bytes
//! sampled per token. Both sessions share the one prefill driver, so its
//! admission decisions are the same on both sides; what is compared is the
//! forward. The product forward reorders the *schedule* (layer-major chunk
//! GEMMs, bulk appends, cached key rotations, deferred observation replay)
//! but never the per-token arithmetic, and these tests are the contract that
//! the reordering is unobservable: the same tokens, cache shapes and byte
//! watermarks, attention-statistics bits and pool counters, for every policy
//! in the zoo, both KV dtypes, any chunk size, and with copy-on-write prefix
//! sharing, forks and preemption in the mix.

use crate::families::ModelFamily;
use crate::generation::{GenerationConfig, GenerationOutput};
use crate::session::Session;
use keyformer_core::block::SharedBlockPool;
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::prefix::{policy_context, SharedPrefixRegistry};
use keyformer_core::spec::PolicySpec;
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

/// The decode-side prompts (`salt` varies the content).
fn decode_prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len)
        .map(|i| (i as u32 * 13 + 5 + salt * 37) % 120)
        .collect()
}

/// The prefill-side prompts (`salt` varies the content).
fn prefill_prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len)
        .map(|i| (i as u32 * 11 + 3 + salt * 29) % 120)
        .collect()
}

/// `session`, switched to the reference forward when `reference` is set.
fn forward_by(mut session: Session<'_>, reference: bool) -> Session<'_> {
    session.reference_forward = reference;
    session
}

/// The forward a test case ran on, for failure messages.
fn label(reference: bool) -> &'static str {
    if reference {
        "reference"
    } else {
        "product"
    }
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

    /// Zoo × dtype: a product generation is byte-identical to the
    /// reference's — the full [`GenerationOutput`] (tokens, per-step cache
    /// sizes, peak bytes), not just the token stream. Top-k sampling makes the
    /// comparison sensitive to the exact logit bits: one ULP of divergence
    /// reorders candidates and the streams split.
    #[test]
    fn workspace_path_is_byte_identical_across_zoo_and_dtypes(
        prompt_len in 18usize..40,
        gen_tokens in 4usize..10,
        seed in 0u64..1_000,
        salt in 0u32..8,
    ) {
        let model = ModelFamily::Tiny.build(37);
        let prompt = decode_prompt(prompt_len, salt);
        let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
        for (policy, budget) in policy_zoo() {
            for dtype in [KvDtype::F32, KvDtype::U8] {
                let reference = forward_by(Session::with_dtype(
                    &model, policy.build().unwrap(), budget, dtype,
                ), true).generate(&prompt, &config).unwrap();
                let product = Session::with_dtype(
                    &model, policy.build().unwrap(), budget, dtype,
                ).generate(&prompt, &config).unwrap();
                prop_assert!(
                    reference == product,
                    "{} @ {dtype:?}: the product forward diverged from the reference",
                    policy.label()
                );
            }
        }
    }

    /// Prefix sharing on: a product session that attaches to blocks a
    /// reference donor registered generates exactly what a reference cold
    /// start does — and vice versa. Attached blocks arrive with foreign
    /// generations, and budgeted policies compact *inside* them mid-decode,
    /// so this is the rotated-key cache's invalidation logic under fire.
    #[test]
    fn workspace_path_is_byte_identical_under_prefix_sharing(
        shared_len in 12usize..24,
        gen_tokens in 3usize..7,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(37);
        let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
        let shared = decode_prompt(shared_len, 1);
        for (policy, budget) in policy_zoo() {
            for (donor_reference, attach_reference) in [(true, false), (false, true)] {
                let pool = SharedBlockPool::unbounded(4);
                let registry = SharedPrefixRegistry::new(&pool);
                let context = policy_context(&policy);

                let mut donor_prompt = shared.clone();
                donor_prompt.extend(decode_prompt(8, 2).iter().map(|t| t + 1));
                let mut attach_prompt = shared.clone();
                attach_prompt.extend(decode_prompt(8, 3).iter().map(|t| t + 2));

                let mut donor = forward_by(Session::with_pool(
                    &model, policy.build().unwrap(), budget, pool.clone(),
                ).with_prefix_registry(registry.clone(), context), donor_reference);
                donor.generate(&donor_prompt, &config).unwrap();

                let mut attacher = forward_by(Session::with_pool(
                    &model, policy.build().unwrap(), budget, pool.clone(),
                ).with_prefix_registry(registry.clone(), context), attach_reference);
                attacher.begin_with_prefix(&attach_prompt, &config).unwrap();
                while attacher.is_decoding() {
                    attacher.step().unwrap();
                }
                let attached = attacher.take_output().unwrap();

                let cold = forward_by(Session::with_pool(
                    &model, policy.build().unwrap(), budget, pool.clone(),
                ), true).generate(&attach_prompt, &config).unwrap();
                prop_assert!(
                    attached == cold,
                    "{}: {} attacher onto a {} donor diverged from a reference cold start",
                    policy.label(),
                    label(attach_reference),
                    label(donor_reference)
                );
            }
        }
    }

    /// A forked session (cloned rotated-key caches over shared blocks)
    /// continues exactly like its donor would have, and the donor is
    /// undisturbed — on both forwards.
    #[test]
    fn forked_workspace_sessions_decode_identically(
        prompt_len in 18usize..30,
        gen_tokens in 4usize..8,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(37);
        let prompt = decode_prompt(prompt_len, 5);
        let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
        for (policy, budget) in policy_zoo() {
            for reference in [true, false] {
                let pool = SharedBlockPool::unbounded(4);
                let mut donor = forward_by(Session::with_pool(
                    &model, policy.build().unwrap(), budget, pool.clone(),
                ), reference);
                donor.begin(&prompt, &config).unwrap();
                while donor.is_prefilling() {
                    donor.advance_prefill().unwrap();
                }
                donor.step().unwrap();
                let mut fork = donor.fork().unwrap();
                while donor.is_decoding() {
                    donor.step().unwrap();
                }
                while fork.is_decoding() {
                    fork.step().unwrap();
                }
                let donor_out = donor.take_output().unwrap();
                let fork_out = fork.take_output().unwrap();
                prop_assert!(
                    donor_out == fork_out,
                    "{} @ {}: fork diverged from its donor",
                    policy.label(),
                    label(reference)
                );
            }
        }
    }

    /// Product == reference for every policy, both dtypes and any chunk
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
        let prompt = prefill_prompt(prompt_len, 3);
        for dtype in [KvDtype::F32, KvDtype::U8] {
            for (policy, budget) in policy_zoo() {
                let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
                let mut sequential = forward_by(
                    Session::with_dtype(&model, policy.build().unwrap(), budget, dtype),
                    true,
                )
                .with_prefill_chunk(chunk);
                sequential.begin(&prompt, &config).unwrap();
                let expected = finish(&mut sequential);
                let mut batched =
                    Session::with_dtype(&model, policy.build().unwrap(), budget, dtype)
                        .with_prefill_chunk(chunk);
                prop_assert!(!batched.reference_forward, "sessions run the product forward");
                batched.begin(&prompt, &config).unwrap();
                let actual = finish(&mut batched);
                prop_assert!(
                    actual == expected,
                    "{}/{:?}: chunk {} diverged from the reference",
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
        let prompt = prefill_prompt(prompt_len, 4);
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = GenerationConfig::new(3);
        let run = |reference: bool| {
            let mut session = forward_by(Session::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                budget,
            ), reference)
            .with_prefill_chunk(chunk);
            session.enable_stats();
            session.begin(&prompt, &config).unwrap();
            let output = finish(&mut session);
            let records = format!("{:?}", session.stats().unwrap().records());
            (output, records)
        };
        let (seq_out, seq_records) = run(true);
        let (bat_out, bat_records) = run(false);
        prop_assert!(bat_out == seq_out);
        prop_assert_eq!(bat_records, seq_records);
    }

    /// Prefix attachment: a donor registers its prompt blocks mid-chunk, an
    /// attacher resumes from the snapshot, and both match the reference
    /// bit-for-bit (including the pool's final accounting).
    #[test]
    fn batched_prefix_attach_matches_sequential(
        suffix_salt in 1u32..50,
        chunk in 1usize..10,
    ) {
        let shared = prefill_prompt(16, 9);
        let mut full = shared.clone();
        full.extend(prefill_prompt(24, suffix_salt).split_off(16));
        let model = ModelFamily::Tiny.build(33);
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = GenerationConfig::new(4);
        let run = |reference: bool| {
            let pool = SharedBlockPool::unbounded(4);
            let registry = SharedPrefixRegistry::new(&pool);
            let mk = |ctx: u64| {
                forward_by(Session::with_pool(
                    &model,
                    PolicySpec::keyformer_default().build().unwrap(),
                    budget,
                    pool.clone(),
                ), reference)
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
        let expected = run(true);
        let actual = run(false);
        prop_assert!(actual.1 > 0, "the cached prefix must attach");
        prop_assert!(actual == expected, "attach flow diverged between the forwards");
    }

    /// Forking a session between two `advance_prefill` calls: both sides
    /// resume, and both match the reference fork at the same point.
    #[test]
    fn batched_fork_mid_prefill_matches_sequential(
        prompt_len in 14usize..36,
        chunk in 2usize..8,
        gen_tokens in 2usize..5,
    ) {
        let model = ModelFamily::Tiny.build(34);
        let prompt = prefill_prompt(prompt_len, 6);
        let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
        let config = GenerationConfig::new(gen_tokens);
        let run = |reference: bool| {
            let pool = SharedBlockPool::unbounded(4);
            let mut original = forward_by(Session::with_pool(
                &model,
                PolicySpec::h2o_default().build().unwrap(),
                budget,
                pool.clone(),
            ), reference)
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
        let (seq_a, seq_b) = run(true);
        let (bat_a, bat_b) = run(false);
        prop_assert!(seq_a == seq_b, "fork must continue identically");
        prop_assert!(bat_a == seq_a && bat_b == seq_b, "fork flow diverged");
    }
}

/// Long prompts on the paper-scale families, where the attention GEMMs span
/// many 16-slot key panels and, under ALiBi, far keys' probabilities underflow
/// to subnormals and exact zeros (the proptests above stay on `Tiny` with
/// prompts under 40 tokens and reach neither): at chunk 128 and one-shot, the
/// generated stream, the cache watermarks and every prompt-phase softmax row
/// the deferred replay reconstructs must equal the reference's, by bits.
fn long_prompt_matches_sequential(family: ModelFamily) {
    let model = family.build(41);
    let prompt: Vec<u32> = (0..491u32)
        .map(|i| 16 + (i * 37 + i / 7 * 11) % 1000)
        .collect();
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    let config = GenerationConfig::new(6);
    let run = |reference: bool, chunk: Option<usize>| {
        let mut session = forward_by(
            Session::new(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                budget,
            ),
            reference,
        );
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
    let expected = run(true, None);
    if family == ModelFamily::MptLike {
        assert!(
            expected.3 > 0 && expected.4 > 0,
            "the ALiBi case must reach subnormal and exactly-zero probabilities"
        );
    }
    for chunk in [Some(128), None] {
        assert!(
            run(false, chunk) == expected,
            "{family}: chunk {chunk:?} diverged from the reference"
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

/// Preempt-then-recompute: abort a half-done prefill (as a scheduler
/// preemption would), rerun it from scratch, and the recompute matches the
/// reference's output and leaks nothing.
#[test]
fn batched_preempt_then_recompute_matches_sequential() {
    let model = ModelFamily::Tiny.build(35);
    let prompt = prefill_prompt(26, 8);
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    let config = GenerationConfig::new(4);
    let run = |reference: bool| {
        let pool = SharedBlockPool::unbounded(4);
        let mut session = forward_by(
            Session::with_pool(
                &model,
                PolicySpec::keyformer_default().build().unwrap(),
                budget,
                pool.clone(),
            ),
            reference,
        )
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
    assert!(run(false) == run(true));
}
