//! Prefix-sharing and copy-on-write properties: attaching to cached prefix
//! blocks, forking sessions, evicting inside shared blocks, preempting
//! mid-prefill and evicting registry entries under a live reader must all be
//! invisible in the generated tokens — for every policy in the zoo — and must
//! never leak or corrupt pool blocks.

use keyformer::core::block::SharedBlockPool;
use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::prefix::{policy_context, SharedPrefixRegistry};
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;
use keyformer::serve::{Engine, Request, ServerConfig};
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
        .map(|i| (i as u32 * 13 + 5 + salt * 37) % 120)
        .collect()
}

/// A prompt sharing its first `shared` tokens with `synthetic_prompt(_, salt)`
/// and unique beyond.
fn suffixed_prompt(shared: usize, total: usize, salt: u32, suffix_salt: u32) -> Vec<u32> {
    let mut p = synthetic_prompt(shared, salt);
    p.extend(
        (shared..total).map(|i| (i as u32 * 13 + 5 + salt * 37 + (suffix_salt + 1) * 29) % 120),
    );
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A session that attaches to a registered prefix generates exactly the
    /// tokens a cold start does, for every policy in the zoo — the registry's
    /// policy snapshots carry accumulated scores and RNG position across the
    /// skipped forwards.
    #[test]
    fn prefix_attached_sessions_match_cold_starts_across_the_zoo(
        shared_len in 9usize..24,
        total_len in 26usize..36,
        gen_tokens in 3usize..7,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(31);
        for (policy, budget) in policy_zoo() {
            let pool = SharedBlockPool::unbounded(4);
            let registry = SharedPrefixRegistry::new(&pool);
            let context = policy_context(&policy);
            let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
            let donor_prompt = suffixed_prompt(shared_len, total_len, 1, 0);
            let attach_prompt = suffixed_prompt(shared_len, total_len, 1, 7);

            // Donor registers while generating; registration must not perturb it.
            let mut donor = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).with_prefix_registry(registry.clone(), context);
            let donor_out = donor.generate(&donor_prompt, &config).unwrap();
            let cold_donor = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).generate(&donor_prompt, &config).unwrap();
            prop_assert!(donor_out == cold_donor, "{}: registration perturbed the donor", policy.label());

            // Attacher reuses the shared prefix blocks and matches a cold run.
            let mut attacher = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).with_prefix_registry(registry.clone(), context);
            let reused = attacher.begin_with_prefix(&attach_prompt, &config).unwrap();
            prop_assert!(reused == shared_len / 4 * 4, "{}: expected a full-block attach, reused {}", policy.label(), reused);
            while attacher.is_decoding() {
                attacher.step().unwrap();
            }
            let attached_out = attacher.take_output().unwrap();
            let cold_out = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).generate(&attach_prompt, &config).unwrap();
            prop_assert!(
                attached_out == cold_out,
                "{}: attached generation diverged from cold start", policy.label()
            );

            // An eviction inside the shared prefix (budgeted policies compact
            // into attached blocks) must not have corrupted the registry: a
            // second attacher still matches its own cold start.
            let second_prompt = suffixed_prompt(shared_len, total_len, 1, 13);
            let mut second = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).with_prefix_registry(registry.clone(), context);
            second.begin_with_prefix(&second_prompt, &config).unwrap();
            while second.is_decoding() {
                second.step().unwrap();
            }
            let second_out = second.take_output().unwrap();
            let second_cold = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).generate(&second_prompt, &config).unwrap();
            prop_assert!(
                second_out == second_cold,
                "{}: shared blocks were corrupted by a previous attacher's eviction", policy.label()
            );

            // Dropping every session and clearing the registry drains the pool.
            drop(donor);
            drop(attacher);
            drop(second);
            registry.clear();
            prop_assert!(pool.blocks_in_use() == 0, "{}: leaked blocks", policy.label());
        }
    }

    /// Forking a session at any point of its decode yields a fork that
    /// finishes exactly like the original, for every policy — and the two
    /// sides never corrupt each other through the CoW-shared blocks.
    #[test]
    fn forked_sessions_match_their_original_across_the_zoo(
        prompt_len in 16usize..30,
        gen_tokens in 4usize..8,
        fork_at in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(33);
        for (policy, budget) in policy_zoo() {
            let pool = SharedBlockPool::unbounded(4);
            let config = GenerationConfig::new(gen_tokens).with_top_k(16, 2.0, seed);
            let prompt = synthetic_prompt(prompt_len, 3);
            let reference = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            ).generate(&prompt, &config).unwrap();

            let mut original = Session::with_pool(
                &model, policy.build().unwrap(), budget, pool.clone(),
            );
            original.begin(&prompt, &config).unwrap();
            for _ in 0..fork_at.min(gen_tokens.saturating_sub(1)) {
                original.step().unwrap();
            }
            let mut fork = original.fork().unwrap();
            // Interleave the two decodes so CoW writes genuinely overlap.
            loop {
                let mut progressed = false;
                if original.is_decoding() {
                    original.step().unwrap();
                    progressed = true;
                }
                if fork.is_decoding() {
                    fork.step().unwrap();
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            let a = original.take_output().unwrap();
            let b = fork.take_output().unwrap();
            prop_assert!(a == reference, "{}: original diverged after forking", policy.label());
            prop_assert!(b == reference, "{}: fork diverged from original", policy.label());
            drop(original);
            drop(fork);
            prop_assert!(pool.blocks_in_use() == 0, "{}: leaked blocks", policy.label());
        }
    }
}

/// Registry eviction while a reader is attached: the reader keeps decoding
/// correctly from its own refcounts, later attachments simply miss.
#[test]
fn registry_eviction_under_a_live_reader_is_safe() {
    let model = ModelFamily::Tiny.build(35);
    let pool = SharedBlockPool::unbounded(4);
    let registry = SharedPrefixRegistry::new(&pool);
    let spec = PolicySpec::keyformer_default();
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    let context = policy_context(&spec);
    let config = GenerationConfig::new(6);
    let prompt = suffixed_prompt(16, 28, 5, 0);
    let reference = Session::with_pool(&model, spec.build().unwrap(), budget, pool.clone())
        .generate(&prompt, &config)
        .unwrap();

    let mut donor = Session::with_pool(&model, spec.build().unwrap(), budget, pool.clone())
        .with_prefix_registry(registry.clone(), context);
    donor.generate(&prompt, &config).unwrap();

    // Reader attaches mid-prefill (chunked), then the registry is emptied
    // under it.
    let reader_prompt = suffixed_prompt(16, 28, 5, 3);
    let mut reader = Session::with_pool(&model, spec.build().unwrap(), budget, pool.clone())
        .with_prefix_registry(registry.clone(), context)
        .with_prefill_chunk(4);
    let reused = reader.begin_with_prefix(&reader_prompt, &config).unwrap();
    assert_eq!(reused, 16);
    reader.advance_prefill().unwrap();
    registry.clear();
    assert!(registry.is_empty());
    while reader.is_prefilling() {
        reader.advance_prefill().unwrap();
    }
    while reader.is_decoding() {
        reader.step().unwrap();
    }
    let reader_out = reader.take_output().unwrap();
    let reader_cold = Session::with_pool(&model, spec.build().unwrap(), budget, pool.clone())
        .generate(&reader_prompt, &config)
        .unwrap();
    assert_eq!(
        reader_out, reader_cold,
        "registry eviction must not disturb an attached reader"
    );

    // After eviction, new begin_with_prefix calls miss and run cold — still
    // correct.
    let mut late = Session::with_pool(&model, spec.build().unwrap(), budget, pool.clone())
        .with_prefix_registry(registry.clone(), context);
    // The donor re-registered nothing since the clear, but *reader* and
    // *donor* forwards after the clear may have re-registered blocks; either
    // way the output must match cold.
    late.begin_with_prefix(&prompt, &config).unwrap();
    while late.is_decoding() {
        late.step().unwrap();
    }
    assert_eq!(late.take_output().unwrap(), reference);

    drop(donor);
    drop(reader);
    drop(late);
    registry.clear();
    assert_eq!(
        pool.blocks_in_use(),
        0,
        "leaked blocks after eviction dance"
    );
}

/// Preempt-then-resume mid-prefill on a strict pool: the preempted request is
/// re-admitted, re-prefilled (re-attaching its shared prefix) and completes
/// token-identically; the pool never overshoots and nothing leaks.
#[test]
fn preempt_then_resume_mid_prefill_is_token_identical() {
    let model = ModelFamily::Tiny.build(37);
    let bytes = model.empty_cache().bytes_per_token();
    let budget = Some(CacheBudgetSpec::new(0.5, 0.3).unwrap());
    let spec = PolicySpec::keyformer_default();
    let base = ServerConfig::new(spec, budget, 28 * bytes)
        .with_block_size(4)
        .with_prefill_chunk(4)
        .with_strict_pool(true);
    for config in [base, base.with_prefix_sharing(true)] {
        let mut server = Engine::new(&model, config).unwrap();
        // A long decoder admitted first, then a fat prompt whose prefill
        // transient cannot fit alongside it: the prefill stalls, and after
        // PREEMPT_AFTER_STALLS steps the younger decoder is swapped out.
        server
            .submit(Request::new(
                0,
                synthetic_prompt(16, 0),
                GenerationConfig::new(24),
            ))
            .unwrap();
        server
            .submit(Request::new(
                1,
                synthetic_prompt(24, 1),
                GenerationConfig::new(4),
            ))
            .unwrap();
        let capacity = server.total_blocks();
        let mut preempted = 0;
        for _ in 0..2_000 {
            if server.is_idle() {
                break;
            }
            let report = server.step();
            preempted += report.preempted;
            assert!(
                server.pool().blocks_in_use() <= capacity,
                "strict pool overshot during preemption"
            );
        }
        assert!(
            server.is_idle(),
            "scheduler failed to drain within the step bound (sharing={}): \
             queued {}, running {}",
            config.prefix_sharing,
            server.queued(),
            server.running()
        );
        if config.prefix_sharing {
            // Pressure relief escalates: registry pins are reclaimed first,
            // and preemption only fires if that was not enough. Either way the
            // dry pool must have forced one of the two.
            let evictions = server.registry_stats().unwrap().evictions;
            assert!(
                evictions > 0 || preempted > 0,
                "scenario must exercise pressure relief (evictions {evictions}, preempted {preempted})"
            );
        } else {
            assert!(preempted > 0, "scenario must exercise preemption");
        }
        assert!(server.failures().is_empty(), "{:?}", server.failures());
        assert_eq!(server.completions().len(), 2);
        for (id, len, gen) in [(0u64, 16usize, 24usize), (1, 24, 4)] {
            let alone = Session::with_pool(
                &model,
                spec.build().unwrap(),
                budget,
                SharedBlockPool::unbounded(4),
            )
            .generate(
                &synthetic_prompt(len, id as u32),
                &GenerationConfig::new(gen),
            )
            .unwrap();
            let completion = server
                .completions()
                .iter()
                .find(|c| c.id.raw() == id)
                .unwrap();
            assert_eq!(
                completion.output, alone,
                "request {id} diverged after preemption (sharing={})",
                config.prefix_sharing
            );
        }
        if let Some(registry) = server.prefix_registry() {
            registry.clear();
        }
        assert_eq!(server.pool().blocks_in_use(), 0, "leaked blocks");
    }
}
