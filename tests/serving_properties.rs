//! Serving-layer properties: for every policy in the zoo, pushing N requests
//! through the continuous-batching scheduler produces token-identical outputs to
//! running each request alone on a fresh `Session` — interleaving decode
//! steps across sessions must never change what any one sequence generates.

use keyformer::core::budget::CacheBudgetSpec;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving N requests concurrently is observationally identical to running
    /// each alone: same tokens, same final cache shape, for every policy.
    #[test]
    fn serving_matches_sequential_generation_for_every_policy(
        num_requests in 2usize..5,
        base_len in 14usize..30,
        gen_tokens in 3usize..7,
        // Lower bound covers the largest unbudgeted projection
        // (base_len + 3 * (num_requests - 1) + gen_tokens - 1 < 48), so the
        // Full-attention baseline is always admissible and the no-failures
        // assertion below holds for every drawn case.
        pool_slots in 48usize..96,
        seed in 0u64..1_000,
    ) {
        let model = ModelFamily::Tiny.build(9);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        for (policy, budget) in policy_zoo() {
            let requests: Vec<Request> = (0..num_requests)
                .map(|i| {
                    // Vary prompt lengths so sessions finish at different steps
                    // and the scheduler genuinely interleaves.
                    let prompt = synthetic_prompt(base_len + 3 * i, i as u32);
                    let config = GenerationConfig::new(gen_tokens)
                        .with_top_k(16, 2.0, seed + i as u64);
                    Request::new(i as u64, prompt, config)
                })
                .collect();
            // One-shot prefill and chunked prefill (3 tokens per step over a
            // finer-grained pool) must both be observationally identical to
            // sequential decoding — the block-backed cache and the resumable
            // prefill never change what any sequence generates.
            let base = ServerConfig::new(policy, budget, pool_slots * bytes_per_token)
                .with_block_size(4);
            for config in [base, base.with_prefill_chunk(3)] {
                let label = if config.prefill_chunk.is_some() {
                    format!("{} (chunked)", policy.label())
                } else {
                    policy.label()
                };
                let mut server = Engine::new(&model, config).unwrap();
                for request in &requests {
                    server.submit(request.clone()).unwrap();
                }
                server.run(10_000);
                prop_assert!(server.is_idle(), "{label}: server did not drain");
                prop_assert!(
                    server.failures().is_empty(),
                    "{label}: unexpected failures"
                );
                prop_assert_eq!(server.completions().len(), num_requests);
                prop_assert!(
                    server.pool().blocks_in_use() == 0,
                    "{label}: retired requests leaked blocks"
                );
                for request in &requests {
                    let completion = server
                        .completions()
                        .iter()
                        .find(|c| c.id == request.id)
                        .expect("every request completes");
                    let alone = Session::new(&model, policy.build().unwrap(), budget)
                        .generate(&request.prompt, &request.config)
                        .unwrap();
                    prop_assert!(
                        completion.output == alone,
                        "{label}: serving diverged from sequential for {}",
                        request.id
                    );
                }
            }
        }
    }

    /// The admission invariant holds under arbitrary pools: reserved projected
    /// bytes never exceed the pool, and every admissible request eventually
    /// completes in FIFO admission order.
    #[test]
    fn admission_never_overshoots_the_pool(
        num_requests in 1usize..6,
        prompt_len in 10usize..40,
        pool_slots in 8usize..64,
    ) {
        let model = ModelFamily::Tiny.build(13);
        let bytes_per_token = model.empty_cache().bytes_per_token();
        let pool = pool_slots * bytes_per_token;
        let mut server = Engine::new(
            &model,
            ServerConfig::new(
                PolicySpec::keyformer_default(),
                Some(CacheBudgetSpec::new(0.5, 0.3).unwrap()),
                pool,
            ),
        )
        .unwrap();
        for i in 0..num_requests {
            server
                .submit(Request::new(
                    i as u64,
                    synthetic_prompt(prompt_len, i as u32),
                    GenerationConfig::new(4),
                ))
                .unwrap();
        }
        while !server.is_idle() {
            server.step();
            prop_assert!(server.reserved_bytes() <= pool);
        }
        let retired = server.completions().len() + server.failures().len();
        prop_assert_eq!(retired, num_requests);
        let completed_ids: Vec<u64> =
            server.completions().iter().map(|c| c.id.raw()).collect();
        let mut sorted = completed_ids.clone();
        sorted.sort_unstable();
        // Equal-size FIFO requests must complete in submission order.
        prop_assert_eq!(completed_ids, sorted);
    }
}
