//! Chunked-prefill admission against a dry strict pool: every chunk size
//! stops at the same token, reports the same progress and resumes to the same
//! output as a chunk of 1, which admits one token at a time.
//!
//! The byte-identity of the chunk forward itself is proven in the model
//! crate's unit tests, against the test-only reference forward.

use keyformer::core::block::{OvercommitPolicy, SharedBlockPool};
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;

fn synthetic_prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len)
        .map(|i| (i as u32 * 11 + 3 + salt * 29) % 120)
        .collect()
}

/// A run of `advance_prefill` progress reports `(processed, remaining, ready,
/// stalled)` over a `prompt_len`-token prompt, one event per token: `a` for
/// each admitted token, then `s` if the call stalled (once per stall, however
/// many calls it took to see it) and `r` once the decode is armed. Checks on
/// the way that no call forwards more than `chunk` tokens and that every
/// `remaining` is the prompt minus what the reports forwarded so far.
fn timeline(reports: &[(usize, usize, bool, bool)], prompt_len: usize, chunk: usize) -> String {
    let mut events = String::new();
    let mut forwarded = 0;
    for &(processed, remaining, ready, stalled) in reports {
        assert!(
            processed <= chunk,
            "chunk {chunk}: a call forwarded {processed}"
        );
        forwarded += processed;
        assert_eq!(remaining, prompt_len - forwarded, "chunk {chunk}");
        events.extend(std::iter::repeat_n('a', processed));
        if stalled && !events.ends_with('s') {
            events.push('s');
        }
        if ready {
            events.push('r');
        }
    }
    events
}

/// Stall/resume against a dry strict pool: the batched admission (one exact
/// block-need query + largest-fitting-prefix) must stop at exactly the token
/// a chunk of 1 stalls at, report progress consistent with it, and resume to
/// the same output once blocks free up. A chunk of 1 asks the pool about one
/// token at a time; `block::tests::transient_preflight_protects_other_reservations`
/// and `cache::tests::blocks_needed_for_next_n_tokens_matches_single_token_case`
/// prove that its answers are the per-token pre-flight's.
#[test]
fn batched_stall_points_match_sequential_on_a_strict_pool() {
    let model = ModelFamily::Tiny.build(3);
    let run = |chunk: usize| {
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
        (
            timeline(&reports, 14, chunk),
            session.take_output().unwrap(),
        )
    };
    let expected = run(1);
    // Half the prompt fits beside the neighbour; the rest waits for it.
    assert_eq!(expected.0, format!("{}s{}r", "a".repeat(8), "a".repeat(6)));
    for chunk in [3usize, 4, 7, 14] {
        assert_eq!(
            run(chunk),
            expected,
            "chunk {chunk}: stall progression diverged from chunk 1"
        );
    }
}
