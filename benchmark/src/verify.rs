//! The correctness gate: solo reference runs, the fixed-part fingerprint and
//! the ROUGE-2 quality score.

use crate::workload::{GenRequest, Workload};
use keyformer_core::block::SharedBlockPool;
use keyformer_core::spec::PolicySpec;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_model::session::Session;
use keyformer_text::rouge::rouge_scores;
use std::time::{Duration, Instant};

/// A fresh solo [`Session`] configured exactly as the engine would configure
/// one for `request` (policy and budget overrides, pool dtype, block size,
/// prefill chunk) over a private unbounded pool.
pub fn solo_session<'m>(
    model: &'m TransformerModel,
    workload: &Workload,
    request: &GenRequest,
) -> Session<'m> {
    let (policy, budget) = if request.full {
        (PolicySpec::Full, None)
    } else {
        (workload.policy(), Some(workload.budget()))
    };
    let mut session = Session::with_pool_dtype(
        model,
        policy.build().expect("benchmark policies build"),
        budget,
        SharedBlockPool::unbounded(workload.block_size()),
        workload.kv_dtype,
    );
    session.set_prefill_chunk(workload.prefill_chunk);
    session
}

/// One request run alone.
pub struct SoloRun {
    /// The repo's token-identity guarantee says the served stream equals this.
    pub tokens: Vec<u32>,
    pub prefill: Duration,
    pub decode: Duration,
}

/// Runs `request` alone in a fresh [`solo_session`].
pub fn solo_run(
    model: &TransformerModel,
    workload: &Workload,
    request: &GenRequest,
) -> Result<SoloRun, String> {
    let mut session = solo_session(model, workload, request);
    let started = Instant::now();
    session
        .begin(
            &request.prompt,
            &GenerationConfig::new(request.max_new_tokens),
        )
        .map_err(|e| e.to_string())?;
    while session.is_prefilling() {
        session.advance_prefill().map_err(|e| e.to_string())?;
    }
    let prefilled = Instant::now();
    let mut tokens = Vec::with_capacity(request.max_new_tokens);
    loop {
        let step = session.step().map_err(|e| e.to_string())?;
        tokens.push(step.token);
        if step.finished {
            return Ok(SoloRun {
                tokens,
                prefill: prefilled - started,
                decode: prefilled.elapsed(),
            });
        }
    }
}

/// FNV-1a over `(index, tokens)` of every fixed-part output, in stream order:
/// equal fingerprints mean byte-equal fixed-part outputs.
pub fn fingerprint<'a>(outputs: impl IntoIterator<Item = (usize, &'a [u32])>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (index, tokens) in outputs {
        eat(&(index as u64).to_le_bytes());
        eat(&(tokens.len() as u64).to_le_bytes());
        for token in tokens {
            eat(&token.to_le_bytes());
        }
    }
    h
}

/// ROUGE-2 F1 of an output against its dataset reference, scored over the
/// reference's length (the text crate's evaluation convention: generation
/// past the reference length is not part of the answer).
pub fn rouge2_f1(tokens: &[u32], reference: &[u32]) -> f64 {
    let answer = &tokens[..tokens.len().min(reference.len())];
    rouge_scores(answer, reference).rouge2.f1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_sees_order_index_and_content() {
        let a: &[u32] = &[1, 2, 3];
        let b: &[u32] = &[1, 2, 4];
        let base = fingerprint([(0, a), (1, b)]);
        assert_eq!(base, fingerprint([(0, a), (1, b)]));
        assert_ne!(base, fingerprint([(0, b), (1, a)]));
        assert_ne!(base, fingerprint([(0, a), (2, b)]));
        assert_ne!(base, fingerprint([(0, a)]));
        // Moving a token across a request boundary changes the fingerprint.
        let left: &[u32] = &[1, 2];
        let right: &[u32] = &[3, 1, 2, 4];
        assert_ne!(base, fingerprint([(0, left), (1, right)]));
    }

    #[test]
    fn rouge_scores_the_answer_span_only() {
        let reference = [10, 11, 12, 13];
        assert_eq!(rouge2_f1(&[10, 11, 12, 13, 99, 98, 97], &reference), 1.0);
        assert_eq!(rouge2_f1(&[1, 2, 3, 4], &reference), 0.0);
        assert_eq!(rouge2_f1(&[], &reference), 0.0);
    }
}
