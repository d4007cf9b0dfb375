//! f32 logit-bit regression across the four model families: the numerics of
//! every projection — Q/K/V/O, both FFN matrices and the tied readout — must
//! not move across refactors of the weight layout or the GEMM kernel.
//!
//! `tests/f32_bit_identity.rs` covers only the `Tiny` family and hashes
//! generated tokens, which a small change in a logit rarely flips. These
//! fingerprints hash, for each paper-scale family (`d_model` 128) and each of
//! Full and Keyformer at a 50 % budget, the bits of `score_continuation`'s
//! total log-probability and the whole output of `generate`. Sessions store
//! `f32` KV blocks and prefill in 32-token chunks, so a prompt runs multi-row
//! projections (three full chunks and a ragged one) and every continuation
//! and generated token runs one-row projections. MPT-storywriter-like differs
//! from MPT-like only in its supported context, so the two share fingerprints.
//!
//! A changed fingerprint means `f32` logits moved. Only a change that means
//! to move the goldens may update this table, printing old → new.

use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;

const MODEL_SEED: u64 = 31;
const PREFILL_CHUNK: usize = 32;
const PROMPT_LEN: usize = 100;
const GEN_TOKENS: usize = 8;
const CONTINUATION: usize = 6;

/// FNV-1a over a byte stream, as in `f32_bit_identity.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Full attention, unbudgeted, and Keyformer at a 50 % budget.
fn policies() -> [(&'static str, PolicySpec, Option<CacheBudgetSpec>); 2] {
    let budget = CacheBudgetSpec::with_fraction(0.5).expect("valid fraction");
    [
        ("Full", PolicySpec::Full, None),
        ("Keyformer", PolicySpec::keyformer_default(), Some(budget)),
    ]
}

/// A deterministic prompt of `len` tokens above the structural range.
fn prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len as u32)
        .map(|t| 16 + (t * 41 + salt * 13 + (t * t) % 17) % 1000)
        .collect()
}

/// Hashes one policy's `f32` outputs on `family`: a scored continuation and a
/// greedy generation, each in a fresh chunked-prefill session.
fn fingerprint(family: ModelFamily, policy: &PolicySpec, budget: Option<CacheBudgetSpec>) -> u64 {
    let model = family.build(MODEL_SEED);
    let session = || {
        Session::new(&model, policy.build().expect("specs are valid"), budget)
            .with_prefill_chunk(PREFILL_CHUNK)
    };
    let text = prompt(PROMPT_LEN + CONTINUATION, 1);
    let score = session()
        .score_continuation(&text[..PROMPT_LEN], &text[PROMPT_LEN..])
        .expect("scores");
    let output = session()
        .generate(&prompt(PROMPT_LEN, 2), &GenerationConfig::new(GEN_TOKENS))
        .expect("generates");
    fnv1a(format!("{:016x} {output:?}", score.total_log_prob.to_bits()).as_bytes())
}

#[test]
fn f32_logit_fingerprints_are_unchanged() {
    let golden: &[(ModelFamily, &str, u64)] = &[
        (ModelFamily::GptJLike, "Full", 0xd908_5f30_eece_ff15),
        (ModelFamily::GptJLike, "Keyformer", 0x93a2_5ad6_fc52_a359),
        (ModelFamily::CerebrasLike, "Full", 0x6f84_a590_76c5_af6c),
        (
            ModelFamily::CerebrasLike,
            "Keyformer",
            0x80a9_5fb5_7c1d_5f81,
        ),
        (ModelFamily::MptLike, "Full", 0x679a_7bd2_15d7_330f),
        (ModelFamily::MptLike, "Keyformer", 0x2641_cac0_88f1_368d),
        (
            ModelFamily::MptStorywriterLike,
            "Full",
            0x679a_7bd2_15d7_330f,
        ),
        (
            ModelFamily::MptStorywriterLike,
            "Keyformer",
            0x2641_cac0_88f1_368d,
        ),
    ];
    let cases = [
        ModelFamily::GptJLike,
        ModelFamily::CerebrasLike,
        ModelFamily::MptLike,
        ModelFamily::MptStorywriterLike,
    ]
    .into_iter()
    .flat_map(|family| policies().into_iter().map(move |entry| (family, entry)));
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for ((family, (label, policy, budget)), &(golden_family, golden_label, golden_hash)) in
        cases.zip(golden)
    {
        assert_eq!(
            (family, label),
            (golden_family, golden_label),
            "cases and golden table out of sync"
        );
        let actual = fingerprint(family, &policy, budget);
        if actual != golden_hash {
            mismatches.push(format!(
                "(ModelFamily::{family:?}, \"{label}\", 0x{actual:016x}),"
            ));
        }
        checked += 1;
    }
    assert_eq!(checked, golden.len());
    assert!(
        mismatches.is_empty(),
        "f32 logits diverged from the golden table:\n{}",
        mismatches.join("\n")
    );
}
