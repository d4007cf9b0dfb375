//! u8 KV storage bit-identity regression: the numerics of quantized blocks —
//! quantize-on-seal, every dequantizing read, the fused value product and the
//! unseal/reseal of compaction — must not move across refactors of the cache.
//!
//! The product forward and the test-only reference forward read `u8` blocks
//! through the same cache accessor, so the differential tests cannot see a
//! change in the decode itself. These fingerprints can: each one hashes, for
//! one model family and one policy of the zoo at a 50 % budget on
//! [`KvDtype::U8`] sessions, the bits of `score_continuation`'s total
//! log-probability and the whole output of `generate`. Prompts span six
//! 16-slot blocks, so the prompt-end eviction unseals sealed blocks, moves rows
//! across block boundaries and reseals the full ones.
//!
//! A changed fingerprint means `u8` outputs moved. Only a change that means to
//! move the goldens may update this table, printing old → new.

use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::cache::KvDtype;
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;

const MODEL_SEED: u64 = 29;
const PROMPT_LEN: usize = 96;
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

/// The policy zoo, every member but `Full` at a 50 % budget.
fn zoo() -> Vec<(&'static str, PolicySpec, Option<CacheBudgetSpec>)> {
    let budget = CacheBudgetSpec::with_fraction(0.5).expect("valid fraction");
    vec![
        ("Full", PolicySpec::Full, None),
        ("Window", PolicySpec::Window, Some(budget)),
        (
            "Dilated",
            PolicySpec::DilatedWindow { dilation: 1 },
            Some(budget),
        ),
        ("KeyOnly", PolicySpec::KeyOnly, Some(budget)),
        ("H2O", PolicySpec::h2o_default(), Some(budget)),
        ("Damped", PolicySpec::Damped { alpha: 0.9 }, Some(budget)),
        (
            "StreamingLLM",
            PolicySpec::streaming_default(),
            Some(budget),
        ),
        ("Keyformer", PolicySpec::keyformer_default(), Some(budget)),
    ]
}

/// A deterministic prompt of `len` tokens above the structural range.
fn prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len as u32)
        .map(|t| 16 + (t * 37 + salt * 11 + (t * t) % 13) % 1000)
        .collect()
}

/// Hashes one policy's `u8` outputs on `family`: a scored continuation and a
/// greedy generation, each in a fresh session.
fn fingerprint(family: ModelFamily, policy: &PolicySpec, budget: Option<CacheBudgetSpec>) -> u64 {
    let model = family.build(MODEL_SEED);
    let session = || {
        Session::with_dtype(
            &model,
            policy.build().expect("zoo specs are valid"),
            budget,
            KvDtype::U8,
        )
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
fn u8_zoo_fingerprints_are_unchanged() {
    let golden: &[(ModelFamily, &str, u64)] = &[
        (ModelFamily::GptJLike, "Full", 0x4f89_47a1_d6de_4111),
        (ModelFamily::GptJLike, "Window", 0x236f_bdd9_ed81_1df3),
        (ModelFamily::GptJLike, "Dilated", 0xcd65_86fe_fa08_5134),
        (ModelFamily::GptJLike, "KeyOnly", 0xef36_0c0c_ac7b_7f3c),
        (ModelFamily::GptJLike, "H2O", 0xff54_37e7_9b19_c11f),
        (ModelFamily::GptJLike, "Damped", 0xff54_37e7_9b19_c11f),
        (ModelFamily::GptJLike, "StreamingLLM", 0xf30c_5e6e_be91_6d3d),
        (ModelFamily::GptJLike, "Keyformer", 0xe05f_4017_9488_41bb),
        (ModelFamily::MptLike, "Full", 0x167b_43d7_8a16_3c8a),
        (ModelFamily::MptLike, "Window", 0x71b6_7626_6cfb_9c7b),
        (ModelFamily::MptLike, "Dilated", 0xe2d0_a5b2_618f_b0fa),
        (ModelFamily::MptLike, "KeyOnly", 0xcec6_e795_0b5e_8f05),
        (ModelFamily::MptLike, "H2O", 0x0f15_1983_65c4_21e4),
        (ModelFamily::MptLike, "Damped", 0x0f15_1983_65c4_21e4),
        (ModelFamily::MptLike, "StreamingLLM", 0x97f5_297a_f5dd_c467),
        (ModelFamily::MptLike, "Keyformer", 0x85e4_729f_41d7_6f9b),
    ];
    let cases = [ModelFamily::GptJLike, ModelFamily::MptLike]
        .into_iter()
        .flat_map(|family| zoo().into_iter().map(move |entry| (family, entry)));
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for ((family, (label, policy, budget)), &(golden_family, golden_label, golden_hash)) in
        cases.zip(golden)
    {
        assert_eq!(
            (family, label),
            (golden_family, golden_label),
            "zoo and golden table out of sync"
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
        "u8 outputs diverged from the golden table:\n{}",
        mismatches.join("\n")
    );
}
