//! Cross-crate integration tests: the full pipeline from synthetic dataset through
//! the transformer substrate, the cache policies and the ROUGE scorer, exercised the
//! way the paper's headline experiments use it.

use keyformer::core::budget::CacheBudgetSpec;
use keyformer::core::spec::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;
use keyformer::text::datasets::summarization::{SummarizationDataset, SummarizationSpec};
use keyformer::text::eval::{evaluate_generation, EvalSetting};

fn small_spec() -> SummarizationSpec {
    SummarizationSpec {
        article_len: 160,
        num_facts: 5,
        filler_pool: 100,
        plant_span: 0.7,
        seed: 4_242,
    }
}

#[test]
fn full_attention_recovers_the_planted_summary_on_every_family() {
    let dataset = SummarizationDataset::generate(&small_spec(), 2);
    for family in ModelFamily::paper_families() {
        let model = family.build(3);
        let eval = evaluate_generation(&model, &EvalSetting::full_attention(), dataset.samples());
        // ALiBi's distance penalty makes long-range retrieval inherently harder than
        // RoPE/learned positions, so the acceptance bar is family-independent but
        // conservative.
        assert!(
            eval.rouge.rouge2.f1 > 0.45,
            "{family}: full attention should recover the chain, got {:?}",
            eval.rouge.rouge2
        );
    }
}

#[test]
fn keyformer_beats_window_attention_at_half_the_cache() {
    let dataset = SummarizationDataset::generate(&small_spec(), 3);
    let model = ModelFamily::GptJLike.build(3);
    let budget = Some(CacheBudgetSpec::with_fraction(0.6).unwrap());
    let keyformer = evaluate_generation(
        &model,
        &EvalSetting {
            policy: PolicySpec::keyformer_default(),
            budget,
        },
        dataset.samples(),
    );
    let window = evaluate_generation(
        &model,
        &EvalSetting {
            policy: PolicySpec::Window,
            budget,
        },
        dataset.samples(),
    );
    assert!(
        keyformer.rouge.rouge1.f1 > window.rouge.rouge1.f1,
        "keyformer {:?} should beat window {:?}",
        keyformer.rouge.rouge1,
        window.rouge.rouge1
    );
}

#[test]
fn budgeted_policies_respect_the_cache_budget_exactly() {
    let dataset = SummarizationDataset::generate(&small_spec(), 1);
    let sample = &dataset.samples()[0];
    let model = ModelFamily::MptLike.build(5);
    for policy in [
        PolicySpec::keyformer_default(),
        PolicySpec::h2o_default(),
        PolicySpec::Window,
        PolicySpec::streaming_default(),
    ] {
        let spec = CacheBudgetSpec::with_fraction(0.5).unwrap();
        let mut session = Session::new(&model, policy.build().unwrap(), Some(spec));
        let out = session
            .generate(&sample.prompt, &GenerationConfig::new(6))
            .unwrap();
        let budget = session.budget().unwrap();
        for &slots in &out.final_cache_slots {
            assert!(
                slots <= budget.capacity(),
                "{}: {slots} slots exceed capacity {}",
                policy.label(),
                budget.capacity()
            );
        }
        assert!(out.final_cache_bytes < out.peak_cache_bytes);
    }
}

#[test]
fn generation_is_deterministic_across_engine_instances() {
    let dataset = SummarizationDataset::generate(&small_spec(), 1);
    let sample = &dataset.samples()[0];
    let model = ModelFamily::CerebrasLike.build(9);
    let run = || {
        Session::new(
            &model,
            PolicySpec::keyformer_default().build().unwrap(),
            Some(CacheBudgetSpec::with_fraction(0.7).unwrap()),
        )
        .generate(&sample.prompt, &GenerationConfig::new(9))
        .unwrap()
        .generated
    };
    assert_eq!(run(), run());
}

#[test]
fn harness_perf_experiments_produce_paper_shaped_results() {
    use keyformer::harness::{run_experiment, ExperimentId};
    let fig9 = run_experiment(ExperimentId::Fig9, 1);
    // Keyformer's speedup at 4k should exceed its speedup at 1k (the paper's trend).
    let kf_1k: f64 = fig9.cell(0, "keyformer_50pct").unwrap().parse().unwrap();
    let kf_4k: f64 = fig9.cell(2, "keyformer_50pct").unwrap().parse().unwrap();
    assert!(kf_4k > kf_1k);
    let table1 = run_experiment(ExperimentId::Table1, 1);
    assert_eq!(table1.cell(3, "full"), Some("OOM"));
}
