//! Evaluation drivers: run a model + cache policy over a dataset and report the
//! paper's metrics (ROUGE for generation tasks, accuracy for few-shot tasks).

use crate::datasets::Sample;
use crate::fewshot::{accuracy, FewShotTask};
use crate::rouge::{rouge_scores, RougeScores};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_model::session::Session;

/// How a policy is applied during an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSetting {
    /// The cache policy under test.
    pub policy: PolicySpec,
    /// KV-cache budget; `None` disables eviction (used for the Full baseline).
    pub budget: Option<CacheBudgetSpec>,
    /// Storage dtype of the session's KV blocks.
    pub dtype: KvDtype,
}

impl EvalSetting {
    /// The full-attention baseline: no eviction at all, `f32` KV blocks.
    pub fn full_attention() -> Self {
        EvalSetting {
            policy: PolicySpec::Full,
            budget: None,
            dtype: KvDtype::F32,
        }
    }

    /// A budgeted setting with the given policy and KV-cache fraction, using the
    /// paper's default recent ratio and `f32` KV blocks.
    ///
    /// # Panics
    ///
    /// Panics if `cache_fraction` is outside `(0, 1]`.
    pub fn budgeted(policy: PolicySpec, cache_fraction: f64) -> Self {
        EvalSetting {
            policy,
            budget: Some(
                CacheBudgetSpec::with_fraction(cache_fraction).expect("invalid cache fraction"),
            ),
            dtype: KvDtype::F32,
        }
    }
}

/// Runs greedy generation on every sample and returns its macro-averaged
/// ROUGE scores against the references.
pub fn evaluate_generation(
    model: &TransformerModel,
    setting: &EvalSetting,
    samples: &[Sample],
) -> RougeScores {
    let scores: Vec<RougeScores> = samples
        .iter()
        .map(|sample| {
            let policy = setting.policy.build().expect("policy spec must be valid");
            let config = GenerationConfig::new(sample.target_generation_len());
            let output = Session::with_dtype(model, policy, setting.budget, setting.dtype)
                .generate(&sample.prompt, &config)
                .expect("generation failed");
            rouge_scores(&output.generated, &sample.reference)
        })
        .collect();
    RougeScores::mean(&scores)
}

/// Scores every item of a few-shot task by continuation likelihood and returns
/// the fraction answered correctly.
pub fn evaluate_fewshot(
    model: &TransformerModel,
    setting: &EvalSetting,
    task: &FewShotTask,
    shots: usize,
) -> f64 {
    let exemplars = task.shots(shots);
    let mut outcomes = Vec::with_capacity(task.items().len());
    for item in task.items() {
        let (prompt, continuations) = item.build_prompt(exemplars);
        let mut best: Option<(usize, f64)> = None;
        for (choice_idx, continuation) in continuations.iter().enumerate() {
            let policy = setting.policy.build().expect("policy spec must be valid");
            let score = Session::with_dtype(model, policy, setting.budget, setting.dtype)
                .score_continuation(&prompt, continuation)
                .expect("scoring failed")
                .per_token();
            match best {
                Some((_, b)) if score <= b => {}
                _ => best = Some((choice_idx, score)),
            }
        }
        outcomes.push(best.map(|(idx, _)| idx) == Some(item.correct));
    }
    accuracy(&outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::summarization::{SummarizationDataset, SummarizationSpec};
    use crate::fewshot::TaskKind;
    use keyformer_model::families::ModelFamily;

    fn tiny_samples() -> Vec<Sample> {
        let spec = SummarizationSpec {
            article_len: 60,
            num_facts: 3,
            filler_pool: 16,
            plant_span: 0.7,
            seed: 42,
        };
        SummarizationDataset::generate(&spec, 2).samples().to_vec()
    }

    #[test]
    #[should_panic(expected = "invalid cache fraction")]
    fn budgeted_rejects_bad_fraction() {
        EvalSetting::budgeted(PolicySpec::Full, 0.0);
    }

    #[test]
    fn full_attention_recovers_most_of_the_chain() {
        let model = ModelFamily::GptJLike.build(3);
        let rouge = evaluate_generation(&model, &EvalSetting::full_attention(), &tiny_samples());
        assert!(
            rouge.rouge1.f1 > 0.5,
            "full attention should recover most facts, got {:?}",
            rouge.rouge1
        );
    }

    #[test]
    fn window_attention_loses_the_chain() {
        let model = ModelFamily::GptJLike.build(3);
        let full = evaluate_generation(&model, &EvalSetting::full_attention(), &tiny_samples());
        let window = evaluate_generation(
            &model,
            &EvalSetting::budgeted(PolicySpec::Window, 0.5),
            &tiny_samples(),
        );
        assert!(
            window.rouge2.f1 < full.rouge2.f1,
            "window ({:?}) should trail full attention ({:?})",
            window.rouge2,
            full.rouge2
        );
    }

    #[test]
    fn fewshot_eval_runs_and_reports_accuracy() {
        let model = ModelFamily::MptLike.build(5);
        let task = FewShotTask::generate(TaskKind::Copa, 4, 11);
        let accuracy = evaluate_fewshot(&model, &EvalSetting::full_attention(), &task, 0);
        assert!((0.0..=1.0).contains(&accuracy));
    }
}
