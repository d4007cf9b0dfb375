//! Evaluation drivers: run a model + cache policy over a dataset and report the
//! paper's metrics (ROUGE for generation tasks, accuracy for few-shot tasks).

use crate::datasets::Sample;
use crate::fewshot::{accuracy, FewShotTask};
use crate::rouge::{rouge_scores, RougeScores};
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::spec::PolicySpec;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::model::TransformerModel;
use keyformer_model::session::Session;
use serde::{Deserialize, Serialize};

/// How a policy is applied during an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSetting {
    /// The cache policy under test.
    pub policy: PolicySpec,
    /// KV-cache budget; `None` disables eviction (used for the Full baseline).
    pub budget: Option<CacheBudgetSpec>,
}

impl EvalSetting {
    /// The full-attention baseline: no eviction at all.
    pub fn full_attention() -> Self {
        EvalSetting {
            policy: PolicySpec::Full,
            budget: None,
        }
    }

    /// A budgeted setting with the given policy and KV-cache fraction, using the
    /// paper's default recent ratio.
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
        }
    }

    /// Label combining policy and budget for use in result tables.
    pub fn label(&self) -> String {
        match self.budget {
            None => format!("{} (full cache)", self.policy.label()),
            Some(b) => format!(
                "{} ({:.0}% KV cache)",
                self.policy.label(),
                b.cache_fraction() * 100.0
            ),
        }
    }
}

/// Per-sample evaluation record for a generation task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// ROUGE scores of the generated continuation against the reference.
    pub rouge: RougeScores,
    /// Final KV-cache slot count (layer 0) after generation.
    pub final_cache_slots: usize,
    /// Peak KV-cache bytes during the request.
    pub peak_cache_bytes: usize,
    /// Final KV-cache bytes after eviction.
    pub final_cache_bytes: usize,
}

/// Aggregate result of evaluating one setting over a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationEval {
    /// The setting evaluated.
    pub setting: EvalSetting,
    /// Macro-averaged ROUGE scores.
    pub rouge: RougeScores,
    /// Per-sample records.
    pub records: Vec<GenerationRecord>,
}

impl GenerationEval {
    /// Mean final cache occupancy (slots in layer 0) across samples.
    pub fn mean_cache_slots(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(|r| r.final_cache_slots as f64)
            .sum::<f64>()
            / self.records.len() as f64
    }
}

/// Runs greedy generation on every sample and scores it with ROUGE.
pub fn evaluate_generation(
    model: &TransformerModel,
    setting: &EvalSetting,
    samples: &[Sample],
) -> GenerationEval {
    let mut records = Vec::with_capacity(samples.len());
    let mut scores = Vec::with_capacity(samples.len());
    for sample in samples {
        let policy = setting.policy.build().expect("policy spec must be valid");
        let config = GenerationConfig::new(sample.target_generation_len());
        let output = Session::new(model, policy, setting.budget)
            .generate(&sample.prompt, &config)
            .expect("generation failed");
        let rouge = rouge_scores(&output.generated, &sample.reference);
        scores.push(rouge);
        records.push(GenerationRecord {
            rouge,
            final_cache_slots: output.final_cache_slots.first().copied().unwrap_or(0),
            peak_cache_bytes: output.peak_cache_bytes,
            final_cache_bytes: output.final_cache_bytes,
        });
    }
    GenerationEval {
        setting: *setting,
        rouge: RougeScores::mean(&scores),
        records,
    }
}

/// Result of a few-shot evaluation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FewShotEval {
    /// The setting evaluated.
    pub setting: EvalSetting,
    /// Number of shots in each prompt.
    pub shots: usize,
    /// Fraction of items answered correctly.
    pub accuracy: f64,
}

/// Scores every item of a few-shot task by continuation likelihood and reports
/// accuracy.
pub fn evaluate_fewshot(
    model: &TransformerModel,
    setting: &EvalSetting,
    task: &FewShotTask,
    shots: usize,
) -> FewShotEval {
    let exemplars = task.shots(shots);
    let mut outcomes = Vec::with_capacity(task.items().len());
    for item in task.items() {
        let (prompt, continuations) = item.build_prompt(exemplars);
        let mut best: Option<(usize, f64)> = None;
        for (choice_idx, continuation) in continuations.iter().enumerate() {
            let policy = setting.policy.build().expect("policy spec must be valid");
            let score = Session::new(model, policy, setting.budget)
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
    FewShotEval {
        setting: *setting,
        shots,
        accuracy: accuracy(&outcomes),
    }
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
    fn setting_labels_mention_policy_and_budget() {
        assert!(EvalSetting::full_attention().label().contains("full cache"));
        let s = EvalSetting::budgeted(PolicySpec::h2o_default(), 0.5);
        assert!(s.label().contains("50%"));
        assert!(s.label().contains("H2O"));
    }

    #[test]
    #[should_panic(expected = "invalid cache fraction")]
    fn budgeted_rejects_bad_fraction() {
        EvalSetting::budgeted(PolicySpec::Full, 0.0);
    }

    #[test]
    fn full_attention_recovers_most_of_the_chain() {
        let model = ModelFamily::GptJLike.build(3);
        let eval = evaluate_generation(&model, &EvalSetting::full_attention(), &tiny_samples());
        assert!(
            eval.rouge.rouge1.f1 > 0.5,
            "full attention should recover most facts, got {:?}",
            eval.rouge.rouge1
        );
        assert_eq!(eval.records.len(), 2);
        assert!(eval.mean_cache_slots() > 60.0);
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
            window.rouge.rouge2.f1 < full.rouge.rouge2.f1,
            "window ({:?}) should trail full attention ({:?})",
            window.rouge.rouge2,
            full.rouge.rouge2
        );
        assert!(window.mean_cache_slots() < full.mean_cache_slots());
    }

    #[test]
    fn fewshot_eval_runs_and_reports_accuracy() {
        let model = ModelFamily::MptLike.build(5);
        let task = FewShotTask::generate(TaskKind::Copa, 4, 11);
        let eval = evaluate_fewshot(&model, &EvalSetting::full_attention(), &task, 0);
        assert!((0.0..=1.0).contains(&eval.accuracy));
        assert_eq!(eval.shots, 0);
    }
}
