//! Synthetic few-shot multiple-choice tasks (the lm-eval-harness stand-in, Table 2).
//!
//! Each item plants an evidence bigram `(cue, answer)` inside a context passage, asks
//! about the cue, and offers the true answer among distractor facts. The model scores
//! each choice by continuation log-likelihood; it can only prefer the right answer if
//! the evidence survived in the KV cache. Few-shot prompts prepend solved examples,
//! lengthening the prompt exactly the way real k-shot evaluation does.

use crate::datasets::draw_filler;
use crate::vocab::{Vocabulary, ANSWER, BOS, NUM_FACTS, QUESTION, SEP};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The four task profiles, mirroring the shapes of the paper's lm-eval tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Two choices, short context (COPA-like).
    Copa,
    /// Two choices, medium context (PIQA-like).
    Piqa,
    /// Four choices, medium context (OpenBookQA-like).
    OpenBookQa,
    /// Two choices, long context with both candidates mentioned (Winogrande-like).
    Winogrande,
}

impl TaskKind {
    /// All four tasks, in the order the paper's Table 2 lists them.
    pub fn all() -> [TaskKind; 4] {
        [
            TaskKind::Copa,
            TaskKind::OpenBookQa,
            TaskKind::Winogrande,
            TaskKind::Piqa,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::Copa => "COPA",
            TaskKind::Piqa => "PIQA",
            TaskKind::OpenBookQa => "OpenBookQA",
            TaskKind::Winogrande => "Winogrande",
        }
    }

    /// Number of answer choices.
    pub fn num_choices(&self) -> usize {
        match self {
            TaskKind::OpenBookQa => 4,
            _ => 2,
        }
    }

    /// Context length in filler tokens.
    pub fn context_len(&self) -> usize {
        match self {
            TaskKind::Copa => 24,
            TaskKind::Piqa => 40,
            TaskKind::OpenBookQa => 48,
            TaskKind::Winogrande => 64,
        }
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One multiple-choice item.
#[derive(Debug, Clone, PartialEq)]
pub struct McItem {
    /// Context passage containing the evidence bigram.
    pub context: Vec<u32>,
    /// The cue token the question asks about.
    pub cue: u32,
    /// Candidate answer tokens.
    pub choices: Vec<u32>,
    /// Index of the correct choice.
    pub correct: usize,
}

impl McItem {
    /// Builds the scoring prompt for this item preceded by `shots` solved examples,
    /// plus the per-choice continuations to score.
    pub fn build_prompt(&self, shots: &[McItem]) -> (Vec<u32>, Vec<Vec<u32>>) {
        let mut prompt = vec![BOS];
        for shot in shots {
            prompt.extend_from_slice(&shot.context);
            prompt.push(QUESTION);
            prompt.push(shot.cue);
            prompt.push(ANSWER);
            prompt.push(shot.choices[shot.correct]);
            prompt.push(SEP);
        }
        prompt.extend_from_slice(&self.context);
        prompt.push(QUESTION);
        prompt.push(self.cue);
        prompt.push(ANSWER);
        let continuations = self.choices.iter().map(|&c| vec![c]).collect();
        (prompt, continuations)
    }
}

/// A generated task: a pool of few-shot exemplars plus evaluation items.
#[derive(Debug, Clone, PartialEq)]
pub struct FewShotTask {
    kind: TaskKind,
    exemplars: Vec<McItem>,
    items: Vec<McItem>,
}

impl FewShotTask {
    /// Generates a task with `num_items` evaluation items and an exemplar pool large
    /// enough for 5-shot prompts.
    pub fn generate(kind: TaskKind, num_items: usize, seed: u64) -> Self {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfe57);
        let exemplars = (0..8).map(|_| build_item(&vocab, kind, &mut rng)).collect();
        let items = (0..num_items)
            .map(|_| build_item(&vocab, kind, &mut rng))
            .collect();
        FewShotTask {
            kind,
            exemplars,
            items,
        }
    }

    /// The task profile.
    pub fn kind(&self) -> TaskKind {
        self.kind
    }

    /// Evaluation items.
    pub fn items(&self) -> &[McItem] {
        &self.items
    }

    /// The first `shots` exemplars (used to build k-shot prompts).
    ///
    /// # Panics
    ///
    /// Panics if `shots` exceeds the exemplar pool (8).
    pub fn shots(&self, shots: usize) -> &[McItem] {
        assert!(shots <= self.exemplars.len(), "at most 8 shots supported");
        &self.exemplars[..shots]
    }
}

fn build_item(vocab: &Vocabulary, kind: TaskKind, rng: &mut StdRng) -> McItem {
    let cue = vocab.cue(rng.gen_range(0..crate::vocab::NUM_CUES));
    let num_choices = kind.num_choices();
    let mut fact_ids: Vec<u32> = (0..NUM_FACTS).collect();
    fact_ids.shuffle(rng);
    let choices: Vec<u32> = fact_ids[..num_choices]
        .iter()
        .map(|&i| vocab.fact(i))
        .collect();
    let correct = rng.gen_range(0..num_choices);

    let len = kind.context_len();
    let mut context: Vec<u32> = (0..len).map(|_| draw_filler(vocab, 32, rng)).collect();
    // Plant the evidence bigram (cue, correct answer) in the first half of the
    // context, so small recent windows lose it.
    let plant_pos = rng.gen_range(0..(len / 2).max(1));
    context[plant_pos] = cue;
    context[plant_pos + 1] = choices[correct];
    // Winogrande-style ambiguity: a distractor choice also appears in the context,
    // but *not* adjacent to the cue.
    if kind == TaskKind::Winogrande {
        let distractor = choices[(correct + 1) % num_choices];
        let far_pos = (len * 3 / 4).min(len - 1);
        context[far_pos] = distractor;
    }
    McItem {
        context,
        cue,
        choices,
        correct,
    }
}

/// Accuracy of a set of boolean outcomes (fraction correct).
pub fn accuracy(outcomes: &[bool]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|&&b| b).count() as f64 / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::TokenRole;

    #[test]
    fn task_kinds_have_expected_shapes() {
        assert_eq!(TaskKind::Copa.num_choices(), 2);
        assert_eq!(TaskKind::OpenBookQa.num_choices(), 4);
        assert!(TaskKind::Winogrande.context_len() > TaskKind::Copa.context_len());
        assert_eq!(TaskKind::all().len(), 4);
        assert_eq!(TaskKind::Piqa.to_string(), "PIQA");
    }

    #[test]
    fn items_contain_their_evidence() {
        let task = FewShotTask::generate(TaskKind::OpenBookQa, 10, 3);
        assert_eq!(task.items().len(), 10);
        for item in task.items() {
            let answer = item.choices[item.correct];
            let cue_pos = item.context.iter().position(|&t| t == item.cue).unwrap();
            assert_eq!(item.context[cue_pos + 1], answer, "evidence bigram broken");
            assert_eq!(item.choices.len(), 4);
        }
    }

    #[test]
    fn winogrande_plants_a_distractor_too() {
        let task = FewShotTask::generate(TaskKind::Winogrande, 10, 4);
        for item in task.items() {
            let distractor = item.choices[(item.correct + 1) % item.choices.len()];
            assert!(item.context.contains(&distractor));
        }
    }

    #[test]
    fn prompt_construction_zero_and_five_shot() {
        let task = FewShotTask::generate(TaskKind::Copa, 2, 5);
        let item = &task.items()[0];
        let (zero_prompt, conts) = item.build_prompt(task.shots(0));
        let (five_prompt, _) = item.build_prompt(task.shots(5));
        assert!(five_prompt.len() > zero_prompt.len());
        assert_eq!(conts.len(), 2);
        assert_eq!(zero_prompt[0], BOS);
        assert_eq!(*zero_prompt.last().unwrap(), ANSWER);
        // Each exemplar contributes its context + 4 framing tokens + SEP.
        let vocab = Vocabulary::new();
        assert_eq!(vocab.role(conts[0][0]), TokenRole::Fact);
    }

    #[test]
    #[should_panic(expected = "at most 8 shots")]
    fn too_many_shots_panics() {
        let task = FewShotTask::generate(TaskKind::Copa, 1, 5);
        task.shots(9);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FewShotTask::generate(TaskKind::Piqa, 5, 9);
        let b = FewShotTask::generate(TaskKind::Piqa, 5, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn accuracy_helper() {
        assert_eq!(accuracy(&[true, true, false, false]), 0.5);
        assert_eq!(accuracy(&[]), 0.0);
        assert_eq!(accuracy(&[true]), 1.0);
    }
}
