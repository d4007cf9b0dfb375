//! Synthetic news-article summarization (the CNN/DailyMail stand-in).

use super::{instruction_suffix, instruction_suffix_len, plant_chain, Chain, Sample};
use crate::vocab::{Vocabulary, BOS, SEP};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the summarization generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummarizationSpec {
    /// Number of body (article) tokens per sample.
    pub article_len: usize,
    /// Number of salient facts planted per article.
    pub num_facts: usize,
    /// Size of the filler-word working set.
    pub filler_pool: u32,
    /// Fraction of the article within which facts are planted (facts never appear in
    /// the trailing `1 - plant_span` of the article, so a pure recent-window policy
    /// cannot see them).
    pub plant_span: f64,
    /// Base RNG seed; sample `i` uses `seed + i`.
    pub seed: u64,
}

impl SummarizationSpec {
    /// A small configuration used by unit tests.
    pub fn small() -> Self {
        SummarizationSpec {
            article_len: 120,
            num_facts: 5,
            filler_pool: 30,
            plant_span: 0.7,
            seed: 1234,
        }
    }

    /// The configuration used by the paper-scale experiments (Figure 7, Tables 3–4):
    /// a few hundred tokens of context with eight salient facts.
    pub fn paper_default() -> Self {
        SummarizationSpec {
            article_len: 320,
            num_facts: 8,
            filler_pool: 200,
            plant_span: 0.75,
            seed: 20_240_501,
        }
    }
}

/// A generated summarization dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarizationDataset {
    spec: SummarizationSpec,
    samples: Vec<Sample>,
}

impl SummarizationDataset {
    /// Generates `num_samples` articles with planted retrieval chains.
    pub fn generate(spec: &SummarizationSpec, num_samples: usize) -> Self {
        let vocab = Vocabulary::new();
        let samples = (0..num_samples)
            .map(|i| build_sample(&vocab, spec, spec.seed.wrapping_add(i as u64)))
            .collect();
        SummarizationDataset {
            spec: *spec,
            samples,
        }
    }

    /// The generated samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The generation spec.
    pub fn spec(&self) -> &SummarizationSpec {
        &self.spec
    }
}

fn build_sample(vocab: &Vocabulary, spec: &SummarizationSpec, seed: u64) -> Sample {
    let mut rng = StdRng::seed_from_u64(seed);
    let chain = Chain::sample(vocab, spec.num_facts, &mut rng);
    let body = plant_chain(
        vocab,
        &chain,
        spec.article_len,
        spec.filler_pool,
        spec.plant_span,
        &mut rng,
    );
    let mut prompt =
        Vec::with_capacity(spec.article_len + 2 + instruction_suffix_len(spec.num_facts));
    prompt.push(BOS);
    prompt.extend_from_slice(&body);
    prompt.push(SEP);
    prompt.extend_from_slice(&instruction_suffix(&chain));
    Sample {
        prompt,
        reference: chain.reference(),
        num_facts: spec.num_facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::TokenRole;

    #[test]
    fn generates_requested_number_of_samples() {
        let ds = SummarizationDataset::generate(&SummarizationSpec::small(), 5);
        assert_eq!(ds.samples().len(), 5);
        assert_eq!(ds.spec().num_facts, 5);
    }

    #[test]
    fn samples_have_expected_structure() {
        let spec = SummarizationSpec::small();
        let ds = SummarizationDataset::generate(&spec, 3);
        let vocab = Vocabulary::new();
        for sample in ds.samples() {
            assert_eq!(
                sample.prompt.len(),
                spec.article_len + 2 + super::super::instruction_suffix_len(spec.num_facts)
            );
            assert_eq!(sample.prompt[0], BOS);
            assert_eq!(sample.prompt[spec.article_len + 1], SEP);
            assert_eq!(sample.prompt[spec.article_len + 2], crate::vocab::TLDR);
            assert_eq!(vocab.role(*sample.prompt.last().unwrap()), TokenRole::Cue);
            assert_eq!(sample.reference.len(), 2 * spec.num_facts - 1);
            assert_eq!(sample.num_facts, spec.num_facts);
        }
    }

    #[test]
    fn instruction_lists_every_cue() {
        let spec = SummarizationSpec::small();
        let ds = SummarizationDataset::generate(&spec, 1);
        let vocab = Vocabulary::new();
        let sample = &ds.samples()[0];
        let instruction = &sample.prompt[spec.article_len + 2..];
        let cues_in_instruction = instruction
            .iter()
            .filter(|&&t| vocab.role(t) == TokenRole::Cue)
            .count();
        // Every chain cue is listed once, plus the trailing first cue that seeds
        // generation.
        assert_eq!(cues_in_instruction, spec.num_facts + 1);
    }

    #[test]
    fn samples_differ_but_are_reproducible() {
        let spec = SummarizationSpec::small();
        let a = SummarizationDataset::generate(&spec, 2);
        let b = SummarizationDataset::generate(&spec, 2);
        assert_eq!(a, b);
        assert_ne!(a.samples()[0], a.samples()[1]);
    }

    #[test]
    fn facts_are_absent_from_the_recent_tail() {
        // With plant_span = 0.7 the last ~30% of the article is pure filler, so the
        // window-attention failure mode is structurally guaranteed.
        let spec = SummarizationSpec::small();
        let ds = SummarizationDataset::generate(&spec, 4);
        let vocab = Vocabulary::new();
        for sample in ds.samples() {
            let tail_start = 1 + (spec.article_len as f64 * 0.85) as usize;
            let tail = &sample.prompt[tail_start..spec.article_len];
            assert!(
                tail.iter().all(|&t| vocab.role(t) == TokenRole::Filler),
                "facts leaked into the article tail"
            );
        }
    }

    #[test]
    fn reference_tokens_all_appear_in_prompt() {
        let ds = SummarizationDataset::generate(&SummarizationSpec::small(), 2);
        for sample in ds.samples() {
            for &tok in &sample.reference {
                assert!(
                    sample.prompt.contains(&tok),
                    "reference token {tok} missing from prompt"
                );
            }
        }
    }
}
