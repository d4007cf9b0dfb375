//! Synthetic long-document summarization (the GovReport stand-in, Figure 8).
//!
//! Long multi-section reports with many salient facts spread across the whole
//! document. The prompt is several times longer than the news-article generator's,
//! which is what stresses small KV-cache budgets the way the paper's 8k-token
//! GovReport experiment does.

use super::{instruction_suffix, instruction_suffix_len, plant_chain, Chain, Sample};
use crate::vocab::{Vocabulary, BOS, SEP};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the long-document generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongDocSpec {
    /// Number of sections per report (sections only partition the body; the salient
    /// chain is spread over the whole document).
    pub num_sections: usize,
    /// Body tokens per section.
    pub section_len: usize,
    /// Salient facts planted per section.
    pub facts_per_section: usize,
    /// Size of the filler-word working set.
    pub filler_pool: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl LongDocSpec {
    /// A small configuration used by unit tests.
    pub fn small() -> Self {
        LongDocSpec {
            num_sections: 3,
            section_len: 80,
            facts_per_section: 2,
            filler_pool: 30,
            seed: 777,
        }
    }

    /// The configuration used by the Figure 8 experiment: a report several times
    /// longer than the news articles, with facts in every section.
    pub fn paper_default() -> Self {
        LongDocSpec {
            num_sections: 6,
            section_len: 160,
            facts_per_section: 2,
            filler_pool: 250,
            seed: 20_240_502,
        }
    }

    /// Total number of planted facts per report.
    pub fn total_facts(&self) -> usize {
        self.num_sections * self.facts_per_section
    }

    /// Total body length (before framing tokens).
    pub fn body_len(&self) -> usize {
        self.num_sections * self.section_len
    }

    /// Total prompt length (body + framing + summarization instruction).
    pub fn prompt_len(&self) -> usize {
        self.body_len() + 2 + instruction_suffix_len(self.total_facts())
    }
}

/// A generated long-document dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct LongDocDataset {
    spec: LongDocSpec,
    samples: Vec<Sample>,
}

impl LongDocDataset {
    /// Generates `num_samples` reports.
    pub fn generate(spec: &LongDocSpec, num_samples: usize) -> Self {
        let vocab = Vocabulary::new();
        let samples = (0..num_samples)
            .map(|i| build_sample(&vocab, spec, spec.seed.wrapping_add(i as u64)))
            .collect();
        LongDocDataset {
            spec: *spec,
            samples,
        }
    }

    /// The generated samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The generation spec.
    pub fn spec(&self) -> &LongDocSpec {
        &self.spec
    }
}

fn build_sample(vocab: &Vocabulary, spec: &LongDocSpec, seed: u64) -> Sample {
    let mut rng = StdRng::seed_from_u64(seed);
    let total_facts = spec.total_facts();
    let chain = Chain::sample(vocab, total_facts, &mut rng);
    // Facts are spread over ~90% of the report: the chain must be recovered from the
    // whole document, not from any single section.
    let body = plant_chain(
        vocab,
        &chain,
        spec.body_len(),
        spec.filler_pool,
        0.9,
        &mut rng,
    );
    let mut prompt = Vec::with_capacity(spec.prompt_len());
    prompt.push(BOS);
    prompt.extend_from_slice(&body);
    prompt.push(SEP);
    prompt.extend_from_slice(&instruction_suffix(&chain));
    Sample {
        prompt,
        reference: chain.reference(),
        num_facts: total_facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::adjacency_count;
    use crate::vocab::TokenRole;

    #[test]
    fn long_doc_is_longer_than_news_article() {
        let spec = LongDocSpec::paper_default();
        let news = super::super::summarization::SummarizationSpec::paper_default();
        assert!(spec.prompt_len() > 2 * news.article_len);
    }

    #[test]
    fn samples_match_declared_prompt_len() {
        let spec = LongDocSpec::small();
        let ds = LongDocDataset::generate(&spec, 2);
        for s in ds.samples() {
            assert_eq!(s.prompt.len(), spec.prompt_len());
            assert_eq!(s.num_facts, spec.total_facts());
            assert_eq!(s.reference.len(), 2 * spec.total_facts() - 1);
        }
        assert_eq!(ds.spec().total_facts(), 6);
    }

    #[test]
    fn chain_is_recoverable_from_the_prompt() {
        let spec = LongDocSpec::small();
        let ds = LongDocDataset::generate(&spec, 3);
        let vocab = Vocabulary::new();
        for s in ds.samples() {
            assert_eq!(vocab.role(*s.prompt.last().unwrap()), TokenRole::Cue);
            // Walk the reference chain: every adjacency must exist in the prompt.
            let mut walk = vec![*s.prompt.last().unwrap()];
            walk.extend_from_slice(&s.reference);
            for pair in walk.windows(2) {
                assert!(
                    adjacency_count(&s.prompt, pair[0], pair[1]) >= 1,
                    "missing adjacency {pair:?}"
                );
            }
        }
    }

    #[test]
    fn facts_span_most_of_the_document() {
        let spec = LongDocSpec::paper_default();
        let ds = LongDocDataset::generate(&spec, 1);
        let vocab = Vocabulary::new();
        let s = &ds.samples()[0];
        let fact_positions: Vec<usize> = s
            .prompt
            .iter()
            .enumerate()
            .filter(|(_, &t)| vocab.role(t) == TokenRole::Fact)
            .map(|(i, _)| i)
            .collect();
        let first = *fact_positions.first().unwrap();
        let last = *fact_positions.last().unwrap();
        assert!(first < s.prompt.len() / 4, "facts start too late");
        assert!(last > s.prompt.len() / 2, "facts end too early");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = LongDocSpec::small();
        assert_eq!(
            LongDocDataset::generate(&spec, 2),
            LongDocDataset::generate(&spec, 2)
        );
    }
}
