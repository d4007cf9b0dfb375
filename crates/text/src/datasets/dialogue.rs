//! Synthetic multi-turn conversation (the SODA stand-in).
//!
//! A dialogue between two speakers in which facts are mentioned across the earlier
//! turns and the final turn asks speaker B to recap them. The reply chain works
//! exactly like the summarization chain, but the salient content is interleaved with
//! dialogue structure tokens (speaker markers, short turns), giving the conversation
//! task its own prompt shape as in the paper's SODA evaluation.

use super::{instruction_suffix, instruction_suffix_len, plant_chain, Chain, Sample};
use crate::vocab::{Vocabulary, BOS, SEP, SPEAKER_A, SPEAKER_B};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the dialogue generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DialogueSpec {
    /// Number of dialogue turns before the recap request.
    pub num_turns: usize,
    /// Filler tokens per turn.
    pub turn_len: usize,
    /// Number of facts mentioned across the dialogue.
    pub num_facts: usize,
    /// Size of the filler-word working set.
    pub filler_pool: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl DialogueSpec {
    /// A small configuration used by unit tests.
    pub fn small() -> Self {
        DialogueSpec {
            num_turns: 4,
            turn_len: 24,
            num_facts: 4,
            filler_pool: 24,
            seed: 555,
        }
    }

    /// The configuration used by the conversation experiments (Figure 7, bottom row).
    pub fn paper_default() -> Self {
        DialogueSpec {
            num_turns: 8,
            turn_len: 36,
            num_facts: 6,
            filler_pool: 150,
            seed: 20_240_503,
        }
    }

    /// Length of the dialogue body in tokens (turn bodies only, before speaker
    /// markers and framing).
    pub fn body_len(&self) -> usize {
        self.num_turns * self.turn_len
    }

    /// Total prompt length (body + one speaker marker per turn + BOS + SEP + recap
    /// speaker + summarization instruction).
    pub fn prompt_len(&self) -> usize {
        1 + self.num_turns * (self.turn_len + 1) + 2 + instruction_suffix_len(self.num_facts)
    }
}

/// A generated dialogue dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DialogueDataset {
    spec: DialogueSpec,
    samples: Vec<Sample>,
}

impl DialogueDataset {
    /// Generates `num_samples` dialogues.
    pub fn generate(spec: &DialogueSpec, num_samples: usize) -> Self {
        let vocab = Vocabulary::new();
        let samples = (0..num_samples)
            .map(|i| build_sample(&vocab, spec, spec.seed.wrapping_add(i as u64)))
            .collect();
        DialogueDataset {
            spec: *spec,
            samples,
        }
    }

    /// The generated samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The generation spec.
    pub fn spec(&self) -> &DialogueSpec {
        &self.spec
    }
}

fn build_sample(vocab: &Vocabulary, spec: &DialogueSpec, seed: u64) -> Sample {
    let mut rng = StdRng::seed_from_u64(seed);
    let chain = Chain::sample(vocab, spec.num_facts, &mut rng);
    // Build the whole dialogue body as one slab so the chain planter can spread the
    // salient blocks across the early turns, then slice it into turns. The chain is
    // confined to the first 60% of the slab so the final turns carry no facts (a
    // pure recent-window policy must therefore lose them).
    let slab = plant_chain(
        vocab,
        &chain,
        spec.body_len(),
        spec.filler_pool,
        0.6,
        &mut rng,
    );
    let mut prompt = Vec::with_capacity(spec.prompt_len());
    prompt.push(BOS);
    for (turn, chunk) in slab.chunks(spec.turn_len).enumerate() {
        prompt.push(if turn % 2 == 0 { SPEAKER_A } else { SPEAKER_B });
        prompt.extend_from_slice(chunk);
    }
    // Recap request: speaker B is asked to enumerate the discussed topics.
    prompt.push(SEP);
    prompt.push(SPEAKER_B);
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
    use crate::datasets::adjacency_count;
    use crate::vocab::TokenRole;

    #[test]
    fn dialogue_has_alternating_speakers() {
        let spec = DialogueSpec::small();
        let ds = DialogueDataset::generate(&spec, 1);
        let s = &ds.samples()[0];
        let speaker_count = s
            .prompt
            .iter()
            .filter(|&&t| t == SPEAKER_A || t == SPEAKER_B)
            .count();
        // One marker per turn plus the final recap speaker.
        assert_eq!(speaker_count, spec.num_turns + 1);
        assert_eq!(s.prompt.len(), spec.prompt_len());
    }

    #[test]
    fn facts_are_confined_to_the_early_turns() {
        let spec = DialogueSpec::paper_default();
        let ds = DialogueDataset::generate(&spec, 3);
        let vocab = Vocabulary::new();
        for s in ds.samples() {
            let body_end = s.prompt.len() - 3;
            let last_fact_pos = s
                .prompt
                .iter()
                .enumerate()
                .filter(|(_, &t)| vocab.role(t) == TokenRole::Fact)
                .map(|(i, _)| i)
                .max()
                .expect("dialogue must contain facts");
            assert!(
                last_fact_pos < body_end * 3 / 4,
                "facts leaked into the final turns"
            );
        }
    }

    #[test]
    fn most_chain_adjacencies_survive_turn_slicing() {
        // Speaker markers are inserted every turn_len tokens and can split a planted
        // block; the chain must still be substantially recoverable.
        let spec = DialogueSpec::paper_default();
        let ds = DialogueDataset::generate(&spec, 5);
        for s in ds.samples() {
            let mut walk = vec![*s.prompt.last().unwrap()];
            walk.extend_from_slice(&s.reference);
            let intact = walk
                .windows(2)
                .filter(|pair| adjacency_count(&s.prompt, pair[0], pair[1]) >= 1)
                .count();
            assert!(
                intact * 10 >= (walk.len() - 1) * 8,
                "too many chain adjacencies broken: {intact}/{}",
                walk.len() - 1
            );
        }
    }

    #[test]
    fn reference_and_fact_count_are_consistent() {
        let spec = DialogueSpec::paper_default();
        let ds = DialogueDataset::generate(&spec, 2);
        for s in ds.samples() {
            assert_eq!(s.num_facts, spec.num_facts);
            assert_eq!(s.reference.len(), 2 * spec.num_facts - 1);
            assert_eq!(s.target_generation_len(), s.reference.len());
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = DialogueSpec::small();
        let a = DialogueDataset::generate(&spec, 2);
        let b = DialogueDataset::generate(&spec, 2);
        assert_eq!(a, b);
        let different = DialogueDataset::generate(
            &DialogueSpec {
                seed: spec.seed + 1,
                ..spec
            },
            2,
        );
        assert_ne!(a.samples()[0], different.samples()[0]);
    }
}
