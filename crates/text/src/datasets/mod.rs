//! Synthetic dataset generators.
//!
//! All three task families plant *retrieval chains* into filler text. A chain of `m`
//! salient facts is written into the document as `m - 1` overlapping five-token
//! blocks
//!
//! ```text
//! block_i = [cue_i, fact_i, cue_{i+1}, fact_{i+1}, cue_{i+2}]
//! ```
//!
//! scattered at spread-out positions. Each (cue, fact) pair is therefore mentioned
//! twice, in two different places, with *consistent successors*: every occurrence of
//! `cue_j` that matters is followed by `fact_j`, and every occurrence of `fact_j` is
//! followed by `cue_{j+1}`. A decoder with an induction mechanism can walk the chain
//! `cue_1 → fact_1 → cue_2 → …` during free-running generation — but only for links
//! whose planted blocks still have their keys/values in the KV cache. The reference
//! output of a sample is exactly that chain, so ROUGE directly measures how much of
//! the distant salient content the cache policy preserved.

pub mod dialogue;
pub mod longdoc;
pub mod summarization;

use crate::vocab::{Vocabulary, NUM_CUES, NUM_FACTS, NUM_FILLER};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// One evaluation sample: a prompt and the reference continuation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Prompt token ids (article / dialogue + task cue + the first chain cue).
    pub prompt: Vec<u32>,
    /// Reference continuation token ids (`fact_1 cue_2 fact_2 … fact_m`).
    pub reference: Vec<u32>,
    /// Number of planted facts in the chain.
    pub num_facts: usize,
}

impl Sample {
    /// Number of tokens a model should generate to cover the reference.
    pub fn target_generation_len(&self) -> usize {
        self.reference.len()
    }
}

/// A planted retrieval chain: parallel cue and fact token lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Cue tokens, one per fact (all distinct).
    pub cues: Vec<u32>,
    /// Fact tokens, one per cue (all distinct).
    pub facts: Vec<u32>,
}

impl Chain {
    /// Samples a chain of `num_facts` distinct cue/fact pairs.
    pub fn sample(vocab: &Vocabulary, num_facts: usize, rng: &mut StdRng) -> Chain {
        assert!(num_facts as u32 <= NUM_CUES.min(NUM_FACTS));
        let mut cue_ids: Vec<u32> = (0..NUM_CUES).collect();
        let mut fact_ids: Vec<u32> = (0..NUM_FACTS).collect();
        cue_ids.shuffle(rng);
        fact_ids.shuffle(rng);
        Chain {
            cues: cue_ids[..num_facts].iter().map(|&i| vocab.cue(i)).collect(),
            facts: fact_ids[..num_facts]
                .iter()
                .map(|&i| vocab.fact(i))
                .collect(),
        }
    }

    /// Number of links (facts) in the chain.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Returns `true` for a chain without links.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The reference continuation this chain encodes when prompted with its first
    /// cue: `fact_1 cue_2 fact_2 … cue_m fact_m`.
    pub fn reference(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.facts.len() * 2 - 1);
        for (i, &fact) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push(self.cues[i]);
            }
            out.push(fact);
        }
        out
    }

    /// The five-token block planted for link `i`:
    /// `[cue_i, fact_i, cue_{i+1}, fact_{i+1}, cue_{i+2}]`, with out-of-range chain
    /// positions padded by `filler`.
    pub fn link_block(&self, i: usize, filler: [u32; 3]) -> [u32; 5] {
        let m = self.len();
        let cue = |j: usize, pad: u32| if j < m { self.cues[j] } else { pad };
        let fact = |j: usize, pad: u32| if j < m { self.facts[j] } else { pad };
        [
            self.cues[i],
            self.facts[i],
            cue(i + 1, filler[0]),
            fact(i + 1, filler[1]),
            cue(i + 2, filler[2]),
        ]
    }

    /// Number of blocks planted for this chain (`m - 1`, or 1 for a single-link
    /// chain).
    pub fn num_blocks(&self) -> usize {
        self.len()
            .saturating_sub(1)
            .max(usize::from(!self.is_empty()))
    }
}

/// Draws a filler token from a bounded pool (documents reuse a working set of filler
/// words, so filler tokens repeat and accumulate attention the way common words do in
/// natural text).
pub fn draw_filler(vocab: &Vocabulary, pool: u32, rng: &mut StdRng) -> u32 {
    let pool = pool.clamp(1, NUM_FILLER);
    vocab.filler(rng.gen_range(0..pool))
}

/// Builds a document of `body_len` filler tokens with the chain's blocks planted at
/// roughly evenly spaced positions inside the first `plant_span` fraction of the body.
///
/// The document length is always exactly `body_len`; planted blocks overwrite filler
/// slots. Block positions never overlap, so the planted adjacencies are preserved.
pub fn plant_chain(
    vocab: &Vocabulary,
    chain: &Chain,
    body_len: usize,
    filler_pool: u32,
    plant_span: f64,
    rng: &mut StdRng,
) -> Vec<u32> {
    const BLOCK: usize = 5;
    let mut body: Vec<u32> = (0..body_len)
        .map(|_| draw_filler(vocab, filler_pool, rng))
        .collect();
    if chain.is_empty() {
        return body;
    }
    let blocks = chain.num_blocks();
    let span = (((body_len as f64) * plant_span.clamp(0.1, 1.0)) as usize)
        .max(BLOCK * blocks)
        .min(body_len);
    let stride = (span / blocks).max(BLOCK);
    for i in 0..blocks {
        let base = i * stride;
        let slack = stride.saturating_sub(BLOCK);
        let jitter = if slack > 1 {
            rng.gen_range(0..slack)
        } else {
            0
        };
        let pos = (base + jitter).min(body_len.saturating_sub(BLOCK));
        let filler_tail = [
            draw_filler(vocab, filler_pool, rng),
            draw_filler(vocab, filler_pool, rng),
            draw_filler(vocab, filler_pool, rng),
        ];
        let block = chain.link_block(i, filler_tail);
        body[pos..pos + BLOCK].copy_from_slice(&block);
    }
    body
}

/// Builds the summarization-instruction suffix shared by the task generators:
/// `TLDR cue_1 <aspect> cue_2 <aspect> … cue_m SEP cue_1`.
///
/// Listing the aspects to cover is what a real summarization instruction does; for
/// the cache policies it is also the moment the prompt's final queries attend to the
/// planted blocks, concentrating attention mass on the key tokens right before the
/// post-prompt cache reduction — the situation Figure 3b of the paper describes.
/// The first chain cue is repeated at the very end so generation starts the chain.
pub fn instruction_suffix(chain: &Chain) -> Vec<u32> {
    let mut out = Vec::with_capacity(2 * chain.len() + 2);
    out.push(crate::vocab::TLDR);
    for (i, &cue) in chain.cues.iter().enumerate() {
        if i > 0 {
            out.push(crate::vocab::ASPECT_SEP);
        }
        out.push(cue);
    }
    out.push(crate::vocab::SEP);
    out.push(chain.cues[0]);
    out
}

/// Number of tokens produced by [`instruction_suffix`] for a chain of `m` links.
pub fn instruction_suffix_len(num_facts: usize) -> usize {
    2 * num_facts + 2
}

/// Checks that at least `min_count` occurrences of `first` in `haystack` are
/// immediately followed by `second`. Shared by dataset tests and integration tests.
pub fn adjacency_count(haystack: &[u32], first: u32, second: u32) -> usize {
    haystack
        .windows(2)
        .filter(|w| w[0] == first && w[1] == second)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::TokenRole;
    use rand::SeedableRng;

    #[test]
    fn chain_cues_and_facts_are_distinct() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(1);
        let chain = Chain::sample(&vocab, 8, &mut rng);
        let mut cues = chain.cues.clone();
        cues.sort_unstable();
        cues.dedup();
        assert_eq!(cues.len(), 8);
        assert_eq!(chain.len(), 8);
        assert!(!chain.is_empty());
        assert!(chain.cues.iter().all(|&c| vocab.role(c) == TokenRole::Cue));
        assert!(chain
            .facts
            .iter()
            .all(|&f| vocab.role(f) == TokenRole::Fact));
    }

    #[test]
    fn reference_interleaves_facts_and_cues() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(2);
        let chain = Chain::sample(&vocab, 3, &mut rng);
        let r = chain.reference();
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], chain.facts[0]);
        assert_eq!(r[1], chain.cues[1]);
        assert_eq!(r[2], chain.facts[1]);
        assert_eq!(r[4], chain.facts[2]);
    }

    #[test]
    fn link_blocks_overlap_consistently() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(3);
        let chain = Chain::sample(&vocab, 4, &mut rng);
        let filler = [1000, 1001, 1002];
        let b0 = chain.link_block(0, filler);
        let b1 = chain.link_block(1, filler);
        // block_0's tail three tokens equal block_1's head three tokens.
        assert_eq!(&b0[2..5], &b1[0..3]);
        // The final block pads out-of-range positions with filler.
        let last = chain.link_block(3, filler);
        assert_eq!(last[2], filler[0]);
        assert_eq!(chain.num_blocks(), 3);
    }

    #[test]
    fn plant_chain_keeps_length_and_preserves_adjacencies() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(4);
        let chain = Chain::sample(&vocab, 6, &mut rng);
        let body = plant_chain(&vocab, &chain, 200, 40, 0.8, &mut rng);
        assert_eq!(body.len(), 200);
        // Every cue_j -> fact_j adjacency appears at least once, and every
        // fact_j -> cue_{j+1} adjacency appears at least once.
        for j in 0..chain.len() {
            assert!(
                adjacency_count(&body, chain.cues[j], chain.facts[j]) >= 1,
                "cue->fact adjacency {j} missing"
            );
            if j + 1 < chain.len() {
                assert!(
                    adjacency_count(&body, chain.facts[j], chain.cues[j + 1]) >= 1,
                    "fact->next-cue adjacency {j} missing"
                );
            }
        }
    }

    #[test]
    fn interior_links_are_mentioned_twice() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(8);
        let chain = Chain::sample(&vocab, 6, &mut rng);
        let body = plant_chain(&vocab, &chain, 300, 60, 0.8, &mut rng);
        // Links 1..m-1 appear in two blocks each.
        for j in 1..chain.len() - 1 {
            assert_eq!(
                adjacency_count(&body, chain.cues[j], chain.facts[j]),
                2,
                "link {j} should be mentioned twice"
            );
        }
    }

    #[test]
    fn successor_votes_have_a_correct_majority() {
        // The property that makes free-running chain recovery work: for every chain
        // token, the majority of its occurrences in the document are followed by the
        // next token of the reference chain.
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(11);
        let chain = Chain::sample(&vocab, 7, &mut rng);
        let body = plant_chain(&vocab, &chain, 320, 60, 0.75, &mut rng);
        let reference = chain.reference();
        let mut walk = vec![chain.cues[0]];
        walk.extend_from_slice(&reference);
        for pair in walk.windows(2) {
            let (tok, next) = (pair[0], pair[1]);
            let total = body.iter().filter(|&&t| t == tok).count();
            let good = adjacency_count(&body, tok, next);
            assert!(
                2 * good >= total,
                "token {tok} has only {good}/{total} correct successors"
            );
        }
    }

    #[test]
    fn plant_chain_is_deterministic_per_seed() {
        let vocab = Vocabulary::new();
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let chain = Chain::sample(&vocab, 4, &mut rng);
            plant_chain(&vocab, &chain, 120, 30, 0.7, &mut rng)
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
    }

    #[test]
    fn filler_pool_is_respected() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let f = draw_filler(&vocab, 10, &mut rng);
            assert!(f >= vocab.filler(0) && f < vocab.filler(10));
        }
    }

    #[test]
    fn single_link_chain_is_planted() {
        let vocab = Vocabulary::new();
        let mut rng = StdRng::seed_from_u64(6);
        let chain = Chain::sample(&vocab, 1, &mut rng);
        let body = plant_chain(&vocab, &chain, 50, 20, 0.8, &mut rng);
        assert_eq!(body.len(), 50);
        assert!(adjacency_count(&body, chain.cues[0], chain.facts[0]) >= 1);
        assert_eq!(chain.reference(), vec![chain.facts[0]]);
    }
}
