//! ROUGE-1, ROUGE-2 and ROUGE-L over token-id sequences.
//!
//! The paper reports ROUGE scores for every accuracy experiment and adopts the MLPerf
//! acceptance band (generated scores within 99% of the full-attention baseline).
//! The implementation follows Lin (2004): n-gram recall/precision/F1 with clipped
//! counts, and longest-common-subsequence for ROUGE-L.

use std::collections::HashMap;

/// Precision / recall / F1 triple for one ROUGE variant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RougeScore {
    /// Fraction of candidate n-grams that appear in the reference.
    pub precision: f64,
    /// Fraction of reference n-grams that appear in the candidate.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl RougeScore {
    fn from_counts(overlap: usize, candidate_total: usize, reference_total: usize) -> Self {
        let precision = if candidate_total == 0 {
            0.0
        } else {
            overlap as f64 / candidate_total as f64
        };
        let recall = if reference_total == 0 {
            0.0
        } else {
            overlap as f64 / reference_total as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        RougeScore {
            precision,
            recall,
            f1,
        }
    }
}

/// The three ROUGE variants the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RougeScores {
    /// Unigram overlap.
    pub rouge1: RougeScore,
    /// Bigram overlap.
    pub rouge2: RougeScore,
    /// Longest-common-subsequence overlap.
    pub rouge_l: RougeScore,
}

impl RougeScores {
    /// Averages a set of per-sample scores (macro average over F1/precision/recall).
    pub fn mean(scores: &[RougeScores]) -> RougeScores {
        if scores.is_empty() {
            return RougeScores::default();
        }
        let n = scores.len() as f64;
        let avg = |extract: &dyn Fn(&RougeScores) -> RougeScore| {
            let mut out = RougeScore::default();
            for s in scores {
                let v = extract(s);
                out.precision += v.precision / n;
                out.recall += v.recall / n;
                out.f1 += v.f1 / n;
            }
            out
        };
        RougeScores {
            rouge1: avg(&|s| s.rouge1),
            rouge2: avg(&|s| s.rouge2),
            rouge_l: avg(&|s| s.rouge_l),
        }
    }
}

fn ngram_counts(tokens: &[u32], n: usize) -> HashMap<&[u32], usize> {
    let mut counts: HashMap<&[u32], usize> = HashMap::new();
    if tokens.len() >= n && n > 0 {
        for window in tokens.windows(n) {
            *counts.entry(window).or_insert(0) += 1;
        }
    }
    counts
}

fn ngram_overlap(candidate: &[u32], reference: &[u32], n: usize) -> RougeScore {
    let cand = ngram_counts(candidate, n);
    let refc = ngram_counts(reference, n);
    let overlap: usize = refc
        .iter()
        .map(|(gram, &rc)| cand.get(gram).copied().unwrap_or(0).min(rc))
        .sum();
    let cand_total = candidate.len().saturating_sub(n - 1);
    let ref_total = reference.len().saturating_sub(n - 1);
    RougeScore::from_counts(overlap, cand_total, ref_total)
}

/// Length of the longest common subsequence between two token sequences.
pub fn lcs_length(a: &[u32], b: &[u32]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut curr = vec![0usize; b.len() + 1];
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            curr[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Computes ROUGE-1, ROUGE-2 and ROUGE-L of `candidate` against `reference`.
pub fn rouge_scores(candidate: &[u32], reference: &[u32]) -> RougeScores {
    let lcs = lcs_length(candidate, reference);
    RougeScores {
        rouge1: ngram_overlap(candidate, reference, 1),
        rouge2: ngram_overlap(candidate, reference, 2),
        rouge_l: RougeScore::from_counts(lcs, candidate.len(), reference.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_one() {
        let seq = [1u32, 2, 3, 4, 5];
        let s = rouge_scores(&seq, &seq);
        assert!((s.rouge1.f1 - 1.0).abs() < 1e-9);
        assert!((s.rouge2.f1 - 1.0).abs() < 1e-9);
        assert!((s.rouge_l.f1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_sequences_score_zero() {
        let s = rouge_scores(&[1, 2, 3], &[4, 5, 6]);
        assert_eq!(s.rouge1.f1, 0.0);
        assert_eq!(s.rouge2.f1, 0.0);
        assert_eq!(s.rouge_l.f1, 0.0);
    }

    #[test]
    fn partial_overlap_known_values() {
        // candidate: "1 2 3 4", reference: "1 2 5 4" -> unigram overlap 3/4.
        let s = rouge_scores(&[1, 2, 3, 4], &[1, 2, 5, 4]);
        assert!((s.rouge1.precision - 0.75).abs() < 1e-9);
        assert!((s.rouge1.recall - 0.75).abs() < 1e-9);
        // bigrams: candidate {12,23,34}, reference {12,25,54} -> overlap 1/3.
        assert!((s.rouge2.f1 - 1.0 / 3.0).abs() < 1e-9);
        // LCS = [1,2,4] -> 3/4.
        assert!((s.rouge_l.f1 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn clipped_counts_prevent_repetition_gaming() {
        // Candidate repeats a reference unigram many times; precision must suffer.
        let s = rouge_scores(&[7, 7, 7, 7], &[7, 8]);
        assert!((s.rouge1.recall - 0.5).abs() < 1e-9);
        assert!((s.rouge1.precision - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let s = rouge_scores(&[], &[1, 2]);
        assert_eq!(s.rouge1.f1, 0.0);
        let s = rouge_scores(&[1, 2], &[]);
        assert_eq!(s.rouge1.f1, 0.0);
        let s = rouge_scores(&[], &[]);
        assert_eq!(s.rouge_l.f1, 0.0);
    }

    #[test]
    fn single_token_sequences_have_no_bigrams() {
        let s = rouge_scores(&[5], &[5]);
        assert!((s.rouge1.f1 - 1.0).abs() < 1e-9);
        assert_eq!(s.rouge2.f1, 0.0);
    }

    #[test]
    fn lcs_known_values() {
        assert_eq!(lcs_length(&[1, 3, 5, 7], &[1, 5, 7, 9]), 3);
        assert_eq!(lcs_length(&[1, 2], &[3, 4]), 0);
        assert_eq!(lcs_length(&[], &[1]), 0);
        assert_eq!(lcs_length(&[2, 1, 2], &[1, 2, 1]), 2);
    }

    #[test]
    fn mean_aggregates_samples() {
        let a = rouge_scores(&[1, 2, 3], &[1, 2, 3]);
        let b = rouge_scores(&[1, 2, 3], &[4, 5, 6]);
        let m = RougeScores::mean(&[a, b]);
        assert!((m.rouge1.f1 - 0.5).abs() < 1e-9);
        assert_eq!(RougeScores::mean(&[]), RougeScores::default());
    }

    #[test]
    fn order_matters_for_rouge_l_but_not_rouge_1() {
        let forward = rouge_scores(&[1, 2, 3, 4], &[1, 2, 3, 4]);
        let reversed = rouge_scores(&[4, 3, 2, 1], &[1, 2, 3, 4]);
        assert!((reversed.rouge1.f1 - forward.rouge1.f1).abs() < 1e-9);
        assert!(reversed.rouge_l.f1 < forward.rouge_l.f1);
    }
}
