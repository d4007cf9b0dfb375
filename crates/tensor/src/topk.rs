//! Top-k index selection.
//!
//! Every scored eviction policy picks its key tokens with [`top_k_indices_into`],
//! so the selection semantics are centralised here. Slots rank by descending
//! score; NaN ranks below every number, `+0.0` and `-0.0` rank equal, and equal
//! scores (NaN among NaN included) go to the *earlier* index. With the index as
//! the last key this is a strict total order, so the kept set is unique.
//!
//! Selection is linear and allocation-free: one `select_nth_unstable_by` pass
//! finds the first slot that misses the cut (at the decode shape, `k = len − 1`,
//! a single max scan), and one more pass keeps every slot that ranks before it,
//! writing them in ascending index order into a caller-owned buffer.

use std::cmp::Ordering;

fn cmp_score(a: f32, b: f32) -> Ordering {
    // NaN scores sort below everything so they are never selected.
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// Returns the indices of the `k` largest scores, sorted by ascending index: the
/// allocating form of [`top_k_indices_into`].
///
/// ```
/// let idx = keyformer_tensor::top_k_indices(&[0.1, 0.9, 0.5, 0.9], 2);
/// assert_eq!(idx, vec![1, 3]);
/// ```
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    top_k_indices_into(scores, k, &mut out);
    out
}

/// Replaces the contents of `out` with the indices of the `k` largest scores, in
/// ascending index order.
///
/// Ties are broken towards the *earlier* index, matching the paper's bias towards
/// initial tokens when scores are equal. If `k >= scores.len()` every index is
/// kept. NaN scores are never selected unless there are not enough other scores
/// to fill `k` slots. Runs in linear time and, once `out` has held
/// `scores.len()` indices, without allocating.
pub fn top_k_indices_into(scores: &[f32], k: usize, out: &mut Vec<usize>) {
    out.clear();
    if k == 0 {
        return;
    }
    let n = scores.len();
    out.extend(0..n);
    if k >= n {
        return;
    }
    // Whether slot `a` ranks before slot `b`: the higher score first, then the
    // earlier index.
    let rank = |&a: &usize, &b: &usize| cmp_score(scores[b], scores[a]).then(a.cmp(&b));
    // The slot ranked `k` (0-based) is the best one that misses the cut.
    let cut = *out.select_nth_unstable_by(k, rank).1;
    out.clear();
    out.extend((0..n).filter(|i| rank(i, &cut) == Ordering::Less));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest_k() {
        let scores = [0.2, 0.9, 0.1, 0.8, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 4]);
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let scores = [1.0, 2.0];
        assert!(top_k_indices(&scores, 0).is_empty());
        assert_eq!(top_k_indices(&scores, 10), vec![0, 1]);
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn ties_prefer_earlier_index() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![0, 1]);
    }

    #[test]
    fn nan_scores_are_avoided() {
        let scores = [f32::NAN, 1.0, f32::NAN, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
    }

    #[test]
    fn output_is_sorted_by_index() {
        let scores = [0.1, 0.9, 0.2, 0.8, 0.3];
        let idx = top_k_indices(&scores, 4);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted);
    }

    /// Reference: a full sort by descending score, ties to the earlier
    /// index, then the first `k` in ascending index order.
    fn full_sort_top_k(scores: &[f32], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| cmp_score(scores[b], scores[a]).then_with(|| a.cmp(&b)));
        order.truncate(k);
        order.sort_unstable();
        order
    }

    /// Equals the full sort at every `k` in `0..=n`, on scores with planted
    /// ties, NaN, `+0.0` against `-0.0`, subnormals and infinities, through
    /// one reused buffer.
    #[test]
    fn partial_selection_equals_the_full_sort_at_every_k() {
        let planted = [
            0.5,
            0.5,
            f32::NAN,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 4.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        for case in 0..64 {
            let n = case % 37;
            let scores: Vec<f32> = (0..n)
                .map(|_| match next() % 3 {
                    0 => planted[(next() % planted.len() as u64) as usize],
                    1 => (next() % 4) as f32 * 0.25,
                    _ => (next() % 1000) as f32 / 999.0 - 0.5,
                })
                .collect();
            for k in 0..=n + 1 {
                top_k_indices_into(&scores, k, &mut out);
                assert_eq!(out, full_sort_top_k(&scores, k), "k = {k} of {scores:?}");
            }
        }
    }
}
