//! Attention-statistics collection: sparsity, attention-mass CDFs and heat maps.
//!
//! These instruments reproduce the paper's analysis figures: per-layer attention
//! sparsity (Figures 3a and 11), the cumulative attention-mass curve (Figure 3b) and
//! the layer × head heat maps (Figures 14–15).

use keyformer_core::diagnostics::{attention_mass_cdf, attention_sparsity, CdfPoint};
use keyformer_core::Phase;
use keyformer_tensor::Matrix;

/// One recorded attention event: the post-softmax probabilities of a single head at a
/// single decode step. The analysis runs Full attention without a budget, so slot `i`
/// holds sequence position `i`.
#[derive(Debug)]
pub struct AttentionRecord {
    /// Decoder layer.
    pub layer: usize,
    /// Attention head.
    pub head: usize,
    /// Decode step within its phase.
    pub step: usize,
    /// Phase the step belonged to.
    pub phase: Phase,
    /// Post-softmax attention probabilities over live cache slots.
    pub probs: Vec<f32>,
}

/// Collector of [`AttentionRecord`]s with the aggregation queries the experiments
/// need. Only the analysis experiments collect, through a recording policy,
/// because every head × step probability vector is memory-heavy for long prompts.
#[derive(Debug, Default)]
pub struct AttentionStats {
    records: Vec<AttentionRecord>,
    num_layers: usize,
}

impl AttentionStats {
    /// Creates an empty collector for a model with `num_layers` layers.
    pub fn new(num_layers: usize) -> Self {
        AttentionStats {
            records: Vec::new(),
            num_layers,
        }
    }

    /// Appends one record.
    pub fn record(&mut self, record: AttentionRecord) {
        self.records.push(record);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All raw records.
    pub fn records(&self) -> &[AttentionRecord] {
        &self.records
    }

    /// Mean attention sparsity per layer at the given threshold (fraction of tokens
    /// whose probability is at most `threshold` × the maximum probability) —
    /// Figures 3a / 11.
    pub fn sparsity_per_layer(&self, threshold: f32) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.num_layers];
        let mut counts = vec![0usize; self.num_layers];
        for r in &self.records {
            if r.layer < self.num_layers && r.probs.len() > 1 {
                sums[r.layer] += attention_sparsity(&r.probs, threshold);
                counts[r.layer] += 1;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    /// Mean cumulative attention-mass curve over all records with at least
    /// `min_context` live slots — Figure 3b.
    pub fn mass_cdf(&self, fractions: &[f64], min_context: usize) -> Vec<CdfPoint> {
        let mut sums = vec![0.0f64; fractions.len()];
        let mut count = 0usize;
        for r in &self.records {
            if r.probs.len() < min_context {
                continue;
            }
            for (s, point) in sums.iter_mut().zip(attention_mass_cdf(&r.probs, fractions)) {
                *s += point.attention_mass;
            }
            count += 1;
        }
        fractions
            .iter()
            .zip(&sums)
            .map(|(&f, &s)| CdfPoint {
                token_fraction: f,
                attention_mass: if count == 0 { 0.0 } else { s / count as f64 },
            })
            .collect()
    }

    /// Attention heat map for one layer/head: rows are generation steps, columns are
    /// cache slots — sequence positions, as nothing was evicted — and values are
    /// attention probabilities (Figures 14–15). Rows cover only [`Phase::Generation`] records, matching the paper's
    /// plots whose y-axis is text generation.
    pub fn heatmap(&self, layer: usize, head: usize, seq_len: usize) -> Matrix {
        let rows: Vec<&AttentionRecord> = self
            .records
            .iter()
            .filter(|r| r.layer == layer && r.head == head && r.phase == Phase::Generation)
            .collect();
        let mut map = Matrix::zeros(rows.len(), seq_len);
        for (row_idx, r) in rows.iter().enumerate() {
            for (slot, &p) in r.probs.iter().enumerate().take(seq_len) {
                map.set(row_idx, slot, p);
            }
        }
        map
    }

    /// Fraction of heat-map cells (over all layers/heads) with attention below
    /// `threshold` — a scalar summary of how empty the Figures 14–15 plots are.
    pub fn zero_fraction(&self, threshold: f32) -> f64 {
        let mut zero = 0usize;
        let mut total = 0usize;
        for r in &self.records {
            total += r.probs.len();
            zero += r.probs.iter().filter(|&&p| p < threshold).count();
        }
        if total == 0 {
            0.0
        } else {
            zero as f64 / total as f64
        }
    }

    /// Clears all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(layer: usize, head: usize, phase: Phase, probs: Vec<f32>) -> AttentionRecord {
        AttentionRecord {
            layer,
            head,
            step: 0,
            phase,
            probs,
        }
    }

    #[test]
    fn sparsity_is_aggregated_per_layer() {
        let mut stats = AttentionStats::new(2);
        stats.record(record(0, 0, Phase::Prompt, vec![0.97, 0.01, 0.01, 0.01]));
        stats.record(record(1, 0, Phase::Prompt, vec![0.25, 0.25, 0.25, 0.25]));
        let sparsity = stats.sparsity_per_layer(0.1);
        assert!(
            sparsity[0] > 0.5,
            "peaked layer should be sparse: {sparsity:?}"
        );
        assert!(
            sparsity[1] < 0.1,
            "uniform layer should be dense: {sparsity:?}"
        );
    }

    #[test]
    fn mass_cdf_respects_min_context() {
        let mut stats = AttentionStats::new(1);
        stats.record(record(0, 0, Phase::Prompt, vec![0.5, 0.5]));
        stats.record(record(0, 0, Phase::Prompt, vec![0.7, 0.1, 0.1, 0.05, 0.05]));
        let curve = stats.mass_cdf(&[0.2, 1.0], 4);
        assert!((curve[1].attention_mass - 1.0).abs() < 1e-6);
        assert!(
            curve[0].attention_mass > 0.5,
            "top 20% should capture the peak"
        );
    }

    #[test]
    fn heatmap_places_probs_at_original_positions() {
        // Without eviction slot `i` holds position `i`; columns past
        // `seq_len` are dropped.
        let mut stats = AttentionStats::new(1);
        stats.record(record(
            0,
            0,
            Phase::Generation,
            vec![0.0, 0.0, 0.0, 0.9, 0.1],
        ));
        let map = stats.heatmap(0, 0, 4);
        assert_eq!(map.shape(), (1, 4));
        assert!((map.get(0, 3) - 0.9).abs() < 1e-6);
        assert_eq!(map.get(0, 0), 0.0);
    }

    #[test]
    fn heatmap_ignores_prompt_records_and_other_heads() {
        let mut stats = AttentionStats::new(1);
        stats.record(record(0, 0, Phase::Prompt, vec![1.0]));
        stats.record(record(0, 1, Phase::Generation, vec![1.0]));
        assert_eq!(stats.heatmap(0, 0, 4).rows(), 0);
        assert_eq!(stats.heatmap(0, 1, 4).rows(), 1);
    }

    #[test]
    fn zero_fraction_counts_small_probs() {
        let mut stats = AttentionStats::new(1);
        stats.record(record(0, 0, Phase::Generation, vec![0.95, 0.05, 0.0, 0.0]));
        assert!((stats.zero_fraction(0.01) - 0.5).abs() < 1e-9);
        assert_eq!(stats.len(), 1);
        stats.clear();
        assert!(stats.is_empty());
        assert_eq!(stats.zero_fraction(0.01), 0.0);
    }
}
