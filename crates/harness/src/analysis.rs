//! Attention-analysis experiments: sparsity, attention-mass CDFs, softmax shift and
//! heat maps (Figures 3a, 3b, 4, 11, 14/15).

use crate::accuracy::{Datasets, MODEL_SEED};
use crate::report::{fmt, Table};
use crate::stats::{AttentionRecord, AttentionStats};
use keyformer_core::diagnostics::softmax_shift;
use keyformer_core::{AttentionObservation, CacheBudget, FullAttention, KvCachePolicy};
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::session::Session;
use keyformer_tensor::ops::softmax_into;
use keyformer_tensor::top_k_indices;
use std::sync::{Arc, Mutex};

/// Full attention that also records the softmax of every logit row it
/// observes, in the order the forward hands them over, into a collector its
/// clones share.
#[derive(Clone)]
struct Recorder {
    stats: Arc<Mutex<AttentionStats>>,
}

impl KvCachePolicy for Recorder {
    fn name(&self) -> &'static str {
        "full"
    }

    fn observe(&mut self, obs: &AttentionObservation<'_>) {
        let mut probs = Vec::new();
        softmax_into(obs.logits, &mut probs);
        self.stats
            .lock()
            .expect("recorder lock")
            .record(AttentionRecord {
                layer: obs.layer,
                head: obs.head,
                step: obs.step,
                phase: obs.phase,
                probs,
            });
    }

    fn select_retained_into(
        &mut self,
        layer: usize,
        live: usize,
        budget: &CacheBudget,
        out: &mut Vec<usize>,
    ) {
        FullAttention.select_retained_into(layer, live, budget, out);
    }

    fn compact(&mut self, _layer: usize, _retained: &[usize]) {}

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn KvCachePolicy> {
        Box::new(self.clone())
    }
}

fn collect_stats(family: ModelFamily, datasets: &Datasets, samples: usize) -> AttentionStats {
    let model = family.build(MODEL_SEED);
    let stats = Arc::new(Mutex::new(AttentionStats::new(model.config().num_layers)));
    let recorder = Recorder {
        stats: Arc::clone(&stats),
    };
    let mut session = Session::new(&model, Box::new(recorder), None);
    for sample in datasets.summarization_samples(samples) {
        session
            .generate(
                &sample.prompt,
                &GenerationConfig::new(sample.reference.len()),
            )
            .expect("generation failed");
    }
    let collected = std::mem::take(&mut *stats.lock().expect("recorder lock"));
    collected
}

/// The attention statistics of each family an analysis figure reads.
struct Collections(Vec<(ModelFamily, AttentionStats)>);

impl Collections {
    fn collect(families: &[ModelFamily], datasets: &Datasets, samples: usize) -> Self {
        Collections(
            families
                .iter()
                .map(|&family| (family, collect_stats(family, datasets, samples)))
                .collect(),
        )
    }

    fn get(&self, family: ModelFamily) -> &AttentionStats {
        let (_, stats) = self
            .0
            .iter()
            .find(|(f, _)| *f == family)
            .expect("family collected");
        stats
    }
}

/// Figure 3a: attention sparsity per layer (zero-threshold) for the three families.
pub fn figure3a(datasets: &Datasets, samples: usize) -> Table {
    let families = ModelFamily::paper_families();
    figure3a_of(&Collections::collect(&families, datasets, samples))
}

fn figure3a_of(collections: &Collections) -> Table {
    let mut table = Table::new(
        "Figure 3a: attention sparsity per layer (threshold 1% of max)",
        &["model", "layer", "sparsity"],
    );
    for family in ModelFamily::paper_families() {
        let stats = collections.get(family);
        for (layer, sparsity) in stats.sparsity_per_layer(0.01).iter().enumerate() {
            table.push_row(vec![
                family.label().into(),
                layer.to_string(),
                fmt(*sparsity),
            ]);
        }
    }
    table
}

/// Figure 3b: cumulative attention mass captured by the top-x% of tokens.
pub fn figure3b(datasets: &Datasets, samples: usize) -> Table {
    let families = ModelFamily::paper_families();
    figure3b_of(&Collections::collect(&families, datasets, samples))
}

fn figure3b_of(collections: &Collections) -> Table {
    let mut table = Table::new(
        "Figure 3b: cumulative attention mass vs fraction of tokens",
        &["model", "token_fraction", "attention_mass"],
    );
    let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    for family in ModelFamily::paper_families() {
        let stats = collections.get(family);
        for point in stats.mass_cdf(&fractions, 32) {
            table.push_row(vec![
                family.label().into(),
                format!("{:.0}%", point.token_fraction * 100.0),
                fmt(point.attention_mass),
            ]);
        }
    }
    table
}

/// Figure 4: redistribution of attention probability after evicting half the tokens.
pub fn figure4() -> Table {
    let mut table = Table::new(
        "Figure 4: softmax shift after 50% KV cache reduction (MPT-like)",
        &["slot", "full_prob", "reduced_prob"],
    );
    // A representative 8-slot logit vector (mirrors the paper's illustrative figure):
    // retain the top half by probability and recompute the softmax.
    let logits = [0.9f32, 0.8, 0.2, 1.7, 1.4, 1.1, -0.6, 0.3];
    let retained = top_k_indices(&logits, 4);
    let shift = softmax_shift(&logits, &retained);
    for slot in 0..logits.len() {
        table.push_row(vec![
            slot.to_string(),
            fmt(shift.full[slot] as f64),
            fmt(shift.reduced[slot] as f64),
        ]);
    }
    table.push_row(vec![
        "retained_mass".into(),
        fmt(shift.retained_mass as f64),
        fmt(1.0),
    ]);
    table
}

/// Figure 11: attention sparsity vs. threshold for the MPT-like model.
pub fn figure11(datasets: &Datasets, samples: usize) -> Table {
    figure11_of(&Collections::collect(
        &[ModelFamily::MptLike],
        datasets,
        samples,
    ))
}

fn figure11_of(collections: &Collections) -> Table {
    let mut table = Table::new(
        "Figure 11: attention sparsity vs threshold (MPT-like)",
        &["threshold", "layer", "sparsity"],
    );
    let stats = collections.get(ModelFamily::MptLike);
    for threshold in [0.0f32, 0.0001, 0.001, 0.01, 0.03, 0.05] {
        for (layer, sparsity) in stats.sparsity_per_layer(threshold).iter().enumerate() {
            table.push_row(vec![
                format!("{threshold}"),
                layer.to_string(),
                fmt(*sparsity),
            ]);
        }
    }
    table
}

/// Figures 14/15: heat-map summary (fraction of near-zero attention cells per
/// layer/head) for the GPT-J-like and MPT-like models.
pub fn figure14(datasets: &Datasets, samples: usize) -> Table {
    let families = [ModelFamily::GptJLike, ModelFamily::MptLike];
    figure14_of(&Collections::collect(&families, datasets, samples))
}

fn figure14_of(collections: &Collections) -> Table {
    let mut table = Table::new(
        "Figures 14/15: attention heat-map sparsity per layer and head",
        &["model", "layer", "head", "zero_fraction", "heatmap_rows"],
    );
    for family in [ModelFamily::GptJLike, ModelFamily::MptLike] {
        let stats = collections.get(family);
        let model = family.build(MODEL_SEED);
        let config = model.config();
        for layer in 0..config.num_layers {
            for head in 0..config.num_heads {
                let map = stats.heatmap(layer, head, 512);
                let zero = map.as_slice().iter().filter(|&&p| p < 0.01).count() as f64
                    / map.len().max(1) as f64;
                table.push_row(vec![
                    family.label().into(),
                    layer.to_string(),
                    head.to_string(),
                    fmt(zero),
                    map.rows().to_string(),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_distributions_are_normalised() {
        let t = figure4();
        let full_sum: f64 = (0..8)
            .map(|r| t.cell(r, "full_prob").unwrap().parse::<f64>().unwrap())
            .sum();
        let reduced_sum: f64 = (0..8)
            .map(|r| t.cell(r, "reduced_prob").unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((full_sum - 1.0).abs() < 0.01);
        assert!((reduced_sum - 1.0).abs() < 0.01);
    }

    /// Every paper family's statistics on the small summarization spec at one
    /// sample, collected once per test process: the pin and the figure-3b test
    /// read it.
    fn collections_at_one_sample() -> &'static Collections {
        static COLLECTIONS: std::sync::OnceLock<Collections> = std::sync::OnceLock::new();
        COLLECTIONS.get_or_init(|| {
            Collections::collect(&ModelFamily::paper_families(), &Datasets::small(), 1)
        })
    }

    /// FNV-1a over a byte stream, as in the workspace's bit-identity tests.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Pins the analysis output bit for bit: every record's `(layer, head,
    /// step, phase, probability bits)` per family, and the rendered figure
    /// 3a / 3b / 11 / 14 tables. These runs use Full attention with no noise,
    /// so only a change to the substrate model or the softmax moves them.
    #[test]
    fn analysis_output_is_pinned() {
        let collections = collections_at_one_sample();
        let records: Vec<String> = ModelFamily::paper_families()
            .iter()
            .map(|&family| {
                let stats = collections.get(family);
                let hash = stats.records().iter().fold(FNV_OFFSET, |h, r| {
                    let phase = u8::from(r.phase.is_generation());
                    let h = [r.layer, r.head, r.step, r.probs.len()]
                        .iter()
                        .fold(h, |h, v| fnv1a(h, &(*v as u64).to_le_bytes()));
                    let h = fnv1a(h, &[phase]);
                    r.probs
                        .iter()
                        .fold(h, |h, p| fnv1a(h, &p.to_bits().to_le_bytes()))
                });
                format!("{} {} {hash:016x}", family.label(), stats.len())
            })
            .collect();
        let tables: Vec<String> = [
            figure3a_of(collections),
            figure3b_of(collections),
            figure11_of(collections),
            figure14_of(collections),
        ]
        .iter()
        .map(|t| format!("{:016x}", fnv1a(FNV_OFFSET, t.render_text().as_bytes())))
        .collect();
        assert_eq!(
            records, RECORDS,
            "attention records moved; new rows: {records:#?}"
        );
        assert_eq!(
            tables, TABLES,
            "analysis tables moved; new rows: {tables:#?}"
        );
    }

    const RECORDS: [&str; 3] = [
        "GPT-J-like (RoPE) 2272 1cf4d1db6bf806a2",
        "Cerebras-GPT-like (learned) 2272 175aa630f6bc1710",
        "MPT-like (ALiBi) 2272 8ee13108168d16ff",
    ];
    const TABLES: [&str; 4] = [
        "82ca055f8c5137e8",
        "ed0731fdffc4c214",
        "207da680488753fc",
        "05772d85ba98595e",
    ];

    #[test]
    fn figure3b_mass_is_monotone() {
        let t = figure3b_of(collections_at_one_sample());
        // 3 families x 9 fractions.
        assert_eq!(t.rows.len(), 27);
        let masses: Vec<f64> = (0..9)
            .map(|r| t.cell(r, "attention_mass").unwrap().parse::<f64>().unwrap())
            .collect();
        for pair in masses.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9);
        }
    }
}
