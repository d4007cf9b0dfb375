//! Attention-analysis experiments: sparsity, attention-mass CDFs, softmax shift and
//! heat maps (Figures 3a, 3b, 4, 11, 14/15).

use crate::accuracy::{Datasets, MODEL_SEED};
use crate::report::{fmt, Table};
use keyformer_core::diagnostics::softmax_shift;
use keyformer_core::spec::PolicySpec;
use keyformer_model::families::ModelFamily;
use keyformer_model::generation::GenerationConfig;
use keyformer_model::session::Session;
use keyformer_tensor::top_k_indices;

fn collect_stats(
    family: ModelFamily,
    datasets: &Datasets,
    samples: usize,
) -> keyformer_model::AttentionStats {
    let model = family.build(MODEL_SEED);
    let mut session = Session::new(&model, PolicySpec::Full.build().expect("full"), None);
    session.enable_stats();
    let mut merged = keyformer_model::AttentionStats::new(model.config().num_layers);
    for sample in datasets.summarization_samples(samples) {
        session
            .generate(
                &sample.prompt,
                &GenerationConfig::new(sample.reference.len()),
            )
            .expect("generation failed");
        for record in session.stats().expect("stats enabled").records() {
            merged.record(record.clone());
        }
    }
    merged
}

/// Figure 3a: attention sparsity per layer (zero-threshold) for the three families.
pub fn figure3a(datasets: &Datasets, samples: usize) -> Table {
    let mut table = Table::new(
        "Figure 3a: attention sparsity per layer (threshold 1% of max)",
        &["model", "layer", "sparsity"],
    );
    for family in ModelFamily::paper_families() {
        let stats = collect_stats(family, datasets, samples);
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
    let mut table = Table::new(
        "Figure 3b: cumulative attention mass vs fraction of tokens",
        &["model", "token_fraction", "attention_mass"],
    );
    let fractions = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
    for family in ModelFamily::paper_families() {
        let stats = collect_stats(family, datasets, samples);
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
    let mut table = Table::new(
        "Figure 11: attention sparsity vs threshold (MPT-like)",
        &["threshold", "layer", "sparsity"],
    );
    let stats = collect_stats(ModelFamily::MptLike, datasets, samples);
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
    let mut table = Table::new(
        "Figures 14/15: attention heat-map sparsity per layer and head",
        &["model", "layer", "head", "zero_fraction", "heatmap_rows"],
    );
    for family in [ModelFamily::GptJLike, ModelFamily::MptLike] {
        let stats = collect_stats(family, datasets, samples);
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

    #[test]
    fn figure3b_mass_is_monotone() {
        let t = figure3b(&Datasets::small(), 1);
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
