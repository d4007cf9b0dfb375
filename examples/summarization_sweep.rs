//! Summarization sweep: ROUGE-2 vs. KV-cache budget for every policy on one model
//! family — a scaled-down, runnable version of the paper's Figure 7.
//!
//! ```text
//! cargo run --release --example summarization_sweep
//! ```

use keyformer::core::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::text::datasets::summarization::{SummarizationDataset, SummarizationSpec};
use keyformer::text::eval::{evaluate_generation, EvalSetting};

fn main() {
    let dataset = SummarizationDataset::generate(&SummarizationSpec::paper_default(), 3);
    let model = ModelFamily::GptJLike.build(3);
    let full = evaluate_generation(&model, &EvalSetting::full_attention(), dataset.samples());
    println!("model: {}", ModelFamily::GptJLike.label());
    println!(
        "full attention baseline: ROUGE-2 {:.3} (99% band at {:.3})\n",
        full.rouge2.f1,
        0.99 * full.rouge2.f1
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>14}",
        "kv cache", "window", "h2o", "keyformer", "streaming-llm"
    );
    for fraction in [0.3, 0.5, 0.7, 0.9] {
        let mut cells = Vec::new();
        for policy in [
            PolicySpec::Window,
            PolicySpec::h2o_default(),
            PolicySpec::keyformer_default(),
            PolicySpec::streaming_default(),
        ] {
            let setting = EvalSetting::budgeted(policy, fraction);
            let rouge = evaluate_generation(&model, &setting, dataset.samples());
            cells.push(rouge.rouge2.f1);
        }
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3} {:>14.3}",
            format!("{:.0}%", fraction * 100.0),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
}
