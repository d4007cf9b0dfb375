//! Long-context report summarization (the Figure 8 scenario): a GovReport-style
//! document several times longer than a news article, summarised with Keyformer and
//! H2O at small cache budgets on the long-context MPT-storywriter-like model.
//!
//! ```text
//! cargo run --release --example long_context_report
//! ```

use keyformer::core::PolicySpec;
use keyformer::model::families::ModelFamily;
use keyformer::text::datasets::longdoc::{LongDocDataset, LongDocSpec};
use keyformer::text::eval::{evaluate_generation, EvalSetting};

fn main() {
    let spec = LongDocSpec::paper_default();
    let dataset = LongDocDataset::generate(&spec, 2);
    println!(
        "report length: {} tokens, {} salient facts per report",
        spec.prompt_len(),
        spec.total_facts()
    );
    let model = ModelFamily::MptStorywriterLike.build(3);
    let full = evaluate_generation(&model, &EvalSetting::full_attention(), dataset.samples());
    println!("full attention: ROUGE-2 {:.3}\n", full.rouge2.f1);
    println!("{:<10} {:>10} {:>12}", "kv cache", "h2o", "keyformer");
    for fraction in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut cells = Vec::new();
        for policy in [PolicySpec::h2o_default(), PolicySpec::keyformer_default()] {
            let setting = EvalSetting::budgeted(policy, fraction);
            let rouge = evaluate_generation(&model, &setting, dataset.samples());
            cells.push(rouge.rouge2.f1);
        }
        println!(
            "{:<10} {:>10.3} {:>12.3}",
            format!("{:.0}%", fraction * 100.0),
            cells[0],
            cells[1]
        );
    }
}
