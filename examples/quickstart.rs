//! Quickstart: run one summarization request under full attention and under
//! Keyformer with a 50% KV-cache budget, and compare the outputs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use keyformer::core::{CacheBudgetSpec, PolicySpec};
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;
use keyformer::text::datasets::summarization::{SummarizationDataset, SummarizationSpec};
use keyformer::text::rouge::rouge_scores;
use keyformer::text::Vocabulary;

fn main() {
    let vocab = Vocabulary::new();
    let dataset = SummarizationDataset::generate(&SummarizationSpec::paper_default(), 1);
    let sample = &dataset.samples()[0];
    let model = ModelFamily::MptLike.build(3);
    println!("prompt length: {} tokens", sample.prompt.len());
    println!("reference summary: {}\n", vocab.render(&sample.reference));

    for (label, policy, budget) in [
        ("Full attention", PolicySpec::Full, None),
        (
            "Keyformer @ 50% KV cache",
            PolicySpec::keyformer_default(),
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid budget")),
        ),
        (
            "Window attention @ 50% KV cache",
            PolicySpec::Window,
            Some(CacheBudgetSpec::with_fraction(0.5).expect("valid budget")),
        ),
    ] {
        let output = Session::new(&model, policy.build().expect("valid policy"), budget)
            .generate(
                &sample.prompt,
                &GenerationConfig::new(sample.reference.len()),
            )
            .expect("generation failed");
        let rouge = rouge_scores(&output.generated, &sample.reference);
        println!("== {label} ==");
        println!("  generated: {}", vocab.render(&output.generated));
        println!(
            "  ROUGE-1 {:.3} / ROUGE-2 {:.3} / ROUGE-L {:.3}",
            rouge.rouge1.f1, rouge.rouge2.f1, rouge.rouge_l.f1
        );
        println!(
            "  final KV cache: {} slots per layer, {} KiB\n",
            output.final_cache_slots[0],
            output.final_cache_bytes / 1024
        );
    }
}
