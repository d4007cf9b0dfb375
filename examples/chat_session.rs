//! Conversation recap (the SODA-style scenario): a multi-turn dialogue whose final
//! turn asks the assistant to recap the discussed topics, evaluated under several
//! cache policies.
//!
//! ```text
//! cargo run --release --example chat_session
//! ```

use keyformer::core::{CacheBudgetSpec, PolicySpec};
use keyformer::model::families::ModelFamily;
use keyformer::model::generation::GenerationConfig;
use keyformer::model::session::Session;
use keyformer::text::datasets::dialogue::{DialogueDataset, DialogueSpec};
use keyformer::text::rouge::rouge_scores;
use keyformer::text::Vocabulary;

fn main() {
    let vocab = Vocabulary::new();
    let spec = DialogueSpec::paper_default();
    let dataset = DialogueDataset::generate(&spec, 1);
    let sample = &dataset.samples()[0];
    let model = ModelFamily::MptLike.build(3);

    println!(
        "dialogue: {} turns, {} tokens, {} topics to recap",
        spec.num_turns,
        sample.prompt.len(),
        sample.num_facts
    );
    println!("expected recap: {}\n", vocab.render(&sample.reference));

    for (label, policy, fraction) in [
        ("Full attention", PolicySpec::Full, None),
        (
            "Keyformer @ 60%",
            PolicySpec::keyformer_default(),
            Some(0.6),
        ),
        ("H2O @ 60%", PolicySpec::h2o_default(), Some(0.6)),
        (
            "StreamingLLM @ 60%",
            PolicySpec::streaming_default(),
            Some(0.6),
        ),
    ] {
        let budget = fraction.map(|f| CacheBudgetSpec::with_fraction(f).expect("valid budget"));
        let output = Session::new(&model, policy.build().expect("valid policy"), budget)
            .generate(
                &sample.prompt,
                &GenerationConfig::new(sample.reference.len()),
            )
            .expect("generation failed");
        let rouge = rouge_scores(&output.generated, &sample.reference);
        println!("== {label} ==");
        println!("  recap: {}", vocab.render(&output.generated));
        println!("  ROUGE-2 {:.3}\n", rouge.rouge2.f1);
    }
}
