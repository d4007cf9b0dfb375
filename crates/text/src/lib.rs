//! # keyformer-text
//!
//! Text-side substrate of the Keyformer reproduction: a synthetic vocabulary and
//! tokenizer, a from-scratch ROUGE implementation, generators for the three task
//! families the paper evaluates (summarization, long-document summarization and
//! conversation), synthetic few-shot multiple-choice tasks standing in for the
//! lm-eval-harness suite, and evaluation drivers that wire everything to the
//! [`keyformer_model::Session`].
//!
//! ## Why synthetic tasks reproduce the paper's behaviour
//!
//! Every dataset generator plants *retrieval chains* in its documents: trigrams
//! `(cue_i, fact_i, cue_{i+1})` scattered through filler text. The reference summary
//! (or reply) is the chain `cue_1 fact_1 cue_2 fact_2 …`, and the prompt ends with
//! the first cue. A decoder with an induction mechanism recovers the chain *only if
//! the planted trigrams are still in the KV cache when generation reaches them* —
//! which is precisely the property the paper's ROUGE-vs-cache-budget curves measure.
//! See DESIGN.md's substitution table for the full argument.
//!
//! ```
//! use keyformer_text::datasets::summarization::{SummarizationDataset, SummarizationSpec};
//! use keyformer_text::rouge::rouge_scores;
//!
//! let dataset = SummarizationDataset::generate(&SummarizationSpec::small(), 1);
//! let sample = &dataset.samples()[0];
//! let perfect = rouge_scores(&sample.reference, &sample.reference);
//! assert!((perfect.rouge2.f1 - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod eval;
pub mod fewshot;
pub mod rouge;
pub mod tokenizer;
pub mod vocab;

pub use rouge::{rouge_scores, RougeScore, RougeScores};
pub use tokenizer::Tokenizer;
pub use vocab::Vocabulary;
