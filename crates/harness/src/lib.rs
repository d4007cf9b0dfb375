//! # keyformer-harness
//!
//! Experiment definitions that regenerate every table and figure of the Keyformer
//! paper's evaluation (see DESIGN.md for the full index). Each experiment returns a
//! [`report::Table`] holding the same rows/series the paper reports; the
//! `kf-experiments` binary renders them as text and (optionally) CSV.
//!
//! Accuracy experiments run the laptop-scale substrate models on the synthetic task
//! generators; performance experiments use the analytic A100 roofline model. Both are
//! deterministic given their seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod analysis;
pub mod paging;
pub mod perf;
pub mod prefix;
pub mod quantization;
pub mod registry;
pub mod report;
pub mod serving;
pub mod sizing;
pub mod streaming;

pub use registry::{run_experiment, run_with_artefact, ExperimentId};
pub use report::Table;
