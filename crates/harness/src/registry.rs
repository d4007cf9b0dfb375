//! Experiment registry: one table mapping each experiment identifier to its
//! command-line names, the function that regenerates it and — for the five
//! step-counted serving experiments — the JSON artefact it writes.

use crate::accuracy::Datasets;
use crate::report::Table;
use crate::{accuracy, analysis, paging, perf, prefix, quantization, serving, streaming};
use serde::Serialize;

/// Identifier of one paper table or figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Figure 1: latency / memory vs. sequence length.
    Fig1,
    /// Figure 3a: attention sparsity per layer.
    Fig3a,
    /// Figure 3b: attention-mass CDF.
    Fig3b,
    /// Figure 3c: attention schemes at 50% cache.
    Fig3c,
    /// Figure 4: softmax shift after eviction.
    Fig4,
    /// Figure 5: damping-factor sweep.
    Fig5,
    /// Figures 7/13: ROUGE vs. cache budget.
    Fig7,
    /// Figure 8: long-context summarization.
    Fig8,
    /// Figure 9: iso-accuracy speedup.
    Fig9,
    /// Figure 10: data movement / scaled-dot-product breakdown.
    Fig10,
    /// Figure 11: sparsity vs. threshold.
    Fig11,
    /// Figure 12: recent-ratio sweep.
    Fig12,
    /// Figures 14/15: heat-map summary.
    Fig14,
    /// Figure 16: temperature sweep.
    Fig16,
    /// Table 1: generation throughput.
    Table1,
    /// Table 2: few-shot accuracy.
    Table2,
    /// Table 3: score-function / positional ablation.
    Table3,
    /// Table 4: logit-adjustment ablation.
    Table4,
    /// Serving throughput: requests completed per scheduler step under a fixed
    /// KV-byte pool (continuous batching; not a paper artefact — the end-to-end
    /// systems consequence of Table 1's footprint reductions).
    ServeThroughput,
    /// Paged-allocator comparison: throughput, pool utilization and overshoot
    /// versus block size at a fixed pool, against a contiguous
    /// (sequence-granularity) baseline (not a paper artefact).
    Paging,
    /// Copy-on-write prefix sharing: shared-system-prompt workload (prefix
    /// length × fan-out) with sharing off vs. on at a fixed pool (not a paper
    /// artefact).
    PrefixSharing,
    /// Streaming latency: TTFT and inter-token-latency percentiles per policy
    /// under mixed-priority traffic with mid-flight cancellations, via the
    /// event-driven engine (not a paper artefact).
    StreamingLatency,
    /// Quantized KV storage: u8 blocks (per-block affine scale/zero-point)
    /// vs f32 across policies and budgets at a fixed byte pool — completed
    /// requests, utilization and ROUGE deltas (not a paper artefact).
    Quantization,
}

/// How one experiment runs: to a table alone, or to a table plus the JSON
/// records of the artefact file it regenerates.
enum Run {
    Table(fn(usize) -> Table),
    Artefact(&'static str, fn(usize) -> (Table, String)),
}

/// One row of the registry: everything the crate knows about an experiment.
struct Experiment {
    id: ExperimentId,
    /// Command-line names; the first is canonical, the rest are aliases.
    names: &'static [&'static str],
    run: Run,
}

const BUDGETS: [f64; 8] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const SMALL_BUDGETS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Pairs a report's table with its records serialised as the artefact's JSON.
fn json<T: Serialize>((table, records): (Table, Vec<T>)) -> (Table, String) {
    let json = serde_json::to_string(&records)
        .expect("summaries hold only finite numbers, which JSON can represent");
    (table, json)
}

/// Checks an artefact's JSON the way a reader sees it: `json` parses to a
/// [`serde::Value`] array holding one object per record, each with exactly
/// `keys`, in order, and the values the record lowers to.
#[cfg(test)]
pub(crate) fn assert_artefact_parses<T: Serialize>(json: &str, records: &[T], keys: &[&str]) {
    let serde::Value::Seq(parsed) = serde_json::from_str(json).unwrap() else {
        panic!("an artefact is a JSON array: {json}");
    };
    assert_eq!(parsed.len(), records.len(), "one object per record");
    for (value, record) in parsed.iter().zip(records) {
        let serde::Value::Map(entries) = value else {
            panic!("a record is a JSON object: {value:?}");
        };
        let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, keys);
        assert_eq!(value, &record.to_value());
    }
}

/// Every experiment, in paper order. The quality experiments draw `samples`
/// samples from the paper-scale [`Datasets::paper`] specs; performance
/// experiments ignore `samples`.
#[rustfmt::skip]
static EXPERIMENTS: &[Experiment] = {
    use ExperimentId::*;
    use Run::{Artefact, Table};
    &[
        Experiment { id: Fig1, names: &["fig1"], run: Table(|_| perf::figure1()) },
        Experiment { id: Fig3a, names: &["fig3a"], run: Table(|s| analysis::figure3a(&Datasets::paper(), s)) },
        Experiment { id: Fig3b, names: &["fig3b"], run: Table(|s| analysis::figure3b(&Datasets::paper(), s)) },
        Experiment { id: Fig3c, names: &["fig3c"], run: Table(|s| accuracy::figure3c(&Datasets::paper(), s)) },
        Experiment { id: Fig4, names: &["fig4"], run: Table(|_| analysis::figure4()) },
        Experiment { id: Fig5, names: &["fig5"], run: Table(|s| accuracy::figure5(&Datasets::paper(), s)) },
        Experiment { id: Fig7, names: &["fig7", "fig13"], run: Table(|s| accuracy::figure7(&Datasets::paper(), s, &BUDGETS)) },
        Experiment { id: Fig8, names: &["fig8"], run: Table(|s| accuracy::figure8(&Datasets::paper(), s, &SMALL_BUDGETS)) },
        Experiment { id: Fig9, names: &["fig9"], run: Table(|_| perf::figure9()) },
        Experiment { id: Fig10, names: &["fig10"], run: Table(|_| perf::figure10()) },
        Experiment { id: Fig11, names: &["fig11"], run: Table(|s| analysis::figure11(&Datasets::paper(), s)) },
        Experiment { id: Fig12, names: &["fig12"], run: Table(|s| accuracy::figure12(&Datasets::paper(), s)) },
        Experiment { id: Fig14, names: &["fig14", "fig15"], run: Table(|s| analysis::figure14(&Datasets::paper(), s)) },
        Experiment { id: Fig16, names: &["fig16"], run: Table(|s| accuracy::figure16(&Datasets::paper(), s)) },
        Experiment { id: Table1, names: &["table1"], run: Table(|_| perf::table1()) },
        Experiment { id: Table2, names: &["table2"], run: Table(|s| accuracy::table2(s.max(4))) },
        Experiment { id: Table3, names: &["table3"], run: Table(|s| accuracy::table3(&Datasets::paper(), s)) },
        Experiment { id: Table4, names: &["table4"], run: Table(|s| accuracy::table4(&Datasets::paper(), s)) },
        Experiment {
            id: ServeThroughput,
            names: &["serve_throughput"],
            run: Artefact("BENCH_serving.json", |s| json(serving::serve_throughput_report(s))),
        },
        Experiment {
            id: Paging,
            names: &["paging"],
            run: Artefact("BENCH_paging.json", |s| json(paging::paging_report(s))),
        },
        Experiment {
            id: PrefixSharing,
            names: &["prefix_sharing"],
            run: Artefact("BENCH_prefix.json", |s| json(prefix::prefix_sharing_report(s))),
        },
        Experiment {
            id: StreamingLatency,
            names: &["streaming_latency"],
            run: Artefact("BENCH_latency.json", |s| json(streaming::streaming_latency_report(s))),
        },
        Experiment {
            id: Quantization,
            names: &["quantization"],
            run: Artefact("BENCH_quant.json", |s| json(quantization::quantization_report(&Datasets::paper(), s))),
        },
    ]
};

impl ExperimentId {
    fn row(self) -> &'static Experiment {
        EXPERIMENTS
            .iter()
            .find(|e| e.id == self)
            .expect("every experiment id has a registry row")
    }

    /// Every experiment, in paper order.
    pub fn all() -> Vec<ExperimentId> {
        EXPERIMENTS.iter().map(|e| e.id).collect()
    }

    /// Parses a command-line name such as `fig7` or `table3` (case-insensitive;
    /// figures that share an experiment, such as `fig13`, are aliases).
    pub fn parse(name: &str) -> Option<ExperimentId> {
        let name = name.to_ascii_lowercase();
        EXPERIMENTS
            .iter()
            .find(|e| e.names.contains(&name.as_str()))
            .map(|e| e.id)
    }

    /// Command-line name of this experiment.
    pub fn name(&self) -> &'static str {
        self.row().names[0]
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Runs one experiment and returns its table plus, for the experiments that
/// have a machine-readable artefact, the file name and the JSON to write there.
pub fn run_with_artefact(
    id: ExperimentId,
    samples: usize,
) -> (Table, Option<(&'static str, String)>) {
    match id.row().run {
        Run::Table(run) => (run(samples), None),
        Run::Artefact(file, run) => {
            let (table, json) = run(samples);
            (table, Some((file, json)))
        }
    }
}

/// Runs one experiment. `samples` scales how many synthetic samples the accuracy
/// experiments use (performance experiments ignore it).
pub fn run_experiment(id: ExperimentId, samples: usize) -> Table {
    run_with_artefact(id, samples).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_round_trips_every_name() {
        for id in ExperimentId::all() {
            assert_eq!(ExperimentId::parse(id.name()), Some(id), "{id}");
        }
        assert_eq!(ExperimentId::parse("FIG7"), Some(ExperimentId::Fig7));
        assert_eq!(ExperimentId::parse("fig13"), Some(ExperimentId::Fig7));
        assert_eq!(ExperimentId::parse("bogus"), None);
    }

    #[test]
    fn all_lists_every_experiment() {
        // One row per id, and no name or artefact file claimed twice: `row`,
        // `parse` and the binary's artefact writing all rely on it.
        let mut ids = HashSet::new();
        let mut names = HashSet::new();
        let mut files = HashSet::new();
        for e in EXPERIMENTS {
            assert!(ids.insert(e.id), "{} has two rows", e.id);
            assert!(!e.names.is_empty(), "{:?} has no name", e.id);
            for &name in e.names {
                assert!(names.insert(name), "name {name} is claimed twice");
                assert_eq!(name, name.to_ascii_lowercase(), "parse lowercases");
                assert_eq!(ExperimentId::parse(name), Some(e.id), "{name}");
            }
            if let Run::Artefact(file, _) = e.run {
                assert!(files.insert(file), "{file} is written by two experiments");
            }
        }
        assert_eq!(ExperimentId::all().len(), ids.len());
    }

    #[test]
    fn every_artefact_row_serialises() {
        let mut artefacts = 0;
        for e in EXPERIMENTS {
            let Run::Artefact(file, _) = e.run else {
                continue;
            };
            // Each sweep is computed once per test process and shared with
            // its own module's tests.
            let (table, json) = match e.id {
                ExperimentId::ServeThroughput => json(serving::report_at_one_sample().clone()),
                ExperimentId::Paging => json(paging::report_at_one_sample().clone()),
                ExperimentId::PrefixSharing => json(prefix::report_at_one_sample().clone()),
                ExperimentId::StreamingLatency => json(streaming::report_at_one_sample().clone()),
                ExperimentId::Quantization => json(quantization::report_at_one_sample().clone()),
                id => panic!("{id} writes {file} but has no shared sweep"),
            };
            let serde::Value::Seq(records) = serde_json::from_str(&json).unwrap() else {
                panic!("{file} is not a JSON array");
            };
            assert_eq!(
                records.len(),
                table.rows.len(),
                "{file}: one record per row"
            );
            artefacts += 1;
        }
        assert_eq!(artefacts, 5, "serving, paging, prefix, latency, quant");
    }

    #[test]
    fn perf_experiments_run_instantly() {
        for id in [
            ExperimentId::Fig1,
            ExperimentId::Fig9,
            ExperimentId::Fig10,
            ExperimentId::Table1,
        ] {
            let table = run_experiment(id, 1);
            assert!(!table.rows.is_empty(), "{id} produced no rows");
        }
    }
}
