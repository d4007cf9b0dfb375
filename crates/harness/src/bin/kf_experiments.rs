//! `kf-experiments` — regenerate the Keyformer paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! kf-experiments [--samples N] [--csv] [experiment ...]
//! kf-experiments --list
//! ```
//!
//! With no experiment names, every experiment runs (this takes a few minutes for the
//! accuracy sweeps). Experiment names follow the paper — `fig1`, `fig3a` … `fig16`,
//! `table1` … `table4` — plus the five step-counted serving experiments, each of
//! which also writes its machine-readable records to the working directory:
//!
//! | experiment          | artefact             |
//! |---------------------|----------------------|
//! | `serve_throughput`  | `BENCH_serving.json` |
//! | `paging`            | `BENCH_paging.json`  |
//! | `prefix_sharing`    | `BENCH_prefix.json`  |
//! | `streaming_latency` | `BENCH_latency.json` |
//! | `quantization`      | `BENCH_quant.json`   |
//!
//! Names and artefact files both come from the registry table in
//! `keyformer_harness::registry`; `--list` prints the former. The artefacts are
//! deterministic (scheduler steps, not wall time), committed at `--samples 2`,
//! and CI regenerates and diffs them byte for byte. Wall-clock performance is
//! `kf_bench`'s job (`benchmark/`).

use keyformer_harness::{run_with_artefact, ExperimentId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut samples = 3usize;
    let mut csv = false;
    let mut requested: Vec<ExperimentId> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for id in ExperimentId::all() {
                    println!("{id}");
                }
                return;
            }
            "--csv" => csv = true,
            "--samples" => {
                samples = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--samples requires a positive integer");
                    std::process::exit(2);
                });
            }
            name => match ExperimentId::parse(name) {
                Some(id) => requested.push(id),
                None => {
                    eprintln!("unknown experiment '{name}'; use --list to see options");
                    std::process::exit(2);
                }
            },
        }
    }
    if requested.is_empty() {
        requested = ExperimentId::all();
    }
    for id in requested {
        eprintln!("running {id} (samples = {samples}) ...");
        let (table, artefact) = run_with_artefact(id, samples);
        if let Some((path, json)) = artefact {
            // Exit loudly: a failed write must not leave a previous run's
            // file looking current.
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        if csv {
            println!("# {}", table.title);
            println!("{}", table.render_csv());
        } else {
            println!("{}", table.render_text());
        }
    }
}
