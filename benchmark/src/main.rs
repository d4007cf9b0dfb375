//! `kf_bench`: the repo's one benchmark.
//!
//! ```text
//! kf_bench --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! kf_bench --all [--seed N] [--seconds S]                     every metric of every workload
//! kf_bench --sets R [--workload NAME] [--seed N] [--seconds S]
//!                                   A/A: two alternating sets of R runs -> baseline/
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the real release
//! `kf_serve` over loopback sockets, untraced. `--trace 1` measures the
//! per-layer metrics: a shorter socket window for the server's own counters,
//! a traced in-process replay of the same seeded stream, and isolated probes.
//! Either way the last line of standard output is one JSON object.

mod loadgen;
mod machine;
mod probes;
mod replay;
mod report;
mod server;
mod socket;
mod stats;
mod trace;
mod verify;
mod workload;

use keyformer_model::TransformerModel;
use report::{object, Metrics, END_TO_END, PER_LAYER};
use server::Server;
use socket::{SocketRun, Streams};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{
    GenRequest, Lane, Workload, FULL_OVERRIDE_EVERY, PLANTED_REPLAY_SHARE, WARMUP, WORKLOADS,
};

/// Server boots per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 21;
/// Shares of `--seconds` a traced run gives its three timed parts.
const TRACE_SOCKET_SHARE: f64 = 0.4;
const TRACE_REPLAY_SHARE: f64 = 0.25;
const TRACE_UNTRACED_SHARE: f64 = 0.1;
/// Wall time a traced run spends on solo reference runs.
const SOLO_SAMPLE_BUDGET: Duration = Duration::from_millis(1500);
/// The window length the workloads' minimum sample counts are frozen for.
const NOMINAL_WINDOW_SECS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    sets: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_WINDOW_SECS as u64,
        trace: false,
        all: false,
        sets: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => args.all = true,
            "--sets" => args.sets = Some(value()?.parse().map_err(|e| format!("--sets: {e}"))?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one run produced, whichever mode it ran in.
struct RunReport {
    metrics: Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Human-readable lines: machine, fingerprint, check results.
    notes: Vec<String>,
    /// The machine was already busy when the run started.
    suspect: bool,
    fingerprint: u64,
}

/// One run's log: the noise probe taken before it, the verdicts of the
/// correctness gate and the shape self-checks, and where its wall time went
/// (the driver caps a run's total, so the overheads around the window are
/// worth seeing).
struct RunLog {
    noise: machine::Noise,
    failures: usize,
    notes: Vec<String>,
    last_lap: Instant,
    laps: Vec<String>,
}

impl RunLog {
    fn start(ctx: &Context<'_>, workload: &Workload, seed: u64) -> Self {
        let noise = machine::Noise::probe(ctx.machine.nproc);
        RunLog {
            noise,
            failures: 0,
            notes: vec![format!(
                "{} seed {seed} | {} | {}",
                workload.name,
                ctx.machine.describe(),
                noise.describe()
            )],
            last_lap: Instant::now(),
            laps: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: String) {
        self.failures += usize::from(!ok);
        self.notes
            .push(format!("{}  {what}", if ok { "ok  " } else { "FAIL" }));
    }

    /// A condition worth a line but not a verdict: it depends on how fast
    /// the machine was, which is what the metrics are there to report.
    fn expect(&mut self, ok: bool, what: String) {
        self.notes
            .push(format!("{}  {what}", if ok { "ok  " } else { "THIN" }));
    }

    fn lap(&mut self, phase: &str) {
        let now = Instant::now();
        self.laps.push(format!(
            "{phase} {:.1}s",
            (now - self.last_lap).as_secs_f64()
        ));
        self.last_lap = now;
    }

    fn finish(mut self, metrics: Metrics, run: &SocketRun) -> RunReport {
        let fingerprint = fixed_fingerprint(&run.fixed_outputs);
        self.notes.push(format!(
            "fingerprint of the fixed part ({} requests): {fingerprint:016x}",
            run.fixed_outputs.len()
        ));
        self.notes.push(format!("phases: {}", self.laps.join(", ")));
        self.notes
            .push(format!("load after {:.2}", machine::load_average()));
        RunReport {
            metrics,
            correct: self.failures == 0,
            attempted: run.sent(),
            failed: run.failed(),
            notes: self.notes,
            suspect: self.noise.suspect(),
            fingerprint,
        }
    }
}

fn request_of(streams: &Streams, key: (Lane, usize)) -> std::sync::Arc<GenRequest> {
    streams.lane(key.0).get(key.1)
}

/// The fixed part's keys in stream order, foreground lane first.
fn fixed_keys(outputs: &HashMap<(Lane, usize), Vec<u32>>) -> Vec<(Lane, usize)> {
    let mut keys: Vec<_> = outputs.keys().copied().collect();
    keys.sort();
    keys
}

fn fixed_fingerprint(outputs: &HashMap<(Lane, usize), Vec<u32>>) -> u64 {
    verify::fingerprint(fixed_keys(outputs).into_iter().map(|key| {
        let lane_tag = usize::from(key.0 == Lane::Background) << 32;
        (lane_tag | key.1, outputs[&key].as_slice())
    }))
}

/// `1 - mean ROUGE-2 F1` of `outputs` against the dataset references.
fn rouge2_miss(streams: &Streams, outputs: &HashMap<(Lane, usize), Vec<u32>>) -> f64 {
    let scores: Vec<f64> = fixed_keys(outputs)
        .into_iter()
        .map(|key| verify::rouge2_f1(&outputs[&key], &request_of(streams, key).reference))
        .collect();
    1.0 - scores.iter().sum::<f64>() / scores.len().max(1) as f64
}

/// Boots the workload's server [`SETUP_SPAWNS`] times (once for traced runs,
/// which do not report `setup_s`), keeping the last; returns every boot time.
fn boot(binary: &Path, workload: &Workload, spawns: usize) -> Result<(Server, Vec<f64>), String> {
    let flags = workload.server_flags();
    let mut setups = Vec::with_capacity(spawns);
    let mut server = None;
    for _ in 0..spawns {
        drop(server.take());
        let booted = Server::spawn(binary, &flags)?;
        setups.push(booted.setup.as_secs_f64());
        server = Some(booted);
    }
    Ok((server.expect("at least one spawn"), setups))
}

/// Checks that hold on any socket window: sample counts, failures, and the
/// workload-shape assertions that the server's own counters can answer.
fn socket_checks(workload: &Workload, run: &SocketRun, server_side: &Metrics, log: &mut RunLog) {
    let completed = run.latencies().completed;
    let needed =
        (workload.min_samples as f64 * run.window.as_secs_f64() / NOMINAL_WINDOW_SECS) as usize;
    log.expect(
        completed >= needed,
        format!("{completed} foreground requests completed in the window (>= {needed})"),
    );
    log.check(
        run.failed() == 0,
        format!(
            "{} of {} requests failed{}",
            run.failed(),
            run.sent(),
            run.first_error()
                .map(|e| format!(" (first: {e})"))
                .unwrap_or_default()
        ),
    );
    log.check(
        run.fixed_missing.is_empty(),
        format!("fixed part complete (missing: {:?})", run.fixed_missing),
    );
    let get = |name: &str| server_side.get(name).unwrap_or(0.0);
    match workload.name {
        "chat_short" => {
            let quiet = get("kf_serve.cache_hit_ratio") == 0.0
                && get("core.prefix_hit_ratio") == 0.0
                && get("serve.preemptions") == 0.0;
            log.check(
                quiet,
                "chat_short: zero cache hits, prefix hits and preemptions".into(),
            );
            log.check(
                get("serve.peak_concurrency") <= 2.0,
                format!(
                    "chat_short: peak concurrency {} <= 2",
                    get("serve.peak_concurrency")
                ),
            );
        }
        "shared_prefix_replay" => {
            let reused = get("core.prefix_reused_share");
            log.check(
                reused >= 0.6,
                format!("shared_prefix_replay: prefix reused share {reused:.3} >= 0.6"),
            );
            let hits = get("kf_serve.cache_hit_ratio");
            log.check(
                (hits - PLANTED_REPLAY_SHARE).abs() <= 0.05,
                format!(
                    "shared_prefix_replay: cache hit ratio {hits:.3} within 0.05 of the planted \
                     {PLANTED_REPLAY_SHARE}"
                ),
            );
        }
        "saturated_pool" => {
            let batch = get("serve.mean_batch_size");
            log.check(
                batch >= 4.0,
                format!("saturated_pool: mean batch size {batch:.2} >= 4"),
            );
            log.check(
                get("serve.preemptions") > 0.0,
                format!(
                    "saturated_pool: {} preemptions > 0",
                    get("serve.preemptions")
                ),
            );
        }
        _ => {}
    }
}

/// Per-layer metrics from the server's own counters (source **S**), as
/// growth over the measured window where the counter is cumulative.
fn server_side_metrics(workload: &Workload, run: &SocketRun) -> Vec<(&'static str, Option<f64>)> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let engine = |key: &'static str| ["engine", "stats", key];
    let submitted = run.delta(&["jobs", "submitted"]);
    let prefills = run.delta(&engine("prefills"));
    let prompt_len = workload.prompt_len();
    let chunks_per_prompt = match workload.prefill_chunk {
        Some(chunk) => prompt_len.div_ceil(chunk),
        None => 1,
    } as f64;
    let registry = |key: &'static str| run.delta(&["engine", "registry", key]);
    vec![
        (
            "kf_serve.cache_hit_ratio",
            Some(ratio(run.delta(&["jobs", "cache_hits"]), submitted)),
        ),
        (
            "kf_serve.coalesced_share",
            Some(ratio(run.delta(&["jobs", "coalesced"]), submitted)),
        ),
        ("kf_serve.jobs_failed", Some(run.delta(&["jobs", "failed"]))),
        (
            "serve.mean_batch_size",
            Some(ratio(
                run.delta(&engine("decode_steps")),
                run.delta(&engine("steps")),
            )),
        ),
        (
            "serve.peak_concurrency",
            Some(run.last(&engine("peak_concurrency"))),
        ),
        ("serve.preemptions", Some(run.delta(&engine("preemptions")))),
        (
            "serve.prefill_stalls",
            Some(run.delta(&engine("prefill_stalls"))),
        ),
        // Prefill work executed over the work the completed requests' prompts
        // needed once, minus one: recompute after preemption raises it,
        // skipped prefix chunks lower it.
        (
            "serve.recompute_share",
            Some(
                ratio(
                    run.delta(&engine("prefill_chunks")),
                    run.delta(&["jobs", "completed"]) * chunks_per_prompt,
                ) - 1.0,
            ),
        ),
        (
            "core.pool_allocs_per_token",
            Some(ratio(
                run.delta(&["engine", "pool", "total_allocs"]),
                run.delta(&engine("decode_steps")),
            )),
        ),
        (
            "core.pool_peak_in_use_blocks",
            Some(run.last(&["engine", "pool", "peak_in_use"])),
        ),
        (
            "core.pool_utilization",
            Some(ratio(
                run.delta(&engine("live_slot_steps")),
                run.delta(&engine("allocated_slot_steps")),
            )),
        ),
        (
            "core.peak_live_kv_bytes",
            Some(run.last(&engine("peak_live_kv_bytes"))),
        ),
        (
            "core.prefix_hit_ratio",
            Some(ratio(
                registry("hits"),
                registry("hits") + registry("misses"),
            )),
        ),
        (
            "core.prefix_reused_share",
            Some(ratio(
                run.delta(&engine("prefix_tokens_reused")),
                prefills * prompt_len as f64,
            )),
        ),
    ]
}

/// Solo reference runs by lane and stream index.
type SoloRuns = HashMap<(Lane, usize), verify::SoloRun>;

/// Solo reference runs of `keys` on `model`, spread over `threads` threads.
fn solo_runs(
    model: &TransformerModel,
    workload: &Workload,
    streams: &Streams,
    keys: &[(Lane, usize)],
    threads: usize,
) -> Result<SoloRuns, String> {
    let results: Vec<Result<_, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|t| {
                scope.spawn(move || {
                    keys.iter()
                        .skip(t)
                        .step_by(threads.max(1))
                        .map(|&key| {
                            let request = request_of(streams, key);
                            verify::solo_run(model, workload, &request).map(|run| (key, run))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a solo worker panicked"))
            .collect()
    });
    let mut all = HashMap::new();
    for part in results {
        all.extend(part?);
    }
    Ok(all)
}

/// Token identity of `outputs` against solo runs of the same requests.
fn identity_check(
    what: &str,
    outputs: &HashMap<(Lane, usize), Vec<u32>>,
    solo: &SoloRuns,
    log: &mut RunLog,
) {
    let mismatched: Vec<_> = fixed_keys(outputs)
        .into_iter()
        .filter(|key| solo.get(key).is_some_and(|run| run.tokens != outputs[key]))
        .collect();
    let compared = outputs.keys().filter(|k| solo.contains_key(k)).count();
    log.check(
        mismatched.is_empty() && compared > 0,
        format!(
            "{what}: {compared} fixed-part streams equal their solo Session runs (mismatched: \
             {mismatched:?})"
        ),
    );
}

struct Context<'a> {
    binary: &'a Path,
    machine: &'a machine::Machine,
    out_dir: std::path::PathBuf,
}

/// `--trace 0`: the eight end-to-end metrics, untraced, with the whole fixed
/// part checked against solo runs.
fn end_to_end_run(
    ctx: &Context<'_>,
    workload: &Workload,
    seed: u64,
    window: Duration,
) -> Result<RunReport, String> {
    let mut log = RunLog::start(ctx, workload, seed);
    let streams = Streams::generate(workload, seed, WARMUP + window);
    log.lap("generate");
    let (server, setups) = boot(ctx.binary, workload, SETUP_SPAWNS)?;
    log.lap("boot");
    let run = socket::run(workload, seed, &server, &streams, window)?;
    drop(server);
    log.lap("socket run");
    let mut server_side = Metrics::default();
    server_side.extend(server_side_metrics(workload, &run));
    socket_checks(workload, &run, &server_side, &mut log);
    let keys = fixed_keys(&run.fixed_outputs);
    let model = workload.family.build(workload::MODEL_SEED);
    let solo = solo_runs(&model, workload, &streams, &keys, ctx.machine.nproc)?;
    log.lap("solo runs");
    identity_check("socket", &run.fixed_outputs, &solo, &mut log);
    log.notes.push(format!(
        "ROUGE-2 scored over {} outputs",
        run.scored_outputs.len()
    ));

    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setups));
    for (name, value) in run.end_to_end(workload)? {
        metrics.set(name, Some(value));
    }
    metrics.set(
        "rouge2_miss",
        Some(rouge2_miss(&streams, &run.scored_outputs)),
    );
    Ok(log.finish(metrics, &run))
}

/// The requests a traced run runs solo: the first request of every class
/// (budgeted / full override) of every lane, then the rest of the fixed part
/// in order for as long as the time box lasts.
fn solo_sample_order(workload: &Workload) -> Vec<(Lane, usize)> {
    let mut first = Vec::new();
    let mut rest = Vec::new();
    for index in 0..workload.fixed_part {
        for &lane in workload.lanes() {
            if index == 0 || (workload.full_overrides && index == FULL_OVERRIDE_EVERY - 1) {
                first.push((lane, index));
            } else {
                rest.push((lane, index));
            }
        }
    }
    first.extend(rest);
    first
}

/// `--trace 1`: the per-layer metrics.
fn traced_run(
    ctx: &Context<'_>,
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, String> {
    let mut log = RunLog::start(ctx, workload, seed);
    let mut metrics = Metrics::default();

    // S: the server's own counters over a (shorter) socket window.
    let window = Duration::from_secs_f64(seconds * TRACE_SOCKET_SHARE);
    let streams = Streams::generate(workload, seed, WARMUP + window);
    metrics.set(
        "text.dataset_gen_ms",
        Some(streams.generation.as_secs_f64() * 1e3),
    );
    let (server, _) = boot(ctx.binary, workload, 1)?;
    let run = socket::run(workload, seed, &server, &streams, window)?;
    drop(server);
    log.lap("socket run");
    metrics.extend(server_side_metrics(workload, &run));
    socket_checks(workload, &run, &metrics, &mut log);
    metrics.extend(run.loadgen());
    let latencies = run.latencies();
    metrics.set(
        "loadgen.latency_samples",
        Some(latencies.request_ms.len() as f64),
    );

    // T: the traced in-process replay, and its untraced twin.
    let replay_for = |share: f64| replay::REPLAY_WARMUP + Duration::from_secs_f64(seconds * share);
    let untraced = replay::replay(workload, seed, replay_for(TRACE_UNTRACED_SHARE), false);
    let traced = replay::replay(workload, seed, replay_for(TRACE_REPLAY_SHARE), true);
    log.lap("replays");
    let rate = |r: &replay::ReplayResult| r.output_tokens as f64 / r.counted.as_secs_f64();
    metrics.set(
        "loadgen.trace_overhead_share",
        Some(1.0 - rate(&traced) / rate(&untraced)),
    );
    log.check(
        traced.failed == 0 && traced.completed > 0,
        format!(
            "replay: {} requests completed, {} failed",
            traced.completed, traced.failed
        ),
    );
    let socket_p50 = stats::median(&latencies.request_ms);
    let replay_p50 = stats::median(&traced.request_ms);
    metrics.set(
        "kf_serve.wire_overhead_ms",
        socket_p50.zip(replay_p50).map(|(s, r)| s - r),
    );
    metrics.set("serve.submit_us", stats::median(&traced.submit_us));
    metrics.set(
        "serve.step_prefill_ms",
        stats::median(&traced.step_prefill_ms),
    );
    metrics.set(
        "serve.step_decode_ms",
        stats::median(&traced.step_decode_ms),
    );
    metrics.set(
        "serve.queue_wait_ms_p50",
        stats::median(&traced.queue_wait_ms),
    );
    let prefill_share = traced.prefill_time.as_secs_f64() / traced.ttft_time.as_secs_f64();
    metrics.set("model.prefill_share_of_ttft", Some(prefill_share));

    let trace = traced
        .trace
        .as_ref()
        .expect("the traced replay recorded spans");
    let cover = trace.min_request_cover().unwrap_or(0.0);
    log.check(
        cover >= 0.95,
        format!("trace: child spans cover >= 95 % of every request span (min {cover:.4})"),
    );
    let step_secs = traced.step_time.as_secs_f64();
    match workload.name {
        "chat_short" => {
            let share = traced.decode_only_step_time.as_secs_f64() / step_secs;
            log.check(
                share >= 0.7,
                format!(
                    "chat_short: decode-only steps are {share:.3} of engine busy time (>= 0.7)"
                ),
            );
        }
        "longctx_summarize" => log.check(
            prefill_share >= 0.6,
            format!("longctx_summarize: prefill share of TTFT {prefill_share:.3} >= 0.6"),
        ),
        "saturated_pool" => {
            let share = traced.queue_nonempty_time.as_secs_f64() / traced.counted.as_secs_f64();
            log.check(
                share >= 0.9,
                format!("saturated_pool: queue non-empty {share:.3} of the window (>= 0.9)"),
            );
        }
        _ => {}
    }
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("creating out/: {e}"))?;
    let trace_path = ctx.out_dir.join(format!("{}.trace.json", workload.name));
    std::fs::write(&trace_path, trace.to_json(workload.name, seed))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    log.notes.push(format!(
        "{} spans written to {}",
        trace.spans().len(),
        trace_path.display()
    ));

    // Solo reference runs: token identity of socket and replay outputs, and
    // the solo cost of the work the engine did (for its scheduling overhead).
    let model = workload.family.build(workload::MODEL_SEED);
    let deadline = Instant::now() + SOLO_SAMPLE_BUDGET;
    let mut solo = HashMap::new();
    for (i, key) in solo_sample_order(workload).into_iter().enumerate() {
        let mandatory = i < 2 * workload.lanes().len();
        if !mandatory && Instant::now() >= deadline {
            break;
        }
        solo.extend(solo_runs(&model, workload, &streams, &[key], 1)?);
    }
    log.lap("solo runs");
    identity_check("socket", &run.fixed_outputs, &solo, &mut log);
    identity_check("replay", &traced.fixed_outputs, &solo, &mut log);
    let agree = traced
        .fixed_outputs
        .iter()
        .filter(|(key, tokens)| run.fixed_outputs.get(key).is_some_and(|t| t == *tokens))
        .count();
    log.check(
        agree == traced.fixed_outputs.len(),
        format!(
            "replay and socket agree on {agree} of {} fixed-part streams",
            traced.fixed_outputs.len()
        ),
    );
    let class_cost = |lane: Lane, full: bool| {
        let costs: Vec<f64> = solo
            .iter()
            .filter(|(key, _)| key.0 == lane && request_of(&streams, **key).full == full)
            .map(|(_, run)| (run.prefill + run.decode).as_secs_f64())
            .collect();
        costs.iter().sum::<f64>() / costs.len().max(1) as f64
    };
    let solo_secs: f64 = traced
        .engine_completions
        .iter()
        .map(|&key| class_cost(key.0, request_of(&streams, key).full))
        .sum();
    metrics.set("serve.sched_self_share", Some(1.0 - solo_secs / step_secs));

    // P: isolated probes.
    metrics.extend(probes::run(workload, seed));
    log.lap("probes");
    Ok(log.finish(metrics, &run))
}

fn one_run(
    ctx: &Context<'_>,
    workload: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunReport, String> {
    if trace {
        traced_run(ctx, workload, seed, seconds as f64)
    } else {
        end_to_end_run(ctx, workload, seed, Duration::from_secs(seconds))
    }
}

/// `--all`: one end-to-end and one traced run per workload, every metric
/// printed by name with its unit.
fn run_all(ctx: &Context<'_>, seed: u64, seconds: u64) -> Result<bool, String> {
    let mut correct = true;
    for workload in &WORKLOADS {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = one_run(ctx, workload, seed, seconds, trace)?;
            println!(
                "== {} ({}){} -- {}",
                workload.name,
                if trace { "per layer" } else { "end to end" },
                if report.suspect {
                    " [suspect: busy machine]"
                } else {
                    ""
                },
                workload.why
            );
            for note in &report.notes {
                println!("  # {note}");
            }
            print!("{}", report::table(&report.metrics.rows(table)?));
            correct &= report.correct;
        }
    }
    Ok(correct)
}

/// `--sets R`: for each workload, `2 R` end-to-end runs on consecutive seeds,
/// alternating between set A and set B of the same commit, re-running (and
/// counting) runs that started on a busy machine. Writes
/// `baseline/end_to_end/<workload>.json`.
fn run_sets(
    ctx: &Context<'_>,
    only: Option<&Workload>,
    first_seed: u64,
    seconds: u64,
    runs_per_set: usize,
) -> Result<bool, String> {
    use serde::Value;
    let mut correct = true;
    let dir = server::repo_root().join("benchmark/baseline/end_to_end");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        let mut sets: [Vec<RunReport>; 2] = [Vec::new(), Vec::new()];
        let mut suspect_runs = 0;
        for i in 0..2 * runs_per_set {
            let seed = first_seed + i as u64;
            let mut report = one_run(ctx, workload, seed, seconds, false)?;
            // One retry: a box that stays busy is reported, not waited out.
            if report.suspect {
                suspect_runs += 1;
                report = one_run(ctx, workload, seed, seconds, false)?;
            }
            eprintln!(
                "{} set {} seed {seed}: correct {} | {}",
                workload.name,
                ["A", "B"][i % 2],
                report.correct,
                report.notes.last().map_or("", String::as_str)
            );
            correct &= report.correct;
            sets[i % 2].push(report);
        }
        let summary = |name: &str, set: &[RunReport]| {
            let values: Vec<f64> = set.iter().filter_map(|r| r.metrics.get(name)).collect();
            let (q1, med, q3) = stats::quartiles(&values).unwrap_or((0.0, 0.0, 0.0));
            object(vec![
                ("median", Value::Float(med)),
                ("q1", Value::Float(q1)),
                ("q3", Value::Float(q3)),
                (
                    "spread",
                    Value::Float(stats::spread(&values).unwrap_or(0.0)),
                ),
                ("samples", Value::UInt(values.len() as u64)),
            ])
        };
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let sets = object(vec![
                    ("unit", Value::Str(unit.to_string())),
                    ("A", summary(name, &sets[0])),
                    ("B", summary(name, &sets[1])),
                ]);
                (name, sets)
            })
            .collect();
        let fingerprints = sets
            .iter()
            .flatten()
            .map(|r| Value::Str(format!("{:016x}", r.fingerprint)))
            .collect();
        let doc = object(vec![
            ("workload", Value::Str(workload.name.to_string())),
            ("seconds", Value::UInt(seconds)),
            ("first_seed", Value::UInt(first_seed)),
            ("runs_per_set", Value::UInt(runs_per_set as u64)),
            ("suspect_runs", Value::UInt(suspect_runs)),
            ("machine", Value::Str(ctx.machine.describe())),
            ("fingerprints", Value::Seq(fingerprints)),
            ("metrics", object(metrics)),
        ]);
        let path = dir.join(format!("{}.json", workload.name));
        let text = serde_json::to_string(&doc).expect("summaries are finite");
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let root = server::repo_root();
    let machine = machine::Machine::probe(&root);
    let binary = server::build_kf_serve()?;
    let ctx = Context {
        binary: &binary,
        machine: &machine,
        out_dir: root.join("benchmark/out"),
    };
    let named = match &args.workload {
        Some(name) => Some(workload::find(name).ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (known: {known:?})")
        })?),
        None => None,
    };
    if args.all {
        return run_all(&ctx, args.seed, args.seconds);
    }
    if let Some(runs) = args.sets {
        return run_sets(&ctx, named, args.seed, args.seconds, runs);
    }
    let workload = named.ok_or("--workload is required (or use --all / --sets)")?;
    let report = one_run(&ctx, workload, args.seed, args.seconds, args.trace)?;
    for note in &report.notes {
        println!("# {note}");
    }
    if report.suspect {
        println!("# suspect: the machine was busy or short of CPU time when this run started");
    }
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let rows = report.metrics.rows(table)?;
    println!(
        "{}",
        report::result_line(report.correct, report.attempted, report.failed, &rows)
    );
    Ok(report.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kf_bench: the correctness gate or a workload-shape self-check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("kf_bench: {message}");
            ExitCode::from(2)
        }
    }
}
