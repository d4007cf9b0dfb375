//! The traced run: the seeded request stream replayed in-process through
//! `kf_serve`'s wire parser and result cache, `Engine::submit_with` and an
//! `Engine::step` loop — no sockets, no job table, no threads of its own —
//! with a span around every call, recorded from this side of it.

use crate::loadgen::http_request_bytes;
use crate::trace::Trace;
use crate::workload::{poisson_schedule, GenRequest, Lane, RequestStream, Workload, MODEL_SEED};
use keyformer_serve::{Engine, EventKind, Request, StepReport};
use kf_serve::api::{self, GenerateSpec};
use kf_serve::backend::{DedupState, EngineSnapshot, PumpShared};
use kf_serve::cache::{CachedResult, ResultCache};
use kf_serve::jobs::JobTable;
use kf_serve::{http, NodeConfig, NodeShared};
use serde::Value;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Start of every replay that is not counted (allocator, caches, registry).
pub const REPLAY_WARMUP: Duration = Duration::from_secs(1);

/// A `NodeShared` with no server behind it: what `api::parse_generate` and
/// the result cache need, and nothing that runs.
pub fn offline_node(workload: &Workload, bytes_per_token: usize) -> NodeShared {
    // The receiver is dropped: nothing in the replay sends pump commands.
    let (cmd, _) = mpsc::channel();
    let config = NodeConfig::new(
        workload.family,
        MODEL_SEED,
        workload.engine_config(bytes_per_token),
    )
    .with_retained_jobs(workload.retained_jobs);
    let pump = Arc::new(PumpShared {
        jobs: Arc::new(JobTable::new(config.retained_jobs)),
        dedup: Arc::new(Mutex::new(DedupState::new(
            config.dedup,
            ResultCache::new(config.cache_capacity, config.cache_ttl_ms),
        ))),
        snapshot: Arc::new(Mutex::new(EngineSnapshot::default())),
        started: Instant::now(),
    });
    NodeShared { config, pump, cmd }
}

/// The wire-parse path of one request, exactly the calls a connection thread
/// makes: request line, headers + body, JSON, validation.
pub fn wire_parse(bytes: &[u8], node: &NodeShared) -> Result<GenerateSpec, String> {
    let mut reader = bytes;
    let first = http::read_line(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or("empty request")?;
    let request = http::parse_http(&first, &mut reader)?;
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let value = serde_json::from_str::<Value>(text).map_err(|e| e.to_string())?;
    api::parse_generate(&value, node).map_err(|fault| fault.message)
}

struct InFlight {
    request: Arc<GenRequest>,
    spec: GenerateSpec,
    client: Option<usize>,
    started: Instant,
    parsed: Instant,
    submitted: Instant,
    prefill_started: Option<Instant>,
    first_token: Option<Instant>,
    tokens: Vec<u32>,
}

/// Everything one replay measured (counted part only, after the warm-up).
#[derive(Default)]
pub struct ReplayResult {
    pub counted: Duration,
    pub completed: usize,
    pub failed: usize,
    /// Tokens surfaced in the counted part, whichever request they belong to.
    pub output_tokens: usize,
    /// Foreground latencies, as the socket run defines them.
    pub request_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub step_prefill_ms: Vec<f64>,
    pub step_decode_ms: Vec<f64>,
    /// Sum of `Engine::step` time, split by whether the step ran a prefill.
    pub step_time: Duration,
    pub decode_only_step_time: Duration,
    /// Step time during which the admission queue was non-empty afterwards.
    pub queue_nonempty_time: Duration,
    /// Sums over foreground requests, for `model.prefill_share_of_ttft`.
    pub prefill_time: Duration,
    pub ttft_time: Duration,
    /// Requests the engine ran to completion in the counted part.
    pub engine_completions: Vec<(Lane, usize)>,
    /// Token streams of fixed-part requests (whenever they completed).
    pub fixed_outputs: HashMap<(Lane, usize), Vec<u32>>,
    pub trace: Option<Trace>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn step_counts(report: &StepReport) -> Vec<(&'static str, u64)> {
    vec![
        ("decode_steps", report.decode_steps as u64),
        ("prefill_chunks", report.prefill_chunks as u64),
        ("admitted", report.admitted as u64),
        ("completed", report.completed as u64),
        ("preempted", report.preempted as u64),
    ]
}

/// The state one replay threads through every request: the offline node, the
/// engine, what is in flight and what has been measured.
struct Replayer<'w, 'm> {
    workload: &'w Workload,
    node: NodeShared,
    engine: Engine<'m>,
    in_flight: HashMap<u64, InFlight>,
    next_id: u64,
    counted_from: Instant,
    result: ReplayResult,
}

impl Replayer<'_, '_> {
    /// Parses and admits one request; returns its engine id, or `None` when a
    /// result-cache hit completed it on the spot.
    fn start(&mut self, request: Arc<GenRequest>, client: Option<usize>) -> Option<u64> {
        let started = Instant::now();
        let spec = wire_parse(&http_request_bytes(&request), &self.node)
            .expect("generated requests parse");
        let parsed = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        if !spec.no_cache && spec.key.is_deterministic() {
            let now_ms = self.node.pump.now_ms();
            let hit = self.node.pump.dedup().cache.get(&spec.key, now_ms);
            if let Some(hit) = hit {
                self.finish_hit(&request, id, started, parsed, hit.tokens);
                return None;
            }
        }
        let key = &spec.key;
        let mut engine_request =
            Request::new(id, key.prompt.clone(), key.config).with_policy(key.policy);
        engine_request = match key.budget {
            Some(budget) => engine_request.with_budget(budget),
            None => engine_request.with_unbudgeted(),
        };
        let options = spec.options.with_kv_dtype(key.dtype);
        let submit_started = Instant::now();
        self.engine
            .submit_with(engine_request, options)
            .expect("the wire layer validated the request");
        let submitted = Instant::now();
        if submitted >= self.counted_from {
            self.result
                .submit_us
                .push((submitted - submit_started).as_secs_f64() * 1e6);
        }
        self.in_flight.insert(
            id,
            InFlight {
                request,
                spec,
                client,
                started,
                parsed,
                submitted,
                prefill_started: None,
                first_token: None,
                tokens: Vec::new(),
            },
        );
        Some(id)
    }

    /// Books a request the result cache answered.
    fn finish_hit(
        &mut self,
        request: &GenRequest,
        id: u64,
        started: Instant,
        parsed: Instant,
        tokens: Vec<u32>,
    ) {
        let result = &mut self.result;
        let done = Instant::now();
        if done >= self.counted_from {
            result.completed += 1;
            result.output_tokens += tokens.len();
            if request.lane == Lane::Foreground {
                result.request_ms.push(ms(done - started));
                result.ttft_ms.push(ms(done - started));
            }
            if let Some(trace) = &mut result.trace {
                let root = trace.record("request", started, done, None, Some(id));
                trace.record("wire_parse", started, parsed, Some(root), Some(id));
                trace.record("cache_hit", parsed, done, Some(root), Some(id));
            }
        }
        if request.index < self.workload.fixed_part {
            result
                .fixed_outputs
                .insert((request.lane, request.index), tokens);
        }
    }

    /// Books a completed engine run: publishes it to the result cache (as the
    /// pump does), then records its latencies and spans.
    fn finish(&mut self, flight: InFlight, id: u64, done: Instant) {
        let request = &flight.request;
        if !flight.spec.no_cache && flight.spec.key.is_deterministic() {
            let now_ms = self.node.pump.now_ms();
            self.node.pump.dedup().cache.insert(
                flight.spec.key.clone(),
                CachedResult {
                    tokens: flight.tokens.clone(),
                    prompt_len: request.prompt.len(),
                },
                now_ms,
            );
        }
        let result = &mut self.result;
        if request.index < self.workload.fixed_part {
            result
                .fixed_outputs
                .insert((request.lane, request.index), flight.tokens.clone());
        }
        if flight.started < self.counted_from {
            return;
        }
        result.completed += 1;
        result
            .engine_completions
            .push((request.lane, request.index));
        let prefill_started = flight.prefill_started.unwrap_or(flight.submitted);
        let first_token = flight.first_token.unwrap_or(done);
        result.queue_wait_ms.push(ms(
            prefill_started.saturating_duration_since(flight.submitted)
        ));
        if request.lane == Lane::Foreground {
            result.request_ms.push(ms(done - flight.started));
            result.ttft_ms.push(ms(first_token - flight.started));
            result.prefill_time += first_token.saturating_duration_since(prefill_started);
            result.ttft_time += first_token - flight.started;
        }
        if let Some(trace) = &mut result.trace {
            let rid = Some(id);
            let root = trace.record("request", flight.started, done, None, rid);
            let parent = Some(root);
            trace.record("wire_parse", flight.started, flight.parsed, parent, rid);
            trace.record("submit", flight.parsed, flight.submitted, parent, rid);
            trace.record("queue_wait", flight.submitted, prefill_started, parent, rid);
            trace.record("prefill", prefill_started, first_token, parent, rid);
            let decode = trace.record("decode", first_token, done, parent, rid);
            trace.set_counts(decode, vec![("tokens", flight.tokens.len() as u64)]);
        }
    }
}

/// Replays `workload`'s seeded traffic in-process for `duration` (the first
/// [`REPLAY_WARMUP`] uncounted). With `traced` off no spans are recorded — the
/// baseline `loadgen.trace_overhead_share` compares the traced replay's
/// throughput against.
pub fn replay(workload: &Workload, seed: u64, duration: Duration, traced: bool) -> ReplayResult {
    let model = workload.family.build(MODEL_SEED);
    let bytes_per_token = model.empty_cache_dtype(workload.kv_dtype).bytes_per_token();
    let mut engine = Engine::new(&model, workload.engine_config(bytes_per_token))
        .expect("benchmark engine configurations validate");
    engine.record_events(true);
    let foreground = RequestStream::new(workload, seed, Lane::Foreground, 0);
    let background = workload
        .background
        .map(|_| RequestStream::new(workload, seed, Lane::Background, 0));
    let schedule = workload
        .background
        .map(|bg| poisson_schedule(seed, bg.rate_per_s, duration))
        .unwrap_or_default();

    let epoch = Instant::now();
    let counted_from = epoch + REPLAY_WARMUP;
    let end = epoch + duration;
    let mut r = Replayer {
        workload,
        node: offline_node(workload, bytes_per_token),
        engine,
        in_flight: HashMap::new(),
        next_id: 1,
        counted_from,
        result: ReplayResult {
            trace: traced.then(|| Trace::new(epoch)),
            ..ReplayResult::default()
        },
    };
    let mut clients: Vec<Option<u64>> = vec![None; workload.clients];
    let (mut next_fg, mut next_bg) = (0usize, 0usize);

    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if let Some(stream) = &background {
            while next_bg < schedule.len() && epoch + schedule[next_bg] <= now {
                r.start(stream.get(next_bg), None);
                next_bg += 1;
            }
        }
        for (client, slot) in clients.iter_mut().enumerate() {
            // A cache hit leaves the client idle: it asks again at once.
            while slot.is_none() && Instant::now() < end {
                *slot = r.start(foreground.get(next_fg), Some(client));
                next_fg += 1;
            }
        }
        if r.engine.is_idle() {
            // Only an open loop can leave the engine idle: wait for the next
            // arrival rather than spinning.
            match schedule.get(next_bg) {
                Some(&due) => std::thread::sleep(
                    (epoch + due)
                        .min(end)
                        .saturating_duration_since(Instant::now()),
                ),
                None => break,
            }
            continue;
        }
        let step_started = Instant::now();
        let report = r.engine.step();
        let step_ended = Instant::now();
        let counted = step_started >= counted_from;
        if counted {
            let took = step_ended - step_started;
            r.result.step_time += took;
            if report.prefill_chunks > 0 {
                r.result.step_prefill_ms.push(ms(took));
            } else {
                r.result.decode_only_step_time += took;
                r.result.step_decode_ms.push(ms(took));
            }
            if r.engine.queued() > 0 {
                r.result.queue_nonempty_time += took;
            }
            if let Some(trace) = &mut r.result.trace {
                let step = trace.record("step", step_started, step_ended, None, None);
                trace.set_counts(step, step_counts(&report));
            }
        }
        for event in r.engine.drain_events() {
            let id = event.id.raw();
            let Some(flight) = r.in_flight.get_mut(&id) else {
                continue;
            };
            match event.kind {
                EventKind::PrefillStarted => {
                    flight.prefill_started.get_or_insert(step_started);
                }
                EventKind::FirstToken { token } => {
                    flight.first_token.get_or_insert(step_ended);
                    flight.tokens.push(token);
                    r.result.output_tokens += usize::from(counted);
                }
                EventKind::Token { token, .. } => {
                    flight.tokens.push(token);
                    r.result.output_tokens += usize::from(counted);
                }
                EventKind::Completed { .. } | EventKind::Failed { .. } | EventKind::Cancelled => {
                    let completed = matches!(event.kind, EventKind::Completed { .. });
                    let flight = r.in_flight.remove(&id).expect("looked up above");
                    if let Some(client) = flight.client {
                        clients[client] = None;
                    }
                    if completed {
                        r.finish(flight, id, step_ended);
                    } else {
                        r.result.failed += 1;
                    }
                }
                EventKind::Queued | EventKind::Preempted | EventKind::Resumed => {}
            }
        }
    }
    r.result.counted = Instant::now().saturating_duration_since(counted_from);
    r.result
}
