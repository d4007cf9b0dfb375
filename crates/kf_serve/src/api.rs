//! Request parsing, routing and response shaping for the four wire surfaces:
//!
//! * `POST /v1/generate` — accept a generate call, answer `202` with a job id
//!   (or the cached result), or stream per-token NDJSON chunks when the body
//!   sets `"stream": true`.
//! * `GET /v1/jobs/{id}` — status/result polling.
//! * `DELETE /v1/jobs/{id}` — cancellation.
//! * `GET /v1/stats` — job, engine, pool, registry and cache counters.
//!
//! The same handlers back the NDJSON fallback protocol ([`crate::serve`]
//! routes to them), so both wire formats have identical semantics.
//!
//! Validation happens here, synchronously, against the resolved server
//! defaults — a request the wire layer accepts cannot be rejected by the
//! engine later (a pump-side rejection is mapped to a failed job with the
//! structured [`keyformer_serve::submit_rejection`] code all the same).

use crate::backend::Command;
use crate::cache::ResultKey;
use crate::jobs::{JobState, StreamSnapshot};
use crate::NodeShared;
use keyformer_core::budget::CacheBudgetSpec;
use keyformer_core::cache::KvDtype;
use keyformer_core::spec::PolicySpec;
use keyformer_model::generation::GenerationConfig;
use keyformer_serve::SubmitOptions;
use serde::{Serialize, Value};
use std::time::Duration;

/// A wire-level rejection: HTTP status, stable code, human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireFault {
    fn bad_request(message: impl Into<String>) -> Self {
        WireFault {
            status: 400,
            code: "invalid_request",
            message: message.into(),
        }
    }

    /// Renders the fault as a JSON error body.
    pub fn body(&self) -> String {
        json_obj(vec![
            ("error", Value::Str(self.code.to_string())),
            ("message", Value::Str(self.message.clone())),
        ])
    }
}

/// Builds a JSON object string from ordered key/value pairs.
pub fn json_obj(entries: Vec<(&str, Value)>) -> String {
    let value = Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    serde_json::to_string(&value).expect("wire values contain no non-finite floats")
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn opt_u64(body: &Value, field: &str) -> Result<Option<u64>, WireFault> {
    match body
        .field(field)
        .map_err(|e| WireFault::bad_request(e.to_string()))?
    {
        Value::Null => Ok(None),
        v => as_u64(v).map(Some).ok_or_else(|| {
            WireFault::bad_request(format!("`{field}` must be a non-negative integer"))
        }),
    }
}

fn opt_f64(body: &Value, field: &str) -> Result<Option<f64>, WireFault> {
    match body
        .field(field)
        .map_err(|e| WireFault::bad_request(e.to_string()))?
    {
        Value::Null => Ok(None),
        v => as_f64(v)
            .map(Some)
            .ok_or_else(|| WireFault::bad_request(format!("`{field}` must be a number"))),
    }
}

fn opt_bool(body: &Value, field: &str) -> Result<bool, WireFault> {
    match body
        .field(field)
        .map_err(|e| WireFault::bad_request(e.to_string()))?
    {
        Value::Null => Ok(false),
        Value::Bool(b) => Ok(*b),
        _ => Err(WireFault::bad_request(format!(
            "`{field}` must be a boolean"
        ))),
    }
}

fn opt_str<'v>(body: &'v Value, field: &str) -> Result<Option<&'v str>, WireFault> {
    match body
        .field(field)
        .map_err(|e| WireFault::bad_request(e.to_string()))?
    {
        Value::Null => Ok(None),
        Value::Str(s) => Ok(Some(s.as_str())),
        _ => Err(WireFault::bad_request(format!(
            "`{field}` must be a string"
        ))),
    }
}

/// The eviction policy a wire or command-line name selects: `full`,
/// `window`, `dilated`, `key_only`, `h2o`, `damped`, `streaming_llm` or
/// `keyformer`, each at its default parameters. `None` for any other name.
pub fn policy_by_name(name: &str) -> Option<PolicySpec> {
    Some(match name {
        "full" => PolicySpec::Full,
        "window" => PolicySpec::Window,
        "dilated" => PolicySpec::DilatedWindow { dilation: 1 },
        "key_only" => PolicySpec::KeyOnly,
        "h2o" => PolicySpec::h2o_default(),
        "damped" => PolicySpec::Damped { alpha: 0.9 },
        "streaming_llm" => PolicySpec::streaming_default(),
        "keyformer" => PolicySpec::keyformer_default(),
        _ => return None,
    })
}

/// [`policy_by_name`] on the wire: an unknown name is a 400 that lists the
/// known ones.
fn parse_policy(name: &str) -> Result<PolicySpec, WireFault> {
    policy_by_name(name).ok_or_else(|| {
        WireFault::bad_request(format!(
            "unknown policy `{name}` (expected one of full, window, dilated, key_only, \
             h2o, damped, streaming_llm, keyformer)"
        ))
    })
}

/// One fully validated generate call: the resolved cache key plus its
/// scheduling options and delivery mode.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateSpec {
    /// The resolved cache key — also the complete request payload.
    pub key: ResultKey,
    /// Scheduling priority and deadline.
    pub options: SubmitOptions,
    /// `true` streams per-token chunks instead of answering with a job id.
    pub stream: bool,
    /// `true` bypasses the result cache and coalescing for this call.
    pub no_cache: bool,
}

/// Parses and validates a generate body against the node's defaults,
/// resolving every omitted field so the resulting [`ResultKey`] is canonical:
/// two requests that mean the same generation produce equal keys however they
/// spelled it.
pub fn parse_generate(body: &Value, node: &NodeShared) -> Result<GenerateSpec, WireFault> {
    let config = &node.config.engine;
    let prompt_value = body
        .field("prompt")
        .map_err(|e| WireFault::bad_request(e.to_string()))?;
    let Value::Seq(items) = prompt_value else {
        return Err(WireFault::bad_request(
            "`prompt` must be an array of token ids",
        ));
    };
    if items.is_empty() {
        return Err(WireFault::bad_request("`prompt` must not be empty"));
    }
    let mut prompt = Vec::with_capacity(items.len());
    for item in items {
        let token = as_u64(item)
            .filter(|&t| t <= u64::from(u32::MAX))
            .ok_or_else(|| WireFault::bad_request("`prompt` tokens must be u32 ids"))?;
        prompt.push(token as u32);
    }

    let max_new_tokens = opt_u64(body, "max_new_tokens")?.unwrap_or(16) as usize;
    if max_new_tokens == 0 {
        return Err(WireFault::bad_request("`max_new_tokens` must be positive"));
    }
    let mut generation = GenerationConfig::new(max_new_tokens);
    if let Some(eos) = opt_u64(body, "eos_token")? {
        let eos = u32::try_from(eos)
            .map_err(|_| WireFault::bad_request("`eos_token` must be a u32 id"))?;
        generation = generation.with_eos(eos);
    }
    let top_k = opt_u64(body, "top_k")?.unwrap_or(0) as usize;
    if top_k > 0 {
        let temperature = opt_f64(body, "temperature")?.unwrap_or(1.0);
        if temperature.is_nan() || temperature <= 0.0 {
            return Err(WireFault::bad_request(
                "`temperature` must be positive for top-k sampling",
            ));
        }
        let seed = opt_u64(body, "seed")?.unwrap_or(0);
        generation = generation.with_top_k(top_k, temperature as f32, seed);
    } else if opt_f64(body, "temperature")?.is_some_and(|t| t > 0.0) {
        return Err(WireFault::bad_request(
            "a positive `temperature` requires `top_k` >= 1",
        ));
    }
    if let Some(penalty) = opt_f64(body, "repetition_penalty")? {
        if penalty < 0.0 {
            return Err(WireFault::bad_request(
                "`repetition_penalty` must be non-negative",
            ));
        }
        generation = generation.with_repetition_penalty(penalty as f32);
    }

    let policy = match opt_str(body, "policy")? {
        Some(name) => parse_policy(name)?,
        None => config.policy,
    };
    policy
        .build()
        .map_err(|e| WireFault::bad_request(format!("policy does not build: {e}")))?;

    let budget =
        if opt_bool(body, "unbudgeted")? {
            None
        } else {
            match opt_f64(body, "budget_fraction")? {
                Some(fraction) => Some(CacheBudgetSpec::with_fraction(fraction).map_err(|e| {
                    WireFault::bad_request(format!("invalid `budget_fraction`: {e}"))
                })?),
                None => config.budget,
            }
        };

    let dtype = match opt_str(body, "kv_dtype")? {
        None => config.kv_dtype,
        Some("f32") => KvDtype::F32,
        Some("u8") => KvDtype::U8,
        Some(other) => {
            return Err(WireFault::bad_request(format!(
                "unknown `kv_dtype` `{other}` (expected f32 or u8)"
            )))
        }
    };
    if dtype.bytes_per_value() > config.kv_dtype.bytes_per_value() {
        return Err(WireFault::bad_request(format!(
            "`kv_dtype` {} is wider than the engine pool's {}; per-request overrides may \
             only narrow",
            dtype.label(),
            config.kv_dtype.label()
        )));
    }

    let priority = opt_u64(body, "priority")?.unwrap_or(0);
    let priority =
        u8::try_from(priority).map_err(|_| WireFault::bad_request("`priority` must fit a u8"))?;
    let mut options = SubmitOptions::new().with_priority(priority);
    if let Some(deadline) = opt_u64(body, "deadline_steps")? {
        options = options.with_deadline_steps(deadline as usize);
    }

    Ok(GenerateSpec {
        key: ResultKey {
            prompt,
            policy,
            budget,
            dtype,
            config: generation,
        },
        options,
        stream: opt_bool(body, "stream")?,
        no_cache: opt_bool(body, "no_cache")?,
    })
}

/// How an accepted generate call will be answered.
pub enum Admission {
    /// Served straight from the result cache: the job was born `Done`.
    CacheHit {
        /// The new job's id.
        job: u64,
        /// The cached token stream.
        tokens: Vec<u32>,
    },
    /// Attached to an in-flight twin; tokens arrive via the primary.
    Coalesced {
        /// The new job's id.
        job: u64,
        /// The primary's id (reported on the wire for observability).
        primary: u64,
    },
    /// A fresh engine run was enqueued.
    Fresh {
        /// The new job's id.
        job: u64,
    },
}

impl Admission {
    /// The id of the job this admission created.
    pub fn job(&self) -> u64 {
        match self {
            Admission::CacheHit { job, .. }
            | Admission::Coalesced { job, .. }
            | Admission::Fresh { job } => *job,
        }
    }
}

/// The answer to every generate call once the engine pump has died
/// ([`crate::backend`]): `503 unavailable`.
pub fn unavailable() -> WireFault {
    WireFault {
        status: 503,
        code: "unavailable",
        message: "the engine has stopped; this node serves no more generate calls".to_string(),
    }
}

/// Admits a validated generate call: consults the cache and the in-flight
/// table under one dedup lock (so two racing duplicates cannot both become
/// primaries), creates the job, and enqueues a pump command for fresh runs.
///
/// # Errors
///
/// [`unavailable`] once the job table is closed — the engine pump died, so
/// nothing would ever finish the job.
pub fn admit(spec: GenerateSpec, node: &NodeShared) -> Result<Admission, WireFault> {
    let jobs = &node.pump.jobs;
    let prompt_len = spec.key.prompt.len();
    let dedup_eligible = !spec.no_cache && spec.key.is_deterministic();
    let mut dedup = node.pump.dedup();
    if dedup.enabled && dedup_eligible {
        let now = node.pump.now_ms();
        if let Some(result) = dedup.cache.get(&spec.key, now) {
            drop(dedup);
            let job = jobs
                .try_create(prompt_len, None, JobState::Done)
                .ok_or_else(unavailable)?;
            jobs.update(job, |r, c| {
                r.tokens = result.tokens.clone();
                r.deduplicated = true;
                c.cache_hits += 1;
            });
            return Ok(Admission::CacheHit {
                job,
                tokens: result.tokens,
            });
        }
        let job = jobs
            .try_create(prompt_len, Some(spec.key.clone()), JobState::Queued)
            .ok_or_else(unavailable)?;
        if let Some(primary) = dedup.attach_follower(&spec.key, job, spec.options) {
            drop(dedup);
            jobs.update(job, |r, c| {
                r.coalesced_into = Some(primary);
                r.deduplicated = true;
                c.coalesced += 1;
            });
            return Ok(Admission::Coalesced { job, primary });
        }
        dedup.register_inflight(spec.key.clone(), job);
        drop(dedup);
        let _ = node.cmd.send(Command::Submit {
            job,
            key: spec.key,
            options: spec.options,
        });
        return Ok(Admission::Fresh { job });
    }
    drop(dedup);
    let job = jobs
        .try_create(prompt_len, Some(spec.key.clone()), JobState::Queued)
        .ok_or_else(unavailable)?;
    let _ = node.cmd.send(Command::Submit {
        job,
        key: spec.key,
        options: spec.options,
    });
    Ok(Admission::Fresh { job })
}

/// The first line of a streamed generate, before its token events.
pub fn accepted_event(admission: &Admission) -> String {
    json_obj(vec![
        ("event", Value::Str("accepted".to_string())),
        ("job_id", Value::UInt(admission.job())),
        (
            "deduplicated",
            Value::Bool(!matches!(admission, Admission::Fresh { .. })),
        ),
    ])
}

/// The JSON body answering a non-streaming generate call.
pub fn admission_body(admission: &Admission, state: JobState) -> String {
    let mut entries = vec![
        ("job_id", Value::UInt(admission.job())),
        ("state", Value::Str(state.label().to_string())),
        (
            "deduplicated",
            Value::Bool(!matches!(admission, Admission::Fresh { .. })),
        ),
    ];
    match admission {
        Admission::CacheHit { tokens, .. } => {
            entries.push((
                "tokens",
                Value::Seq(tokens.iter().map(|&t| Value::UInt(u64::from(t))).collect()),
            ));
        }
        Admission::Coalesced { primary, .. } => {
            entries.push(("coalesced_into", Value::UInt(*primary)));
        }
        Admission::Fresh { .. } => {}
    }
    json_obj(entries)
}

/// The JSON body answering `GET /v1/jobs/{id}`; `None` for unknown ids.
pub fn job_body(node: &NodeShared, job: u64) -> Option<String> {
    node.pump.jobs.with_job(job, |r| {
        let mut entries = vec![
            ("job_id", Value::UInt(r.id)),
            ("state", Value::Str(r.state.label().to_string())),
            ("prompt_len", Value::UInt(r.prompt_len as u64)),
            (
                "tokens",
                Value::Seq(
                    r.tokens
                        .iter()
                        .map(|&t| Value::UInt(u64::from(t)))
                        .collect(),
                ),
            ),
            ("deduplicated", Value::Bool(r.deduplicated)),
        ];
        if let Some(primary) = r.coalesced_into {
            entries.push(("coalesced_into", Value::UInt(primary)));
        }
        if let Some(error) = &r.error {
            entries.push(("error", Value::Str(error.wire.code.to_string())));
            entries.push(("message", Value::Str(error.message.clone())));
        }
        json_obj(entries)
    })
}

/// The JSON body answering `GET /v1/stats`.
pub fn stats_body(node: &NodeShared) -> String {
    let counters = node.pump.jobs.counters();
    let snapshot = *node
        .pump
        .snapshot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (cache_stats, cache_len, inflight, dedup_enabled) = {
        let dedup = node.pump.dedup();
        (
            dedup.cache.stats(),
            dedup.cache.len(),
            dedup.inflight_groups(),
            dedup.enabled,
        )
    };
    json_obj(vec![
        ("jobs", counters.to_value()),
        ("live_jobs", Value::UInt(node.pump.jobs.live() as u64)),
        ("engine", snapshot.to_value()),
        ("dedup_enabled", Value::Bool(dedup_enabled)),
        ("cache", cache_stats.to_value()),
        ("cache_entries", Value::UInt(cache_len as u64)),
        ("inflight_groups", Value::UInt(inflight as u64)),
    ])
}

/// Cancels `job`: answers its current state and, for live jobs, enqueues a
/// pump cancellation. `None` for unknown ids.
pub fn cancel_job(node: &NodeShared, job: u64) -> Option<(u16, String)> {
    let state = node.pump.jobs.with_job(job, |r| r.state)?;
    if !state.is_terminal() {
        let _ = node.cmd.send(Command::Cancel { job });
    }
    Some((
        202,
        json_obj(vec![
            ("job_id", Value::UInt(job)),
            ("state", Value::Str(state.label().to_string())),
            ("cancelling", Value::Bool(!state.is_terminal())),
        ]),
    ))
}

/// One NDJSON stream event (also the chunk payload of HTTP streaming).
pub fn stream_event(snapshot: &StreamSnapshot, cursor: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, &token) in snapshot.new_tokens.iter().enumerate() {
        lines.push(json_obj(vec![
            ("event", Value::Str("token".to_string())),
            ("index", Value::UInt((cursor + i) as u64)),
            ("token", Value::UInt(u64::from(token))),
        ]));
    }
    match snapshot.state {
        JobState::Done => lines.push(json_obj(vec![
            ("event", Value::Str("done".to_string())),
            ("deduplicated", Value::Bool(snapshot.deduplicated)),
        ])),
        JobState::Failed => {
            let (code, message) = snapshot
                .error
                .as_ref()
                .map(|e| (e.wire.code, e.message.clone()))
                .unwrap_or(("internal", "unknown failure".to_string()));
            lines.push(json_obj(vec![
                ("event", Value::Str("error".to_string())),
                ("error", Value::Str(code.to_string())),
                ("message", Value::Str(message)),
            ]));
        }
        JobState::Cancelled => lines.push(json_obj(vec![(
            "event",
            Value::Str("cancelled".to_string()),
        )])),
        JobState::Queued | JobState::Running => {}
    }
    lines
}

/// Drives a streaming drain for `job`: waits on the table, emits each new
/// token through `write` (one JSON line per call), and returns once the job
/// is terminal or `write` fails (client gone or stalled past the write
/// timeout — the job is then cancelled so its blocks free up, and the error
/// is returned so the caller ends the exchange without writing again).
pub fn drive_stream(
    node: &NodeShared,
    job: u64,
    mut write: impl FnMut(&str) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut cursor = 0;
    loop {
        let Some(snapshot) = node
            .pump
            .jobs
            .wait_stream(job, cursor, Duration::from_millis(100))
        else {
            return Ok(());
        };
        let lines = stream_event(&snapshot, cursor);
        cursor += snapshot.new_tokens.len();
        for line in lines {
            if let Err(e) = write(&line) {
                // The client hung up mid-stream: stop paying for its tokens.
                let _ = node.cmd.send(Command::Cancel { job });
                return Err(e);
            }
        }
        if snapshot.state.is_terminal() {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_map_to_the_zoo_and_unknown_names_fail() {
        let table = [
            ("full", PolicySpec::Full),
            ("window", PolicySpec::Window),
            ("dilated", PolicySpec::DilatedWindow { dilation: 1 }),
            ("key_only", PolicySpec::KeyOnly),
            ("h2o", PolicySpec::h2o_default()),
            ("damped", PolicySpec::Damped { alpha: 0.9 }),
            ("streaming_llm", PolicySpec::streaming_default()),
            ("keyformer", PolicySpec::keyformer_default()),
        ];
        for (name, spec) in table {
            assert_eq!(policy_by_name(name), Some(spec), "{name}");
            assert_eq!(parse_policy(name).ok(), Some(spec), "{name}");
        }
        assert_eq!(policy_by_name("Keyformer"), None);
        assert_eq!(policy_by_name("lru"), None);
        let fault = parse_policy("lru").expect_err("an unknown name is a fault");
        assert_eq!(fault.status, 400);
        assert!(fault.message.contains("`lru`"), "{}", fault.message);
    }
}
