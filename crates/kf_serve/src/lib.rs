//! `kf_serve`: a network front-end for the [`keyformer_serve`] engine, built
//! entirely on `std::net` — no network crates.
//!
//! One [`serve`] call boots a node: a dedicated *pump* thread that owns the
//! model and [`keyformer_serve::Engine`] (see [`backend`]), an accept loop,
//! and one short-lived thread per connection. Connection threads never touch
//! the engine — they enqueue commands over a channel and observe the shared
//! [`jobs::JobTable`], so the engine keeps its single-threaded determinism
//! while any number of sockets talk to it.
//!
//! Two wire formats share one request path: each parses a request into one
//! operation (generate, status, cancel or stats), one function answers it
//! through the semantics layer ([`api`]), and each format only writes the
//! answer — a response or a line, or a token stream:
//!
//! * **HTTP/1.1**, one exchange per connection: `POST /v1/generate`
//!   (`202` + job id, or a chunked NDJSON token stream when the body sets
//!   `"stream": true`), `GET /v1/jobs/{id}`, `DELETE /v1/jobs/{id}`, and
//!   `GET /v1/stats`.
//! * **Line-delimited JSON**: a first byte of `{` selects a persistent
//!   session where each line is an op (`generate`, `status`, `cancel`,
//!   `stats`) and each response is a line.
//!
//! Deterministic (greedy) generates are *idempotent*: a completed result is
//! published to a TTL'd content-hash [`cache::ResultCache`], duplicates of an
//! in-flight request coalesce onto the running primary, and repeats are
//! answered byte-identically with zero additional engine steps. Sampled
//! requests bypass both mechanisms by construction.

pub mod api;
pub mod backend;
pub mod cache;
pub mod client;
pub mod http;
pub mod jobs;

use api::WireFault;
use backend::{Command, DedupState, PumpShared};
use cache::ResultCache;
use jobs::{JobState, JobTable};
use keyformer_model::families::ModelFamily;
use keyformer_serve::ServerConfig;
use serde::Value;
use std::io::{BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Model, engine and dedup configuration of one serving node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Model family the pump thread builds.
    pub family: ModelFamily,
    /// Seed for the model's deterministic weight initialisation.
    pub model_seed: u64,
    /// The engine configuration (policy, budget, pool, scheduler knobs).
    pub engine: ServerConfig,
    /// Enables the result cache and in-flight coalescing (default `true`).
    pub dedup: bool,
    /// Result-cache entry capacity (0 disables storage; default 256).
    pub cache_capacity: usize,
    /// Result-cache time-to-live in milliseconds (default one minute).
    pub cache_ttl_ms: u64,
    /// Terminal job records retained for polling before garbage collection
    /// (default 1024).
    pub retained_jobs: usize,
    /// Concurrent connection threads allowed; connections past the cap are
    /// answered `503` and closed, so a flood of sockets cannot exhaust
    /// threads or memory (default 256).
    pub max_connections: usize,
    /// Idle read timeout for persistent NDJSON sessions in milliseconds; a
    /// session silent this long is closed rather than pinning its thread
    /// forever. `0` disables the timeout (default five minutes).
    pub ndjson_idle_timeout_ms: u64,
}

impl NodeConfig {
    /// A node over `engine` with the test-sized model family, dedup on, and
    /// the default cache/retention sizing.
    pub fn new(family: ModelFamily, model_seed: u64, engine: ServerConfig) -> Self {
        NodeConfig {
            family,
            model_seed,
            engine,
            dedup: true,
            cache_capacity: 256,
            cache_ttl_ms: 60_000,
            retained_jobs: 1024,
            max_connections: 256,
            ndjson_idle_timeout_ms: 300_000,
        }
    }

    /// Enables or disables result caching and coalescing.
    pub fn with_dedup(mut self, enabled: bool) -> Self {
        self.dedup = enabled;
        self
    }

    /// Sets the result cache's capacity and TTL.
    pub fn with_cache(mut self, capacity: usize, ttl_ms: u64) -> Self {
        self.cache_capacity = capacity;
        self.cache_ttl_ms = ttl_ms;
        self
    }

    /// Sets how many terminal job records stay pollable.
    pub fn with_retained_jobs(mut self, retained: usize) -> Self {
        self.retained_jobs = retained;
        self
    }

    /// Caps the number of concurrent connection threads.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the NDJSON session idle timeout (`0` disables it).
    pub fn with_ndjson_idle_timeout(mut self, ms: u64) -> Self {
        self.ndjson_idle_timeout_ms = ms;
        self
    }
}

/// Everything a connection thread needs: the node configuration (for
/// resolving request defaults), the pump's shared state, and the command
/// channel into it.
pub struct NodeShared {
    /// The node's configuration, for default resolution and validation.
    pub config: NodeConfig,
    /// Job table, dedup state and engine snapshot shared with the pump.
    pub pump: Arc<PumpShared>,
    /// Command channel into the pump thread.
    pub cmd: mpsc::Sender<Command>,
}

/// Why a node failed to boot.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listener failed.
    Bind(std::io::Error),
    /// The engine configuration did not validate.
    Engine(keyformer_core::CoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "binding listener: {e}"),
            ServeError::Engine(e) => write!(f, "engine configuration: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running node: joinable threads plus the shared state, shut down
/// explicitly via [`ServeHandle::shutdown`] or implicitly on drop.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    pump: Option<std::thread::JoinHandle<()>>,
    node: Arc<NodeShared>,
}

impl ServeHandle {
    /// The bound address (with the OS-assigned port when `addr` had port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared node state, for in-process inspection by tests and the
    /// harness (job counters, engine snapshot, cache stats).
    pub fn node(&self) -> &Arc<NodeShared> {
        &self.node
    }

    /// A [`client::Client`] bound to this node.
    pub fn client(&self) -> client::Client {
        client::Client::new(self.addr)
    }

    /// Stops accepting, cancels every live job, and joins both threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the accept loop exits (i.e. until another thread calls
    /// for shutdown or the process dies) — the binary's main loop.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = self.node.cmd.send(Command::Shutdown);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Boots a node: spawns the pump thread, binds `addr`, and starts the accept
/// loop. Returns once the engine has validated and the listener is live.
///
/// # Errors
///
/// [`ServeError::Engine`] when the engine configuration does not validate;
/// [`ServeError::Bind`] when the listener cannot bind.
pub fn serve(addr: &str, config: NodeConfig) -> Result<ServeHandle, ServeError> {
    let shared = Arc::new(PumpShared {
        jobs: Arc::new(JobTable::new(config.retained_jobs)),
        dedup: Arc::new(Mutex::new(DedupState::new(
            config.dedup,
            ResultCache::new(config.cache_capacity, config.cache_ttl_ms),
        ))),
        snapshot: Arc::new(Mutex::new(backend::EngineSnapshot::default())),
        started: Instant::now(),
    });
    let (cmd, pump) = backend::spawn_pump(
        config.family,
        config.model_seed,
        config.engine,
        Arc::clone(&shared),
    )
    .map_err(ServeError::Engine)?;
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            let _ = cmd.send(Command::Shutdown);
            let _ = pump.join();
            return Err(ServeError::Bind(e));
        }
    };
    let local = listener.local_addr().map_err(ServeError::Bind)?;
    let node = Arc::new(NodeShared {
        config,
        pump: shared,
        cmd,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let node = Arc::clone(&node);
        let stop = Arc::clone(&stop);
        let active = Arc::new(AtomicUsize::new(0));
        std::thread::Builder::new()
            .name("kf-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Every answer goes out as one write; send it at once
                    // rather than hold it back for the peer's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    // A node whose engine died answers everyone 503.
                    if node.pump.jobs.is_closed() {
                        shed_connection(stream, api::unavailable());
                        continue;
                    }
                    // The cap bounds detached connection threads: past it the
                    // peer gets a fast 503 instead of a thread of its own.
                    if active.fetch_add(1, Ordering::SeqCst) >= node.config.max_connections {
                        active.fetch_sub(1, Ordering::SeqCst);
                        let message = "connection limit reached; retry shortly";
                        shed_connection(stream, WireFault::new(503, "overloaded", message));
                        continue;
                    }
                    let node = Arc::clone(&node);
                    let slot = SlotGuard(Arc::clone(&active));
                    // Connection threads are detached: they outlive at most
                    // one exchange (HTTP) or one idle-bounded session
                    // (NDJSON), and shutdown retires every job they could be
                    // waiting on.
                    let _ = std::thread::Builder::new()
                        .name("kf-serve-conn".into())
                        .spawn(move || {
                            let _slot = slot;
                            handle_connection(stream, &node);
                        });
                }
            })
            .expect("spawning the accept thread")
    };
    Ok(ServeHandle {
        addr: local,
        stop,
        accept: Some(accept),
        pump: Some(pump),
        node,
    })
}

/// Longest the accept thread lingers on one shed connection, and the most of
/// the peer's unread request it swallows while doing so.
const SHED_LINGER: Duration = Duration::from_millis(50);
const SHED_DRAIN_BYTES: usize = 64 * 1024;

/// Answers a connection the node will not serve — past the cap, or after
/// the engine died — with `fault`, then closes it *cleanly*.
///
/// The peer has usually sent (or is about to send) its request; closing a
/// socket with unread receive data makes the kernel answer with RST instead
/// of FIN, and the peer's read of the answer then fails with `ECONNRESET`.
/// So: write the answer, half-close, and swallow what the peer sends until it
/// closes its side — bounded in time and bytes, because this runs on the
/// accept thread and a shed peer is owed nothing more.
fn shed_connection(mut stream: TcpStream, fault: WireFault) {
    let _ = stream.set_write_timeout(Some(SHED_LINGER));
    let _ = http::write_response(&mut stream, fault.status, &fault.body());
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(SHED_LINGER));
    let deadline = Instant::now() + SHED_LINGER;
    let mut sink = [0u8; 4096];
    let mut swallowed = 0;
    while swallowed < SHED_DRAIN_BYTES && Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => swallowed += n,
        }
    }
}

/// Releases one connection-cap slot when its connection thread exits,
/// however it exits.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest one `send` on a served connection may make no progress. A peer
/// that stops reading — a stalled consumer of a token stream — fills the
/// socket buffers and would otherwise block its connection thread in `write`
/// for good; past this bound the write fails and ends the exchange like any
/// other write error (a streaming job is cancelled, the thread and its
/// connection slot are released). A send that moves even a few bytes starts
/// the clock again, so a dying peer can take two or three of these to shed.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Dispatches one fresh connection to the protocol its first line selects: a
/// `{` opens a persistent NDJSON session, anything else is one HTTP exchange.
fn handle_connection(stream: TcpStream, node: &Arc<NodeShared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let Ok(Some(first)) = http::read_line(&mut reader) else {
        return;
    };
    if first.trim_start().starts_with('{') {
        ndjson_session(&first, &mut reader, &mut writer, node);
    } else {
        http_exchange(&first, &mut reader, &mut writer, node);
    }
}

/// One request, whichever wire format carried it.
#[derive(Debug, PartialEq)]
enum Op {
    /// A generate call, with its parsed JSON body.
    Generate(Value),
    /// Poll one job.
    Status(u64),
    /// Cancel one job.
    Cancel(u64),
    /// The node's counters.
    Stats,
}

/// The answer to one [`Op`]: a JSON body with the HTTP status it goes out
/// under, or an admitted generate to stream.
enum Answer {
    Unary(u16, String),
    Stream(api::Admission),
}

/// A request's JSON; a syntax error is a 400 `invalid_json`.
fn parse_json(text: &str) -> Result<Value, WireFault> {
    serde_json::from_str(text).map_err(|e| WireFault::new(400, "invalid_json", e.to_string()))
}

/// Routes an HTTP request to its [`Op`] on method and path: `POST
/// /v1/generate` (a UTF-8 JSON body), `GET`/`DELETE /v1/jobs/{id}` and `GET
/// /v1/stats`.
fn http_op(request: &http::HttpRequest) -> Result<Op, WireFault> {
    let method = request.method.as_str();
    let not_allowed = || {
        let message = format!("{method} is not supported here");
        WireFault::new(405, "method_not_allowed", message)
    };
    if let Some(id) = request.path.strip_prefix("/v1/jobs/") {
        let op = match method {
            "GET" => Op::Status,
            "DELETE" => Op::Cancel,
            _ => return Err(not_allowed()),
        };
        return id
            .parse()
            .map(op)
            .map_err(|_| WireFault::bad_request("job ids are integers"));
    }
    match (method, request.path.as_str()) {
        ("POST", "/v1/generate") => std::str::from_utf8(&request.body)
            .map_err(|_| WireFault::bad_request("body is not UTF-8"))
            .and_then(parse_json)
            .map(Op::Generate),
        ("GET", "/v1/stats") => Ok(Op::Stats),
        (_, "/v1/generate" | "/v1/stats") => Err(not_allowed()),
        (_, path) => {
            let message = format!("no such surface: {path}");
            Err(WireFault::new(404, "not_found", message))
        }
    }
}

/// Reads an NDJSON line's `op` (`generate`, `status`, `cancel` or `stats`)
/// and, for `status` and `cancel`, its `job_id`.
fn ndjson_op(line: &str) -> Result<Op, WireFault> {
    let value = parse_json(line)?;
    let job_id = || {
        let id = value.field("job_id").ok().and_then(api::as_u64);
        id.ok_or_else(|| WireFault::bad_request("missing `job_id`"))
    };
    let Ok(Value::Str(op)) = value.field("op") else {
        return Err(WireFault::bad_request("missing `op`"));
    };
    match op.as_str() {
        "status" => job_id().map(Op::Status),
        "cancel" => job_id().map(Op::Cancel),
        "stats" => Ok(Op::Stats),
        "generate" => Ok(Op::Generate(value)),
        other => Err(WireFault::bad_request(format!("unknown op `{other}`"))),
    }
}

/// Answers one parsed request. Every operation meets the node here, and
/// every fault becomes an error body under its status.
fn answer(op: Result<Op, WireFault>, node: &NodeShared) -> Answer {
    let no_job = |id| WireFault::new(404, "not_found", format!("no job {id}"));
    let answered = op.and_then(|op| match op {
        Op::Generate(body) => {
            let spec = api::parse_generate(&body, node)?;
            let stream = spec.stream;
            let admission = api::admit(spec, node)?;
            if stream {
                return Ok(Answer::Stream(admission));
            }
            // A cache hit is answered in full; any other call is accepted.
            let status = match admission {
                api::Admission::CacheHit { .. } => 200,
                _ => 202,
            };
            let jobs = &node.pump.jobs;
            let state = jobs.with_job(admission.job(), |r| r.state);
            let body = api::admission_body(&admission, state.unwrap_or(JobState::Queued));
            Ok(Answer::Unary(status, body))
        }
        Op::Status(id) => api::job_body(node, id)
            .map(|body| Answer::Unary(200, body))
            .ok_or_else(|| no_job(id)),
        Op::Cancel(id) => api::cancel_job(node, id)
            .map(|(status, body)| Answer::Unary(status, body))
            .ok_or_else(|| no_job(id)),
        Op::Stats => Ok(Answer::Unary(200, api::stats_body(node))),
    });
    answered.unwrap_or_else(|fault| Answer::Unary(fault.status, fault.body()))
}

/// Streams an admitted generate through `write`, one JSON line per call: the
/// `accepted` line, then one line per event until the job is terminal. A
/// failed write (the peer hung up, or stalled past the write timeout)
/// cancels the job so its blocks free up, and ends the stream with the error.
fn write_stream(
    admission: &api::Admission,
    node: &NodeShared,
    mut write: impl FnMut(&str) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let job = admission.job();
    let streamed =
        write(&api::accepted_event(admission)).and_then(|()| api::drive_stream(node, job, write));
    if streamed.is_err() {
        let _ = node.cmd.send(Command::Cancel { job });
    }
    streamed
}

/// Serves one HTTP request and closes: a unary answer is one response, a
/// stream one chunk per line.
fn http_exchange(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut TcpStream,
    node: &NodeShared,
) {
    let op = http::parse_http(first, reader)
        .map_err(|message| WireFault::new(400, "malformed_request", message))
        .and_then(|request| http_op(&request));
    match answer(op, node) {
        Answer::Unary(status, body) => {
            let _ = http::write_response(writer, status, &body);
        }
        Answer::Stream(admission) => {
            // The chunked head goes out with the first line, so a peer gone
            // before it is a failed write like any other.
            let mut head = true;
            let streamed = write_stream(&admission, node, |line| {
                if std::mem::take(&mut head) {
                    http::start_chunked(writer, 200)?;
                }
                http::write_chunk(writer, &format!("{line}\n"))
            });
            if streamed.is_ok() {
                let _ = http::finish_chunked(writer);
            }
        }
    }
}

/// Runs a persistent line-delimited-JSON session: each request line is an op,
/// each answer a line (a streamed generate writes several), each in one
/// write ([`http::write_line`]).
fn ndjson_session(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut TcpStream,
    node: &NodeShared,
) {
    // Sessions may idle between ops, so the tight protocol-sniff timeout is
    // replaced with a generous idle bound: a peer silent that long ends the
    // session (the read errors out and the loop returns) instead of pinning
    // its connection thread forever.
    let idle = node.config.ndjson_idle_timeout_ms;
    let _ = writer.set_read_timeout(if idle == 0 {
        None
    } else {
        Some(Duration::from_millis(idle))
    });
    let mut line = first.to_string();
    loop {
        let op = line.trim();
        if !op.is_empty() {
            let written = match answer(ndjson_op(op), node) {
                Answer::Unary(_, body) => http::write_line(writer, &body),
                Answer::Stream(admission) => {
                    write_stream(&admission, node, |event| http::write_line(writer, event))
                }
            };
            if written.is_err() {
                // The peer is gone.
                return;
            }
        }
        match http::read_line(reader) {
            Ok(Some(next)) => line = next,
            Ok(None) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_core::spec::PolicySpec;

    type Parsed = Result<Op, WireFault>;

    fn fault(status: u16, code: &'static str, message: &str) -> Parsed {
        Err(WireFault::new(status, code, message))
    }

    /// The answer to a megabyte of `[`: the parser stops at its nesting
    /// bound instead of recursing once per byte on the connection's stack.
    fn too_deep() -> Parsed {
        fault(
            400,
            "invalid_json",
            "nesting deeper than 128 levels at byte 128",
        )
    }

    fn http(method: &str, path: &str, body: &[u8]) -> Parsed {
        http_op(&http::HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_vec(),
        })
    }

    #[test]
    fn http_requests_route_to_one_op_or_fault() {
        let integers = || fault(400, "invalid_request", "job ids are integers");
        let not_allowed = |m: &str| {
            fault(
                405,
                "method_not_allowed",
                &format!("{m} is not supported here"),
            )
        };
        let prompt = Value::Map(vec![(
            "prompt".to_string(),
            Value::Seq(vec![Value::UInt(1)]),
        )]);
        let nested = "[".repeat(1 << 20);
        let table: &[(&str, &str, &[u8], Parsed)] = &[
            (
                "POST",
                "/v1/generate",
                b"{\"prompt\":[1]}",
                Ok(Op::Generate(prompt)),
            ),
            ("GET", "/v1/jobs/999", b"", Ok(Op::Status(999))),
            ("DELETE", "/v1/jobs/999", b"", Ok(Op::Cancel(999))),
            ("GET", "/v1/stats", b"", Ok(Op::Stats)),
            ("GET", "/v1/jobs/+5", b"", Ok(Op::Status(5))),
            (
                "GET",
                "/v1/jobs/18446744073709551615",
                b"",
                Ok(Op::Status(u64::MAX)),
            ),
            (
                "POST",
                "/v1/generate",
                b"\xff\xfe",
                fault(400, "invalid_request", "body is not UTF-8"),
            ),
            (
                "POST",
                "/v1/generate",
                b"{\"prompt\"",
                fault(400, "invalid_json", "expected `:` at byte 9"),
            ),
            ("POST", "/v1/generate", nested.as_bytes(), too_deep()),
            ("GET", "/v1/jobs/", b"", integers()),
            ("GET", "/v1/jobs/x", b"", integers()),
            ("DELETE", "/v1/jobs/-1", b"", integers()),
            ("GET", "/v1/jobs/18446744073709551616", b"", integers()),
            ("GET", "/v1/jobs/5/trace", b"", integers()),
            ("PUT", "/v1/generate", b"", not_allowed("PUT")),
            ("GET", "/v1/generate", b"", not_allowed("GET")),
            ("POST", "/v1/stats", b"", not_allowed("POST")),
            ("POST", "/v1/jobs/3", b"", not_allowed("POST")),
            ("PATCH", "/v1/jobs/x", b"", not_allowed("PATCH")),
            (
                "GET",
                "/nope",
                b"",
                fault(404, "not_found", "no such surface: /nope"),
            ),
            (
                "GET",
                "/v1/stats/",
                b"",
                fault(404, "not_found", "no such surface: /v1/stats/"),
            ),
            (
                "GET",
                "/v1/jobs",
                b"",
                fault(404, "not_found", "no such surface: /v1/jobs"),
            ),
        ];
        for (method, path, body, expected) in table {
            assert_eq!(&http(method, path, body), expected, "{method} {path}");
        }
    }

    #[test]
    fn ndjson_lines_route_to_one_op_or_fault() {
        let missing_op = || fault(400, "invalid_request", "missing `op`");
        let missing_id = || fault(400, "invalid_request", "missing `job_id`");
        let nested = "[".repeat(1 << 20);
        let table: &[(&str, Parsed)] = &[
            (r#"{"op":"status","job_id":999}"#, Ok(Op::Status(999))),
            (r#"{"op":"cancel","job_id":0}"#, Ok(Op::Cancel(0))),
            (r#"{"op":"stats","job_id":"ignored"}"#, Ok(Op::Stats)),
            (
                r#"{"op":"status","job_id":18446744073709551615}"#,
                Ok(Op::Status(u64::MAX)),
            ),
            (
                r#"{"op":"stats""#,
                fault(400, "invalid_json", "expected `,` or `}` at byte 13"),
            ),
            (&nested, too_deep()),
            ("[1,2]", missing_op()),
            ("5", missing_op()),
            ("null", missing_op()),
            ("{}", missing_op()),
            (r#"{"job_id":1}"#, missing_op()),
            (r#"{"op":5}"#, missing_op()),
            (
                r#"{"op":"nope"}"#,
                fault(400, "invalid_request", "unknown op `nope`"),
            ),
            (
                r#"{"op":"Stats"}"#,
                fault(400, "invalid_request", "unknown op `Stats`"),
            ),
            (r#"{"op":"status"}"#, missing_id()),
            (r#"{"op":"status","job_id":-1}"#, missing_id()),
            (r#"{"op":"status","job_id":1.5}"#, missing_id()),
            (r#"{"op":"status","job_id":"7"}"#, missing_id()),
            (
                r#"{"op":"status","job_id":18446744073709551616}"#,
                missing_id(),
            ),
            (r#"{"op":"status","job_id":[5]}"#, missing_id()),
            (r#"{"op":"cancel","job_id":null}"#, missing_id()),
            (r#"{"op":"cancel","job_id":{"id":5}}"#, missing_id()),
        ];
        for (line, expected) in table {
            assert_eq!(&ndjson_op(line), expected, "{line}");
        }
        let line = r#"{"op":"generate","prompt":[1]}"#;
        let Ok(Op::Generate(body)) = ndjson_op(line) else {
            panic!("{line} is a generate");
        };
        assert_eq!(body, serde_json::from_str::<Value>(line).unwrap());
    }

    /// Every prefix of a valid request parses to an op or a fault; none
    /// panics.
    #[test]
    fn truncated_requests_never_panic() {
        let line = r#"{"op":"generate","prompt":[1,2],"job_id":18446744073709551615,"x":[{"y":-1.5e3}],"s":"é\n"}"#;
        for end in 0..=line.len() {
            let _ = http("POST", "/v1/generate", &line.as_bytes()[..end]);
            if let Some(prefix) = line.get(..end) {
                let _ = ndjson_op(prefix);
                let _ = http("GET", &format!("/v1/jobs/{prefix}"), b"");
            }
        }
    }

    fn offline_node() -> (NodeShared, mpsc::Receiver<Command>) {
        let engine = ServerConfig::new(PolicySpec::Full, None, 1 << 20);
        let config = NodeConfig::new(ModelFamily::Tiny, 1, engine);
        let (cmd, rx) = mpsc::channel();
        let pump = Arc::new(PumpShared {
            jobs: Arc::new(JobTable::new(config.retained_jobs)),
            dedup: Arc::new(Mutex::new(DedupState::new(
                config.dedup,
                ResultCache::new(config.cache_capacity, config.cache_ttl_ms),
            ))),
            snapshot: Arc::new(Mutex::new(backend::EngineSnapshot::default())),
            started: Instant::now(),
        });
        (NodeShared { config, pump, cmd }, rx)
    }

    /// Admits a fresh streamed generate of `prompt` and takes its `Submit`
    /// off the channel.
    fn admit_stream(
        node: &NodeShared,
        rx: &mpsc::Receiver<Command>,
        prompt: u32,
    ) -> api::Admission {
        let body = format!(r#"{{"prompt":[{prompt}],"stream":true}}"#);
        let body = serde_json::from_str(&body).unwrap();
        let Answer::Stream(admission) = answer(Ok(Op::Generate(body)), node) else {
            panic!("a streamed generate is admitted to stream");
        };
        assert!(matches!(rx.try_recv(), Ok(Command::Submit { .. })));
        admission
    }

    /// A stream whose writer fails — on the `accepted` line or on a later
    /// event — cancels its job; one that completes does not.
    #[test]
    fn a_failed_stream_write_cancels_the_job() {
        let (node, rx) = offline_node();
        for (prompt, fail_on_call) in [(1, 1), (2, 2), (3, usize::MAX)] {
            let admission = admit_stream(&node, &rx, prompt);
            let job = admission.job();
            node.pump.jobs.update(job, |r, _| {
                r.state = JobState::Done;
                r.tokens.push(7);
            });
            let mut calls = 0;
            let mut lines = Vec::new();
            let streamed = write_stream(&admission, &node, |line| {
                calls += 1;
                if calls == fail_on_call {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                lines.push(line.to_string());
                Ok(())
            });
            if fail_on_call == usize::MAX {
                streamed.expect("a stream nobody drops");
                assert_eq!(lines.len(), 3, "accepted, token, done: {lines:?}");
                assert!(rx.try_recv().is_err(), "a finished stream cancels nothing");
            } else {
                assert!(streamed.is_err());
                assert_eq!(lines.len(), fail_on_call - 1);
                let cancelled = matches!(rx.try_recv(), Ok(Command::Cancel { job: j }) if j == job);
                assert!(
                    cancelled,
                    "a write failing on call {fail_on_call} cancels job {job}"
                );
            }
        }
    }
}
