//! One measured socket run against a live `kf_serve`: warm-up, window,
//! harvest of the fixed part, and the numbers a user of the server would see.

use crate::loadgen::{self, Arrival, NdjsonSession, Outcome};
use crate::server::{stat, Server};
use crate::stats::{median, percentile};
use crate::workload::{poisson_schedule, Lane, RequestStream, Workload, WARMUP};
use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// The seeded streams of one run, generated during set-up.
pub struct Streams {
    pub foreground: RequestStream,
    pub background: Option<RequestStream>,
    /// Wall time the generators took, outside every window.
    pub generation: Duration,
}

impl Streams {
    /// Pre-builds what a run of length `run` sends at today's speeds, so a
    /// window does not generate inline (later indices still are, on demand).
    pub fn generate(workload: &Workload, seed: u64, run: Duration) -> Streams {
        let started = Instant::now();
        let foreground =
            RequestStream::new(workload, seed, Lane::Foreground, 2 * workload.rouge_part);
        let background = workload.background.map(|bg| {
            let arrivals = poisson_schedule(seed, bg.rate_per_s, run).len();
            RequestStream::new(workload, seed, Lane::Background, arrivals)
        });
        Streams {
            foreground,
            background,
            generation: started.elapsed(),
        }
    }

    pub fn lane(&self, lane: Lane) -> &RequestStream {
        match lane {
            Lane::Foreground => &self.foreground,
            Lane::Background => self
                .background
                .as_ref()
                .expect("only workloads with background traffic have that lane"),
        }
    }
}

/// Everything one socket run observed.
pub struct SocketRun {
    pub window: Duration,
    /// Every foreground request sent, warm-up and tail included.
    pub outcomes: Vec<Outcome>,
    pub arrivals: Vec<Arrival>,
    pub stats_before: Value,
    pub stats_after: Value,
    /// Time between the two `/v1/stats` reads that bracket the window.
    pub stats_span: Duration,
    /// Token streams of the fixed part, by lane and stream index.
    pub fixed_outputs: HashMap<(Lane, usize), Vec<u32>>,
    /// Token streams of the ROUGE part (the fixed part and beyond), as far as
    /// it completed.
    pub scored_outputs: HashMap<(Lane, usize), Vec<u32>>,
    /// Fixed-part requests that never produced a result.
    pub fixed_missing: Vec<(Lane, usize)>,
    pub peak_rss_mib: f64,
}

/// Drives `workload` against `server`: [`WARMUP`] untimed, then `window`
/// measured. Closed-loop clients and the open-loop generator get one thread
/// each; this thread only sleeps and reads `/v1/stats` at the window's edges.
pub fn run(
    workload: &Workload,
    seed: u64,
    server: &Server,
    streams: &Streams,
    window: Duration,
) -> Result<SocketRun, String> {
    let addr = server.addr;
    let schedule = workload
        .background
        .map(|bg| poisson_schedule(seed, bg.rate_per_s, WARMUP + window))
        .unwrap_or_default();
    let mut session = match &streams.background {
        Some(_) => Some(NdjsonSession::connect(addr).map_err(|e| format!("NDJSON session: {e}"))?),
        None => None,
    };
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let stop = epoch + WARMUP + window;

    let (outcomes, arrivals, stats_before, stats_after, stats_span) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workload.clients)
            .map(|_| {
                scope.spawn(|| {
                    loadgen::closed_loop_client(
                        addr,
                        &streams.foreground,
                        &next,
                        workload.fixed_part,
                        epoch,
                        stop,
                    )
                })
            })
            .collect();
        let generator = session.as_mut().map(|session| {
            let stream = streams.lane(Lane::Background);
            let schedule = &schedule;
            scope.spawn(move || loadgen::open_loop_client(session, stream, schedule, epoch))
        });
        std::thread::sleep((epoch + WARMUP).saturating_duration_since(Instant::now()));
        let before = server.stats();
        let before_at = Instant::now();
        std::thread::sleep(stop.saturating_duration_since(Instant::now()));
        let after = server.stats();
        let span = before_at.elapsed();
        let mut outcomes = Vec::new();
        for client in clients {
            outcomes.extend(client.join().expect("a client thread panicked"));
        }
        let arrivals = generator
            .map(|g| g.join().expect("the open-loop generator panicked"))
            .unwrap_or_default();
        (outcomes, arrivals, before, after, span)
    });
    let (stats_before, stats_after) = (stats_before?, stats_after?);

    let mut scored_outputs = HashMap::new();
    for outcome in outcomes
        .iter()
        .filter(|o| o.ok && o.index < workload.rouge_part)
    {
        scored_outputs.insert((Lane::Foreground, outcome.index), outcome.tokens.clone());
    }
    if let Some(session) = &mut session {
        // The background lane is harvested by `status` ops once the window is
        // over. FIFO admission finished the fixed part long before; the rest
        // of the ROUGE part is taken as far as it got.
        let asked: Vec<(usize, u64)> = arrivals
            .iter()
            .take(workload.rouge_part)
            .filter_map(|a| Some((a.index, a.job_id?)))
            .collect();
        let jobs: Vec<u64> = asked.iter().map(|&(_, job)| job).collect();
        let must_finish = asked
            .iter()
            .filter(|&&(index, _)| index < workload.fixed_part)
            .count();
        let deadline = Instant::now() + Duration::from_secs(10);
        let harvested = session
            .harvest(&jobs, must_finish, deadline)
            .map_err(|e| format!("harvesting the background lane: {e}"))?;
        for (&(index, _), tokens) in asked.iter().zip(harvested) {
            if let Some(tokens) = tokens {
                scored_outputs.insert((Lane::Background, index), tokens);
            }
        }
    }
    let mut fixed_outputs = HashMap::new();
    let mut fixed_missing = Vec::new();
    for &lane in workload.lanes() {
        for index in 0..workload.fixed_part {
            match scored_outputs.get(&(lane, index)) {
                Some(tokens) => {
                    fixed_outputs.insert((lane, index), tokens.clone());
                }
                None => fixed_missing.push((lane, index)),
            }
        }
    }
    Ok(SocketRun {
        window,
        outcomes,
        arrivals,
        stats_before,
        stats_after,
        stats_span,
        fixed_outputs,
        scored_outputs,
        fixed_missing,
        peak_rss_mib: server.peak_rss_mib().unwrap_or(0.0),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client-side latency samples of the measured window.
pub struct Latencies {
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    pub request_ms: Vec<f64>,
    /// Foreground requests completed inside the window, and their tokens.
    pub completed: usize,
    pub tokens: usize,
}

impl SocketRun {
    fn in_window(&self, outcome: &Outcome) -> bool {
        outcome.ok && outcome.done >= WARMUP && outcome.done <= WARMUP + self.window
    }

    pub fn latencies(&self) -> Latencies {
        let mut l = Latencies {
            ttft_ms: Vec::new(),
            itl_ms: Vec::new(),
            request_ms: Vec::new(),
            completed: 0,
            tokens: 0,
        };
        for outcome in self.outcomes.iter().filter(|o| self.in_window(o)) {
            l.completed += 1;
            l.tokens += outcome.tokens.len();
            l.request_ms.push(ms(outcome.done - outcome.sent));
            l.ttft_ms.extend(outcome.ttft.map(ms));
            l.itl_ms.extend(outcome.gaps.iter().copied().map(ms));
        }
        l
    }

    /// A lifetime counter's growth over the measured window (warm-up
    /// excluded).
    pub fn delta(&self, path: &[&str]) -> f64 {
        self.last(path) - stat(&self.stats_before, path).unwrap_or(0.0)
    }

    /// A gauge or high-water mark as of the window's end.
    pub fn last(&self, path: &[&str]) -> f64 {
        stat(&self.stats_after, path).unwrap_or(0.0)
    }

    /// `(requests, output tokens)` per second over all lanes. The foreground
    /// rate is taken between the first and the last completion inside the
    /// window — completions over elapsed time without the window's edge
    /// quantisation, which at one request a second would be whole percents.
    /// Background requests are fire-and-forget, so their rate comes from the
    /// server's own completion counter between the two stats reads.
    pub fn throughput(&self, workload: &Workload) -> Option<(f64, f64)> {
        let mut done: Vec<&Outcome> = self.outcomes.iter().filter(|o| self.in_window(o)).collect();
        done.sort_by_key(|o| o.done);
        let (first, last) = (done.first()?, done.last()?);
        let span = (last.done - first.done).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        let mut requests = (done.len() - 1) as f64 / span;
        let mut tokens = done[1..].iter().map(|o| o.tokens.len()).sum::<usize>() as f64 / span;
        if let Some(bg) = workload.background {
            let served = self.delta(&["jobs", "completed"])
                + self.delta(&["jobs", "cache_hits"])
                + self.delta(&["jobs", "coalesced"]);
            let background = (served - done.len() as f64).max(0.0) / self.stats_span.as_secs_f64();
            requests += background;
            tokens += background * bg.new_tokens as f64;
        }
        Some((requests, tokens))
    }

    pub fn sent(&self) -> usize {
        self.outcomes.len() + self.arrivals.len()
    }

    /// Requests that failed or were refused, plus fixed-part results that
    /// never materialised.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
            + self.arrivals.iter().filter(|a| a.job_id.is_none()).count()
            + self
                .fixed_missing
                .iter()
                .filter(|(lane, _)| *lane == Lane::Background)
                .count()
    }

    pub fn first_error(&self) -> Option<&str> {
        self.outcomes.iter().find_map(|o| o.error.as_deref())
    }

    /// The eight end-to-end metrics except `setup_s` and `rouge2_miss`.
    pub fn end_to_end(&self, workload: &Workload) -> Result<Vec<(&'static str, f64)>, String> {
        let l = self.latencies();
        let p50 = |name: &str, v: &[f64]| {
            median(v).ok_or_else(|| format!("no {name} samples inside the window"))
        };
        let (requests, tokens) = self
            .throughput(workload)
            .ok_or("fewer than two requests completed inside the window")?;
        Ok(vec![
            ("ttft_ms_p50", p50("ttft", &l.ttft_ms)?),
            ("itl_ms_p50", p50("itl", &l.itl_ms)?),
            ("request_ms_p50", p50("request", &l.request_ms)?),
            ("output_tokens_per_s", tokens),
            ("requests_per_s", requests),
            ("peak_rss_mb", self.peak_rss_mib),
        ])
    }

    /// Generator-health numbers: tails, lateness, request counts.
    pub fn loadgen(&self) -> Vec<(&'static str, Option<f64>)> {
        let l = self.latencies();
        // Open-loop requests are timed from when they were due, not from when
        // a late generator got round to sending them.
        let lateness: Vec<f64> = self.arrivals.iter().map(|a| ms(a.lateness())).collect();
        let acks: Vec<f64> = self
            .arrivals
            .iter()
            .map(|a| ms(a.latency_from_due()))
            .collect();
        vec![
            ("loadgen.ttft_ms_p95", percentile(&l.ttft_ms, 0.95)),
            ("loadgen.itl_ms_p95", percentile(&l.itl_ms, 0.95)),
            ("loadgen.request_ms_p95", percentile(&l.request_ms, 0.95)),
            ("loadgen.lateness_ms_p95", percentile(&lateness, 0.95)),
            ("loadgen.open_loop_ack_ms_p95", percentile(&acks, 0.95)),
            ("loadgen.requests_sent", Some(self.sent() as f64)),
            (
                "loadgen.requests_ok",
                Some((self.sent() - self.failed()) as f64),
            ),
            ("loadgen.requests_failed", Some(self.failed() as f64)),
        ]
    }
}
