//! The load generator: closed-loop streaming HTTP clients that timestamp
//! every token event, and the open-loop NDJSON arrival process of
//! `saturated_pool`. One thread per connection, never more than `nproc`.

use crate::workload::{GenRequest, Lane, RequestStream};
use kf_serve::client::{str_field, tokens_field, u64_field};
use serde::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits on a silent socket before the request counts as
/// failed. Far above any healthy latency, far below the run's time cap.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// What one foreground (streamed) request looked like from the client.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    /// Offsets from the run's epoch.
    pub sent: Duration,
    pub done: Duration,
    /// Request bytes written -> first token event.
    pub ttft: Option<Duration>,
    /// Gaps between consecutive token events.
    pub gaps: Vec<Duration>,
    pub tokens: Vec<u32>,
    /// `true` iff the stream ended with a `done` event.
    pub ok: bool,
    pub error: Option<String>,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    kf_serve::http::read_line(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
}

/// One `POST /v1/generate` with `"stream": true`: writes the request, decodes
/// the chunked NDJSON stream and timestamps each event as it is read.
pub fn stream_generate(addr: SocketAddr, request: &GenRequest, epoch: Instant) -> Outcome {
    let mut outcome = Outcome {
        index: request.index,
        sent: epoch.elapsed(),
        done: Duration::ZERO,
        ttft: None,
        gaps: Vec::with_capacity(request.max_new_tokens),
        tokens: Vec::with_capacity(request.max_new_tokens),
        ok: false,
        error: None,
    };
    if let Err(e) = drive_stream(addr, request, epoch, &mut outcome) {
        outcome.error = Some(e.to_string());
        outcome.ok = false;
    }
    outcome.done = epoch.elapsed();
    outcome
}

fn drive_stream(
    addr: SocketAddr,
    request: &GenRequest,
    epoch: Instant,
    outcome: &mut Outcome,
) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let bytes = http_request_bytes(request);
    outcome.sent = epoch.elapsed();
    let written = Instant::now();
    stream.write_all(&bytes)?;
    let mut reader = BufReader::new(stream);
    let status_line = read_line(&mut reader)?;
    if status_line.split_whitespace().nth(1) != Some("200") {
        return Err(invalid(format!("status line {status_line:?}")));
    }
    while !read_line(&mut reader)?.is_empty() {}
    let mut last_token: Option<Instant> = None;
    let mut chunk = Vec::new();
    loop {
        let size_line = read_line(&mut reader)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| invalid(format!("chunk size {size_line:?}")))?;
        if size == 0 {
            return Ok(());
        }
        chunk.resize(size + 2, 0);
        reader.read_exact(&mut chunk)?;
        let now = Instant::now();
        let text = std::str::from_utf8(&chunk[..size]).map_err(|e| invalid(e.to_string()))?;
        for line in text.lines().filter(|l| !l.is_empty()) {
            let event = serde_json::from_str::<Value>(line).map_err(|e| invalid(e.to_string()))?;
            match str_field(&event, "event") {
                Some("token") => {
                    match last_token {
                        None => outcome.ttft = Some(now - written),
                        Some(previous) => outcome.gaps.push(now - previous),
                    }
                    last_token = Some(now);
                    let token = u64_field(&event, "token")
                        .ok_or_else(|| invalid(format!("token event {line:?}")))?;
                    outcome.tokens.push(token as u32);
                }
                Some("done") => outcome.ok = true,
                Some("accepted") => {}
                Some(other) => {
                    return Err(invalid(format!(
                        "terminal `{other}`: {}",
                        str_field(&event, "message").unwrap_or("")
                    )))
                }
                None => return Err(invalid(format!("event line {line:?}"))),
            }
        }
    }
}

/// One closed-loop client: takes the next request of the shared stream only
/// after its previous one completed, until `stop` — and beyond it for as long
/// as the stream's first `fixed_part` requests have not all been taken, so a
/// slow machine still produces the outputs the correctness gate checks.
pub fn closed_loop_client(
    addr: SocketAddr,
    stream: &RequestStream,
    next: &AtomicUsize,
    fixed_part: usize,
    epoch: Instant,
    stop: Instant,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if Instant::now() >= stop && index >= fixed_part {
            return outcomes;
        }
        outcomes.push(stream_generate(addr, &stream.get(index), epoch));
    }
}

/// One background (open-loop) arrival as the generator saw it.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub index: usize,
    /// When the request was due, as an offset from the epoch.
    pub due: Duration,
    /// When its line was actually written.
    pub sent: Duration,
    /// When the server's admission answer was read.
    pub acked: Duration,
    /// The job id the server assigned; `None` when the request was refused.
    pub job_id: Option<u64>,
}

impl Arrival {
    /// How late the generator ran: an open loop that cannot keep its schedule
    /// under-reports the load it claims to offer.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Admission latency timed from the *due* time, so a stall that delays
    /// later sends is charged to the requests it delayed.
    pub fn latency_from_due(&self) -> Duration {
        self.acked.saturating_sub(self.due)
    }
}

/// A persistent NDJSON session whose answers can be collected without
/// blocking, so the open-loop generator never waits for the server.
pub struct NdjsonSession {
    stream: TcpStream,
    /// Bytes read that do not yet end in a newline.
    partial: Vec<u8>,
}

impl NdjsonSession {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(NdjsonSession {
            stream,
            partial: Vec::new(),
        })
    }

    /// Writes one op line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// Moves every complete answer line read so far into `lines`. With
    /// `block`, first waits until at least one byte arrives.
    fn collect(&mut self, block: bool, lines: &mut Vec<String>) -> io::Result<()> {
        let mut buffer = [0u8; 4096];
        let mut wait = block;
        let outcome = loop {
            self.stream.set_nonblocking(!wait)?;
            match self.stream.read(&mut buffer) {
                Ok(0) => break Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.partial.extend_from_slice(&buffer[..n]);
                    // Whatever else is already there is taken without waiting.
                    wait = false;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && !wait => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        while let Some(at) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=at).collect();
            lines.push(String::from_utf8_lossy(&line).trim().to_string());
        }
        outcome
    }

    /// Answer lines that have already arrived; never waits.
    pub fn poll(&mut self, lines: &mut Vec<String>) -> io::Result<()> {
        self.collect(false, lines)
    }

    /// Waits until `count` answer lines are in `lines`.
    pub fn wait_for(&mut self, count: usize, lines: &mut Vec<String>) -> io::Result<()> {
        while lines.len() < count {
            self.collect(true, lines)?;
        }
        Ok(())
    }

    /// States of `jobs`, asked in one pipelined batch per round (a
    /// request/answer ping-pong would pay the peer's delayed ACK every time):
    /// the tokens of every job found `done`. Rounds repeat until `deadline`
    /// while any of the first `must_finish` jobs is still queued or running;
    /// later jobs are taken as found.
    pub fn harvest(
        &mut self,
        jobs: &[u64],
        must_finish: usize,
        deadline: Instant,
    ) -> io::Result<Vec<Option<Vec<u32>>>> {
        let mut results: Vec<Option<Vec<u32>>> = vec![None; jobs.len()];
        let mut open: Vec<usize> = (0..jobs.len()).collect();
        while !open.is_empty() {
            for &i in &open {
                self.send(&format!("{{\"op\":\"status\",\"job_id\":{}}}", jobs[i]))?;
            }
            let mut lines = Vec::new();
            self.wait_for(open.len(), &mut lines)?;
            let mut still_running = Vec::new();
            for (&i, line) in open.iter().zip(&lines) {
                let status =
                    serde_json::from_str::<Value>(line).map_err(|e| invalid(e.to_string()))?;
                match str_field(&status, "state") {
                    Some("done") => results[i] = tokens_field(&status, "tokens"),
                    Some("queued" | "running") if i < must_finish && Instant::now() < deadline => {
                        still_running.push(i);
                    }
                    _ => {}
                }
            }
            open = still_running;
            if !open.is_empty() {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        Ok(results)
    }
}

/// The open-loop generator: sends request `i` of `stream` at `schedule[i]`
/// whatever the server is doing, over one persistent NDJSON session, and
/// collects the admission answers as they arrive (polled about every
/// millisecond, which is their timing resolution).
pub fn open_loop_client(
    session: &mut NdjsonSession,
    stream: &RequestStream,
    schedule: &[Duration],
    epoch: Instant,
) -> Vec<Arrival> {
    debug_assert_eq!(stream.lane(), Lane::Background);
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(schedule.len());
    let mut answers = Vec::new();
    // Answers come back in request order: the n-th line answers the n-th send.
    let mut answered = 0;
    let mut book = |arrivals: &mut Vec<Arrival>, answers: &mut Vec<String>| {
        let now = epoch.elapsed();
        for line in answers.drain(..) {
            if let Some(arrival) = arrivals.get_mut(answered) {
                arrival.acked = now;
                arrival.job_id = serde_json::from_str::<Value>(&line)
                    .ok()
                    .and_then(|answer| u64_field(&answer, "job_id"));
            }
            answered += 1;
        }
        answered
    };
    for (index, &due) in schedule.iter().enumerate() {
        let request = stream.get(index);
        while let Some(wait) = (epoch + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait.min(Duration::from_millis(1)));
            if session.poll(&mut answers).is_ok() {
                book(&mut arrivals, &mut answers);
            }
        }
        let sent = epoch.elapsed();
        let delivered = session.send(&request.body).is_ok();
        arrivals.push(Arrival {
            index,
            due,
            sent,
            acked: sent,
            job_id: None,
        });
        if !delivered {
            break;
        }
    }
    // Answers still in flight when the schedule ends.
    let outstanding = arrivals.len() - book(&mut arrivals, &mut answers);
    if session.wait_for(outstanding, &mut answers).is_ok() {
        book(&mut arrivals, &mut answers);
    }
    arrivals
}

/// The bytes a client writes for `request`: HTTP framing plus the JSON body
/// (also what the wire-parse probe and the in-process replay parse).
pub fn http_request_bytes(request: &GenRequest) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(request.body.len() + 128);
    let _ = write!(
        bytes,
        "POST /v1/generate HTTP/1.1\r\nhost: kf-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
        request.body.len(),
        request.body
    );
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(due_ms: u64, sent_ms: u64, acked_ms: u64) -> Arrival {
        Arrival {
            index: 0,
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(sent_ms),
            acked: Duration::from_millis(acked_ms),
            job_id: Some(1),
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time_not_the_send_time() {
        // Due at 100 ms, sent 30 ms late, answered 5 ms after the send: the
        // request waited 35 ms, and the generator was 30 ms late.
        let a = arrival(100, 130, 135);
        assert_eq!(a.lateness(), Duration::from_millis(30));
        assert_eq!(a.latency_from_due(), Duration::from_millis(35));
    }

    #[test]
    fn an_on_time_generator_has_zero_lateness() {
        let a = arrival(100, 100, 104);
        assert_eq!(a.lateness(), Duration::ZERO);
        assert_eq!(a.latency_from_due(), Duration::from_millis(4));
        // A send that beat its due time (clock skew) never goes negative.
        assert_eq!(arrival(100, 99, 101).lateness(), Duration::ZERO);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delayed() {
        // The generator stalls at 200 ms for 50 ms; the three requests due
        // inside the stall go out back to back afterwards.
        let delayed: Vec<Arrival> = [(200, 250, 251), (210, 251, 252), (240, 252, 253)]
            .iter()
            .map(|&(d, s, a)| arrival(d, s, a))
            .collect();
        let lateness: Vec<u64> = delayed
            .iter()
            .map(|a| a.lateness().as_millis() as u64)
            .collect();
        let latency: Vec<u64> = delayed
            .iter()
            .map(|a| a.latency_from_due().as_millis() as u64)
            .collect();
        assert_eq!(lateness, vec![50, 41, 12]);
        assert_eq!(latency, vec![51, 42, 13]);
    }
}
