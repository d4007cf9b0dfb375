//! A blocking reference client for the `kf_serve` wire protocol, used by the
//! loopback integration tests and the `kf_bench` load generator. It speaks
//! both wire formats: one-shot HTTP/1.1 exchanges (with chunked-stream
//! decoding for `stream=true` generates) and the line-delimited-JSON fallback
//! session.

use serde::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Reads `key` from a JSON map as a `u64`, if present.
pub fn u64_field(value: &Value, key: &str) -> Option<u64> {
    value.field(key).ok().and_then(crate::api::as_u64)
}

/// Reads `key` from a JSON map as a string slice, if present.
pub fn str_field<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    match value.field(key).ok()? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Reads `key` from a JSON map as a token vector, if present.
pub fn tokens_field(value: &Value, key: &str) -> Option<Vec<u32>> {
    let Value::Seq(items) = value.field(key).ok()? else {
        return None;
    };
    items
        .iter()
        .map(|v| match v {
            Value::UInt(n) if *n <= u64::from(u32::MAX) => Some(*n as u32),
            _ => None,
        })
        .collect()
}

/// The outcome of one streamed generate call.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The job id announced by the `accepted` preamble event.
    pub job_id: Option<u64>,
    /// Every streamed token, in order.
    pub tokens: Vec<u32>,
    /// The terminal event name: `done`, `error`, `cancelled`, or `eof` when
    /// the stream ended without one.
    pub terminal: String,
    /// Whether the result came from the cache or a coalesced twin.
    pub deduplicated: bool,
    /// Error code and message, for `error` terminals.
    pub error: Option<(String, String)>,
    /// Wall-clock time from request write to the first token event.
    pub ttft: Option<Duration>,
}

/// A blocking client bound to one server address; every call opens a fresh
/// connection (the server is `Connection: close`).
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(stream)
    }

    fn send_request(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<()> {
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: kf-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len(),
        )?;
        stream.flush()
    }

    /// Reads a response head, returning the status code and the announced
    /// content length (`None` for chunked bodies).
    fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Option<usize>, bool)> {
        let status_line = crate::http::read_line(reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no status line"))?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparsable status line: {status_line:?}"),
                )
            })?;
        let mut content_length = None;
        let mut chunked = false;
        loop {
            let line = crate::http::read_line(reader)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "inside headers"))?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                if name == "content-length" {
                    content_length = value.trim().parse::<usize>().ok();
                } else if name == "transfer-encoding" && value.trim() == "chunked" {
                    chunked = true;
                }
            }
        }
        Ok((status, content_length, chunked))
    }

    /// One unary HTTP exchange; returns the status and the parsed JSON body.
    fn exchange(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<(u16, Value)> {
        let mut stream = self.connect()?;
        Self::send_request(&mut stream, method, path, body)?;
        let mut reader = BufReader::new(stream);
        let (status, content_length, _) = Self::read_head(&mut reader)?;
        let raw = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                buf
            }
            None => {
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                buf
            }
        };
        let text = String::from_utf8(raw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let value = if text.is_empty() {
            Value::Null
        } else {
            serde_json::from_str::<Value>(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        };
        Ok((status, value))
    }

    /// `POST /v1/generate` without streaming.
    pub fn generate(&self, body: &str) -> io::Result<(u16, Value)> {
        self.exchange("POST", "/v1/generate", Some(body))
    }

    /// `GET /v1/jobs/{id}`.
    pub fn job(&self, id: u64) -> io::Result<(u16, Value)> {
        self.exchange("GET", &format!("/v1/jobs/{id}"), None)
    }

    /// `DELETE /v1/jobs/{id}`.
    pub fn cancel(&self, id: u64) -> io::Result<(u16, Value)> {
        self.exchange("DELETE", &format!("/v1/jobs/{id}"), None)
    }

    /// `GET /v1/stats`.
    pub fn stats(&self) -> io::Result<(u16, Value)> {
        self.exchange("GET", "/v1/stats", None)
    }

    /// `POST /v1/generate` with `"stream": true` in `body`: decodes the
    /// chunked NDJSON event stream and accumulates tokens, timing the first.
    pub fn generate_stream(&self, body: &str) -> io::Result<StreamOutcome> {
        let mut stream = self.connect()?;
        let sent_at = Instant::now();
        Self::send_request(&mut stream, "POST", "/v1/generate", Some(body))?;
        let mut reader = BufReader::new(stream);
        let (status, _, chunked) = Self::read_head(&mut reader)?;
        if !chunked {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a chunked stream, got status {status} without one"),
            ));
        }
        let mut outcome = StreamOutcome {
            job_id: None,
            tokens: Vec::new(),
            terminal: "eof".to_string(),
            deduplicated: false,
            error: None,
            ttft: None,
        };
        let mut pending = String::new();
        loop {
            let size_line = crate::http::read_line(&mut reader)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "inside chunks"))?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparsable chunk size: {size_line:?}"),
                )
            })?;
            if size == 0 {
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            pending.push_str(
                std::str::from_utf8(&chunk)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            );
            while let Some(at) = pending.find('\n') {
                let line: String = pending.drain(..=at).collect();
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let event = serde_json::from_str::<Value>(line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                apply_event(&mut outcome, &event, sent_at);
            }
        }
        Ok(outcome)
    }

    /// One line-delimited-JSON fallback session: writes every request line,
    /// half-closes, and returns each response line parsed. Streaming ops
    /// yield several lines, so responses are not one-to-one with requests.
    pub fn ndjson_session(&self, requests: &[String]) -> io::Result<Vec<Value>> {
        let stream = self.connect()?;
        let mut writer = stream.try_clone()?;
        for line in requests {
            writeln!(writer, "{line}")?;
        }
        writer.flush()?;
        writer.shutdown(std::net::Shutdown::Write)?;
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        while let Some(line) = crate::http::read_line(&mut reader)? {
            if line.trim().is_empty() {
                continue;
            }
            responses.push(
                serde_json::from_str::<Value>(line.trim())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            );
        }
        Ok(responses)
    }
}

fn apply_event(outcome: &mut StreamOutcome, event: &Value, sent_at: Instant) {
    match str_field(event, "event") {
        Some("accepted") => {
            outcome.job_id = u64_field(event, "job_id");
            if let Ok(Value::Bool(d)) = event.field("deduplicated") {
                outcome.deduplicated = *d;
            }
        }
        Some("token") => {
            if outcome.ttft.is_none() {
                outcome.ttft = Some(sent_at.elapsed());
            }
            if let Some(token) = u64_field(event, "token") {
                outcome.tokens.push(token as u32);
            }
        }
        Some("done") => {
            outcome.terminal = "done".to_string();
            if let Ok(Value::Bool(d)) = event.field("deduplicated") {
                outcome.deduplicated = *d;
            }
        }
        Some("error") => {
            outcome.terminal = "error".to_string();
            outcome.error = Some((
                str_field(event, "error").unwrap_or("internal").to_string(),
                str_field(event, "message").unwrap_or("").to_string(),
            ));
        }
        Some("cancelled") => outcome.terminal = "cancelled".to_string(),
        _ => {}
    }
}
