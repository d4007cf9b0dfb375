//! A minimal HTTP/1.1 wire layer over `std` I/O — just enough protocol for
//! the four `kf_serve` surfaces, with no network crates involved.
//!
//! Requests: request line + headers + an optional `Content-Length` body.
//! Responses: `Content-Length` bodies for unary answers, `chunked`
//! transfer-encoding for streaming ones. Connections are `Connection: close`
//! — one HTTP exchange per connection keeps the connection threads trivially
//! stateless (the NDJSON fallback is the persistent-session protocol).
//!
//! Anything that is not a well-formed request is answered with a 4xx and the
//! connection is dropped; a malformed peer can never wedge a thread for
//! longer than the read timeout the listener sets.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on a request body and on any single line read from the wire
/// (tokens are u32s, so even a maximal prompt is far below this; an NDJSON
/// line carries a whole prompt, so lines get no smaller cap); protects the
/// server from unbounded allocation.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// A parsed HTTP request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased by the client (`GET`, `POST`, `DELETE`...).
    pub method: String,
    /// Request target path (query strings are not used by this API).
    pub path: String,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Reads one line (through `\n`) from `r`, stripping the trailing `\r\n` /
/// `\n`. Returns `None` at a clean EOF before any byte.
///
/// # Errors
///
/// Besides I/O errors, returns [`io::ErrorKind::InvalidData`] for a line that
/// is not UTF-8 or that runs past [`MAX_BODY_BYTES`] (terminator included)
/// without a `\n` — at most that many bytes are ever buffered, so a peer that
/// never sends a newline cannot grow the line without limit.
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = r
        .by_ref()
        .take(MAX_BODY_BYTES as u64)
        .read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n == MAX_BODY_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds the {MAX_BODY_BYTES}-byte limit"),
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Parses the rest of an HTTP request whose request line (`first_line`) has
/// already been read: headers through the blank line, then a
/// `Content-Length` body if one was announced.
///
/// # Errors
///
/// Returns a human-readable error string for a malformed request line,
/// header section, or oversized/truncated body; callers answer it with a 400.
pub fn parse_http(first_line: &str, r: &mut impl BufRead) -> Result<HttpRequest, String> {
    let mut parts = first_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("malformed request line: {first_line:?}"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version: {version}"));
    }
    let mut content_length = 0usize;
    loop {
        let line = read_line(r)
            .map_err(|e| format!("reading headers: {e}"))?
            .ok_or("connection closed inside the header section")?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line: {line:?}"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("unparsable content-length: {value:?}"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)
        .map_err(|e| format!("reading {content_length}-byte body: {e}"))?;
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// The reason phrase for the handful of statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        507 => "Insufficient Storage",
        _ => "Response",
    }
}

/// Writes a complete unary JSON response as one buffer in one `write_all`.
/// Pieces written separately would leave as separate TCP segments, and with
/// Nagle's algorithm a small trailing segment waits for the peer's delayed
/// ACK.
pub fn write_response(w: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        status_reason(status),
        body.len(),
    );
    w.write_all(response.as_bytes())?;
    w.flush()
}

/// Starts a chunked streaming response (headers only, one `write_all`;
/// follow with [`write_chunk`] calls and a [`finish_chunked`]).
pub fn start_chunked(w: &mut impl Write, status: u16) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        status_reason(status),
    );
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes one chunk of a chunked response — size line, data and trailer in
/// one `write_all` — so every streamed token is on the wire the moment the
/// pump surfaces it.
pub fn write_chunk(w: &mut impl Write, data: &str) -> io::Result<()> {
    w.write_all(format!("{:x}\r\n{data}\r\n", data.len()).as_bytes())?;
    w.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Writes one NDJSON line — `line` and its `\n` in one `write_all`.
pub fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    w.write_all(buf.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, String> {
        let mut r = BufReader::new(raw.as_bytes());
        let first = read_line(&mut r).unwrap().unwrap();
        parse_http(&first, &mut r)
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse(
            "POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"a\":[1,2]}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/generate");
        assert_eq!(req.body, b"{\"a\":[1,2]}");
    }

    #[test]
    fn parses_bodyless_get_and_bare_lf() {
        let req = parse("GET /v1/stats HTTP/1.1\nhost: x\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\ncontent-length: zap\r\n\r\n").is_err());
        // Announced body longer than what arrives.
        assert!(parse("POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab").is_err());
        let oversized = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 5 << 20);
        assert!(parse(&oversized).is_err());
    }

    #[test]
    fn over_long_lines_are_rejected_with_bounded_buffering() {
        // A peer that never sends `\n`: the read stops at the cap and errors,
        // leaving the bytes past the cap unread.
        let mut endless = BufReader::new(io::repeat(b'a').take(MAX_BODY_BYTES as u64 + 2));
        let err = read_line(&mut endless).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut rest = Vec::new();
        endless.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len(), 2, "nothing past the cap was buffered");
        // A line of exactly the cap (terminator included) still parses.
        let mut at_cap = vec![b'a'; MAX_BODY_BYTES - 1];
        at_cap.push(b'\n');
        let line = read_line(&mut at_cap.as_slice()).unwrap().unwrap();
        assert_eq!(line.len(), MAX_BODY_BYTES - 1);
    }

    /// Records each `write` call: on a raw socket each would leave as a TCP
    /// segment of its own.
    #[derive(Default)]
    struct Segments(Vec<Vec<u8>>);

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_piece_is_one_write() {
        let mut out = Segments::default();
        write_response(&mut out, 200, "{\"a\":1}").unwrap();
        start_chunked(&mut out, 200).unwrap();
        write_chunk(&mut out, "{\"event\":\"token\"}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        write_line(&mut out, "{\"jobs\":{}}").unwrap();
        assert_eq!(out.0.len(), 5, "one segment per piece");
        assert!(out.0[0].ends_with(b"\r\n\r\n{\"a\":1}"));
        assert_eq!(out.0[2], b"12\r\n{\"event\":\"token\"}\n\r\n");
        assert_eq!(out.0[4], b"{\"jobs\":{}}\n");
    }

    #[test]
    fn chunked_stream_round_trips() {
        let mut out = Vec::new();
        start_chunked(&mut out, 200).unwrap();
        write_chunk(&mut out, "{\"event\":\"token\"}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("12\r\n{\"event\":\"token\"}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
