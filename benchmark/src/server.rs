//! The system under test: building the release `kf_serve` binary from the
//! checkout, booting it on a loopback port, and reading what it reports about
//! itself (`GET /v1/stats`, `/proc/<pid>/status`).

use kf_serve::client::Client;
use serde::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark directory has a parent")
        .to_path_buf()
}

/// Builds the release `kf_serve` binary in the root workspace (a no-op when it
/// is fresh) and returns its path. Honours `CARGO_TARGET_DIR`.
pub fn build_kf_serve() -> Result<PathBuf, String> {
    let root = repo_root();
    let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("reading the working directory: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "kf-serve",
            "--bin",
            "kf_serve",
        ])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building kf_serve failed: {status}"));
    }
    let binary = target_dir.join("release").join("kf_serve");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not produced", binary.display()))
    }
}

/// A running `kf_serve` child process; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn of the process to the first `200` from `GET /v1/stats`.
    pub setup: Duration,
}

impl Server {
    /// Boots the server on an OS-picked loopback port and waits until it
    /// answers `GET /v1/stats`.
    pub fn spawn(binary: &Path, flags: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        // "kf_serve listening on 127.0.0.1:PORT (family ...".
        let addr = banner
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let (Ok(_), Some(addr)) = (read, addr) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("kf_serve did not announce an address: {banner:?}"));
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr,
            setup: Duration::ZERO,
        };
        match Client::new(addr).stats() {
            Ok((200, _)) => {
                server.setup = started.elapsed();
                Ok(server)
            }
            other => Err(format!("GET /v1/stats after boot: {other:?}")),
        }
    }

    /// `GET /v1/stats`, parsed.
    pub fn stats(&self) -> Result<Value, String> {
        match Client::new(self.addr).stats() {
            Ok((200, value)) => Ok(value),
            other => Err(format!("GET /v1/stats: {other:?}")),
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads a number at `path` inside a stats document (`None` when absent or
/// not numeric, e.g. the registry block with prefix sharing off).
pub fn stat(stats: &Value, path: &[&str]) -> Option<f64> {
    let mut at = stats;
    for key in path {
        at = at.field(key).ok()?;
    }
    match at {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}
