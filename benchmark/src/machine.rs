//! Machine fingerprint and noise discipline: what ran the numbers, and was
//! the box already busy when the run started.

use std::process::Command;
use std::time::Duration;

/// Share of CPU time that may already be busy at start before a run is
/// marked suspect (a quarter of the box on two cores is half a core).
const BUSY_SHARE_LIMIT: f64 = 0.25;
/// Share of the time this process asked for a CPU that the hypervisor may
/// give to another guest before a run is marked suspect.
const STEAL_SHARE_LIMIT: f64 = 0.05;

/// Static description of the machine and toolchain a run used.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Machine {
    pub fn probe(repo_root: &std::path::Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: command_line("rustc", &["-V"], repo_root),
            // The driver's checkout is not a git repository; "unknown" then.
            commit: command_line("git", &["rev-parse", "HEAD"], repo_root),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc {} | {} | {} | commit {}",
            self.nproc, self.cpu_model, self.rustc, self.commit
        )
    }
}

fn command_line(program: &str, args: &[&str], cwd: &std::path::Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One-minute load average, as `/proc/loadavg` reports it.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// `(busy, steal, total)` jiffies summed over all CPUs from `/proc/stat`;
/// `busy` excludes `steal`.
fn cpu_jiffies() -> Option<(u64, u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let total: u64 = fields.iter().sum();
    // user nice system idle iowait irq softirq steal ...
    let idle = fields.get(3)? + fields.get(4).copied().unwrap_or(0);
    let steal = fields.get(7).copied().unwrap_or(0);
    Some((total - idle - steal, steal, total))
}

/// How quiet the machine was just before a run, probed before the run starts
/// any work of its own.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// One-minute load average.
    pub load: f64,
    /// Share of all CPU time other processes used over an idle 250 ms.
    pub busy_share: f64,
    /// Share of the CPU time `nproc` spinning threads asked for over 300 ms
    /// that the hypervisor gave to another guest instead.
    pub steal_share: f64,
}

impl Noise {
    pub fn probe(nproc: usize) -> Noise {
        let load = load_average();
        let before = cpu_jiffies();
        std::thread::sleep(Duration::from_millis(250));
        let idle = cpu_jiffies();
        // Steal only accrues while a guest wants to run, so ask for every core.
        std::thread::scope(|scope| {
            for _ in 0..nproc {
                scope.spawn(|| {
                    let until = std::time::Instant::now() + Duration::from_millis(300);
                    while std::time::Instant::now() < until {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        let spun = cpu_jiffies();
        let share = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let (busy_share, steal_share) = match (before, idle, spun) {
            (Some(a), Some(b), Some(c)) => (
                share(b.0 - a.0, b.2 - a.2),
                share(c.1 - b.1, (c.0 - b.0) + (c.1 - b.1)),
            ),
            _ => (0.0, 0.0),
        };
        Noise {
            load,
            busy_share,
            steal_share,
        }
    }

    /// The machine was busy, or being robbed of CPU time, when probed.
    pub fn suspect(&self) -> bool {
        self.busy_share > BUSY_SHARE_LIMIT || self.steal_share > STEAL_SHARE_LIMIT
    }

    pub fn describe(&self) -> String {
        format!(
            "load {:.2}, busy share {:.2}, steal share {:.2} at start",
            self.load, self.busy_share, self.steal_share
        )
    }
}
