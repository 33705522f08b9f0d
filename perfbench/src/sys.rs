//! Process-level readings: CPU time, peak resident set, host and commit.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// fixed at 100 by the Linux ABI on x86-64 and arm64).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name start at `state`; utime
    // and stime are the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) as f64 / USER_HZ,
        _ => f64::NAN,
    }
}

/// Host-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran something else while a virtual CPU of this
    /// machine wanted to run (`steal`).
    pub steal: u64,
    /// Ticks of every state, idle and steal included, over all CPUs.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros where `/proc/stat` is unavailable).
    pub fn read() -> Self {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of the CPU time since `earlier` that was stolen.
    pub fn steal_share_since(self, earlier: Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().into();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_suffix(reference))
        .map_or_else(|| "unknown".into(), |hash| hash.trim().into())
}
