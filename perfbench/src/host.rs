//! Host and process accounting read from `/proc` (Linux). Every reader
//! returns `None` where the file or field is missing.

use std::path::Path;

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (VmHWM) of this process, in MB. A lifetime
/// high-water mark, which is why every workload runs in its own process.
pub fn peak_rss_mb() -> Option<f64> {
    proc_status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set (VmRSS), in MB.
pub fn rss_mb() -> Option<f64> {
    proc_status_kb("VmRSS:").map(|kb| kb as f64 / 1024.0)
}

/// User plus system CPU seconds of this process, all threads included
/// (fields 14 and 15 of `/proc/self/stat`, in 100 Hz clock ticks).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// What a result needs to say about where it was measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub cpus: usize,
    pub cpu_model: String,
    pub mem_total_mb: u64,
    pub commit: String,
}

impl HostInfo {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mem_total_mb = meminfo
            .lines()
            .find(|l| l.starts_with("MemTotal:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb / 1024);
        Self {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            mem_total_mb,
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
