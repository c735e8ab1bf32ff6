//! What the kernel says about this process and host: thread CPU time,
//! peak memory, CPU model, and the filesystem under a path.

use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU time of every thread of this process, nanoseconds
/// (`/proc/self/task/*/schedstat`, first field). Exact to the ns, unlike
/// the tick-granular `utime`.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// CPU time the hypervisor gave to other guests so far, seconds per CPU
/// of the machine (`steal` in `/proc/stat`, in USER_HZ ticks of 10 ms).
pub fn steal_s() -> f64 {
    let stat = read("/proc/stat");
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    stat.lines()
        .next()
        .and_then(|all| all.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0 / cpus.max(1) as f64)
}

/// Reset this process's peak resident set size to its current one
/// (`5` written to `/proc/self/clear_refs`).
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set size: {e}"))
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`, as `nproc` counts).
pub fn nproc() -> usize {
    let status = read("/proc/self/status");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let count: usize = list
        .split(',')
        .filter(|r| !r.is_empty())
        .map(|r| match r.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (a.parse().unwrap_or(0usize), b.parse().unwrap_or(0usize));
                b.saturating_sub(a) + 1
            }
            None => 1,
        })
        .sum();
    count.max(1)
}

/// `std::thread::available_parallelism` (affinity and cgroup quota).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// Kernel release.
pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = read("/proc/mounts");
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
