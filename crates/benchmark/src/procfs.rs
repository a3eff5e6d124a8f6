//! CPU time and peak memory of this process and its children, from
//! `/proc` (the benchmark is Linux-only, like the fleet's Unix sockets).

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces and parentheses).
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// utime + stime of `pid` in µs; `None` when the process is gone.
fn cpu_us(pid: u32) -> Option<f64> {
    let fields = stat_fields(pid)?;
    // After the command: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime …
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S * 1e6)
}

/// Parent pid of this process (the shard worker's orphan watchdog).
pub fn parent_pid() -> Option<u32> {
    stat_fields(std::process::id())?.get(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU µs consumed so far by this process plus `children`.
pub fn total_cpu_us(children: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .filter_map(cpu_us)
        .sum()
}

/// Peak resident MiB of this process plus `children`.
pub fn total_peak_rss_mb(children: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(children.iter().copied())
        .filter_map(peak_rss_mb)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(total_peak_rss_mb(&[]) > 0.0);
        assert!(total_cpu_us(&[]) >= 0.0);
        assert!(parent_pid().is_some());
        // A pid that cannot exist contributes nothing.
        assert!(cpu_us(u32::MAX).is_none() && peak_rss_mb(u32::MAX).is_none());
    }
}
