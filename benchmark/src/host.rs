//! What the host tells us: process CPU time, peak memory, load, and the
//! fingerprint printed with every result.

use std::process::Command;

/// CPU time consumed by every live thread of this process, in nanoseconds.
///
/// Summed from `/proc/self/task/*/schedstat` (nanosecond resolution; the
/// process-level file covers the main thread only). A thread that exits
/// takes its time with it, so callers take deltas over spans in which no
/// thread ends — the engine's workers live from set-up to the end of the
/// run. Falls back to `utime + stime` from `/proc/self/stat` in clock
/// ticks (assumed 100 Hz), and to 0 where `/proc` is missing.
pub fn process_cpu_ns() -> u64 {
    let from_schedstat = std::fs::read_dir("/proc/self/task").ok().map(|tasks| {
        tasks
            .filter_map(Result::ok)
            .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
            .filter_map(|text| text.split_whitespace().next()?.parse::<u64>().ok())
            .sum::<u64>()
    });
    match from_schedstat {
        Some(total_ns) if total_ns > 0 => total_ns,
        _ => stat_ticks().map_or(0, |ticks| ticks * 10_000_000),
    }
}

/// `utime + stime` of the process in clock ticks.
fn stat_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its `)`.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in MB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The three load averages, as the kernel prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").map_or_else(
        |_| "unknown".to_string(),
        |text| {
            text.split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ")
        },
    )
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
pub fn git_head() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// Parses a kernel CPU list such as `0-1,4` into CPU numbers.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (first, last) = part.split_once('-').unwrap_or((part, part));
            Some(first.trim().parse::<usize>().ok()?..=last.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The CPUs the calling thread may run on (`Cpus_allowed_list`), ascending;
/// empty where `/proc` does not say.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?;
            Some(parse_cpu_list(line.split_once(':')?.1))
        })
        .unwrap_or_default()
}

/// The kernel's list of online CPUs, in the form `taskset -c` takes.
pub fn online_cpu_list() -> Option<String> {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .map(|list| list.trim().to_string())
}

/// Every thread of this process.
pub fn thread_ids() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(Result::ok)
                .filter_map(|task| task.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Restricts thread `tid` to `cpu_list` with util-linux `taskset` — the
/// standard library has no call for it. `false` when the tool is missing
/// or the kernel refuses.
pub fn set_affinity(tid: u32, cpu_list: &str) -> bool {
    Command::new("taskset")
        .args(["-pc", cpu_list, &tid.to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4, 7"), [0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }
}
