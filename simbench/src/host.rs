//! Host readings from `/proc`: the noise header printed with every run,
//! peak resident memory, and the benchmark thread's CPU time.
//!
//! The header is informational only: no reading here is used to drop,
//! retry or rescale a run. Readings a host does not offer come back as 0
//! or `unknown`.

use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The value of `key:` in a `/proc/*/status` style file, first token.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// CPU time this thread has run, in nanoseconds (`schedstat`).
fn thread_cpu_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn involuntary_switches() -> u64 {
    status_field(
        &read("/proc/thread-self/status"),
        "nonvoluntary_ctxt_switches",
    )
    .unwrap_or(0)
}

/// Counters sampled at the start of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    wall: Instant,
    cpu_ns: u64,
    steal: u64,
    nvcsw: u64,
}

impl Probe {
    /// Samples the counters now.
    pub fn start() -> Self {
        Probe {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
            steal: steal_ticks(),
            nvcsw: involuntary_switches(),
        }
    }

    /// The noise header line for the phase since [`Probe::start`].
    pub fn header(&self) -> String {
        let wall = self.wall.elapsed().as_nanos().max(1) as f64;
        let cpu = thread_cpu_ns().saturating_sub(self.cpu_ns) as f64;
        format!(
            "# noise: steal_ticks={} involuntary_ctx_switches={} thread_cpu/wall={:.4}",
            steal_ticks().saturating_sub(self.steal),
            involuntary_switches().saturating_sub(self.nvcsw),
            cpu / wall,
        )
    }
}

/// The static part of the noise header: cores, CPU model and kernel.
pub fn machine_header() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_owned();
    let kernel = read("/proc/sys/kernel/osrelease");
    let kernel = if kernel.trim().is_empty() {
        "unknown"
    } else {
        kernel.trim()
    };
    format!("# host: nproc={nproc} cpu=\"{model}\" kernel={kernel}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some(2048));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(text, "Missing"), None);
    }
}
