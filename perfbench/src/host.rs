//! What the numbers ran on: a host fingerprint, a memory-bandwidth drift
//! probe and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;
use upaq_json::{json, Value};

/// Host and build facts printed with every run and written into the trace.
pub struct Fingerprint {
    /// Online CPUs listed in `/proc/cpuinfo` (what `nproc` counts without
    /// an affinity mask).
    pub nproc: usize,
    /// `std::thread::available_parallelism`, which honours cgroup quotas.
    pub available_parallelism: usize,
    /// Tensor worker threads the workload actually set.
    pub tensor_threads: usize,
    /// Engine workers the workload actually ran.
    pub engine_workers: usize,
    pub rustc: &'static str,
    pub commit: &'static str,
}

impl Fingerprint {
    pub fn take(tensor_threads: usize, engine_workers: usize) -> Self {
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        Fingerprint {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            tensor_threads,
            engine_workers,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: env!("PERFBENCH_COMMIT"),
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "nproc": self.nproc,
            "available_parallelism": self.available_parallelism,
            "tensor_threads": self.tensor_threads,
            "engine_workers": self.engine_workers,
            "rustc": self.rustc,
            "commit": self.commit,
        })
    }
}

/// Bytes the drift probe streams per pass: 64 MiB, well past any cache.
const PROBE_WORDS: usize = 8 << 20;
const PROBE_PASSES: usize = 5;

/// Median read bandwidth of a benchmark-owned streaming loop, GB/s.
///
/// A diagnostic of host drift (memory contention from neighbours moves
/// kernel times while a compute-only loop holds steady). It is reported
/// next to the results and never used to rescale or drop a run.
pub fn drift_probe_gbps() -> f64 {
    let buf: Vec<u64> = (0..PROBE_WORDS as u64).collect();
    let mut rates: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let t = Instant::now();
            let sum = black_box(&buf)
                .iter()
                .fold(0u64, |acc, &w| acc.wrapping_add(w));
            black_box(sum);
            (PROBE_WORDS * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&mut rates)
}

/// Restarts the peak-resident-set count from the current resident set, so
/// `peak_rss_mb` covers the measured run and not set-up or the drift
/// probe's buffer. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of a non-empty sample (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}
