//! Shared pieces of the three workloads: run options, the outcome each
//! workload hands back, order statistics and the simulation digest.

use simkernel::{obs, MetricSet};
use std::collections::BTreeMap;
use std::time::Duration;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// `true` for the traced (`SAS_OBS` on) per-layer run.
    pub trace: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and standalone output checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed a check.
    pub failed: u64,
    /// Metric name → value (names must be in `BENCHMARK.json`).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one attempted operation or check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Worker count of the closed and open loops: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (NaN for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    obs::read_peak_rss().map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// Appends every metric of `m` (name, then the exact bit pattern of
/// its value) to a `sim_digest` input buffer.
pub fn digest_metrics(buf: &mut Vec<u8>, m: &MetricSet) {
    for (name, value) in m.iter() {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

/// Runs `f` `n` times and appends each wall time, in seconds, to
/// `samples`: the set-up measurement of every workload.
pub fn time_reps(samples: &mut Vec<f64>, n: usize, mut f: impl FnMut()) {
    for _ in 0..n {
        let t = std::time::Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
}
