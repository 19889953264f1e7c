//! # hus-perfbench — the repository's end-to-end benchmark
//!
//! Three seeded workloads drive HUS-Graph through its public API, check
//! every answer, and report end-to-end metrics (untraced runs) or a
//! per-layer breakdown (traced runs). See `README.md` in this directory
//! for why each workload exists and which layer metric should move
//! which end-to-end metric.

pub mod batch;
pub mod probes;
pub mod report;
pub mod serving;
pub mod sys;
pub mod trace;

use std::path::{Path, PathBuf};

pub use report::{Metrics, Report, END_TO_END, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated 5-iteration PageRank: every block streamed and decoded.
    PagerankStream,
    /// BFS from seeded sources: the frontier crosses the ROP/COP line.
    BfsFrontier,
    /// Open-loop lookups against a daemon while a writer ingests.
    ServeIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PagerankStream, Workload::BfsFrontier, Workload::ServeIngest];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PagerankStream => "pagerank_stream",
            Workload::BfsFrontier => "bfs_frontier",
            Workload::ServeIngest => "serve_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the measured size, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark reports on.
    Full,
    /// A few thousand edges, for the self-tests.
    Tiny,
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Directory under which the run makes (and removes) its scratch.
    pub work_root: PathBuf,
    /// Self-test hook: corrupt one truth value before the answers are
    /// checked, so the check must fail.
    pub plant_wrong_truth: bool,
}

/// Why a run did not produce a result.
#[derive(Debug)]
pub enum BenchError {
    /// The program returned a wrong answer.
    Mismatch(String),
    /// Anything else: I/O, a daemon that would not start, bad input.
    Failed(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Mismatch(m) => write!(f, "answer mismatch: {m}"),
            BenchError::Failed(m) => write!(f, "run failed: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Result alias for benchmark code.
pub type Result<T> = std::result::Result<T, BenchError>;

/// Turn any displayable error into [`BenchError::Failed`] with context.
pub fn ctx<T, E: std::fmt::Display>(r: std::result::Result<T, E>, what: &str) -> Result<T> {
    r.map_err(|e| BenchError::Failed(format!("{what}: {e}")))
}

/// Fail with [`BenchError::Mismatch`] unless `ok`.
pub fn expect_eq(ok: bool, what: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(BenchError::Mismatch(what()))
    }
}

/// Run one workload.
pub fn run(opts: &Opts) -> Result<Report> {
    let work = WorkDir::create(&opts.work_root, opts.workload.name())?;
    if opts.trace {
        hus_obs::set_enabled(true);
    }
    let mut report = match opts.workload {
        Workload::PagerankStream | Workload::BfsFrontier => batch::run(opts, work.path())?,
        Workload::ServeIngest => serving::run(opts, work.path())?,
    };
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.per_layer.set("obs.failed_frac", failed_frac);
    report.note(format!(
        "failed_frac {failed_frac} ratio ({} of {})",
        report.failed, report.attempted
    ));
    Ok(report)
}

/// A scratch directory that is removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `root/<label>-<pid>`.
    pub fn create(root: &Path, label: &str) -> Result<Self> {
        let path = root.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ctx(std::fs::create_dir_all(&path), "create the work directory")?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Removes the root only when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Derive the generator seed of one input from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    hus_gen::types::splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Smallest steal difference, in percentage points, between two
/// samples whose slope [`at_zero_steal`] uses.
const MIN_STEAL_SPAN: f64 = 1.0;

/// A timing estimated at zero host steal, and the percent each point of
/// steal adds to it.
///
/// Each sample is `(steal_pct, value)`: a timed query or window and the
/// share of host CPU time the hypervisor gave to other guests while it
/// ran. On a virtual machine, steal comes and goes from one second to
/// the next and slows the engine several times over its own share, so a
/// median of raw timings follows the host rather than the program. Each
/// point of steal multiplies the time by about the same factor, so the
/// fit is a Theil–Sen line through `(steal, ln value)`: the slope is the
/// median of the pairwise slopes (never below 0, since steal cannot
/// speed a query up), and the estimate is `exp` of the median of
/// `ln value - slope * steal`. Without steal it is the plain median.
pub fn at_zero_steal(samples: &[(f64, f64)]) -> (f64, f64) {
    let logs: Vec<(f64, f64)> =
        samples.iter().map(|&(x, y)| (x, y.max(f64::MIN_POSITIVE).ln())).collect();
    let mut slopes = Vec::new();
    for (k, &(x1, y1)) in logs.iter().enumerate() {
        for &(x2, y2) in &logs[k + 1..] {
            if (x2 - x1).abs() >= MIN_STEAL_SPAN {
                slopes.push((y2 - y1) / (x2 - x1));
            }
        }
    }
    let slope = median(&slopes).max(0.0);
    let residuals: Vec<f64> = logs.iter().map(|&(x, y)| y - slope * x).collect();
    (median(&residuals).exp(), slope.exp_m1() * 100.0)
}

/// Cumulative value of an `hus-obs` counter (0 before first use).
pub fn obs_counter(name: &str) -> u64 {
    hus_obs::metrics::global()
        .counter_values()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

/// Snapshot of an `hus-obs` histogram (empty before first use).
pub fn obs_histogram(name: &str) -> hus_obs::HistogramSnapshot {
    hus_obs::metrics::global()
        .histogram_snapshots()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h)
        .unwrap_or(hus_obs::HistogramSnapshot {
            buckets: vec![0; hus_obs::metrics::HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        })
}

/// Samples recorded into a histogram between two snapshots.
pub fn histogram_delta(
    after: &hus_obs::HistogramSnapshot,
    before: &hus_obs::HistogramSnapshot,
) -> hus_obs::HistogramSnapshot {
    hus_obs::HistogramSnapshot {
        buckets: after.buckets.iter().zip(&before.buckets).map(|(a, b)| a - b).collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
    }
}

/// The host/config fingerprint printed with every result.
pub fn fingerprint(opts: &Opts, codec: hus_codec::Codec, extra: &[(&str, String)]) -> String {
    let config = hus_core::RunConfig::default();
    let fsync = if hus_storage::durable::fsync_enabled() { "on" } else { "off" };
    let mut fields = vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("nproc", sys::nproc().to_string()),
        ("kernel", sys::kernel()),
        ("work_fs", sys::filesystem_of(&opts.work_root)),
        ("backend", format!("{:?}", hus_storage::BackendKind::default_from_env())),
        ("codec", codec.name().to_string()),
        ("threads", config.threads.to_string()),
        ("fsync", fsync.to_string()),
        ("traced", opts.trace.to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body = serde_json::Value::Object(
        fields.into_iter().map(|(k, v)| (k.to_string(), serde_json::Value::Str(v))).collect(),
    );
    format!("fingerprint {}", serde_json::to_string(&body).expect("a value tree always serializes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_steal_estimate_removes_a_steal_factor() {
        // 100 ms, 3% more per steal point, one sample slowed further.
        let mut samples: Vec<(f64, f64)> = (0..12)
            .map(|k| (f64::from(k) * 2.0, 100.0 * 1.03f64.powf(f64::from(k) * 2.0)))
            .collect();
        samples[5].1 *= 1.9;
        let (at_zero, pct) = at_zero_steal(&samples);
        assert!((pct - 3.0).abs() < 1e-9, "percent per point {pct}");
        assert!((at_zero - 100.0).abs() < 1e-9, "estimate {at_zero}");
    }

    #[test]
    fn zero_steal_estimate_is_the_median_without_steal() {
        let samples = [(0.0, 2.0), (0.0, 1.0), (0.5, 4.0)];
        let (at_zero, pct) = at_zero_steal(&samples);
        assert!((at_zero - 2.0).abs() < 1e-12 && pct == 0.0, "{at_zero} {pct}");
    }
}
