//! What the benchmark reads about its own process and host: CPU time,
//! resident memory, and the fingerprint printed with every result.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of this
/// size on every architecture the repository builds for.
const TICKS_PER_SEC: f64 = 100.0;
const PAGE_BYTES: u64 = 4096;

/// Process CPU time split into user and system seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub system: f64,
}

impl CpuTimes {
    /// This process's CPU time so far (zero where `/proc` is absent).
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return CpuTimes::default();
        };
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        CpuTimes { user: tick(11) / TICKS_PER_SEC, system: tick(12) / TICKS_PER_SEC }
    }

    /// CPU time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes { user: self.user - earlier.user, system: self.system - earlier.system }
    }

    /// User plus system seconds.
    pub fn total(&self) -> f64 {
        self.user + self.system
    }
}

/// Whole-host CPU time counters from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// The counters now (zero where `/proc` is absent).
    pub fn now() -> Self {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map_while(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal ...
        HostTicks { steal: ticks.get(7).copied().unwrap_or(0), total: ticks.iter().take(8).sum() }
    }

    /// Percent of CPU time the hypervisor gave to other guests since
    /// `earlier`. A high value marks a run whose timings are not
    /// comparable with quiet runs.
    pub fn steal_pct_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|p| p.parse::<u64>().ok()))
        .map_or(0, |pages| pages * PAGE_BYTES)
}

/// Return the allocator's free memory to the system, so that what set-up
/// freed does not count towards the resident set of the phase after it.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Samples the resident set every 20 ms while a phase runs and keeps
/// the peak, so the peak covers only that phase.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssSampler {
    /// Release free allocator memory, then start sampling.
    pub fn start() -> Self {
        release_free_memory();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = rss_bytes();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(rss_bytes());
            }
            peak.max(rss_bytes())
        });
        RssSampler { stop, handle }
    }

    /// Stop sampling and return the peak in MB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        let peak = self.handle.join().expect("the RSS sampler thread does not panic");
        peak as f64 / crate::probes::MB
    }
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `path`, from the longest
/// matching mount point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else { continue };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
