//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end metrics
//! when untraced, the per-layer metrics when traced. A per-layer metric
//! whose layer the workload never calls reads 0 (see README.md).

use serde_json::Value;

/// `(name, unit)` of each end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("query_ms", "ms"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of each per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.s", "s"),
    ("builder.s", "s"),
    ("builder.bytes_per_edge", "B"),
    ("storage.seq_read_mb", "MB"),
    ("storage.rand_read_mb", "MB"),
    ("storage.batched_read_mb", "MB"),
    ("storage.write_mb", "MB"),
    ("storage.stream_sweep_ms", "ms"),
    ("storage.range_read_us", "us"),
    ("codec.decode_ms", "ms"),
    ("codec.ratio", "x"),
    ("codec.cache_hit_rate", "ratio"),
    ("predict.rop_iters", "count"),
    ("predict.cop_iters", "count"),
    ("predict.gated_iters", "count"),
    ("predict.regret", "x"),
    ("predict.wrong_iters", "count"),
    ("rop.ms_per_query", "ms"),
    ("rop.read_bytes_per_active_edge", "B"),
    ("cop.ms_per_iter", "ms"),
    ("cop.non_io_share", "ratio"),
    ("cop.queue_wait_ms", "ms"),
    ("engine.cpu_util", "ratio"),
    ("engine.sys_share", "ratio"),
    ("engine.speedup", "x"),
    ("vertex_store.create_ms", "ms"),
    ("vertex_store.load_ms", "ms"),
    ("vertex_store.write_ms", "ms"),
    ("delta.insert_ns", "ns"),
    ("delta.flush_ms", "ms"),
    ("delta.compact_ms", "ms"),
    ("delta.snapshot_ms", "ms"),
    ("delta.write_amp", "x"),
    ("delta.ingest_ops_per_s", "1/s"),
    ("serve.idle_rtt_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.lookup_max_qps", "1/s"),
    ("serve.server_lookup_p99_us", "us"),
    ("serve.analytics_ms", "ms"),
    ("serve.busy_frac", "ratio"),
    ("serve.gen_late_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.host_steal_pct", "%"),
    ("obs.samples", "count"),
    ("obs.failed_frac", "ratio"),
];

/// Named metric values, kept in catalogue order.
#[derive(Debug, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Every metric of `catalogue`, each at 0 until set.
    pub fn zeroed(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Metrics { entries: catalogue.iter().map(|&(n, u)| (n, u, 0.0)).collect() }
    }

    /// Set `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        e.2 = if value.is_finite() { value } else { 0.0 };
    }

    /// Value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.entries.iter().find(|e| e.0 == name).map_or(0.0, |e| e.2)
    }

    /// `(name, unit, value)` in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Attempted operations that ended busy, deadline or error (a wrong
    /// answer is not counted here: it aborts the run).
    pub failed: u64,
    /// End-to-end metrics (filled by untraced runs).
    pub end_to_end: Metrics,
    /// Per-layer metrics (filled by traced runs).
    pub per_layer: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            end_to_end: Metrics::zeroed(END_TO_END),
            per_layer: Metrics::zeroed(PER_LAYER),
            notes: Vec::new(),
        }
    }

    /// Append a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics of the run's kind.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let metrics = metrics
            .iter()
            .map(|(name, unit, value)| {
                let entry = vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }
}

impl Default for Report {
    fn default() -> Self {
        Self::new()
    }
}
