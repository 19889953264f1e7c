//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, start, end and the span that caused it (the span
//! open on the same thread when it started). Spans stay in memory and
//! are summarised per name when the run ends; a layer's self time is
//! its spans' duration minus the time its child spans cover.
//!
//! When tracing is off a [`Tracer`] records nothing, so the untraced
//! runs that produce the end-to-end metrics carry no span overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within a run, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 at the top.
    pub parent: u64,
    /// Layer call, e.g. `storage.stream_in_block`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

thread_local! {
    /// Ids of the open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals of a span summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Summed duration minus the time covered by child spans.
    pub self_time: Duration,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` as a span called `name` and return its result with its
    /// wall time. The wall time is measured whether or not tracing is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.on {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.borrow().last().copied().unwrap_or(0));
        OPEN.with(|o| o.borrow_mut().push(id));
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        OPEN.with(|o| o.borrow_mut().pop());
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span { id, parent, name, start_ns: ns(t0), end_ns: ns(t1) };
        self.spans.lock().expect("span buffer lock is never poisoned").push(span);
        (out, t1 - t0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock is never poisoned").clone()
    }

    /// Per-name count, total and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let children = child_ns.get(&s.id).copied().unwrap_or(0).min(dur);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total += Duration::from_nanos(dur);
            t.self_time += Duration::from_nanos(dur - children);
        }
        out
    }

    /// The summary as printable lines.
    pub fn summary_lines(&self) -> Vec<String> {
        self.summary()
            .into_iter()
            .map(|(name, t)| {
                format!(
                    "span {name:<34} count={:<7} total_ms={:<12.3} self_ms={:.3}",
                    t.count,
                    t.total.as_secs_f64() * 1e3,
                    t.self_time.as_secs_f64() * 1e3
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_reduce_parent_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        });
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        let sum = t.summary();
        assert!(sum["outer"].self_time < sum["outer"].total);
        assert_eq!(sum["inner"].self_time, sum["inner"].total);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let ((), d) = t.span("x", || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
