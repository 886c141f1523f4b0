//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name (`layer.operation`), a start and end on one monotonic
//! clock, the span that was open on the same thread when it began, and
//! the id of the pass or request it belongs to. Spans are kept in memory
//! and written out once, at the end of the run. The benchmark's own glue
//! runs under root spans of the `bench` layer; whatever of their time no
//! layer span covers is reported as `unattributed`.
//!
//! A disabled tracer calls the closure and nothing else, so untraced
//! passes run the same code path as traced ones.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer name of the benchmark's own root spans.
pub const BENCH_LAYER: &str = "bench";

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The span open on the same thread when this one began, if any.
    pub parent: Option<u64>,
    /// `layer.operation`.
    pub name: &'static str,
    /// The pass or request the span belongs to.
    pub tag: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span recorder, shareable across threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, tagged with `tag`.
    pub fn span<T>(&self, name: &'static str, tag: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            tag,
            start_ns,
            end_ns,
        });
        out
    }

    /// The span open on this thread, if any (to hand to [`adopt`]).
    ///
    /// [`adopt`]: Tracer::adopt
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` with `parent` as the open span of this thread, so spans
    /// begun on a worker thread nest under the span that spawned it.
    pub fn adopt<T>(&self, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let saved = OPEN
            .with(|open| std::mem::replace(&mut *open.borrow_mut(), parent.into_iter().collect()));
        let out = f();
        OPEN.with(|open| *open.borrow_mut() = saved);
        out
    }

    /// Every finished span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Busy and self time of one layer, plus its span count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed span durations, in nanoseconds.
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans, in nanoseconds.
    pub self_ns: u64,
    /// Spans recorded.
    pub spans: u64,
}

/// Per-layer busy and self time. A span's self time is its duration
/// minus the union of its children's intervals (children begun on other
/// threads may overlap). The `bench` layer's self time is the
/// unattributed remainder.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let covered_ns = |id: u64| -> u64 {
        let Some(intervals) = children.get(&id) else {
            return 0;
        };
        let mut intervals = intervals.clone();
        intervals.sort_unstable();
        let (mut total, mut reach) = (0, 0);
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                total += end - start;
                reach = end;
            }
        }
        total
    };
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.layer()).or_default();
        let covered = covered_ns(s.id);
        t.busy_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
        t.spans += 1;
    }
    out
}

/// Writes spans as JSON lines: name, start and end in microseconds,
/// parent span id, and the pass or request id.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"tag\":{}}}",
            s.id,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            parent,
            s.tag
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        tracer.span("bench.pass", 1, || {
            tracer.span("core.work", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tracer.span("netlist.eval", 1, || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        assert_eq!(root.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name != "bench.pass")
            .all(|s| s.parent == Some(root.id)));
        let times = layer_times(&spans);
        let bench = times[BENCH_LAYER];
        assert_eq!(bench.busy_ns, root.dur_ns());
        assert_eq!(
            bench.self_ns + times["core"].busy_ns + times["netlist"].busy_ns,
            bench.busy_ns
        );
    }

    #[test]
    fn adopted_spans_nest_under_the_spawning_span() {
        let tracer = Tracer::new(true);
        tracer.span("bench.pass", 1, || {
            let parent = tracer.current();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        tracer.adopt(parent, || {
                            tracer.span("serve.call", 7, || {
                                std::thread::sleep(std::time::Duration::from_millis(5))
                            })
                        })
                    });
                }
            });
        });
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "bench.pass").unwrap();
        let calls: Vec<_> = spans.iter().filter(|s| s.name == "serve.call").collect();
        assert_eq!(calls.len(), 2);
        assert!(calls.iter().all(|s| s.parent == Some(root.id)));
        // The two concurrent calls cover the root once, not twice.
        let times = layer_times(&spans);
        assert!(times[BENCH_LAYER].self_ns < root.dur_ns());
        assert!(times["serve"].busy_ns > times[BENCH_LAYER].busy_ns - times[BENCH_LAYER].self_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("core.work", 1, || 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
