//! Spans recorded from the benchmark's own side of each layer boundary,
//! and the timing `Storage` decorator that the traced worlds hand to
//! `AccountingServer::with_storage`. No program code is instrumented.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use proxy_storage::{Recovered, Storage, StorageError, Ticket};

/// One timed call: `[start, end)` in nanoseconds since the tracer's
/// epoch, the span that caused it, and the request it served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

thread_local! {
    /// The span and request the calling thread is inside, so spans
    /// opened by a decorator deeper in the call find their parent.
    static CURRENT: Cell<(Option<u64>, Option<u64>)> = const { Cell::new((None, None)) };
}

/// An in-memory span log, written out once at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` on
    /// this thread become its children. `request` defaults to the
    /// enclosing span's request.
    pub fn span<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, outer_request) = CURRENT.with(Cell::get);
        let request = request.or(outer_request);
        CURRENT.with(|c| c.set((Some(id), request)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CURRENT.with(|c| c.set((parent, outer_request)));
        self.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        out
    }

    /// Records a span measured elsewhere (the load generator's request
    /// spans, timed from their intended send time).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            request: Some(request),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Self time (µs) of every span named `name`: its duration minus the
    /// part its direct children cover. Children of one span run on its
    /// thread one after another, so their durations do not overlap.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log lock");
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = (s.end_ns - s.start_ns)
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                own as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

/// A `Storage` that forwards to `inner` and records a span around each
/// call, plus the counts the storage metrics need. Per-request calls
/// (`stage`, `wait_durable`) are recorded only while `recording`;
/// snapshot installs, which stall whatever is queued, always are.
#[derive(Debug)]
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    tracer: Arc<Tracer>,
    pub recording: AtomicBool,
    waiters: AtomicUsize,
    pub waiters_max: AtomicUsize,
    pub staged_bytes: AtomicU64,
    pub snapshot_bytes_total: AtomicU64,
    pub snapshot_bytes_last: AtomicU64,
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn Storage>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            recording: AtomicBool::new(true),
            waiters: AtomicUsize::new(0),
            waiters_max: AtomicUsize::new(0),
            staged_bytes: AtomicU64::new(0),
            snapshot_bytes_total: AtomicU64::new(0),
            snapshot_bytes_last: AtomicU64::new(0),
        }
    }
}

impl TimedStorage {
    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }
}

impl Storage for TimedStorage {
    fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
        if !self.recording() {
            return self.inner.stage(record);
        }
        self.staged_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        self.tracer
            .span("storage.stage", None, || self.inner.stage(record))
    }

    fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
        if !self.recording() {
            return self.inner.wait_durable(ticket);
        }
        let now_waiting = self.waiters.fetch_add(1, Ordering::Relaxed) + 1;
        self.waiters_max.fetch_max(now_waiting, Ordering::Relaxed);
        let out = self.tracer.span("storage.wait_durable", None, || {
            self.inner.wait_durable(ticket)
        });
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        out
    }

    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
        self.snapshot_bytes_total
            .fetch_add(state.len() as u64, Ordering::Relaxed);
        self.snapshot_bytes_last
            .store(state.len() as u64, Ordering::Relaxed);
        self.tracer.span("storage.install_snapshot", None, || {
            self.inner.install_snapshot(state)
        })
    }

    fn load(&self) -> Result<Recovered, StorageError> {
        self.inner.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span("outer", Some(7), || {
            t.span("inner", None, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(7));
        let own = t.self_times_us("outer")[0];
        assert!(
            own < outer.dur_us() - 4_000.0,
            "self time {own} µs keeps the child"
        );
    }
}
