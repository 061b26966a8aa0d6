//! In-memory span tracer for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! engine's layers (no span lives inside the engine). Each span has a name,
//! a start and end offset from the tracer's epoch, the span that caused it,
//! and the id of the statement it belongs to. Spans are kept in memory and
//! handed out by [`take`] when the run ends; a layer's self time is its
//! span's duration minus the time its children cover ([`self_times`]).
//!
//! Tracing is off unless [`enable`] was called: an untraced run pays one
//! relaxed atomic load per would-be span.

use abae_data::{GroupLabel, GroupOracle, Labeled, Oracle};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Statement id shared by every span of one statement (0: none).
    pub stmt: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: (span id, statement id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Reads the wall clock. Every timing the benchmark takes starts here.
pub fn stopwatch() -> Instant {
    // abae-lint: allow(wall_clock) -- benchmark timing: durations are reported, never fed into statements or answers
    Instant::now()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(stopwatch)
}

/// Seconds since the tracer's epoch.
pub fn now() -> f64 {
    epoch().elapsed().as_secs_f64()
}

pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn open(stmt: Option<u64>) -> (u64, Option<u64>, u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, inherited) = match s.last() {
            Some(&(p, st)) => (Some(p), st),
            None => (None, 0),
        };
        let stmt = stmt.unwrap_or(inherited);
        s.push((id, stmt));
        (id, parent, stmt)
    })
}

fn close(id: u64, parent: Option<u64>, stmt: u64, name: &'static str, start: f64) {
    let end = now();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span log lock")
        .push(Span { id, parent, stmt, name, start, end });
}

fn run_span<T>(name: &'static str, stmt: Option<u64>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (id, parent, stmt) = open(stmt);
    let start = now();
    let out = f();
    close(id, parent, stmt, name, start);
    out
}

/// Runs `f` inside a span named `name`, a child of the innermost open span
/// on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    run_span(name, None, f)
}

/// Runs `f` as the root span of statement `stmt`; every span opened inside
/// it on this thread carries the same statement id.
pub fn statement<T>(stmt: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
    run_span(name, Some(stmt), f)
}

/// Records an already-measured interval as a child of the innermost open
/// span (used where the interval is bounded by callbacks, not a call).
pub fn record(name: &'static str, start: f64, end: f64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, stmt) =
        STACK.with(|s| s.borrow().last().map_or((None, 0), |&(p, st)| (Some(p), st)));
    SPANS
        .lock()
        .expect("span log lock")
        .push(Span { id, parent, stmt, name, start, end });
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log lock"))
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one span run sequentially on its thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.dur())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(v) = own.get_mut(&p) {
                *v -= s.dur();
            }
        }
    }
    own
}

/// A benchmark-owned timing wrapper around an oracle layer: every
/// `label_batch` call becomes a span named `name`, and the end of the most
/// recent call is remembered (the executors' post-labeling tail — bootstrap
/// CIs — is measured from it).
pub struct Timed<O> {
    inner: O,
    name: &'static str,
    last_end_ns: AtomicU64,
}

impl<O> Timed<O> {
    pub fn new(name: &'static str, inner: O) -> Self {
        Self { inner, name, last_end_ns: AtomicU64::new(0) }
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// End of the most recent labeling call (tracer seconds), if any.
    pub fn last_end(&self) -> Option<f64> {
        match self.last_end_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns as f64 * 1e-9),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let out = span(self.name, f);
        self.last_end_ns.store((now() * 1e9) as u64, Ordering::Relaxed);
        out
    }
}

impl<O: Oracle> Oracle for Timed<O> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        self.timed(|| self.inner.label_batch(indices))
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn reset_calls(&self) {
        self.inner.reset_calls()
    }
}

impl<O: GroupOracle> GroupOracle for Timed<O> {
    fn label_group_batch(&self, indices: &[usize]) -> Vec<GroupLabel> {
        self.timed(|| self.inner.label_group_batch(indices))
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }
}
