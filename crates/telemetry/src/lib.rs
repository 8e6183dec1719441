//! Zero-dependency tracing and metrics for the partitioning stack.
//!
//! The paper's argument is quantitative — communication volumes and phase
//! costs — so the library must be able to say *where* time and traffic go
//! inside a multilevel partition or a threaded time step, not just report
//! end-of-run aggregates. This crate provides the plumbing:
//!
//! * [`Recorder`] — the handle threaded through configuration structs.
//!   `Recorder::disabled()` (the `Default`) is a `None` inside; every
//!   event API checks that option and returns — the instrumented hot
//!   paths pay one predictable branch per event when telemetry is off.
//! * **Spans** — [`Recorder::span`] returns an RAII guard that records a
//!   named, wall-clock interval when dropped. Spans nest: a thread-local
//!   stack links each span to its parent, and each span lands on a *lane*
//!   (one per logical rank/thread, see [`Recorder::set_lane`]) so the
//!   chrome trace shows one row per rank.
//! * **Counters** — monotonic `u64` counters ([`Recorder::add`]).
//! * **Histograms** — power-of-two-bucket histograms for message-size
//!   style distributions ([`Recorder::record`]).
//! * **Exporters** ([`export`]) — `chrome://tracing` / Perfetto JSON with
//!   one lane per rank, and a flat machine-readable summary
//!   ([`export::Summary`]) with a pretty-table form.
//!
//! Everything is thread-safe; the crate deliberately has **no external
//! dependencies** so even the innermost crates can link it.
//!
//! ```
//! use cip_telemetry::Recorder;
//!
//! let rec = Recorder::enabled();
//! {
//!     let _step = rec.span("step").attr("k", 4);
//!     let _halo = rec.span("halo"); // nested under "step"
//!     rec.add("traffic.halo_units", 17);
//!     rec.record("halo.msg_nodes", 17);
//! }
//! let summary = rec.summary().unwrap();
//! assert_eq!(summary.counter("traffic.halo_units"), Some(17));
//! let trace = rec.chrome_trace().unwrap();
//! assert!(trace.contains("\"ph\":\"X\""));
//! ```

pub mod export;
pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Distinguishes registries so thread-local lane/stack state never leaks
/// between two `Recorder::enabled()` instances (e.g. parallel tests).
static REGISTRY_IDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Lane assigned to this thread, per registry id.
    static LANES: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    /// Stack of open spans on this thread: `(registry id, span id)`.
    static STACK: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
}

/// A span/instant attribute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Integer attribute (counts, sizes, levels).
    Int(i64),
    /// Floating-point attribute (ratios, imbalances).
    Float(f64),
    /// Static string attribute (phase kind, algorithm name).
    Str(&'static str),
}

macro_rules! attr_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::Int(v as i64)
            }
        }
    )*};
}
attr_from_int!(i64, i32, u64, u32, usize);

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Str(if v { "true" } else { "false" })
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

/// What kind of trace event a [`SpanEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A completed interval (chrome `"X"` event).
    Span,
    /// A point-in-time marker (chrome `"i"` event).
    Instant,
}

/// One completed span (or instant marker), as stored in the registry.
#[derive(Debug, Clone)]
pub(crate) struct SpanEvent {
    pub kind: EventKind,
    pub name: &'static str,
    /// Unique id within the registry (chrome trace does not need it, but
    /// the summary uses it to attribute child time to parents).
    pub id: u32,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    /// Logical rank/thread row in the trace.
    pub lane: u32,
    /// Nanoseconds since the registry was created.
    pub start_ns: u64,
    /// Span duration (0 for instants).
    pub dur_ns: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `b`
/// (1..=64) holds values in `[2^(b-1), 2^b)`.
pub(crate) const HIST_BUCKETS: usize = 65;

/// A power-of-two-bucket histogram.
#[derive(Debug, Clone)]
pub(crate) struct Hist {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Hist {
    fn new() -> Self {
        Self { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index of `v`: 0 for 0, else `floor(log2(v)) + 1`.
    pub(crate) fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The shared state behind an enabled [`Recorder`].
pub(crate) struct Registry {
    id: usize,
    start: Instant,
    next_span: AtomicU32,
    next_lane: AtomicU32,
    pub(crate) events: Mutex<Vec<SpanEvent>>,
    pub(crate) counters: Mutex<BTreeMap<&'static str, u64>>,
    pub(crate) histograms: Mutex<BTreeMap<&'static str, Hist>>,
    /// Custom lane labels (e.g. "driver"); unnamed lanes render `rank <n>`.
    pub(crate) lane_names: Mutex<BTreeMap<u32, &'static str>>,
}

impl Registry {
    fn new() -> Self {
        Self {
            id: REGISTRY_IDS.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            next_span: AtomicU32::new(0),
            next_lane: AtomicU32::new(0),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            lane_names: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The lane of the current thread, assigning the next free one on
    /// first use.
    fn lane(self: &Arc<Self>) -> u32 {
        LANES.with(|l| {
            let mut l = l.borrow_mut();
            if let Some(&(_, lane)) = l.iter().find(|(id, _)| *id == self.id) {
                return lane;
            }
            let lane = self.next_lane.fetch_add(1, Ordering::Relaxed);
            l.push((self.id, lane));
            lane
        })
    }

    /// The innermost open span of the current thread, if any.
    fn parent(&self) -> Option<u32> {
        STACK.with(|s| s.borrow().iter().rev().find(|(id, _)| *id == self.id).map(|&(_, sp)| sp))
    }
}

/// The telemetry handle.
///
/// Cheap to clone (an `Option<Arc>`), `Send + Sync`, and **disabled by
/// default**: a disabled recorder's event methods are a branch and a
/// return. Thread one through your configuration struct and flip it to
/// [`Recorder::enabled`] only when a trace is wanted.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() { "Recorder(enabled)" } else { "Recorder(disabled)" })
    }
}

impl Recorder {
    /// The no-op recorder (the `Default`). All event calls reduce to a
    /// branch on a `None`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recorder that collects events into a fresh registry.
    pub fn enabled() -> Self {
        Self { inner: Some(Arc::new(Registry::new())) }
    }

    /// Binds the current thread to lane `lane` (one lane per logical
    /// rank). Threads that never call this get the next free lane on
    /// their first event.
    pub fn set_lane(&self, lane: u32) {
        let Some(reg) = &self.inner else { return };
        reg.next_lane.fetch_max(lane + 1, Ordering::Relaxed);
        LANES.with(|l| {
            let mut l = l.borrow_mut();
            match l.iter_mut().find(|(id, _)| *id == reg.id) {
                Some(entry) => entry.1 = lane,
                None => l.push((reg.id, lane)),
            }
        });
    }

    /// Labels lane `lane` in the chrome trace (e.g. `"driver"` for the
    /// orchestrating thread). Unnamed lanes render as `rank <n>`.
    pub fn name_lane(&self, lane: u32, name: &'static str) {
        let Some(reg) = &self.inner else { return };
        reg.lane_names.lock().unwrap().insert(lane, name);
    }

    /// Opens a span on the current thread's lane. The returned guard
    /// records the interval when dropped; further spans opened on this
    /// thread before the drop become its children.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(reg) => Span::open(reg.clone(), name, reg.lane()),
        }
    }

    /// Records a point-in-time marker on lane `lane`.
    pub fn instant_at(&self, name: &'static str, lane: u32, attrs: &[(&'static str, AttrValue)]) {
        let Some(reg) = &self.inner else { return };
        reg.next_lane.fetch_max(lane + 1, Ordering::Relaxed);
        let ev = SpanEvent {
            kind: EventKind::Instant,
            name,
            id: reg.next_span.fetch_add(1, Ordering::Relaxed),
            parent: None,
            lane,
            start_ns: reg.now_ns(),
            dur_ns: 0,
            attrs: attrs.to_vec(),
        };
        reg.events.lock().unwrap().push(ev);
    }

    /// Adds `delta` to counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        let Some(reg) = &self.inner else { return };
        *reg.counters.lock().unwrap().entry(name).or_default() += delta;
    }

    /// The current value of counter `name` (0 if absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        let Some(reg) = &self.inner else { return 0 };
        reg.counters.lock().unwrap().get(name).copied().unwrap_or(0)
    }

    /// Records `value` into the power-of-two histogram `name`.
    #[inline]
    pub fn record(&self, name: &'static str, value: u64) {
        let Some(reg) = &self.inner else { return };
        reg.histograms.lock().unwrap().entry(name).or_insert_with(Hist::new).record(value);
    }

    /// Exports all completed spans as chrome://tracing JSON (load the
    /// string in `about:tracing` or Perfetto), one row (`tid`) per lane.
    /// `None` when disabled.
    pub fn chrome_trace(&self) -> Option<String> {
        self.inner.as_ref().map(|reg| export::chrome_trace(reg))
    }

    /// Aggregates spans/counters/histograms into a flat [`export::Summary`].
    /// `None` when disabled.
    pub fn summary(&self) -> Option<export::Summary> {
        self.inner.as_ref().map(|reg| export::summarize(reg))
    }
}

/// RAII span guard; records the interval when dropped.
#[must_use = "a span records its interval when dropped; binding it to _ drops it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    reg: Arc<Registry>,
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    lane: u32,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    fn open(reg: Arc<Registry>, name: &'static str, lane: u32) -> Span {
        let id = reg.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = reg.parent();
        STACK.with(|s| s.borrow_mut().push((reg.id, id)));
        let start_ns = reg.now_ns();
        Span {
            active: Some(ActiveSpan { reg, name, id, parent, lane, start_ns, attrs: Vec::new() }),
        }
    }

    /// Attaches an attribute (builder style, for use at the open site).
    #[inline]
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Attaches an attribute to an already-open span (for values only
    /// known once the work is done, e.g. a coarse vertex count).
    #[inline]
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_ns = a.reg.now_ns().saturating_sub(a.start_ns);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Normally the top of the stack; search from the end so an
            // out-of-LIFO drop cannot corrupt unrelated entries.
            if let Some(pos) = s.iter().rposition(|&(id, sp)| id == a.reg.id && sp == a.id) {
                s.remove(pos);
            }
        });
        let ev = SpanEvent {
            kind: EventKind::Span,
            name: a.name,
            id: a.id,
            parent: a.parent,
            lane: a.lane,
            start_ns: a.start_ns,
            dur_ns,
            attrs: a.attrs,
        };
        a.reg.events.lock().unwrap().push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        {
            let mut s = rec.span("noop").attr("x", 1);
            s.set_attr("y", 2.0);
        }
        rec.add("c", 5);
        rec.record("h", 9);
        rec.instant_at("i", 0, &[]);
        assert_eq!(rec.counter_value("c"), 0);
        assert!(rec.chrome_trace().is_none());
        assert!(rec.summary().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(Recorder::default().summary().is_none());
        assert_eq!(format!("{:?}", Recorder::default()), "Recorder(disabled)");
        assert_eq!(format!("{:?}", Recorder::enabled()), "Recorder(enabled)");
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let reg = rec.inner.as_ref().unwrap();
        let events = reg.events.lock().unwrap();
        // Inner drops first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[0].parent, Some(events[1].id));
        assert_eq!(events[1].parent, None);
        assert!(events[1].dur_ns >= events[0].dur_ns);
    }

    #[test]
    fn sibling_recorders_do_not_share_state() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        let _sa = a.span("a");
        {
            let _sb = b.span("b");
        }
        let reg_b = b.inner.as_ref().unwrap();
        let events = reg_b.events.lock().unwrap();
        // b's span must not claim a's open span as parent.
        assert_eq!(events[0].parent, None);
    }

    #[test]
    fn lanes_are_per_thread_and_overridable() {
        let rec = Recorder::enabled();
        rec.set_lane(3);
        {
            let _s = rec.span("main");
        }
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            let _s = rec2.span("worker");
        })
        .join()
        .unwrap();
        let reg = rec.inner.as_ref().unwrap();
        let events = reg.events.lock().unwrap();
        let main = events.iter().find(|e| e.name == "main").unwrap();
        let worker = events.iter().find(|e| e.name == "worker").unwrap();
        assert_eq!(main.lane, 3);
        // The worker thread auto-allocated a fresh lane above the override.
        assert_eq!(worker.lane, 4);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let rec = Recorder::enabled();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        rec.add("hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counter_value("hits"), 4000);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(1023), 10);
        assert_eq!(Hist::bucket_of(1024), 11);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        let rec = Recorder::enabled();
        for v in [0u64, 1, 3, 3, 8] {
            rec.record("sizes", v);
        }
        let s = rec.summary().unwrap();
        let h = s.histograms.iter().find(|h| h.name == "sizes").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 15);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 8);
    }

    #[test]
    fn out_of_lifo_drop_keeps_stack_consistent() {
        let rec = Recorder::enabled();
        let outer = rec.span("outer");
        let inner = rec.span("inner");
        drop(outer); // wrong order on purpose
        let sibling = rec.span("sibling");
        drop(sibling);
        drop(inner);
        let reg = rec.inner.as_ref().unwrap();
        let events = reg.events.lock().unwrap();
        assert_eq!(events.len(), 3);
        // The sibling's parent is the still-open "inner", not garbage.
        let sib = events.iter().find(|e| e.name == "sibling").unwrap();
        let inn = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(sib.parent, Some(inn.id));
    }

    /// The overhead contract: a disabled recorder's span open+drop is a
    /// branch, not a measurable cost. The bound here is deliberately loose
    /// (shared CI machines).
    #[test]
    fn disabled_span_costs_nanoseconds() {
        let rec = Recorder::disabled();
        let n = 1_000_000u64;
        let t = Instant::now();
        for i in 0..n {
            let _s = rec.span("noop").attr("i", i);
        }
        let per_event = t.elapsed().as_nanos() as f64 / n as f64;
        assert!(per_event < 1000.0, "disabled span cost {per_event:.1} ns/event");
    }
}
