//! The harness's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer's public functions: name, start, end, the span that caused it, and
//! the identifier of the operation it belongs to. They stay in memory and
//! are written out as chrome-trace JSON when the run ends. A disabled
//! tracer still times the call (the caller may want the duration) but
//! records nothing.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `partition.kway`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index (within the same lane) of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// The thread that recorded it.
    pub lane: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Whether spans are kept.
    pub enabled: bool,
    epoch: Instant,
    lane: u32,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread `lane`, measuring from `epoch`.
    pub fn new(epoch: Instant, lane: u32, enabled: bool) -> Self {
        Self { enabled, epoch, lane, op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// A tracer for another thread of the same run.
    pub fn for_lane(&self, lane: u32) -> Self {
        Self::new(self.epoch, lane, self.enabled)
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span that other spans may nest in; close with [`Self::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
            lane: self.lane,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("end() pairs with a begin()");
        self.spans[open].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span; returns its result and its duration in
    /// milliseconds (measured whether or not the tracer is enabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name);
        let t = Instant::now();
        let r = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.end();
        (r, ms)
    }

    /// Moves another lane's spans into this tracer (for the final report).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: a span's self time is its duration minus the part
    /// its child spans cover. Root spans' self time is what no layer span
    /// accounts for.
    pub fn table(&self) -> Vec<TableRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, TableRow> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let row = rows.entry(s.name).or_insert(TableRow {
                name: s.name,
                root: s.parent.is_none(),
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.count += 1;
            row.total_ms += s.dur_ns() as f64 / 1e6;
            row.self_ms += s.dur_ns().saturating_sub(children) as f64 / 1e6;
        }
        rows.into_values().collect()
    }

    /// The chrome://tracing document of (at most `limit`) spans.
    pub fn chrome_trace(&self, limit: usize) -> Json {
        let events = self.spans.iter().take(limit).map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start_ns as f64 / 1e3)),
                ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(u64::from(s.lane))),
                ("args", Json::obj([("op", Json::from(s.op))])),
            ])
        });
        Json::obj([
            ("traceEvents", Json::Arr(events.collect())),
            ("truncated", Json::from(self.spans.len() > limit)),
        ])
    }
}

/// One line of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Span name.
    pub name: &'static str,
    /// Whether spans of this name have no parent (operation windows).
    pub root: bool,
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ms: f64,
    /// Sum of self times.
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_the_root_remainder_add_up_to_the_window() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        t.next_op();
        t.begin("op");
        t.span("layer.a", || spin(3));
        t.span("layer.b", || spin(2));
        spin(2); // nobody's: stays on the root
        t.end();
        let table = t.table();
        let op = table.iter().find(|r| r.name == "op").unwrap();
        assert!(op.root && op.count == 1);
        let attributed: f64 = table.iter().filter(|r| !r.root).map(|r| r.self_ms).sum();
        assert!(attributed >= 5.0);
        assert!(op.self_ms >= 2.0, "root self time is the unattributed part");
        let sum: f64 = table.iter().map(|r| r.self_ms).sum();
        assert!((sum - op.total_ms).abs() < 1e-6, "self times partition the window");
        assert!(t.spans().iter().all(|s| s.op == 1));
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, false);
        t.begin("op");
        let (v, ms) = t.span("layer.a", || {
            spin(1);
            7
        });
        t.end();
        assert_eq!(v, 7);
        assert!(ms >= 1.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn lanes_merge_and_export() {
        let mut main = Tracer::new(Instant::now(), 0, true);
        main.span("a", || ());
        let mut other = main.for_lane(1);
        other.begin("op");
        other.span("b", || ());
        other.end();
        main.absorb(other);
        assert_eq!(main.spans().len(), 3);
        assert_eq!(main.spans()[2].parent, Some(1), "parents are re-based on merge");
        let doc = main.chrome_trace(2);
        assert_eq!(doc.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("truncated"), Some(&Json::Bool(true)));
        assert!(Json::parse(&doc.render()).is_ok());
    }
}
