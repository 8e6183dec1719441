//! Exporters: chrome://tracing JSON and the flat summary.

use crate::json::{validate, write_f64, write_str};
use crate::{AttrValue, EventKind, Registry, SpanEvent, HIST_BUCKETS};
use std::collections::HashMap;

fn write_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        match v {
            AttrValue::Int(x) => out.push_str(&x.to_string()),
            AttrValue::Float(x) => write_f64(out, *x),
            AttrValue::Str(x) => write_str(out, x),
        }
    }
    out.push('}');
}

/// Renders all completed events as a chrome://tracing "JSON object
/// format" document: complete (`"X"`) events for spans, instant (`"i"`)
/// events for markers, plus `thread_name` metadata naming each lane
/// `rank <n>`. Timestamps are microseconds (fractional; nanosecond
/// resolution survives).
pub(crate) fn chrome_trace(reg: &Registry) -> String {
    let events = reg.events.lock().unwrap();
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.lane, e.start_ns, e.id));

    let mut lanes: Vec<u32> = sorted.iter().map(|e| e.lane).collect();
    lanes.dedup();

    let mut out = String::with_capacity(256 + 128 * sorted.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };
    let lane_names = reg.lane_names.lock().unwrap();
    for lane in lanes {
        push_sep(&mut out);
        let label = lane_names.get(&lane).map_or_else(|| format!("rank {lane}"), |n| n.to_string());
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":"
        ));
        write_str(&mut out, &label);
        out.push_str("}}");
    }
    for e in sorted {
        push_sep(&mut out);
        let ts = e.start_ns as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"name\":",
            match e.kind {
                EventKind::Span => 'X',
                EventKind::Instant => 'i',
            },
            e.lane
        ));
        write_str(&mut out, e.name);
        out.push_str(&format!(",\"ts\":{ts:.3}"));
        if e.kind == EventKind::Span {
            out.push_str(&format!(",\"dur\":{:.3}", e.dur_ns as f64 / 1000.0));
        } else {
            // Thread-scoped instant marker.
            out.push_str(",\"s\":\"t\"");
        }
        if !e.attrs.is_empty() {
            out.push_str(",\"args\":");
            write_attrs(&mut out, &e.attrs);
        }
        out.push('}');
    }
    out.push_str("\n]}");
    debug_assert!(validate(&out).is_ok(), "exporter produced malformed JSON");
    out
}

/// Aggregate of all spans with one name.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds (inclusive of children).
    pub total_ns: u64,
    /// Total nanoseconds minus time spent in child spans.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Aggregate of one histogram.
#[derive(Debug, Clone)]
pub struct HistSummary {
    /// Histogram name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty power-of-two buckets as `(lo, hi, count)`, covering
    /// `lo <= value <= hi`.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Flat aggregation of a recorder's spans, counters, and histograms —
/// the `summary.json` schema.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-name span aggregates, sorted by descending total time.
    pub spans: Vec<SpanSummary>,
    /// Counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistSummary>,
}

impl Summary {
    /// The value of counter `name`, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The aggregate of spans named `name`, if any completed.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The aggregate of histogram `name`, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to the `summary.json` schema. Counter values are exact
    /// integers; durations are fractional microseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":");
            write_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3},\"max_us\":{:.3}}}",
                s.count,
                s.total_ns as f64 / 1000.0,
                s.self_ns as f64 / 1000.0,
                s.max_ns as f64 / 1000.0
            ));
        }
        out.push_str("],\n\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            write_str(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\n\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            write_str(&mut out, h.name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{c}}}"));
            }
            out.push_str("]}");
        }
        out.push_str("}\n}");
        debug_assert!(validate(&out).is_ok(), "summary produced malformed JSON");
        out
    }

    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if !self.spans.is_empty() {
            s.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
                "span", "count", "total", "self", "max"
            ));
            for sp in &self.spans {
                s.push_str(&format!(
                    "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
                    sp.name,
                    sp.count,
                    fmt_dur(sp.total_ns),
                    fmt_dur(sp.self_ns),
                    fmt_dur(sp.max_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            s.push_str(&format!("{:<28} {:>12}\n", "counter", "value"));
            for (name, v) in &self.counters {
                s.push_str(&format!("{name:<28} {v:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>8} {:>8}\n",
                "histogram", "count", "sum", "min", "max"
            ));
            for h in &self.histograms {
                s.push_str(&format!(
                    "{:<28} {:>8} {:>10} {:>8} {:>8}\n",
                    h.name, h.count, h.sum, h.min, h.max
                ));
            }
        }
        s
    }
}

fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Builds the [`Summary`] of everything recorded so far.
pub(crate) fn summarize(reg: &Registry) -> Summary {
    let events = reg.events.lock().unwrap();

    // Attribute each span's duration to its parent to compute self time.
    let mut child_dur: HashMap<u32, u64> = HashMap::new();
    for e in events.iter() {
        if e.kind == EventKind::Span {
            if let Some(p) = e.parent {
                *child_dur.entry(p).or_insert(0) += e.dur_ns;
            }
        }
    }
    let mut by_name: HashMap<&'static str, SpanSummary> = HashMap::new();
    for e in events.iter() {
        if e.kind != EventKind::Span {
            continue;
        }
        let sf = e.dur_ns.saturating_sub(child_dur.get(&e.id).copied().unwrap_or(0));
        let entry = by_name.entry(e.name).or_insert(SpanSummary {
            name: e.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            max_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += e.dur_ns;
        entry.self_ns += sf;
        entry.max_ns = entry.max_ns.max(e.dur_ns);
    }
    drop(events);
    let mut spans: Vec<SpanSummary> = by_name.into_values().collect();
    spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));

    let counters = reg.counters.lock().unwrap().iter().map(|(&name, &v)| (name, v)).collect();

    let histograms = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(name, h)| {
            let buckets = (0..HIST_BUCKETS)
                .filter(|&b| h.buckets[b] > 0)
                .map(|b| {
                    let (lo, hi) = if b == 0 {
                        (0, 0)
                    } else {
                        (1u64 << (b - 1), if b == 64 { u64::MAX } else { (1u64 << b) - 1 })
                    };
                    (lo, hi, h.buckets[b])
                })
                .collect();
            HistSummary {
                name,
                count: h.count,
                sum: h.sum,
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
                buckets,
            }
        })
        .collect();

    Summary { spans, counters, histograms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    /// Pushes a synthetic completed span so timing assertions are exact.
    fn push_span(
        rec: &Recorder,
        name: &'static str,
        id: u32,
        parent: Option<u32>,
        lane: u32,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let reg = rec.inner.as_ref().unwrap();
        reg.events.lock().unwrap().push(SpanEvent {
            kind: EventKind::Span,
            name,
            id,
            parent,
            lane,
            start_ns,
            dur_ns,
            attrs: vec![("nv", AttrValue::Int(42))],
        });
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lane_metadata() {
        let rec = Recorder::enabled();
        push_span(&rec, "halo", 0, None, 0, 1000, 500);
        push_span(&rec, "search", 1, None, 1, 2000, 700);
        rec.instant_at("migrate", 1, &[("moved", AttrValue::Int(3))]);
        let trace = rec.chrome_trace().unwrap();
        validate(&trace).unwrap_or_else(|e| panic!("{e}\n{trace}"));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"rank 0\""));
        assert!(trace.contains("\"rank 1\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"ts\":1.000"));
        assert!(trace.contains("\"dur\":0.500"));
        assert!(trace.contains("\"nv\":42"));
    }

    #[test]
    fn named_lanes_override_the_rank_label() {
        let rec = Recorder::enabled();
        push_span(&rec, "work", 0, None, 0, 0, 100);
        push_span(&rec, "orchestrate", 1, None, 1, 0, 100);
        rec.name_lane(1, "driver");
        let trace = rec.chrome_trace().unwrap();
        validate(&trace).unwrap_or_else(|e| panic!("{e}\n{trace}"));
        assert!(trace.contains("\"rank 0\""));
        assert!(trace.contains("\"driver\""));
        assert!(!trace.contains("\"rank 1\""));
    }

    #[test]
    fn summary_self_time_excludes_children() {
        let rec = Recorder::enabled();
        // parent [0, 1000), child [100, 400) -> parent self = 700.
        push_span(&rec, "parent", 0, None, 0, 0, 1000);
        push_span(&rec, "child", 1, Some(0), 0, 100, 300);
        let s = rec.summary().unwrap();
        let p = s.span("parent").unwrap();
        assert_eq!(p.total_ns, 1000);
        assert_eq!(p.self_ns, 700);
        assert_eq!(p.max_ns, 1000);
        let c = s.span("child").unwrap();
        assert_eq!(c.self_ns, 300);
        // Spans sorted by total time, descending.
        assert_eq!(s.spans[0].name, "parent");
    }

    #[test]
    fn summary_json_and_table_are_well_formed() {
        let rec = Recorder::enabled();
        push_span(&rec, "phase", 0, None, 0, 0, 1500);
        rec.add("traffic.halo_units", 123);
        rec.record("msg", 7);
        rec.record("msg", 0);
        let s = rec.summary().unwrap();
        let j = s.to_json();
        validate(&j).unwrap_or_else(|e| panic!("{e}\n{j}"));
        assert!(j.contains("\"traffic.halo_units\":123"));
        assert!(j.contains("\"sum\":7"));
        let t = s.render();
        assert!(t.contains("phase"));
        assert!(t.contains("traffic.halo_units"));
        assert!(t.contains("msg"));
        assert_eq!(s.counter("traffic.halo_units"), Some(123));
        assert_eq!(s.counter("absent"), None);
        let h = s.histogram("msg").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets, vec![(0, 0, 1), (4, 7, 1)]);
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let rec = Recorder::enabled();
        let trace = rec.chrome_trace().unwrap();
        validate(&trace).unwrap();
        let s = rec.summary().unwrap();
        assert!(s.spans.is_empty());
        let j = s.to_json();
        validate(&j).unwrap();
        assert_eq!(s.render(), "");
    }

    #[test]
    fn durations_format_human_readable() {
        assert_eq!(fmt_dur(12), "12ns");
        assert_eq!(fmt_dur(1_500), "1.5us");
        assert_eq!(fmt_dur(2_500_000), "2.50ms");
        assert_eq!(fmt_dur(3_200_000_000), "3.20s");
    }
}
