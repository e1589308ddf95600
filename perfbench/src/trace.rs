//! Spans of the traced run, rebuilt after the window from what the
//! benchmark timed itself (the request) and what the engine reported
//! (result fields plus its `JobTrace` points, read through
//! `flight_recorder()`). Spans live in memory and are written out once,
//! one JSON object per line.
//!
//! Tree of one request (its id is the job id):
//!
//! ```text
//! request      [start, observed]                 caller's view
//! ├─ queue     [dequeue − queue_micros, dequeue]  result field, JobTrace anchor
//! ├─ cache     [dequeue, cache_probe]             JobTrace points
//! └─ service   [cache_probe, + service]           result total − queue
//!    └─ decode [decode_end − decode_micros, decode_end]
//! ```
//!
//! The request's self time is what no engine span covers: hand-off in
//! process, or wire and event loops over TCP. The service's self time is
//! signal draw, query execution and scoring.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use pooled_engine::telemetry::Span;
use pooled_engine::JobTrace;

use crate::phase::Phase;
use crate::stats::median;

/// Span names in tree order.
pub const SPANS: [&str; 5] = ["request", "queue", "cache", "service", "decode"];

fn parent(name: &str) -> Option<&'static str> {
    match name {
        "request" => None,
        "decode" => Some("service"),
        _ => Some("request"),
    }
}

/// One recorded span; times in µs from the phase's first send.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRow {
    pub trace: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRow {
    fn dur(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Signed µs from `base` to `t`.
fn rel_us(t: Instant, base: Instant) -> f64 {
    match t.checked_duration_since(base) {
        Some(d) => d.as_secs_f64() * 1e6,
        None => -(base.duration_since(t).as_secs_f64() * 1e6),
    }
}

/// The traced phase's spans, plus how many requests had no engine trace.
pub fn build(phase: &Phase) -> (Vec<SpanRow>, usize) {
    let base = phase.completions.iter().map(|c| c.start).min().unwrap_or_else(Instant::now);
    // Each engine stamps on its own recorder clock: job id → (trace,
    // offset of that recorder's epoch from `base`).
    let mut traces: HashMap<u64, (JobTrace, f64)> = HashMap::new();
    for recorder in &phase.recorders {
        let offset = rel_us(recorder.epoch(), base);
        for t in recorder.traces().into_iter().flatten() {
            traces.insert(t.id, (t, offset));
        }
    }
    let mut rows = Vec::with_capacity(phase.completions.len() * SPANS.len());
    let mut missing = 0;
    for c in &phase.completions {
        let r = &c.result;
        let id = r.id;
        rows.push(SpanRow {
            trace: id,
            name: "request",
            start_us: rel_us(c.start, base),
            end_us: rel_us(c.observed, base),
        });
        let points = traces.get(&id).and_then(|(t, off)| {
            let at = |s: Span| t.span_micros(s).map(|v| v as f64 + off);
            Some((at(Span::Dequeue)?, at(Span::CacheProbe)?, at(Span::DecodeEnd)?))
        });
        let Some((dequeue, probe, decode_end)) = points else {
            missing += 1;
            continue;
        };
        let queue = r.queue_micros as f64;
        let service = r.total_micros.saturating_sub(r.queue_micros) as f64;
        let decode = r.decode_micros as f64;
        let mut push = |name, start_us: f64, end_us: f64| {
            rows.push(SpanRow { trace: id, name, start_us, end_us })
        };
        push("queue", dequeue - queue, dequeue);
        push("cache", dequeue, probe);
        push("service", probe, probe + service);
        push("decode", decode_end - decode, decode_end);
    }
    (rows, missing)
}

/// Median self time (µs) of each span name: its duration minus its
/// children's, over every trace that has it.
pub fn self_times(rows: &[SpanRow]) -> Vec<(&'static str, f64)> {
    let mut child_sum: HashMap<(u64, &str), f64> = HashMap::new();
    for row in rows {
        if let Some(p) = parent(row.name) {
            *child_sum.entry((row.trace, p)).or_default() += row.dur();
        }
    }
    SPANS
        .iter()
        .map(|&name| {
            let selfs = rows.iter().filter(|r| r.name == name).map(|r| {
                (r.dur() - child_sum.get(&(r.trace, name)).copied().unwrap_or(0.0)).max(0.0)
            });
            (name, median(selfs))
        })
        .collect()
}

/// Write `rows` as JSON lines to `path`.
pub fn write(rows: &[SpanRow], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for row in rows {
        let parent = parent(row.name).map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"trace\":{},\"span\":\"{}\",\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            row.trace, row.name, parent, row.start_us, row.end_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(trace: u64, name: &'static str, start_us: f64, end_us: f64) -> SpanRow {
        SpanRow { trace, name, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let rows = vec![
            row(1, "request", 0.0, 100.0),
            row(1, "queue", 5.0, 15.0),
            row(1, "cache", 15.0, 17.0),
            row(1, "service", 17.0, 87.0),
            row(1, "decode", 40.0, 80.0),
        ];
        let got: HashMap<_, _> = self_times(&rows).into_iter().collect();
        assert_eq!(got["request"], 100.0 - 10.0 - 2.0 - 70.0);
        assert_eq!(got["service"], 70.0 - 40.0);
        assert_eq!(got["decode"], 40.0);
        assert_eq!(got["queue"], 10.0);
    }
}
