//! Exposition renderers: Prometheus text format and JSON over one
//! engine-stats snapshot plus an optional metrics-registry snapshot.
//!
//! Both renderers are cold paths (they allocate freely) fed by
//! `engine_load`'s `telemetry` scenario and by anything that wants to
//! scrape a node. The metric names are a wire contract — the README's metric
//! table and the CI smoke greps pin them — so they live in exactly two
//! places: [`Metric::name`] for the registry counters and the string
//! literals here for the snapshot-derived series.

use pooled_lab::histogram::LatencyHistogram;
use pooled_stats::summary::Summary;

use super::registry::{Metric, MetricsSnapshot};
use crate::engine::EngineStats;

fn counter(out: &mut String, name: &str, value: u64) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push_str(" counter\n");
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn gauge(out: &mut String, name: &str, value: u64) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push_str(" gauge\n");
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn summary_family(out: &mut String, name: &str, s: &Summary) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push_str(" gauge\n");
    for (stat, v) in [
        ("mean", s.mean()),
        ("min", if s.count() == 0 { 0.0 } else { s.min() }),
        ("max", if s.count() == 0 { 0.0 } else { s.max() }),
    ] {
        out.push_str(name);
        out.push_str("{stat=\"");
        out.push_str(stat);
        out.push_str("\"} ");
        out.push_str(&format!("{v}"));
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&s.count().to_string());
    out.push('\n');
}

fn histogram_family(out: &mut String, name: &str, h: &LatencyHistogram) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push_str(" histogram\n");
    let mut cumulative = 0u64;
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        if c == 0 {
            continue; // sparse exposition: only occupied buckets
        }
        cumulative = cumulative.saturating_add(c);
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&LatencyHistogram::bucket_upper_micros(i).to_string());
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&h.sum_micros().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count().to_string());
    out.push('\n');
}

/// Render a Prometheus text-format exposition of `stats`, plus every
/// registry counter when `metrics` is provided.
///
/// With a registry snapshot the per-outcome job counters come from it
/// (the registry is their source of truth; the snapshot fields mirror
/// it). Without one — e.g. a merged cluster view, where no single
/// registry exists — the three engine-observable counters fall back to
/// the snapshot fields so the exposition stays complete.
pub fn render_prometheus(stats: &EngineStats, metrics: Option<&MetricsSnapshot>) -> String {
    let mut out = String::with_capacity(4096);
    match metrics {
        Some(snap) => {
            for m in Metric::ALL {
                if m.is_gauge() {
                    gauge(&mut out, m.name(), snap.get(m));
                } else {
                    counter(&mut out, m.name(), snap.get(m));
                }
            }
        }
        None => {
            counter(&mut out, Metric::JobsCompleted.name(), stats.jobs_completed);
            counter(&mut out, Metric::JobsPoisoned.name(), stats.jobs_poisoned);
            counter(&mut out, Metric::ExactRecoveries.name(), stats.exact_recoveries);
        }
    }
    counter(&mut out, "pooled_cache_hits_total", stats.cache_hits);
    counter(&mut out, "pooled_cache_misses_total", stats.cache_misses);
    gauge(&mut out, "pooled_cache_len", stats.cache_len as u64);
    gauge(&mut out, "pooled_queued_jobs", stats.queued_jobs as u64);
    gauge(&mut out, "pooled_pending_results", stats.pending_results as u64);
    gauge(&mut out, "pooled_workers", stats.workers as u64);
    summary_family(&mut out, "pooled_total_latency_micros", &stats.total_latency);
    summary_family(&mut out, "pooled_decode_latency_micros", &stats.decode_latency);
    histogram_family(&mut out, "pooled_job_latency_micros", &stats.histogram);
    out
}

fn json_field(out: &mut String, first: &mut bool, name: &str, value: String) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    out.push_str(&value);
}

/// Render the same exposition as a flat JSON object (name → number),
/// with the latency summaries expanded to `_mean`/`_min`/`_max`/`_count`
/// fields and the histogram reduced to `_p50`/`_p95`/`_p99`/`_count`.
pub fn render_json(stats: &EngineStats, metrics: Option<&MetricsSnapshot>) -> String {
    let mut out = String::with_capacity(2048);
    out.push('{');
    let mut first = true;
    match metrics {
        Some(snap) => {
            for (name, value) in snap.iter() {
                json_field(&mut out, &mut first, name, value.to_string());
            }
        }
        None => {
            json_field(
                &mut out,
                &mut first,
                Metric::JobsCompleted.name(),
                stats.jobs_completed.to_string(),
            );
            json_field(
                &mut out,
                &mut first,
                Metric::JobsPoisoned.name(),
                stats.jobs_poisoned.to_string(),
            );
            json_field(
                &mut out,
                &mut first,
                Metric::ExactRecoveries.name(),
                stats.exact_recoveries.to_string(),
            );
        }
    }
    json_field(&mut out, &mut first, "pooled_cache_hits_total", stats.cache_hits.to_string());
    json_field(&mut out, &mut first, "pooled_cache_misses_total", stats.cache_misses.to_string());
    json_field(&mut out, &mut first, "pooled_cache_len", stats.cache_len.to_string());
    json_field(&mut out, &mut first, "pooled_queued_jobs", stats.queued_jobs.to_string());
    json_field(&mut out, &mut first, "pooled_pending_results", stats.pending_results.to_string());
    json_field(&mut out, &mut first, "pooled_workers", stats.workers.to_string());
    for (name, s) in [
        ("pooled_total_latency_micros", &stats.total_latency),
        ("pooled_decode_latency_micros", &stats.decode_latency),
    ] {
        json_field(&mut out, &mut first, &format!("{name}_mean"), format!("{}", s.mean()));
        let (min, max) = if s.count() == 0 { (0.0, 0.0) } else { (s.min(), s.max()) };
        json_field(&mut out, &mut first, &format!("{name}_min"), format!("{min}"));
        json_field(&mut out, &mut first, &format!("{name}_max"), format!("{max}"));
        json_field(&mut out, &mut first, &format!("{name}_count"), s.count().to_string());
    }
    let h = &stats.histogram;
    for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let v = if h.count() == 0 { 0 } else { h.quantile_micros(q) };
        json_field(
            &mut out,
            &mut first,
            &format!("pooled_job_latency_micros_{label}"),
            v.to_string(),
        );
    }
    json_field(&mut out, &mut first, "pooled_job_latency_micros_count", h.count().to_string());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::registry::MetricsRegistry;

    fn stats() -> EngineStats {
        let mut s = EngineStats::zero();
        s.jobs_completed = 10;
        s.exact_recoveries = 9;
        s.cache_hits = 8;
        s.cache_misses = 2;
        s.cache_len = 2;
        s.workers = 4;
        for i in 0..10u64 {
            s.total_latency.push(4_000.0 + i as f64);
            s.decode_latency.push(300.0 + i as f64);
            s.histogram.record_micros(4_000 + i);
        }
        s
    }

    #[test]
    fn prometheus_exposition_has_every_family_and_parses_line_wise() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::JobsCompleted, 10);
        reg.add(Metric::WireBytesTx, 880);
        reg.add(Metric::WalAppends, 7);
        reg.add(Metric::WalBytes, 336);
        reg.add(Metric::RecoveryRecordsReplayed, 5);
        let snap = reg.snapshot();
        let text = render_prometheus(&stats(), Some(&snap));
        for needle in [
            "pooled_jobs_completed_total 10",
            "pooled_wire_bytes_tx_total 880",
            "pooled_jobs_failed_over_total 0",
            "pooled_wal_appends_total 7",
            "pooled_wal_bytes_total 336",
            "pooled_wal_fsyncs_total 0",
            "pooled_wal_segments_compacted_total 0",
            "pooled_recovery_records_replayed_total 5",
            "pooled_recovery_torn_tail_total 0",
            "pooled_cache_hits_total 8",
            "pooled_workers 4",
            "pooled_total_latency_micros{stat=\"mean\"}",
            "pooled_job_latency_micros_bucket{le=\"+Inf\"} 10",
            "pooled_job_latency_micros_count 10",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every line is a comment or `name[{labels}] value` with a
        // numeric value — the shape a Prometheus scraper requires.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value in {line:?}");
        }
        // Histogram buckets are cumulative and end at the total count.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
        assert_eq!(last, 10);
    }

    #[test]
    fn transport_metrics_expose_with_gauge_and_counter_types() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::TransportConnections, 12);
        reg.dec(Metric::TransportConnections);
        reg.add(Metric::ReactorWakeups, 41);
        reg.inc(Metric::ReactorReadBudgetExhausted);
        reg.inc(Metric::TransportIdleEvictions);
        let snap = reg.snapshot();
        let text = render_prometheus(&stats(), Some(&snap));
        for needle in [
            "# TYPE pooled_transport_connections gauge\npooled_transport_connections 11",
            "# TYPE pooled_reactor_wakeups_total counter\npooled_reactor_wakeups_total 41",
            "pooled_reactor_read_budget_exhausted_total 1",
            "pooled_transport_idle_evictions_total 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let json = render_json(&stats(), Some(&snap));
        assert!(json.contains("\"pooled_transport_connections\":11"), "{json}");
        assert!(json.contains("\"pooled_reactor_wakeups_total\":41"), "{json}");
        assert!(json.contains("\"pooled_reactor_read_budget_exhausted_total\":1"), "{json}");
        assert!(json.contains("\"pooled_transport_idle_evictions_total\":1"), "{json}");
    }

    #[test]
    fn readiness_metrics_expose_in_both_formats() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::TransportTicks, 500);
        reg.add(Metric::TransportReadyFds, 750);
        reg.add(Metric::TransportWritevCalls, 320);
        reg.add(Metric::TransportPartialWrites, 6);
        let snap = reg.snapshot();
        let text = render_prometheus(&stats(), Some(&snap));
        for needle in [
            "# TYPE pooled_transport_ticks_total counter\npooled_transport_ticks_total 500",
            "pooled_transport_ready_fds_total 750",
            "pooled_transport_writev_calls_total 320",
            "pooled_transport_partial_writes_total 6",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let json = render_json(&stats(), Some(&snap));
        for needle in [
            "\"pooled_transport_ticks_total\":500",
            "\"pooled_transport_ready_fds_total\":750",
            "\"pooled_transport_writev_calls_total\":320",
            "\"pooled_transport_partial_writes_total\":6",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
    }

    #[test]
    fn without_a_registry_the_engine_counters_fall_back_to_the_snapshot() {
        let text = render_prometheus(&stats(), None);
        assert!(text.contains("pooled_jobs_completed_total 10"));
        assert!(text.contains("pooled_exact_recoveries_total 9"));
        assert!(!text.contains("pooled_wire_bytes_tx_total"), "no registry, no wire counters");
    }

    #[test]
    fn json_exposition_carries_the_wal_counters() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::WalAppends, 3);
        reg.inc(Metric::RecoveryTornTail);
        let snap = reg.snapshot();
        let text = render_json(&stats(), Some(&snap));
        assert!(text.contains("\"pooled_wal_appends_total\":3"), "{text}");
        assert!(text.contains("\"pooled_recovery_torn_tail_total\":1"), "{text}");
        assert!(text.contains("\"pooled_wal_fsyncs_total\":0"), "{text}");
    }

    #[test]
    fn json_exposition_is_balanced_and_complete() {
        let text = render_json(&stats(), None);
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"pooled_jobs_completed_total\":10"));
        assert!(text.contains("\"pooled_job_latency_micros_p95\":"));
        assert!(text.contains("\"pooled_total_latency_micros_count\":10"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn empty_stats_render_without_panicking() {
        let empty = EngineStats::zero();
        let text = render_prometheus(&empty, None);
        assert!(text.contains("pooled_job_latency_micros_count 0"));
        let json = render_json(&empty, None);
        assert!(json.contains("\"pooled_job_latency_micros_p50\":0"));
        // min/max render as 0, not ±Inf (which JSON cannot carry).
        assert!(!json.contains("inf"), "no infinities in JSON: {json}");
    }
}
