//! `perfbench`: the repository benchmark. Drives `pooled_engine` from
//! outside through its public API on three named workloads and prints
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload single_large --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod check;
mod cluster_tcp;
mod cold_churn;
mod gen;
mod instruments;
mod open_loop;
mod phase;
mod probes;
mod single_large;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::check::{CheckOutcome, DesignBank};
use crate::phase::{Completion, Phase, PhaseConfig};
use crate::stats::{quantile, sliced_median, sliced_tail, sorted};

#[global_allocator]
static ALLOC: instruments::CountingAlloc = instruments::CountingAlloc;

/// Where runs leave spans and scratch state, relative to the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

/// Set-ups per untraced run; the median is reported.
const SETUP_REPS: usize = 5;
/// Share of the window the traced run spends untraced, to measure the
/// tracing overhead against. Equal halves keep the two phases alike.
const UNTRACED_SHARE: f64 = 0.5;
/// Requests per slice of the sliced median latency.
const P50_SLICE: usize = 100;
/// The output check may spend this share of the window.
const CHECK_SHARE: f64 = 0.5;

/// End-to-end metrics (name, unit), printed by the untraced run.
///
/// Latency, `latency_p50_ms` and `latency_p99_ms`, is printed too, but as
/// notes: on a shared host `cluster_tcp`'s p50 spread by up to 0.47 of its
/// median over ten seeds and the tails by up to 0.66, more than any
/// bound could absorb, so they carry none. The closed-loop workloads'
/// `jobs_per_s` is their latency's inverse and carries the bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("exact_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_job", "ms"),
];

/// Per-layer metrics (name, unit), printed by the traced run. Layers a
/// workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("worker.service_us.p50", "us"),
    ("worker.decode_us.p50", "us"),
    ("worker.signal_us", "us"),
    ("worker.query_us", "us"),
    ("worker.attributed_ratio", "ratio"),
    ("worker.batch_us_per_lane", "us"),
    ("design.nnz_per_job", "count"),
    ("design.index_bytes_per_job", "bytes"),
    ("registry.decode_us.mn", "us"),
    ("registry.decode_us.mn_general", "us"),
    ("registry.decode_us.threshold_mn", "us"),
    ("queue.wait_us.p50", "us"),
    ("queue.wait_us.p99", "us"),
    ("engine.handoff_us.p50", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses", "count"),
    ("cache.hit_us", "us"),
    ("design.sample_ms.random_regular", "ms"),
    ("design.sample_ms.no_replace", "ms"),
    ("design.sample_ms.bernoulli", "ms"),
    ("design.sample_ms.entry_regular", "ms"),
    ("wal.appends_per_job", "count"),
    ("wal.bytes_per_job", "bytes"),
    ("snapshot.spill_ms", "ms"),
    ("snapshot.bytes_per_miss", "bytes"),
    ("recovery.ms", "ms"),
    ("recovery.snapshots_loaded", "count"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("transport.wire_us.p50", "us"),
    ("transport.wire_us.p99", "us"),
    ("transport.ticks_per_job", "count"),
    ("transport.ready_fds_per_tick", "count"),
    ("transport.writev_per_job", "count"),
    ("transport.bytes_per_job", "bytes"),
    ("transport.stalls_over_100ms", "count"),
    ("cluster.busy_retries", "count"),
    ("cluster.stale_events", "count"),
    ("cluster.node_share_max", "ratio"),
    ("gen.late_us.p99", "us"),
    ("alloc.per_job", "count"),
    ("alloc.bytes_per_job", "bytes"),
    ("trace.overhead_pct", "%"),
    ("span.request.self_us.p50", "us"),
    ("span.queue.self_us.p50", "us"),
    ("span.cache.self_us.p50", "us"),
    ("span.service.self_us.p50", "us"),
    ("span.decode.self_us.p50", "us"),
    ("spans.missing", "count"),
    ("check.checked", "count"),
    ("jobs_per_s.traced", "1/s"),
    ("jobs_per_s.untraced", "1/s"),
    ("latency_p50_ms.traced", "ms"),
    ("latency_tail_ms.traced", "ms"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    SingleLarge,
    ClusterTcp,
    ColdChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "single_large" => Some(Self::SingleLarge),
            "cluster_tcp" => Some(Self::ClusterTcp),
            "cold_churn" => Some(Self::ColdChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::SingleLarge => "single_large",
            Self::ClusterTcp => "cluster_tcp",
            Self::ColdChurn => "cold_churn",
        }
    }

    fn run(self, cfg: &PhaseConfig) -> Phase {
        match self {
            Self::SingleLarge => single_large::run(cfg),
            Self::ClusterTcp => cluster_tcp::run(cfg),
            Self::ColdChurn => cold_churn::run(cfg),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn lookup(table: &[(&'static str, &'static str)], values: Vec<(&'static str, f64)>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            Metric { name, unit, value }
        })
        .collect()
}

/// Failures of a checked phase: lost requests, poisoned results and
/// fingerprint mismatches.
fn failures(phase: &Phase, check: &CheckOutcome) -> u64 {
    phase.lost + (check.poisoned + check.mismatches) as u64
}

/// Caller-observed latencies (µs) in request order.
fn in_start_order(phase: &Phase) -> Vec<f64> {
    let mut by_start = phase.completions.clone();
    by_start.sort_by_key(|c| c.start);
    by_start.iter().map(Completion::latency_us).collect()
}

/// The [`PER_LAYER`] name `prefix` + `suffix`.
fn named(prefix: &str, suffix: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_prefix(prefix) == Some(suffix))
        .unwrap_or_else(|| panic!("no per-layer metric {prefix}{suffix}"))
}

fn untraced(args: &Args) -> Outcome {
    let cfg = PhaseConfig {
        seed: args.seed,
        seconds: args.seconds,
        setup_reps: SETUP_REPS,
        traced: false,
    };
    let phase = args.workload.run(&cfg);
    // Before the output check, whose own designs would count.
    let peak_rss_mb = instruments::peak_rss_mb();
    let mut bank = DesignBank::default();
    let check = check::verify(&phase, CHECK_SHARE * args.seconds, args.seed, &mut bank);
    let failed = failures(&phase, &check);
    let lat = in_start_order(&phase);
    let (p99, slices) = sliced_tail(&lat);
    let jobs = phase.completions.len().max(1) as f64;
    let exact = phase.completions.iter().filter(|c| c.result.exact).count() as f64;
    let values = vec![
        ("jobs_per_s", phase.jobs_per_s()),
        ("exact_rate", exact / jobs),
        ("setup_s", phase.setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("cpu_ms_per_job", phase.cpu_ms_per_job()),
    ];
    let notes = vec![
        format!("latency_p50_ms = {} ms", sliced_median(&lat, P50_SLICE) / 1e3),
        format!(
            "latency_p99_ms = {} ms: the median over {slices} slices of p{} over {} samples \
             ({} beyond it)",
            p99.value / 1e3,
            p99.percentile,
            p99.samples,
            p99.beyond
        ),
        format!(
            "error_rate = {} ({failed} failed of {} attempted)",
            failed as f64 / phase.attempted.max(1) as f64,
            phase.attempted
        ),
        format!(
            "output check: {} of {} results, {} mismatches",
            check.checked,
            phase.completions.len(),
            check.mismatches
        ),
    ];
    Outcome { attempted: phase.attempted, failed, metrics: lookup(&END_TO_END, values), notes }
}

fn traced(args: &Args) -> Outcome {
    let workload = args.workload;
    let base = PhaseConfig {
        seed: args.seed,
        seconds: args.seconds * UNTRACED_SHARE,
        setup_reps: 1,
        traced: false,
    };
    let plain = workload.run(&base);
    let cfg = PhaseConfig { seconds: args.seconds * (1.0 - UNTRACED_SHARE), traced: true, ..base };
    let phase = workload.run(&cfg);
    let mut bank = DesignBank::default();
    let check = check::verify(&phase, CHECK_SHARE * cfg.seconds, args.seed, &mut bank);
    let failed = failures(&phase, &check);

    let (rows, missing) = trace::build(&phase);
    let span_path = PathBuf::from(OUT_DIR).join("spans").join(format!(
        "{}-seed{}.jsonl",
        workload.name(),
        args.seed
    ));
    trace::write(&rows, &span_path).expect("write the span file");
    let self_times = trace::self_times(&rows);

    let decomposition = probes::decompose(&phase.gen, &mut bank, 1.0);
    let (nnz, index_bytes) = probes::design_counts(&phase, &mut bank);
    let registry = probes::registry_decode_us(args.seed, &mut bank);
    let sample = probes::sample_ms(args.seed);
    let (encode_ns, decode_ns) = probes::frame_ns(&phase);
    let probe_dir = cfg.scratch_dir(workload.name(), "probe");
    let spill = probes::spill_ms(args.seed, &mut bank, &probe_dir);

    let jobs = phase.completions.len().max(1) as f64;
    let service = sorted(phase.completions.iter().map(Completion::service_us));
    let decode = sorted(phase.completions.iter().map(|c| c.result.decode_micros as f64));
    let queue = sorted(phase.completions.iter().map(|c| c.result.queue_micros as f64));
    let handoff = sorted(phase.completions.iter().map(Completion::outside_engine_us));
    let overhead_pct = if phase.open_loop {
        // The offered rate fixes throughput; tracing shows up as CPU.
        (phase.cpu_ms_per_job() / plain.cpu_ms_per_job() - 1.0) * 100.0
    } else {
        (1.0 - phase.jobs_per_s() / plain.jobs_per_s()) * 100.0
    };
    let accesses = (phase.cache_hits + phase.cache_misses).max(1) as f64;
    let traced_lat = in_start_order(&phase);
    let mut values = vec![
        ("worker.service_us.p50", quantile(&service, 0.5)),
        ("worker.decode_us.p50", quantile(&decode, 0.5)),
        ("worker.signal_us", decomposition.signal_us / decomposition.jobs as f64),
        ("worker.query_us", decomposition.query_us / decomposition.jobs as f64),
        ("worker.attributed_ratio", decomposition.attributed_ratio),
        ("worker.batch_us_per_lane", probes::batch_us_per_lane(&phase.gen, &mut bank)),
        ("design.nnz_per_job", nnz),
        ("design.index_bytes_per_job", index_bytes),
        ("queue.wait_us.p50", quantile(&queue, 0.5)),
        ("queue.wait_us.p99", quantile(&queue, 0.99)),
        ("engine.handoff_us.p50", quantile(&handoff, 0.5)),
        ("cache.hit_rate", phase.cache_hits as f64 / accesses),
        ("cache.misses", phase.cache_misses as f64),
        ("cache.hit_us", probes::cache_hit_us(args.seed)),
        ("snapshot.spill_ms", spill),
        ("frame.encode_ns", encode_ns),
        ("frame.decode_ns", decode_ns),
        ("alloc.per_job", phase.alloc.allocs as f64 / jobs),
        ("alloc.bytes_per_job", phase.alloc.bytes as f64 / jobs),
        ("trace.overhead_pct", overhead_pct),
        ("spans.missing", missing as f64),
        ("check.checked", check.checked as f64),
        ("jobs_per_s.traced", phase.jobs_per_s()),
        ("jobs_per_s.untraced", plain.jobs_per_s()),
        ("latency_p50_ms.traced", sliced_median(&traced_lat, P50_SLICE) / 1e3),
        ("latency_tail_ms.traced", sliced_tail(&traced_lat).0.value / 1e3),
    ];
    values.extend(registry.iter().map(|&(k, us)| (named("registry.decode_us.", k.name()), us)));
    values.extend(sample.iter().map(|&(k, ms)| (named("design.sample_ms.", k.name()), ms)));
    values.extend(
        self_times.iter().map(|&(span, us)| (named(&format!("span.{span}."), "self_us.p50"), us)),
    );
    values.extend(phase.live.iter().copied());

    let notes = vec![
        format!("spans: {} rows written to {}", rows.len(), span_path.display()),
        format!(
            "decomposition over {} jobs: signal {:.1} us + query {:.1} us + decode {:.1} us \
             of process_job {:.1} us",
            decomposition.jobs,
            decomposition.signal_us / decomposition.jobs as f64,
            decomposition.query_us / decomposition.jobs as f64,
            decomposition.decode_us / decomposition.jobs as f64,
            decomposition.job_us / decomposition.jobs as f64,
        ),
        format!(
            "output check: {} of {} results, {} mismatches",
            check.checked,
            phase.completions.len(),
            check.mismatches
        ),
    ];
    Outcome { attempted: phase.attempted, failed, metrics: lookup(&PER_LAYER, values), notes }
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    instruments::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload single_large|cluster_tcp|cold_churn --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { traced(&args) } else { untraced(&args) };
    println!(
        "# {} seed {} ({} run)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", json(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names in `BENCHMARK.json`, in file order.
    fn declared_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        text.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let workloads = ["single_large", "cluster_tcp", "cold_churn"];
        for w in workloads {
            assert_eq!(Workload::parse(w).map(Workload::name), Some(w));
        }
        let printed: Vec<&str> = workloads
            .into_iter()
            .chain(END_TO_END.iter().map(|&(n, _)| n))
            .chain(PER_LAYER.iter().map(|&(n, _)| n))
            .collect();
        assert_eq!(declared_names(), printed);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "setup_s", unit: "s", value: 0.25 }],
            notes: Vec::new(),
        };
        assert_eq!(
            json(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
