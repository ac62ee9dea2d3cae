//! Metric names, units and directions, and the two emitters: the table
//! a person reads and the one-line JSON result the pipeline reads.
//!
//! `BENCHMARK.json` repeats the names and units below (a test keeps the
//! two in step); the regression bounds live only there.

/// A metric the benchmark can report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the checkers sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("check_tps", "1/s", "higher"),
    def("batch_p50_ms", "ms", "lower"),
    def("cpu_us_per_txn", "us", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("setup_s", "s", "lower"),
];

/// One layer each; reported by every traced run. A layer a workload
/// leaves idle reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // End to end, but without a bound: a neighbour on the shared host
    // doubles the daemon's tail for minutes at a time (85 % spread in
    // one A/A set of four), more than any bound the pipeline accepts.
    def("batch_p95_ms", "ms", "lower"),
    def("workload.gen_s", "s", "lower"),
    def("workload.plan_s", "s", "lower"),
    def("io.encode_jsonl_s", "s", "lower"),
    def("io.encode_bin_s", "s", "lower"),
    def("io.decode_jsonl_us_per_txn", "us", "lower"),
    def("io.decode_bin_us_per_txn", "us", "lower"),
    def("io.jsonl_bytes_per_txn", "B", "lower"),
    def("io.bin_bytes_per_txn", "B", "lower"),
    def("online.build_ms", "ms", "lower"),
    def("online.tick_us_per_txn", "us", "lower"),
    def("online.feed_us_per_txn", "us", "lower"),
    def("online.drain_ms", "ms", "lower"),
    def("online.finish_ms", "ms", "lower"),
    def("online.harness_us_per_txn", "us", "lower"),
    def("online.feed_p999_us", "us", "lower"),
    def("online.inorder_us_per_txn", "us", "lower"),
    def("online.reevaluations", "count", "lower"),
    def("online.flips", "count", "lower"),
    def("online.events_on_us_per_txn", "us", "lower"),
    def("online.allocs_per_txn", "count", "lower"),
    def("online.alloc_bytes_per_txn", "B", "lower"),
    def("online.est_bytes_per_txn", "B", "lower"),
    def("online.mem_estimate_us", "us", "lower"),
    def("gc.spill_passes", "count", "lower"),
    def("gc.spilled_txns", "count", "lower"),
    def("gc.reloaded_txns", "count", "lower"),
    def("gc.spill_bytes", "B", "lower"),
    def("gc.peak_resident_txns", "count", "lower"),
    def("gc.pass_ms_p50", "ms", "lower"),
    def("gc.pass_ms_max", "ms", "lower"),
    def("gc.nogc_us_per_txn", "us", "lower"),
    def("mixed.policy_us_per_txn", "us", "lower"),
    def("mixed.share_rc", "%", "higher"),
    def("mixed.share_ra", "%", "higher"),
    def("mixed.share_si", "%", "higher"),
    def("sharded.route_us_per_txn", "us", "lower"),
    def("sharded.parts_per_txn", "count", "lower"),
    def("sharded.cross_shard_share", "%", "lower"),
    def("sharded.skew", "ratio", "lower"),
    def("sharded.submit_us_per_txn", "us", "lower"),
    def("sharded.drain_ms", "ms", "lower"),
    def("sharded.shards1_tps", "1/s", "higher"),
    def("sharded.cpu_ratio", "ratio", "lower"),
    def("serve.ping_rtt_us", "us", "lower"),
    def("serve.open_ms", "ms", "lower"),
    def("serve.finish_ms", "ms", "lower"),
    def("serve.inproc_us_per_txn", "us", "lower"),
    def("serve.wire_us_per_txn", "us", "lower"),
    def("serve.stream_tps", "1/s", "higher"),
    def("serve.events_on_tps", "1/s", "higher"),
    def("serve.reply_events_per_txn", "count", "lower"),
    def("snapshot.checkpoint_ms", "ms", "lower"),
    def("snapshot.restore_ms", "ms", "lower"),
    def("snapshot.bytes_per_txn", "B", "lower"),
    def("chronos.load_ms", "ms", "lower"),
    def("chronos.sort_ms", "ms", "lower"),
    def("chronos.check_ms", "ms", "lower"),
    def("chronos.gc_ms", "ms", "lower"),
    def("chronos.peak_open_txns", "count", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Outcome of one run, as the pipeline's contract wants it.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    /// Transactions fed over the timed repetitions.
    pub attempted: u64,
    /// Of those, transactions in a repetition whose output check failed.
    pub failed: u64,
    pub metrics: Metrics,
}

fn json_number(v: f64) -> String {
    // JSON has no NaN or infinity; a metric that came out as one is a
    // harness bug, reported as 0 next to `correct: false`.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed`, `metrics`; every metric of `defs` present, idle ones as 0.
pub fn result_json(r: &RunResult, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = r.metrics.get(d.name).unwrap_or(0.0);
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", d.name, json_number(v), d.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

/// One `metric <name> <value> <unit>` line per metric of `defs`: for
/// people, and for the suite mode, which reads them back from its
/// child processes.
pub fn metric_lines(r: &RunResult, defs: &[MetricDef]) -> String {
    let width = defs.iter().map(|d| d.name.len()).max().unwrap_or(0);
    defs.iter()
        .map(|d| {
            let v = r.metrics.get(d.name).unwrap_or(0.0);
            format!("metric {:<width$} {:>14.4} {}\n", d.name, v, d.unit)
        })
        .collect()
}

/// Parse [`metric_lines`] output (other lines are skipped).
pub fn parse_metric_lines(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some("metric"), Some(name), Some(v)) => Some((name.to_owned(), v.parse().ok()?)),
                _ => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut metrics = Metrics::default();
        metrics.set("check_tps", 51234.5678);
        metrics.set("setup_s", 0.5);
        metrics.set("setup_s", 0.75);
        RunResult { correct: true, attempted: 1000, failed: 0, metrics }
    }

    #[test]
    fn json_has_exactly_the_contract_keys_and_every_metric() {
        let line = result_json(&sample(), END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"check_tps\":{\"value\":51234.5678,\"unit\":\"1/s\"}"));
        assert!(line.contains("\"setup_s\":{\"value\":0.75,\"unit\":\"s\"}"));
        // Unset metrics are present, as 0.
        assert!(line.contains("\"peak_rss_mb\":{\"value\":0,\"unit\":\"MiB\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert!(!line.contains('\n') && line.ends_with("}}"));
    }

    #[test]
    fn json_never_prints_nan_or_zero_attempts() {
        let mut r = sample();
        r.attempted = 0;
        r.metrics.set("batch_p50_ms", f64::NAN);
        let line = result_json(&r, END_TO_END);
        assert!(line.contains("\"attempted\":1,"));
        assert!(line.contains("\"batch_p50_ms\":{\"value\":0,"));
    }

    #[test]
    fn metric_lines_round_trip() {
        let text = format!("setup 3 reps\n{}done\n", metric_lines(&sample(), END_TO_END));
        let parsed = parse_metric_lines(&text);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("check_tps".to_owned(), 51234.5678));
        assert_eq!(parsed[4], ("setup_s".to_owned(), 0.75));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| *d == def("setup_s", "s", "lower")));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` is the pipeline's copy of the tables above.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
        for w in crate::workload::Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
    }
}
