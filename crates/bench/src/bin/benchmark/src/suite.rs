//! The two whole-suite modes. Each run is a fresh child process of this
//! binary, so one workload's allocator state, page cache and peak
//! memory never leak into the next one's numbers.
//!
//! * [`suite`]: every workload once untraced and once traced — every
//!   metric by name, with its unit.
//! * [`aa`]: the untraced suite `K` times on one build, each time with
//!   another seed (the pipeline's own acceptance procedure), and per
//!   (end-to-end metric, workload) the relative inter-quartile spread
//!   and the regression bound that follows from it.

use crate::emit::{parse_metric_lines, MetricDef, END_TO_END, PER_LAYER};
use crate::run::OUT_DIR;
use crate::stats::{median, rel_iqr};
use crate::sys;
use crate::workload::Workload;
use std::process::Command;

/// A bound is three times the measured spread, but never under 5 % …
const BOUND_SPREAD_FACTOR: f64 = 3.0;
const BOUND_FLOOR: f64 = 0.05;
/// … and the pipeline accepts none above 25 %.
const BOUND_CEILING: f64 = 0.25;

/// Metrics one child run reported, or why it failed.
type ChildMetrics = Result<Vec<(String, f64)>, String>;

fn child(w: Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> ChildMetrics {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr goes to ours.
    let out = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let passed = text.lines().last().is_some_and(|l| l.starts_with("{\"correct\":true,"));
    if !out.status.success() || !passed {
        let why = text.lines().find(|l| l.starts_with("FAILED")).unwrap_or("no result line");
        return Err(format!("{} (seed {seed}, trace {}): {why}", w.name(), u8::from(trace)));
    }
    Ok(parse_metric_lines(&text))
}

fn print_table(title: &str, defs: &[MetricDef], columns: &[(Workload, Vec<(String, f64)>)]) {
    println!("\n{title}");
    print!("{:<28} {:>6}", "metric", "unit");
    for (w, _) in columns {
        print!(" {:>12}", w.name());
    }
    println!();
    for d in defs {
        print!("{:<28} {:>6}", d.name, d.unit);
        for (_, metrics) in columns {
            let v = metrics.iter().find(|(n, _)| n == d.name).map_or(0.0, |(_, v)| *v);
            print!(" {:>12.3}", v);
        }
        println!();
    }
}

/// Every workload, untraced then traced. True when every check passed.
pub fn suite(seed: u64, seconds: f64, smoke: bool) -> bool {
    let mut ok = true;
    for (trace, title, defs) in [
        (false, "end-to-end (untraced)", END_TO_END),
        (true, "per-layer (traced; 0 = the workload leaves that layer idle)", PER_LAYER),
    ] {
        let mut columns = Vec::new();
        for w in Workload::ALL {
            match child(*w, seed, seconds, trace, smoke) {
                Ok(metrics) => columns.push((*w, metrics)),
                Err(why) => {
                    println!("FAILED: {why}");
                    ok = false;
                }
            }
        }
        print_table(title, defs, &columns);
    }
    println!("\nsuite: seed {seed}, {}", if ok { "all checks passed" } else { "FAILED" });
    ok
}

/// One row of the A/A table.
struct Spread {
    workload: &'static str,
    metric: &'static str,
    median: f64,
    rel_iqr: f64,
    /// The metric's value in each run, in run order.
    values: Vec<f64>,
}

impl Spread {
    fn bound(&self) -> f64 {
        (BOUND_SPREAD_FACTOR * self.rel_iqr).clamp(BOUND_FLOOR, BOUND_CEILING)
    }
}

fn render_aa(k: usize, seed: u64, seconds: f64, rows: &[Spread]) -> String {
    let (cpus, ram_gb) = sys::host();
    let mut out = format!(
        "{{\"runs\": {k}, \"first_seed\": {seed}, \"seconds\": {seconds}, \
         \"host\": {{\"nproc\": {cpus}, \"ram_gib\": {ram_gb:.1}}},\n \"spreads\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let values: Vec<String> = r.values.iter().map(|v| format!("{v:.4}")).collect();
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"median\": {:.4}, \
             \"rel_iqr\": {:.4}, \"bound\": {:.4}, \"values\": [{}]}}{}\n",
            r.workload,
            r.metric,
            r.median,
            r.rel_iqr,
            r.bound(),
            values.join(", "),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str(" ]}\n");
    out
}

/// The untraced suite `k` times, run `i` with seed `seed + i`. Prints
/// and writes (`results/benchmark/aa.json`) the spread of every
/// (end-to-end metric, workload) and the bound it implies. True when
/// every run passed its checks.
pub fn aa(k: usize, seed: u64, seconds: f64, smoke: bool) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let mut runs = Vec::new();
        for i in 0..k as u64 {
            match child(*w, seed + i, seconds, false, smoke) {
                Ok(metrics) => runs.push(metrics),
                Err(why) => {
                    println!("FAILED: {why}");
                    ok = false;
                }
            }
        }
        for d in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| n == d.name).map(|(_, v)| *v))
                .collect();
            let row = Spread {
                workload: w.name(),
                metric: d.name,
                median: median(&values),
                rel_iqr: rel_iqr(&values),
                values,
            };
            println!(
                "aa {:<12} {:<16} median {:>12.4} {:<5} spread {:>6.2}%  bound {:>5.1}%",
                row.workload,
                row.metric,
                row.median,
                d.unit,
                row.rel_iqr * 100.0,
                row.bound() * 100.0
            );
            rows.push(row);
        }
    }
    // A metric has one bound in BENCHMARK.json: its widest over the workloads.
    for d in END_TO_END {
        let widest =
            rows.iter().filter(|r| r.metric == d.name).map(Spread::bound).fold(0.0, f64::max);
        println!("aa bound {:<16} {:.2}", d.name, widest);
    }
    let path = format!("{OUT_DIR}/aa.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, render_aa(k, seed, seconds, &rows)));
    match written {
        Ok(()) => println!("aa: wrote {path}"),
        Err(e) => {
            println!("FAILED: write {path}: {e}");
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_three_spreads_within_floor_and_ceiling() {
        let row = |rel_iqr| Spread {
            workload: "w",
            metric: "m",
            median: 1.0,
            rel_iqr,
            values: Vec::new(),
        };
        assert_eq!(row(0.001).bound(), 0.05);
        assert!((row(0.04).bound() - 0.12).abs() < 1e-12);
        assert_eq!(row(0.2).bound(), 0.25);
    }

    #[test]
    fn aa_file_records_host_and_rows() {
        let rows = [Spread {
            workload: "single-si",
            metric: "check_tps",
            median: 5.0,
            rel_iqr: 0.02,
            values: vec![4.9, 5.0, 5.1],
        }];
        let text = render_aa(3, 42, 8.0, &rows);
        assert!(text.contains("\"runs\": 3, \"first_seed\": 42"));
        assert!(text.contains("\"nproc\": "));
        assert!(text.contains("\"metric\": \"check_tps\", \"median\": 5.0000, \"rel_iqr\": 0.0200, \"bound\": 0.0600, \"values\": [4.9000, 5.0000, 5.1000]}"));
    }
}
