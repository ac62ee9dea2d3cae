//! `experiments dst`: the deterministic-simulation seed sweep as a CLI.
//!
//! ```text
//! experiments dst [--seeds N] [--seed S] [--start S] \
//!                 [--schedule random|pathological] [--fast] [--out FILE]
//! ```
//!
//! Runs `aion_dst::check_seed` over a seed range (default 100 seeds
//! from 0). Every failing seed prints a one-line repro command and is
//! appended to `--out` (the CI failure artifact); the process exits
//! non-zero if any seed failed. `--seed S` replays exactly one seed —
//! the repro path.

use aion_dst::{check_seed, run_seeds, DstOptions, ScheduleKind};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments dst [--seeds N] [--seed S] [--start S] \
         [--schedule random|pathological] [--fast] [--out FILE]"
    );
    std::process::exit(2);
}

/// Entry point for `experiments dst`.
pub fn dst_cmd(args: &[String]) {
    let mut opts = DstOptions::default();
    let mut seeds: u64 = 100;
    let mut start: u64 = 0;
    let mut single_seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seeds needs a count"));
            }
            "--seed" => {
                i += 1;
                single_seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--seed needs a number")),
                );
            }
            "--start" => {
                i += 1;
                start = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--start needs a number"));
            }
            "--schedule" => {
                i += 1;
                opts.schedule = args
                    .get(i)
                    .and_then(|s| ScheduleKind::parse(s))
                    .unwrap_or_else(|| die("--schedule takes 'random' or 'pathological'"));
            }
            "--fast" => opts.fast = true,
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| die("--out needs a path")));
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if let Some(seed) = single_seed {
        // Repro mode: one seed, full report either way.
        match check_seed(seed, &opts) {
            Ok(report) => {
                println!(
                    "seed {seed} PASS: {} {:?} txns, {} shards, gc={}, {} violations, cut={:?}, \
                     reshard={:?}, spill_faults={}, sim={:?}",
                    report.txns,
                    report.kind,
                    report.shards,
                    report.gc,
                    report.violations,
                    report.checkpoint_cut,
                    report.resharded,
                    report.spill_faults_fired,
                    report.sim,
                );
            }
            Err(failure) => {
                eprintln!("{failure}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "dst: sweeping {seeds} seeds from {start} ({} schedule{})",
        opts.schedule.label(),
        if opts.fast { ", fast" } else { "" },
    );
    let summary = run_seeds(start, seeds, &opts);
    println!(
        "dst: {} passed, {} failed — {} list histories, {} checkpoint cuts ({} under GC), \
         {} spill-fault runs; sim: {} delivered / {} deferred / {} ticks dropped / {} stalls",
        summary.passed,
        summary.failures.len(),
        summary.lists,
        summary.cuts,
        summary.gc_cuts,
        summary.spill_fault_runs,
        summary.sim.delivered,
        summary.sim.deferred,
        summary.sim.dropped_ticks,
        summary.sim.stalls,
    );
    if !summary.failures.is_empty() {
        for failure in &summary.failures {
            eprintln!("{failure}");
        }
        if let Some(path) = out {
            let body: String = summary.failures.iter().map(|f| format!("{f}\n")).collect();
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("wrote failing seeds to {path}");
            }
        }
        std::process::exit(1);
    }
}
