//! Flip-flop stability experiments: §VI-C and appendix Figs. 13, 14, 17–21.
//!
//! Arrival delays are drawn per transaction from `N(µ, σ²)` within
//! 500-transaction batches; a *flip-flop* is one switch of a read's
//! tentative EXT verdict before its timeout.

use super::Ctx;
use crate::datasets::default_history;
use crate::tables::Table;
use aion_online::{feed_plan, run_plan, FeedConfig, FlipSummary, OnlineChecker};
use aion_types::History;
use aion_workload::{IsolationLevel, WorkloadSpec};

fn flip_history(ctx: &Ctx) -> History {
    let n = (10_000 / ctx.scale).max(2_000);
    let spec = WorkloadSpec::default().with_txns(n).with_sessions(24).with_ops_per_txn(8);
    default_history(&spec, IsolationLevel::Si)
}

fn run_flips(h: &History, mean: f64, std: f64) -> FlipSummary {
    let cfg = FeedConfig {
        batch_size: 500,
        batch_interval_ms: 40,
        delay_mean_ms: mean,
        delay_std_ms: std,
        seed: 42,
    };
    let plan = feed_plan(h, &cfg);
    let checker = OnlineChecker::builder()
        .kind(h.kind)
        .level(IsolationLevel::Si)
        .build()
        .expect("open session");
    run_plan(checker, &plan).outcome.flips
}

fn histogram_row(label: &str, s: &FlipSummary) -> Vec<String> {
    let h = s.flip_histogram;
    vec![
        label.to_string(),
        h[0].to_string(),
        h[1].to_string(),
        h[2].to_string(),
        h[3].to_string(),
        s.pairs_with_flips.to_string(),
        s.txns_with_flips.to_string(),
    ]
}

fn rectify_row(label: &str, s: &FlipSummary) -> Vec<String> {
    let h = s.rectify_histogram;
    let mut row = vec![label.to_string()];
    row.extend(h.iter().map(|c| c.to_string()));
    row
}

const FLIP_HEADERS: [&str; 7] =
    ["delays", "x1", "x2", "x3", "x4+", "(txn,key) pairs", "unique txns"];
const RECTIFY_HEADERS: [&str; 6] = ["delays", "0-1ms", "1-2ms", "2-10ms", "10-99ms", "100+ms"];

/// Fig. 13: flip-flop counts and rectification latency under N(100, 10²).
pub(super) fn fig13(ctx: &Ctx) {
    let h = flip_history(ctx);
    let s = run_flips(&h, 100.0, 10.0);
    let mut ta = Table::new("Fig. 13a: flip-flops under N(100,10^2)", &FLIP_HEADERS);
    ta.row(histogram_row("N(100,10^2)", &s));
    ta.emit(&ctx.out, "fig13a");
    let mut tb = Table::new("Fig. 13b: time to rectify false verdicts", &RECTIFY_HEADERS);
    tb.row(rectify_row("N(100,10^2)", &s));
    tb.emit(&ctx.out, "fig13b");
    let frac = 100.0 * s.txns_with_flips as f64 / h.len() as f64;
    println!("{:.1}% of transactions exhibited flip-flops\n", frac);
}

/// Fig. 14: flip-flops vs delay mean (a) and standard deviation (b).
pub(super) fn fig14(ctx: &Ctx) {
    let h = flip_history(ctx);
    let mut ta = Table::new("Fig. 14a: (txn,key) flip counts vs mean, N(mu,10^2)", &FLIP_HEADERS);
    for mu in [50.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
        let s = run_flips(&h, mu, 10.0);
        ta.row(histogram_row(&format!("mu={mu}"), &s));
    }
    ta.emit(&ctx.out, "fig14a");
    let mut tb =
        Table::new("Fig. 14b: (txn,key) flip counts vs std dev, N(100,sigma^2)", &FLIP_HEADERS);
    for sigma in [1.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        let s = run_flips(&h, 100.0, sigma);
        tb.row(histogram_row(&format!("sigma={sigma}"), &s));
    }
    tb.emit(&ctx.out, "fig14b");
}

/// Figs. 17 & 18 (appendix): full flip histograms across µ and σ.
pub(super) fn fig17_18(ctx: &Ctx) {
    let h = flip_history(ctx);
    let mut t = Table::new("Figs. 17/18: flip-flop histograms across delays", &FLIP_HEADERS);
    for mu in [50.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
        let s = run_flips(&h, mu, 10.0);
        t.row(histogram_row(&format!("N({mu},10^2)"), &s));
    }
    for sigma in [1.0, 20.0, 30.0, 40.0, 50.0] {
        let s = run_flips(&h, 100.0, sigma);
        t.row(histogram_row(&format!("N(100,{sigma}^2)"), &s));
    }
    t.emit(&ctx.out, "fig17_18");
}

/// Fig. 19 (appendix): unique transactions involved in flip-flops.
pub(super) fn fig19(ctx: &Ctx) {
    let h = flip_history(ctx);
    let mut t = Table::new(
        "Fig. 19: unique transactions in flip-flops",
        &["delays", "unique txns", "(txn,key) pairs"],
    );
    for mu in [100.0, 200.0, 300.0, 400.0, 500.0] {
        let s = run_flips(&h, mu, 10.0);
        t.row(vec![
            format!("N({mu},10^2)"),
            s.txns_with_flips.to_string(),
            s.pairs_with_flips.to_string(),
        ]);
    }
    for sigma in [1.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        let s = run_flips(&h, 100.0, sigma);
        t.row(vec![
            format!("N(100,{sigma}^2)"),
            s.txns_with_flips.to_string(),
            s.pairs_with_flips.to_string(),
        ]);
    }
    t.emit(&ctx.out, "fig19");
}

/// Figs. 20 & 21 (appendix): EXT finalization latency across delays.
pub(super) fn fig20_21(ctx: &Ctx) {
    let h = flip_history(ctx);
    let mut t = Table::new("Figs. 20/21: time to rectify across delays", &RECTIFY_HEADERS);
    for mu in [50.0, 100.0, 200.0, 300.0, 400.0, 500.0] {
        let s = run_flips(&h, mu, 10.0);
        t.row(rectify_row(&format!("N({mu},10^2)"), &s));
    }
    for sigma in [1.0, 20.0, 30.0, 40.0, 50.0] {
        let s = run_flips(&h, 100.0, sigma);
        t.row(rectify_row(&format!("N(100,{sigma}^2)"), &s));
    }
    t.emit(&ctx.out, "fig20_21");
}
