//! Online (AION / AION-SER / Cobra) experiments: §VI of the paper.

use super::Ctx;
use crate::datasets::{app_history, cobra_history, default_history, throughput_spec, App};
use crate::tables::{mib, Table};
use aion_baselines::{run_cobra_online, CobraConfig};
use aion_core::check_ser_report;
use aion_online::{feed_plan, run_plan, FeedConfig, OnlineChecker, OnlineGcPolicy};
use aion_types::{AxiomKind, Checker, DataKind, History};
use aion_workload::IsolationLevel;

/// GC configurations evaluated in Fig. 12, derived from the history size.
fn gc_modes(n: usize) -> Vec<(&'static str, OnlineGcPolicy)> {
    vec![
        ("no-gc", OnlineGcPolicy::None),
        ("checking-gc", OnlineGcPolicy::Checking { max_txns: (n / 5).max(1000) }),
        ("full-gc", OnlineGcPolicy::Full { max_txns: (n / 50).max(200) }),
    ]
}

/// Feed plan whose virtual span comfortably exceeds the EXT timeout, so
/// finalization (and thus GC) progresses during the run, as in the paper.
fn throughput_feed(h: &History) -> Vec<aion_online::Arrival> {
    let batches = (h.len() / 500).max(1) as u64;
    let cfg = FeedConfig {
        batch_size: 500,
        // ≥ 60 s of virtual time regardless of history size.
        batch_interval_ms: (60_000 / batches).max(100),
        delay_mean_ms: 100.0,
        delay_std_ms: 10.0,
        seed: 42,
    };
    feed_plan(h, &cfg)
}

fn run_aion(
    h: &History,
    level: IsolationLevel,
    gc: OnlineGcPolicy,
) -> (f64, Vec<u32>, usize, usize) {
    let plan = throughput_feed(h);
    let checker =
        OnlineChecker::builder().kind(h.kind).level(level).gc(gc).build().expect("open session");
    let r = run_plan(checker, &plan);
    (r.mean_tps(), r.throughput.clone(), r.outcome.report.len(), r.outcome.stats.spilled_txns)
}

fn emit_throughput(
    ctx: &Ctx,
    slug: &str,
    title: &str,
    runs: Vec<(String, f64, Vec<u32>, usize, usize)>,
) {
    let mut t =
        Table::new(title, &["config", "mean TPS", "violations", "spilled", "series(TPS/s)"]);
    for (name, tps, series, viol, spilled) in &runs {
        let shown: Vec<String> = series.iter().take(12).map(|c| c.to_string()).collect();
        t.row(vec![
            name.clone(),
            format!("{tps:.0}"),
            viol.to_string(),
            spilled.to_string(),
            shown.join(" "),
        ]);
    }
    t.emit(&ctx.out, slug);
}

/// Fig. 12a: online SER checking throughput — AION-SER (3 GC modes) vs
/// Cobra (fence frequency × round size).
pub(super) fn fig12a(ctx: &Ctx) {
    let n = ctx.n(500_000);
    let h = default_history(&throughput_spec(n, true), IsolationLevel::Ser);
    let mut runs = Vec::new();
    for (name, gc) in gc_modes(n) {
        let (tps, series, viol, spilled) = run_aion(&h, IsolationLevel::Ser, gc);
        runs.push((format!("Aion-SER-{name}"), tps, series, viol, spilled));
    }
    for (fence_every, round, label) in [
        (20usize, 2400usize, "F20-R2k4"),
        (20, 4800, "F20-R4k8"),
        (2, 2400, "F1-R2k4"),
        (2, 4800, "F1-R4k8"),
    ] {
        let (ch, fence_key) = cobra_history(n, fence_every);
        let cfg = CobraConfig {
            round_size: round,
            fence_every,
            fence_key: Some(fence_key),
            budget_per_round: 100_000,
        };
        let r = run_cobra_online(&ch, &cfg);
        runs.push((
            format!("Cobra-{label}"),
            r.mean_tps(),
            r.throughput.clone(),
            usize::from(!r.accepted),
            0,
        ));
    }
    emit_throughput(ctx, "fig12a", &format!("Fig. 12a: SER checking throughput ({n} txns)"), runs);
}

/// Fig. 12b: online SI checking throughput, three GC modes.
pub(super) fn fig12b(ctx: &Ctx) {
    let n = ctx.n(500_000);
    let h = default_history(&throughput_spec(n, false), IsolationLevel::Si);
    let mut runs = Vec::new();
    for (name, gc) in gc_modes(n) {
        let (tps, series, viol, spilled) = run_aion(&h, IsolationLevel::Si, gc);
        runs.push((format!("Aion-{name}"), tps, series, viol, spilled));
    }
    emit_throughput(ctx, "fig12b", &format!("Fig. 12b: SI checking throughput ({n} txns)"), runs);
}

/// Fig. 12c,d: online SER checking on RUBiS and Twitter.
pub(super) fn fig12cd(ctx: &Ctx) {
    let n = ctx.n(500_000);
    let mut runs = Vec::new();
    for app in [App::Rubis, App::Twitter] {
        let h = app_history(app, n, IsolationLevel::Ser, 7);
        for (name, gc) in gc_modes(n) {
            let (tps, series, viol, spilled) = run_aion(&h, IsolationLevel::Ser, gc);
            runs.push((format!("{}-Aion-SER-{name}", app.label()), tps, series, viol, spilled));
        }
    }
    emit_throughput(
        ctx,
        "fig12cd",
        &format!("Fig. 12c,d: SER throughput on apps ({n} txns)"),
        runs,
    );
}

/// Fig. 23: online SI checking on RUBiS and Twitter.
pub(super) fn fig23(ctx: &Ctx) {
    let n = ctx.n(500_000);
    let mut runs = Vec::new();
    for app in [App::Rubis, App::Twitter] {
        let h = app_history(app, n, IsolationLevel::Si, 7);
        for (name, gc) in gc_modes(n) {
            let (tps, series, viol, spilled) = run_aion(&h, IsolationLevel::Si, gc);
            runs.push((format!("{}-Aion-{name}", app.label()), tps, series, viol, spilled));
        }
    }
    emit_throughput(ctx, "fig23", &format!("Fig. 23: SI throughput on apps ({n} txns)"), runs);
}

/// Fig. 15: database throughput with / without history collection,
/// measured on the deterministic single-threaded driver (thread-scheduling
/// noise would otherwise swamp the few-percent effect).
pub(super) fn fig15(ctx: &Ctx) {
    use aion_storage::{MvccStore, Recorder};
    use aion_workload::{generate_templates, run_interleaved_with_recorder, WorkloadSpec};
    let n = ctx.n(50_000);
    let mut t = Table::new(
        "Fig. 15: DB throughput (TPS) with/without history collection",
        &["#ops/txn", "w/o collecting", "w collecting", "overhead %"],
    );
    for &ops in &[5usize, 15, 30, 50, 100] {
        let spec = WorkloadSpec::default().with_txns(n).with_ops_per_txn(ops).with_sessions(8);
        let templates = generate_templates(&spec);
        let mut plain_tps: f64 = 0.0;
        let mut collected_tps: f64 = 0.0;
        for _ in 0..3 {
            let store = MvccStore::new(DataKind::Kv);
            let r = run_interleaved_with_recorder(&store, &templates, 8, spec.seed, None);
            plain_tps = plain_tps.max(r.tps());
            let store = MvccStore::new(DataKind::Kv);
            let rec = Recorder::with_wire_simulation(DataKind::Kv);
            let r = run_interleaved_with_recorder(&store, &templates, 8, spec.seed, Some(&rec));
            collected_tps = collected_tps.max(r.tps());
        }
        let overhead =
            if plain_tps > 0.0 { 100.0 * (1.0 - collected_tps / plain_tps) } else { 0.0 };
        t.row(vec![
            ops.to_string(),
            format!("{plain_tps:.0}"),
            format!("{collected_tps:.0}"),
            format!("{overhead:.1}"),
        ]);
    }
    t.emit(&ctx.out, "fig15");
}

/// Fig. 16: AION memory over time under a hard resident cap.
pub(super) fn fig16(ctx: &Ctx) {
    let n = ctx.n(100_000);
    let h = default_history(&throughput_spec(n, false), IsolationLevel::Si);
    let plan = throughput_feed(&h);
    let cap = (n / 10).max(500);
    let mut checker = OnlineChecker::builder()
        .kind(h.kind)
        .level(IsolationLevel::Si)
        .gc(OnlineGcPolicy::Full { max_txns: cap })
        .build()
        .expect("open session");
    let mut t = Table::new(
        format!("Fig. 16: AION memory over (virtual) time, cap {cap} resident txns"),
        &["t(ms)", "est MiB", "resident txns", "spilled"],
    );
    for (i, (at, txn)) in plan.iter().enumerate() {
        checker.feed(txn.clone(), *at);
        if i % (plan.len() / 40).max(1) == 0 {
            t.row(vec![
                at.to_string(),
                mib(checker.estimated_memory_bytes()),
                checker.resident_txns().to_string(),
                checker.stats().spilled_txns.to_string(),
            ]);
        }
    }
    let outcome = checker.finish();
    t.row(vec![
        "final".into(),
        "-".into(),
        outcome.stats.peak_resident_txns.to_string(),
        outcome.stats.spilled_txns.to_string(),
    ]);
    t.emit(&ctx.out, "fig16");
}

/// Fig. 25: AION-SER on a *violating* (SI-level) history — finds all
/// violations and keeps going; Cobra stops at the first.
pub(super) fn fig25(ctx: &Ctx) {
    let n = ctx.n(500_000);
    let h = default_history(&throughput_spec(n, true), IsolationLevel::Si);
    let mut t = Table::new(
        format!("Fig. 25: SER checking of an SI-level history ({n} txns)"),
        &["checker", "mean TPS", "violations", "stopped early"],
    );
    for (name, gc) in gc_modes(n) {
        let (tps, _, viol, _) = run_aion(&h, IsolationLevel::Ser, gc);
        t.row(vec![format!("Aion-SER-{name}"), format!("{tps:.0}"), viol.to_string(), "no".into()]);
    }
    // Validation: CHRONOS-SER must agree on the violation count.
    let chronos = check_ser_report(&h);
    t.row(vec![
        "Chronos-SER (offline oracle)".into(),
        "-".into(),
        chronos.len().to_string(),
        "no".into(),
    ]);
    let (ch, fence_key) = cobra_history(n, 20);
    let r = run_cobra_online(
        &ch,
        &CobraConfig {
            round_size: 2400,
            fence_every: 20,
            fence_key: Some(fence_key),
            budget_per_round: 100_000,
        },
    );
    let _ = r; // fence history is SER-valid; run the violating one unfenced:
    let rv = run_cobra_online(
        &h,
        &CobraConfig {
            round_size: 2400,
            fence_every: 0,
            fence_key: None,
            budget_per_round: 100_000,
        },
    );
    t.row(vec![
        "Cobra".into(),
        format!("{:.0}", rv.mean_tps()),
        usize::from(!rv.accepted).to_string(),
        if rv.processed < h.len() { "yes (first violation)".into() } else { "no".into() },
    ]);
    t.emit(&ctx.out, "fig25");

    // Consistency note printed alongside (AION-SER vs CHRONOS-SER counts).
    let (_, _, aion_viols, _) = run_aion(&h, IsolationLevel::Ser, OnlineGcPolicy::None);
    println!(
        "validation: Aion-SER found {} violations, Chronos-SER found {} (EXT {}, SESSION {})",
        aion_viols,
        chronos.len(),
        chronos.count(AxiomKind::Ext),
        chronos.count(AxiomKind::Session),
    );
}
