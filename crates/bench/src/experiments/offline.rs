//! Offline (CHRONOS) experiments: §V of the paper.

use super::Ctx;
use crate::datasets::{app_history, default_history, App};
use crate::tables::{mib, secs, Table};
use crate::{alloc, time_it};
use aion_baselines as bl;
use aion_core::{check_si_consuming, check_si_report, ChronosOptions, GcPolicy};
use aion_storage::{inject_clock_skew, FaultPlan};
use aion_types::{codec, AxiomKind, DataKind, History, Key, TxnBuilder, Value};
use aion_workload::{generate_faulty_history, table1 as grid, IsolationLevel, WorkloadSpec};
use std::time::Duration;

fn chronos_time(h: &History, gc: GcPolicy) -> (Duration, usize) {
    let out = check_si_consuming(h.clone(), &ChronosOptions::with_gc(gc));
    (out.timings.total(), out.report.len())
}

/// Table I: the default workload parameter grid.
pub(super) fn table1(ctx: &Ctx) {
    let mut t = Table::new(
        "Table I: parameters of the default workload",
        &["parameter", "values", "default"],
    );
    t.row(vec!["#sess".into(), format!("{:?}", grid::SESSIONS), "50".into()]);
    t.row(vec!["#txns".into(), format!("{:?}", grid::TXNS), "100000".into()]);
    t.row(vec!["#ops/txn".into(), format!("{:?}", grid::OPS_PER_TXN), "15".into()]);
    t.row(vec!["%reads".into(), format!("{:?}", grid::READ_RATIOS), "0.5".into()]);
    t.row(vec!["#keys".into(), format!("{:?}", grid::KEYS), "1000".into()]);
    t.row(vec![
        "dist".into(),
        grid::DISTS.iter().map(|d| d.label()).collect::<Vec<_>>().join(", "),
        "zipfian".into(),
    ]);
    t.emit(&ctx.out, "table1");
}

/// Fig. 4: runtime of all five checkers on small KV histories.
pub(super) fn fig4(ctx: &Ctx) {
    let mut t = Table::new(
        "Fig. 4: runtime (s) on key-value histories, all checkers",
        &["#txns", "PolySI", "Viper", "ElleKV", "Emme-SI", "Chronos"],
    );
    for &n in &[500usize, 1000, 1500, 2000, 2500, 3000] {
        let n = if ctx.scale > 20 {
            super::Ctx { scale: ctx.scale / 20, ..ctx.clone() }.n(n)
        } else {
            n
        };
        let spec = WorkloadSpec::default().with_txns(n);
        let h = default_history(&spec, IsolationLevel::Si);
        let polysi = bl::check_polysi_budget(&h, 200_000);
        let viper = bl::check_viper_budget(&h, 200_000);
        let (elle, _) = time_it(|| bl::check_elle_kv(&h, bl::Level::Si));
        let (emme, _) = time_it(|| bl::check_emme_si(&h));
        let (chronos, _) = chronos_time(&h, GcPolicy::Fast);
        let dnf = |o: &bl::BaselineOutcome| {
            if o.timed_out {
                format!("DNF({})", secs(o.elapsed))
            } else {
                secs(o.elapsed)
            }
        };
        t.row(vec![
            n.to_string(),
            dnf(&polysi),
            dnf(&viper),
            secs(elle),
            secs(emme),
            secs(chronos),
        ]);
    }
    t.emit(&ctx.out, "fig4");
}

/// Fig. 5a: CHRONOS vs ElleKV vs Emme-SI on larger KV histories.
pub(super) fn fig5a(ctx: &Ctx) {
    let mut t = Table::new(
        "Fig. 5a: runtime (s) on key-value histories",
        &["#txns", "ElleKV", "Emme-SI", "Chronos"],
    );
    for &paper_n in &[20_000usize, 40_000, 60_000, 80_000, 100_000] {
        let n = ctx.n(paper_n);
        let spec = WorkloadSpec::default().with_txns(n);
        let h = default_history(&spec, IsolationLevel::Si);
        let (elle, _) = time_it(|| bl::check_elle_kv(&h, bl::Level::Si));
        let (emme, _) = time_it(|| bl::check_emme_si(&h));
        let (chronos, _) = chronos_time(&h, GcPolicy::Fast);
        t.row(vec![n.to_string(), secs(elle), secs(emme), secs(chronos)]);
    }
    t.emit(&ctx.out, "fig5a");
}

/// Fig. 5b: CHRONOS vs ElleList on list histories.
pub(super) fn fig5b(ctx: &Ctx) {
    let mut t =
        Table::new("Fig. 5b: runtime (s) on list histories", &["#txns", "ElleList", "Chronos"]);
    for &paper_n in &[2_000usize, 4_000, 6_000, 8_000, 10_000] {
        let n = ctx.n(paper_n);
        let spec = WorkloadSpec::default().with_txns(n).with_kind(DataKind::List);
        let h = default_history(&spec, IsolationLevel::Si);
        let (elle, _) = time_it(|| bl::check_elle_list(&h, bl::Level::Si));
        let (chronos, _) = chronos_time(&h, GcPolicy::Fast);
        t.row(vec![n.to_string(), secs(elle), secs(chronos)]);
    }
    t.emit(&ctx.out, "fig5b");
}

/// Fig. 6: CHRONOS runtime under GC strategies, varying workload params.
pub(super) fn fig6(ctx: &Ctx) {
    let gcs: Vec<(String, GcPolicy)> = [10_000usize, 20_000, 50_000]
        .iter()
        .map(|&n| {
            let g = GcPolicy::EveryN((n / ctx.scale).max(100));
            (g.label(), g)
        })
        .chain([(GcPolicy::Never.label(), GcPolicy::Never)])
        .collect();
    let headers: Vec<&str> =
        std::iter::once("x").chain(gcs.iter().map(|(l, _)| l.as_str())).collect();

    let mut ta = Table::new("Fig. 6a: runtime (s) vs #txns", &headers);
    for &paper_n in grid::TXNS {
        let n = ctx.n(paper_n);
        let h = default_history(&WorkloadSpec::default().with_txns(n), IsolationLevel::Si);
        let mut row = vec![n.to_string()];
        for (_, gc) in &gcs {
            row.push(secs(chronos_time(&h, *gc).0));
        }
        ta.row(row);
    }
    ta.emit(&ctx.out, "fig6a");

    let mut tb = Table::new("Fig. 6b: runtime (s) vs #ops/txn", &headers);
    for &ops in grid::OPS_PER_TXN {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_ops_per_txn(ops);
        let h = default_history(&spec, IsolationLevel::Si);
        let mut row = vec![ops.to_string()];
        for (_, gc) in &gcs {
            row.push(secs(chronos_time(&h, *gc).0));
        }
        tb.row(row);
    }
    tb.emit(&ctx.out, "fig6b");

    let mut tc = Table::new("Fig. 6c: runtime (s) vs #keys", &headers);
    for &keys in grid::KEYS {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_keys(keys);
        let h = default_history(&spec, IsolationLevel::Si);
        let mut row = vec![keys.to_string()];
        for (_, gc) in &gcs {
            row.push(secs(chronos_time(&h, *gc).0));
        }
        tc.row(row);
    }
    tc.emit(&ctx.out, "fig6c");

    let mut td = Table::new("Fig. 6d: runtime (s) vs key distribution", &headers);
    for &dist in grid::DISTS {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_dist(dist);
        let h = default_history(&spec, IsolationLevel::Si);
        let mut row = vec![dist.label().to_string()];
        for (_, gc) in &gcs {
            row.push(secs(chronos_time(&h, *gc).0));
        }
        td.row(row);
    }
    td.emit(&ctx.out, "fig6d");
}

/// Fig. 7: peak memory of all checkers.
pub(super) fn fig7(ctx: &Ctx) {
    let mut ta = Table::new(
        "Fig. 7a: peak memory (MiB) vs #txns",
        &["#txns", "PolySI", "Viper", "ElleKV", "Emme-SI", "Chronos"],
    );
    let measure = |f: &mut dyn FnMut()| -> usize {
        alloc::reset_peak();
        let before = alloc::live_bytes();
        f();
        alloc::peak_bytes().saturating_sub(before)
    };
    for &paper_n in &[100_000usize, 400_000, 700_000, 1_000_000] {
        let n = ctx.n(paper_n);
        let h = default_history(&WorkloadSpec::default().with_txns(n), IsolationLevel::Si);
        let small = h.txns.len() <= 2000;
        let mut row = vec![n.to_string()];
        for which in ["polysi", "viper", "elle", "emme", "chronos"] {
            let bytes = match which {
                "polysi" if small => measure(&mut || {
                    bl::check_polysi_budget(&h, 100_000);
                }),
                "viper" if small => measure(&mut || {
                    bl::check_viper_budget(&h, 100_000);
                }),
                "polysi" | "viper" => {
                    row.push("-".into());
                    continue;
                }
                "elle" => measure(&mut || {
                    bl::check_elle_kv(&h, bl::Level::Si);
                }),
                "emme" => measure(&mut || {
                    bl::check_emme_si(&h);
                }),
                _ => measure(&mut || {
                    check_si_consuming(h.clone(), &ChronosOptions::with_gc(GcPolicy::Fast));
                }),
            };
            row.push(mib(bytes));
        }
        ta.row(row);
    }
    ta.emit(&ctx.out, "fig7a");

    let mut tb = Table::new(
        "Fig. 7b: peak memory (MiB) vs key distribution",
        &["dist", "ElleKV", "Emme-SI", "Chronos"],
    );
    for &dist in grid::DISTS {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_dist(dist);
        let h = default_history(&spec, IsolationLevel::Si);
        let mut row = vec![dist.label().to_string()];
        row.push(mib(measure(&mut || {
            bl::check_elle_kv(&h, bl::Level::Si);
        })));
        row.push(mib(measure(&mut || {
            bl::check_emme_si(&h);
        })));
        row.push(mib(measure(&mut || {
            check_si_consuming(h.clone(), &ChronosOptions::with_gc(GcPolicy::Fast));
        })));
        tb.row(row);
    }
    tb.emit(&ctx.out, "fig7b");
}

/// Fig. 8: stage decomposition (loading / sorting / checking), no GC.
pub(super) fn fig8(ctx: &Ctx) {
    let run = |h: &History| -> (Duration, Duration, Duration) {
        let bytes = codec::encode_history(h);
        let (loading, decoded) = time_it(|| codec::decode_history(&bytes).expect("cache decodes"));
        let out = check_si_consuming(decoded, &ChronosOptions::with_gc(GcPolicy::Never));
        (loading, out.timings.sorting, out.timings.checking)
    };
    let mut ta = Table::new(
        "Fig. 8a: stage decomposition (s) vs #txns",
        &["#txns", "loading", "sorting", "checking"],
    );
    for &paper_n in grid::TXNS {
        let n = ctx.n(paper_n);
        let h = default_history(&WorkloadSpec::default().with_txns(n), IsolationLevel::Si);
        let (l, s, c) = run(&h);
        ta.row(vec![n.to_string(), secs(l), secs(s), secs(c)]);
    }
    ta.emit(&ctx.out, "fig8a");

    let mut tb = Table::new(
        "Fig. 8b: stage decomposition (s) vs #ops/txn",
        &["#ops/txn", "loading", "sorting", "checking"],
    );
    for &ops in grid::OPS_PER_TXN {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_ops_per_txn(ops);
        let h = default_history(&spec, IsolationLevel::Si);
        let (l, s, c) = run(&h);
        tb.row(vec![ops.to_string(), secs(l), secs(s), secs(c)]);
    }
    tb.emit(&ctx.out, "fig8b");
}

/// Fig. 9: stage decomposition under varying GC frequencies.
pub(super) fn fig9(ctx: &Ctx) {
    let n = ctx.n(1_000_000);
    let h = default_history(&WorkloadSpec::default().with_txns(n), IsolationLevel::Si);
    let bytes = codec::encode_history(&h);
    let mut t = Table::new(
        format!("Fig. 9: stage decomposition (s), {n} txns, vs GC frequency"),
        &["gc", "loading", "sorting", "checking", "gc-time"],
    );
    let mut freqs: Vec<GcPolicy> = [10_000usize, 20_000, 50_000, 100_000, 200_000, 500_000]
        .iter()
        .map(|&f| GcPolicy::EveryN((f / ctx.scale).max(50)))
        .collect();
    freqs.push(GcPolicy::Fast);
    for gc in freqs {
        let (loading, decoded) = time_it(|| codec::decode_history(&bytes).expect("decodes"));
        let out = check_si_consuming(decoded, &ChronosOptions::with_gc(gc));
        t.row(vec![
            gc.label(),
            secs(loading),
            secs(out.timings.sorting),
            secs(out.timings.checking),
            secs(out.timings.gc),
        ]);
    }
    t.emit(&ctx.out, "fig9");
}

/// Fig. 10: CHRONOS memory over time under GC strategies.
pub(super) fn fig10(ctx: &Ctx) {
    let n = ctx.n(100_000).max(20_000);
    let h = default_history(&WorkloadSpec::default().with_txns(n), IsolationLevel::Si);
    let mut t = Table::new(
        format!("Fig. 10: memory (MiB) over time, {n} txns"),
        &["t(ms)", "gc-10k", "gc-20k", "gc-50k", "gc-inf"],
    );
    let mut series: Vec<Vec<usize>> = Vec::new();
    for &f in &[10_000usize, 20_000, 50_000, usize::MAX] {
        let gc = if f == usize::MAX {
            GcPolicy::Never
        } else {
            GcPolicy::EveryN((f / ctx.scale).max(50))
        };
        let h2 = h.clone();
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let s2 = samples.clone();
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let d2 = done.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock memory sampler for a perf experiment; measurement only, never simulated"
        )]
        let sampler = std::thread::spawn(move || {
            while !d2.load(std::sync::atomic::Ordering::Relaxed) {
                s2.lock().unwrap().push(alloc::live_bytes());
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        check_si_consuming(h2, &ChronosOptions::with_gc(gc));
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        sampler.join().expect("sampler joins");
        series.push(std::sync::Arc::try_unwrap(samples).expect("sole owner").into_inner().unwrap());
    }
    let len = series.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![i.to_string()];
        for s in &series {
            row.push(s.get(i).map(|&b| mib(b)).unwrap_or_else(|| "-".into()));
        }
        t.row(row);
    }
    t.emit(&ctx.out, "fig10");
}

/// Fig. 11 + §V-D: timestamp-based checking catches what black-box misses.
pub(super) fn fig11(ctx: &Ctx) {
    let h = History {
        kind: DataKind::Kv,
        txns: vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).session(1, 0).interval(3, 4).put(Key(1), Value(2)).build(),
            TxnBuilder::new(3).session(2, 0).interval(5, 6).read(Key(1), Value(1)).build(),
        ],
    };
    let chronos = check_si_report(&h);
    let polysi = bl::check_polysi(&h);
    let elle = bl::check_elle_kv(&h, bl::Level::Si);
    let mut t = Table::new(
        "Fig. 11: sequential T1 w(x,1); T2 w(x,2); T3 r(x,1)",
        &["checker", "verdict", "detail"],
    );
    t.row(vec![
        "Chronos (timestamps)".into(),
        if chronos.is_ok() { "ACCEPT".into() } else { "REJECT".into() },
        chronos.summary(),
    ]);
    t.row(vec![
        "PolySI (black-box)".into(),
        if polysi.accepted { "ACCEPT".into() } else { "REJECT".into() },
        "infers order T1,T3,T2 — which never occurred".into(),
    ]);
    t.row(vec![
        "ElleKV (black-box)".into(),
        if elle.accepted { "ACCEPT".into() } else { "REJECT".into() },
        "-".into(),
    ]);
    t.emit(&ctx.out, "fig11");
}

/// §V-D: fault-injection study — CHRONOS detects every injected class.
pub(super) fn sec5d(ctx: &Ctx) {
    let n = ctx.n(20_000);
    let base = WorkloadSpec::default().with_txns(n);
    let mut t = Table::new(
        "Sec. V-D: injected faults and detected violations",
        &["fault", "Chronos verdict", "SESSION", "INT", "EXT", "NOCONFLICT", "ElleKV verdict"],
    );
    let cases: Vec<(&str, History)> = vec![
        ("none", default_history(&base, IsolationLevel::Si)),
        ("clock-skew", {
            let mut h = default_history(&base, IsolationLevel::Si);
            inject_clock_skew(&mut h, 0.01, 40, 7);
            h
        }),
        (
            "lost-update",
            generate_faulty_history(
                &base,
                FaultPlan { lost_update_rate: 0.01, seed: 7, ..FaultPlan::default() },
            ),
        ),
        (
            "stale-read",
            generate_faulty_history(
                &base,
                FaultPlan { stale_read_rate: 0.01, seed: 7, ..FaultPlan::default() },
            ),
        ),
        (
            "int-anomaly",
            generate_faulty_history(
                &base,
                FaultPlan { int_anomaly_rate: 0.01, seed: 7, ..FaultPlan::default() },
            ),
        ),
    ];
    for (name, h) in cases {
        let r = check_si_report(&h);
        let elle = bl::check_elle_kv(&h, bl::Level::Si);
        t.row(vec![
            name.into(),
            if r.is_ok() { "ACCEPT".into() } else { "REJECT".into() },
            r.count(AxiomKind::Session).to_string(),
            r.count(AxiomKind::Int).to_string(),
            r.count(AxiomKind::Ext).to_string(),
            r.count(AxiomKind::NoConflict).to_string(),
            if elle.accepted { "ACCEPT".into() } else { "REJECT".into() },
        ]);
    }
    t.emit(&ctx.out, "sec5d");
}

/// Fig. 22: CHRONOS runtime vs #sessions and read proportion.
pub(super) fn fig22(ctx: &Ctx) {
    let mut ta = Table::new("Fig. 22a: runtime (s) vs #sessions", &["#sess", "Chronos"]);
    for &s in grid::SESSIONS {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_sessions(s);
        let h = default_history(&spec, IsolationLevel::Si);
        ta.row(vec![s.to_string(), secs(chronos_time(&h, GcPolicy::Fast).0)]);
    }
    ta.emit(&ctx.out, "fig22a");

    let mut tb = Table::new("Fig. 22b: runtime (s) vs read proportion", &["%reads", "Chronos"]);
    for &r in grid::READ_RATIOS {
        let spec = WorkloadSpec::default().with_txns(ctx.n(100_000)).with_read_ratio(r);
        let h = default_history(&spec, IsolationLevel::Si);
        tb.row(vec![format!("{}", (r * 100.0) as u32), secs(chronos_time(&h, GcPolicy::Fast).0)]);
    }
    tb.emit(&ctx.out, "fig22b");
}

/// Fig. 24: offline decomposition for TPCC / RUBiS / Twitter.
pub(super) fn fig24(ctx: &Ctx) {
    let n = ctx.n(100_000);
    let mut t = Table::new(
        format!("Fig. 24: offline checking decomposition (s), {n} txns/app"),
        &["workload", "loading", "sorting", "checking", "violations"],
    );
    for app in [App::Tpcc, App::Rubis, App::Twitter] {
        let h = app_history(app, n, IsolationLevel::Si, 7);
        let bytes = codec::encode_history(&h);
        let (loading, decoded) = time_it(|| codec::decode_history(&bytes).expect("decodes"));
        let out = check_si_consuming(decoded, &ChronosOptions::with_gc(GcPolicy::Fast));
        t.row(vec![
            app.label().into(),
            secs(loading),
            secs(out.timings.sorting),
            secs(out.timings.checking),
            out.report.len().to_string(),
        ]);
    }
    t.emit(&ctx.out, "fig24");
}
