//! The traced run: per-layer metrics from spans recorded around each
//! call into a layer, plus the auxiliary repetitions that isolate one
//! layer by switching it off (in-order feed, GC off, uniform policy,
//! one shard, no socket).
//!
//! `README.md` maps each metric here to the end-to-end metric and
//! workload it should move.

use crate::emit::Metrics;
use crate::reps::{online_rep, serve_rep, sharded_rep, OnlineCfg, Rep};
use crate::run::{daemon_twin_rep, traced_rep, RunArgs, Session, OUT_DIR};
use crate::stats::{median, percentile, tail_percentile};
use crate::sys;
use crate::trace::{durations_of, totals_by_name, write_trace, NameTotals, NoTrace, Recorder};
use crate::workload::{Workload, BATCH};
use aion_io::{open_sniffed_stream, Format, ReaderOptions};
use aion_online::{route_txn, Arrival, OnlineChecker, RoutedTxn};
use aion_serve::client;
use aion_types::{Checker, IsolationLevel, LevelPolicy, Stopwatch, Transaction};
use std::collections::BTreeMap;
use std::path::Path;

/// A traced run makes at least this many (untraced, traced) pairs.
const MIN_PAIRS: usize = 2;

/// Harness work between layer calls (cloning the fed transaction,
/// reading the clock) may take at most this share of a repetition …
const MAX_HARNESS_SHARE: f64 = 0.05;

/// … or this much per transaction, whichever is more: the harness costs
/// ~0.35 us per transaction whatever the checker costs, and a checker
/// made twice as fast must not fail the assertion for it.
const MAX_HARNESS_NS_PER_TXN: f64 = 500.0;

/// Repetitions of the auxiliary decode and in-process measurements the
/// daemon's wall time is split with.
const AUX_REPS: usize = 3;

/// Loopback round trips timed for `serve.ping_rtt_us`.
const PINGS: usize = 200;

type Totals = BTreeMap<&'static str, NameTotals>;

struct Traced {
    rep: Rep,
    totals: Totals,
}

fn total_ns(t: &Totals, name: &str) -> f64 {
    t.get(name).map_or(0.0, |n| n.total_ns as f64)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed().as_secs_f64())
}

/// What the "ten samples beyond it" rule allows a sample of `n` to report.
fn supported(n: usize) -> String {
    match tail_percentile(n) {
        Some(q) => format!("ten samples beyond supports up to p{}", q * 100.0),
        None => "too few for any percentile by the ten-samples-beyond rule".into(),
    }
}

fn med(traced: &[Traced], f: impl Fn(&Traced) -> f64) -> f64 {
    median(&traced.iter().map(f).collect::<Vec<_>>())
}

/// Time spent in `feed` calls, GC-pass feeds included.
fn feed_ns(t: &Totals) -> f64 {
    total_ns(t, "online.feed") + total_ns(t, "online.feed.gc")
}

/// Parts must sum to the whole: the layer spans of an in-process
/// repetition plus a small harness residue are its wall time.
fn check_parts_sum(t: &Traced, w: Workload, n: f64) -> Result<(), String> {
    let layers = total_ns(&t.totals, "online.tick")
        + feed_ns(&t.totals)
        + total_ns(&t.totals, "online.drain")
        + total_ns(&t.totals, "online.finish");
    let wall = t.rep.wall_s * 1e9;
    let residue = wall - layers;
    let allowed = (MAX_HARNESS_SHARE * wall).max(MAX_HARNESS_NS_PER_TXN * n);
    if residue < 0.0 || residue > allowed {
        return Err(format!(
            "{}: tick+feed+drain+finish spans sum to {:.1} ms of a {:.1} ms repetition \
             (residue must be within 0..{:.1} ms)",
            w.name(),
            layers / 1e6,
            wall / 1e6,
            allowed / 1e6
        ));
    }
    Ok(())
}

fn online_layers(
    m: &mut Metrics,
    traced: &[Traced],
    last: &Recorder,
    w: Workload,
    n: f64,
) -> Result<(), String> {
    for t in traced {
        check_parts_sum(t, w, n)?;
    }
    // The `batch` spans only group tick/feed pairs: their self time is
    // what the harness itself spends per batch.
    let batch_self = |t: &Traced| t.totals.get("batch").map_or(0.0, |b| b.self_ns as f64);
    m.set("online.build_ms", med(traced, |t| total_ns(&t.totals, "online.build") / 1e6));
    m.set("online.tick_us_per_txn", med(traced, |t| total_ns(&t.totals, "online.tick") / 1e3 / n));
    m.set("online.feed_us_per_txn", med(traced, |t| feed_ns(&t.totals) / 1e3 / n));
    m.set("online.drain_ms", med(traced, |t| total_ns(&t.totals, "online.drain") / 1e6));
    m.set("online.finish_ms", med(traced, |t| total_ns(&t.totals, "online.finish") / 1e6));
    m.set("online.harness_us_per_txn", med(traced, batch_self) / 1e3 / n);
    let mut feeds: Vec<f64> = last
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("online.feed"))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    feeds.sort_by(f64::total_cmp);
    m.set("online.feed_p999_us", percentile(&feeds, 0.999));
    println!("online.feed_p999_us: {} samples; {}", feeds.len(), supported(feeds.len()));
    if let Some(o) = traced.last().and_then(|t| t.rep.outcome.as_ref()) {
        m.set("online.reevaluations", o.stats.reevaluations as f64);
        m.set("online.flips", o.flips.total_flips as f64);
    }
    Ok(())
}

/// The history in commit order at its dispatch times: the arrival plan
/// with the per-transaction delays — and so step ③ — taken out.
fn in_order_plan(s: &Session<'_>) -> Vec<Arrival> {
    s.inputs
        .history
        .txns
        .iter()
        .enumerate()
        .map(|(i, t)| ((i / BATCH) as u64 * 40, t.clone()))
        .collect()
}

fn traced_online(cfg: &OnlineCfg, plan: &[Arrival]) -> Result<Totals, String> {
    let mut rec = Recorder::for_txns(0, plan.len());
    online_rep(cfg, plan, &mut rec)?;
    Ok(totals_by_name(rec.spans()))
}

fn single_si_aux(m: &mut Metrics, s: &mut Session<'_>) -> Result<(), String> {
    let n = s.inputs.txns() as f64;
    let plan = &s.inputs.plan;

    let in_order = traced_online(&s.cfg, &in_order_plan(s))?;
    m.set("online.inorder_us_per_txn", feed_ns(&in_order) / 1e3 / n);

    let events_on = online_rep(&OnlineCfg { events: true, ..s.cfg.clone() }, plan, &mut NoTrace)?;
    s.check_valid(&events_on.summary)?;
    m.set("online.events_on_us_per_txn", events_on.wall_s * 1e6 / n);

    // Allocation counts of the checker alone: the fed transactions are
    // cloned before counting starts.
    let owned: Vec<Arrival> = plan.to_vec();
    let mut ck = s.cfg.builder().build().map_err(|e| e.to_string())?;
    let ((), allocs, bytes) = sys::count_allocs(|| {
        for (at, txn) in owned {
            ck.tick(at);
            ck.feed(txn, at);
        }
    });
    m.set("online.allocs_per_txn", allocs as f64 / n);
    m.set("online.alloc_bytes_per_txn", bytes as f64 / n);
    let (estimate, secs) = timed(|| ck.estimated_memory_bytes());
    m.set("online.est_bytes_per_txn", estimate as f64 / n);
    m.set("online.mem_estimate_us", secs * 1e6);
    drop(ck);

    let half = plan.len() / 2;
    let mut ck = s.cfg.builder().build().map_err(|e| e.to_string())?;
    for (at, txn) in &plan[..half] {
        ck.tick(*at);
        ck.feed(txn.clone(), *at);
    }
    let (snapshot, secs) = timed(|| ck.checkpoint());
    let snapshot = snapshot.map_err(|e| format!("checkpoint: {e}"))?;
    m.set("snapshot.checkpoint_ms", secs * 1e3);
    m.set("snapshot.bytes_per_txn", snapshot.len() as f64 / half.max(1) as f64);
    let (restored, secs) = timed(|| OnlineChecker::restore(&snapshot));
    let restored = restored.map_err(|e| format!("restore: {e}"))?;
    m.set("snapshot.restore_ms", secs * 1e3);
    if restored.stats().received != half {
        return Err(format!("restored checker has {} txns, not {half}", restored.stats().received));
    }
    Ok(())
}

fn gc_layers(
    m: &mut Metrics,
    s: &mut Session<'_>,
    traced: &[Traced],
    mut passes_ms: Vec<f64>,
) -> Result<(), String> {
    if let Some(o) = traced.last().and_then(|t| t.rep.outcome.as_ref()) {
        m.set("gc.spill_passes", o.stats.gc_spills as f64);
        m.set("gc.spilled_txns", o.stats.spilled_txns as f64);
        m.set("gc.reloaded_txns", o.stats.reloaded_txns as f64);
        m.set("gc.spill_bytes", o.stats.spill_bytes as f64);
        m.set("gc.peak_resident_txns", o.stats.peak_resident_txns as f64);
    }
    passes_ms.sort_by(f64::total_cmp);
    m.set("gc.pass_ms_p50", percentile(&passes_ms, 0.5));
    m.set("gc.pass_ms_max", passes_ms.last().copied().unwrap_or(0.0));
    let no_gc = OnlineCfg { gc_max_txns: None, spill_path: None, ..s.cfg.clone() };
    let rep = online_rep(&no_gc, &s.inputs.plan, &mut NoTrace)?;
    s.check_valid(&rep.summary)?;
    m.set("gc.nogc_us_per_txn", rep.wall_s * 1e6 / s.inputs.txns() as f64);
    Ok(())
}

fn mixed_aux(m: &mut Metrics, s: &mut Session<'_>) -> Result<(), String> {
    let n = s.inputs.txns() as f64;
    // A uniform policy ignores the declared levels: same transactions,
    // same arrivals, no per-arrival resolution.
    let uniform = OnlineCfg { levels: LevelPolicy::Uniform(IsolationLevel::Si), ..s.cfg.clone() };
    let uniform_feed = feed_ns(&traced_online(&uniform, &s.inputs.plan)?) / 1e3 / n;
    let mixed_feed = m.get("online.feed_us_per_txn").unwrap_or(0.0);
    m.set("mixed.policy_us_per_txn", mixed_feed - uniform_feed);
    let share = |level: IsolationLevel| {
        let declared = s.inputs.history.txns.iter().filter(|t| t.level == Some(level)).count();
        declared as f64 * 100.0 / n
    };
    m.set("mixed.share_rc", share(IsolationLevel::ReadCommitted));
    m.set("mixed.share_ra", share(IsolationLevel::ReadAtomic));
    m.set("mixed.share_si", share(IsolationLevel::Si));
    Ok(())
}

fn sharded_layers(m: &mut Metrics, s: &mut Session<'_>, traced: &[Traced]) -> Result<(), String> {
    let n = s.inputs.txns() as f64;
    m.set(
        "sharded.submit_us_per_txn",
        med(traced, |t| total_ns(&t.totals, "sharded.submit") / 1e3 / n),
    );
    m.set("sharded.drain_ms", med(traced, |t| total_ns(&t.totals, "sharded.drain") / 1e6));

    let owned: Vec<Transaction> = s.inputs.plan.iter().map(|(_, t)| t.clone()).collect();
    let mut per_shard = [0u64; 2];
    let mut cross = 0u64;
    let ((), secs) = timed(|| {
        for txn in owned {
            match route_txn(txn, 2) {
                RoutedTxn::Single { shard, .. } => per_shard[shard] += 1,
                RoutedTxn::Split { shards, .. } => {
                    cross += 1;
                    for shard in shards {
                        per_shard[shard] += 1;
                    }
                }
            }
        }
    });
    let parts = (per_shard[0] + per_shard[1]) as f64;
    m.set("sharded.route_us_per_txn", secs * 1e6 / n);
    m.set("sharded.parts_per_txn", parts / n);
    m.set("sharded.cross_shard_share", cross as f64 * 100.0 / n);
    m.set("sharded.skew", per_shard[0].max(per_shard[1]) as f64 / (parts / 2.0));

    let one = sharded_rep(&s.cfg, 1, &s.inputs.plan, &mut NoTrace)?;
    s.check_valid(&one.summary)?;
    m.set("sharded.shards1_tps", n / one.wall_s);

    let c0 = sys::cpu_seconds()?;
    s.rep(&mut NoTrace)?;
    let c1 = sys::cpu_seconds()?;
    online_rep(&s.cfg, &s.inputs.plan, &mut NoTrace)?;
    let c2 = sys::cpu_seconds()?;
    m.set("sharded.cpu_ratio", (c1 - c0) / (c2 - c1).max(f64::MIN_POSITIVE));
    Ok(())
}

/// The reader alone over the in-memory payloads, opened the way the
/// daemon opens a feed body.
fn decode_secs(payloads: &[Vec<u8>]) -> Result<(f64, usize), String> {
    let mut txns = 0;
    let (result, secs) = timed(|| -> Result<(), String> {
        for bytes in payloads {
            let opts = ReaderOptions { strict: false, kind_hint: None };
            let (_, mut reader) =
                open_sniffed_stream(&bytes[..], opts).map_err(|e| e.to_string())?;
            while reader.next_txn().map_err(|e| e.to_string())?.is_some() {
                txns += 1;
            }
        }
        Ok(())
    });
    result.map(|()| (secs, txns))
}

fn serve_layers(
    m: &mut Metrics,
    s: &mut Session<'_>,
    traced: &[Traced],
    format: Format,
) -> Result<(), String> {
    let n = s.inputs.txns();
    let nf = n as f64;
    let payloads = &s.inputs.wire_batches;
    let addr = s.daemon_addr()?;
    m.set("serve.open_ms", med(traced, |t| total_ns(&t.totals, "serve.open") / 1e6));
    m.set("serve.finish_ms", med(traced, |t| total_ns(&t.totals, "serve.finish") / 1e6));

    // Decoder and in-process twin run warm, like the daemon repetitions
    // they are subtracted from: median of three.
    let mut decode_us = Vec::new();
    let mut inproc_us = Vec::new();
    for _ in 0..AUX_REPS {
        let (secs, decoded) = decode_secs(payloads)?;
        if decoded != n {
            return Err(format!("decoded {decoded} of {n} transactions"));
        }
        decode_us.push(secs * 1e6 / nf);
        let twin = daemon_twin_rep(&s.cfg, s.inputs)?;
        s.check_valid(&twin.summary)?;
        inproc_us.push(twin.wall_s * 1e6 / nf);
    }
    let (decode_us, inproc_us) = (median(&decode_us), median(&inproc_us));
    let bytes_per_txn = payloads.iter().map(Vec::len).sum::<usize>() as f64 / nf;
    let (decode_name, bytes_name) = match format {
        Format::Jsonl => ("io.decode_jsonl_us_per_txn", "io.jsonl_bytes_per_txn"),
        _ => ("io.decode_bin_us_per_txn", "io.bin_bytes_per_txn"),
    };
    m.set(decode_name, decode_us);
    m.set(bytes_name, bytes_per_txn);
    m.set("serve.inproc_us_per_txn", inproc_us);
    // What socket, registry and admission own: the rest of the daemon's
    // per-transaction wall once decoding and checking are taken out, so
    // the three sum to the wall by construction. The parts may not
    // exceed the whole by more than measurement noise.
    let wall_us = med(traced, |t| t.rep.wall_s * 1e6 / nf);
    let wire_us = wall_us - decode_us - inproc_us;
    if wire_us < -MAX_HARNESS_SHARE * wall_us {
        return Err(format!(
            "daemon wall {wall_us:.2} us/txn is less than decode {decode_us:.2} + in-process \
             {inproc_us:.2}"
        ));
    }
    m.set("serve.wire_us_per_txn", wire_us);

    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let (reply, secs) = timed(|| client::ping(&addr));
        reply.map_err(|e| format!("ping: {e}"))?;
        pings.push(secs * 1e6);
    }
    m.set("serve.ping_rtt_us", median(&pings));

    // The whole history in one request: what a client that does not
    // batch pays.
    let whole = encode_whole(s, format)?;
    let name = s.next_session_name();
    let (stream, _) = serve_rep(&addr, &name, std::slice::from_ref(&whole), false, &mut NoTrace)?;
    s.check_valid(&stream.summary)?;
    m.set("serve.stream_tps", nf / stream.wall_s);

    let name = s.next_session_name();
    let (events_on, event_lines) = serve_rep(&addr, &name, payloads, true, &mut NoTrace)?;
    s.check_valid(&events_on.summary)?;
    m.set("serve.events_on_tps", nf / events_on.wall_s);
    m.set("serve.reply_events_per_txn", event_lines as f64 / nf);
    Ok(())
}

fn encode_whole(s: &Session<'_>, format: Format) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    aion_io::write_history(&s.inputs.history, format, &mut bytes).map_err(|e| e.to_string())?;
    Ok(bytes)
}

fn chronos_layers(m: &mut Metrics, traced: &[Traced]) {
    let stage = |f: fn(&aion_core::StageTimings) -> std::time::Duration| {
        med(traced, |t| t.rep.chronos.as_ref().map_or(0.0, |c| f(&c.timings).as_secs_f64() * 1e3))
    };
    m.set("chronos.load_ms", stage(|t| t.loading));
    m.set("chronos.sort_ms", stage(|t| t.sorting));
    m.set("chronos.check_ms", stage(|t| t.checking));
    m.set("chronos.gc_ms", stage(|t| t.gc));
    let peak = traced.last().and_then(|t| t.rep.chronos.as_ref()).map_or(0, |c| c.peak_open_txns);
    m.set("chronos.peak_open_txns", peak as f64);
}

/// The traced run of `s`'s workload. Returns the per-layer metrics and
/// the number of repetitions that count as attempted operations.
pub fn measure(s: &mut Session<'_>, args: &RunArgs) -> Result<(Metrics, usize), String> {
    let w = s.w;
    let n = s.inputs.txns() as f64;
    let mut m = Metrics::default();
    m.set("workload.gen_s", s.inputs.times.gen_s);
    m.set("workload.plan_s", s.inputs.times.plan_s);
    match w.wire_format() {
        Some(Format::Jsonl) => m.set("io.encode_jsonl_s", s.inputs.times.encode_s),
        Some(_) => m.set("io.encode_bin_s", s.inputs.times.encode_s),
        None => {}
    }

    let window = Stopwatch::start();
    s.rep(&mut NoTrace)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut gc_passes_ms = Vec::new();
    // Spans of the last traced repetition; those are written out.
    let mut last = None;
    while traced.len() < MIN_PAIRS || window.elapsed().as_secs_f64() < args.seconds {
        untraced.push(s.rep(&mut NoTrace)?);
        let (rep, rec) = traced_rep(s, traced.len() as u32)?;
        traced.push(Traced { rep, totals: totals_by_name(rec.spans()) });
        gc_passes_ms
            .extend(durations_of(rec.spans(), "online.feed.gc").iter().map(|ns| *ns as f64 / 1e6));
        last = Some(rec);
    }
    // Fastest against fastest, as for the end-to-end metrics: the host's
    // slow spells are several times larger than the overhead measured.
    let traced_tps = traced.iter().map(|t| n / t.rep.wall_s).fold(0.0, f64::max);
    let untraced_tps = untraced.iter().map(|r| n / r.wall_s).fold(0.0, f64::max);
    m.set("trace.overhead_pct", (untraced_tps - traced_tps) * 100.0 / untraced_tps);
    // The tail is the median untraced repetition's, not the best one's:
    // on `sharded-2` a tenth of the hand-offs wait a scheduler timeslice
    // (three runnable threads, two cores), p95 sits just inside that
    // mode, and the luckiest repetition often has it outside.
    let tails: Vec<f64> = untraced.iter().map(|r| r.batch_percentile(0.95)).collect();
    m.set("batch_p95_ms", median(&tails));
    let samples = untraced.first().map_or(0, |r| r.batch_ms.len());
    println!("batch_p95_ms: {samples} samples per repetition; {}", supported(samples));
    let last = last.ok_or("no traced repetition")?;

    match w {
        Workload::SingleSi => {
            online_layers(&mut m, &traced, &last, w, n)?;
            single_si_aux(&mut m, s)?;
        }
        Workload::SerGc => {
            online_layers(&mut m, &traced, &last, w, n)?;
            gc_layers(&mut m, s, &traced, gc_passes_ms)?;
        }
        Workload::Mixed => {
            online_layers(&mut m, &traced, &last, w, n)?;
            mixed_aux(&mut m, s)?;
        }
        Workload::Sharded2 => sharded_layers(&mut m, s, &traced)?,
        Workload::ServeJsonl => serve_layers(&mut m, s, &traced, Format::Jsonl)?,
        Workload::ServeBin => serve_layers(&mut m, s, &traced, Format::Binary)?,
        Workload::Chronos1m => chronos_layers(&mut m, &traced),
    }

    write_trace(Path::new(OUT_DIR), w.name(), args.seed, &last)
        .map_err(|e| format!("write trace: {e}"))?;
    println!(
        "traced: {} untraced/traced pairs, {} spans written to {OUT_DIR}/trace-{}.json",
        traced.len(),
        last.spans().len(),
        w.name()
    );
    Ok((m, 2 * traced.len()))
}
