//! One repetition of each workload shape: in-process online checker,
//! sharded checker, daemon over loopback, offline CHRONOS.
//!
//! Every driver is generic over [`Tracer`], so the traced and the
//! untraced repetition run the same code, and goes through the stable
//! public surface only (`OnlineChecker::builder()`, the `Checker`
//! trait, `aion_serve::client`, `aion_core::check_si`).

use crate::stats::percentile;
use crate::trace::{in_span, Tracer};
use crate::workload::{Inputs, Sizes, Workload, BATCH};
use aion_core::{ChronosOptions, ChronosOutcome};
use aion_online::{Arrival, OnlineChecker, OnlineCheckerBuilder, OnlineGcPolicy};
use aion_serve::client;
use aion_types::{Checker, DataKind, IsolationLevel, LevelPolicy, Outcome, Stopwatch};
use std::path::PathBuf;

/// What a finished session reports about its stream; the output checks
/// compare these between runs of the same input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    pub txns: u64,
    pub violations: u64,
    pub finalized: u64,
    pub flips: u64,
}

impl Summary {
    pub fn of(o: &Outcome) -> Summary {
        Summary {
            txns: o.txns as u64,
            violations: o.report.len() as u64,
            finalized: o.stats.finalized as u64,
            flips: o.flips.total_flips,
        }
    }

    fn of_finish_reply(r: &client::Reply) -> Result<Summary, String> {
        let field = |k: &str| r.int_field(k).ok_or_else(|| format!("finish reply lacks `{k}`"));
        Ok(Summary {
            txns: field("txns")?,
            violations: field("violations")?,
            finalized: field("finalized")?,
            flips: field("flips")?,
        })
    }
}

/// Result of one repetition.
pub struct Rep {
    /// First feed (or first byte sent) to terminal outcome, seconds.
    pub wall_s: f64,
    /// Wall time of each dispatch-batch hand-off, milliseconds (for
    /// CHRONOS: the one whole-history check).
    pub batch_ms: Vec<f64>,
    pub summary: Summary,
    /// The in-process outcome (absent for daemon repetitions, which
    /// only see the finish reply).
    pub outcome: Option<Outcome>,
    /// CHRONOS stage timings and working set (offline repetitions).
    pub chronos: Option<ChronosOutcome>,
}

impl Rep {
    /// Nearest-rank percentile `q` of this repetition's batch times.
    pub fn batch_percentile(&self, q: f64) -> f64 {
        let mut sorted = self.batch_ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, q)
    }
}

/// Configuration of an in-process online session.
#[derive(Clone, Debug)]
pub struct OnlineCfg {
    pub levels: LevelPolicy,
    pub gc_max_txns: Option<usize>,
    pub spill_path: Option<PathBuf>,
    pub ext_timeout_ms: u64,
    pub events: bool,
}

impl OnlineCfg {
    /// The session `w` runs in process (for the daemon workloads: what
    /// the daemon builds for `OpenOptions::default()`, which is the
    /// in-process twin their outputs are compared with).
    pub fn of(w: Workload, sizes: &Sizes, spill_path: PathBuf) -> OnlineCfg {
        let base = OnlineCfg {
            levels: LevelPolicy::Uniform(IsolationLevel::Si),
            gc_max_txns: None,
            spill_path: None,
            ext_timeout_ms: sizes.ext_timeout_ms,
            events: false,
        };
        match w {
            Workload::SerGc => OnlineCfg {
                levels: LevelPolicy::Uniform(IsolationLevel::Ser),
                gc_max_txns: Some(sizes.ser_gc_max_txns),
                spill_path: Some(spill_path),
                ..base
            },
            Workload::Mixed => {
                OnlineCfg { levels: LevelPolicy::per_txn(IsolationLevel::Si), ..base }
            }
            Workload::ServeJsonl | Workload::ServeBin => {
                OnlineCfg { ext_timeout_ms: 5_000, events: true, ..base }
            }
            Workload::SingleSi | Workload::Sharded2 | Workload::Chronos1m => base,
        }
    }

    pub fn builder(&self) -> OnlineCheckerBuilder {
        let mut b = OnlineChecker::builder()
            .kind(DataKind::Kv)
            .levels(self.levels.clone())
            .ext_timeout_ms(self.ext_timeout_ms)
            .events(self.events);
        if let Some(max_txns) = self.gc_max_txns {
            b = b.gc(OnlineGcPolicy::Checking { max_txns });
        }
        if let Some(path) = &self.spill_path {
            b = b.spill_path(path.clone());
        }
        b
    }
}

fn ms(sw: &Stopwatch) -> f64 {
    sw.elapsed().as_secs_f64() * 1e3
}

/// `single-si`, `ser-gc`, `mixed`: `tick(at)` + `feed` per arrival,
/// then the end-of-time tick and `finish`.
pub fn online_rep<T: Tracer>(cfg: &OnlineCfg, plan: &[Arrival], t: &mut T) -> Result<Rep, String> {
    let mut ck = in_span(t, "online.build", || cfg.builder().build()).map_err(|e| e.to_string())?;
    let mut batch_ms = Vec::with_capacity(plan.len() / BATCH + 1);
    let mut spills = 0;
    let wall = Stopwatch::start();
    for batch in plan.chunks(BATCH) {
        let sw = Stopwatch::start();
        t.enter("batch");
        for (at, txn) in batch {
            let owned = txn.clone();
            t.enter("online.tick");
            ck.tick(*at);
            t.split("online.feed");
            ck.feed(owned, *at);
            t.exit();
            if T::ON && cfg.gc_max_txns.is_some() {
                // Events are off, so a GC pass shows only in the counters.
                let now = ck.stats().gc_spills;
                if now != spills {
                    spills = now;
                    t.retag_last("online.feed.gc");
                }
            }
        }
        t.exit();
        batch_ms.push(ms(&sw));
    }
    in_span(t, "online.drain", || ck.tick(u64::MAX));
    let outcome = in_span(t, "online.finish", || Checker::finish(ck));
    let wall_s = wall.elapsed().as_secs_f64();
    Ok(Rep {
        wall_s,
        batch_ms,
        summary: Summary::of(&outcome),
        outcome: Some(outcome),
        chronos: None,
    })
}

/// `sharded-2`: one `feed_batch` per dispatch batch (workers tick
/// themselves before each part), then the end-of-time tick and `finish`.
pub fn sharded_rep<T: Tracer>(
    cfg: &OnlineCfg,
    shards: usize,
    plan: &[Arrival],
    t: &mut T,
) -> Result<Rep, String> {
    let mut ck = in_span(t, "sharded.build", || cfg.builder().shards(shards).build_sharded())
        .map_err(|e| e.to_string())?;
    let mut batch_ms = Vec::with_capacity(plan.len() / BATCH + 1);
    let wall = Stopwatch::start();
    for batch in plan.chunks(BATCH) {
        let sw = Stopwatch::start();
        t.enter("batch");
        let owned: Vec<_> = batch.iter().map(|(at, txn)| (txn.clone(), *at)).collect();
        in_span(t, "sharded.submit", || ck.feed_batch(owned));
        t.exit();
        batch_ms.push(ms(&sw));
    }
    let outcome = in_span(t, "sharded.drain", || {
        ck.tick(u64::MAX);
        Checker::finish(ck)
    });
    let wall_s = wall.elapsed().as_secs_f64();
    Ok(Rep {
        wall_s,
        batch_ms,
        summary: Summary::of(&outcome),
        outcome: Some(outcome),
        chronos: None,
    })
}

/// `serve-jsonl`, `serve-bin`: open a session, one feed request per
/// payload (closed loop, one connection at a time), then `finish`.
/// Also returns the number of event lines the feed replies carried.
pub fn serve_rep<T: Tracer>(
    addr: &str,
    session: &str,
    payloads: &[Vec<u8>],
    events: bool,
    t: &mut T,
) -> Result<(Rep, u64), String> {
    in_span(t, "serve.open", || client::open(addr, session, &client::OpenOptions::default()))
        .map_err(|e| format!("open: {e}"))?;
    let mut batch_ms = Vec::with_capacity(payloads.len());
    let mut event_lines = 0;
    let wall = Stopwatch::start();
    for bytes in payloads {
        let sw = Stopwatch::start();
        let reply = in_span(t, "serve.feed", || client::feed_bytes(addr, session, bytes, events))
            .map_err(|e| format!("feed: {e}"))?;
        batch_ms.push(ms(&sw));
        event_lines += reply.events.len() as u64;
    }
    let done = in_span(t, "serve.finish", || client::finish(addr, session))
        .map_err(|e| format!("finish: {e}"))?;
    let wall_s = wall.elapsed().as_secs_f64();
    let summary = Summary::of_finish_reply(&done)?;
    Ok((Rep { wall_s, batch_ms, summary, outcome: None, chronos: None }, event_lines))
}

/// `chronos-1m`: one offline `check_si` over the whole history.
pub fn chronos_rep<T: Tracer>(inputs: &Inputs, t: &mut T) -> Rep {
    let wall = Stopwatch::start();
    let out = in_span(t, "chronos.check", || {
        aion_core::check_si(&inputs.history, &ChronosOptions::default())
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let summary = Summary {
        txns: out.txns as u64,
        violations: out.report.len() as u64,
        // Offline checking has no tentative verdicts: everything it
        // returns is final.
        finalized: out.txns as u64,
        flips: 0,
    };
    Rep { wall_s, batch_ms: vec![wall_s * 1e3], summary, outcome: None, chronos: Some(out) }
}
