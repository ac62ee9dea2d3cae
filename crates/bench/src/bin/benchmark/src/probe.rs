//! The anomaly probe: every injector of `aion_storage::anomalies`
//! planted into a small valid history and checked through two paths
//! whose violation-kind multisets must agree.
//!
//! Throughput workloads run on valid histories, where a checker that
//! reported nothing at all would pass the "0 violations" check. The
//! probe is the complement: it shows that the path a workload measures
//! still *finds* what the reference finds.

use crate::reps::{online_rep, sharded_rep, OnlineCfg};
use crate::trace::NoTrace;
use crate::workload::Workload;
use aion_core::ChronosOptions;
use aion_io::Format;
use aion_online::{feed_plan, Arrival, FeedConfig};
use aion_serve::client;
use aion_storage::{Anomaly, Expected};
use aion_types::{
    AxiomKind, CheckEvent, CheckReport, Checker, History, IsolationLevel, LevelPolicy,
};
use aion_workload::{generate_history, WorkloadSpec};

/// Fixed seed of the probe's history and injections (not `--seed`: the
/// probe checks the program, not the workload).
const PROBE_SEED: u64 = 0xa10_0b5e;

/// Instances planted per injector: enough for a signal, few enough that
/// one injector's anomalies rarely interact.
const RATE: f64 = 0.05;

const KINDS: [AxiomKind; 5] = [
    AxiomKind::Session,
    AxiomKind::Int,
    AxiomKind::Ext,
    AxiomKind::NoConflict,
    AxiomKind::Integrity,
];

/// Violations per axiom kind, in [`KINDS`] order.
type KindCounts = [u64; 5];

/// A way of checking a history at SI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    Single,
    Sharded2,
    Chronos,
    Serve(Format),
}

impl Path {
    /// The path `w` measures and the independent path it is compared
    /// with. Across the suite every path meets the single checker.
    pub fn pair_for(w: Workload) -> (Path, Path) {
        match w {
            Workload::SingleSi | Workload::SerGc | Workload::Mixed => (Path::Single, Path::Chronos),
            Workload::Sharded2 => (Path::Sharded2, Path::Single),
            Workload::Chronos1m => (Path::Chronos, Path::Single),
            Workload::ServeJsonl => (Path::Serve(Format::Jsonl), Path::Single),
            Workload::ServeBin => (Path::Serve(Format::Binary), Path::Single),
        }
    }
}

/// What one path reports for one injected history. The daemon's finish
/// reply carries no kinds, so for daemon pairs both sides report the
/// kinds of the violations streamed *during* the feed plus the total.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    kinds: KindCounts,
    total: u64,
}

fn si_cfg(events: bool) -> OnlineCfg {
    OnlineCfg {
        levels: LevelPolicy::Uniform(IsolationLevel::Si),
        gc_max_txns: None,
        spill_path: None,
        ext_timeout_ms: 5_000,
        events,
    }
}

fn out_of_order(h: &History) -> Vec<Arrival> {
    feed_plan(h, &FeedConfig { seed: PROBE_SEED, ..FeedConfig::default() })
}

fn verdict_of_report(r: &CheckReport) -> Verdict {
    Verdict { kinds: KINDS.map(|k| r.count(k) as u64), total: r.len() as u64 }
}

/// The in-process twin of a daemon session: arrival `n` at virtual time
/// `n`, a tick before every feed, events on.
fn single_as_daemon(h: &History) -> Result<Verdict, String> {
    let mut ck = si_cfg(true).builder().build().map_err(|e| e.to_string())?;
    let mut kinds = [0u64; 5];
    let mut note = |evs: Vec<CheckEvent>| {
        for e in evs {
            if let CheckEvent::Violation(v) = e {
                if let Some(i) = KINDS.iter().position(|k| *k == v.kind()) {
                    kinds[i] += 1;
                }
            }
        }
    };
    for (n, txn) in h.txns.iter().enumerate() {
        note(ck.tick(n as u64));
        note(ck.feed(txn.clone(), n as u64));
    }
    ck.tick(u64::MAX);
    let total = Checker::finish(ck).report.len() as u64;
    Ok(Verdict { kinds, total })
}

fn through_daemon(addr: &str, session: &str, h: &History, f: Format) -> Result<Verdict, String> {
    let mut bytes = Vec::new();
    aion_io::write_history(h, f, &mut bytes).map_err(|e| e.to_string())?;
    client::open(addr, session, &client::OpenOptions::default()).map_err(|e| e.to_string())?;
    let fed = client::feed_bytes(addr, session, &bytes, true).map_err(|e| e.to_string())?;
    let mut kinds = [0u64; 5];
    for line in &fed.events {
        let kind = line.get("kind").and_then(|k| k.as_str());
        if let Some(i) = KINDS.iter().position(|k| Some(k.to_string().as_str()) == kind) {
            kinds[i] += 1;
        }
    }
    let done = client::finish(addr, session).map_err(|e| e.to_string())?;
    let total = done.int_field("violations").ok_or("finish reply lacks `violations`")?;
    Ok(Verdict { kinds, total })
}

fn check(
    path: Path,
    versus: Path,
    h: &History,
    daemon: Option<(&str, &str)>,
) -> Result<Verdict, String> {
    let as_daemon = matches!(path, Path::Serve(_)) || matches!(versus, Path::Serve(_));
    match path {
        Path::Single if as_daemon => single_as_daemon(h),
        Path::Single => {
            let rep = online_rep(&si_cfg(false), &out_of_order(h), &mut NoTrace)?;
            Ok(verdict_of_report(&rep.outcome.ok_or("no outcome")?.report))
        }
        Path::Sharded2 => {
            let rep = sharded_rep(&si_cfg(false), 2, &out_of_order(h), &mut NoTrace)?;
            Ok(verdict_of_report(&rep.outcome.ok_or("no outcome")?.report))
        }
        Path::Chronos => {
            Ok(verdict_of_report(&aion_core::check_si(h, &ChronosOptions::default()).report))
        }
        Path::Serve(f) => {
            let (addr, session) = daemon.ok_or("daemon path without a daemon")?;
            through_daemon(addr, session, h, f)
        }
    }
}

/// Two verdicts on one injected history agree when their kind multisets
/// and totals are equal — with one exception. Duplicate ids and session
/// breaks corrupt the *collection*, and the online checkers recover from
/// that differently from offline CHRONOS by design (a duplicate is
/// dropped at admission, so later reads of its writes fail EXT; a swapped
/// pair is one SESSION violation online, a cascade offline). Across that
/// divide both must still detect the anomaly's tagged kind, which is the
/// conformance matrix's criterion.
fn agree(anomaly: Anomaly, path: Path, versus: Path, got: &Verdict, want: &Verdict) -> bool {
    let crosses_divide = (path == Path::Chronos) != (versus == Path::Chronos);
    let corrupts_collection = matches!(anomaly, Anomaly::DuplicateTid | Anomaly::SessionBreak);
    if !(crosses_divide && corrupts_collection) {
        return got == want;
    }
    match anomaly.profile().expected_at(IsolationLevel::Si) {
        Expected::Detect(kind) => {
            let i = KINDS.iter().position(|k| *k == kind).unwrap_or(0);
            got.kinds[i] > 0 && want.kinds[i] > 0
        }
        Expected::Accept => got.total == 0 && want.total == 0,
    }
}

/// Plant each anomaly into a copy of the `txns`-transaction base
/// history and require `path` and `versus` to agree. `daemon` is the
/// address of a running `aion_serve::Server` and a session-name prefix,
/// needed when either path is [`Path::Serve`]. Returns the number of
/// injected histories compared.
pub fn run(
    path: Path,
    versus: Path,
    txns: usize,
    daemon: Option<(&str, &str)>,
) -> Result<usize, String> {
    // A timestamp stride leaves the injectors room to relocate
    // timestamps without collisions (as the conformance matrix does).
    let spec = WorkloadSpec::default()
        .with_txns(txns)
        .with_sessions(24)
        .with_ops_per_txn(8)
        .with_keys(512)
        .with_ts_stride(16)
        .with_seed(PROBE_SEED);
    let base = generate_history(&spec, IsolationLevel::Si);
    let mut compared = 0;
    let mut mismatches = Vec::new();
    for (i, anomaly) in Anomaly::ALL.iter().enumerate() {
        let mut h = base.clone();
        let planted = anomaly.inject(&mut h, RATE, PROBE_SEED);
        let session = daemon.map(|(_, prefix)| format!("{prefix}-{i}"));
        let daemon = daemon.map(|(addr, _)| (addr, session.as_deref().unwrap_or("")));
        let got = check(path, versus, &h, daemon)?;
        let want = check(versus, path, &h, None)?;
        if !agree(*anomaly, path, versus, &got, &want) {
            mismatches.push(format!(
                "{} ({planted} planted): {path:?} reports {got:?}, {versus:?} reports {want:?}",
                anomaly.name()
            ));
        }
        compared += 1;
    }
    if mismatches.is_empty() {
        Ok(compared)
    } else {
        Err(format!("anomaly probe: {}", mismatches.join("; ")))
    }
}
