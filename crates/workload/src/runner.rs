//! Workload execution: turn templates into histories against a store.
//!
//! Two drivers are provided:
//!
//! * [`run_interleaved`] — deterministic single-threaded interleaving: a
//!   seeded scheduler advances one session by one step (begin / op /
//!   commit) at a time, so sessions genuinely overlap (concurrency, FCW
//!   aborts, retries) while the resulting history is reproducible. All
//!   checking experiments use this driver.
//! * [`run_threaded`] — one OS thread per session, for wall-clock
//!   throughput measurements (the collection-overhead experiment, Fig. 15).
//!
//! Write values are globally unique (≥ 1), a prerequisite for the
//! value-based baseline checkers (Elle, Cobra).

use crate::templates::{OpTemplate, TxnTemplate};
use aion_storage::{
    CentralOracle, CommitError, FaultPlan, MvccStore, Recorder, Store, StoreTxn, TwoPlStore,
};
use aion_types::Stopwatch;
use aion_types::{DataKind, History, SessionId, SplitMix64, Transaction, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Give up on a template after this many aborted attempts.
const MAX_ATTEMPTS: usize = 25;

/// Outcome of a workload run.
#[derive(Debug)]
pub struct RunReport {
    /// The collected history (committed transactions only).
    pub history: History,
    /// Number of committed transactions.
    pub committed: usize,
    /// Number of aborted attempts (conflicts / lock failures).
    pub aborted_attempts: usize,
    /// Templates abandoned after the retry budget (25 attempts) was
    /// exhausted.
    pub skipped: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl RunReport {
    /// Committed transactions per second.
    pub fn tps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.elapsed.as_secs_f64()
    }
}

struct SessionState<T> {
    sid: SessionId,
    /// Indices into the template slice, in session order.
    queue: Vec<usize>,
    qpos: usize,
    active: Option<(T, usize)>,
    attempts: usize,
    sno: u32,
}

/// Deterministically interleave `sessions` sessions over `templates`
/// (round-robin assignment), producing a history in commit order.
pub fn run_interleaved<S: Store>(
    store: &S,
    templates: &[TxnTemplate],
    sessions: usize,
    seed: u64,
) -> RunReport {
    run_interleaved_with_recorder(store, templates, sessions, seed, None)
}

/// [`run_interleaved`] with an optional collector on the commit path, for
/// measuring collection overhead deterministically (Fig. 15).
pub fn run_interleaved_with_recorder<S: Store>(
    store: &S,
    templates: &[TxnTemplate],
    sessions: usize,
    seed: u64,
    recorder: Option<&Recorder>,
) -> RunReport {
    assert!(sessions > 0, "need at least one session");
    let kind = store.kind();
    let start = Stopwatch::start();
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let mut value_counter: u64 = 1;

    let mut states: Vec<SessionState<S::Txn>> = (0..sessions)
        .map(|s| SessionState {
            sid: SessionId(s as u32),
            queue: (s..templates.len()).step_by(sessions).collect(),
            qpos: 0,
            active: None,
            attempts: 0,
            sno: 0,
        })
        .collect();
    let mut live: Vec<usize> = (0..sessions).filter(|&s| !states[s].queue.is_empty()).collect();

    let mut history = History::new(kind);
    let mut committed = 0usize;
    let mut aborted = 0usize;
    let mut skipped = 0usize;

    while !live.is_empty() {
        let pick = rng.below(live.len() as u64) as usize;
        let si = live[pick];
        let s = &mut states[si];

        if s.qpos >= s.queue.len() {
            live.swap_remove(pick);
            continue;
        }
        let tmpl = &templates[s.queue[s.qpos]];

        match &mut s.active {
            None => {
                s.active = Some((store.begin(s.sid, s.sno), 0));
            }
            Some((txn, pos)) if *pos < tmpl.ops.len() => {
                let result = match tmpl.ops[*pos] {
                    OpTemplate::Read(k) => txn.read(k).map(|_| ()),
                    OpTemplate::Write(k) => {
                        let v = Value(value_counter);
                        value_counter += 1;
                        match kind {
                            DataKind::Kv => txn.put(k, v),
                            DataKind::List => txn.append(k, v),
                        }
                    }
                };
                match result {
                    Ok(()) => *pos += 1,
                    Err(_) => {
                        // Lock failure: handle already aborted; retry or skip.
                        s.active = None;
                        aborted += 1;
                        s.attempts += 1;
                        if s.attempts >= MAX_ATTEMPTS {
                            s.qpos += 1;
                            s.attempts = 0;
                            skipped += 1;
                        }
                    }
                }
            }
            Some(_) => {
                let (txn, _) = s.active.take().expect("active checked above");
                match txn.commit() {
                    Ok(t) => {
                        if let Some(rec) = recorder {
                            // CDC tap: encode and ship, without a second
                            // in-engine copy.
                            rec.record_ref(&t);
                        }
                        history.push(t);
                        committed += 1;
                        s.sno += 1;
                        s.qpos += 1;
                        s.attempts = 0;
                    }
                    Err(CommitError::Conflict(_)) | Err(CommitError::LockBusy(_)) => {
                        aborted += 1;
                        s.attempts += 1;
                        if s.attempts >= MAX_ATTEMPTS {
                            s.qpos += 1;
                            s.attempts = 0;
                            skipped += 1;
                        }
                    }
                }
            }
        }
    }

    RunReport { history, committed, aborted_attempts: aborted, skipped, elapsed: start.elapsed() }
}

/// Run with one OS thread per session, recording through `recorder`
/// (collection order = arrival order). Used for throughput measurements.
pub fn run_threaded<S: Store + Clone>(
    store: &S,
    templates: &[TxnTemplate],
    sessions: usize,
    recorder: Option<&Recorder>,
) -> RunReport {
    assert!(sessions > 0, "need at least one session");
    let kind = store.kind();
    let start = Stopwatch::start();
    let committed = AtomicUsize::new(0);
    let aborted = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let value_counter = AtomicU64::new(1);
    let fallback = Recorder::new(kind);
    let rec = recorder.unwrap_or(&fallback);

    std::thread::scope(|scope| {
        for s in 0..sessions {
            let store = store.clone();
            let committed = &committed;
            let aborted = &aborted;
            let skipped = &skipped;
            let value_counter = &value_counter;
            let my: Vec<&TxnTemplate> = templates.iter().skip(s).step_by(sessions).collect();
            scope.spawn(move || {
                let sid = SessionId(s as u32);
                let mut sno = 0u32;
                for tmpl in my {
                    let mut attempts = 0usize;
                    loop {
                        match execute_once(&store, sid, sno, tmpl, kind, value_counter) {
                            Ok(txn) => {
                                rec.record(txn);
                                committed.fetch_add(1, Ordering::Relaxed);
                                sno += 1;
                                break;
                            }
                            Err(_) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                if attempts >= MAX_ATTEMPTS {
                                    skipped.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                    }
                }
            });
        }
    });

    RunReport {
        history: rec.take_history(),
        committed: committed.load(Ordering::Relaxed),
        aborted_attempts: aborted.load(Ordering::Relaxed),
        skipped: skipped.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

fn execute_once<S: Store>(
    store: &S,
    sid: SessionId,
    sno: u32,
    tmpl: &TxnTemplate,
    kind: DataKind,
    value_counter: &AtomicU64,
) -> Result<Transaction, CommitError> {
    let mut txn = store.begin(sid, sno);
    for op in &tmpl.ops {
        match *op {
            OpTemplate::Read(k) => {
                txn.read(k)?;
            }
            OpTemplate::Write(k) => {
                let v = Value(value_counter.fetch_add(1, Ordering::Relaxed));
                match kind {
                    DataKind::Kv => txn.put(k, v)?,
                    DataKind::List => txn.append(k, v)?,
                }
            }
        }
    }
    txn.commit()
}

/// Which engine to generate a history with — since the level-lattice
/// redesign this *is* [`aion_types::IsolationLevel`]: `Ser` runs the
/// strict-2PL engine, every weaker level runs the MVCC-SI engine (an
/// SI execution is valid at every level at or below SI).
pub type IsolationLevel = aion_types::IsolationLevel;

/// Generate a history for `spec` deterministically at the given level,
/// stamping declared per-transaction levels when
/// [`WorkloadSpec::level_mix`](crate::WorkloadSpec) is set.
pub fn generate_history(spec: &crate::WorkloadSpec, level: IsolationLevel) -> History {
    let templates = crate::generate_templates(spec);
    run_templates(spec, level, &templates)
}

/// Run pre-built templates (e.g. an application workload) under `spec`'s
/// session count, seed and oracle stride at the given level, stamping
/// declared per-transaction levels when the spec carries a
/// [`LevelMix`](crate::LevelMix).
pub fn run_templates(
    spec: &crate::WorkloadSpec,
    level: IsolationLevel,
    templates: &[TxnTemplate],
) -> History {
    let oracle = || Box::new(CentralOracle::with_stride(spec.ts_stride.max(1)));
    let mut history = match level {
        IsolationLevel::Ser => {
            let store = TwoPlStore::with_oracle(spec.kind, oracle());
            run_interleaved(&store, templates, spec.sessions, spec.seed).history
        }
        // RC, RA and SI all execute on the MVCC-SI engine: its
        // histories satisfy SI and therefore every weaker level.
        _ => {
            let store = MvccStore::with_oracle(spec.kind, oracle());
            run_interleaved(&store, templates, spec.sessions, spec.seed).history
        }
    };
    if let Some(mix) = spec.level_mix {
        mix.stamp(&mut history, spec.seed);
    }
    history
}

/// Generate an SI history with engine-side fault injection.
pub fn generate_faulty_history(spec: &crate::WorkloadSpec, plan: FaultPlan) -> History {
    let templates = crate::generate_templates(spec);
    let oracle = Box::new(CentralOracle::with_stride(spec.ts_stride.max(1)));
    let store = MvccStore::with_parts(spec.kind, oracle, plan);
    run_interleaved(&store, &templates, spec.sessions, spec.seed).history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::default().with_txns(200).with_sessions(8).with_ops_per_txn(5).with_keys(20)
    }

    #[test]
    fn interleaved_si_commits_everything_without_skips() {
        let spec = small_spec();
        let templates = crate::generate_templates(&spec);
        let store = MvccStore::new(DataKind::Kv);
        let r = run_interleaved(&store, &templates, spec.sessions, 1);
        assert_eq!(r.committed + r.skipped, 200);
        assert_eq!(r.history.len(), r.committed);
        assert!(r.skipped <= 5, "too many skips: {}", r.skipped);
    }

    #[test]
    fn interleaved_is_deterministic() {
        let spec = small_spec();
        let templates = crate::generate_templates(&spec);
        let h1 = run_interleaved(&MvccStore::new(DataKind::Kv), &templates, 8, 9).history;
        let h2 = run_interleaved(&MvccStore::new(DataKind::Kv), &templates, 8, 9).history;
        assert_eq!(h1, h2);
    }

    #[test]
    fn interleaved_produces_overlapping_transactions() {
        let spec = small_spec();
        let templates = crate::generate_templates(&spec);
        let r = run_interleaved(&MvccStore::new(DataKind::Kv), &templates, 8, 1);
        let overlapping = r
            .history
            .txns
            .iter()
            .enumerate()
            .any(|(i, a)| r.history.txns[..i].iter().any(|b| a.overlaps(b)));
        assert!(overlapping, "interleaving must create concurrency");
    }

    #[test]
    fn interleaved_session_metadata_is_contiguous() {
        let spec = small_spec();
        let templates = crate::generate_templates(&spec);
        let r = run_interleaved(&MvccStore::new(DataKind::Kv), &templates, 8, 1);
        assert!(r.history.integrity_issues().is_empty());
    }

    #[test]
    fn threaded_run_commits() {
        let spec = small_spec();
        let templates = crate::generate_templates(&spec);
        let store = MvccStore::new(DataKind::Kv);
        let r = run_threaded(&store, &templates, 4, None);
        assert!(r.committed > 0);
        assert_eq!(r.history.len(), r.committed);
        assert!(r.tps() > 0.0);
    }

    #[test]
    fn twopl_interleaved_run_completes() {
        let spec = small_spec();
        let templates = crate::generate_templates(&spec);
        let store = TwoPlStore::new(DataKind::Kv);
        let r = run_interleaved(&store, &templates, 8, 1);
        assert!(r.committed > 150, "committed {}", r.committed);
        assert!(r.history.integrity_issues().is_empty());
    }

    #[test]
    fn unique_write_values() {
        let spec = small_spec().with_read_ratio(0.0);
        let templates = crate::generate_templates(&spec);
        let r = run_interleaved(&MvccStore::new(DataKind::Kv), &templates, 8, 1);
        let mut seen = std::collections::BTreeSet::new();
        for t in &r.history.txns {
            for op in &t.ops {
                if let aion_types::Op::Write { mutation: aion_types::Mutation::Put(v), .. } = op {
                    assert!(seen.insert(*v), "duplicate write value {v:?}");
                }
            }
        }
    }

    #[test]
    fn list_histories_append() {
        let spec = small_spec().with_kind(DataKind::List).with_read_ratio(0.3);
        let h = generate_history(&spec, IsolationLevel::Si);
        assert!(h.txns.iter().any(|t| t.ops.iter().any(|o| matches!(
            o,
            aion_types::Op::Write { mutation: aion_types::Mutation::Append(_), .. }
        ))));
    }
}
