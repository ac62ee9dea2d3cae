//! The session registry: named, independently configured checking
//! sessions multiplexed inside one daemon process.
//!
//! Each session wraps one [`OnlineChecker`] or [`ShardedChecker`] behind
//! its own mutex, so tenants proceed in parallel and a busy session
//! (e.g. one mid-`feed`) answers `busy` instead of blocking the worker
//! pool. The registry also runs **admission control**: every session's
//! [`estimated_memory_bytes`](aion_types::Checker::estimated_memory_bytes)
//! is published in an atomic beside its mutex after each admission
//! window, and new arrivals are refused with a typed
//! [`ServeError::Backpressure`] once the process-wide total crosses the
//! configured hard ceiling (a soft ceiling below it only flags the
//! response, letting well-behaved clients throttle themselves).

use crate::protocol::OpenParams;
use crate::ServeError;
use aion_online::{OnlineChecker, OnlineGcPolicy, ShardedChecker};
use aion_types::snapshot::{
    get_snapshot_header, SnapshotError, SNAPSHOT_KIND_SHARDED, SNAPSHOT_KIND_SINGLE,
};
use aion_types::{CheckEvent, Checker, Clock, Outcome, RealClock};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The checker variant a session runs.
#[expect(clippy::large_enum_variant, reason = "sessions are heap-pinned behind Arc<Mutex<..>>")]
enum SessionChecker {
    /// A single-threaded [`OnlineChecker`].
    Single(OnlineChecker),
    /// A key-partitioned [`ShardedChecker`].
    Sharded(ShardedChecker),
}

impl SessionChecker {
    /// The wrapped checker's stable name (e.g. `"aion-si"`).
    fn name(&self) -> &'static str {
        match self {
            SessionChecker::Single(c) => c.name(),
            SessionChecker::Sharded(c) => c.name(),
        }
    }

    /// Ingest one admission window of arrivals, each at its own virtual
    /// time. `feed` carries the clock, so the window is the plain feed
    /// loop for the single checker and one channel send per shard for the
    /// sharded one — the same event stream either way.
    fn feed_batch(&mut self, batch: Vec<(aion_types::Transaction, u64)>) -> Vec<CheckEvent> {
        match self {
            SessionChecker::Single(c) => c.feed_batch(batch),
            SessionChecker::Sharded(c) => c.feed_batch(batch),
        }
    }

    fn finish(self) -> Outcome {
        match self {
            SessionChecker::Single(c) => c.finish(),
            SessionChecker::Sharded(c) => c.finish(),
        }
    }

    /// Approximate bytes of live checker state.
    fn estimated_memory_bytes(&self) -> usize {
        match self {
            SessionChecker::Single(c) => c.estimated_memory_bytes(),
            SessionChecker::Sharded(c) => c.estimated_memory_bytes(),
        }
    }

    /// Serialize the full checker state to a snapshot (see
    /// `docs/serve.md` for the format).
    fn checkpoint(&mut self) -> Result<Vec<u8>, SnapshotError> {
        match self {
            SessionChecker::Single(c) => c.checkpoint(),
            SessionChecker::Sharded(c) => c.checkpoint(),
        }
    }

    /// Snapshot-kind label (`"single"` / `"sharded"`).
    fn kind_label(&self) -> &'static str {
        match self {
            SessionChecker::Single(_) => "single",
            SessionChecker::Sharded(_) => "sharded",
        }
    }
}

/// One live session: the checker behind its mutex, and beside it the
/// figures `stats`, `list` and admission read *without* that mutex.
/// The atomics are written only by the holder of `checker` (one writer
/// at a time) and publish nothing but themselves, hence `Relaxed`.
struct Session {
    /// `None` once the session has been finished (a racing holder of the
    /// session handle sees "unknown" rather than a stale checker).
    checker: Mutex<Option<SessionChecker>>,
    /// The data model the session was opened with.
    kind: aion_types::DataKind,
    /// Arrivals so far — also the session's virtual clock in ms: like
    /// [`aion_io::stream_check`], the clock advances one millisecond per
    /// arrival, and it keeps counting across feeds and across
    /// checkpoint/restore so EXT timeouts behave as one uninterrupted
    /// stream.
    txns: AtomicU64,
    /// Events emitted so far.
    events: AtomicU64,
    /// Violation events emitted so far.
    violations: AtomicU64,
    /// The checker's memory estimate as of the last admission window.
    memory_bytes: AtomicUsize,
}

/// A point-in-time summary of one live session (the `list`/`stats`
/// responses).
#[derive(Clone, Debug)]
pub struct SessionInfo {
    /// Session name.
    pub name: String,
    /// Checker identifier (e.g. `"aion-ser"`), `"busy"` when the session
    /// mutex was held at sampling time.
    pub checker: String,
    /// Arrivals so far.
    pub txns: u64,
    /// Events emitted so far.
    pub events: u64,
    /// Violation events so far.
    pub violations: u64,
    /// Memory estimate as of the last admission window.
    pub memory_bytes: usize,
}

/// What one `feed` produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct FeedSummary {
    /// Transactions ingested by this feed.
    pub txns: u64,
    /// Events emitted during this feed.
    pub events: u64,
    /// Violation events during this feed.
    pub violations: u64,
    /// Memory estimate after the feed.
    pub memory_bytes: usize,
    /// The process-wide soft ceiling was crossed at least once.
    pub soft_pressure: bool,
}

/// Arrivals per admission window: the unit a feed ingests, publishes
/// its counters after, and re-checks the ceilings at. The estimate is a
/// field read; what the window amortizes is the per-batch work around
/// it (one channel send per shard, one event flush, one total).
const ADMISSION_SAMPLE_EVERY: u64 = 64;

/// The named-session table plus admission-control accounting.
pub struct Registry {
    sessions: Mutex<BTreeMap<String, Arc<Session>>>,
    soft_limit_bytes: usize,
    hard_limit_bytes: usize,
    /// Time source for idle tracking. Production uses [`RealClock`];
    /// tests swap in [`aion_types::SimClock`] so eviction is driven by a
    /// virtual clock instead of wall-clock sleeps.
    clock: Arc<dyn Clock>,
    /// Sessions idle longer than this (ms on `clock`) are reclaimed by
    /// [`Registry::evict_idle`]. `None` disables eviction.
    idle_evict_ms: Option<u64>,
    /// Per-session last-activity stamp (ms on `clock`).
    last_active: Mutex<BTreeMap<String, u64>>,
}

impl Registry {
    /// A registry with the given soft/hard admission ceilings (bytes),
    /// a wall clock, and idle eviction disabled.
    pub fn new(soft_limit_bytes: usize, hard_limit_bytes: usize) -> Registry {
        Registry {
            sessions: Mutex::new(BTreeMap::new()),
            soft_limit_bytes,
            hard_limit_bytes,
            clock: Arc::new(RealClock::new()),
            idle_evict_ms: None,
            last_active: Mutex::new(BTreeMap::new()),
        }
    }

    /// Replace the registry's time source (builder-style). Used by the
    /// deterministic simulation tests to drive idle eviction from a
    /// [`aion_types::SimClock`].
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Registry {
        self.clock = clock;
        self
    }

    /// Enable idle-session eviction (builder-style): sessions untouched
    /// for `ms` milliseconds become candidates for [`Registry::evict_idle`].
    pub fn with_idle_eviction(mut self, ms: u64) -> Registry {
        self.idle_evict_ms = Some(ms);
        self
    }

    fn touch(&self, name: &str) {
        self.last_active.lock().insert(name.to_owned(), self.clock.now_ms());
    }

    /// Drop sessions whose last activity is older than the configured
    /// idle window, returning the evicted names (in name order). Busy
    /// sessions (mutex held, e.g. mid-feed) are skipped — a feed in
    /// flight IS activity, and it re-stamps the session when it
    /// finishes. No-op when eviction is disabled.
    pub fn evict_idle(&self) -> Vec<String> {
        let Some(window) = self.idle_evict_ms else { return Vec::new() };
        let now = self.clock.now_ms();
        let stale: Vec<String> = self
            .last_active
            .lock()
            .iter()
            .filter(|(_, &at)| now.saturating_sub(at) >= window)
            .map(|(name, _)| name.clone())
            .collect();
        let mut evicted = Vec::new();
        for name in stale {
            let Some(session) = self.sessions.lock().get(&name).cloned() else {
                self.last_active.lock().remove(&name);
                continue;
            };
            // try_lock: never block eviction behind a live feed.
            let Some(mut checker) = session.checker.try_lock() else { continue };
            // A finished-but-unremoved session has no checker to drop;
            // either way the table entry goes away.
            checker.take();
            drop(checker);
            self.sessions.lock().remove(&name);
            self.last_active.lock().remove(&name);
            evicted.push(name);
        }
        evicted
    }

    /// Sum of the sessions' published memory estimates. Takes the
    /// session table's lock only, never a tenant's.
    pub fn total_memory_bytes(&self) -> usize {
        self.sessions.lock().values().map(|s| s.memory_bytes.load(Relaxed)).sum()
    }

    /// Whether `name` is a live session (a table lookup; no session
    /// lock is taken).
    pub(crate) fn exists(&self, name: &str) -> bool {
        self.sessions.lock().contains_key(name)
    }

    /// Create a session from `params`. Fails on duplicate names and
    /// invalid configurations.
    pub fn open(&self, name: &str, params: &OpenParams) -> Result<&'static str, ServeError> {
        let checker = build_checker(params)?;
        let label = checker.name();
        self.insert(name, checker, params.kind, 0)?;
        Ok(label)
    }

    fn insert(
        &self,
        name: &str,
        checker: SessionChecker,
        kind: aion_types::DataKind,
        txns: u64,
    ) -> Result<(), ServeError> {
        let mut sessions = self.sessions.lock();
        if sessions.contains_key(name) {
            return Err(ServeError::DuplicateSession(name.to_owned()));
        }
        sessions.insert(
            name.to_owned(),
            Arc::new(Session {
                memory_bytes: AtomicUsize::new(checker.estimated_memory_bytes()),
                checker: Mutex::new(Some(checker)),
                kind,
                txns: AtomicU64::new(txns),
                events: AtomicU64::new(0),
                violations: AtomicU64::new(0),
            }),
        );
        drop(sessions);
        self.touch(name);
        Ok(())
    }

    fn handle(&self, name: &str) -> Result<Arc<Session>, ServeError> {
        self.sessions
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSession(name.to_owned()))
    }

    /// Stream every transaction of `reader` into session `name`,
    /// invoking `sink` with each batch of events. The virtual clock
    /// continues from the session's running arrival count.
    pub fn feed(
        &self,
        name: &str,
        reader: &mut dyn aion_io::HistoryReader,
        mut sink: impl FnMut(&[CheckEvent]) -> Result<(), ServeError>,
    ) -> Result<FeedSummary, ServeError> {
        let session = self.handle(name)?;
        let mut guard =
            session.checker.try_lock().ok_or_else(|| ServeError::Busy(name.to_owned()))?;
        // A feed attempt is activity even when admission refuses it —
        // a throttled-but-live client should not be evicted from under
        // its retry loop.
        self.touch(name);
        let checker = guard.as_mut().ok_or_else(|| ServeError::UnknownSession(name.to_owned()))?;
        let mut summary = FeedSummary::default();
        let backpressure = |total: usize| ServeError::Backpressure {
            session: name.to_owned(),
            estimated_bytes: total,
            limit_bytes: self.hard_limit_bytes,
        };
        // Admit against the estimates previous feeds published before
        // ingesting anything from this one.
        let published_total = self.total_memory_bytes();
        if published_total > self.hard_limit_bytes {
            return Err(backpressure(published_total));
        }
        loop {
            // Collect one admission window, stamping each arrival with
            // its own virtual time, then ingest it as a single batch —
            // for sharded sessions that is one channel send per shard
            // instead of one per transaction.
            let clock = session.txns.load(Relaxed);
            let mut window: Vec<(aion_types::Transaction, u64)> =
                Vec::with_capacity(ADMISSION_SAMPLE_EVERY as usize);
            while (window.len() as u64) < ADMISSION_SAMPLE_EVERY {
                let Some(txn) = reader.next_txn()? else { break };
                window.push((txn, clock + window.len() as u64));
            }
            let exhausted = (window.len() as u64) < ADMISSION_SAMPLE_EVERY;
            if !window.is_empty() {
                let ingested = window.len() as u64;
                let evs = checker.feed_batch(window);
                let violations = evs.iter().filter(|e| e.is_violation()).count() as u64;
                summary.txns += ingested;
                summary.events += evs.len() as u64;
                summary.violations += violations;
                // Publish before the sink can fail: whatever happens to
                // the connection, `stats` and admission see this window.
                session.txns.fetch_add(ingested, Relaxed);
                session.events.fetch_add(evs.len() as u64, Relaxed);
                session.violations.fetch_add(violations, Relaxed);
                session.memory_bytes.store(checker.estimated_memory_bytes(), Relaxed);
                sink(&evs)?;
            }
            // Re-check the ceilings at each window boundary: a feed
            // overshoots the hard ceiling by at most one window before
            // refusal, and the session keeps everything ingested so far
            // (checkpoint, finish and retry all remain available).
            let total = self.total_memory_bytes();
            if total > self.soft_limit_bytes {
                summary.soft_pressure = true;
            }
            if exhausted {
                // An empty last window changed nothing since the
                // previous publish, so the atomic is current either way.
                summary.memory_bytes = session.memory_bytes.load(Relaxed);
                return Ok(summary);
            }
            if total > self.hard_limit_bytes {
                return Err(backpressure(total));
            }
        }
    }

    /// Finish session `name`: close the checker — `finish` finalizes every
    /// tentative EXT verdict, whatever its deadline, into the report —
    /// and remove the session. Returns the terminal outcome plus
    /// the session's lifetime arrival count.
    pub fn finish(&self, name: &str) -> Result<(Outcome, u64), ServeError> {
        let session = self.handle(name)?;
        let mut guard =
            session.checker.try_lock().ok_or_else(|| ServeError::Busy(name.to_owned()))?;
        let checker = guard.take().ok_or_else(|| ServeError::UnknownSession(name.to_owned()))?;
        let outcome = checker.finish();
        drop(guard);
        self.sessions.lock().remove(name);
        self.last_active.lock().remove(name);
        Ok((outcome, session.txns.load(Relaxed)))
    }

    /// Checkpoint session `name` to `path` on the server's filesystem.
    /// The session keeps running; the snapshot captures the state as of
    /// this call. Returns `(snapshot kind, bytes written)`.
    pub fn checkpoint(&self, name: &str, path: &str) -> Result<(&'static str, usize), ServeError> {
        let session = self.handle(name)?;
        let mut guard =
            session.checker.try_lock().ok_or_else(|| ServeError::Busy(name.to_owned()))?;
        self.touch(name);
        let txns = session.txns.load(Relaxed);
        let data_kind = session.kind;
        let checker = guard.as_mut().ok_or_else(|| ServeError::UnknownSession(name.to_owned()))?;
        let kind = checker.kind_label();
        let body = checker.checkpoint().map_err(ServeError::Snapshot)?;
        // The daemon wraps the checker snapshot with the session's own
        // resume state (running txn counter, data kind) so a restored
        // session continues the virtual clock where it stopped.
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(&txns.to_le_bytes());
        out.push(match data_kind {
            aion_types::DataKind::Kv => 0,
            aion_types::DataKind::List => 1,
        });
        out.extend_from_slice(&body);
        let len = out.len();
        std::fs::write(path, out)?;
        Ok((kind, len))
    }

    /// Re-create session `name` from the snapshot at `path`. For sharded
    /// snapshots `shards` re-partitions onto a different worker count;
    /// it is rejected for single-checker snapshots.
    pub fn restore(
        &self,
        name: &str,
        path: &str,
        shards: Option<usize>,
    ) -> Result<&'static str, ServeError> {
        let raw = std::fs::read(path)?;
        let truncated = || {
            ServeError::Snapshot(SnapshotError::Corrupt(
                "session snapshot shorter than its resume header".into(),
            ))
        };
        let txns_raw: &[u8; 8] =
            raw.get(..8).and_then(|h| h.try_into().ok()).ok_or_else(truncated)?;
        let txns = u64::from_le_bytes(*txns_raw);
        let kind = match raw.get(8).copied().ok_or_else(truncated)? {
            0 => aion_types::DataKind::Kv,
            1 => aion_types::DataKind::List,
            other => {
                return Err(ServeError::Snapshot(SnapshotError::Corrupt(format!(
                    "bad data-kind byte {other} in session resume header"
                ))))
            }
        };
        let bytes = raw.get(9..).ok_or_else(truncated)?;
        // Dispatch on the envelope's kind byte without consuming it —
        // the restore constructors re-validate the full header.
        let snap_kind = get_snapshot_header(&mut { bytes })?;
        let checker = match snap_kind {
            SNAPSHOT_KIND_SINGLE => {
                if shards.is_some() {
                    return Err(ServeError::Config(
                        "cannot re-shard a single-checker snapshot (open a sharded session \
                         and re-feed, or restore without 'shards')"
                            .into(),
                    ));
                }
                SessionChecker::Single(OnlineChecker::restore(bytes)?)
            }
            SNAPSHOT_KIND_SHARDED => {
                SessionChecker::Sharded(ShardedChecker::restore(bytes, shards)?)
            }
            other => {
                return Err(ServeError::Snapshot(SnapshotError::WrongKind {
                    expected: SNAPSHOT_KIND_SINGLE,
                    found: other,
                }))
            }
        };
        let label = checker.name();
        self.insert(name, checker, kind, txns)?;
        Ok(label)
    }

    /// Live counters for session `name`.
    pub fn stats(&self, name: &str) -> Result<SessionInfo, ServeError> {
        self.handle(name).map(|session| info(name, &session))
    }

    /// Summaries of every live session, in name order.
    pub fn list(&self) -> Vec<SessionInfo> {
        let sessions: Vec<(String, Arc<Session>)> =
            self.sessions.lock().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        sessions.iter().map(|(name, session)| info(name, session)).collect()
    }
}

/// A session's published figures. Only the checker's name needs the
/// session lock; a mid-feed session answers `"busy"` there and reports
/// the counters its feed last published instead of blocking `list`.
fn info(name: &str, session: &Session) -> SessionInfo {
    let checker = match session.checker.try_lock() {
        Some(guard) => guard.as_ref().map_or("finished", SessionChecker::name),
        None => "busy",
    };
    SessionInfo {
        name: name.to_owned(),
        checker: checker.to_owned(),
        txns: session.txns.load(Relaxed),
        events: session.events.load(Relaxed),
        violations: session.violations.load(Relaxed),
        memory_bytes: session.memory_bytes.load(Relaxed),
    }
}

/// Build the checker a fresh `open` asked for.
fn build_checker(params: &OpenParams) -> Result<SessionChecker, ServeError> {
    let mut b = OnlineChecker::builder().kind(params.kind).levels(params.levels.clone());
    if let Some(ms) = params.ext_timeout_ms {
        b = b.ext_timeout_ms(ms);
    }
    if let Some(max_txns) = params.gc_max_txns {
        b = b.gc(OnlineGcPolicy::Checking { max_txns });
    }
    if let Some(p) = &params.spill_path {
        b = b.spill_path(p.clone());
    }
    let cfg_err = |e: aion_online::ConfigError| ServeError::Config(e.to_string());
    Ok(match params.shards {
        Some(n) => SessionChecker::Sharded(b.shards(n.max(1)).build_sharded().map_err(cfg_err)?),
        None => SessionChecker::Single(b.build().map_err(cfg_err)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_io::{open_stream, write_history, Format, ReaderOptions};
    use aion_types::{DataKind, History, Key, TxnBuilder, Value};

    fn tiny_history(anomalous: bool) -> History {
        let mut h = History::new(DataKind::Kv);
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(5)).build());
        let read = if anomalous { Value(99) } else { Value(5) };
        h.push(TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), read).build());
        h
    }

    fn feed_history(reg: &Registry, name: &str, h: &History) -> FeedSummary {
        let mut bytes = Vec::new();
        write_history(h, Format::Jsonl, &mut bytes).unwrap();
        let mut reader = open_stream(&bytes[..], Format::Jsonl, ReaderOptions::default()).unwrap();
        reg.feed(name, reader.as_mut(), |_| Ok(())).unwrap()
    }

    #[test]
    fn open_feed_finish_lifecycle() {
        let reg = Registry::new(usize::MAX, usize::MAX);
        reg.open("t", &OpenParams::default()).unwrap();
        assert!(matches!(
            reg.open("t", &OpenParams::default()),
            Err(ServeError::DuplicateSession(_))
        ));
        let s = feed_history(&reg, "t", &tiny_history(false));
        assert_eq!(s.txns, 2);
        let (outcome, txns) = reg.finish("t").unwrap();
        assert_eq!(txns, 2);
        assert!(outcome.is_ok());
        assert!(matches!(reg.finish("t"), Err(ServeError::UnknownSession(_))));
        assert!(reg.list().is_empty());
    }

    #[test]
    fn anomalies_reach_the_outcome() {
        let reg = Registry::new(usize::MAX, usize::MAX);
        reg.open("t", &OpenParams::default()).unwrap();
        feed_history(&reg, "t", &tiny_history(true));
        let (outcome, _) = reg.finish("t").unwrap();
        assert!(!outcome.is_ok());
    }

    #[test]
    fn hard_ceiling_refuses_feeds_but_keeps_the_session() {
        let reg = Registry::new(0, 0);
        reg.open("t", &OpenParams::default()).unwrap();
        // The first tiny feed finishes inside one admission batch; it
        // leaves a non-zero cached estimate behind...
        let s = feed_history(&reg, "t", &tiny_history(false));
        assert!(s.memory_bytes > 0);
        // ...so the next feed is refused outright, before ingestion.
        let mut bytes = Vec::new();
        write_history(&tiny_history(false), Format::Jsonl, &mut bytes).unwrap();
        let mut reader = open_stream(&bytes[..], Format::Jsonl, ReaderOptions::default()).unwrap();
        let err = reg.feed("t", reader.as_mut(), |_| Ok(())).unwrap_err();
        assert!(matches!(err, ServeError::Backpressure { .. }), "{err}");
        let stats = reg.stats("t").unwrap();
        assert_eq!(stats.txns, 2, "the refused feed ingested nothing");
        // The session survives refusal: finish still yields a verdict.
        let (outcome, _) = reg.finish("t").unwrap();
        assert!(outcome.is_ok());
    }

    #[test]
    fn hard_ceiling_stops_a_long_feed_at_a_batch_boundary() {
        let reg = Registry::new(0, 0);
        reg.open("t", &OpenParams::default()).unwrap();
        // 130 serial writer transactions: far more than one admission
        // batch, so the mid-feed re-sample must trip.
        let mut h = History::new(DataKind::Kv);
        for i in 0..130u64 {
            h.push(
                TxnBuilder::new(i + 1)
                    .session(0, i as u32)
                    .interval(2 * i + 1, 2 * i + 2)
                    .put(Key(i), Value(i))
                    .build(),
            );
        }
        let mut bytes = Vec::new();
        write_history(&h, Format::Jsonl, &mut bytes).unwrap();
        let mut reader = open_stream(&bytes[..], Format::Jsonl, ReaderOptions::default()).unwrap();
        let err = reg.feed("t", reader.as_mut(), |_| Ok(())).unwrap_err();
        assert!(matches!(err, ServeError::Backpressure { .. }), "{err}");
        let stats = reg.stats("t").unwrap();
        assert_eq!(stats.txns, 64, "refused after exactly one admission batch");
    }

    /// A mid-feed session cannot be locked, but it is not a blank: the
    /// feed publishes its counters and estimate after every admission
    /// window, and `stats`/`list` report those last-known values.
    #[test]
    fn busy_sessions_report_their_last_published_counters() {
        let reg = Registry::new(usize::MAX, usize::MAX);
        reg.open("t", &OpenParams::default()).unwrap();
        let mut h = History::new(DataKind::Kv);
        for i in 0..130u64 {
            // Every tenth arrival reuses tid 1: a violation event at
            // arrival, so all three counters move mid-feed.
            // (Rejected before SESSION, so session 0's numbering skips it.)
            let dup = i > 0 && i % 10 == 0;
            h.push(
                TxnBuilder::new(if dup { 1 } else { i + 1 })
                    .session(u32::from(dup), (i - i / 10) as u32)
                    .interval(2 * i + 1, 2 * i + 2)
                    .put(Key(i), Value(i))
                    .build(),
            );
        }
        let mut bytes = Vec::new();
        write_history(&h, Format::Jsonl, &mut bytes).unwrap();
        let mut reader = open_stream(&bytes[..], Format::Jsonl, ReaderOptions::default()).unwrap();
        let mut seen = Vec::new();
        let mut violations = 0u64;
        let summary = reg
            .feed("t", reader.as_mut(), |evs| {
                violations += evs.iter().filter(|e| e.is_violation()).count() as u64;
                let info = reg.stats("t")?;
                assert_eq!(info.checker, "busy", "the feed holds the session lock");
                assert_eq!(info.violations, violations, "published with their window");
                assert_eq!(info.events, violations, "this history emits nothing else");
                assert_eq!(reg.list()[0].txns, info.txns, "`list` reads the same atomics");
                seen.push((info.txns, info.memory_bytes));
                Ok(())
            })
            .unwrap();
        assert_eq!(summary.violations, 12);
        let txns: Vec<u64> = seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(txns, vec![64, 128, 130], "one publish per admission window");
        assert!(seen.windows(2).all(|w| w[0].1 < w[1].1), "estimates grow with the feed: {seen:?}");
        let idle = reg.stats("t").unwrap();
        assert_eq!(idle.checker, "aion-si");
        assert_eq!((idle.txns, idle.events), (summary.txns, summary.events));
        assert_eq!(Some(idle.memory_bytes), seen.last().map(|(_, m)| *m));
        assert_eq!(idle.memory_bytes, summary.memory_bytes);
    }

    #[test]
    fn soft_ceiling_only_flags_the_feed() {
        let reg = Registry::new(0, usize::MAX);
        reg.open("t", &OpenParams::default()).unwrap();
        let s = feed_history(&reg, "t", &tiny_history(false));
        assert!(s.soft_pressure);
        assert_eq!(s.txns, 2);
    }

    #[test]
    fn checkpoint_restore_resumes_the_session_clock() {
        let dir = std::env::temp_dir().join(format!("aion-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("t.ckpt");
        let snap = snap.to_str().unwrap();

        let reg = Registry::new(usize::MAX, usize::MAX);
        reg.open("t", &OpenParams::default()).unwrap();
        feed_history(&reg, "t", &tiny_history(false));
        let (kind, bytes) = reg.checkpoint("t", snap).unwrap();
        assert_eq!(kind, "single");
        assert!(bytes > 9);

        reg.restore("copy", snap, None).unwrap();
        let stats = reg.stats("copy").unwrap();
        assert_eq!(stats.txns, 2, "virtual clock resumes, not restarts");
        let (restored, _) = reg.finish("copy").unwrap();
        let (original, _) = reg.finish("t").unwrap();
        assert!(restored.is_ok() && original.is_ok());
        assert_eq!(restored.report.violations, original.report.violations);

        assert!(
            matches!(reg.restore("again", snap, Some(2)), Err(ServeError::Config(_)),),
            "re-sharding a single-checker snapshot is a typed config error"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_sessions_checkpoint_and_reshard() {
        let dir = std::env::temp_dir().join(format!("aion-serve-shreg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("s.ckpt");
        let snap = snap.to_str().unwrap();

        let reg = Registry::new(usize::MAX, usize::MAX);
        let params = OpenParams { shards: Some(2), ..OpenParams::default() };
        reg.open("s", &params).unwrap();
        feed_history(&reg, "s", &tiny_history(true));
        let (kind, _) = reg.checkpoint("s", snap).unwrap();
        assert_eq!(kind, "sharded");

        reg.restore("s3", snap, Some(3)).unwrap();
        let (reshard, _) = reg.finish("s3").unwrap();
        let (orig, _) = reg.finish("s").unwrap();
        assert_eq!(reshard.is_ok(), orig.is_ok());
        assert_eq!(reshard.report.violations.len(), orig.report.violations.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `{"cmd":"open","shards":1000000}` and `restore … shards=1000000`
    /// used to reach a thread-spawn `expect` and kill the pool worker.
    #[test]
    fn a_shard_count_from_the_socket_is_bounded() {
        let dir = std::env::temp_dir().join(format!("aion-serve-maxsh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = || std::fs::read_dir(&dir).unwrap().count();
        let spilling = |shards: usize| OpenParams {
            shards: Some(shards),
            spill_path: Some(dir.join("spill.bin").to_str().unwrap().to_owned()),
            ..OpenParams::default()
        };
        let reg = Registry::new(usize::MAX, usize::MAX);
        assert!(matches!(reg.open("big", &spilling(1_000_000)), Err(ServeError::Config(_))));
        assert_eq!(files(), 0, "no worker was built");

        reg.open("s", &spilling(2)).unwrap();
        let snap = dir.join("s.ckpt");
        reg.checkpoint("s", snap.to_str().unwrap()).unwrap();
        reg.finish("s").unwrap();
        for shard in 0..2 {
            std::fs::remove_file(dir.join(format!("spill.bin.shard{shard}"))).unwrap();
        }
        assert!(matches!(
            reg.restore("big", snap.to_str().unwrap(), Some(1_000_000)),
            Err(ServeError::Snapshot(SnapshotError::Corrupt(_)))
        ));
        assert_eq!(files(), 1, "only the snapshot: no worker was built");
        assert!(reg.list().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_session_snapshots_are_typed() {
        let dir = std::env::temp_dir().join(format!("aion-serve-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.ckpt");
        std::fs::write(&p, b"short").unwrap();
        let reg = Registry::new(usize::MAX, usize::MAX);
        assert!(matches!(
            reg.restore("x", p.to_str().unwrap(), None),
            Err(ServeError::Snapshot(_))
        ));
        std::fs::write(&p, [0u8; 64]).unwrap();
        assert!(matches!(
            reg.restore("x", p.to_str().unwrap(), None),
            Err(ServeError::Snapshot(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
