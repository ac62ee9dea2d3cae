//! Serializable checker state: checkpoint and restore of in-flight
//! online checking sessions.
//!
//! The paper's checkers are *online* — they outlive any single history
//! file — which means a deployable monitor ([`aion-serve`]) must survive
//! crashes, operator restarts and shard rebalancing without losing the
//! tentative verdict state accumulated mid-stream. This module extends
//! the spill codec (which already persists part of the state, see
//! [`crate::spill`]) into a *complete* snapshot: every field of an
//! [`OnlineChecker`] is serialized under the versioned envelope of
//! [`aion_types::snapshot`] and restored exactly.
//!
//! The differential guarantee (pinned by `tests/snapshot_differential.rs`):
//! checkpointing between two arrivals and resuming from the snapshot
//! produces **byte-identical events and outcomes** to the uninterrupted
//! run. Two design points make that hold:
//!
//! * The `readers`/`writers` indexes and the `ongoing` interval map are
//!   serialized **explicitly** rather than rebuilt from the resident
//!   transactions. Rebuilding would resurrect entries that GC pruned and
//!   invent entries for spill-reloaded transactions (which carry no read
//!   state), changing step-③ re-check cascades and the `reevaluations`
//!   counter.
//! * Everything whose in-memory iteration order is unspecified (hash
//!   maps, the deadline heap, the frontier) is written in a canonical
//!   sorted order, so the snapshot bytes themselves are deterministic;
//!   the structures are rebuilt element-wise on restore, which preserves
//!   observable behaviour because each is consulted through
//!   order-independent queries.
//!
//! [`aion-serve`]: ../../aion_serve/index.html

use crate::checker::{
    AionConfig, ConfigError, GlobalChecks, OnlineChecker, OnlineGcPolicy, OnlineTxn, ReadState,
};
use crate::index::{OngoingWriter, ReadRef};
use crate::spill::{decode_segment, SegmentExport};
use crate::stats::FlipTracker;
use aion_types::codec::{self, get_varint, put_varint, CodecError};
use aion_types::snapshot::{
    get_bool, get_check_event, get_opt_varint, get_report, get_snapshot_header, get_stats,
    get_string, put_bool, put_check_event, put_opt_varint, put_report, put_snapshot_header,
    put_stats, put_string, SnapshotError, SNAPSHOT_KIND_SINGLE,
};
use aion_types::{
    CheckEvent, DataKind, EventKey, EventKind, IsolationLevel, Key, LevelPolicy, Mutation,
    SessionId, Timestamp, TxnId,
};
use bytes::{Buf, BufMut, BytesMut};
use std::cmp::Reverse;
use std::path::{Path, PathBuf};

// --- primitive helpers ----------------------------------------------------

fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

fn put_event_key(buf: &mut impl BufMut, e: EventKey) {
    put_varint(buf, e.ts.0);
    buf.put_u8(match e.kind {
        EventKind::Start => 0,
        EventKind::Commit => 1,
    });
    put_varint(buf, e.tid.0);
}

fn get_event_key(buf: &mut impl Buf) -> Result<EventKey, CodecError> {
    let ts = Timestamp(get_varint(buf)?);
    let kind = match get_u8(buf)? {
        0 => EventKind::Start,
        1 => EventKind::Commit,
        t => return Err(CodecError::BadTag(t)),
    };
    let tid = TxnId(get_varint(buf)?);
    Ok(EventKey { ts, kind, tid })
}

fn put_mutation(buf: &mut impl BufMut, m: Mutation) {
    match m {
        Mutation::Put(v) => {
            buf.put_u8(0);
            put_varint(buf, v.0);
        }
        Mutation::Append(v) => {
            buf.put_u8(1);
            put_varint(buf, v.0);
        }
    }
}

fn get_mutation(buf: &mut impl Buf) -> Result<Mutation, CodecError> {
    match get_u8(buf)? {
        0 => Ok(Mutation::Put(aion_types::Value(get_varint(buf)?))),
        1 => Ok(Mutation::Append(aion_types::Value(get_varint(buf)?))),
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_level(buf: &mut impl BufMut, level: IsolationLevel) {
    buf.put_u8(codec::level_to_byte(Some(level)));
}

fn get_level(buf: &mut impl Buf) -> Result<IsolationLevel, CodecError> {
    match codec::level_from_byte(get_u8(buf)?)? {
        Some(l) => Ok(l),
        None => Err(CodecError::BadLevel(0)),
    }
}

// --- configuration --------------------------------------------------------

pub(crate) fn put_config(buf: &mut impl BufMut, cfg: &AionConfig) {
    buf.put_u8(match cfg.kind {
        DataKind::Kv => 0,
        DataKind::List => 1,
    });
    match &cfg.levels {
        LevelPolicy::Uniform(l) => {
            buf.put_u8(0);
            put_level(buf, *l);
        }
        LevelPolicy::PerSession { map, default } => {
            buf.put_u8(1);
            let mut pairs: Vec<(SessionId, IsolationLevel)> =
                map.iter().map(|(s, l)| (*s, *l)).collect();
            pairs.sort_unstable_by_key(|(s, _)| s.0);
            put_varint(buf, pairs.len() as u64);
            for (s, l) in pairs {
                put_varint(buf, u64::from(s.0));
                put_level(buf, l);
            }
            put_level(buf, *default);
        }
        LevelPolicy::PerTxn { default } => {
            buf.put_u8(2);
            put_level(buf, *default);
        }
        // `LevelPolicy` is non_exhaustive; a variant this codec does not
        // know cannot be checkpointed faithfully, and silently degrading
        // it would break the restore byte-identity guarantee.
        other => unreachable!("checkpoint codec does not know LevelPolicy {other:?}"),
    }
    put_varint(buf, cfg.ext_timeout_ms);
    match cfg.gc {
        OnlineGcPolicy::None => buf.put_u8(0),
        OnlineGcPolicy::Checking { max_txns } => {
            buf.put_u8(1);
            put_varint(buf, max_txns as u64);
        }
        OnlineGcPolicy::Full { max_txns } => {
            buf.put_u8(2);
            put_varint(buf, max_txns as u64);
        }
    }
    put_bool(buf, cfg.track_flip_details);
    put_bool(buf, cfg.naive_recheck);
    match &cfg.spill_path {
        None => put_bool(buf, false),
        Some(p) => {
            put_bool(buf, true);
            put_string(buf, &p.to_string_lossy());
        }
    }
    put_bool(buf, cfg.events);
    put_varint(buf, cfg.shard.shards as u64);
    put_varint(buf, cfg.shard.tick_broadcast_ms);
    put_bool(buf, cfg.coordinated);
    match cfg.shard_filter {
        None => put_bool(buf, false),
        Some((mine, shards)) => {
            put_bool(buf, true);
            put_varint(buf, mine as u64);
            put_varint(buf, shards as u64);
        }
    }
}

// Sequential assignment keeps the decode in wire-field order, mirroring
// `put_config` line for line.
#[allow(clippy::field_reassign_with_default)]
pub(crate) fn get_config(buf: &mut impl Buf) -> Result<AionConfig, CodecError> {
    let mut cfg = AionConfig::default();
    cfg.kind = match get_u8(buf)? {
        0 => DataKind::Kv,
        1 => DataKind::List,
        t => return Err(CodecError::BadTag(t)),
    };
    cfg.levels = match get_u8(buf)? {
        0 => LevelPolicy::Uniform(get_level(buf)?),
        1 => {
            let n = get_varint(buf)? as usize;
            let mut map = aion_types::FxHashMap::default();
            for _ in 0..n {
                let sid = SessionId(get_varint(buf)? as u32);
                map.insert(sid, get_level(buf)?);
            }
            LevelPolicy::PerSession { map, default: get_level(buf)? }
        }
        2 => LevelPolicy::PerTxn { default: get_level(buf)? },
        t => return Err(CodecError::BadTag(t)),
    };
    cfg.ext_timeout_ms = get_varint(buf)?;
    cfg.gc = match get_u8(buf)? {
        0 => OnlineGcPolicy::None,
        1 => OnlineGcPolicy::Checking { max_txns: get_varint(buf)? as usize },
        2 => OnlineGcPolicy::Full { max_txns: get_varint(buf)? as usize },
        t => return Err(CodecError::BadTag(t)),
    };
    cfg.track_flip_details = get_bool(buf)?;
    cfg.naive_recheck = get_bool(buf)?;
    cfg.spill_path = if get_bool(buf)? { Some(PathBuf::from(get_string(buf)?)) } else { None };
    cfg.events = get_bool(buf)?;
    cfg.shard.shards = get_varint(buf)? as usize;
    cfg.shard.tick_broadcast_ms = get_varint(buf)?;
    cfg.coordinated = get_bool(buf)?;
    cfg.shard_filter = if get_bool(buf)? {
        Some((get_varint(buf)? as usize, get_varint(buf)? as usize))
    } else {
        None
    };
    Ok(cfg)
}

// --- global checks --------------------------------------------------------

pub(crate) fn put_globals(buf: &mut impl BufMut, g: &GlobalChecks) {
    let mut tids: Vec<u64> = g.all_tids.iter().map(|t| t.0).collect();
    tids.sort_unstable();
    put_varint(buf, tids.len() as u64);
    for t in tids {
        put_varint(buf, t);
    }
    let mut owners: Vec<(u64, u64)> = g.ts_owner.iter().map(|(ts, t)| (ts.0, t.0)).collect();
    owners.sort_unstable();
    put_varint(buf, owners.len() as u64);
    for (ts, t) in owners {
        put_varint(buf, ts);
        put_varint(buf, t);
    }
    let mut snos: Vec<(u32, u32)> = g.next_sno.iter().map(|(s, n)| (s.0, *n)).collect();
    snos.sort_unstable();
    put_varint(buf, snos.len() as u64);
    for (s, n) in snos {
        put_varint(buf, u64::from(s));
        put_varint(buf, u64::from(n));
    }
    let mut cts: Vec<(u32, u64)> = g.last_cts.iter().map(|(s, t)| (s.0, t.0)).collect();
    cts.sort_unstable();
    put_varint(buf, cts.len() as u64);
    for (s, t) in cts {
        put_varint(buf, u64::from(s));
        put_varint(buf, t);
    }
}

pub(crate) fn get_globals(buf: &mut impl Buf) -> Result<GlobalChecks, CodecError> {
    let mut g = GlobalChecks::default();
    for _ in 0..get_varint(buf)? {
        g.all_tids.insert(TxnId(get_varint(buf)?));
    }
    for _ in 0..get_varint(buf)? {
        let ts = Timestamp(get_varint(buf)?);
        g.ts_owner.insert(ts, TxnId(get_varint(buf)?));
    }
    for _ in 0..get_varint(buf)? {
        let sid = SessionId(get_varint(buf)? as u32);
        g.next_sno.insert(sid, get_varint(buf)? as u32);
    }
    for _ in 0..get_varint(buf)? {
        let sid = SessionId(get_varint(buf)? as u32);
        g.last_cts.insert(sid, Timestamp(get_varint(buf)?));
    }
    Ok(g)
}

// --- per-transaction state ------------------------------------------------

fn put_read_state(buf: &mut impl BufMut, r: &ReadState) {
    put_varint(buf, u64::from(r.op_index));
    put_varint(buf, r.key.0);
    codec::put_snapshot(buf, &r.observed);
    put_varint(buf, r.muts_before.len() as u64);
    for m in &r.muts_before {
        put_mutation(buf, *m);
    }
    put_bool(buf, r.ok);
    put_bool(buf, r.settled);
    put_opt_varint(buf, r.wrong_since);
}

fn get_read_state(buf: &mut impl Buf) -> Result<ReadState, CodecError> {
    let op_index = get_varint(buf)? as u32;
    let key = Key(get_varint(buf)?);
    let observed = codec::get_snapshot(buf)?;
    let n = get_varint(buf)? as usize;
    let mut muts_before = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        muts_before.push(get_mutation(buf)?);
    }
    Ok(ReadState {
        op_index,
        key,
        observed,
        muts_before,
        ok: get_bool(buf)?,
        settled: get_bool(buf)?,
        wrong_since: get_opt_varint(buf)?,
    })
}

fn put_online_txn(buf: &mut impl BufMut, t: &OnlineTxn) {
    codec::put_txn_ext(buf, &t.txn);
    put_level(buf, t.level);
    put_varint(buf, t.write_set.len() as u64);
    for (k, s) in &t.write_set {
        put_varint(buf, k.0);
        codec::put_snapshot(buf, s);
    }
    put_varint(buf, t.reads.len() as u64);
    for r in &t.reads {
        put_read_state(buf, r);
    }
    put_varint(buf, t.anchor_keys.len() as u64);
    for k in &t.anchor_keys {
        put_varint(buf, k.0);
    }
    put_bool(buf, t.finalized);
}

fn get_online_txn(buf: &mut impl Buf) -> Result<OnlineTxn, CodecError> {
    let txn = codec::get_txn_ext(buf)?;
    let level = get_level(buf)?;
    let n = get_varint(buf)? as usize;
    let mut write_set = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = Key(get_varint(buf)?);
        write_set.push((k, codec::get_snapshot(buf)?));
    }
    let n = get_varint(buf)? as usize;
    let mut reads = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        reads.push(get_read_state(buf)?);
    }
    let n = get_varint(buf)? as usize;
    let mut anchor_keys = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        anchor_keys.push(Key(get_varint(buf)?));
    }
    Ok(OnlineTxn { txn, level, write_set, reads, anchor_keys, finalized: get_bool(buf)? })
}

// --- event lists ----------------------------------------------------------

pub(crate) fn put_events(buf: &mut impl BufMut, events: &[CheckEvent]) {
    put_varint(buf, events.len() as u64);
    for e in events {
        put_check_event(buf, e);
    }
}

pub(crate) fn get_events(buf: &mut impl Buf) -> Result<Vec<CheckEvent>, CodecError> {
    let n = get_varint(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_check_event(buf)?);
    }
    Ok(out)
}

// --- flip tracker ---------------------------------------------------------

fn put_flips(buf: &mut impl BufMut, f: &FlipTracker) {
    put_bool(buf, f.detail);
    put_varint(buf, f.total_flips);
    let mut pairs: Vec<((u64, u64), u32)> =
        f.flips_per_pair.iter().map(|((t, k), n)| ((t.0, k.0), *n)).collect();
    pairs.sort_unstable();
    put_varint(buf, pairs.len() as u64);
    for ((t, k), n) in pairs {
        put_varint(buf, t);
        put_varint(buf, k);
        put_varint(buf, u64::from(n));
    }
    let mut tids: Vec<u64> = f.txns_with_flips.iter().map(|t| t.0).collect();
    tids.sort_unstable();
    put_varint(buf, tids.len() as u64);
    for t in tids {
        put_varint(buf, t);
    }
    put_varint(buf, f.rectify_ms.len() as u64);
    for &ms in &f.rectify_ms {
        put_varint(buf, ms);
    }
}

fn get_flips(buf: &mut impl Buf) -> Result<FlipTracker, SnapshotError> {
    let mut f = FlipTracker::new(get_bool(buf)?);
    f.total_flips = get_varint(buf)?;
    for _ in 0..get_varint(buf)? {
        let t = TxnId(get_varint(buf)?);
        let k = Key(get_varint(buf)?);
        // A pair is only recorded by flipping, so a count of zero (or
        // one that does not fit the counter) is not a state any run
        // can checkpoint.
        let n = u32::try_from(get_varint(buf)?).ok().filter(|n| *n > 0).ok_or_else(|| {
            SnapshotError::Corrupt(format!("flip count of ({t}, {k}) outside 1..=u32::MAX"))
        })?;
        f.flips_per_pair.insert((t, k), n);
    }
    for _ in 0..get_varint(buf)? {
        f.txns_with_flips.insert(TxnId(get_varint(buf)?));
    }
    let n = get_varint(buf)? as usize;
    f.rectify_ms.reserve(n.min(1024));
    for _ in 0..n {
        f.rectify_ms.push(get_varint(buf)?);
    }
    Ok(f)
}

// --- the single-checker body ---------------------------------------------

pub(crate) fn config_error(e: ConfigError) -> SnapshotError {
    match e {
        ConfigError::SpillFile { source, .. } => SnapshotError::Io(source),
    }
}

impl OnlineChecker {
    /// Serialize the complete checker state to checkpoint bytes
    /// (envelope + body). `&mut self`: the disk spill backend re-reads
    /// its segment bytes; no observable state changes.
    ///
    /// Call between arrivals (i.e. not from inside a `feed`/`tick`
    /// callback): that is the granularity at which snapshot+resume is
    /// byte-identical to an uninterrupted run.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let mut buf = BytesMut::with_capacity(4096);
        put_snapshot_header(&mut buf, SNAPSHOT_KIND_SINGLE);
        self.write_snapshot_body(&mut buf)?;
        Ok(buf.to_vec())
    }

    /// [`checkpoint`](Self::checkpoint) straight to a file.
    pub fn checkpoint_to(&mut self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let bytes = self.checkpoint()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// Restore a checker from [`checkpoint`](Self::checkpoint) bytes.
    ///
    /// The embedded configuration is used as-is; in particular a
    /// configured [`AionConfig::spill_path`] is **re-created (truncated)**
    /// and the checkpoint's spill segments are written back into it — do
    /// not restore over the spill file of a still-live session. Use
    /// [`restore_into`](Self::restore_into) to redirect the spill file.
    pub fn restore(bytes: &[u8]) -> Result<OnlineChecker, SnapshotError> {
        Self::restore_inner(bytes, None)
    }

    /// [`restore`](Self::restore), overriding the configured spill path
    /// (`None` switches to in-memory spilling). The checkpoint's spill
    /// segments are imported into the new location either way.
    pub fn restore_into(
        bytes: &[u8],
        spill_path: Option<PathBuf>,
    ) -> Result<OnlineChecker, SnapshotError> {
        Self::restore_inner(bytes, Some(spill_path))
    }

    /// Restore from a checkpoint file written by
    /// [`checkpoint_to`](Self::checkpoint_to).
    pub fn restore_from(path: impl AsRef<Path>) -> Result<OnlineChecker, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::restore(&bytes)
    }

    fn restore_inner(
        bytes: &[u8],
        spill_override: Option<Option<PathBuf>>,
    ) -> Result<OnlineChecker, SnapshotError> {
        let mut slice = bytes;
        let kind = get_snapshot_header(&mut slice)?;
        if kind != SNAPSHOT_KIND_SINGLE {
            return Err(SnapshotError::WrongKind { expected: SNAPSHOT_KIND_SINGLE, found: kind });
        }
        let ck = Self::read_snapshot_body(&mut slice, spill_override)?;
        if !slice.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after checkpoint body",
                slice.len()
            )));
        }
        Ok(ck)
    }

    /// Body writer shared by the single and the sharded checkpoint (the
    /// sharded one embeds a full single-checker snapshot per worker).
    pub(crate) fn write_snapshot_body(&mut self, buf: &mut BytesMut) -> Result<(), SnapshotError> {
        put_config(buf, &self.cfg);
        put_globals(buf, &self.globals);

        let mut resident: Vec<&OnlineTxn> = self.txns().values().collect();
        resident.sort_unstable_by_key(|t| t.txn.tid);
        put_varint(buf, resident.len() as u64);
        for t in resident {
            put_online_txn(buf, t);
        }

        let mut versions: Vec<(Key, EventKey, &aion_types::Snapshot)> =
            self.frontier.iter().collect();
        versions.sort_unstable_by_key(|(k, e, _)| (k.0, *e));
        put_varint(buf, versions.len() as u64);
        for (k, e, s) in versions {
            put_varint(buf, k.0);
            put_event_key(buf, e);
            codec::put_snapshot(buf, s);
        }

        // Readers/writers: per-(key, event) item vectors, serialized in
        // their exact in-memory order (insertion order matters for the
        // step-③ sweep; see the module docs).
        let mut reader_chains: Vec<(Key, &std::collections::BTreeMap<EventKey, Vec<ReadRef>>)> =
            self.readers.chains().iter().map(|(k, c)| (*k, c)).collect();
        reader_chains.sort_unstable_by_key(|(k, _)| k.0);
        put_varint(buf, reader_chains.iter().map(|(_, c)| c.len() as u64).sum());
        for (key, chain) in reader_chains {
            for (event, items) in chain {
                put_varint(buf, key.0);
                put_event_key(buf, *event);
                put_varint(buf, items.len() as u64);
                for r in items {
                    put_varint(buf, r.tid.0);
                    put_varint(buf, u64::from(r.read_idx));
                }
            }
        }

        let mut writer_chains: Vec<(Key, &std::collections::BTreeMap<EventKey, Vec<TxnId>>)> =
            self.writers.chains().iter().map(|(k, c)| (*k, c)).collect();
        writer_chains.sort_unstable_by_key(|(k, _)| k.0);
        put_varint(buf, writer_chains.iter().map(|(_, c)| c.len() as u64).sum());
        for (key, chain) in writer_chains {
            for (event, items) in chain {
                put_varint(buf, key.0);
                put_event_key(buf, *event);
                put_varint(buf, items.len() as u64);
                for t in items {
                    put_varint(buf, t.0);
                }
            }
        }

        let mut intervals: Vec<(Key, EventKey, &Vec<OngoingWriter>)> =
            self.ongoing.map.iter().collect();
        intervals.sort_unstable_by_key(|(k, e, _)| (k.0, *e));
        put_varint(buf, intervals.len() as u64);
        for (k, e, writers) in intervals {
            put_varint(buf, k.0);
            put_event_key(buf, e);
            put_varint(buf, writers.len() as u64);
            for w in writers {
                put_varint(buf, w.tid.0);
                put_bool(buf, w.noconflict);
            }
        }

        let mut deadlines: Vec<(u64, u64)> =
            self.deadlines.iter().map(|Reverse((d, t))| (*d, t.0)).collect();
        deadlines.sort_unstable();
        put_varint(buf, deadlines.len() as u64);
        for (d, t) in deadlines {
            put_varint(buf, d);
            put_varint(buf, t);
        }

        put_varint(buf, self.triggers.len() as u64);
        for (k, e) in &self.triggers {
            put_varint(buf, k.0);
            put_event_key(buf, *e);
        }

        put_opt_varint(buf, self.gc_horizon_ts.map(|t| t.0));
        put_varint(buf, self.now_ms);
        put_report(buf, &self.report);
        put_flips(buf, &self.flips);
        put_stats(buf, &self.stats);
        put_events(buf, &self.events);

        let segments = self.spill.export_segments()?;
        put_varint(buf, segments.len() as u64);
        for seg in segments {
            put_varint(buf, seg.min_ts.0);
            put_varint(buf, seg.max_ts.0);
            put_varint(buf, seg.txns as u64);
            put_bool(buf, seg.loaded);
            put_varint(buf, seg.bytes.len() as u64);
            buf.put_slice(&seg.bytes);
        }

        // v3: committed-membership summaries (already canonically sorted)
        // and the reload floor.
        let entries = self.membership.sorted_entries();
        put_varint(buf, entries.len() as u64);
        for (k, e, s) in entries {
            put_varint(buf, k.0);
            put_event_key(buf, e);
            codec::put_snapshot(buf, s);
        }
        put_varint(buf, self.reload_floor.0);
        Ok(())
    }

    /// Body reader shared by the single and the sharded restore.
    pub(crate) fn read_snapshot_body(
        buf: &mut &[u8],
        spill_override: Option<Option<PathBuf>>,
    ) -> Result<OnlineChecker, SnapshotError> {
        let mut cfg = get_config(buf)?;
        if let Some(path) = spill_override {
            cfg.spill_path = path;
        }
        let mut ck = OnlineChecker::try_new(cfg).map_err(config_error)?;
        ck.globals = get_globals(buf)?;

        for _ in 0..get_varint(buf)? {
            ck.insert_txn(get_online_txn(buf)?);
        }

        for _ in 0..get_varint(buf)? {
            let k = Key(get_varint(buf)?);
            let e = get_event_key(buf)?;
            ck.frontier.insert(k, e, codec::get_snapshot(buf)?);
        }

        for _ in 0..get_varint(buf)? {
            let k = Key(get_varint(buf)?);
            let e = get_event_key(buf)?;
            for _ in 0..get_varint(buf)? {
                let tid = TxnId(get_varint(buf)?);
                let read_idx = get_varint(buf)?;
                // Step ③ follows a live transaction's references into its
                // read states. (An entry may outlive its transaction — GC
                // spills those, and reloads them without reads.)
                let dangling = |t: &OnlineTxn| !t.finalized && read_idx >= t.reads.len() as u64;
                if ck.txns().get(&tid).is_some_and(dangling) {
                    return Err(SnapshotError::Corrupt(format!(
                        "reader index names read {read_idx} of {tid}, which has no such read"
                    )));
                }
                ck.readers.insert(k, e, ReadRef { tid, read_idx: read_idx as u32 });
            }
        }

        for _ in 0..get_varint(buf)? {
            let k = Key(get_varint(buf)?);
            let e = get_event_key(buf)?;
            for _ in 0..get_varint(buf)? {
                ck.writers.insert(k, e, TxnId(get_varint(buf)?));
            }
        }

        for _ in 0..get_varint(buf)? {
            let k = Key(get_varint(buf)?);
            let e = get_event_key(buf)?;
            let n = get_varint(buf)? as usize;
            let mut writers = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let tid = TxnId(get_varint(buf)?);
                writers.push(OngoingWriter { tid, noconflict: get_bool(buf)? });
            }
            ck.ongoing.map.insert(k, e, writers);
        }

        for _ in 0..get_varint(buf)? {
            let d = get_varint(buf)?;
            ck.deadlines.push(Reverse((d, TxnId(get_varint(buf)?))));
        }

        for _ in 0..get_varint(buf)? {
            let k = Key(get_varint(buf)?);
            ck.triggers.push_back((k, get_event_key(buf)?));
        }

        ck.gc_horizon_ts = get_opt_varint(buf)?.map(Timestamp);
        ck.now_ms = get_varint(buf)?;
        ck.report = get_report(buf)?;
        ck.flips = get_flips(buf)?;
        ck.stats = get_stats(buf)?;
        ck.events = get_events(buf)?;

        let nsegs = get_varint(buf)? as usize;
        let mut segments = Vec::with_capacity(nsegs.min(1024));
        for _ in 0..nsegs {
            let min_ts = Timestamp(get_varint(buf)?);
            let max_ts = Timestamp(get_varint(buf)?);
            let txns = get_varint(buf)? as usize;
            let loaded = get_bool(buf)?;
            let len = get_varint(buf)? as usize;
            let Some((bytes, rest)) = buf.split_at_checked(len) else {
                return Err(SnapshotError::Codec(CodecError::UnexpectedEof));
            };
            let bytes = bytes.to_vec();
            *buf = rest;
            if !loaded {
                // Validate now: a straggler reload must never hit corrupt
                // bytes (it would panic, not error).
                let entries = decode_segment(&bytes)?;
                if entries.len() != txns {
                    return Err(SnapshotError::Corrupt(format!(
                        "spill segment claims {txns} transactions, decodes {}",
                        entries.len()
                    )));
                }
            }
            segments.push(SegmentExport { min_ts, max_ts, txns, loaded, bytes });
        }
        ck.spill.import_segments(segments)?;

        for _ in 0..get_varint(buf)? {
            let k = Key(get_varint(buf)?);
            let e = get_event_key(buf)?;
            let s = codec::get_snapshot(buf)?;
            ck.membership.record(k, e, &s, None);
        }
        ck.reload_floor = Timestamp(get_varint(buf)?);
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Checker, TxnBuilder, Value};

    fn t(tid: u64, sid: u32, sno: u32, s: u64, c: u64) -> TxnBuilder {
        TxnBuilder::new(tid).session(sid, sno).interval(s, c)
    }

    fn busy_checker() -> OnlineChecker {
        let mut ck = OnlineChecker::builder()
            .gc(OnlineGcPolicy::Checking { max_txns: 4 })
            .track_flip_details(true)
            .build()
            .unwrap();
        for i in 0..12u64 {
            ck.feed(
                t(i + 1, (i % 3) as u32, (i / 3) as u32, 10 * i + 1, 10 * i + 2)
                    .put(Key(i % 5), Value(i))
                    .read(Key((i + 1) % 5), Value(99))
                    .build(),
                i,
            );
        }
        ck
    }

    #[test]
    fn checkpoint_restore_checkpoint_is_byte_identical() {
        let mut ck = busy_checker();
        let snap = ck.checkpoint().unwrap();
        let mut back = OnlineChecker::restore(&snap).unwrap();
        assert_eq!(back.checkpoint().unwrap(), snap, "restore is lossless");
    }

    #[test]
    fn restored_checker_continues_identically() {
        let mut a = busy_checker();
        let snap = a.checkpoint().unwrap();
        let mut b = OnlineChecker::restore(&snap).unwrap();
        for (i, now) in [(100u64, 120u64), (101, 130)] {
            let txn = t(i, 0, 4, 10 * i, 10 * i + 1).read(Key(0), Value(7)).build();
            assert_eq!(a.feed(txn.clone(), now), b.feed(txn, now));
        }
        assert_eq!(a.tick(1_000_000), b.tick(1_000_000));
        let (oa, ob) = (a.finish(), b.finish());
        assert_eq!(oa.report.violations, ob.report.violations);
        assert_eq!(oa.stats, ob.stats);
    }

    #[test]
    fn truncated_and_corrupt_snapshots_are_typed_errors() {
        let mut ck = busy_checker();
        let snap = ck.checkpoint().unwrap();
        for cut in [0, 5, 9, 10, 11, snap.len() / 2, snap.len() - 1] {
            let err = OnlineChecker::restore(&snap[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
        let mut garbled = snap.clone();
        garbled[0] ^= 0xff;
        assert!(matches!(OnlineChecker::restore(&garbled), Err(SnapshotError::BadMagic)));
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(matches!(OnlineChecker::restore(&trailing), Err(SnapshotError::Corrupt(_))));
    }

    /// Version 2 (no membership tail) aged out of the restorable range:
    /// its version byte is refused before any of the body is parsed.
    #[test]
    fn v2_snapshot_is_rejected_as_unsupported() {
        let mut snap = busy_checker().checkpoint().unwrap();
        assert_eq!(snap[8], 3, "version byte lives after the 8-byte magic");
        snap[8] = 2;
        assert!(matches!(
            OnlineChecker::restore(&snap),
            Err(SnapshotError::UnsupportedVersion { found: 2 })
        ));
    }

    /// A hostile snapshot carrying a zero flip count used to restore
    /// verbatim and then underflow the histogram bucket on `finish`.
    #[test]
    fn zero_flip_count_is_rejected_at_restore() {
        let mut ck = OnlineChecker::builder().track_flip_details(true).build().unwrap();
        ck.feed(t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build(), 0);
        ck.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 7);
        assert_eq!(ck.flips.flips_per_pair.len(), 1, "the late writer flipped the read");
        assert!(OnlineChecker::restore(&ck.checkpoint().unwrap()).is_ok());
        for n in ck.flips.flips_per_pair.values_mut() {
            *n = 0;
        }
        let hostile = ck.checkpoint().unwrap();
        match OnlineChecker::restore(&hostile) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("flip count"), "{detail}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a zero flip count must not restore"),
        }
    }

    /// A hostile snapshot whose reader index names a read its live
    /// transaction does not have used to restore, then panic the next
    /// `feed` that re-evaluated it.
    #[test]
    fn dangling_reader_entry_is_rejected_at_restore() {
        let mut ck = OnlineChecker::builder().build().unwrap();
        let reader = t(2, 1, 0, 3, 4).read(Key(1), Value(5)).build();
        let anchor = reader.start_event();
        ck.feed(reader, 0);
        assert!(OnlineChecker::restore(&ck.checkpoint().unwrap()).is_ok());
        ck.readers.insert(Key(1), anchor, ReadRef { tid: TxnId(2), read_idx: 7 });
        match OnlineChecker::restore(&ck.checkpoint().unwrap()) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("reader index"), "{detail}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a reader entry past its transaction's reads must not restore"),
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let mut buf = BytesMut::new();
        put_snapshot_header(&mut buf, aion_types::snapshot::SNAPSHOT_KIND_SHARDED);
        assert!(matches!(
            OnlineChecker::restore(&buf[..]),
            Err(SnapshotError::WrongKind { expected: 0, found: 1 })
        ));
    }

    #[test]
    fn config_roundtrip_preserves_mixed_policies() {
        let mut cfg = AionConfig {
            levels: LevelPolicy::per_session(
                [
                    (SessionId(3), IsolationLevel::Ser),
                    (SessionId(1), IsolationLevel::ReadCommitted),
                ],
                IsolationLevel::Si,
            ),
            gc: OnlineGcPolicy::Full { max_txns: 77 },
            shard_filter: Some((1, 3)),
            coordinated: true,
            ..AionConfig::default()
        };
        cfg.shard.shards = 3;
        let mut buf = BytesMut::new();
        put_config(&mut buf, &cfg);
        let back = get_config(&mut &buf[..]).unwrap();
        assert_eq!(back.levels.level_for(&t(1, 3, 0, 1, 2).build()), IsolationLevel::Ser);
        assert_eq!(back.levels.level_for(&t(1, 9, 0, 1, 2).build()), IsolationLevel::Si);
        assert_eq!(back.gc, OnlineGcPolicy::Full { max_txns: 77 });
        assert_eq!(back.shard_filter, Some((1, 3)));
        assert!(back.coordinated);
    }
}
