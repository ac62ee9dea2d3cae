//! Serializable checker state: checkpoint and restore of in-flight
//! online checking sessions.
//!
//! The paper's checkers are *online* — they outlive any single history
//! file — which means a deployable monitor ([`aion-serve`]) must survive
//! crashes, operator restarts and shard rebalancing without losing the
//! tentative verdict state accumulated mid-stream. This module extends
//! the spill codec (which already persists part of the state, see
//! `crate::spill`) into a *complete* snapshot: every field of an
//! [`OnlineChecker`] is serialized under the versioned envelope of
//! [`aion_types::snapshot`] and restored exactly.
//!
//! The differential guarantee (pinned by `tests/snapshot_differential.rs`):
//! checkpointing between two arrivals and resuming from the snapshot
//! produces **byte-identical events and outcomes** to the uninterrupted
//! run. Two design points make that hold:
//!
//! * The key table's reader, writer and overlap chains are serialized
//!   **explicitly** rather than rebuilt from the resident transactions.
//!   Rebuilding would resurrect entries that GC pruned and invent entries
//!   for spill-reloaded transactions (which carry no read state), changing
//!   step-③ re-check cascades and the `reevaluations` counter.
//! * Everything whose in-memory iteration order is unspecified (hash
//!   maps, the deadline heap, the key table) is written in a canonical
//!   sorted order, so the snapshot bytes themselves are deterministic;
//!   the structures are rebuilt element-wise on restore, which preserves
//!   observable behaviour because each is consulted through
//!   order-independent queries. The key table writes one section per
//!   role — versions, readers, writers and overlap sets together, its
//!   membership summaries last — each a count of `(key, event)` entries
//!   in `(key, event)` order (`crate::keys`).
//!
//! Every record is laid out by one [`Wire`] description (the "records"
//! section below, plus the shared ones in [`aion_types::snapshot`]);
//! `docs/formats.md` tabulates them and the two bodies.
//!
//! [`aion-serve`]: ../../aion_serve/index.html

use crate::checker::{
    AionConfig, ConfigError, GlobalChecks, OnlineChecker, OnlineGcPolicy, OnlineTxn, ReadState,
};
use crate::index::{OngoingWriter, ReadRef, SmallSeq};
use crate::stats::FlipTracker;
use aion_types::codec::{write_seq, CodecError, Wire};
use aion_types::snapshot::{
    get_snapshot_header, put_snapshot_header, SnapshotError, SNAPSHOT_KIND_SINGLE,
};
use aion_types::{wire_enum, wire_struct, EventKey, Key, TxnId};
use bytes::{Buf, BufMut, BytesMut};
use std::cmp::Reverse;
use std::path::PathBuf;

// --- records ----------------------------------------------------------------

wire_enum!(OnlineGcPolicy { 0 => None, 1 => Checking { max_txns }, 2 => Full { max_txns } });

wire_struct!(AionConfig {
    kind,
    levels,
    ext_timeout_ms,
    gc,
    naive_recheck,
    spill_path,
    events,
    shards,
    worker
});
wire_struct!(GlobalChecks { all_tids, ts_owner, next_sno, last_cts });
wire_struct!(ReadState { op_index, key, observed, muts_before, ok, settled, wrong_since, flips });
wire_struct!(OnlineTxn { txn, level, write_set, reads, anchor_keys, finalized });
wire_struct!(ReadRef { tid, read_idx });
wire_struct!(OngoingWriter { tid, noconflict });
wire_struct!(FlipTracker { 0 });

/// The bytes `Vec<T>` writes: a count, then the items in order.
impl<T: Wire + Copy> Wire for SmallSeq<T> {
    fn put(&self, buf: &mut impl BufMut) {
        write_seq(buf, self.as_slice().iter());
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        Ok(Vec::get(buf)?.into_iter().collect())
    }
}

// --- the single-checker body ---------------------------------------------

pub(crate) fn config_error(e: ConfigError) -> SnapshotError {
    match e {
        ConfigError::SpillFile { source, .. } => SnapshotError::Io(source),
        e @ ConfigError::TooManyShards { .. } => SnapshotError::Corrupt(e.to_string()),
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
        // A shard worker's body: it leaves the global checks to a
        // coordinator and skips the keys it does not own.
        if ck.cfg.worker.is_some() {
            return Err(SnapshotError::Corrupt(
                "a shard worker's body under a single-checker header".into(),
            ));
        }
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
        self.cfg.put(buf);
        self.globals.put(buf);

        let mut resident: Vec<&OnlineTxn> = self.txns().values().collect();
        resident.sort_unstable_by_key(|t| t.txn.tid);
        write_seq(buf, resident.into_iter());

        self.keys.put_chains(buf);

        let mut deadlines: Vec<(u64, TxnId)> = self.deadlines.iter().map(|Reverse(d)| *d).collect();
        deadlines.sort_unstable();
        deadlines.put(buf);
        write_seq(buf, self.triggers.iter());

        self.gc_horizon_ts.put(buf);
        self.now_ms.put(buf);
        self.report.put(buf);
        self.flips.put(buf);
        self.stats.put(buf);
        self.events.put(buf);
        self.spill.export_segments()?.put(buf);
        self.keys.put_members(buf);
        Ok(())
    }

    /// Body reader shared by the single and the sharded restore; mirrors
    /// [`write_snapshot_body`](Self::write_snapshot_body) line for line.
    pub(crate) fn read_snapshot_body(
        buf: &mut &[u8],
        spill_override: Option<Option<PathBuf>>,
    ) -> Result<OnlineChecker, SnapshotError> {
        let mut cfg = AionConfig::get(buf)?;
        if let Some(path) = spill_override {
            cfg.spill_path = path;
        }
        let mut ck = OnlineChecker::try_new(cfg).map_err(config_error)?;
        ck.globals = Wire::get(buf)?;

        for t in Vec::<OnlineTxn>::get(buf)? {
            ck.insert_txn(t);
        }

        ck.keys.get_chains(buf)?;
        // Step ③ follows a live transaction's references into its read
        // states. (An entry may outlive its transaction — GC spills
        // those, and reloads them without reads.)
        let readers = ck.keys.iter().flat_map(|(_, k)| k.readers.values());
        for r in readers.flat_map(SmallSeq::as_slice) {
            let dangling = |t: &OnlineTxn| !t.finalized && r.read_idx as usize >= t.reads.len();
            if ck.txns().get(&r.tid).is_some_and(dangling) {
                return Err(SnapshotError::Corrupt(format!(
                    "reader index names read {} of {}, which has no such read",
                    r.read_idx, r.tid
                )));
            }
        }

        ck.deadlines = Vec::<(u64, TxnId)>::get(buf)?.into_iter().map(Reverse).collect();
        ck.triggers = Vec::<(Key, EventKey)>::get(buf)?.into();

        ck.gc_horizon_ts = Wire::get(buf)?;
        ck.now_ms = Wire::get(buf)?;
        ck.report = Wire::get(buf)?;
        ck.flips = Wire::get(buf)?;
        ck.stats = Wire::get(buf)?;
        ck.events = Wire::get(buf)?;

        for segment in Vec::<Vec<u8>>::get(buf)? {
            ck.spill.import_segment(segment)?;
        }
        ck.keys.get_members(buf)?;
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::codec::put_varint;
    use aion_types::{Checker, IsolationLevel, LevelPolicy, SessionId, TxnBuilder, Value};

    fn t(tid: u64, sid: u32, sno: u32, s: u64, c: u64) -> TxnBuilder {
        TxnBuilder::new(tid).session(sid, sno).interval(s, c)
    }

    fn busy_checker() -> OnlineChecker {
        let mut ck =
            OnlineChecker::builder().gc(OnlineGcPolicy::Checking { max_txns: 4 }).build().unwrap();
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

    /// Versions 2 (no membership tail) and 3 (list writers possibly
    /// stale after a spill reload) through 5 (a flip-detail flag in the
    /// config, no per-read flip counts) and 6 (a shard layout and two
    /// worker fields in the config) aged out of the restorable range: the
    /// version byte is refused before any of the body is parsed.
    #[test]
    fn v2_snapshot_is_rejected_as_unsupported() {
        let mut snap = busy_checker().checkpoint().unwrap();
        assert_eq!(snap[8], 7, "version byte lives after the 8-byte magic");
        for old in [2, 3, 4, 5, 6] {
            snap[8] = old;
            assert!(matches!(
                OnlineChecker::restore(&snap),
                Err(SnapshotError::UnsupportedVersion { found }) if found == old
            ));
        }
    }

    /// Flip counters are plain numbers with no invariant between them
    /// to refuse: a read whose count reads 0 or `u16::MAX` after it
    /// flipped, and a saturated total, restore — and the next flip and
    /// `finish` saturate instead of aborting.
    #[test]
    fn zero_flip_count_is_rejected_at_restore() {
        for count in [0, u16::MAX] {
            let mut ck = OnlineChecker::builder().build().unwrap();
            ck.feed(t(2, 1, 0, 10, 11).read(Key(1), Value(5)).build(), 0);
            ck.feed(t(1, 0, 0, 1, 2).put(Key(1), Value(5)).build(), 7);
            assert_eq!(ck.flips.0.pairs_with_flips, 1, "the late writer flipped the read");
            let mut reader = ck.remove_txn(TxnId(2)).unwrap();
            reader.reads[0].flips = count;
            ck.insert_txn(reader);
            ck.flips.0.total_flips = u64::MAX;
            let mut back = OnlineChecker::restore(&ck.checkpoint().unwrap()).expect("restores");
            // A later writer below the read's anchor flips it back to wrong.
            back.feed(t(3, 2, 0, 4, 5).put(Key(1), Value(6)).build(), 8);
            let out = back.finish();
            assert_eq!(out.flips.total_flips, u64::MAX);
            assert_eq!(out.report.count(aion_types::AxiomKind::Ext), 1);
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
        ck.keys.entry(Key(1)).add_reader(anchor, ReadRef { tid: TxnId(2), read_idx: 7 });
        match OnlineChecker::restore(&ck.checkpoint().unwrap()) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("reader index"), "{detail}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a reader entry past its transaction's reads must not restore"),
        }
    }

    /// A shard worker's body under a single-checker header used to
    /// restore `Ok` — as a checker that skips every global check (0 of
    /// the 3 violations below) or every key it does not own.
    #[test]
    fn a_worker_body_under_a_single_header_is_refused() {
        let sole = AionConfig { worker: Some(0), shards: 1, ..AionConfig::default() };
        let second = AionConfig { worker: Some(1), shards: 2, ..AionConfig::default() };
        for cfg in [sole, second] {
            let what = format!("worker {:?} of {}", cfg.worker, cfg.shards);
            let hostile = OnlineChecker::try_new(cfg).unwrap().checkpoint().unwrap();
            match OnlineChecker::restore(&hostile) {
                Err(SnapshotError::Corrupt(detail)) => {
                    assert!(detail.contains("worker"), "{detail}")
                }
                Err(other) => panic!("{what}: expected Corrupt, got {other}"),
                Ok(mut wrong) => {
                    wrong.feed(t(1, 0, 0, 1, 2).build(), 0);
                    wrong.feed(t(1, 1, 0, 3, 4).build(), 0); // duplicate tid
                    wrong.feed(t(2, 0, 5, 5, 6).build(), 0); // SESSION gap
                    wrong.feed(t(3, 2, 0, 9, 8).build(), 0); // Eq. (1)
                    let found = wrong.finish().report.violations.len();
                    panic!("{what}: restored, then reported {found} of 3 violations");
                }
            }
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
        let cfg = AionConfig {
            levels: LevelPolicy::per_session(
                [
                    (SessionId(3), IsolationLevel::Ser),
                    (SessionId(1), IsolationLevel::ReadCommitted),
                ],
                IsolationLevel::Si,
            ),
            gc: OnlineGcPolicy::Full { max_txns: 77 },
            shards: 3,
            worker: Some(1),
            spill_path: Some(PathBuf::from("spill.bin")),
            ..AionConfig::default()
        };
        let mut buf = BytesMut::new();
        cfg.put(&mut buf);
        let back = AionConfig::get(&mut &buf[..]).unwrap();
        assert_eq!(back.levels.level_for(&t(1, 3, 0, 1, 2).build()), IsolationLevel::Ser);
        assert_eq!(back.levels.level_for(&t(1, 9, 0, 1, 2).build()), IsolationLevel::Si);
        assert_eq!(back.gc, OnlineGcPolicy::Full { max_txns: 77 });
        assert_eq!((back.shards, back.worker), (3, Some(1)));
        assert_eq!(back.spill_path, cfg.spill_path);
    }

    /// `bytes` with its one occurrence of `old` replaced by `new`.
    fn splice(bytes: &[u8], old: &[u8], new: &[u8]) -> Vec<u8> {
        let hits: Vec<usize> =
            (0..=bytes.len() - old.len()).filter(|&i| bytes[i..].starts_with(old)).collect();
        assert_eq!(hits.len(), 1, "pattern {old:02x?} must occur exactly once");
        [&bytes[..hits[0]], new, &bytes[hits[0] + old.len()..]].concat()
    }

    /// A `sid`, `sno` or reader `read_idx` beyond `u32` used to be
    /// narrowed with `as`: the snapshot restored `Ok` as another session,
    /// or pointing at another read.
    #[test]
    fn oversized_narrow_fields_are_rejected_at_restore() {
        let mut ck = OnlineChecker::builder().build().unwrap();
        ck.feed(t(300, 0x55, 0, 0x33, 0x34).read(Key(0x44), Value(0)).build(), 0);
        let snap = ck.checkpoint().unwrap();
        let wide = [0x80, 0x80, 0x80, 0x80, 0x10]; // 2^32
        let out_of_range = |bytes: Vec<u8>| {
            assert!(matches!(
                OnlineChecker::restore(&bytes),
                Err(SnapshotError::Codec(CodecError::OutOfRange))
            ));
        };
        // The resident transaction: tid 300, sid, sno, start, commit.
        let txn = [0xac, 0x02, 0x55, 0x00, 0x33, 0x34];
        out_of_range(splice(&snap, &txn, &[&txn[..2], &wide, &txn[3..]].concat()));
        out_of_range(splice(&snap, &txn, &[&txn[..3], &wide, &txn[4..]].concat()));
        // Its reader entry: key, start event (ts, kind, tid), one ReadRef
        // (tid, read_idx) — renamed to absent t301, which skips the
        // dangling check that would otherwise catch the index.
        let entry = [0x44, 0x33, 0x00, 0xac, 0x02, 0x01, 0xac, 0x02, 0x00];
        let renamed = [&entry[..6], &[0xad, 0x02, 0x00]].concat();
        assert!(OnlineChecker::restore(&splice(&snap, &entry, &renamed)).is_ok());
        out_of_range(splice(&snap, &entry, &[&entry[..6], &[0xad, 0x02], &wide].concat()));
    }

    #[test]
    fn hostile_count_is_refused_at_restore() {
        let mut buf = BytesMut::new();
        put_snapshot_header(&mut buf, SNAPSHOT_KIND_SINGLE);
        AionConfig::default().put(&mut buf);
        put_varint(&mut buf, 1 << 40); // the tid set claims 2^40 members
        buf.put_slice(&[1, 2, 3]);
        assert!(matches!(
            OnlineChecker::restore(&buf),
            Err(SnapshotError::Codec(CodecError::UnexpectedEof))
        ));
    }
}
