//! Versioned checkpoint schema shared by the checkers' snapshot codecs.
//!
//! `aion-online` can checkpoint an in-flight checking session to bytes
//! and restore it later ("serializable checker state"); `aion-serve`
//! persists those bytes across daemon restarts. This module owns the
//! *envelope* of that format — magic, version, payload kind — plus the
//! [`Wire`] descriptions of the report-level records (violations, events,
//! stats, flip summaries, policies) that both the single-threaded and the sharded
//! snapshot need. The per-checker body layouts live next to the checkers
//! themselves; `docs/formats.md` tabulates all of them.
//!
//! Envelope layout:
//!
//! ```text
//! magic    b"AIONCKPT"   (8 bytes)
//! version  u8            (currently 7)
//! kind     u8            (0 = OnlineChecker, 1 = ShardedChecker)
//! body     checker-specific, see aion-online::snapshot
//! ```
//!
//! ## Versioning policy
//!
//! The version byte covers the *whole* body: any change to a body field
//! — adding one, reordering, widening — bumps `SNAPSHOT_VERSION`, and
//! readers reject versions outside
//! `SNAPSHOT_VERSION_MIN..=`[`SNAPSHOT_VERSION`] with
//! [`SnapshotError::UnsupportedVersion`] instead of misparsing. Writers
//! always emit the current version. Older versions age out of the range
//! instead of being migrated in place — today the range is the current
//! version alone: checkpoints are operational artifacts with the lifetime
//! of one stream, not archival data.

use crate::check::{CheckEvent, CheckerStats, FlipSummary, SpillOp};
use crate::codec::{CodecError, Wire};
use crate::ids::{EventKey, EventKind};
use crate::level::LevelPolicy;
use crate::violation::{CheckReport, Violation};
use crate::{wire_enum, wire_struct};
use bytes::{Buf, BufMut};
use std::fmt;

/// Magic prefix of every checkpoint file.
const SNAPSHOT_MAGIC: &[u8; 8] = b"AIONCKPT";

/// Current checkpoint schema version (see the module docs for the
/// versioning policy).
///
/// v2: [`CheckerStats`] gained `spill_errors`; [`CheckEvent`] gained a
/// `SpillError` variant (codec tag 4).
///
/// v3: the single-checker body gained the committed-membership summaries
/// and the reload floor (appended after the spill segments).
///
/// v4: same layout; the `writers` index holds list writers only (empty
/// on key-value sessions), and a spill-reloaded transaction carries its
/// writer entries and anchored keys. A v3 list checkpoint can hold
/// published values a missed reload cascade left stale, so it is refused.
///
/// v5: a reload consumes its spill segment, so the body holds only the
/// segments spilled out now, each as its encoded bytes alone (no `loaded`
/// flag, timestamp range or count); the reload floor is gone.
///
/// v6: flip statistics are fixed counters — the config loses its
/// flip-detail flag, each resident read state gains its flip count, and
/// the flip tracker is one [`FlipSummary`].
///
/// v7: the config record keeps only what a session chooses — one shard
/// count in place of the shard layout, one optional worker index in place
/// of the two fields that marked a shard worker and its key partition.
pub const SNAPSHOT_VERSION: u8 = 7;

/// Oldest checkpoint schema version this build still restores.
const SNAPSHOT_VERSION_MIN: u8 = 7;

/// Payload-kind byte: the body is a single `OnlineChecker`.
pub const SNAPSHOT_KIND_SINGLE: u8 = 0;
/// Payload-kind byte: the body is a `ShardedChecker` (coordinator state
/// plus one embedded single-checker body per shard).
pub const SNAPSHOT_KIND_SHARDED: u8 = 1;

/// Errors produced while writing or reading a checkpoint.
///
/// Corrupted or truncated snapshot bytes always surface as one of these
/// — never as a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The body bytes did not decode (truncation, bit rot, wrong file).
    Codec(CodecError),
    /// The file does not start with the `AIONCKPT` magic.
    BadMagic,
    /// The file's schema version is not one this build can read.
    UnsupportedVersion {
        /// The version byte found in the file.
        found: u8,
    },
    /// The payload-kind byte does not match what the caller asked to
    /// restore (e.g. restoring a sharded checkpoint as a single
    /// checker).
    WrongKind {
        /// The kind byte expected by the restoring API.
        expected: u8,
        /// The kind byte found in the file.
        found: u8,
    },
    /// The envelope decoded but the body is semantically inconsistent
    /// (e.g. counts that contradict each other).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            SnapshotError::Codec(e) => write!(f, "checkpoint decode error: {e}"),
            SnapshotError::BadMagic => write!(f, "not an AION checkpoint (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads \
                     {SNAPSHOT_VERSION_MIN}..={SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::WrongKind { expected, found } => {
                write!(f, "checkpoint kind mismatch: expected kind byte {expected}, found {found}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// Write the checkpoint envelope (magic, version, kind byte).
pub fn put_snapshot_header(buf: &mut impl BufMut, kind: u8) {
    buf.put_slice(SNAPSHOT_MAGIC);
    buf.put_u8(SNAPSHOT_VERSION);
    buf.put_u8(kind);
}

/// Validate the checkpoint envelope — magic, and a version in
/// `SNAPSHOT_VERSION_MIN..=`[`SNAPSHOT_VERSION`] — and return the
/// payload-kind byte.
pub fn get_snapshot_header(buf: &mut impl Buf) -> Result<u8, SnapshotError> {
    if buf.remaining() < SNAPSHOT_MAGIC.len() + 2 {
        return Err(SnapshotError::Codec(CodecError::UnexpectedEof));
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = buf.get_u8();
    if !(SNAPSHOT_VERSION_MIN..=SNAPSHOT_VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    Ok(buf.get_u8())
}

// --- checkpoint records ----------------------------------------------------

wire_enum!(EventKind { 0 => Start, 1 => Commit });
wire_struct!(EventKey { ts, kind, tid });
wire_enum!(LevelPolicy {
    0 => Uniform(level),
    1 => PerSession { map, default },
    2 => PerTxn { default },
});
wire_enum!(SpillOp { 0 => Write, 1 => Reload });

wire_enum!(Violation {
    0 => Session { tid, sid, expected_sno, found_sno, start_ts, last_commit_ts },
    1 => Int { tid, key, op_index, expected, observed },
    2 => Ext { tid, key, op_index, expected, observed },
    3 => NoConflict { key, t1, t2 },
    4 => TimestampOrder { tid, start_ts, commit_ts },
    5 => DuplicateTimestamp { ts, t1, t2 },
    6 => DuplicateTid { tid },
});

// A new variant must claim a tag here before it can be checkpointed.
wire_enum!(CheckEvent {
    0 => Violation(v),
    1 => VerdictFlip { tid, key, rectified_after_ms },
    2 => ExtFinalized { tid, violations },
    3 => SpillPass { spilled, bytes, resident_after },
    4 => SpillError { op, detail },
});

wire_struct!(CheckerStats {
    received,
    finalized,
    peak_resident_txns,
    gc_spills,
    spilled_txns,
    reloaded_txns,
    spill_bytes,
    reevaluations,
    spill_errors,
});

wire_struct!(FlipSummary {
    total_flips,
    pairs_with_flips,
    txns_with_flips,
    flip_histogram,
    rectify_histogram
});

/// Violations only: the per-axiom counters are derived, and rebuilt on
/// decode.
impl Wire for CheckReport {
    fn put(&self, buf: &mut impl BufMut) {
        self.violations.put(buf);
    }
    fn get(buf: &mut impl Buf) -> Result<Self, CodecError> {
        let mut r = CheckReport::new();
        Vec::<Violation>::get(buf)?.into_iter().for_each(|v| r.push(v));
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Snapshot;
    use crate::{Key, SessionId, Timestamp, TxnId, Value};
    use bytes::BytesMut;

    fn all_violations() -> Vec<Violation> {
        vec![
            Violation::Session {
                tid: TxnId(1),
                sid: SessionId(2),
                expected_sno: 3,
                found_sno: 4,
                start_ts: Timestamp(5),
                last_commit_ts: Timestamp(6),
            },
            Violation::Int {
                tid: TxnId(7),
                key: Key(8),
                op_index: 9,
                expected: Snapshot::Scalar(Value(1)),
                observed: Snapshot::List(vec![Value(2), Value(3)].into()),
            },
            Violation::Ext {
                tid: TxnId(10),
                key: Key(11),
                op_index: 12,
                expected: Snapshot::List(vec![].into()),
                observed: Snapshot::Scalar(Value(0)),
            },
            Violation::NoConflict { key: Key(13), t1: TxnId(14), t2: TxnId(15) },
            Violation::TimestampOrder {
                tid: TxnId(16),
                start_ts: Timestamp(18),
                commit_ts: Timestamp(17),
            },
            Violation::DuplicateTimestamp { ts: Timestamp(19), t1: TxnId(20), t2: TxnId(21) },
            Violation::DuplicateTid { tid: TxnId(22) },
        ]
    }

    #[test]
    fn violation_roundtrip_all_variants() {
        for v in all_violations() {
            let mut buf = BytesMut::new();
            v.put(&mut buf);
            let mut slice = &buf[..];
            assert_eq!(Violation::get(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn event_roundtrip_all_variants() {
        let events = vec![
            CheckEvent::Violation(all_violations().remove(0)),
            CheckEvent::VerdictFlip { tid: TxnId(1), key: Key(2), rectified_after_ms: Some(30) },
            CheckEvent::VerdictFlip { tid: TxnId(1), key: Key(2), rectified_after_ms: None },
            CheckEvent::ExtFinalized { tid: TxnId(3), violations: 4 },
            CheckEvent::SpillPass { spilled: 5, bytes: 6, resident_after: 7 },
            CheckEvent::SpillError {
                op: crate::check::SpillOp::Write,
                detail: "disk full".to_string(),
            },
            CheckEvent::SpillError {
                op: crate::check::SpillOp::Reload,
                detail: "unexpected eof".to_string(),
            },
        ];
        for e in events {
            let mut buf = BytesMut::new();
            e.put(&mut buf);
            let mut slice = &buf[..];
            assert_eq!(CheckEvent::get(&mut slice).unwrap(), e);
        }
    }

    #[test]
    fn report_roundtrip_rebuilds_counters() {
        let mut r = CheckReport::new();
        for v in all_violations() {
            r.push(v);
        }
        let mut buf = BytesMut::new();
        r.put(&mut buf);
        let back = CheckReport::get(&mut &buf[..]).unwrap();
        assert_eq!(back.violations, r.violations);
        for kind in [
            crate::AxiomKind::Session,
            crate::AxiomKind::Int,
            crate::AxiomKind::Ext,
            crate::AxiomKind::NoConflict,
            crate::AxiomKind::Integrity,
        ] {
            assert_eq!(back.count(kind), r.count(kind));
        }
    }

    #[test]
    fn stats_roundtrip() {
        let s = CheckerStats {
            received: 1,
            finalized: 2,
            peak_resident_txns: 3,
            gc_spills: 4,
            spilled_txns: 5,
            reloaded_txns: 6,
            spill_bytes: 7,
            reevaluations: 8,
            spill_errors: 9,
        };
        let mut buf = BytesMut::new();
        s.put(&mut buf);
        let back = CheckerStats::get(&mut &buf[..]).unwrap();
        assert_eq!(back.received, 1);
        assert_eq!(back.reevaluations, 8);
        assert_eq!(back.spill_errors, 9);
    }

    #[test]
    fn header_validates_magic_version_kind() {
        let mut buf = BytesMut::new();
        put_snapshot_header(&mut buf, SNAPSHOT_KIND_SHARDED);
        assert_eq!(get_snapshot_header(&mut &buf[..]).unwrap(), SNAPSHOT_KIND_SHARDED);

        let mut bad = buf.to_vec();
        bad[0] = b'X';
        assert!(matches!(get_snapshot_header(&mut &bad[..]), Err(SnapshotError::BadMagic)));

        let mut vers = buf.to_vec();
        vers[8] = 99;
        assert!(matches!(
            get_snapshot_header(&mut &vers[..]),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));

        // Every version in the supported range is accepted.
        for v in SNAPSHOT_VERSION_MIN..=SNAPSHOT_VERSION {
            let mut old = buf.to_vec();
            old[8] = v;
            assert_eq!(
                get_snapshot_header(&mut &old[..]).unwrap(),
                SNAPSHOT_KIND_SHARDED,
                "version {v} must stay restorable"
            );
        }
        let mut ancient = buf.to_vec();
        ancient[8] = SNAPSHOT_VERSION_MIN - 1;
        assert!(matches!(
            get_snapshot_header(&mut &ancient[..]),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));

        let short = &buf[..4];
        assert!(matches!(
            get_snapshot_header(&mut &short[..]),
            Err(SnapshotError::Codec(CodecError::UnexpectedEof))
        ));
    }

    #[test]
    fn helper_roundtrips_and_corruption() {
        let mut buf = BytesMut::new();
        true.put(&mut buf);
        Some(700u64).put(&mut buf);
        None::<u64>.put(&mut buf);
        "sess-1".to_string().put(&mut buf);
        let mut slice = &buf[..];
        assert!(bool::get(&mut slice).unwrap());
        assert_eq!(Option::<u64>::get(&mut slice).unwrap(), Some(700));
        assert_eq!(Option::<u64>::get(&mut slice).unwrap(), None);
        assert_eq!(String::get(&mut slice).unwrap(), "sess-1");

        let mut bad: &[u8] = &[7];
        assert_eq!(bool::get(&mut bad), Err(CodecError::BadTag(7)));
        let mut trunc: &[u8] = &[5, b'a'];
        assert_eq!(String::get(&mut trunc), Err(CodecError::UnexpectedEof));
        let mut nonutf: &[u8] = &[2, 0xff, 0xfe];
        assert_eq!(String::get(&mut nonutf), Err(CodecError::BadUtf8));
    }

    #[test]
    fn snapshot_error_display_and_source() {
        let e = SnapshotError::from(CodecError::BadMagic);
        assert!(e.to_string().contains("decode"));
        assert!(std::error::Error::source(&e).is_some());
        let io = SnapshotError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::WrongKind { expected: 0, found: 1 }.to_string().contains("kind"));
        assert!(SnapshotError::Corrupt("x".into()).to_string().contains("corrupt"));
    }
}
