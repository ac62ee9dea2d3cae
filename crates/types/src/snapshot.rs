//! Versioned checkpoint schema shared by the checkers' snapshot codecs.
//!
//! `aion-online` can checkpoint an in-flight checking session to bytes
//! and restore it later ("serializable checker state"); `aion-serve`
//! persists those bytes across daemon restarts. This module owns the
//! *envelope* of that format — magic, version, payload kind — plus the
//! codec fragments for the report-level types (violations, events,
//! stats) that both the single-threaded and the sharded snapshot need.
//! The per-checker body layouts live next to the checkers themselves.
//!
//! Envelope layout:
//!
//! ```text
//! magic    b"AIONCKPT"   (8 bytes)
//! version  u8            (currently 3)
//! kind     u8            (0 = OnlineChecker, 1 = ShardedChecker)
//! body     checker-specific, see aion-online::snapshot
//! ```
//!
//! ## Versioning policy
//!
//! The version byte covers the *whole* body: any change to a body field
//! — adding one, reordering, widening — bumps `SNAPSHOT_VERSION`, and
//! readers reject versions outside
//! [`SNAPSHOT_VERSION_MIN`]`..=`[`SNAPSHOT_VERSION`] with
//! [`SnapshotError::UnsupportedVersion`] instead of misparsing. Writers
//! always emit the current version. Older versions age out of the range
//! instead of being migrated in place — today the range is the current
//! version alone: checkpoints are operational artifacts with the lifetime
//! of one stream, not archival data.

use crate::check::{CheckEvent, CheckerStats};
use crate::codec::{get_varint, put_varint, CodecError};
use crate::ids::{Key, SessionId, Timestamp, TxnId};
use crate::violation::{CheckReport, Violation};
use bytes::{Buf, BufMut};
use std::fmt;

/// Magic prefix of every checkpoint file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AIONCKPT";

/// Current checkpoint schema version (see the module docs for the
/// versioning policy).
///
/// v2: [`CheckerStats`] gained `spill_errors`; [`CheckEvent`] gained a
/// `SpillError` variant (codec tag 4).
///
/// v3: the single-checker body gained the committed-membership summaries
/// and the reload floor (appended after the spill segments).
pub const SNAPSHOT_VERSION: u8 = 3;

/// Oldest checkpoint schema version this build still restores.
pub const SNAPSHOT_VERSION_MIN: u8 = 3;

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
    /// The file does not start with [`SNAPSHOT_MAGIC`].
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
/// [`SNAPSHOT_VERSION_MIN`]`..=`[`SNAPSHOT_VERSION`] — and return the
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

/// Encode a `bool` as one byte.
pub fn put_bool(buf: &mut impl BufMut, b: bool) {
    buf.put_u8(u8::from(b));
}

/// Decode a [`put_bool`] byte; any value other than 0/1 is corrupt.
pub fn get_bool(buf: &mut impl Buf) -> Result<bool, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode an optional `u64` as a presence byte plus varint.
pub fn put_opt_varint(buf: &mut impl BufMut, v: Option<u64>) {
    match v {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put_varint(buf, v);
        }
    }
}

/// Decode a [`put_opt_varint`] value.
pub fn get_opt_varint(buf: &mut impl Buf) -> Result<Option<u64>, CodecError> {
    if get_bool(buf)? {
        Ok(Some(get_varint(buf)?))
    } else {
        Ok(None)
    }
}

/// Encode a UTF-8 string as a length-prefixed byte run.
pub fn put_string(buf: &mut impl BufMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Decode a [`put_string`] value.
pub fn get_string(buf: &mut impl Buf) -> Result<String, CodecError> {
    let n = get_varint(buf)? as usize;
    if buf.remaining() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| CodecError::Text(0, "invalid utf-8 string".to_string()))
}

/// Encode one [`Violation`].
pub fn put_violation(buf: &mut impl BufMut, v: &Violation) {
    use crate::codec::put_snapshot;
    match v {
        Violation::Session { tid, sid, expected_sno, found_sno, start_ts, last_commit_ts } => {
            buf.put_u8(0);
            put_varint(buf, tid.0);
            put_varint(buf, u64::from(sid.0));
            put_varint(buf, u64::from(*expected_sno));
            put_varint(buf, u64::from(*found_sno));
            put_varint(buf, start_ts.0);
            put_varint(buf, last_commit_ts.0);
        }
        Violation::Int { tid, key, op_index, expected, observed } => {
            buf.put_u8(1);
            put_varint(buf, tid.0);
            put_varint(buf, key.0);
            put_varint(buf, *op_index as u64);
            put_snapshot(buf, expected);
            put_snapshot(buf, observed);
        }
        Violation::Ext { tid, key, op_index, expected, observed } => {
            buf.put_u8(2);
            put_varint(buf, tid.0);
            put_varint(buf, key.0);
            put_varint(buf, *op_index as u64);
            put_snapshot(buf, expected);
            put_snapshot(buf, observed);
        }
        Violation::NoConflict { key, t1, t2 } => {
            buf.put_u8(3);
            put_varint(buf, key.0);
            put_varint(buf, t1.0);
            put_varint(buf, t2.0);
        }
        Violation::TimestampOrder { tid, start_ts, commit_ts } => {
            buf.put_u8(4);
            put_varint(buf, tid.0);
            put_varint(buf, start_ts.0);
            put_varint(buf, commit_ts.0);
        }
        Violation::DuplicateTimestamp { ts, t1, t2 } => {
            buf.put_u8(5);
            put_varint(buf, ts.0);
            put_varint(buf, t1.0);
            put_varint(buf, t2.0);
        }
        Violation::DuplicateTid { tid } => {
            buf.put_u8(6);
            put_varint(buf, tid.0);
        }
    }
}

/// Decode one [`Violation`].
pub fn get_violation(buf: &mut impl Buf) -> Result<Violation, CodecError> {
    use crate::codec::get_snapshot;
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    match buf.get_u8() {
        0 => Ok(Violation::Session {
            tid: TxnId(get_varint(buf)?),
            sid: SessionId(get_varint(buf)? as u32),
            expected_sno: get_varint(buf)? as u32,
            found_sno: get_varint(buf)? as u32,
            start_ts: Timestamp(get_varint(buf)?),
            last_commit_ts: Timestamp(get_varint(buf)?),
        }),
        1 => Ok(Violation::Int {
            tid: TxnId(get_varint(buf)?),
            key: Key(get_varint(buf)?),
            op_index: get_varint(buf)? as usize,
            expected: get_snapshot(buf)?,
            observed: get_snapshot(buf)?,
        }),
        2 => Ok(Violation::Ext {
            tid: TxnId(get_varint(buf)?),
            key: Key(get_varint(buf)?),
            op_index: get_varint(buf)? as usize,
            expected: get_snapshot(buf)?,
            observed: get_snapshot(buf)?,
        }),
        3 => Ok(Violation::NoConflict {
            key: Key(get_varint(buf)?),
            t1: TxnId(get_varint(buf)?),
            t2: TxnId(get_varint(buf)?),
        }),
        4 => Ok(Violation::TimestampOrder {
            tid: TxnId(get_varint(buf)?),
            start_ts: Timestamp(get_varint(buf)?),
            commit_ts: Timestamp(get_varint(buf)?),
        }),
        5 => Ok(Violation::DuplicateTimestamp {
            ts: Timestamp(get_varint(buf)?),
            t1: TxnId(get_varint(buf)?),
            t2: TxnId(get_varint(buf)?),
        }),
        6 => Ok(Violation::DuplicateTid { tid: TxnId(get_varint(buf)?) }),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode one [`CheckEvent`].
pub fn put_check_event(buf: &mut impl BufMut, e: &CheckEvent) {
    match e {
        CheckEvent::Violation(v) => {
            buf.put_u8(0);
            put_violation(buf, v);
        }
        CheckEvent::VerdictFlip { tid, key, rectified_after_ms } => {
            buf.put_u8(1);
            put_varint(buf, tid.0);
            put_varint(buf, key.0);
            put_opt_varint(buf, *rectified_after_ms);
        }
        CheckEvent::ExtFinalized { tid, violations } => {
            buf.put_u8(2);
            put_varint(buf, tid.0);
            put_varint(buf, u64::from(*violations));
        }
        CheckEvent::SpillPass { spilled, bytes, resident_after } => {
            buf.put_u8(3);
            put_varint(buf, *spilled as u64);
            put_varint(buf, *bytes);
            put_varint(buf, *resident_after as u64);
        }
        CheckEvent::SpillError { op, detail } => {
            buf.put_u8(4);
            buf.put_u8(match op {
                crate::check::SpillOp::Write => 0,
                crate::check::SpillOp::Reload => 1,
            });
            put_string(buf, detail);
        }
        // `CheckEvent` is non_exhaustive upstream of us only in name: a
        // new variant added here must claim a tag before being written.
        #[allow(unreachable_patterns)]
        other => unreachable!("unserializable CheckEvent variant {other:?}"),
    }
}

/// Decode one [`CheckEvent`].
pub fn get_check_event(buf: &mut impl Buf) -> Result<CheckEvent, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    match buf.get_u8() {
        0 => Ok(CheckEvent::Violation(get_violation(buf)?)),
        1 => Ok(CheckEvent::VerdictFlip {
            tid: TxnId(get_varint(buf)?),
            key: Key(get_varint(buf)?),
            rectified_after_ms: get_opt_varint(buf)?,
        }),
        2 => Ok(CheckEvent::ExtFinalized {
            tid: TxnId(get_varint(buf)?),
            violations: get_varint(buf)? as u32,
        }),
        3 => Ok(CheckEvent::SpillPass {
            spilled: get_varint(buf)? as usize,
            bytes: get_varint(buf)?,
            resident_after: get_varint(buf)? as usize,
        }),
        4 => {
            if !buf.has_remaining() {
                return Err(CodecError::UnexpectedEof);
            }
            let op = match buf.get_u8() {
                0 => crate::check::SpillOp::Write,
                1 => crate::check::SpillOp::Reload,
                t => return Err(CodecError::BadTag(t)),
            };
            Ok(CheckEvent::SpillError { op, detail: get_string(buf)? })
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode a [`CheckReport`] (violations only; the per-axiom counters are
/// derived and rebuilt on decode).
pub fn put_report(buf: &mut impl BufMut, r: &CheckReport) {
    put_varint(buf, r.violations.len() as u64);
    for v in &r.violations {
        put_violation(buf, v);
    }
}

/// Decode a [`put_report`] payload, rebuilding the counters.
pub fn get_report(buf: &mut impl Buf) -> Result<CheckReport, CodecError> {
    let n = get_varint(buf)? as usize;
    let mut r = CheckReport::new();
    for _ in 0..n {
        r.push(get_violation(buf)?);
    }
    Ok(r)
}

/// Encode [`CheckerStats`].
pub fn put_stats(buf: &mut impl BufMut, s: &CheckerStats) {
    put_varint(buf, s.received as u64);
    put_varint(buf, s.finalized as u64);
    put_varint(buf, s.peak_resident_txns as u64);
    put_varint(buf, s.gc_spills as u64);
    put_varint(buf, s.spilled_txns as u64);
    put_varint(buf, s.reloaded_txns as u64);
    put_varint(buf, s.spill_bytes);
    put_varint(buf, s.reevaluations);
    put_varint(buf, s.spill_errors);
}

/// Decode [`CheckerStats`].
pub fn get_stats(buf: &mut impl Buf) -> Result<CheckerStats, CodecError> {
    Ok(CheckerStats {
        received: get_varint(buf)? as usize,
        finalized: get_varint(buf)? as usize,
        peak_resident_txns: get_varint(buf)? as usize,
        gc_spills: get_varint(buf)? as usize,
        spilled_txns: get_varint(buf)? as usize,
        reloaded_txns: get_varint(buf)? as usize,
        spill_bytes: get_varint(buf)?,
        reevaluations: get_varint(buf)?,
        spill_errors: get_varint(buf)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Snapshot;
    use crate::Value;
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
            put_violation(&mut buf, &v);
            let mut slice = &buf[..];
            assert_eq!(get_violation(&mut slice).unwrap(), v);
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
            put_check_event(&mut buf, &e);
            let mut slice = &buf[..];
            assert_eq!(get_check_event(&mut slice).unwrap(), e);
        }
    }

    #[test]
    fn report_roundtrip_rebuilds_counters() {
        let mut r = CheckReport::new();
        for v in all_violations() {
            r.push(v);
        }
        let mut buf = BytesMut::new();
        put_report(&mut buf, &r);
        let back = get_report(&mut &buf[..]).unwrap();
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
        put_stats(&mut buf, &s);
        let back = get_stats(&mut &buf[..]).unwrap();
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
        put_bool(&mut buf, true);
        put_opt_varint(&mut buf, Some(700));
        put_opt_varint(&mut buf, None);
        put_string(&mut buf, "sess-1");
        let mut slice = &buf[..];
        assert!(get_bool(&mut slice).unwrap());
        assert_eq!(get_opt_varint(&mut slice).unwrap(), Some(700));
        assert_eq!(get_opt_varint(&mut slice).unwrap(), None);
        assert_eq!(get_string(&mut slice).unwrap(), "sess-1");

        let mut bad: &[u8] = &[7];
        assert_eq!(get_bool(&mut bad), Err(CodecError::BadTag(7)));
        let mut trunc: &[u8] = &[5, b'a'];
        assert_eq!(get_string(&mut trunc), Err(CodecError::UnexpectedEof));
        let mut nonutf: &[u8] = &[2, 0xff, 0xfe];
        assert!(matches!(get_string(&mut nonutf), Err(CodecError::Text(_, _))));
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
