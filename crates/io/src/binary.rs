//! Streaming reader/writer for the compact AIONH1/AIONH2 binary format.
//!
//! The byte layout is defined by [`aion_types::codec`] (magic header,
//! LEB128 varints, tagged ops) and shared with the online checker's
//! spill files; writing delegates to the codec so the two can never
//! drift. Histories whose transactions declare isolation levels are
//! written under the `AIONH2` magic (one level byte per transaction);
//! level-free histories keep the byte-stable `AIONH1` layout. Reading is
//! reimplemented here over any [`BufRead`] so a multi-gigabyte file
//! decodes one transaction at a time instead of being slurped into a
//! `Buf` first; the `binary_stream_decodes_exactly_like_codec` test pins
//! the two decoders together.

use crate::reader::{HistoryReader, ReaderOptions};
use crate::{Format, IoFormatError};
use aion_types::codec;
use aion_types::{
    DataKind, FxHashSet, History, Key, Op, SessionId, Timestamp, Transaction, TxnId, Value,
};
use std::io::{BufRead, Write};

/// The level-free magic header bytes (`b"AIONH1"`).
pub(crate) const MAGIC: &[u8; 6] = b"AIONH1";
/// The level-carrying magic header bytes (`b"AIONH2"`).
pub(crate) const MAGIC_V2: &[u8; 6] = b"AIONH2";

/// Write a whole history in the binary format.
pub(crate) fn write_binary(h: &History, w: &mut dyn Write) -> Result<(), IoFormatError> {
    w.write_all(&codec::encode_history(h))?;
    Ok(())
}

/// Streaming binary reader: decodes the header eagerly, then one
/// transaction per [`HistoryReader::next_txn`].
pub(crate) struct BinaryReader<R: BufRead> {
    r: R,
    kind: DataKind,
    /// True for `AIONH2` streams (each transaction carries a level byte).
    ext: bool,
    /// Transactions still to decode (from the count prefix).
    remaining: u64,
    /// Bytes consumed so far (error offsets).
    offset: usize,
    opts: ReaderOptions,
    seen_tids: FxHashSet<u64>,
}

impl<R: BufRead> BinaryReader<R> {
    /// Open a binary stream: reads and validates magic, kind and count.
    pub(crate) fn new(mut r: R, opts: ReaderOptions) -> Result<BinaryReader<R>, IoFormatError> {
        let mut magic = [0u8; 6];
        r.read_exact(&mut magic).map_err(|_| IoFormatError::BadHeader {
            format: Format::Binary,
            msg: "input shorter than the magic header".into(),
        })?;
        let ext = match &magic {
            m if m == MAGIC => false,
            m if m == MAGIC_V2 => true,
            _ => {
                return Err(IoFormatError::BadHeader {
                    format: Format::Binary,
                    msg: format!("magic is {magic:02x?}, expected {MAGIC:02x?} or {MAGIC_V2:02x?}"),
                })
            }
        };
        let mut me = BinaryReader {
            r,
            kind: DataKind::Kv,
            ext,
            remaining: 0,
            offset: 6,
            opts,
            seen_tids: FxHashSet::default(),
        };
        me.kind = match me.read_u8()? {
            0 => DataKind::Kv,
            1 => DataKind::List,
            k => {
                return Err(IoFormatError::BadHeader {
                    format: Format::Binary,
                    msg: format!("unknown data-kind byte {k}"),
                })
            }
        };
        me.remaining = me.read_varint()?;
        Ok(me)
    }

    fn err(&self, msg: impl Into<String>) -> IoFormatError {
        // `line` doubles as the byte offset for the binary format.
        IoFormatError::Syntax { format: Format::Binary, line: self.offset, msg: msg.into() }
    }

    fn read_u8(&mut self) -> Result<u8, IoFormatError> {
        let mut b = [0u8; 1];
        self.r.read_exact(&mut b).map_err(|_| self.err("unexpected end of input"))?;
        self.offset += 1;
        Ok(b[0])
    }

    fn read_varint(&mut self) -> Result<u64, IoFormatError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift >= 64 {
                return Err(self.err("varint longer than 10 bytes"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn read_values(&mut self) -> Result<Vec<Value>, IoFormatError> {
        let n = self.read_varint()? as usize;
        let mut elems = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            elems.push(Value(self.read_varint()?));
        }
        Ok(elems)
    }

    fn read_op(&mut self) -> Result<Op, IoFormatError> {
        // Tag space mirrors `Op`'s `Wire` impl (pinned by test against it).
        let tag = self.read_u8()?;
        let key = Key(self.read_varint()?);
        match tag {
            0 => Ok(Op::read(key, Value(self.read_varint()?))),
            1 => Ok(Op::read_list(key, self.read_values()?)),
            2 => Ok(Op::put(key, Value(self.read_varint()?))),
            3 => Ok(Op::append(key, Value(self.read_varint()?))),
            t => Err(self.err(format!("unknown op tag {t}"))),
        }
    }

    fn read_varint_u32(&mut self, what: &str) -> Result<u32, IoFormatError> {
        let v = self.read_varint()?;
        u32::try_from(v).map_err(|_| self.err(format!("{what} {v} exceeds u32")))
    }

    fn read_txn(&mut self) -> Result<Transaction, IoFormatError> {
        let tid = self.read_varint()?;
        let sid = self.read_varint_u32("sid")?;
        let sno = self.read_varint_u32("sno")?;
        let start_ts = Timestamp(self.read_varint()?);
        let commit_ts = Timestamp(self.read_varint()?);
        let level = if self.ext {
            let b = self.read_u8()?;
            codec::level_from_byte(b).map_err(|_| self.err(format!("unknown level byte {b}")))?
        } else {
            None
        };
        let nops = self.read_varint()? as usize;
        let mut ops = Vec::with_capacity(nops.min(1 << 20));
        for _ in 0..nops {
            ops.push(self.read_op()?);
        }
        if self.opts.strict && !self.seen_tids.insert(tid) {
            return Err(IoFormatError::DuplicateTid { tid: TxnId(tid) });
        }
        Ok(Transaction {
            tid: TxnId(tid),
            sid: SessionId(sid),
            sno,
            start_ts,
            commit_ts,
            ops,
            level,
        })
    }
}

impl<R: BufRead> HistoryReader for BinaryReader<R> {
    fn kind(&self) -> DataKind {
        self.kind
    }

    fn next_txn(&mut self) -> Result<Option<Transaction>, IoFormatError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        Ok(Some(self.read_txn()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_history_from;
    use aion_types::TxnBuilder;

    fn sample() -> History {
        let mut h = History::new(DataKind::List);
        h.push(
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(10, 20)
                .append(Key(1), Value(5))
                .read_list(Key(1), vec![Value(5)])
                .read_list(Key(9), vec![])
                .build(),
        );
        h.push(TxnBuilder::new(2).session(1, 0).interval(30, 40).put(Key(3), Value(1)).build());
        h
    }

    /// Both decoders of the one layout on one input: the history when both
    /// accept (and agree on it), `None` when both reject. Anything else is
    /// the drift this test exists to catch.
    fn both(bytes: &[u8]) -> Option<History> {
        let via_codec = codec::decode_history(bytes);
        let via_stream = BinaryReader::new(bytes, ReaderOptions::default())
            .and_then(|r| read_history_from(Box::new(r)));
        match (via_codec, via_stream) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b);
                Some(a)
            }
            (Err(_), Err(_)) => None,
            (a, b) => panic!("decoders disagree: codec {a:?}, stream {b:?}"),
        }
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_varint(&mut out, v);
        out
    }

    /// `bytes` decodes; every truncation of it, and each hostile edit of
    /// its count and of its first transaction, is rejected by both.
    fn both_reject_every_corruption_of(bytes: &[u8]) -> History {
        let h = both(bytes).expect("the intact input decodes");
        for cut in 0..bytes.len() {
            assert!(both(&bytes[..cut]).is_none(), "truncation at {cut} of {}", bytes.len());
        }
        let splice = |at: usize, old: usize, new: &[u8]| {
            let edited = [&bytes[..at], new, &bytes[at + old..]].concat();
            assert!(both(&edited).is_none(), "edit at {at} ({old} → {} bytes)", new.len());
        };
        let t = &h.txns[0];
        let ext = bytes[..6] == MAGIC_V2[..];
        let count_len = varint(h.len() as u64).len();
        splice(7, count_len, &varint(1 << 40));
        let sid_at = 7 + count_len + varint(t.tid.0).len();
        let sid_len = varint(u64::from(t.sid.0)).len();
        splice(sid_at, sid_len, &varint((1 << 32) + u64::from(t.sid.0)));
        let sno_len = varint(u64::from(t.sno)).len();
        splice(sid_at + sid_len, sno_len, &varint((1 << 32) + u64::from(t.sno)));
        let level_at =
            sid_at + sid_len + sno_len + varint(t.start_ts.0).len() + varint(t.commit_ts.0).len();
        if ext {
            splice(level_at, 1, &[99]);
        }
        assert!(!t.ops.is_empty(), "the first transaction needs an op to corrupt");
        splice(level_at + usize::from(ext) + varint(t.ops.len() as u64).len(), 1, &[0x77]);
        h
    }

    #[test]
    fn binary_stream_decodes_exactly_like_codec() {
        let h = sample();
        assert_eq!(both_reject_every_corruption_of(&codec::encode_history(&h)), h);
        let mut mixed = sample();
        mixed.txns[0].level = Some(aion_types::IsolationLevel::ReadAtomic);
        assert_eq!(both_reject_every_corruption_of(&codec::encode_history(&mixed)), mixed);

        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
        let mut fixtures = 0;
        for entry in std::fs::read_dir(corpus).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "bin") {
                both_reject_every_corruption_of(&std::fs::read(&path).unwrap());
                fixtures += 1;
            }
        }
        assert!(fixtures >= 19, "the .bin corpus went missing ({fixtures} found)");
    }

    #[test]
    fn write_then_stream_roundtrip() {
        let h = sample();
        let mut buf = Vec::new();
        write_binary(&h, &mut buf).unwrap();
        let r = BinaryReader::new(&buf[..], ReaderOptions::default()).unwrap();
        assert_eq!(read_history_from(Box::new(r)).unwrap(), h);
    }

    #[test]
    fn bad_magic_is_bad_header() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            BinaryReader::new(&buf[..], ReaderOptions::default()),
            Err(IoFormatError::BadHeader { .. })
        ));
    }

    #[test]
    fn truncation_mid_txn_is_typed_with_offset() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        let cut = buf.len() - 3;
        let mut r = BinaryReader::new(&buf[..cut], ReaderOptions::default()).unwrap();
        let mut result = Ok(None);
        while let Ok(Some(_)) = result {
            result = r.next_txn();
        }
        loop {
            match r.next_txn() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated stream must error, not end cleanly"),
                Err(IoFormatError::Syntax { format: Format::Binary, line, .. }) => {
                    assert!(line > 6, "offset should be past the header, got {line}");
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn strict_mode_rejects_duplicate_tids() {
        let mut h = sample();
        h.txns[1].tid = h.txns[0].tid;
        let mut buf = Vec::new();
        write_binary(&h, &mut buf).unwrap();
        let mut r = BinaryReader::new(&buf[..], ReaderOptions::strict()).unwrap();
        assert!(r.next_txn().is_ok());
        assert!(matches!(r.next_txn(), Err(IoFormatError::DuplicateTid { .. })));
    }
}
