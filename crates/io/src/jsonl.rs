//! The native self-describing JSONL history format.
//!
//! Line 1 is a versioned header object; every following non-empty line
//! is one transaction, so the format streams naturally and `grep`/`head`
//! work on it:
//!
//! ```text
//! {"format":"aion-history","version":1,"kind":"kv"}
//! {"tid":1,"sid":0,"sno":0,"start":10,"commit":20,"ops":[["w",1,5],["r",2,0]]}
//! {"tid":2,"sid":1,"sno":0,"start":30,"commit":40,"ops":[["r",1,5]]}
//! ```
//!
//! Operations are `[tag, key, value]` triples: `"r"` scalar read, `"rl"`
//! list read (value is an array), `"w"` put, `"a"` append. A transaction
//! that declared an isolation level carries an optional
//! `"level":"rc"|"ra"|"si"|"ser"` field (mixed-level checking); readers
//! that predate the lattice ignore it, and level-free transactions emit
//! byte-identical lines to the pre-lattice writer. Unknown header fields
//! are ignored (forward compatibility); an unknown header `version` is a
//! typed [`IoFormatError::UnsupportedVersion`]. See `docs/formats.md`
//! for the full field table.

use crate::json::JsonValue;
use crate::reader::{HistoryReader, ReaderOptions};
use crate::{Format, IoFormatError};
use aion_types::{
    DataKind, FxHashSet, History, IsolationLevel, Key, Op, SessionId, Snapshot, Timestamp,
    Transaction, TxnId, Value,
};
use std::io::{BufRead, Write};

/// The `format` field every header must carry.
pub(crate) const FORMAT_TAG: &str = "aion-history";
/// The header version this build writes and reads.
pub(crate) const VERSION: u64 = 1;

fn kind_label(kind: DataKind) -> &'static str {
    match kind {
        DataKind::Kv => "kv",
        DataKind::List => "list",
    }
}

/// Render the header line for `kind`.
pub(crate) fn header_line(kind: DataKind) -> String {
    format!(r#"{{"format":"{FORMAT_TAG}","version":{VERSION},"kind":"{}"}}"#, kind_label(kind))
}

/// Render one transaction as a single JSONL line (no trailing newline).
pub(crate) fn txn_line(t: &Transaction) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + t.ops.len() * 12);
    let _ = write!(
        out,
        r#"{{"tid":{},"sid":{},"sno":{},"start":{},"commit":{},"#,
        t.tid.0, t.sid.0, t.sno, t.start_ts.0, t.commit_ts.0
    );
    if let Some(level) = t.level {
        let _ = write!(out, r#""level":"{}","#, level.label());
    }
    out.push_str(r#""ops":["#);
    for (i, op) in t.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match op {
            Op::Read { key, value } => match value {
                Snapshot::Scalar(v) => {
                    let _ = write!(out, r#"["r",{},{}]"#, key.0, v.0);
                }
                Snapshot::List(l) => {
                    let _ = write!(out, r#"["rl",{},["#, key.0);
                    for (j, e) in l.elems().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", e.0);
                    }
                    out.push_str("]]");
                }
            },
            Op::Write { key, mutation } => match mutation {
                aion_types::Mutation::Put(v) => {
                    let _ = write!(out, r#"["w",{},{}]"#, key.0, v.0);
                }
                aion_types::Mutation::Append(v) => {
                    let _ = write!(out, r#"["a",{},{}]"#, key.0, v.0);
                }
            },
        }
    }
    out.push_str("]}");
    out
}

/// Write a whole history in JSONL (header + one line per transaction).
pub(crate) fn write_jsonl(h: &History, w: &mut dyn Write) -> Result<(), IoFormatError> {
    writeln!(w, "{}", header_line(h.kind))?;
    for t in &h.txns {
        writeln!(w, "{}", txn_line(t))?;
    }
    Ok(())
}

/// Streaming JSONL reader: one transaction per [`HistoryReader::next_txn`].
pub(crate) struct JsonlReader<R: BufRead> {
    r: R,
    kind: DataKind,
    line_no: usize,
    opts: ReaderOptions,
    seen_tids: FxHashSet<u64>,
}

impl<R: BufRead> JsonlReader<R> {
    /// Open a JSONL stream: reads and validates the header line.
    pub(crate) fn new(r: R, opts: ReaderOptions) -> Result<JsonlReader<R>, IoFormatError> {
        let mut me = JsonlReader {
            r,
            kind: DataKind::Kv,
            line_no: 0,
            opts,
            seen_tids: FxHashSet::default(),
        };
        let Some(line) = me.next_line()? else {
            return Err(IoFormatError::BadHeader {
                format: Format::Jsonl,
                msg: "empty file".into(),
            });
        };
        let header = JsonValue::parse_str(&line, Format::Jsonl).map_err(|e| match e {
            IoFormatError::Syntax { msg, .. } => {
                IoFormatError::BadHeader { format: Format::Jsonl, msg }
            }
            e => e,
        })?;
        match header.get("format").and_then(JsonValue::as_str) {
            Some(FORMAT_TAG) => {}
            other => {
                return Err(IoFormatError::BadHeader {
                    format: Format::Jsonl,
                    msg: format!("format tag is {other:?}, expected \"{FORMAT_TAG}\""),
                })
            }
        }
        match header.get("version").and_then(JsonValue::as_int) {
            Some(VERSION) => {}
            Some(found) => return Err(IoFormatError::UnsupportedVersion { found }),
            None => {
                return Err(IoFormatError::BadHeader {
                    format: Format::Jsonl,
                    msg: "missing integer \"version\" field".into(),
                })
            }
        }
        me.kind = match header.get("kind").and_then(JsonValue::as_str) {
            Some("kv") | None => DataKind::Kv,
            Some("list") => DataKind::List,
            Some(other) => {
                return Err(IoFormatError::BadHeader {
                    format: Format::Jsonl,
                    msg: format!("unknown kind \"{other}\""),
                })
            }
        };
        Ok(me)
    }

    fn next_line(&mut self) -> Result<Option<String>, IoFormatError> {
        loop {
            let mut line = String::new();
            let n = self.r.read_line(&mut line).map_err(|e| {
                // Invalid UTF-8 arrives as InvalidData; report it as a
                // parse error, not a stream failure.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    IoFormatError::Syntax {
                        format: Format::Jsonl,
                        line: self.line_no + 1,
                        msg: "invalid utf-8".into(),
                    }
                } else {
                    IoFormatError::Io(e)
                }
            })?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            if !line.trim().is_empty() {
                return Ok(Some(line));
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> IoFormatError {
        IoFormatError::Syntax { format: Format::Jsonl, line: self.line_no, msg: msg.into() }
    }

    fn parse_txn(&mut self, line: &str) -> Result<Transaction, IoFormatError> {
        let v = JsonValue::parse_str(line, Format::Jsonl).map_err(|e| match e {
            IoFormatError::Syntax { msg, .. } => self.err(msg),
            e => e,
        })?;
        let int_field = |name: &str| {
            v.get(name)
                .and_then(JsonValue::as_int)
                .ok_or_else(|| self.err(format!("missing integer \"{name}\" field")))
        };
        let tid = int_field("tid")?;
        let sid = int_field("sid")?;
        if sid > u64::from(u32::MAX) {
            return Err(self.err("\"sid\" exceeds u32"));
        }
        let sno = int_field("sno")?;
        if sno > u64::from(u32::MAX) {
            return Err(self.err("\"sno\" exceeds u32"));
        }
        let start = int_field("start")?;
        let commit = int_field("commit")?;
        let level = match v.get("level") {
            None => None,
            Some(l) => {
                let label = l.as_str().ok_or_else(|| self.err("\"level\" is not a string"))?;
                Some(IsolationLevel::parse(label).ok_or_else(|| {
                    self.err(format!("unknown \"level\" \"{label}\" (rc|ra|si|ser)"))
                })?)
            }
        };
        let ops_v = v
            .get("ops")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| self.err("missing \"ops\" array"))?;
        let mut ops = Vec::with_capacity(ops_v.len());
        for op in ops_v {
            ops.push(self.parse_op(op)?);
        }
        if self.opts.strict && !self.seen_tids.insert(tid) {
            return Err(IoFormatError::DuplicateTid { tid: TxnId(tid) });
        }
        Ok(Transaction {
            tid: TxnId(tid),
            sid: SessionId(sid as u32),
            sno: sno as u32,
            start_ts: Timestamp(start),
            commit_ts: Timestamp(commit),
            ops,
            level,
        })
    }

    fn parse_op(&self, op: &JsonValue) -> Result<Op, IoFormatError> {
        let arr = op.as_arr().ok_or_else(|| self.err("op is not an array"))?;
        let tag = arr.first().and_then(JsonValue::as_str).ok_or_else(|| self.err("op tag"))?;
        let key = arr.get(1).and_then(JsonValue::as_int).ok_or_else(|| self.err("op key"))?;
        let val = arr.get(2).ok_or_else(|| self.err("op value"))?;
        if arr.len() != 3 {
            return Err(self.err(format!("op has {} elements, expected 3", arr.len())));
        }
        let scalar =
            |v: &JsonValue| v.as_int().ok_or_else(|| self.err("op value is not an integer"));
        match tag {
            "r" => Ok(Op::read(Key(key), Value(scalar(val)?))),
            "rl" => {
                let elems = val.as_arr().ok_or_else(|| self.err("\"rl\" value is not an array"))?;
                let elems: Result<Vec<Value>, _> =
                    elems.iter().map(|e| scalar(e).map(Value)).collect();
                Ok(Op::read_list(Key(key), elems?))
            }
            "w" => Ok(Op::put(Key(key), Value(scalar(val)?))),
            "a" => Ok(Op::append(Key(key), Value(scalar(val)?))),
            other => Err(self.err(format!("unknown op tag \"{other}\""))),
        }
    }
}

impl<R: BufRead> HistoryReader for JsonlReader<R> {
    fn kind(&self) -> DataKind {
        self.kind
    }

    fn next_txn(&mut self) -> Result<Option<Transaction>, IoFormatError> {
        match self.next_line()? {
            None => Ok(None),
            Some(line) => Ok(Some(self.parse_txn(&line)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_history_from;
    use aion_types::TxnBuilder;

    fn sample() -> History {
        let mut h = History::new(DataKind::Kv);
        h.push(
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(10, 20)
                .put(Key(1), Value(5))
                .read(Key(2), Value(0))
                .build(),
        );
        h.push(TxnBuilder::new(2).session(1, 0).interval(30, 40).read(Key(1), Value(5)).build());
        h
    }

    fn roundtrip(h: &History) -> History {
        let mut buf = Vec::new();
        write_jsonl(h, &mut buf).unwrap();
        let r = JsonlReader::new(&buf[..], ReaderOptions::default()).unwrap();
        read_history_from(Box::new(r)).unwrap()
    }

    #[test]
    fn kv_roundtrip() {
        let h = sample();
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn list_roundtrip() {
        let mut h = History::new(DataKind::List);
        h.push(
            TxnBuilder::new(1)
                .session(0, 0)
                .interval(1, 2)
                .append(Key(1), Value(7))
                .read_list(Key(1), vec![Value(7)])
                .read_list(Key(2), vec![])
                .build(),
        );
        assert_eq!(roundtrip(&h), h);
    }

    #[test]
    fn header_version_mismatch_is_typed() {
        let input = b"{\"format\":\"aion-history\",\"version\":99,\"kind\":\"kv\"}\n";
        match JsonlReader::new(&input[..], ReaderOptions::default()) {
            Err(IoFormatError::UnsupportedVersion { found: 99 }) => {}
            Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("expected UnsupportedVersion, got a reader"),
        }
    }

    #[test]
    fn wrong_format_tag_is_bad_header() {
        let input = b"{\"format\":\"something\",\"version\":1}\n";
        assert!(matches!(
            JsonlReader::new(&input[..], ReaderOptions::default()),
            Err(IoFormatError::BadHeader { .. })
        ));
    }

    #[test]
    fn strict_mode_rejects_duplicate_tids() {
        let mut h = sample();
        h.txns[1].tid = h.txns[0].tid;
        let mut buf = Vec::new();
        write_jsonl(&h, &mut buf).unwrap();
        // Lenient (default): duplicates pass through for checkers to report.
        let r = JsonlReader::new(&buf[..], ReaderOptions::default()).unwrap();
        assert_eq!(read_history_from(Box::new(r)).unwrap().len(), 2);
        // Strict: typed error.
        let mut r = JsonlReader::new(&buf[..], ReaderOptions::strict()).unwrap();
        assert!(r.next_txn().is_ok());
        assert!(matches!(r.next_txn(), Err(IoFormatError::DuplicateTid { tid: TxnId(1) })));
    }

    #[test]
    fn bad_line_reports_its_number() {
        let input = format!("{}\n{{\"tid\": }}\n", header_line(DataKind::Kv));
        let mut r = JsonlReader::new(input.as_bytes(), ReaderOptions::default()).unwrap();
        match r.next_txn() {
            Err(IoFormatError::Syntax { line: 2, .. }) => {}
            other => panic!("expected line-2 syntax error, got {other:?}"),
        }
    }
}
