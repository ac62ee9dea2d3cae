//! dbcop's session-list history format (Biswas & Enea, "On the
//! Complexity of Checking Transactional Consistency").
//!
//! A dbcop history is one JSON document: metadata (`params`, `info`,
//! `start`, `end`) plus `data`, an array of sessions, each an array of
//! transactions whose `events` are `{"Read": {"variable", "version"}}` /
//! `{"Write": {"variable", "version"}}` objects over registers. The
//! format carries **no timestamps** — dbcop checks axiomatically — so:
//!
//! * **Reading a foreign file** synthesizes a serial timestamp order in
//!   session-major stream order (session 0's transactions first):
//!   transaction *g* gets `start = 2g+1`, `commit = 2g+2`, session id =
//!   session index, `sno` = position. The timestamp checkers then treat
//!   the file as a serial execution in that order; value anomalies
//!   (e.g. dbcop's lost-update example) surface as stale EXT reads.
//! * **Writing** embeds each transaction's real ids and timestamps in an
//!   `"aion"` extension object (plus `"at"`, its collection-order
//!   index), which dbcop itself ignores but this crate's reader uses to
//!   reconstruct the exact original history — round-trips are lossless.
//!   Mixing extended and bare transactions in one file is a syntax
//!   error (half-synthesized timestamps would be unsound).
//!
//! Only key-value histories are representable (dbcop's model is
//! registers); writing a list history is a typed
//! [`IoFormatError::Unsupported`]. Uncommitted transactions
//! (`"committed": false`) are skipped on read — aion histories contain
//! committed transactions only (paper §IV-B).
//!
//! The reader streams: it walks the JSON token stream and materializes
//! one transaction object at a time, never the document.

use crate::json::{escape_str, parse_value, parse_value_from, JsonLexer, JsonToken, JsonValue};
use crate::reader::{HistoryReader, ReaderOptions};
use crate::{Format, IoFormatError};
use aion_types::{
    DataKind, FxHashSet, History, IsolationLevel, Key, Mutation, Op, SessionId, Timestamp,
    Transaction, TxnId, Value,
};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};

// ---------------------------------------------------------------- writing

/// Write a key-value history as a dbcop session-list document (with the
/// `"aion"` extension for lossless round-trips).
pub(crate) fn write_dbcop(h: &History, w: &mut dyn Write) -> Result<(), IoFormatError> {
    if h.kind != DataKind::Kv {
        return Err(IoFormatError::Unsupported {
            format: Format::Dbcop,
            msg: "list histories have no register representation; use jsonl or binary".into(),
        });
    }
    for t in &h.txns {
        if t.ops.iter().any(|op| matches!(op, Op::Write { mutation: Mutation::Append(_), .. })) {
            return Err(IoFormatError::Unsupported {
                format: Format::Dbcop,
                msg: format!("{} contains an append operation", t.tid),
            });
        }
    }

    // Sessions ordered by sid, transactions by sno (stable, so duplicate
    // snos — e.g. an injected duplicate-tid twin — keep collection order).
    let mut sessions: BTreeMap<u32, Vec<(usize, &Transaction)>> = BTreeMap::new();
    for (at, t) in h.txns.iter().enumerate() {
        sessions.entry(t.sid.0).or_default().push((at, t));
    }
    for txns in sessions.values_mut() {
        txns.sort_by_key(|(at, t)| (t.sno, *at));
    }

    let stats = h.stats();
    let n_transaction = sessions.values().map(Vec::len).max().unwrap_or(0);
    let n_event = h.txns.iter().map(|t| t.ops.len()).max().unwrap_or(0);
    writeln!(w, "{{")?;
    writeln!(
        w,
        "  \"params\": {{\"id\": 0, \"n_node\": {}, \"n_variable\": {}, \
         \"n_transaction\": {n_transaction}, \"n_event\": {n_event}}},",
        sessions.len(),
        stats.keys
    )?;
    writeln!(w, "  \"info\": \"{}\",", escape_str("exported by aion-io"))?;
    writeln!(w, "  \"start\": \"1970-01-01T00:00:00Z\",")?;
    writeln!(w, "  \"end\": \"1970-01-01T00:00:00Z\",")?;
    writeln!(w, "  \"data\": [")?;
    let n_sessions = sessions.len();
    for (si, (_, txns)) in sessions.into_iter().enumerate() {
        writeln!(w, "    [")?;
        for (ti, (at, t)) in txns.iter().enumerate() {
            let mut line = String::from("      {\"events\": [");
            for (i, op) in t.ops.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                match op {
                    Op::Read { key, value } => {
                        let v = value.as_scalar().expect("kv history has scalar reads");
                        line.push_str(&format!(
                            "{{\"Read\": {{\"variable\": {}, \"version\": {}}}}}",
                            key.0, v.0
                        ));
                    }
                    Op::Write { key, mutation } => {
                        let Mutation::Put(v) = mutation else { unreachable!("appends rejected") };
                        line.push_str(&format!(
                            "{{\"Write\": {{\"variable\": {}, \"version\": {}}}}}",
                            key.0, v.0
                        ));
                    }
                }
            }
            // The optional "level" key is emitted only for declared
            // transactions, so level-free exports stay byte-identical
            // to the pre-lattice writer.
            let level = match t.level {
                Some(l) => format!(", \"level\": \"{}\"", l.label()),
                None => String::new(),
            };
            line.push_str(&format!(
                "], \"committed\": true, \"aion\": {{\"tid\": {}, \"sid\": {}, \"sno\": {}, \
                 \"start\": {}, \"commit\": {}, \"at\": {at}{level}}}}}",
                t.tid.0, t.sid.0, t.sno, t.start_ts.0, t.commit_ts.0
            ));
            if ti + 1 < txns.len() {
                line.push(',');
            }
            writeln!(w, "{line}")?;
        }
        writeln!(w, "    ]{}", if si + 1 < n_sessions { "," } else { "" })?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    Ok(())
}

// ---------------------------------------------------------------- reading

enum State {
    /// Between sessions inside `data` (next token `[`, `,` or `]`).
    BetweenSessions,
    /// Inside a session array (next token `{`, `,` or `]`).
    InSession,
    /// The document has been fully consumed.
    Done,
}

/// Streaming dbcop reader: walks the token stream and yields one
/// transaction per [`HistoryReader::next_txn`], in session-major order.
pub(crate) struct DbcopReader<R: BufRead> {
    lx: JsonLexer<R>,
    state: State,
    opts: ReaderOptions,
    /// `Some(true)` once a transaction carried the `"aion"` extension,
    /// `Some(false)` once one did not; mixing is an error.
    ext_mode: Option<bool>,
    /// 0-based index of the session currently being read.
    session_idx: u32,
    /// Position within the current session (synthesized `sno`).
    session_pos: u32,
    /// Transactions yielded so far (synthesized ids/timestamps).
    yielded: u64,
    /// Collection-order hint of the last yielded transaction.
    last_order: Option<u64>,
    seen_tids: FxHashSet<u64>,
}

impl<R: BufRead> DbcopReader<R> {
    /// Open a dbcop document: consumes metadata keys up to the `"data"`
    /// array.
    pub(crate) fn new(r: R, opts: ReaderOptions) -> Result<DbcopReader<R>, IoFormatError> {
        let mut lx = JsonLexer::new(r, Format::Dbcop);
        lx.expect(&JsonToken::LBrace).map_err(header_err)?;
        // Scan keys until "data"; metadata values are small, parse and drop.
        loop {
            let key = match lx.expect_some().map_err(header_err)? {
                JsonToken::Str(k) => k,
                JsonToken::RBrace => {
                    return Err(IoFormatError::BadHeader {
                        format: Format::Dbcop,
                        msg: "document has no \"data\" array".into(),
                    })
                }
                t => {
                    return Err(IoFormatError::BadHeader {
                        format: Format::Dbcop,
                        msg: format!("expected object key, found {:?}", t),
                    })
                }
            };
            lx.expect(&JsonToken::Colon)?;
            if key == "data" {
                lx.expect(&JsonToken::LBracket)?;
                break;
            }
            parse_value(&mut lx)?; // discard metadata
            match lx.expect_some()? {
                JsonToken::Comma => continue,
                JsonToken::RBrace => {
                    return Err(IoFormatError::BadHeader {
                        format: Format::Dbcop,
                        msg: "document has no \"data\" array".into(),
                    })
                }
                t => return Err(lx.err(format!("expected ',' or '}}', found {:?}", t))),
            }
        }
        Ok(DbcopReader {
            lx,
            state: State::BetweenSessions,
            opts,
            ext_mode: None,
            session_idx: 0,
            session_pos: 0,
            yielded: 0,
            last_order: None,
            seen_tids: FxHashSet::default(),
        })
    }

    /// After `data` closes: consume any trailing metadata keys and the
    /// final `}`.
    fn finish_document(&mut self) -> Result<(), IoFormatError> {
        loop {
            match self.lx.expect_some()? {
                JsonToken::RBrace => return Ok(()),
                JsonToken::Comma => {
                    match self.lx.expect_some()? {
                        JsonToken::Str(_) => {}
                        t => return Err(self.lx.err(format!("expected key, found {:?}", t))),
                    }
                    self.lx.expect(&JsonToken::Colon)?;
                    parse_value(&mut self.lx)?;
                }
                t => return Err(self.lx.err(format!("expected ',' or '}}', found {:?}", t))),
            }
        }
    }

    fn txn_from_obj(&mut self, obj: JsonValue) -> Result<Option<Transaction>, IoFormatError> {
        let err = |lx: &JsonLexer<R>, msg: &str| IoFormatError::Syntax {
            format: Format::Dbcop,
            line: lx.line(),
            msg: msg.into(),
        };
        let committed = obj
            .get("committed")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| err(&self.lx, "transaction has no boolean \"committed\" field"))?;
        let events = obj
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| err(&self.lx, "transaction has no \"events\" array"))?;
        if !committed {
            return Ok(None); // aion histories hold committed txns only
        }
        let mut ops = Vec::with_capacity(events.len());
        for ev in events {
            let (tag, body) = match ev {
                JsonValue::Obj(fields) if fields.len() == 1 => (&fields[0].0, &fields[0].1),
                _ => return Err(err(&self.lx, "event is not a single-key object")),
            };
            let variable = body
                .get("variable")
                .and_then(JsonValue::as_int)
                .ok_or_else(|| err(&self.lx, "event has no integer \"variable\""))?;
            // `version: null` is dbcop's "read observed nothing", i.e.
            // the initial value.
            let version = match body.get("version") {
                Some(JsonValue::Null) => 0,
                Some(JsonValue::Int(v)) => *v,
                _ => return Err(err(&self.lx, "event has no \"version\" (int or null)")),
            };
            match tag.as_str() {
                "Read" => ops.push(Op::read(Key(variable), Value(version))),
                "Write" => ops.push(Op::put(Key(variable), Value(version))),
                other => return Err(err(&self.lx, &format!("unknown event kind \"{other}\""))),
            }
        }

        let ext = obj.get("aion");
        let has_ext = ext.is_some();
        match self.ext_mode {
            None => self.ext_mode = Some(has_ext),
            Some(mode) if mode != has_ext => {
                return Err(err(
                    &self.lx,
                    "file mixes transactions with and without the \"aion\" extension",
                ))
            }
            Some(_) => {}
        }
        let txn = if let Some(ext) = ext {
            let field = |name: &str| {
                ext.get(name)
                    .and_then(JsonValue::as_int)
                    .ok_or_else(|| err(&self.lx, &format!("\"aion\" extension missing \"{name}\"")))
            };
            let field_u32 = |name: &str| {
                let v = field(name)?;
                u32::try_from(v)
                    .map_err(|_| err(&self.lx, &format!("\"aion\" field \"{name}\" exceeds u32")))
            };
            self.last_order = Some(field("at")?);
            let level = match ext.get("level") {
                None => None,
                Some(JsonValue::Str(label)) => {
                    Some(IsolationLevel::parse(label).ok_or_else(|| {
                        err(&self.lx, &format!("unknown \"aion\" level \"{label}\""))
                    })?)
                }
                Some(_) => return Err(err(&self.lx, "\"aion\" field \"level\" is not a string")),
            };
            Transaction {
                tid: TxnId(field("tid")?),
                sid: SessionId(field_u32("sid")?),
                sno: field_u32("sno")?,
                start_ts: Timestamp(field("start")?),
                commit_ts: Timestamp(field("commit")?),
                ops,
                level,
            }
        } else {
            let g = self.yielded;
            self.last_order = None;
            Transaction {
                tid: TxnId(g + 1),
                sid: SessionId(self.session_idx),
                sno: self.session_pos,
                start_ts: Timestamp(2 * g + 1),
                commit_ts: Timestamp(2 * g + 2),
                ops,
                level: None,
            }
        };
        if self.opts.strict && !self.seen_tids.insert(txn.tid.0) {
            return Err(IoFormatError::DuplicateTid { tid: txn.tid });
        }
        self.yielded += 1;
        self.session_pos += 1;
        Ok(Some(txn))
    }
}

fn header_err(e: IoFormatError) -> IoFormatError {
    match e {
        IoFormatError::Syntax { msg, .. } => {
            IoFormatError::BadHeader { format: Format::Dbcop, msg }
        }
        e => e,
    }
}

impl<R: BufRead> HistoryReader for DbcopReader<R> {
    fn kind(&self) -> DataKind {
        DataKind::Kv
    }

    fn next_txn(&mut self) -> Result<Option<Transaction>, IoFormatError> {
        loop {
            match self.state {
                State::Done => return Ok(None),
                State::BetweenSessions => match self.lx.expect_some()? {
                    JsonToken::LBracket => {
                        self.state = State::InSession;
                        self.session_pos = 0;
                    }
                    JsonToken::Comma => continue,
                    JsonToken::RBracket => {
                        self.finish_document()?;
                        self.state = State::Done;
                        return Ok(None);
                    }
                    t => return Err(self.lx.err(format!("expected a session, found {:?}", t))),
                },
                State::InSession => match self.lx.expect_some()? {
                    JsonToken::RBracket => {
                        self.state = State::BetweenSessions;
                        self.session_idx += 1;
                    }
                    JsonToken::Comma => continue,
                    tok @ JsonToken::LBrace => {
                        let obj = parse_value_from(&mut self.lx, tok)?;
                        if let Some(txn) = self.txn_from_obj(obj)? {
                            return Ok(Some(txn));
                        }
                        // Uncommitted: skip and keep scanning.
                    }
                    t => return Err(self.lx.err(format!("expected a transaction, found {:?}", t))),
                },
            }
        }
    }

    fn order_hint(&self) -> Option<u64> {
        self.last_order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_history_from;
    use aion_types::TxnBuilder;

    fn sample() -> History {
        let mut h = History::new(DataKind::Kv);
        // Interleaved sessions so collection order ≠ session-major order.
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(5)).build());
        h.push(TxnBuilder::new(3).session(1, 0).interval(5, 6).read(Key(1), Value(5)).build());
        h.push(TxnBuilder::new(2).session(0, 1).interval(3, 4).read(Key(1), Value(5)).build());
        h
    }

    /// The lost-update example from dbcop's own CLI reference.
    const FOREIGN: &str = r#"{
      "params": {"id": 0, "n_node": 2, "n_variable": 1, "n_transaction": 1, "n_event": 2},
      "info": "lost-update example",
      "start": "2025-01-01T00:00:00Z",
      "end": "2025-01-01T00:00:01Z",
      "data": [
        [ {"events": [{"Read": {"variable": 0, "version": 0}},
                      {"Write": {"variable": 0, "version": 1}}], "committed": true} ],
        [ {"events": [{"Read": {"variable": 0, "version": 0}},
                      {"Write": {"variable": 0, "version": 2}}], "committed": true} ]
      ]
    }"#;

    #[test]
    fn roundtrip_preserves_collection_order_and_timestamps() {
        let h = sample();
        let mut buf = Vec::new();
        write_dbcop(&h, &mut buf).unwrap();
        let r = DbcopReader::new(&buf[..], ReaderOptions::default()).unwrap();
        assert_eq!(read_history_from(Box::new(r)).unwrap(), h);
    }

    #[test]
    fn foreign_file_synthesizes_serial_timestamps() {
        let r = DbcopReader::new(FOREIGN.as_bytes(), ReaderOptions::default()).unwrap();
        let h = read_history_from(Box::new(r)).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.txns[0].tid, TxnId(1));
        assert_eq!(h.txns[0].sid, SessionId(0));
        assert_eq!((h.txns[0].start_ts, h.txns[0].commit_ts), (Timestamp(1), Timestamp(2)));
        assert_eq!(h.txns[1].sid, SessionId(1));
        assert_eq!((h.txns[1].start_ts, h.txns[1].commit_ts), (Timestamp(3), Timestamp(4)));
        assert!(h.integrity_issues().is_empty());
        // The reads map versions to values; the second read of version 0
        // is the lost-update's stale read.
        assert_eq!(h.txns[1].ops[0], Op::read(Key(0), Value(0)));
    }

    #[test]
    fn uncommitted_transactions_are_skipped() {
        let doc = r#"{"data": [[
            {"events": [{"Write": {"variable": 0, "version": 1}}], "committed": false},
            {"events": [{"Read": {"variable": 0, "version": null}}], "committed": true}
        ]]}"#;
        let r = DbcopReader::new(doc.as_bytes(), ReaderOptions::default()).unwrap();
        let h = read_history_from(Box::new(r)).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.txns[0].ops[0], Op::read(Key(0), Value(0)), "null version is the initial");
    }

    #[test]
    fn list_history_is_unsupported() {
        let mut h = History::new(DataKind::List);
        h.push(TxnBuilder::new(1).append(Key(1), Value(1)).build());
        let mut buf = Vec::new();
        assert!(matches!(
            write_dbcop(&h, &mut buf),
            Err(IoFormatError::Unsupported { format: Format::Dbcop, .. })
        ));
    }

    #[test]
    fn mixed_extension_presence_is_an_error() {
        let doc = r#"{"data": [[
            {"events": [], "committed": true,
             "aion": {"tid": 1, "sid": 0, "sno": 0, "start": 1, "commit": 2, "at": 0}},
            {"events": [], "committed": true}
        ]]}"#;
        let mut r = DbcopReader::new(doc.as_bytes(), ReaderOptions::default()).unwrap();
        assert!(r.next_txn().is_ok());
        assert!(matches!(r.next_txn(), Err(IoFormatError::Syntax { .. })));
    }

    #[test]
    fn missing_data_array_is_bad_header() {
        assert!(matches!(
            DbcopReader::new(br#"{"info": "x"}"#.as_slice(), ReaderOptions::default()),
            Err(IoFormatError::BadHeader { .. })
        ));
        assert!(matches!(
            DbcopReader::new(b"[1,2]".as_slice(), ReaderOptions::default()),
            Err(IoFormatError::BadHeader { .. })
        ));
    }
}
