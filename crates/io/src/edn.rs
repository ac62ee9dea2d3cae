//! An Elle-style EDN op-log reader (Jepsen history entries).
//!
//! Elle consumes histories as EDN maps, one per completed operation:
//!
//! ```text
//! {:type :ok, :f :txn, :process 0, :value [[:w :x 1] [:r :y 2]]}
//! {:type :ok, :f :txn, :process 1, :value [[:append :x 3] [:r :x [1 3]]]}
//! ```
//!
//! This module parses that shape into [`Transaction`]s:
//!
//! * only `:type :ok` entries become transactions; `:invoke`, `:fail`
//!   and `:info` entries are skipped (Elle's convention: only committed
//!   operations constrain the history);
//! * `:process` becomes the session id; micro-ops `[:r k v]`,
//!   `[:w k v]` and `[:append k v]` become reads, puts and appends
//!   (`:read`/`:write` spellings are accepted too); a read of `nil` is
//!   the initial value, a read of a vector is a list read;
//! * integer keys map to [`Key`] directly; keyword/string/symbol keys
//!   (Elle's `:x`) map through a deterministic hash — key identity is
//!   all the checkers need;
//! * the EDN format carries no timestamps, so they are synthesized
//!   serially in stream order (`start = 2g+1`, `commit = 2g+2`) exactly
//!   like the dbcop reader — unless the entry carries this crate's
//!   extension keys `:tid`, `:sno`, `:start-ts` and `:commit-ts`, which
//!   the golden-corpus exporter emits so anomaly timestamps survive the
//!   trip. Mixing extended and bare entries is a syntax error. An
//!   entry may additionally carry `:level :rc|:ra|:si|:ser` — the
//!   transaction's declared isolation level for mixed-level checking —
//!   with or without the timestamp extension keys.
//!
//! There is no EDN writer: the format is an *ingestion* bridge (point
//! AION at a Jepsen/Elle op log); conversions out of the workspace go
//! through JSONL, binary or dbcop.
//!
//! The reader streams one entry at a time. Because the data kind must be
//! known before checking starts, the constructor looks one entry ahead:
//! the first `:ok` entry decides `kv` vs `list` (an `:append` or vector
//! read means `list`) unless [`ReaderOptions::kind_hint`] overrides it.

use crate::reader::{HistoryReader, ReaderOptions};
use crate::{Format, IoFormatError};
use aion_types::fxhash::FxHasher;
use aion_types::{
    DataKind, FxHashMap, FxHashSet, IsolationLevel, Key, Op, SessionId, Timestamp, Transaction,
    TxnId, Value,
};
use std::hash::Hasher;
use std::io::BufRead;

// ---------------------------------------------------------------- lexer

#[derive(Clone, PartialEq, Eq, Debug)]
enum EdnToken {
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Int(u64),
    Keyword(String),
    Symbol(String),
    Str(String),
    Nil,
}

struct EdnLexer<R: BufRead> {
    r: R,
    line: usize,
    peeked_byte: Option<u8>,
}

impl<R: BufRead> EdnLexer<R> {
    fn new(r: R) -> EdnLexer<R> {
        EdnLexer { r, line: 1, peeked_byte: None }
    }

    fn err(&self, msg: impl Into<String>) -> IoFormatError {
        IoFormatError::Syntax { format: Format::Edn, line: self.line, msg: msg.into() }
    }

    fn next_byte(&mut self) -> Result<Option<u8>, IoFormatError> {
        if let Some(b) = self.peeked_byte.take() {
            return Ok(Some(b));
        }
        let mut buf = [0u8; 1];
        match self.r.read(&mut buf) {
            Ok(0) => Ok(None),
            Ok(_) => {
                if buf[0] == b'\n' {
                    self.line += 1;
                }
                Ok(Some(buf[0]))
            }
            Err(e) => Err(IoFormatError::Io(e)),
        }
    }

    fn unread(&mut self, b: u8) {
        debug_assert!(self.peeked_byte.is_none());
        self.peeked_byte = Some(b);
    }

    fn next_token(&mut self) -> Result<Option<EdnToken>, IoFormatError> {
        let b = loop {
            match self.next_byte()? {
                None => return Ok(None),
                // Commas are whitespace in EDN.
                Some(b) if b.is_ascii_whitespace() || b == b',' => continue,
                Some(b';') => {
                    // Comment to end of line.
                    while let Some(b) = self.next_byte()? {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b) => break b,
            }
        };
        let tok = match b {
            b'{' => EdnToken::LBrace,
            b'}' => EdnToken::RBrace,
            b'[' => EdnToken::LBracket,
            b']' => EdnToken::RBracket,
            b'(' => EdnToken::LParen,
            b')' => EdnToken::RParen,
            b'"' => EdnToken::Str(self.lex_string()?),
            b':' => EdnToken::Keyword(self.lex_name()?),
            b'0'..=b'9' => EdnToken::Int(self.lex_int(b)?),
            b'-' => return Err(self.err("negative numbers are outside the interchange subset")),
            b if is_name_byte(b) => {
                self.unread(b);
                let name = self.lex_name()?;
                if name == "nil" {
                    EdnToken::Nil
                } else {
                    EdnToken::Symbol(name)
                }
            }
            other => return Err(self.err(format!("unexpected byte 0x{other:02x}"))),
        };
        Ok(Some(tok))
    }

    fn lex_string(&mut self) -> Result<String, IoFormatError> {
        let mut out = String::new();
        loop {
            match self.next_byte()?.ok_or_else(|| self.err("unterminated string"))? {
                b'"' => return Ok(out),
                b'\\' => match self.next_byte()?.ok_or_else(|| self.err("unterminated escape"))? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    other => return Err(self.err(format!("unknown escape '\\{}'", other as char))),
                },
                other => out.push(other as char),
            }
        }
    }

    fn lex_int(&mut self, first: u8) -> Result<u64, IoFormatError> {
        let mut v: u64 = u64::from(first - b'0');
        loop {
            match self.next_byte()? {
                Some(b @ b'0'..=b'9') => {
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(u64::from(b - b'0')))
                        .ok_or_else(|| self.err("integer overflows u64"))?;
                }
                Some(b'.') => return Err(self.err("non-integer numbers are unsupported")),
                Some(b) if is_name_byte(b) => {
                    return Err(self.err(format!("unexpected '{}' in number", b as char)))
                }
                Some(b) => {
                    self.unread(b);
                    return Ok(v);
                }
                None => return Ok(v),
            }
        }
    }

    fn lex_name(&mut self) -> Result<String, IoFormatError> {
        let mut out = String::new();
        loop {
            match self.next_byte()? {
                Some(b) if is_name_byte(b) => out.push(b as char),
                Some(b) => {
                    self.unread(b);
                    break;
                }
                None => break,
            }
        }
        if out.is_empty() {
            return Err(self.err("empty name"));
        }
        Ok(out)
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'*' | b'+' | b'!' | b'?' | b'/')
}

// ---------------------------------------------------------------- values

/// A parsed EDN value (the subset op logs use).
#[derive(Clone, PartialEq, Eq, Debug)]
enum Edn {
    Nil,
    Int(u64),
    Keyword(String),
    Symbol(String),
    Str(String),
    Vec(Vec<Edn>),
    Map(Vec<(Edn, Edn)>),
}

impl Edn {
    fn get(&self, key: &str) -> Option<&Edn> {
        match self {
            Edn::Map(pairs) => {
                pairs.iter().find(|(k, _)| matches!(k, Edn::Keyword(n) if n == key)).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    fn as_int(&self) -> Option<u64> {
        match self {
            Edn::Int(n) => Some(*n),
            _ => None,
        }
    }
}

fn parse_edn<R: BufRead>(lx: &mut EdnLexer<R>, first: EdnToken) -> Result<Edn, IoFormatError> {
    match first {
        EdnToken::Nil => Ok(Edn::Nil),
        EdnToken::Int(n) => Ok(Edn::Int(n)),
        EdnToken::Keyword(k) => Ok(Edn::Keyword(k)),
        EdnToken::Symbol(s) => Ok(Edn::Symbol(s)),
        EdnToken::Str(s) => Ok(Edn::Str(s)),
        EdnToken::LBracket | EdnToken::LParen => {
            let close =
                if first == EdnToken::LBracket { EdnToken::RBracket } else { EdnToken::RParen };
            let mut items = Vec::new();
            loop {
                let tok = lx.next_token()?.ok_or_else(|| lx.err("unterminated sequence"))?;
                if tok == close {
                    return Ok(Edn::Vec(items));
                }
                items.push(parse_edn(lx, tok)?);
            }
        }
        EdnToken::LBrace => {
            let mut pairs = Vec::new();
            loop {
                let tok = lx.next_token()?.ok_or_else(|| lx.err("unterminated map"))?;
                if tok == EdnToken::RBrace {
                    return Ok(Edn::Map(pairs));
                }
                let key = parse_edn(lx, tok)?;
                let tok = lx.next_token()?.ok_or_else(|| lx.err("map key without value"))?;
                if tok == EdnToken::RBrace {
                    return Err(lx.err("map key without value"));
                }
                let value = parse_edn(lx, tok)?;
                pairs.push((key, value));
            }
        }
        t => Err(lx.err(format!("unexpected {t:?}"))),
    }
}

// ---------------------------------------------------------------- reader

/// Streaming Elle-EDN reader: one `:ok` entry per
/// [`HistoryReader::next_txn`].
pub(crate) struct EdnReader<R: BufRead> {
    lx: EdnLexer<R>,
    kind: DataKind,
    opts: ReaderOptions,
    /// One-entry lookahead from the constructor's kind sniff.
    pending: Option<Transaction>,
    /// Extension presence of the first entry; mixing is an error.
    ext_mode: Option<bool>,
    /// Next `sno` per session, when entries carry no `:sno` key.
    next_sno: FxHashMap<u32, u32>,
    /// Transactions yielded (synthesized ids/timestamps).
    yielded: u64,
    seen_tids: FxHashSet<u64>,
}

impl<R: BufRead> EdnReader<R> {
    /// Open an EDN op log; sniffs the data kind from the first `:ok`
    /// entry unless `opts.kind_hint` decides it.
    pub(crate) fn new(r: R, opts: ReaderOptions) -> Result<EdnReader<R>, IoFormatError> {
        let mut me = EdnReader {
            lx: EdnLexer::new(r),
            kind: opts.kind_hint.unwrap_or(DataKind::Kv),
            opts,
            pending: None,
            ext_mode: None,
            next_sno: FxHashMap::default(),
            yielded: 0,
            seen_tids: FxHashSet::default(),
        };
        let first = me.parse_next()?;
        if me.opts.kind_hint.is_none() {
            if let Some(t) = &first {
                let listish = t.ops.iter().any(|op| {
                    matches!(
                        op,
                        Op::Write { mutation: aion_types::Mutation::Append(_), .. }
                            | Op::Read { value: aion_types::Snapshot::List(_), .. }
                    )
                });
                me.kind = if listish { DataKind::List } else { DataKind::Kv };
            }
        }
        me.pending = first;
        Ok(me)
    }

    /// Parse entries until the next `:ok` transaction (or end of input).
    fn parse_next(&mut self) -> Result<Option<Transaction>, IoFormatError> {
        loop {
            let Some(tok) = self.lx.next_token()? else { return Ok(None) };
            let entry = parse_edn(&mut self.lx, tok)?;
            if !matches!(entry, Edn::Map(_)) {
                return Err(self.lx.err("top-level form is not a map entry"));
            }
            let ty =
                entry.get("type").ok_or_else(|| self.lx.err("entry has no :type key"))?.clone();
            match ty {
                Edn::Keyword(k) if k == "ok" => return Ok(Some(self.txn_from_entry(&entry)?)),
                Edn::Keyword(_) => continue, // :invoke / :fail / :info
                _ => return Err(self.lx.err(":type is not a keyword")),
            }
        }
    }

    fn txn_from_entry(&mut self, entry: &Edn) -> Result<Transaction, IoFormatError> {
        let process = entry
            .get("process")
            .and_then(Edn::as_int)
            .ok_or_else(|| self.lx.err("entry has no integer :process"))?;
        if process > u64::from(u32::MAX) {
            return Err(self.lx.err(":process exceeds u32"));
        }
        let sid = process as u32;
        let value = match entry.get("value") {
            Some(Edn::Vec(ops)) => ops,
            _ => return Err(self.lx.err("entry has no :value vector")),
        };
        let mut ops = Vec::with_capacity(value.len());
        for mop in value {
            ops.push(self.op_from_micro(mop)?);
        }

        // Extension keys are all-or-nothing per entry: honoring half of
        // them would fabricate id or timestamp collisions out of thin
        // air (e.g. an explicit :tid next to a synthesized one).
        const EXT_KEYS: [&str; 4] = ["start-ts", "commit-ts", "tid", "sno"];
        let present = EXT_KEYS.iter().filter(|k| entry.get(k).is_some()).count();
        let has_ext = match present {
            0 => false,
            4 => true,
            _ => {
                return Err(self.lx.err(
                    "entry carries some but not all of :start-ts/:commit-ts/:tid/:sno — \
                     extension keys are all-or-nothing",
                ))
            }
        };
        match self.ext_mode {
            None => self.ext_mode = Some(has_ext),
            Some(mode) if mode != has_ext => {
                return Err(self.lx.err("op log mixes entries with and without the extension keys"))
            }
            Some(_) => {}
        }
        let ext_int = |name: &str| {
            entry
                .get(name)
                .and_then(Edn::as_int)
                .ok_or_else(|| self.lx.err(format!(":{name} is not an integer")))
        };
        let g = self.yielded;
        let (start_ts, commit_ts, tid, sno) = if has_ext {
            let sno = ext_int("sno")?;
            if sno > u64::from(u32::MAX) {
                return Err(self.lx.err(":sno exceeds u32"));
            }
            let sno = sno as u32;
            self.next_sno.insert(sid, sno.saturating_add(1));
            (
                Timestamp(ext_int("start-ts")?),
                Timestamp(ext_int("commit-ts")?),
                ext_int("tid")?,
                sno,
            )
        } else {
            let e = self.next_sno.entry(sid).or_insert(0);
            let sno = *e;
            *e = e.saturating_add(1);
            (Timestamp(2 * g + 1), Timestamp(2 * g + 2), g + 1, sno)
        };
        // `:level` is orthogonal to the timestamp extension: a bare
        // Jepsen log annotated with per-op levels is still streamable.
        let level = match entry.get("level") {
            None => None,
            Some(Edn::Keyword(label)) | Some(Edn::Symbol(label)) | Some(Edn::Str(label)) => {
                Some(IsolationLevel::parse(label).ok_or_else(|| {
                    self.lx.err(format!("unknown :level :{label} (rc|ra|si|ser)"))
                })?)
            }
            Some(_) => return Err(self.lx.err(":level is not a keyword")),
        };
        if self.opts.strict && !self.seen_tids.insert(tid) {
            return Err(IoFormatError::DuplicateTid { tid: TxnId(tid) });
        }
        self.yielded += 1;
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

    fn op_from_micro(&mut self, mop: &Edn) -> Result<Op, IoFormatError> {
        let Edn::Vec(parts) = mop else {
            return Err(self.lx.err("micro-op is not a vector"));
        };
        let [f, k, v] = parts.as_slice() else {
            return Err(self.lx.err(format!("micro-op has {} elements, expected 3", parts.len())));
        };
        let fname = match f {
            Edn::Keyword(n) | Edn::Symbol(n) => n.as_str(),
            _ => return Err(self.lx.err("micro-op function is not a keyword")),
        };
        let key = self.key_of(k)?;
        let scalar = |v: &Edn, lx: &EdnLexer<R>| match v {
            Edn::Int(n) => Ok(Value(*n)),
            Edn::Nil => Ok(Value(0)),
            _ => Err(lx.err("micro-op value is not an integer or nil")),
        };
        match fname {
            "r" | "read" => match v {
                Edn::Vec(elems) => {
                    let elems: Result<Vec<Value>, _> =
                        elems.iter().map(|e| scalar(e, &self.lx)).collect();
                    Ok(Op::read_list(key, elems?))
                }
                other => Ok(Op::read(key, scalar(other, &self.lx)?)),
            },
            "w" | "write" => Ok(Op::put(key, scalar(v, &self.lx)?)),
            "append" | "a" => Ok(Op::append(key, scalar(v, &self.lx)?)),
            other => Err(self.lx.err(format!("unknown micro-op :{other}"))),
        }
    }

    fn key_of(&self, k: &Edn) -> Result<Key, IoFormatError> {
        match k {
            Edn::Int(n) => Ok(Key(*n)),
            // Named keys (Elle's :x) hash deterministically; identity is
            // all the per-key axioms depend on.
            Edn::Keyword(name) | Edn::Symbol(name) | Edn::Str(name) => {
                let mut h = FxHasher::default();
                h.write(name.as_bytes());
                Ok(Key(h.finish()))
            }
            _ => Err(self.lx.err("micro-op key is not an integer, keyword or string")),
        }
    }
}

impl<R: BufRead> HistoryReader for EdnReader<R> {
    fn kind(&self) -> DataKind {
        self.kind
    }

    fn next_txn(&mut self) -> Result<Option<Transaction>, IoFormatError> {
        if let Some(t) = self.pending.take() {
            return Ok(Some(t));
        }
        self.parse_next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_history_from;

    fn read(s: &str) -> aion_types::History {
        let r = EdnReader::new(s.as_bytes(), ReaderOptions::default()).unwrap();
        read_history_from(Box::new(r)).unwrap()
    }

    #[test]
    fn parses_elle_style_entries() {
        let log = r#"
            {:type :invoke, :f :txn, :process 0, :value [[:w :x 1]]}
            {:type :ok, :f :txn, :process 0, :value [[:w :x 1] [:r :y nil]]}
            {:type :ok, :f :txn, :process 1, :value [[:r :x 1]]}
            {:type :fail, :f :txn, :process 2, :value [[:w :x 9]]}
        "#;
        let h = read(log);
        assert_eq!(h.len(), 2, ":invoke and :fail entries are skipped");
        assert_eq!(h.kind, DataKind::Kv);
        assert_eq!(h.txns[0].sid, SessionId(0));
        assert_eq!(h.txns[0].sno, 0);
        assert_eq!((h.txns[0].start_ts, h.txns[0].commit_ts), (Timestamp(1), Timestamp(2)));
        assert_eq!(h.txns[1].sid, SessionId(1));
        // :x maps to the same key in both entries; :y differs.
        assert_eq!(h.txns[0].ops[0].key(), h.txns[1].ops[0].key());
        assert_ne!(h.txns[0].ops[1].key(), h.txns[1].ops[0].key());
        // nil read is the initial value.
        assert_eq!(h.txns[0].ops[1], Op::read(h.txns[0].ops[1].key(), Value(0)));
        assert!(h.integrity_issues().is_empty());
    }

    #[test]
    fn append_logs_sniff_as_list_histories() {
        let log = r#"
            {:type :ok, :process 0, :value [[:append :x 1] [:r :x [1]]]}
            {:type :ok, :process 1, :value [[:r :x [1]]]}
        "#;
        let h = read(log);
        assert_eq!(h.kind, DataKind::List);
        assert_eq!(h.txns[0].ops[1], Op::read_list(h.txns[0].ops[0].key(), vec![Value(1)]));
    }

    #[test]
    fn extension_keys_override_synthesis() {
        let log = r#"
            {:type :ok, :process 3, :sno 1, :tid 42, :start-ts 100, :commit-ts 200,
             :value [[:w 7 5]]}
        "#;
        let h = read(log);
        assert_eq!(h.txns[0].tid, TxnId(42));
        assert_eq!(h.txns[0].sid, SessionId(3));
        assert_eq!(h.txns[0].sno, 1);
        assert_eq!((h.txns[0].start_ts, h.txns[0].commit_ts), (Timestamp(100), Timestamp(200)));
        assert_eq!(h.txns[0].ops[0], Op::put(Key(7), Value(5)));
    }

    #[test]
    fn partial_extension_keys_are_an_error() {
        // Half-applied extensions would fabricate id/timestamp
        // collisions; only none-or-all is accepted.
        for bad in [
            "{:type :ok, :process 0, :tid 2, :value [[:w 1 1]]}",
            "{:type :ok, :process 0, :start-ts 1, :value [[:w 1 1]]}",
            "{:type :ok, :process 0, :start-ts 1, :commit-ts 2, :value [[:w 1 1]]}",
        ] {
            let r = EdnReader::new(bad.as_bytes(), ReaderOptions::default());
            let failed = match r {
                Err(_) => true,
                Ok(mut r) => r.next_txn().is_err(),
            };
            assert!(failed, "{bad} must be rejected");
        }
    }

    #[test]
    fn sno_at_u32_max_does_not_overflow() {
        let log = format!(
            "{{:type :ok, :process 0, :sno {}, :tid 1, :start-ts 1, :commit-ts 2, \
             :value [[:w 1 1]]}}",
            u32::MAX
        );
        let h = read(&log);
        assert_eq!(h.txns[0].sno, u32::MAX);
    }

    #[test]
    fn kind_hint_overrides_sniff() {
        let log = "{:type :ok, :process 0, :value [[:w :x 1]]}";
        let opts = ReaderOptions { kind_hint: Some(DataKind::List), ..ReaderOptions::default() };
        let r = EdnReader::new(log.as_bytes(), opts).unwrap();
        assert_eq!(r.kind(), DataKind::List);
    }

    #[test]
    fn malformed_entries_are_typed_errors() {
        for bad in [
            "{:type :ok, :process 0}",                     // no :value
            "{:process 0, :value []}",                     // no :type
            "{:type :ok, :process 0, :value [[:q :x 1]]}", // unknown micro-op
            "{:type :ok, :process 0, :value [[:w :x]]}",   // arity
            "[:not :a :map]",
            "{:type :ok, :process 0, :value [[:w :x 1.5]]}", // float
        ] {
            let r = EdnReader::new(bad.as_bytes(), ReaderOptions::default());
            let failed = match r {
                Err(_) => true,
                Ok(mut r) => r.next_txn().is_err(),
            };
            assert!(failed, "{bad} should fail with a typed error");
        }
    }

    #[test]
    fn comments_and_commas_are_whitespace() {
        let log = "; an elle log\n{:type :ok, :process 0, :value [[:w 1 2],[:r 1 2]]}";
        assert_eq!(read(log).txns[0].ops.len(), 2);
    }
}
