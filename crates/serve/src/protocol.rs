//! The AIONSRV/1 wire protocol: request parsing and response emission.
//!
//! One TCP connection carries one request. The client sends a single
//! LF-terminated JSON object (the *command line*); for [`Command::Feed`]
//! the command line is followed by raw history bytes — any format
//! `aion-io` can read, sniffed from the stream prefix — terminated by the
//! client half-closing its write side. The server answers with JSON
//! Lines: zero or more *event lines* (`{"event":...}`), then exactly one
//! *terminal line* carrying `"ok": true` or `"ok": false`. Field tables
//! live in `docs/serve.md`; this module is the single source of truth
//! for both directions (the [`client`](crate::client) helpers parse what
//! these emitters produce).
//!
//! JSON is hand-rolled over [`aion_io::json`] — the workspace vendors
//! its dependencies, so there is no serde (see `vendor/README.md`).

use crate::ServeError;
use aion_io::json::{escape_str, JsonValue};
use aion_io::Format;
use aion_types::{CheckEvent, DataKind, IsolationLevel, LevelPolicy};

/// Session configuration carried by an `open` command.
#[derive(Clone, Debug)]
pub struct OpenParams {
    /// Isolation policy: one uniform level, or per-transaction mixed.
    pub levels: LevelPolicy,
    /// Data model of the histories this session will ingest.
    pub kind: DataKind,
    /// `Some(n)` runs a [`ShardedChecker`](aion_online::ShardedChecker)
    /// with `n` workers; `None` a single-threaded checker.
    pub shards: Option<usize>,
    /// `Some(n)` enables checking-preserving GC once more than `n`
    /// transactions are resident.
    pub gc_max_txns: Option<usize>,
    /// EXT finalization timeout override (virtual ms).
    pub ext_timeout_ms: Option<u64>,
    /// Spill finalized transactions to this file instead of memory.
    pub spill_path: Option<String>,
}

impl Default for OpenParams {
    fn default() -> Self {
        OpenParams {
            levels: LevelPolicy::uniform(IsolationLevel::Si),
            kind: DataKind::Kv,
            shards: None,
            gc_max_txns: None,
            ext_timeout_ms: None,
            spill_path: None,
        }
    }
}

/// One parsed request command line.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Command {
    /// Create a session.
    Open {
        /// Session name (unique among live sessions).
        session: String,
        /// Checker configuration.
        params: OpenParams,
    },
    /// Stream a history into a session; raw history bytes follow the
    /// command line.
    Feed {
        /// Target session.
        session: String,
        /// Stream per-arrival event lines back (terminal counters are
        /// always sent either way).
        events: bool,
    },
    /// Finish a session and return its terminal verdict.
    Finish {
        /// Target session.
        session: String,
    },
    /// Checkpoint a session's full checker state to a snapshot file on
    /// the server's filesystem.
    Checkpoint {
        /// Target session.
        session: String,
        /// Server-side path to write.
        path: String,
    },
    /// Re-create a session from a snapshot file.
    Restore {
        /// Name for the restored session.
        session: String,
        /// Server-side snapshot path.
        path: String,
        /// For sharded snapshots: restore with this many workers instead
        /// of the checkpointed count (verdict-preserving re-shard).
        shards: Option<usize>,
    },
    /// Report one session's live counters.
    Stats {
        /// Target session.
        session: String,
    },
    /// Enumerate live sessions.
    List,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

fn need_str(v: &JsonValue, key: &str) -> Result<String, ServeError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ServeError::Protocol(format!("missing string field '{key}'")))
}

fn opt_int(v: &JsonValue, key: &str) -> Result<Option<u64>, ServeError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(f) => f
            .as_int()
            .map(Some)
            .ok_or_else(|| ServeError::Protocol(format!("field '{key}' must be an integer"))),
    }
}

fn opt_bool(v: &JsonValue, key: &str) -> Result<bool, ServeError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(f) => f
            .as_bool()
            .ok_or_else(|| ServeError::Protocol(format!("field '{key}' must be a boolean"))),
    }
}

/// Parse the `level` token of an `open` command: a lattice level name or
/// `mixed` (per-transaction levels, defaulting to SI for unlabeled
/// transactions).
pub(crate) fn parse_levels(s: &str) -> Result<LevelPolicy, ServeError> {
    if s == "mixed" {
        return Ok(LevelPolicy::per_txn(IsolationLevel::Si));
    }
    IsolationLevel::parse(s)
        .map(LevelPolicy::uniform)
        .ok_or_else(|| ServeError::Protocol(format!("unknown level '{s}' (rc|ra|si|ser|mixed)")))
}

impl Command {
    /// Parse one request command line.
    pub fn parse(line: &str) -> Result<Command, ServeError> {
        let v = JsonValue::parse_str(line.trim(), Format::Jsonl)
            .map_err(|e| ServeError::Protocol(format!("bad command line: {e}")))?;
        let cmd = need_str(&v, "cmd")?;
        Ok(match cmd.as_str() {
            "open" => {
                let mut params = OpenParams::default();
                if let Some(level) = v.get("level").and_then(JsonValue::as_str) {
                    params.levels = parse_levels(level)?;
                }
                if let Some(kind) = v.get("kind").and_then(JsonValue::as_str) {
                    params.kind = match kind {
                        "kv" => DataKind::Kv,
                        "list" => DataKind::List,
                        other => {
                            return Err(ServeError::Protocol(format!(
                                "unknown kind '{other}' (kv|list)"
                            )))
                        }
                    };
                }
                params.shards = opt_int(&v, "shards")?.map(|n| n as usize);
                params.gc_max_txns = opt_int(&v, "gc")?.map(|n| n as usize);
                params.ext_timeout_ms = opt_int(&v, "ext_timeout_ms")?;
                params.spill_path = v.get("spill").and_then(JsonValue::as_str).map(str::to_owned);
                Command::Open { session: need_str(&v, "session")?, params }
            }
            "feed" => {
                Command::Feed { session: need_str(&v, "session")?, events: opt_bool(&v, "events")? }
            }
            "finish" => Command::Finish { session: need_str(&v, "session")? },
            "checkpoint" => Command::Checkpoint {
                session: need_str(&v, "session")?,
                path: need_str(&v, "path")?,
            },
            "restore" => Command::Restore {
                session: need_str(&v, "session")?,
                path: need_str(&v, "path")?,
                shards: opt_int(&v, "shards")?.map(|n| n as usize),
            },
            "stats" => Command::Stats { session: need_str(&v, "session")? },
            "list" => Command::List,
            "ping" => Command::Ping,
            "shutdown" => Command::Shutdown,
            other => return Err(ServeError::Protocol(format!("unknown command '{other}'"))),
        })
    }
}

/// Incremental builder for one response line (object with primitive and
/// pre-rendered fields, emitted in insertion order).
#[derive(Default)]
pub(crate) struct JsonLine {
    fields: Vec<(String, String)>,
}

impl JsonLine {
    /// An empty object.
    pub(crate) fn new() -> JsonLine {
        JsonLine::default()
    }

    /// Append a string field.
    pub(crate) fn str(mut self, key: &str, val: &str) -> JsonLine {
        self.fields.push((key.into(), format!("\"{}\"", escape_str(val))));
        self
    }

    /// Append an unsigned integer field.
    pub(crate) fn int(mut self, key: &str, val: u64) -> JsonLine {
        self.fields.push((key.into(), val.to_string()));
        self
    }

    /// Append a boolean field.
    pub(crate) fn bool(mut self, key: &str, val: bool) -> JsonLine {
        self.fields.push((key.into(), val.to_string()));
        self
    }

    /// Append an already-rendered JSON value (array, object, null).
    pub(crate) fn raw(mut self, key: &str, val: String) -> JsonLine {
        self.fields.push((key.into(), val));
        self
    }

    /// Render as one `{...}` line (no trailing newline).
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape_str(k)));
        }
        out.push('}');
        out
    }
}

/// The terminal success line for operation `op`.
pub(crate) fn ok_line(op: &str) -> JsonLine {
    JsonLine::new().bool("ok", true).str("op", op)
}

/// The terminal failure line for `err`.
pub(crate) fn err_line(err: &ServeError) -> String {
    JsonLine::new()
        .bool("ok", false)
        .str("error", err.category())
        .str("detail", &err.to_string())
        .render()
}

/// One mid-stream event line for `e`.
pub(crate) fn event_line(e: &CheckEvent) -> String {
    let line = match e {
        CheckEvent::Violation(v) => JsonLine::new()
            .str("event", "violation")
            .str("kind", &v.kind().to_string())
            .str("detail", &v.to_string()),
        CheckEvent::VerdictFlip { tid, key, rectified_after_ms } => {
            let l = JsonLine::new().str("event", "flip").int("tid", tid.0).int("key", key.0);
            match rectified_after_ms {
                Some(ms) => l.int("rectified_after_ms", *ms),
                None => l.raw("rectified_after_ms", "null".into()),
            }
        }
        CheckEvent::ExtFinalized { tid, violations } => JsonLine::new()
            .str("event", "ext_finalized")
            .int("tid", tid.0)
            .int("violations", u64::from(*violations)),
        CheckEvent::SpillPass { spilled, bytes, resident_after } => JsonLine::new()
            .str("event", "spill")
            .int("spilled", *spilled as u64)
            .int("bytes", *bytes)
            .int("resident_after", *resident_after as u64),
        // `CheckEvent` is non_exhaustive: future kinds degrade to their
        // display form instead of breaking the wire.
        other => JsonLine::new().str("event", "other").str("detail", &other.to_string()),
    };
    line.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Key, TxnId, Violation};

    #[test]
    fn parses_open_with_all_knobs() {
        // `flip_details` is what an older client still sends: flip
        // statistics are always kept now, and the field is ignored like
        // any unknown one.
        let c = Command::parse(
            r#"{"cmd":"open","session":"a","level":"ser","kind":"list","shards":3,
               "gc":500,"ext_timeout_ms":100,"flip_details":true,"spill":"/tmp/s"}"#,
        )
        .unwrap();
        match c {
            Command::Open { session, params } => {
                assert_eq!(session, "a");
                assert_eq!(params.levels.uniform_level(), Some(IsolationLevel::Ser));
                assert_eq!(params.kind, DataKind::List);
                assert_eq!(params.shards, Some(3));
                assert_eq!(params.gc_max_txns, Some(500));
                assert_eq!(params.ext_timeout_ms, Some(100));
                assert_eq!(params.spill_path.as_deref(), Some("/tmp/s"));
            }
            other => panic!("expected open, got {other:?}"),
        }
    }

    #[test]
    fn open_defaults_to_uniform_si_kv_single() {
        match Command::parse(r#"{"cmd":"open","session":"a"}"#).unwrap() {
            Command::Open { params, .. } => {
                assert_eq!(params.levels.uniform_level(), Some(IsolationLevel::Si));
                assert_eq!(params.kind, DataKind::Kv);
                assert_eq!(params.shards, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixed_level_maps_to_per_txn_policy() {
        let p = parse_levels("mixed").unwrap();
        assert_eq!(p.uniform_level(), None);
        assert!(parse_levels("serializable-ish").is_err());
    }

    #[test]
    fn malformed_commands_are_protocol_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"open"}"#,
            r#"{"cmd":"open","session":"a","shards":"three"}"#,
            r#"{"cmd":"open","session":"a","level":"volatile"}"#,
            r#"{"cmd":"checkpoint","session":"a"}"#,
        ] {
            assert!(
                matches!(Command::parse(bad), Err(ServeError::Protocol(_))),
                "expected protocol error for {bad:?}"
            );
        }
    }

    #[test]
    fn response_lines_are_parseable_json() {
        let line = ok_line("feed").int("txns", 7).bool("throttled", false).render();
        let v = JsonValue::parse_str(&line, Format::Jsonl).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("txns").unwrap().as_int(), Some(7));

        let err = err_line(&ServeError::UnknownSession("x\"y".into()));
        let v = JsonValue::parse_str(&err, Format::Jsonl).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("unknown-session"));
        assert!(v.get("detail").unwrap().as_str().unwrap().contains("x\"y"));
    }

    #[test]
    fn event_lines_cover_every_kind() {
        let events = [
            CheckEvent::Violation(Violation::DuplicateTid { tid: TxnId(3) }),
            CheckEvent::VerdictFlip { tid: TxnId(1), key: Key(2), rectified_after_ms: Some(9) },
            CheckEvent::VerdictFlip { tid: TxnId(1), key: Key(2), rectified_after_ms: None },
            CheckEvent::ExtFinalized { tid: TxnId(5), violations: 2 },
            CheckEvent::SpillPass { spilled: 10, bytes: 400, resident_after: 3 },
        ];
        for e in &events {
            let v = JsonValue::parse_str(&event_line(e), Format::Jsonl).unwrap();
            assert!(v.get("event").unwrap().as_str().is_some(), "{e}");
        }
    }
}
