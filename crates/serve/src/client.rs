//! Blocking client helpers for the AIONSRV/1 protocol.
//!
//! Used by `experiments client`, the CI daemon smoke test and the
//! end-to-end tests. One function per command; each opens a fresh
//! connection (the protocol is one request per connection), sends the
//! command line — plus the raw history bytes for feeds — and parses the
//! JSONL response into a [`Reply`].
//!
//! [`feed_bytes`] writes the history from a helper thread while the
//! calling thread drains response lines, so server-streamed events can
//! never deadlock against a full socket buffer, however large the
//! history or chatty the checker.

use crate::protocol::JsonLine;
use crate::ServeError;
use aion_io::json::JsonValue;
use aion_io::Format;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;

/// A parsed response: the mid-stream event lines and the terminal line.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Event lines (`{"event":...}`), in arrival order.
    pub events: Vec<JsonValue>,
    /// The terminal line (`"ok": true|false`).
    pub terminal: JsonValue,
}

impl Reply {
    /// Did the request succeed?
    pub fn is_ok(&self) -> bool {
        self.terminal.get("ok").and_then(JsonValue::as_bool).unwrap_or(false)
    }

    /// A string field of the terminal line.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.terminal.get(key).and_then(JsonValue::as_str)
    }

    /// An integer field of the terminal line.
    pub fn int_field(&self, key: &str) -> Option<u64> {
        self.terminal.get(key).and_then(JsonValue::as_int)
    }

    /// Convert a failed terminal line into the matching [`ServeError`]
    /// category (losing server-side structure but keeping the category
    /// and human detail).
    pub(crate) fn into_result(self) -> Result<Reply, ServeError> {
        if self.is_ok() {
            return Ok(self);
        }
        let detail = self.str_field("detail").unwrap_or("server reported failure").to_owned();
        Err(match self.str_field("error") {
            Some("unknown-session") => ServeError::UnknownSession(detail),
            Some("duplicate-session") => ServeError::DuplicateSession(detail),
            Some("busy") => ServeError::Busy(detail),
            Some("backpressure") => {
                ServeError::Backpressure { session: detail, estimated_bytes: 0, limit_bytes: 0 }
            }
            Some("config") => ServeError::Config(detail),
            Some("snapshot") => {
                ServeError::Protocol(format!("server-side snapshot error: {detail}"))
            }
            _ => ServeError::Protocol(detail),
        })
    }
}

fn read_reply(r: impl BufRead) -> Result<Reply, ServeError> {
    let mut events = Vec::new();
    let mut terminal = None;
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse_str(&line, Format::Jsonl)
            .map_err(|e| ServeError::Protocol(format!("unparseable response line: {e}")))?;
        if v.get("ok").is_some() {
            terminal = Some(v);
        } else {
            events.push(v);
        }
    }
    let terminal = terminal
        .ok_or_else(|| ServeError::Protocol("connection closed before a terminal line".into()))?;
    Ok(Reply { events, terminal })
}

/// Send one body-less command line and collect the response.
fn request(addr: &str, line: &str) -> Result<Reply, ServeError> {
    let stream = TcpStream::connect(addr)?;
    let mut w = BufWriter::new(stream.try_clone()?);
    writeln!(w, "{line}")?;
    w.flush()?;
    stream.shutdown(Shutdown::Write)?;
    read_reply(BufReader::new(stream))?.into_result()
}

/// Options for [`open`] — mirrors [`crate::OpenParams`] in wire form.
#[derive(Clone, Debug, Default)]
pub struct OpenOptions {
    /// Isolation level token (`rc|ra|si|ser|mixed`); server default `si`.
    pub level: Option<String>,
    /// Data model (`kv|list`); server default `kv`.
    pub kind: Option<String>,
    /// Run a sharded checker with this many workers.
    pub shards: Option<usize>,
    /// Enable checking-preserving GC above this many resident txns.
    pub gc_max_txns: Option<usize>,
    /// EXT finalization timeout (virtual ms).
    pub ext_timeout_ms: Option<u64>,
    /// Server-side spill file.
    pub spill: Option<String>,
}

/// Open a named session.
pub fn open(addr: &str, session: &str, opts: &OpenOptions) -> Result<Reply, ServeError> {
    let mut line = JsonLine::new().str("cmd", "open").str("session", session);
    if let Some(v) = &opts.level {
        line = line.str("level", v);
    }
    if let Some(v) = &opts.kind {
        line = line.str("kind", v);
    }
    if let Some(v) = opts.shards {
        line = line.int("shards", v as u64);
    }
    if let Some(v) = opts.gc_max_txns {
        line = line.int("gc", v as u64);
    }
    if let Some(v) = opts.ext_timeout_ms {
        line = line.int("ext_timeout_ms", v);
    }
    if let Some(v) = &opts.spill {
        line = line.str("spill", v);
    }
    request(addr, &line.render())
}

/// Stream a history (raw interchange bytes, any readable format) into a
/// session. With `events`, the reply carries every mid-stream event
/// line.
pub fn feed_bytes(
    addr: &str,
    session: &str,
    bytes: &[u8],
    events: bool,
) -> Result<Reply, ServeError> {
    let stream = TcpStream::connect(addr)?;
    let cmd =
        JsonLine::new().str("cmd", "feed").str("session", session).bool("events", events).render();
    let write_half = stream.try_clone()?;
    let payload = bytes.to_vec();
    // Write from a helper thread while this thread drains the response:
    // the server streams event lines *during* the feed, and both sides
    // writing into full buffers would otherwise deadlock.
    #[expect(
        clippy::disallowed_methods,
        reason = "client-side socket plumbing, not checker delivery; nothing here is DST-reachable"
    )]
    let writer = std::thread::spawn(move || -> std::io::Result<()> {
        let mut w = BufWriter::new(&write_half);
        writeln!(w, "{cmd}")?;
        w.write_all(&payload)?;
        w.flush()?;
        drop(w);
        write_half.shutdown(Shutdown::Write)
    });
    let reply = read_reply(BufReader::new(stream));
    // A server-side refusal (e.g. backpressure) closes the connection
    // early; the writer then fails with a broken pipe, which is the
    // expected teardown, not a client error.
    let _ = writer.join();
    reply?.into_result()
}

/// [`feed_bytes`] for a history file on the client's filesystem.
pub fn feed_path(
    addr: &str,
    session: &str,
    path: impl AsRef<Path>,
    events: bool,
) -> Result<Reply, ServeError> {
    let bytes = std::fs::read(path)?;
    feed_bytes(addr, session, &bytes, events)
}

/// Finish a session and fetch its terminal verdict.
pub fn finish(addr: &str, session: &str) -> Result<Reply, ServeError> {
    request(addr, &JsonLine::new().str("cmd", "finish").str("session", session).render())
}

/// Checkpoint a session to `path` on the **server's** filesystem.
pub fn checkpoint(addr: &str, session: &str, path: &str) -> Result<Reply, ServeError> {
    request(
        addr,
        &JsonLine::new()
            .str("cmd", "checkpoint")
            .str("session", session)
            .str("path", path)
            .render(),
    )
}

/// Restore a session from a server-side snapshot; `shards` re-partitions
/// a sharded snapshot onto a new worker count.
pub fn restore(
    addr: &str,
    session: &str,
    path: &str,
    shards: Option<usize>,
) -> Result<Reply, ServeError> {
    let mut line = JsonLine::new().str("cmd", "restore").str("session", session).str("path", path);
    if let Some(n) = shards {
        line = line.int("shards", n as u64);
    }
    request(addr, &line.render())
}

/// Fetch one session's live counters.
pub fn stats(addr: &str, session: &str) -> Result<Reply, ServeError> {
    request(addr, &JsonLine::new().str("cmd", "stats").str("session", session).render())
}

/// Enumerate live sessions.
pub fn list(addr: &str) -> Result<Reply, ServeError> {
    request(addr, &JsonLine::new().str("cmd", "list").render())
}

/// Liveness probe.
pub fn ping(addr: &str) -> Result<Reply, ServeError> {
    request(addr, &JsonLine::new().str("cmd", "ping").render())
}

/// Ask the daemon to stop accepting and exit its serve loop.
pub fn shutdown(addr: &str) -> Result<Reply, ServeError> {
    request(addr, &JsonLine::new().str("cmd", "shutdown").render())
}
