//! # aion-serve — a multi-tenant online checking daemon
//!
//! The paper's deployment story is a checker that runs *alongside* the
//! database, ingesting the transaction stream as it happens. This crate
//! is that long-running process: a TCP daemon that multiplexes many
//! concurrent named **sessions** — each an
//! [`OnlineChecker`](aion_online::OnlineChecker) or
//! [`ShardedChecker`](aion_online::ShardedChecker) with its own isolation
//! policy and GC configuration — over a bounded worker pool, streaming
//! typed [`CheckEvent`](aion_types::CheckEvent)s and verdicts back to
//! clients as histories arrive.
//!
//! Ingestion speaks the existing `aion-io` interchange formats over the
//! socket: a `feed` request is a command line followed by raw history
//! bytes in *any* readable format, sniffed from the stream prefix via
//! [`aion_io::open_sniffed_stream`] — no seeking, no file extension.
//!
//! The keystone is **serializable checker state**: a session can be
//! checkpointed mid-stream to a versioned snapshot file
//! (`OnlineChecker::checkpoint` / `ShardedChecker::checkpoint`) and
//! restored after a crash, an operator restart, or a shard-count change,
//! with the restored session producing the same verdicts as an
//! uninterrupted run. See `docs/serve.md` for the wire protocol and the
//! snapshot format's versioning policy.
//!
//! ```no_run
//! use aion_serve::{client, Server, ServeConfig};
//!
//! let server = Server::bind(ServeConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//! let handle = server.spawn().unwrap();
//! client::open(&addr, "tenant-a", &client::OpenOptions::default()).unwrap();
//! // ... stream histories with client::feed_bytes / feed_path ...
//! client::shutdown(&addr).unwrap();
//! handle.join().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub mod client;
mod protocol;
pub mod registry;
mod server;

pub use protocol::{Command, OpenParams};
pub use registry::{Registry, SessionInfo};
pub use server::{ServeConfig, Server, ServerHandle};

use aion_io::IoFormatError;
use aion_types::snapshot::SnapshotError;
use std::fmt;

/// A typed daemon-side failure. Every request handler returns these and
/// the server maps them onto `{"ok":false,"error":...,"detail":...}`
/// terminal lines — a malformed command, a mangled history or a corrupt
/// snapshot must never take the daemon (or an unrelated tenant) down.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying socket or file I/O failed.
    Io(std::io::Error),
    /// The request line violates the wire protocol.
    Protocol(String),
    /// The named session does not exist.
    UnknownSession(String),
    /// `open` (or `restore`) would overwrite a live session.
    DuplicateSession(String),
    /// Another connection holds the session (e.g. a concurrent `feed`).
    Busy(String),
    /// Admission control refused the arrival: resident checker state
    /// crossed the hard memory ceiling. The session stays alive so the
    /// client can checkpoint, finish, or retry after other tenants drain.
    Backpressure {
        /// Session whose feed was refused.
        session: String,
        /// Estimated resident bytes across all sessions at refusal.
        estimated_bytes: usize,
        /// The configured hard ceiling.
        limit_bytes: usize,
    },
    /// The streamed history could not be parsed.
    Format(IoFormatError),
    /// A checkpoint or restore failed.
    Snapshot(SnapshotError),
    /// The requested session configuration is invalid.
    Config(String),
}

impl ServeError {
    /// Stable one-token error category (the `error` field on the wire).
    pub fn category(&self) -> &'static str {
        match self {
            ServeError::Io(_) => "io",
            ServeError::Protocol(_) => "protocol",
            ServeError::UnknownSession(_) => "unknown-session",
            ServeError::DuplicateSession(_) => "duplicate-session",
            ServeError::Busy(_) => "busy",
            ServeError::Backpressure { .. } => "backpressure",
            ServeError::Format(_) => "format",
            ServeError::Snapshot(_) => "snapshot",
            ServeError::Config(_) => "config",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::UnknownSession(s) => write!(f, "unknown session '{s}'"),
            ServeError::DuplicateSession(s) => write!(f, "session '{s}' already exists"),
            ServeError::Busy(s) => write!(f, "session '{s}' is busy"),
            ServeError::Backpressure { session, estimated_bytes, limit_bytes } => write!(
                f,
                "backpressure: feeding '{session}' refused at ~{estimated_bytes} resident bytes \
                 (hard limit {limit_bytes})"
            ),
            ServeError::Format(e) => write!(f, "history error: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::Config(msg) => write!(f, "config error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Format(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<IoFormatError> for ServeError {
    fn from(e: IoFormatError) -> Self {
        ServeError::Format(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_categories_are_stable_tokens() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::Protocol("x".into()), "protocol"),
            (ServeError::UnknownSession("s".into()), "unknown-session"),
            (ServeError::DuplicateSession("s".into()), "duplicate-session"),
            (ServeError::Busy("s".into()), "busy"),
            (
                ServeError::Backpressure {
                    session: "s".into(),
                    estimated_bytes: 10,
                    limit_bytes: 5,
                },
                "backpressure",
            ),
            (ServeError::Config("x".into()), "config"),
        ];
        for (e, want) in cases {
            assert_eq!(e.category(), want);
            assert!(!e.to_string().is_empty());
        }
        let io = ServeError::from(std::io::Error::other("boom"));
        assert_eq!(io.category(), "io");
        assert!(std::error::Error::source(&io).is_some());
    }
}
