//! # aion-io — history interchange & streaming ingestion
//!
//! Every history the rest of the workspace checks is born in
//! `aion-workload`; this crate is the door to the outside world. It
//! speaks four interchange formats:
//!
//! | format | module | read | write | layout |
//! |--------|--------|------|-------|--------|
//! | native JSONL | `jsonl` | ✓ | ✓ | one self-describing JSON object per transaction, versioned header line |
//! | AIONH1 binary | `binary` | ✓ | ✓ | the length-prefixed varint codec of [`aion_types::codec`] |
//! | dbcop | `dbcop` | ✓ | ✓ (kv) | dbcop's session-list JSON document (Biswas & Enea) |
//! | Elle EDN | `edn` | ✓ | — | Elle/Jepsen-style EDN op-log entries |
//!
//! All readers implement the streaming [`HistoryReader`] trait: they
//! yield one [`Transaction`](aion_types::Transaction) at a time with
//! bounded memory — the full history is never materialized — so a
//! [`Checker`](aion_types::Checker) session can ingest files larger
//! than RAM via [`stream_check`]. See `docs/formats.md` for the byte-
//! and field-level specifications.
//!
//! ```
//! use aion_io::{open_stream, read_history_from, write_history, Format, ReaderOptions};
//! use aion_types::{DataKind, History, Key, TxnBuilder, Value};
//!
//! let mut h = History::new(DataKind::Kv);
//! h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(5)).build());
//! h.push(TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(5)).build());
//!
//! let mut bytes = Vec::new();
//! write_history(&h, Format::Jsonl, &mut bytes).unwrap();
//! let reader = open_stream(&bytes[..], Format::Jsonl, ReaderOptions::default()).unwrap();
//! assert_eq!(read_history_from(reader).unwrap(), h);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

mod binary;
mod check;
mod dbcop;
mod edn;
pub mod json;
mod jsonl;
mod reader;

pub use check::{stream_check, verdict_of, StreamReport};
pub use reader::{
    detect_format, open_path, open_sniffed_stream, open_stream, read_history, read_history_from,
    write_history, write_history_to_path, Format, HistoryReader, ReaderOptions,
};

use aion_types::TxnId;
use std::fmt;

/// A typed interchange failure. Every reader in this crate returns these
/// instead of panicking, however mangled the input — truncations, garbage
/// bytes, version skew and id collisions all land here (the parser
/// robustness property tests mutate valid files byte-by-byte to enforce
/// it).
#[derive(Debug)]
#[non_exhaustive]
pub enum IoFormatError {
    /// The underlying I/O stream failed.
    Io(std::io::Error),
    /// The input violates the format's grammar.
    Syntax {
        /// Format being parsed.
        format: Format,
        /// 1-based line (JSONL/dbcop/EDN) or byte offset (binary) of the
        /// failure.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The file's header (magic bytes, format tag, kind field) is not
    /// this format's.
    BadHeader {
        /// Format being parsed.
        format: Format,
        /// What was wrong with the header.
        msg: String,
    },
    /// A native JSONL header declares a version this build cannot read.
    UnsupportedVersion {
        /// The `version` field found in the header.
        found: u64,
    },
    /// Two transactions share an id (strict readers only; lenient readers
    /// pass duplicates through so checkers can report them).
    DuplicateTid {
        /// The colliding id.
        tid: TxnId,
    },
    /// The history cannot be represented in the target format (e.g. list
    /// histories in dbcop's register model).
    Unsupported {
        /// Format that cannot express the data.
        format: Format,
        /// Why.
        msg: String,
    },
    /// Automatic format detection found no matching format.
    UnknownFormat,
}

impl fmt::Display for IoFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoFormatError::Io(e) => write!(f, "i/o error: {e}"),
            IoFormatError::Syntax { format, line, msg } => {
                write!(f, "{} parse error at line {line}: {msg}", format.label())
            }
            IoFormatError::BadHeader { format, msg } => {
                write!(f, "bad {} header: {msg}", format.label())
            }
            IoFormatError::UnsupportedVersion { found } => {
                write!(f, "unsupported aion-history version {found} (this build reads version 1)")
            }
            IoFormatError::DuplicateTid { tid } => {
                write!(f, "duplicate transaction id {tid}")
            }
            IoFormatError::Unsupported { format, msg } => {
                write!(f, "{} cannot represent this history: {msg}", format.label())
            }
            IoFormatError::UnknownFormat => {
                write!(f, "unrecognized history format (tried magic, syntax and extension)")
            }
        }
    }
}

impl std::error::Error for IoFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoFormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoFormatError {
    fn from(e: std::io::Error) -> Self {
        IoFormatError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = IoFormatError::Syntax { format: Format::Jsonl, line: 3, msg: "bad tid".into() };
        assert!(e.to_string().contains("line 3"));
        let e = IoFormatError::UnsupportedVersion { found: 9 };
        assert!(e.to_string().contains('9'));
        let e = IoFormatError::DuplicateTid { tid: TxnId(4) };
        assert!(e.to_string().contains("t4"));
        let io = IoFormatError::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
