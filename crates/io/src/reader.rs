//! The streaming [`HistoryReader`] abstraction, format detection, and
//! whole-history convenience I/O.

use crate::{binary, dbcop, edn, jsonl, IoFormatError};
use aion_types::{DataKind, History, Transaction};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// One of the interchange formats this crate speaks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Format {
    /// Native self-describing JSONL (`crate::jsonl`).
    Jsonl,
    /// Compact AIONH1 binary (`crate::binary`).
    Binary,
    /// dbcop session-list JSON (`crate::dbcop`).
    Dbcop,
    /// Elle-style EDN op log (`crate::edn`, read-only).
    Edn,
}

impl Format {
    /// Every format, in detection order.
    pub const ALL: &'static [Format] = &[Format::Jsonl, Format::Binary, Format::Dbcop, Format::Edn];

    /// Short lower-case label (also the CLI flag spelling).
    pub fn label(self) -> &'static str {
        match self {
            Format::Jsonl => "jsonl",
            Format::Binary => "bin",
            Format::Dbcop => "dbcop",
            Format::Edn => "edn",
        }
    }

    /// Parse a CLI flag value (`jsonl`, `bin`/`binary`, `dbcop`, `edn`).
    pub fn parse_flag(s: &str) -> Option<Format> {
        match s {
            "jsonl" => Some(Format::Jsonl),
            "bin" | "binary" => Some(Format::Binary),
            "dbcop" => Some(Format::Dbcop),
            "edn" => Some(Format::Edn),
            _ => None,
        }
    }

    /// Guess from a file extension (`.jsonl`, `.bin`, `.json`, `.edn`).
    pub fn from_extension(path: &Path) -> Option<Format> {
        match path.extension()?.to_str()? {
            "jsonl" => Some(Format::Jsonl),
            "bin" | "aionh" => Some(Format::Binary),
            "json" => Some(Format::Dbcop),
            "edn" => Some(Format::Edn),
            _ => None,
        }
    }

    /// Sniff from the first bytes of a file.
    ///
    /// The binary magic and EDN's leading `{:keyword` are unambiguous; a
    /// JSON document is JSONL when its first line is the
    /// `"aion-history"` header and dbcop otherwise.
    pub fn sniff(prefix: &[u8]) -> Option<Format> {
        if prefix.starts_with(binary::MAGIC) || prefix.starts_with(binary::MAGIC_V2) {
            return Some(Format::Binary);
        }
        let mut it = prefix.iter().copied().filter(|b| !b.is_ascii_whitespace());
        match it.next()? {
            b'{' => match it.next()? {
                b':' => Some(Format::Edn),
                b'"' => {
                    let window = &prefix[..prefix.len().min(256)];
                    let header = format!("\"{}\"", jsonl::FORMAT_TAG);
                    if window.windows(header.len()).any(|w| w == header.as_bytes()) {
                        Some(Format::Jsonl)
                    } else {
                        Some(Format::Dbcop)
                    }
                }
                _ => None,
            },
            b';' => Some(Format::Edn), // EDN comment line
            _ => None,
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Options shared by every reader.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReaderOptions {
    /// Error on id collisions (duplicate tids) instead of passing them
    /// through for the checkers to report. Default: lenient, so anomaly
    /// fixtures stream into checkers unharmed.
    pub strict: bool,
    /// Force the data kind for formats that would otherwise sniff it
    /// (EDN looks at its first entry).
    pub kind_hint: Option<DataKind>,
}

impl ReaderOptions {
    /// Lenient defaults with strict id validation enabled.
    pub fn strict() -> ReaderOptions {
        ReaderOptions { strict: true, kind_hint: None }
    }
}

/// A streaming history source: yields one transaction at a time with
/// bounded memory — implementations never materialize the full history.
pub trait HistoryReader {
    /// The data kind of the history (known after the header/first entry).
    fn kind(&self) -> DataKind;

    /// The next transaction, or `None` at a clean end of input.
    fn next_txn(&mut self) -> Result<Option<Transaction>, IoFormatError>;

    /// Collection-order index of the last yielded transaction, for
    /// formats whose stream order differs from collection order (dbcop
    /// groups by session; its `"aion"` extension records the original
    /// position). `None` means stream order *is* collection order.
    fn order_hint(&self) -> Option<u64> {
        None
    }
}

/// Open a reader over any buffered stream in an explicit format.
pub fn open_stream<'r, R: BufRead + 'r>(
    r: R,
    format: Format,
    opts: ReaderOptions,
) -> Result<Box<dyn HistoryReader + 'r>, IoFormatError> {
    Ok(match format {
        Format::Jsonl => Box::new(jsonl::JsonlReader::new(r, opts)?),
        Format::Binary => Box::new(binary::BinaryReader::new(r, opts)?),
        Format::Dbcop => Box::new(dbcop::DbcopReader::new(r, opts)?),
        Format::Edn => Box::new(edn::EdnReader::new(r, opts)?),
    })
}

/// Open a reader over a *non-seekable* stream (a socket, a pipe,
/// stdin), detecting the format from the stream's first bytes.
///
/// Unlike [`detect_format`] there is no path to rewind or take an
/// extension hint from: up to 256 bytes are read into a prefix buffer,
/// [`Format::sniff`]ed, and re-joined in front of the remaining stream,
/// so the returned reader sees the input from byte zero. An
/// unrecognizable prefix is the typed [`IoFormatError::UnknownFormat`]
/// (empty input included — there is nothing to sniff).
///
/// Returns the detected format alongside the reader so servers can log
/// or echo it per connection.
pub fn open_sniffed_stream<'r, R: Read + 'r>(
    mut r: R,
    opts: ReaderOptions,
) -> Result<(Format, Box<dyn HistoryReader + 'r>), IoFormatError> {
    let mut prefix = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while prefix.len() < 256 {
        let n = r.read(&mut chunk[..256 - prefix.len()])?;
        if n == 0 {
            break;
        }
        prefix.extend_from_slice(&chunk[..n]);
    }
    let format = Format::sniff(&prefix).ok_or(IoFormatError::UnknownFormat)?;
    let rejoined = BufReader::new(std::io::Cursor::new(prefix).chain(r));
    Ok((format, open_stream(rejoined, format, opts)?))
}

/// Detect the format of a file: content sniff first (unambiguous), file
/// extension as the fallback.
pub fn detect_format(path: &Path) -> Result<Format, IoFormatError> {
    let mut prefix = [0u8; 256];
    let mut f = File::open(path)?;
    let mut n = 0;
    while n < prefix.len() {
        let read = f.read(&mut prefix[n..])?;
        if read == 0 {
            break;
        }
        n += read;
    }
    Format::sniff(&prefix[..n])
        .or_else(|| Format::from_extension(path))
        .ok_or(IoFormatError::UnknownFormat)
}

/// Open a streaming reader over a file, detecting the format when
/// `format` is `None`.
pub fn open_path(
    path: &Path,
    format: Option<Format>,
    opts: ReaderOptions,
) -> Result<Box<dyn HistoryReader>, IoFormatError> {
    let format = match format {
        Some(f) => f,
        None => detect_format(path)?,
    };
    let file = BufReader::new(File::open(path)?);
    open_stream(file, format, opts)
}

/// Drain a reader into a materialized [`History`].
///
/// When every transaction carries an order hint (a dbcop file written by
/// this crate), the original collection order is restored; otherwise
/// stream order is kept.
pub fn read_history_from(
    mut reader: Box<dyn HistoryReader + '_>,
) -> Result<History, IoFormatError> {
    let mut h = History::new(reader.kind());
    let mut hints: Vec<u64> = Vec::new();
    let mut all_hinted = true;
    while let Some(txn) = reader.next_txn()? {
        match reader.order_hint() {
            Some(at) if all_hinted => hints.push(at),
            _ => all_hinted = false,
        }
        h.push(txn);
    }
    if all_hinted && !h.txns.is_empty() {
        let mut keyed: Vec<(u64, Transaction)> =
            hints.into_iter().zip(std::mem::take(&mut h.txns)).collect();
        keyed.sort_by_key(|(at, _)| *at);
        h.txns = keyed.into_iter().map(|(_, t)| t).collect();
    }
    Ok(h)
}

/// Read a whole history from a file (format auto-detected when `None`).
pub fn read_history(path: &Path, format: Option<Format>) -> Result<History, IoFormatError> {
    read_history_from(open_path(path, format, ReaderOptions::default())?)
}

/// Write a history to a stream in the given format. EDN is read-only
/// and list histories have no dbcop representation; both are typed
/// [`IoFormatError::Unsupported`] errors.
pub fn write_history(h: &History, format: Format, w: &mut dyn Write) -> Result<(), IoFormatError> {
    match format {
        Format::Jsonl => jsonl::write_jsonl(h, w),
        Format::Binary => binary::write_binary(h, w),
        Format::Dbcop => dbcop::write_dbcop(h, w),
        Format::Edn => Err(IoFormatError::Unsupported {
            format: Format::Edn,
            msg: "EDN is an ingestion-only format; write jsonl, bin or dbcop".into(),
        }),
    }
}

/// Write a history to a file in the given format.
pub fn write_history_to_path(
    h: &History,
    format: Format,
    path: &Path,
) -> Result<(), IoFormatError> {
    let mut f = std::io::BufWriter::new(File::create(path)?);
    write_history(h, format, &mut f)?;
    use std::io::Write as _;
    f.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Key, TxnBuilder, Value};

    fn sample() -> History {
        let mut h = History::new(DataKind::Kv);
        h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).put(Key(1), Value(5)).build());
        h.push(TxnBuilder::new(2).session(1, 0).interval(3, 4).read(Key(1), Value(5)).build());
        h
    }

    #[test]
    fn sniff_distinguishes_all_formats() {
        let h = sample();
        let mut jsonl_bytes = Vec::new();
        write_history(&h, Format::Jsonl, &mut jsonl_bytes).unwrap();
        assert_eq!(Format::sniff(&jsonl_bytes), Some(Format::Jsonl));

        let mut bin_bytes = Vec::new();
        write_history(&h, Format::Binary, &mut bin_bytes).unwrap();
        assert_eq!(Format::sniff(&bin_bytes), Some(Format::Binary));

        let mut dbcop_bytes = Vec::new();
        write_history(&h, Format::Dbcop, &mut dbcop_bytes).unwrap();
        assert_eq!(Format::sniff(&dbcop_bytes), Some(Format::Dbcop));

        let edn = b"{:type :ok, :process 0, :value [[:w :x 1]]}";
        assert_eq!(Format::sniff(edn), Some(Format::Edn));
        assert_eq!(Format::sniff(b"; log\n{:type :ok}"), Some(Format::Edn));
        assert_eq!(Format::sniff(b"garbage"), None);
        assert_eq!(Format::sniff(b""), None);
    }

    #[test]
    fn extension_fallback() {
        assert_eq!(Format::from_extension(Path::new("h.jsonl")), Some(Format::Jsonl));
        assert_eq!(Format::from_extension(Path::new("h.bin")), Some(Format::Binary));
        assert_eq!(Format::from_extension(Path::new("h.dbcop.json")), Some(Format::Dbcop));
        assert_eq!(Format::from_extension(Path::new("h.edn")), Some(Format::Edn));
        assert_eq!(Format::from_extension(Path::new("h.txt")), None);
    }

    #[test]
    fn flag_parsing() {
        for f in Format::ALL {
            assert_eq!(Format::parse_flag(f.label()), Some(*f));
        }
        assert_eq!(Format::parse_flag("binary"), Some(Format::Binary));
        assert_eq!(Format::parse_flag("nope"), None);
    }

    #[test]
    fn path_roundtrip_with_autodetection() {
        let dir = std::env::temp_dir().join(format!("aion-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let h = sample();
        for format in [Format::Jsonl, Format::Binary, Format::Dbcop] {
            let path = dir.join(format!("h.{}", format.label()));
            write_history_to_path(&h, format, &path).unwrap();
            assert_eq!(detect_format(&path).unwrap(), format, "{format}");
            assert_eq!(read_history(&path, None).unwrap(), h, "{format}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `Read`-only wrapper: panics if anything tries to seek (nothing
    /// can — it only implements `Read`), and hands out bytes in tiny
    /// chunks to exercise the prefix loop.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(3);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn sniffed_stream_roundtrips_without_seeking() {
        let h = sample();
        for format in [Format::Jsonl, Format::Binary, Format::Dbcop] {
            let mut bytes = Vec::new();
            write_history(&h, format, &mut bytes).unwrap();
            let (detected, reader) =
                open_sniffed_stream(Trickle(&bytes), ReaderOptions::default()).unwrap();
            assert_eq!(detected, format);
            assert_eq!(read_history_from(reader).unwrap(), h, "{format}");
        }
    }

    #[test]
    fn sniffed_stream_rejects_unknown_and_empty_input() {
        for input in [&b"garbage bytes"[..], &b""[..]] {
            assert!(matches!(
                open_sniffed_stream(Trickle(input), ReaderOptions::default()),
                Err(IoFormatError::UnknownFormat)
            ));
        }
    }

    #[test]
    fn edn_writes_are_unsupported() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_history(&sample(), Format::Edn, &mut buf),
            Err(IoFormatError::Unsupported { format: Format::Edn, .. })
        ));
    }
}
