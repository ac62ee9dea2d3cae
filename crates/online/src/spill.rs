//! Spill-to-disk garbage collection backing store.
//!
//! AION "transfers frontier_ts, ongoing_ts, and transactions below a
//! specified timestamp from memory to disk ... and reloads these data
//! structures and transactions as needed later on" (paper §III-C3). A
//! spill segment stores encoded transactions together with their computed
//! write sets; on reload the checker reconstructs the frontier versions
//! and conflict intervals from them, so nothing else needs to be persisted.
//!
//! Segments can live in real files or in memory (same encode/decode cost,
//! no filesystem dependency — useful for tests and deterministic benches).
//! Either way a reload consumes its segment, so the store holds exactly
//! the transactions that are spilled out now, each once.

use aion_types::codec::{write_seq, CodecError, Wire};
use aion_types::rng::SplitMix64;
use aion_types::snapshot::SnapshotError;
use aion_types::{wire_struct, Key, Snapshot, Timestamp, Transaction};
use bytes::BytesMut;
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Seeded spill-IO fault injection plan (used by the `aion-dst`
/// simulation harness; `None` everywhere in production).
///
/// Each spill-store operation consults the plan before touching its
/// backend and fails with a synthetic [`std::io::Error`] with the
/// configured probability. The plan is shared (`Arc`) across the shard
/// workers of one checking session so a single seed governs the whole
/// run; draws are serialized through a mutex, which is irrelevant for
/// determinism within one worker and fine for the simulator, whose
/// workers run on one thread anyway.
pub struct SpillFaultPlan {
    rng: Mutex<SplitMix64>,
    write_fail_p: f64,
    reload_fail_p: f64,
    fired: AtomicU64,
}

impl SpillFaultPlan {
    /// A plan failing spill writes with probability `write_fail_p` and
    /// segment reloads with probability `reload_fail_p`.
    pub fn new(seed: u64, write_fail_p: f64, reload_fail_p: f64) -> Arc<SpillFaultPlan> {
        Arc::new(SpillFaultPlan {
            rng: Mutex::new(SplitMix64::new(seed ^ 0x5fa1_17fa_u64)),
            write_fail_p,
            reload_fail_p,
            fired: AtomicU64::new(0),
        })
    }

    /// How many faults this plan has injected so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    fn trip(&self, p: f64, what: &str) -> Option<std::io::Error> {
        if p <= 0.0 {
            return None;
        }
        // A poisoned lock only means another thread panicked mid-roll;
        // the RNG state itself is still usable.
        let fired = match self.rng.lock() {
            Ok(mut rng) => rng.chance(p),
            Err(poisoned) => poisoned.into_inner().chance(p),
        };
        if fired {
            self.fired.fetch_add(1, Ordering::SeqCst);
            Some(std::io::Error::other(format!("injected spill {what} fault")))
        } else {
            None
        }
    }
}

impl std::fmt::Debug for SpillFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillFaultPlan")
            .field("write_fail_p", &self.write_fail_p)
            .field("reload_fail_p", &self.reload_fail_p)
            .field("fired", &self.fired())
            .finish()
    }
}

/// One spilled transaction with its derived write set.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct SpillEntry {
    /// The original transaction. Its wire layout carries the declared
    /// isolation level, so a reloaded transaction resolves to the level it
    /// was checked at under a per-transaction policy.
    pub txn: Transaction,
    /// Final written snapshot per key (as computed at first processing).
    pub write_set: Vec<(Key, Snapshot)>,
}

wire_struct!(SpillEntry { txn, write_set });

/// One spilled segment, held until a reload takes it.
#[derive(Debug)]
struct Segment {
    /// The smallest start timestamp among its transactions: what
    /// [`SpillStore::take_below`] selects by.
    min_ts: Timestamp,
    data: SegmentData,
}

#[derive(Debug)]
enum SegmentData {
    /// The in-memory backend keeps the encoded bytes in the record.
    Held(Vec<u8>),
    /// The disk backend's bytes, at this place in its file.
    InFile { offset: u64, len: usize },
}

/// Segmented spill store. It holds exactly the transactions that are
/// spilled out now, each once: a reload takes its segment out.
pub(crate) struct SpillStore {
    /// The disk backend's spill file; `None` for the in-memory backend.
    file: Option<File>,
    segments: Vec<Segment>,
    /// Bytes held by the in-memory backend's segments (0 for the disk
    /// backend), maintained where a segment enters or leaves so
    /// [`SpillStore::buffered_bytes`] never walks them.
    memory_bytes: usize,
    faults: Option<Arc<SpillFaultPlan>>,
}

impl SpillStore {
    /// A spill store backed by memory buffers (encode/decode costs are
    /// identical to the disk backend).
    pub(crate) fn in_memory() -> SpillStore {
        SpillStore { file: None, segments: Vec::new(), memory_bytes: 0, faults: None }
    }

    /// A spill store backed by a file at `path` (created/truncated).
    pub(crate) fn on_disk(path: PathBuf) -> std::io::Result<SpillStore> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok(SpillStore { file: Some(file), segments: Vec::new(), memory_bytes: 0, faults: None })
    }

    /// Install a fault-injection plan (testing only; see
    /// [`SpillFaultPlan`]).
    pub(crate) fn set_faults(&mut self, faults: Option<Arc<SpillFaultPlan>>) {
        self.faults = faults;
    }

    /// Spill a batch of entries as one segment; returns its encoded size
    /// in bytes. Entries must be non-empty.
    ///
    /// On an IO error no segment is recorded and the store stays
    /// consistent: the caller keeps the entries resident and may retry a
    /// later pass.
    pub(crate) fn spill(&mut self, entries: &[SpillEntry]) -> std::io::Result<usize> {
        assert!(!entries.is_empty(), "cannot spill an empty segment");
        if let Some(e) = self.faults.as_ref().and_then(|f| f.trip(f.write_fail_p, "write")) {
            return Err(e);
        }
        let mut buf = BytesMut::with_capacity(entries.len() * 64);
        write_seq(&mut buf, entries.iter());
        let bytes = buf.len();
        let min_ts = entries.iter().map(|e| e.txn.start_ts).min().unwrap_or(Timestamp::MAX);
        self.hold(min_ts, buf.to_vec())?;
        Ok(bytes)
    }

    /// Record a segment of encoded `bytes` whose first start is `min_ts`:
    /// in the record itself, or appended to the spill file.
    fn hold(&mut self, min_ts: Timestamp, bytes: Vec<u8>) -> std::io::Result<()> {
        let data = match &mut self.file {
            None => {
                self.memory_bytes += bytes.len();
                SegmentData::Held(bytes)
            }
            Some(file) => {
                let offset = file.seek(SeekFrom::End(0))?;
                file.write_all(&bytes)?;
                SegmentData::InFile { offset, len: bytes.len() }
            }
        };
        self.segments.push(Segment { min_ts, data });
        Ok(())
    }

    /// Take every segment whose first start is at or below `hi` out of
    /// the store, oldest first, and return their entries.
    ///
    /// A segment that fails — a read error (mapped to
    /// [`CodecError::UnexpectedEof`], as the caller distinguishes only
    /// success from failure) or bytes that do not decode — stays in the
    /// store, so a later call retries it; its error is returned beside
    /// the entries that did load.
    ///
    /// The disk backend then cuts its file back to the end of the last
    /// segment still held (to nothing when none is), so a consumed tail
    /// gives its bytes back; a consumed segment below a held one stays a
    /// hole in the file.
    pub(crate) fn take_below(&mut self, hi: Timestamp) -> (Vec<SpillEntry>, Vec<CodecError>) {
        let (mut entries, mut errors) = (Vec::new(), Vec::new());
        let SpillStore { file, segments, memory_bytes, faults } = self;
        let held = segments.len();
        segments.retain(|seg| {
            if seg.min_ts > hi {
                return true;
            }
            let raw = match faults.as_ref().and_then(|f| f.trip(f.reload_fail_p, "reload")) {
                Some(e) => Err(e),
                None => read(file, seg),
            };
            match raw.map_err(|_| CodecError::UnexpectedEof).and_then(|raw| decode_segment(&raw)) {
                Ok(mut loaded) => {
                    entries.append(&mut loaded);
                    if let SegmentData::Held(bytes) = &seg.data {
                        *memory_bytes -= bytes.len();
                    }
                    false
                }
                Err(e) => {
                    errors.push(e);
                    true
                }
            }
        });
        if let Some(file) = file.as_mut().filter(|_| segments.len() < held) {
            let end = segments.iter().map(|seg| match seg.data {
                SegmentData::InFile { offset, len } => offset + len as u64,
                SegmentData::Held(_) => 0,
            });
            // A failed cut only leaves dead bytes behind: the next spill
            // appends at the file's end either way.
            let _ = file.set_len(end.max().unwrap_or(0));
        }
        (entries, errors)
    }

    /// Bytes of process memory this store currently holds: the segment
    /// bytes of the in-memory backend, plus a record per held segment.
    /// Disk-backed stores only pay the records — their segments live in
    /// the file.
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.segments.len() * std::mem::size_of::<Segment>() + self.memory_bytes
    }

    /// [`buffered_bytes`](Self::buffered_bytes) recounted from the
    /// segments themselves — the oracle the maintained counter is checked
    /// against in tests and debug builds.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn recount_buffered_bytes(&self) -> usize {
        let held = |seg: &Segment| match &seg.data {
            SegmentData::Held(bytes) => bytes.len(),
            SegmentData::InFile { .. } => 0,
        };
        self.segments.len() * std::mem::size_of::<Segment>()
            + self.segments.iter().map(held).sum::<usize>()
    }

    /// Every held segment's encoded bytes, oldest first, for the
    /// checkpoint codec. `&mut self`: the disk backend re-reads them from
    /// the file.
    pub(crate) fn export_segments(&mut self) -> std::io::Result<Vec<Vec<u8>>> {
        let file = &mut self.file;
        self.segments.iter().map(|seg| read(file, seg).map(Cow::into_owned)).collect()
    }

    /// Re-install one exported segment into the store (restore path).
    /// The bytes are decoded now, so a corrupt checkpoint surfaces as a
    /// typed error at restore time instead of at the next straggler
    /// reload; an empty segment, which no spill writes, is
    /// [`CodecError::OutOfRange`].
    pub(crate) fn import_segment(&mut self, bytes: Vec<u8>) -> Result<(), SnapshotError> {
        let first_start = decode_segment(&bytes)?.iter().map(|e| e.txn.start_ts).min();
        self.hold(first_start.ok_or(CodecError::OutOfRange)?, bytes)?;
        Ok(())
    }
}

/// A segment's encoded bytes: borrowed from the record, or read back
/// from the spill file.
fn read<'a>(file: &mut Option<File>, seg: &'a Segment) -> std::io::Result<Cow<'a, [u8]>> {
    match (&seg.data, file) {
        (SegmentData::Held(bytes), _) => Ok(Cow::Borrowed(bytes)),
        (&SegmentData::InFile { offset, len }, Some(file)) => {
            let mut buf = vec![0u8; len];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut buf)?;
            Ok(Cow::Owned(buf))
        }
        (SegmentData::InFile { .. }, None) => Err(std::io::ErrorKind::NotFound.into()),
    }
}

/// Decode one segment's raw bytes into its spill entries, refusing an
/// entry with `start_ts > commit_ts`: only Eq. (1)-valid transactions
/// are ever spilled, and nothing after this re-checks it.
fn decode_segment(mut raw: &[u8]) -> Result<Vec<SpillEntry>, CodecError> {
    let entries: Vec<SpillEntry> = Wire::get(&mut raw)?;
    if entries.iter().any(|e| e.txn.start_ts > e.txn.commit_ts) {
        return Err(CodecError::OutOfRange);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{TxnBuilder, Value};

    fn entry(tid: u64, s: u64, c: u64) -> SpillEntry {
        let txn = TxnBuilder::new(tid)
            .session(0, 0)
            .interval(s, c)
            .put(Key(1), Value(tid))
            .read(Key(2), Value(0))
            .build();
        SpillEntry { txn, write_set: vec![(Key(1), Snapshot::Scalar(Value(tid)))] }
    }

    /// A reload takes its segment out: the store, its bytes included, is
    /// empty again.
    #[test]
    fn memory_roundtrip() {
        let mut store = SpillStore::in_memory();
        let entries = vec![entry(1, 10, 20), entry(2, 30, 40)];
        let bytes = store.spill(&entries).unwrap();
        assert!(bytes > 0);
        assert_eq!(store.segments.len(), 1);
        assert_eq!(store.buffered_bytes(), std::mem::size_of::<Segment>() + bytes);
        assert_eq!(store.buffered_bytes(), store.recount_buffered_bytes());
        assert_eq!(store.take_below(Timestamp::MAX), (entries, Vec::new()));
        assert!(store.segments.is_empty());
        assert_eq!((store.buffered_bytes(), store.recount_buffered_bytes()), (0, 0));
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aion-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let mut store = SpillStore::on_disk(path.clone()).unwrap();
        let a = vec![entry(1, 10, 20)];
        let b = vec![entry(2, 30, 40), entry(3, 50, 60)];
        store.spill(&a).unwrap();
        store.spill(&b).unwrap();
        assert_eq!(store.export_segments().unwrap().len(), 2);
        assert_eq!(store.take_below(Timestamp(30)).0, [a, b].concat());
        assert!(store.segments.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A consumed segment's bytes used to stay in the spill file for
    /// good. A reload cuts the file back to the end of the last segment
    /// still held, and to nothing once none is.
    #[test]
    fn a_reload_trims_the_spill_file_to_its_last_held_segment() {
        let dir = std::env::temp_dir().join(format!("aion-spill-trim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let file_len = || std::fs::metadata(&path).unwrap().len();
        let mut store = SpillStore::on_disk(path.clone()).unwrap();
        let (a, b, c) = (vec![entry(1, 50, 60)], vec![entry(2, 10, 20)], vec![entry(3, 30, 40)]);
        let a_len = store.spill(&a).unwrap() as u64;
        let b_len = store.spill(&b).unwrap() as u64;
        assert_eq!(file_len(), a_len + b_len);
        assert_eq!(store.take_below(Timestamp(20)).0, b);
        assert_eq!(file_len(), a_len, "the consumed tail is cut off");
        let c_len = store.spill(&c).unwrap() as u64;
        assert_eq!(file_len(), a_len + c_len, "the next spill appends at the cut");
        assert_eq!(store.take_below(Timestamp(40)).0, c);
        assert_eq!(file_len(), a_len);
        assert_eq!(store.take_below(Timestamp::MAX).0, a);
        assert_eq!(file_len(), 0, "nothing held, nothing kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment whose bytes cannot be read back or do not decode used
    /// to be marked loaded anyway — lost for good. It must stay in the
    /// store and be re-read by the next attempt.
    #[test]
    fn unreadable_disk_segment_stays_unloaded_and_retryable() {
        let dir = std::env::temp_dir().join(format!("aion-spill-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let mut store = SpillStore::on_disk(path.clone()).unwrap();
        let entries = vec![entry(1, 10, 20), entry(2, 30, 40)];
        let bytes = store.spill(&entries).unwrap();
        let intact = std::fs::read(&path).unwrap();
        assert_eq!(intact.len(), bytes);

        // Same length, garbage content: the read succeeds, the decode fails.
        std::fs::write(&path, vec![0xff; bytes]).unwrap();
        assert_eq!(store.take_below(Timestamp(40)), (Vec::new(), vec![CodecError::VarintOverflow]));
        assert_eq!(store.segments.len(), 1, "a failed decode must not consume the segment");
        // Truncated between spill and reload: the read itself fails.
        std::fs::write(&path, &intact[..bytes / 2]).unwrap();
        assert_eq!(store.take_below(Timestamp(40)), (Vec::new(), vec![CodecError::UnexpectedEof]));
        assert_eq!(store.segments.len(), 1);
        assert!(store.export_segments().is_err(), "the checkpoint path reads the same bytes");

        // The file comes back: the next attempt re-reads it.
        std::fs::write(&path, &intact).unwrap();
        assert_eq!(store.take_below(Timestamp(40)), (entries, Vec::new()));
        assert!(store.segments.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Segments are selected by their first start, and a taken segment
    /// is not offered again.
    #[test]
    fn overlap_query_by_timestamp_range() {
        let mut store = SpillStore::in_memory();
        store.spill(&[entry(1, 10, 20)]).unwrap();
        store.spill(&[entry(2, 30, 40)]).unwrap();
        assert!(store.take_below(Timestamp(9)).0.is_empty());
        assert_eq!(store.take_below(Timestamp(10)).0, [entry(1, 10, 20)]);
        assert!(store.take_below(Timestamp(29)).0.is_empty(), "a taken segment is gone");
        assert_eq!(store.take_below(Timestamp(100)).0, [entry(2, 30, 40)]);
        assert!(store.take_below(Timestamp::MAX).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot spill an empty segment")]
    fn empty_spill_rejected() {
        let _ = SpillStore::in_memory().spill(&[]);
    }

    #[test]
    fn injected_write_faults_are_typed_and_leave_the_store_consistent() {
        let mut store = SpillStore::in_memory();
        store.set_faults(Some(SpillFaultPlan::new(7, 1.0, 0.0)));
        let err = store.spill(&[entry(1, 10, 20)]).unwrap_err();
        assert!(err.to_string().contains("injected spill write fault"));
        assert_eq!(store.segments.len(), 0);
        assert_eq!(store.buffered_bytes(), 0);
        // Clearing the plan restores normal operation.
        store.set_faults(None);
        store.spill(&[entry(1, 10, 20)]).unwrap();
        assert_eq!(store.take_below(Timestamp::MAX).0.len(), 1);
    }

    #[test]
    fn injected_reload_faults_keep_the_segment_retryable() {
        let mut store = SpillStore::in_memory();
        store.spill(&[entry(1, 10, 20)]).unwrap();
        let plan = SpillFaultPlan::new(3, 0.0, 1.0);
        store.set_faults(Some(plan.clone()));
        assert_eq!(store.take_below(Timestamp(20)), (Vec::new(), vec![CodecError::UnexpectedEof]));
        assert_eq!(plan.fired(), 1);
        // The segment was not consumed: still offered for reload.
        assert_eq!(store.segments.len(), 1);
        store.set_faults(None);
        assert_eq!(store.take_below(Timestamp(20)).0.len(), 1);
    }

    /// A segment whose `sid`/`sno` varint exceeds `u32` used to reload as
    /// a different session; a count beyond the bytes left used to size an
    /// allocation. A restored segment must hold at least one entry.
    #[test]
    fn hostile_segments_are_rejected() {
        let txn = TxnBuilder::new(300).session(0x55, 0x66).interval(0x33, 0x34).build();
        let mut store = SpillStore::in_memory();
        store.spill(&[SpillEntry { txn, write_set: Vec::new() }]).unwrap();
        let raw = store.export_segments().unwrap().remove(0);
        assert_eq!(raw[..5], [1, 0xac, 0x02, 0x55, 0x66], "count, tid 300, sid, sno");
        assert_eq!(decode_segment(&raw).unwrap().len(), 1);
        let wide = [0x80, 0x80, 0x80, 0x80, 0x10]; // 2^32
        let big_sid = [&raw[..3], &wide, &raw[4..]].concat();
        assert_eq!(decode_segment(&big_sid), Err(CodecError::OutOfRange));
        let big_sno = [&raw[..4], &wide, &raw[5..]].concat();
        assert_eq!(decode_segment(&big_sno), Err(CodecError::OutOfRange));

        let mut hostile = Vec::new();
        aion_types::codec::put_varint(&mut hostile, 1 << 40);
        hostile.extend([1, 2, 3]);
        assert_eq!(decode_segment(&hostile), Err(CodecError::UnexpectedEof));
        let empty = SpillStore::in_memory().import_segment(vec![0]);
        assert!(matches!(empty, Err(SnapshotError::Codec(CodecError::OutOfRange))));
    }
}
