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

use aion_types::codec::{write_seq, CodecError, Wire};
use aion_types::rng::SplitMix64;
use aion_types::{wire_struct, Key, Snapshot, Timestamp, Transaction};
use bytes::BytesMut;
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

/// Identifier of a spill segment.
pub(crate) type SegmentId = usize;

#[derive(Debug)]
struct SegmentMeta {
    min_ts: Timestamp,
    max_ts: Timestamp,
    txns: usize,
    loaded: bool,
    /// Offset/length in the disk file (unused by the memory backend).
    offset: u64,
    len: usize,
}

enum Backend {
    Memory(Vec<Vec<u8>>),
    Disk { file: File, _path: PathBuf },
}

/// Append-only segmented spill store.
pub(crate) struct SpillStore {
    backend: Backend,
    segments: Vec<SegmentMeta>,
    /// Bytes held by the in-memory backend's segment buffers (0 for the
    /// disk backend), maintained by `spill` and `import_segments` so
    /// [`SpillStore::buffered_bytes`] never walks them.
    memory_bytes: usize,
    faults: Option<Arc<SpillFaultPlan>>,
}

impl SpillStore {
    /// A spill store backed by memory buffers (encode/decode costs are
    /// identical to the disk backend).
    pub(crate) fn in_memory() -> SpillStore {
        SpillStore {
            backend: Backend::Memory(Vec::new()),
            segments: Vec::new(),
            memory_bytes: 0,
            faults: None,
        }
    }

    /// A spill store backed by a file at `path` (created/truncated).
    pub(crate) fn on_disk(path: PathBuf) -> std::io::Result<SpillStore> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok(SpillStore {
            backend: Backend::Disk { file, _path: path },
            segments: Vec::new(),
            memory_bytes: 0,
            faults: None,
        })
    }

    /// Install a fault-injection plan (testing only; see
    /// [`SpillFaultPlan`]).
    pub(crate) fn set_faults(&mut self, faults: Option<Arc<SpillFaultPlan>>) {
        self.faults = faults;
    }

    /// Spill a batch of entries as one segment; returns its id and the
    /// encoded size in bytes. Entries must be non-empty.
    ///
    /// On an IO error no segment is recorded and the store stays
    /// consistent: the caller keeps the entries resident and may retry a
    /// later pass.
    pub(crate) fn spill(&mut self, entries: &[SpillEntry]) -> std::io::Result<(SegmentId, usize)> {
        assert!(!entries.is_empty(), "cannot spill an empty segment");
        if let Some(e) = self.faults.as_ref().and_then(|f| f.trip(f.write_fail_p, "write")) {
            return Err(e);
        }
        let mut buf = BytesMut::with_capacity(entries.len() * 64);
        write_seq(&mut buf, entries.iter());
        let (min_ts, max_ts) =
            entries.iter().fold((Timestamp::MAX, Timestamp::MIN), |(lo, hi), e| {
                (lo.min(e.txn.start_ts), hi.max(e.txn.commit_ts))
            });
        let bytes = buf.len();
        let (offset, len) = match &mut self.backend {
            Backend::Memory(bufs) => {
                bufs.push(buf.to_vec());
                self.memory_bytes += bytes;
                (0, bytes)
            }
            Backend::Disk { file, .. } => {
                let offset = file.seek(SeekFrom::End(0))?;
                file.write_all(&buf)?;
                (offset, bytes)
            }
        };
        let id = self.segments.len();
        self.segments.push(SegmentMeta {
            min_ts,
            max_ts,
            txns: entries.len(),
            loaded: false,
            offset,
            len,
        });
        Ok((id, bytes))
    }

    /// Ids of not-yet-reloaded segments whose `[min_ts, max_ts]` range
    /// intersects `[lo, hi]`.
    pub(crate) fn segments_overlapping(&self, lo: Timestamp, hi: Timestamp) -> Vec<SegmentId> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.loaded && s.min_ts <= hi && lo <= s.max_ts)
            .map(|(i, _)| i)
            .collect()
    }

    /// The raw encoded bytes of segment `id`; an id this store never
    /// handed out is [`std::io::ErrorKind::NotFound`].
    fn read_segment(&mut self, id: SegmentId) -> std::io::Result<Vec<u8>> {
        let unknown = || std::io::Error::new(std::io::ErrorKind::NotFound, "unknown spill segment");
        let meta = self.segments.get(id).ok_or_else(unknown)?;
        match &mut self.backend {
            Backend::Memory(bufs) => bufs.get(id).cloned().ok_or_else(unknown),
            Backend::Disk { file, .. } => {
                let mut buf = vec![0u8; meta.len];
                file.seek(SeekFrom::Start(meta.offset))?;
                file.read_exact(&mut buf)?;
                Ok(buf)
            }
        }
    }

    /// Reload a segment, marking it resident. Returns its entries.
    ///
    /// A failed reload — an unknown id or an IO error (both mapped to
    /// [`CodecError::UnexpectedEof`], as the caller distinguishes only
    /// success from failure), or bytes that do not decode — leaves the
    /// segment marked *not* loaded, so a later pass can retry it.
    pub(crate) fn reload(&mut self, id: SegmentId) -> Result<Vec<SpillEntry>, CodecError> {
        if let Some(f) = self.faults.as_ref() {
            if f.trip(f.reload_fail_p, "reload").is_some() {
                return Err(CodecError::UnexpectedEof);
            }
        }
        let raw = self.read_segment(id).map_err(|_| CodecError::UnexpectedEof)?;
        let entries = decode_segment(&raw)?;
        if let Some(meta) = self.segments.get_mut(id) {
            meta.loaded = true;
        }
        Ok(entries)
    }

    /// Total transactions currently spilled out (not reloaded).
    #[cfg(test)]
    fn resident_out(&self) -> usize {
        self.segments.iter().filter(|s| !s.loaded).map(|s| s.txns).sum()
    }

    /// Bytes of process memory this store currently holds: all segment
    /// buffers for the in-memory backend (which retains every segment,
    /// reloaded or not), plus the per-segment metadata either backend
    /// keeps. Disk-backed stores only pay the metadata — their segments
    /// live in the file.
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.segments.len() * std::mem::size_of::<SegmentMeta>() + self.memory_bytes
    }

    /// [`buffered_bytes`](Self::buffered_bytes) recounted from the
    /// segment buffers themselves — the oracle the maintained counter
    /// is checked against in tests and debug builds.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn recount_buffered_bytes(&self) -> usize {
        let meta = self.segments.len() * std::mem::size_of::<SegmentMeta>();
        match &self.backend {
            Backend::Memory(bufs) => meta + bufs.iter().map(Vec::len).sum::<usize>(),
            Backend::Disk { .. } => meta,
        }
    }

    /// Export every segment — raw encoded bytes plus metadata — for the
    /// checkpoint codec. `&mut self`: the disk backend re-reads segment
    /// bytes from the file.
    pub(crate) fn export_segments(&mut self) -> std::io::Result<Vec<SegmentExport>> {
        let raw: Vec<Vec<u8>> =
            (0..self.segments.len()).map(|id| self.read_segment(id)).collect::<Result<_, _>>()?;
        let export = |(m, bytes): (&SegmentMeta, Vec<u8>)| SegmentExport {
            min_ts: m.min_ts,
            max_ts: m.max_ts,
            txns: m.txns,
            loaded: m.loaded,
            bytes,
        };
        Ok(self.segments.iter().zip(raw).map(export).collect())
    }

    /// Re-install exported segments into a *fresh* store (restore path),
    /// preserving ids, timestamp ranges and loaded flags. The disk
    /// backend appends the bytes to its (truncated) file.
    pub(crate) fn import_segments(&mut self, segments: Vec<SegmentExport>) -> std::io::Result<()> {
        debug_assert!(self.segments.is_empty(), "import only into a fresh store");
        for seg in segments {
            let len = seg.bytes.len();
            let offset = match &mut self.backend {
                Backend::Memory(bufs) => {
                    bufs.push(seg.bytes);
                    self.memory_bytes += len;
                    0
                }
                Backend::Disk { file, .. } => {
                    let offset = file.seek(SeekFrom::End(0))?;
                    file.write_all(&seg.bytes)?;
                    offset
                }
            };
            self.segments.push(SegmentMeta {
                min_ts: seg.min_ts,
                max_ts: seg.max_ts,
                txns: seg.txns,
                loaded: seg.loaded,
                offset,
                len,
            });
        }
        Ok(())
    }
}

/// Decode one segment's raw bytes into its spill entries. Shared by
/// [`SpillStore::reload`] and the checkpoint codec, which validates
/// imported segments eagerly so a corrupt checkpoint surfaces as a typed
/// error at restore time instead of a panic at the next straggler reload.
/// That includes an entry with `start_ts > commit_ts`: only Eq. (1)-valid
/// transactions are ever spilled, and nothing after this re-checks it.
pub(crate) fn decode_segment(mut raw: &[u8]) -> Result<Vec<SpillEntry>, CodecError> {
    let entries: Vec<SpillEntry> = Wire::get(&mut raw)?;
    if entries.iter().any(|e| e.txn.start_ts > e.txn.commit_ts) {
        return Err(CodecError::OutOfRange);
    }
    Ok(entries)
}

/// One exported spill segment: the raw encoded bytes plus the metadata
/// needed to re-install it with identical reload behaviour.
#[derive(Debug)]
pub(crate) struct SegmentExport {
    pub(crate) min_ts: Timestamp,
    pub(crate) max_ts: Timestamp,
    pub(crate) txns: usize,
    pub(crate) loaded: bool,
    pub(crate) bytes: Vec<u8>,
}

wire_struct!(SegmentExport { min_ts, max_ts, txns, loaded, bytes });

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

    #[test]
    fn memory_roundtrip() {
        let mut store = SpillStore::in_memory();
        let entries = vec![entry(1, 10, 20), entry(2, 30, 40)];
        let (id, bytes) = store.spill(&entries).unwrap();
        assert!(bytes > 0);
        assert_eq!(store.resident_out(), 2);
        assert_eq!(store.buffered_bytes(), std::mem::size_of::<SegmentMeta>() + bytes);
        assert_eq!(store.buffered_bytes(), store.recount_buffered_bytes());
        let back = store.reload(id).unwrap();
        assert_eq!(back, entries);
        assert_eq!(store.resident_out(), 0);
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aion-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let mut store = SpillStore::on_disk(path.clone()).unwrap();
        let a = vec![entry(1, 10, 20)];
        let b = vec![entry(2, 30, 40), entry(3, 50, 60)];
        let (ia, _) = store.spill(&a).unwrap();
        let (ib, _) = store.spill(&b).unwrap();
        assert_eq!(store.reload(ib).unwrap(), b);
        assert_eq!(store.reload(ia).unwrap(), a);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment whose bytes cannot be read back or do not decode used
    /// to be marked loaded anyway — lost for good. It must stay spilled
    /// out and be re-read by the next attempt.
    #[test]
    fn unreadable_disk_segment_stays_unloaded_and_retryable() {
        let dir = std::env::temp_dir().join(format!("aion-spill-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let mut store = SpillStore::on_disk(path.clone()).unwrap();
        let entries = vec![entry(1, 10, 20), entry(2, 30, 40)];
        let (id, bytes) = store.spill(&entries).unwrap();
        let intact = std::fs::read(&path).unwrap();
        assert_eq!(intact.len(), bytes);

        // Same length, garbage content: the read succeeds, the decode fails.
        std::fs::write(&path, vec![0xff; bytes]).unwrap();
        assert_eq!(store.reload(id), Err(CodecError::VarintOverflow));
        assert_eq!(store.resident_out(), 2, "a failed decode must not mark the segment loaded");
        // Truncated between spill and reload: the read itself fails.
        std::fs::write(&path, &intact[..bytes / 2]).unwrap();
        assert_eq!(store.reload(id), Err(CodecError::UnexpectedEof));
        assert_eq!(store.resident_out(), 2);
        assert_eq!(store.segments_overlapping(Timestamp(10), Timestamp(40)), vec![id]);
        // An id the store never handed out is an error, not an index panic.
        assert_eq!(store.reload(id + 1), Err(CodecError::UnexpectedEof));
        assert!(store.export_segments().is_err(), "the checkpoint path reads the same bytes");

        // The file comes back: the next attempt re-reads it.
        std::fs::write(&path, &intact).unwrap();
        assert_eq!(store.reload(id).unwrap(), entries);
        assert_eq!(store.resident_out(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlap_query_by_timestamp_range() {
        let mut store = SpillStore::in_memory();
        let (a, _) = store.spill(&[entry(1, 10, 20)]).unwrap();
        let (b, _) = store.spill(&[entry(2, 30, 40)]).unwrap();
        assert_eq!(store.segments_overlapping(Timestamp(15), Timestamp(18)), vec![a]);
        assert_eq!(store.segments_overlapping(Timestamp(5), Timestamp(100)), vec![a, b]);
        assert!(store.segments_overlapping(Timestamp(21), Timestamp(29)).is_empty());
        // Reloaded segments are not offered again.
        store.reload(a).unwrap();
        assert!(store.segments_overlapping(Timestamp(15), Timestamp(18)).is_empty());
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
        assert_eq!(store.resident_out(), 0);
        // Clearing the plan restores normal operation.
        store.set_faults(None);
        let (id, _) = store.spill(&[entry(1, 10, 20)]).unwrap();
        assert_eq!(store.reload(id).unwrap().len(), 1);
    }

    #[test]
    fn injected_reload_faults_keep_the_segment_retryable() {
        let mut store = SpillStore::in_memory();
        let (id, _) = store.spill(&[entry(1, 10, 20)]).unwrap();
        let plan = SpillFaultPlan::new(3, 0.0, 1.0);
        store.set_faults(Some(plan.clone()));
        assert_eq!(store.reload(id), Err(CodecError::UnexpectedEof));
        assert_eq!(plan.fired(), 1);
        // The segment was not marked loaded: still offered for reload.
        assert_eq!(store.segments_overlapping(Timestamp(10), Timestamp(20)), vec![id]);
        store.set_faults(None);
        assert_eq!(store.reload(id).unwrap().len(), 1);
    }

    /// A segment whose `sid`/`sno` varint exceeds `u32` used to reload as
    /// a different session; a count beyond the bytes left used to size an
    /// allocation.
    #[test]
    fn hostile_segments_are_rejected() {
        let txn = TxnBuilder::new(300).session(0x55, 0x66).interval(0x33, 0x34).build();
        let mut store = SpillStore::in_memory();
        let (id, _) = store.spill(&[SpillEntry { txn, write_set: Vec::new() }]).unwrap();
        let raw = store.read_segment(id).unwrap();
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
    }
}
