//! History collection — the paper's CDC-style collector (§IV-A, Fig. 3).
//!
//! The recorder gathers committed transactions from session threads. With
//! *wire simulation* enabled it also serializes every transaction through
//! the binary codec, modelling the collection/transmission overhead that
//! costs real databases ~5 % throughput (paper Fig. 15). A crossbeam
//! channel can be attached to stream transactions to an online checker as
//! they commit, in the arrival order the collector observes. Recorded
//! runs can be written to disk in any `aion-io` interchange format via
//! [`Recorder::export`] / [`Recorder::export_to_path`], so an execution
//! captured here can be replayed later by `experiments check`, diffed
//! against other checkers, or handed to external tools speaking the
//! dbcop format.

use aion_types::codec::Wire;
use aion_types::{DataKind, History, Transaction};
use crossbeam::channel::{unbounded, Receiver, Sender};
#[expect(clippy::disallowed_types, reason = "the capture queue of `Recorder::collected`")]
use crossbeam::queue::SegQueue;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Collects committed transactions into a [`History`].
///
/// The hot path is contention-free: transactions land in a lock-free
/// queue, so collection stays a small fraction of engine throughput
/// (the ~5 % overhead of paper Fig. 15).
pub struct Recorder {
    kind: DataKind,
    #[expect(
        clippy::disallowed_types,
        reason = "the recorder's lock-free capture queue carries workload-side commits, not \
                  checker delivery; replay through the checkers goes via the ShardTransport seam"
    )]
    collected: SegQueue<Transaction>,
    simulate_wire: bool,
    bytes: AtomicU64,
    sender: RwLock<Option<Sender<Transaction>>>,
}

impl Recorder {
    /// A recorder that only accumulates in memory.
    #[expect(clippy::disallowed_types, reason = "the capture queue of `Recorder::collected`")]
    pub fn new(kind: DataKind) -> Recorder {
        Recorder {
            kind,
            collected: SegQueue::new(),
            simulate_wire: false,
            bytes: AtomicU64::new(0),
            sender: RwLock::new(None),
        }
    }

    /// A recorder that additionally encodes each transaction (collection
    /// overhead model for the Fig. 15 experiment).
    pub fn with_wire_simulation(kind: DataKind) -> Recorder {
        Recorder { simulate_wire: true, ..Recorder::new(kind) }
    }

    /// Attach a streaming channel; the returned receiver yields
    /// transactions in collection order (for online checking).
    pub fn attach_channel(&self) -> Receiver<Transaction> {
        #[expect(clippy::disallowed_methods, reason = "same capture path as the queue in `new`")]
        let (tx, rx) = unbounded();
        *self.sender.write() = Some(tx);
        rx
    }

    /// Detach the streaming channel (closes the receiver side).
    pub fn detach_channel(&self) {
        *self.sender.write() = None;
    }

    /// Tap one committed transaction without retaining it: encode (when
    /// wire simulation is on) and stream, like a CDC tap that ships bytes
    /// downstream. Used for collection-overhead measurements where the
    /// collector is a separate process.
    pub fn record_ref(&self, txn: &Transaction) {
        if self.simulate_wire {
            let mut buf = bytes::BytesMut::with_capacity(16 + txn.ops.len() * 8);
            txn.put(&mut buf);
            self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        if let Some(tx) = self.sender.read().as_ref() {
            let _ = tx.send(txn.clone());
        }
    }

    /// Record one committed transaction.
    pub fn record(&self, txn: Transaction) {
        if self.simulate_wire {
            let mut buf = bytes::BytesMut::with_capacity(16 + txn.ops.len() * 8);
            txn.put(&mut buf);
            self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        if let Some(tx) = self.sender.read().as_ref() {
            // Receiver may have hung up; collection must not fail the DB.
            let _ = tx.send(txn.clone());
        }
        self.collected.push(txn);
    }

    /// Number of transactions collected so far.
    pub fn len(&self) -> usize {
        self.collected.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes (0 unless wire simulation is on).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Drain everything collected so far into a history (collection order).
    pub fn take_history(&self) -> History {
        let mut txns = Vec::with_capacity(self.collected.len());
        while let Some(t) = self.collected.pop() {
            txns.push(t);
        }
        History { kind: self.kind, txns }
    }

    /// Copy everything collected so far into a history *without*
    /// draining the recorder (transactions are popped and re-pushed in
    /// order). Call this from a quiesced run: a session thread recording
    /// concurrently may have its transaction re-ordered relative to the
    /// snapshot window.
    pub fn snapshot_history(&self) -> History {
        let h = self.take_history();
        for t in &h.txns {
            self.collected.push(t.clone());
        }
        h
    }

    /// Write everything collected so far to `w` in the given interchange
    /// format, without draining the recorder. Returns the number of
    /// transactions exported.
    pub fn export(
        &self,
        format: aion_io::Format,
        w: &mut dyn std::io::Write,
    ) -> Result<usize, aion_io::IoFormatError> {
        let h = self.snapshot_history();
        aion_io::write_history(&h, format, w)?;
        Ok(h.len())
    }

    /// Write everything collected so far to a file in the given
    /// interchange format, without draining the recorder.
    pub fn export_to_path(
        &self,
        format: aion_io::Format,
        path: &std::path::Path,
    ) -> Result<usize, aion_io::IoFormatError> {
        let h = self.snapshot_history();
        aion_io::write_history_to_path(&h, format, path)?;
        Ok(h.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aion_types::{Key, TxnBuilder, Value};

    fn txn(tid: u64) -> Transaction {
        TxnBuilder::new(tid)
            .session(0, (tid - 1) as u32)
            .interval(tid * 10, tid * 10 + 5)
            .put(Key(1), Value(tid))
            .build()
    }

    #[test]
    fn collects_in_order() {
        let r = Recorder::new(DataKind::Kv);
        assert!(r.is_empty());
        r.record(txn(1));
        r.record(txn(2));
        assert_eq!(r.len(), 2);
        let h = r.take_history();
        assert_eq!(h.txns[0].tid.0, 1);
        assert_eq!(h.txns[1].tid.0, 2);
        assert!(r.is_empty(), "take_history drains");
    }

    #[test]
    fn wire_simulation_counts_bytes() {
        let r = Recorder::with_wire_simulation(DataKind::Kv);
        r.record(txn(1));
        assert!(r.bytes_sent() > 0);
        let plain = Recorder::new(DataKind::Kv);
        plain.record(txn(1));
        assert_eq!(plain.bytes_sent(), 0);
    }

    #[test]
    fn channel_streams_transactions() {
        let r = Recorder::new(DataKind::Kv);
        let rx = r.attach_channel();
        r.record(txn(1));
        r.record(txn(2));
        assert_eq!(rx.try_recv().unwrap().tid.0, 1);
        assert_eq!(rx.try_recv().unwrap().tid.0, 2);
        r.detach_channel();
        r.record(txn(3));
        assert!(rx.try_recv().is_err(), "detached channel receives nothing more");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn dropped_receiver_does_not_fail_recording() {
        let r = Recorder::new(DataKind::Kv);
        let rx = r.attach_channel();
        drop(rx);
        r.record(txn(1)); // must not panic
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn export_writes_without_draining() {
        let r = Recorder::new(DataKind::Kv);
        r.record(txn(1));
        r.record(txn(2));
        let mut jsonl = Vec::new();
        let n = r.export(aion_io::Format::Jsonl, &mut jsonl).unwrap();
        assert_eq!(n, 2);
        assert_eq!(r.len(), 2, "export must not drain the recorder");
        // The exported bytes decode back to exactly the recorded run.
        let reader =
            aion_io::open_stream(&jsonl[..], aion_io::Format::Jsonl, Default::default()).unwrap();
        let decoded = aion_io::read_history_from(reader).unwrap();
        assert_eq!(decoded, r.snapshot_history());
        // Binary and dbcop exports agree with the jsonl one.
        let mut bin = Vec::new();
        r.export(aion_io::Format::Binary, &mut bin).unwrap();
        let reader =
            aion_io::open_stream(&bin[..], aion_io::Format::Binary, Default::default()).unwrap();
        assert_eq!(aion_io::read_history_from(reader).unwrap(), decoded);
    }
}
