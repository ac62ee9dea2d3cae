//! Workload specification — the paper's Table I — plus the mixed-level
//! extension ([`LevelMix`]).

use crate::dist::KeyDist;
use aion_types::rng::SplitMix64;
use aion_types::{DataKind, History, IsolationLevel};

/// Parameters of the default (parameterized) workload, Table I of the
/// paper. The `Default` impl is the paper's "Default" column.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Number of sessions (`#sess`), default 50.
    pub sessions: usize,
    /// Number of transactions (`#txns`), default 100 000.
    pub txns: usize,
    /// Operations per transaction (`#ops/txn`), default 15.
    pub ops_per_txn: usize,
    /// Ratio of read operations (`%reads`), default 0.5.
    pub read_ratio: f64,
    /// Number of keys (`#keys`), default 1000.
    pub keys: u64,
    /// Key access distribution (`dist`), default Zipfian.
    pub dist: KeyDist,
    /// Data type of the generated history.
    pub kind: DataKind,
    /// Seed for deterministic generation.
    pub seed: u64,
    /// Timestamp-oracle stride: timestamps are issued as multiples of
    /// this (default 1, the paper's dense centralized oracle). Larger
    /// strides leave gaps between timestamps, which the anomaly-injection
    /// matrix needs to relocate timestamps without collisions.
    pub ts_stride: u64,
    /// When set, generated histories get *declared* per-transaction
    /// isolation levels drawn from this mix (default: none — every
    /// transaction's `level` stays `None`). See [`LevelMix`].
    pub level_mix: Option<LevelMix>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            sessions: 50,
            txns: 100_000,
            ops_per_txn: 15,
            read_ratio: 0.5,
            keys: 1000,
            dist: KeyDist::Zipfian,
            kind: DataKind::Kv,
            seed: 42,
            ts_stride: 1,
            level_mix: None,
        }
    }
}

impl WorkloadSpec {
    /// Builder: set the number of transactions.
    pub fn with_txns(mut self, txns: usize) -> Self {
        self.txns = txns;
        self
    }

    /// Builder: set the number of sessions.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Builder: set operations per transaction.
    pub fn with_ops_per_txn(mut self, ops: usize) -> Self {
        self.ops_per_txn = ops;
        self
    }

    /// Builder: set the read ratio.
    pub fn with_read_ratio(mut self, r: f64) -> Self {
        self.read_ratio = r;
        self
    }

    /// Builder: set the number of keys.
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    /// Builder: set the key distribution.
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Builder: set the data kind (KV or list).
    pub fn with_kind(mut self, kind: DataKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the timestamp-oracle stride (clamped to at least 1).
    pub fn with_ts_stride(mut self, stride: u64) -> Self {
        self.ts_stride = stride.max(1);
        self
    }

    /// Builder: declare per-transaction isolation levels from a mix.
    pub fn with_level_mix(mut self, mix: LevelMix) -> Self {
        self.level_mix = Some(mix);
        self
    }
}

/// A weighted mix of declared isolation levels for generated histories
/// — the "every session picks its own level" deployment shape the mixed
/// isolation-checking literature studies.
///
/// By default levels are drawn **per session** (a session keeps one
/// level for its whole stream, the realistic granularity);
/// [`LevelMix::per_txn`] draws independently per transaction instead.
/// Stamping is deterministic in `(mix, seed)` and touches only the
/// declared [`Transaction::level`](aion_types::Transaction) field —
/// operations and timestamps are untouched, so a stamped history checks
/// identically to its unstamped twin under any *uniform* policy.
///
/// Declaring a level **stronger** than the engine the history ran on
/// (e.g. `ser` declarations over an MVCC-SI execution) is allowed and
/// useful for violation studies, but such histories are not guaranteed
/// clean; for histories valid at every declared level, keep the mix at
/// or below the execution level, or generate serial (1-session) specs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelMix {
    /// Weight of `rc` declarations (weights need not sum to 1).
    pub rc: f64,
    /// Weight of `ra` declarations.
    pub ra: f64,
    /// Weight of `si` declarations.
    pub si: f64,
    /// Weight of `ser` declarations.
    pub ser: f64,
    /// Draw per transaction instead of per session.
    pub per_txn: bool,
}

impl LevelMix {
    /// A per-session mix with the given weights.
    pub fn sessions(rc: f64, ra: f64, si: f64, ser: f64) -> LevelMix {
        LevelMix { rc, ra, si, ser, per_txn: false }
    }

    /// A per-transaction mix with the given weights.
    pub fn per_txn(rc: f64, ra: f64, si: f64, ser: f64) -> LevelMix {
        LevelMix { rc, ra, si, ser, per_txn: true }
    }

    /// An even four-way per-session split.
    pub fn even() -> LevelMix {
        LevelMix::sessions(1.0, 1.0, 1.0, 1.0)
    }

    fn draw(&self, rng: &mut SplitMix64) -> IsolationLevel {
        let weights = [
            (IsolationLevel::ReadCommitted, self.rc.max(0.0)),
            (IsolationLevel::ReadAtomic, self.ra.max(0.0)),
            (IsolationLevel::Si, self.si.max(0.0)),
            (IsolationLevel::Ser, self.ser.max(0.0)),
        ];
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return IsolationLevel::Si;
        }
        let mut at = rng.next_f64() * total;
        for (level, w) in weights {
            at -= w;
            if at < 0.0 {
                return level;
            }
        }
        IsolationLevel::Ser
    }

    /// Stamp every transaction's declared level, deterministically in
    /// `(self, seed)`.
    pub fn stamp(&self, h: &mut History, seed: u64) {
        for (i, t) in h.txns.iter_mut().enumerate() {
            let draw_key = if self.per_txn { (i as u64) | (1 << 63) } else { u64::from(t.sid.0) };
            let mut rng =
                SplitMix64::new(seed ^ 0x11f7 ^ draw_key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            t.level = Some(self.draw(&mut rng));
        }
    }
}

/// The parameter grid of Table I, for sweep experiments.
pub mod table1 {
    use super::KeyDist;

    /// `#sess` column.
    pub const SESSIONS: &[usize] = &[10, 20, 50, 100, 200];
    /// `#txns` column (5K, 100K, 200K, 500K, 1000K).
    pub const TXNS: &[usize] = &[5_000, 100_000, 200_000, 500_000, 1_000_000];
    /// `#ops/txn` column.
    pub const OPS_PER_TXN: &[usize] = &[5, 15, 30, 50, 100];
    /// `%reads` column.
    pub const READ_RATIOS: &[f64] = &[0.1, 0.3, 0.5, 0.7, 0.9];
    /// `#keys` column.
    pub const KEYS: &[u64] = &[200, 500, 1000, 2000, 5000];
    /// `dist` column.
    pub const DISTS: &[KeyDist] = &[KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Hotspot];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1_default_column() {
        let s = WorkloadSpec::default();
        assert_eq!(s.sessions, 50);
        assert_eq!(s.txns, 100_000);
        assert_eq!(s.ops_per_txn, 15);
        assert!((s.read_ratio - 0.5).abs() < 1e-9);
        assert_eq!(s.keys, 1000);
        assert_eq!(s.dist, KeyDist::Zipfian);
    }

    #[test]
    fn builders_compose() {
        let s = WorkloadSpec::default()
            .with_txns(10)
            .with_sessions(2)
            .with_ops_per_txn(4)
            .with_read_ratio(0.9)
            .with_keys(16)
            .with_dist(KeyDist::Uniform)
            .with_kind(DataKind::List)
            .with_seed(7);
        assert_eq!(s.txns, 10);
        assert_eq!(s.ops_per_txn, 4);
        assert_eq!(s.kind, DataKind::List);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn table1_grids_nonempty() {
        assert_eq!(table1::SESSIONS.len(), 5);
        assert_eq!(table1::TXNS.len(), 5);
        assert_eq!(table1::DISTS.len(), 3);
    }
}
