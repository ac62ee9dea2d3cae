//! Timestamp oracles.
//!
//! The paper's Algorithm 1 assumes a time oracle `O` returning unique,
//! totally ordered timestamps. Real deployments use either *centralized*
//! timestamping (TiDB's Placement Driver, Dgraph's Zero group) or
//! *decentralized* loosely synchronized clocks (YugabyteDB's hybrid logical
//! clocks) — paper Appendix A/B. Both are provided here; the skewed HLC
//! oracle is the substrate for the clock-skew bug study (§V-D).

use aion_types::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};

/// A source of unique, totally ordered timestamps.
pub trait Oracle: Send + Sync {
    /// Issue the next timestamp. Every call returns a fresh, globally
    /// unique value; values are not required to be globally monotone for
    /// decentralized oracles (that is exactly the anomaly source).
    fn next_ts(&self) -> Timestamp;
}

/// Centralized oracle: a single atomic counter, strictly increasing.
///
/// Models TiDB's PD / Dgraph's Zero. The counter starts at 1 so that
/// [`Timestamp::MIN`] stays strictly below every issued timestamp.
#[derive(Debug)]
pub struct CentralOracle {
    counter: AtomicU64,
    stride: u64,
}

impl CentralOracle {
    /// A fresh oracle issuing 1, 2, 3, ...
    pub fn new() -> CentralOracle {
        CentralOracle::with_stride(1)
    }

    /// An oracle issuing `stride`, `2*stride`, ... — the gaps leave room
    /// for timestamp-perturbing fault injection to stay collision-free.
    pub fn with_stride(stride: u64) -> CentralOracle {
        assert!(stride > 0, "stride must be positive");
        CentralOracle { counter: AtomicU64::new(1), stride }
    }

    /// How many timestamps have been issued so far.
    pub fn issued(&self) -> u64 {
        self.counter.load(Ordering::Relaxed) - 1
    }
}

impl Default for CentralOracle {
    fn default() -> Self {
        CentralOracle::new()
    }
}

impl Oracle for CentralOracle {
    #[inline]
    fn next_ts(&self) -> Timestamp {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        Timestamp(n * self.stride)
    }
}

/// Decentralized hybrid-logical-clock oracle with configurable per-node
/// skew (YugabyteDB-style; paper Appendix B3).
///
/// Each node `i` sees the shared "physical" counter shifted by
/// `skew_of(i)`, combined with a per-node logical component and the node id
/// in the low bits so that timestamps stay *unique* across nodes while the
/// *order* across nodes can invert — which is precisely the clock-skew
/// anomaly CHRONOS detects (§V-D).
#[derive(Debug)]
pub struct SkewedHlcOracle {
    physical: AtomicU64,
    nodes: Vec<NodeClock>,
}

#[derive(Debug)]
struct NodeClock {
    /// Signed skew in physical ticks (stored as offset + bias).
    skew: i64,
    /// Last issued HLC value, for per-node monotonicity.
    last: AtomicU64,
}

/// Number of low bits reserved for the node id.
const NODE_BITS: u32 = 8;

impl SkewedHlcOracle {
    /// Create an oracle over `skews[i]` = physical-tick skew of node `i`.
    /// At most 2^8 nodes are supported.
    pub fn new(skews: &[i64]) -> SkewedHlcOracle {
        assert!(!skews.is_empty() && skews.len() <= 1 << NODE_BITS);
        SkewedHlcOracle {
            physical: AtomicU64::new(1),
            nodes: skews.iter().map(|&skew| NodeClock { skew, last: AtomicU64::new(0) }).collect(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Issue a timestamp as observed by `node`.
    pub fn next_ts_on(&self, node: usize) -> Timestamp {
        let clock = &self.nodes[node];
        let phys = self.physical.fetch_add(1, Ordering::Relaxed) as i64;
        let observed = (phys + clock.skew).max(1) as u64;
        // HLC: never go backwards on the same node. `fetch_update` returns
        // the previous value; recompute the stored (new) value from it.
        let prev = clock
            .last
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| Some(last.max(observed) + 1))
            .expect("fetch_update closure always returns Some");
        let hlc = prev.max(observed) + 1;
        Timestamp((hlc << NODE_BITS) | node as u64)
    }
}

impl Oracle for SkewedHlcOracle {
    fn next_ts(&self) -> Timestamp {
        // Round-robin over nodes keyed off the physical counter, modelling
        // requests landing on different nodes.
        let n = self.physical.load(Ordering::Relaxed) as usize % self.nodes.len();
        self.next_ts_on(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn central_oracle_unique_and_increasing() {
        let o = CentralOracle::new();
        let a = o.next_ts();
        let b = o.next_ts();
        let c = o.next_ts();
        assert!(a < b && b < c);
        assert!(a > Timestamp::MIN);
        assert_eq!(o.issued(), 3);
    }

    #[test]
    fn central_oracle_stride_leaves_gaps() {
        let o = CentralOracle::with_stride(1000);
        assert_eq!(o.next_ts(), Timestamp(1000));
        assert_eq!(o.next_ts(), Timestamp(2000));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let _ = CentralOracle::with_stride(0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the oracle's concurrency is tested from real OS threads"
    )]
    fn central_oracle_unique_under_threads() {
        let o = std::sync::Arc::new(CentralOracle::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let o = o.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| o.next_ts()).collect::<Vec<_>>()
            }));
        }
        let mut seen = BTreeSet::new();
        for h in handles {
            for ts in h.join().unwrap() {
                assert!(seen.insert(ts), "duplicate {ts:?}");
            }
        }
        assert_eq!(seen.len(), 4000);
    }

    #[test]
    fn hlc_unique_across_nodes() {
        let o = SkewedHlcOracle::new(&[0, 50, -50]);
        let mut seen = BTreeSet::new();
        for i in 0..3000 {
            let ts = o.next_ts_on(i % 3);
            assert!(seen.insert(ts), "duplicate {ts:?}");
        }
    }

    #[test]
    fn hlc_monotone_per_node() {
        let o = SkewedHlcOracle::new(&[0, 1000]);
        let mut last = Timestamp::MIN;
        for _ in 0..100 {
            let ts = o.next_ts_on(1);
            assert!(ts > last);
            last = ts;
        }
    }

    #[test]
    fn hlc_skew_can_invert_cross_node_order() {
        // Node 1 runs far behind: a timestamp requested *later* in real time
        // on node 1 can be smaller than an earlier one from node 0.
        let o = SkewedHlcOracle::new(&[1_000_000, 0]);
        let early_on_fast = o.next_ts_on(0);
        let late_on_slow = o.next_ts_on(1);
        assert!(late_on_slow < early_on_fast, "skew should invert order");
    }
}
