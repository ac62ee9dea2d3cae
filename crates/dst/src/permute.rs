//! Loom-style exhaustive interleaving models for the coordinator's two
//! racy primitives.
//!
//! Where [`check_seed`](crate::check_seed) samples the schedule space,
//! these models *enumerate* it — every point of a small, finite
//! nondeterminism domain is executed and compared against the single
//! reference checker:
//!
//! 1. **Tick-broadcast rate limiter** — the coordinator forwards clock
//!    ticks to worker shards at most once per 50 ms of virtual time, and
//!    the simulated transport may drop finite ticks outright. The safety
//!    argument is that a worker's `feed` advances its own clock, so
//!    verdicts cannot depend on which broadcasts got through.
//!    [`tick_limiter_model`] runs every subset of tick deliveries (2^k
//!    masks) and requires identical outcomes.
//! 2. **`GlobalChecks` authority handoff** — session order, duplicate
//!    tids and Eq. (1) integrity are owned by the coordinator; a
//!    checkpoint serializes that authority and a restore (possibly onto
//!    a different worker count) re-creates it. [`authority_handoff_model`]
//!    cuts the stream at *every* position × every reshard width and
//!    requires the resumed run to converge to the uninterrupted verdict.
//!
//! Both models run at a small depth as ordinary `cargo test`s; building
//! with `RUSTFLAGS="--cfg dst_loom"` deepens them (more ticks → 2^10
//! masks, wider histories → more cuts), the hand-rolled analogue of
//! loom's exhaustive mode.

use crate::compare_outcomes;
use aion_online::{OnlineChecker, ShardedChecker, SimSchedule};
use aion_types::{
    Checker, DataKind, History, IsolationLevel, Key, Outcome, Transaction, TxnBuilder, Value,
};

/// The coordinator's clock-broadcast interval: ticks at least this far
/// apart each pass its rate limiter, so a tick mask decides alone which
/// broadcasts are sent.
const TICK_SPACING_MS: u64 = 50;

/// A small deterministic history that exercises both authority domains:
/// per-key checks (a bogus read that no write justifies) inside the
/// owning shard, and the coordinator-owned global checks (a duplicate
/// tid and a session-order gap). `n` ≥ 6.
fn model_history(n: usize) -> History {
    assert!(n >= 6, "the model needs room for its three planted defects");
    let mut h = History::new(DataKind::Kv);
    for i in 0..n as u64 {
        let tid = if i == (n as u64) / 2 { 1 } else { i + 1 }; // planted duplicate tid
        let sno = (i / 2) as u32 + if i == n as u64 - 1 { 5 } else { 0 }; // planted session gap
        let mut b =
            TxnBuilder::new(tid).session((i % 2) as u32, sno).interval(i * 10 + 1, i * 10 + 5);
        b = if i == 2 {
            b.read(Key(0), Value(999_999)) // planted unjustifiable read
        } else if i % 3 == 0 {
            b.put(Key(i % 5), Value(i + 1))
        } else {
            b.read(Key((i + 2) % 5), Value(0)).put(Key((i + 1) % 5), Value(i + 1))
        };
        h.push(b.build());
    }
    h
}

fn builder() -> aion_online::OnlineCheckerBuilder {
    // A long EXT timeout keeps tentative verdicts pending across the
    // whole model run (arrival times are tiny), so finalization state
    // crosses every checkpoint cut and survives every dropped tick.
    OnlineChecker::builder().level(IsolationLevel::Si).ext_timeout_ms(5_000).events(true)
}

/// Single-checker reference outcome (`feed` carries the clock), with
/// arrival `i` at `at(i)`.
fn reference(arrivals: &[Transaction], at: impl Fn(usize) -> u64) -> Outcome {
    let mut ck = builder().build().expect("model config is valid");
    for (i, txn) in arrivals.iter().enumerate() {
        ck.feed(txn.clone(), at(i));
    }
    ck.tick(u64::MAX);
    Checker::finish(ck)
}

/// Model 1: enumerate every subset of coordinator tick deliveries.
///
/// `ticks` is the number of optional tick slots (one before each of the
/// first `ticks` arrivals, which come `TICK_SPACING_MS` apart); the
/// model runs all `2^ticks` delivery masks under two shard counts,
/// requiring every run to match the reference outcome.
pub fn tick_limiter_model(ticks: usize) -> Result<(), String> {
    let h = model_history(8.max(ticks));
    // From one interval on: the limiter's last broadcast starts at 0.
    let at = |i: usize| (i as u64 + 1) * TICK_SPACING_MS;
    let reference = reference(&h.txns, at);
    for shards in [2usize, 3] {
        for mask in 0u64..(1 << ticks) {
            let mut ck = builder()
                .shards(shards)
                .build_sharded_sim(SimSchedule::random(mask ^ 0x71C7))
                .map_err(|e| e.to_string())?;
            for (i, txn) in h.txns.iter().enumerate() {
                if i < ticks && mask & (1 << i) != 0 {
                    ck.tick(at(i));
                }
                ck.feed(txn.clone(), at(i));
            }
            ck.tick(u64::MAX);
            let outcome = Checker::finish(ck);
            compare_outcomes(
                &reference,
                &outcome,
                &format!("tick mask {mask:#b} shards={shards}"),
            )?;
        }
    }
    Ok(())
}

/// Model 2: enumerate every checkpoint cut × reshard width.
///
/// The sharded checker (under a fixed adversarial schedule) is cut
/// after each prefix of the stream, checkpointed, restored onto 1, 2
/// and 3 workers, and driven to completion; every resumed run must
/// converge to the uninterrupted single-checker outcome — the
/// coordinator's global-check authority must survive the handoff at
/// any point, onto any width.
pub fn authority_handoff_model(n: usize) -> Result<(), String> {
    let h = model_history(n);
    let reference = reference(&h.txns, |i| i as u64 * 7);
    for cut in 0..=h.txns.len() {
        for new_shards in [1usize, 2, 3] {
            let mut first = builder()
                .shards(2)
                .build_sharded_sim(SimSchedule::pathological(cut as u64 ^ 0xA117))
                .map_err(|e| e.to_string())?;
            for (i, txn) in h.txns[..cut].iter().enumerate() {
                first.tick(i as u64 * 7);
                first.feed(txn.clone(), i as u64 * 7);
            }
            let bytes = first.checkpoint().map_err(|e| e.to_string())?;
            let _ = Checker::finish(first); // the interrupted process dies
            let mut resumed = ShardedChecker::restore_sim(
                &bytes,
                Some(new_shards),
                SimSchedule::random(cut as u64 ^ 0xB0B),
            )
            .map_err(|e| e.to_string())?;
            for (i, txn) in h.txns[cut..].iter().enumerate() {
                let at = (cut + i) as u64 * 7;
                resumed.tick(at);
                resumed.feed(txn.clone(), at);
            }
            resumed.tick(u64::MAX);
            let outcome = Checker::finish(resumed);
            compare_outcomes(&reference, &outcome, &format!("cut@{cut} reshard={new_shards}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_history_is_genuinely_violating() {
        let out = reference(&model_history(8).txns, |i| i as u64 * 7);
        assert!(!out.is_ok(), "the planted defects must be visible to the reference checker");
        assert!(out.report.violations.len() >= 2, "expected per-key AND global violations");
    }

    #[test]
    fn tick_broadcasts_never_change_verdicts() {
        // 2^6 masks normally; 2^10 under `--cfg dst_loom`.
        tick_limiter_model(if cfg!(dst_loom) { 10 } else { 6 }).unwrap();
    }

    #[test]
    fn global_check_authority_survives_any_cut_onto_any_width() {
        authority_handoff_model(if cfg!(dst_loom) { 14 } else { 8 }).unwrap();
    }
}
