//! Fixtures for the contracts `cargo clippy` enforces from the root
//! `clippy.toml` and crate attributes (see docs/lint.md).
//!
//! Each `bad_*` item breaks exactly one contract entry and carries an
//! `#[expect]` for it: if that entry stops firing (a toothless or edited
//! `clippy.toml`, a dropped crate attribute), the expectation is left
//! unfulfilled and `cargo clippy --workspace --all-targets -- -D warnings`
//! fails. Each `good_*` item is the sanctioned form and carries nothing,
//! so the same run fails if clippy flags it. The tests only run the
//! fixtures, so they stay compiled and live.
#![deny(clippy::iter_over_hash_type)] // as in aion-{types,core,online,dst}

use aion_types::{FxHashMap, Stopwatch};

// Clock seam.

#[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
fn bad_instant() -> u128 {
    std::time::Instant::now().elapsed().as_millis()
}

#[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
fn bad_system_time() -> bool {
    std::time::SystemTime::now() >= std::time::UNIX_EPOCH
}

fn good_clock() -> u128 {
    Stopwatch::start().elapsed().as_millis()
}

// Transport seam.

#[expect(clippy::disallowed_methods, reason = "fixture: the contract must bite")]
fn bad_thread_spawn() -> u32 {
    std::thread::spawn(|| 1).join().unwrap_or_default()
}

#[expect(clippy::disallowed_methods, reason = "fixture: the contract must bite")]
fn bad_builder_spawn() -> u32 {
    std::thread::Builder::new().spawn(|| 1).ok().and_then(|h| h.join().ok()).unwrap_or_default()
}

#[expect(clippy::disallowed_methods, reason = "fixture: the contract must bite")]
fn bad_unbounded() -> Option<u32> {
    let (tx, rx) = crossbeam::channel::unbounded();
    tx.send(1).ok()?;
    rx.recv().ok()
}

#[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
fn bad_seg_queue_new() -> usize {
    crossbeam::queue::SegQueue::<u32>::new().len()
}

#[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
fn bad_seg_queue_default() -> usize {
    crossbeam::queue::SegQueue::<u32>::default().len()
}

/// A queue built without naming any constructor: the field type is what
/// the type ban catches.
#[derive(Default)]
struct BadQueueHolder {
    #[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
    queue: crossbeam::queue::SegQueue<u32>,
}

// Determinism.

#[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
fn bad_std_hash_map() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}

#[expect(clippy::disallowed_types, reason = "fixture: the contract must bite")]
fn bad_std_hash_set() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

fn bad_hash_order(m: &FxHashMap<u32, u32>, sink: &mut Vec<u32>) {
    #[expect(clippy::iter_over_hash_type, reason = "fixture: the contract must bite")]
    for k in m.keys() {
        sink.push(*k);
    }
}

fn good_sorted_order(m: &FxHashMap<u32, u32>, sink: &mut Vec<u32>) {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        sink.push(k);
    }
}

#[test]
fn bad_fixtures_compile_and_run() {
    assert!(bad_instant() < 60_000);
    assert!(bad_system_time());
    assert_eq!(bad_thread_spawn(), 1);
    assert_eq!(bad_builder_spawn(), 1);
    assert_eq!(bad_unbounded(), Some(1));
    assert_eq!(bad_seg_queue_new() + bad_seg_queue_default(), 0);
    assert_eq!(BadQueueHolder::default().queue.len(), 0);
    assert_eq!(bad_std_hash_map() + bad_std_hash_set(), 0);
    let mut sink = Vec::new();
    bad_hash_order(&FxHashMap::from_iter([(2, 0), (1, 0)]), &mut sink);
    sink.sort_unstable();
    assert_eq!(sink, [1, 2]);
}

#[test]
fn good_fixtures_are_the_sanctioned_forms() {
    assert!(good_clock() < 60_000);
    let mut sink = Vec::new();
    good_sorted_order(&FxHashMap::from_iter([(2, 0), (1, 0)]), &mut sink);
    assert_eq!(sink, [1, 2]);
}
