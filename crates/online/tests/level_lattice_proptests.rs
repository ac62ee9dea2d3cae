//! Lattice-monotonicity property tests: for every anomaly injector and
//! seed, the *set of violation kinds* the online checker detects at a
//! level `L` is a subset of what it detects at any comparable stronger
//! level `L' ≥ L` — on the axes the two levels share.
//!
//! Which pairs are comparable is exactly `IsolationLevel`'s partial
//! order (`RC < RA < SI` and `RC < SER`; `SI`/`SER` and `RA`/`SER` are
//! incomparable — the read anchors differ, so neither EXT set contains
//! the other: start-side clock skew is EXT at SI and invisible at SER,
//! write skew the reverse). On comparable pairs the subset property
//! covers every axis: INT and collection integrity are
//! level-independent; RC's membership EXT accepts whatever a stronger
//! frontier EXT accepts (the frontier *is* a member); RC's
//! commit-ordered SESSION accepts whatever the snapshot-ordered one
//! does (Eq. 1 chains `commit ≥ start ≥ last_cts`, strictly on
//! collision-free histories); and NOCONFLICT only exists at SI, so the
//! subset is trivial from below. Across *every* pair — comparable or
//! not — the INT and INTEGRITY kind sets must be *equal*, because
//! those predicates are byte-identical at all levels.
//!
//! Comparing *kind sets* (not violation multisets) makes the property
//! robust to per-level differences in how many instances of one class
//! fire, while still catching any checker whose weaker level invents a
//! violation class its stronger sibling cannot see.

use aion_online::{feed_plan, run_plan, FeedConfig, OnlineChecker};
use aion_storage::Anomaly;
use aion_types::{AxiomKind, DataKind, FxHashSet, History, IsolationLevel, Key, TxnBuilder, Value};
use aion_workload::{generate_history, WorkloadSpec};
use proptest::prelude::*;

fn base(seed: u64) -> History {
    let spec = WorkloadSpec::default()
        .with_txns(240)
        .with_sessions(12)
        .with_ops_per_txn(6)
        .with_keys(48)
        .with_ts_stride(16)
        .with_seed(seed);
    generate_history(&spec, IsolationLevel::Si)
}

fn kinds_at(h: &History, level: IsolationLevel) -> FxHashSet<AxiomKind> {
    let plan = feed_plan(h, &FeedConfig::default());
    let ck = OnlineChecker::builder().level(level).build().expect("in-memory session");
    run_plan(ck, &plan).outcome.report.violations.iter().map(|v| v.kind()).collect()
}

/// Every axiom axis: on comparable pairs, detection at the weaker
/// level must be a subset of detection at the stronger one across all
/// of these.
const ALL_AXES: &[AxiomKind] = &[
    AxiomKind::Session,
    AxiomKind::Int,
    AxiomKind::Ext,
    AxiomKind::NoConflict,
    AxiomKind::Integrity,
];

/// The level-independent axes: identical predicates at every level, so
/// detection must be *equal* across any pair, comparable or not.
const STABLE_AXES: &[AxiomKind] = &[AxiomKind::Int, AxiomKind::Integrity];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The monotonicity property itself, over every injector.
    #[test]
    fn detection_is_monotone_along_the_lattice(seed in 0u64..500, base_seed in 0u64..4) {
        let valid = base(7 + base_seed);
        let mut histories: Vec<(String, History)> = vec![("none".into(), valid.clone())];
        for &a in Anomaly::ALL {
            let mut h = valid.clone();
            if a.inject(&mut h, 0.3, seed) > 0 {
                histories.push((a.name().into(), h));
            }
        }
        for (name, h) in &histories {
            let detected: Vec<(IsolationLevel, FxHashSet<AxiomKind>)> =
                IsolationLevel::ALL.iter().map(|&l| (l, kinds_at(h, l))).collect();
            for (weak, weak_kinds) in &detected {
                for (strong, strong_kinds) in &detected {
                    if weak.partial_cmp(strong) == Some(std::cmp::Ordering::Less) {
                        for axis in ALL_AXES {
                            prop_assert!(
                                !weak_kinds.contains(axis) || strong_kinds.contains(axis),
                                "{name}: {axis} detected at {weak} but not at {strong} \
                                 (weak {weak_kinds:?}, strong {strong_kinds:?})"
                            );
                        }
                    } else {
                        // Incomparable (or reversed) pairs still share
                        // the level-independent axes exactly.
                        for axis in STABLE_AXES {
                            prop_assert!(
                                weak_kinds.contains(axis) == strong_kinds.contains(axis),
                                "{name}: {axis} differs between {weak} and {strong}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A valid SI-executed history must be clean at SI and everything
    /// below it — the "valid histories stay valid downward" face of the
    /// same lattice.
    #[test]
    fn valid_histories_are_clean_at_and_below_their_level(base_seed in 0u64..8) {
        let valid = base(100 + base_seed);
        for &level in &[
            IsolationLevel::ReadCommitted,
            IsolationLevel::ReadAtomic,
            IsolationLevel::Si,
        ] {
            let kinds = kinds_at(&valid, level);
            prop_assert!(kinds.is_empty(), "valid SI history dirty at {level}: {kinds:?}");
        }
    }
}

/// The shape that separates the two SESSION predicates: a successor
/// that starts before its predecessor commits (`start 5 < last_cts 10`)
/// but commits after it (`11 > 10`). Snapshot order (RA, SI) flags it;
/// commit order (RC, SER) accepts it. Generated workloads never produce
/// this shape, so this is what pins each level's predicate in the table.
#[test]
fn session_predicates_separate_on_an_overlapping_successor() {
    let h = History {
        kind: DataKind::Kv,
        txns: vec![
            TxnBuilder::new(1).session(0, 0).interval(1, 10).put(Key(1), Value(1)).build(),
            TxnBuilder::new(2).session(0, 1).interval(5, 11).read(Key(2), Value(0)).build(),
        ],
    };
    for &level in IsolationLevel::ALL {
        let expected = match level {
            IsolationLevel::ReadAtomic | IsolationLevel::Si => 1,
            IsolationLevel::ReadCommitted | IsolationLevel::Ser => 0,
            other => unreachable!("no SESSION expectation for {other}"),
        };
        let chronos = aion_core::check(&h, level, &aion_core::ChronosOptions::default());
        assert_eq!(chronos.report.count(AxiomKind::Session), expected, "CHRONOS at {level}");
        let plan = feed_plan(&h, &FeedConfig::default());
        let ck = OnlineChecker::builder().level(level).build().expect("in-memory session");
        let online = run_plan(ck, &plan).outcome.report;
        assert_eq!(online.count(AxiomKind::Session), expected, "AION at {level}");
    }
}
