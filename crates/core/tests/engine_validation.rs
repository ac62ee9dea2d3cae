//! CHRONOS validated against the storage engines and workload generators:
//! the checker and the substrate were written independently, so agreement
//! is meaningful end-to-end evidence for both.

use aion_core::{check_si, check_si_consuming, check_si_report, ChronosOptions, GcPolicy};
use aion_storage::{inject_clock_skew, FaultPlan, MvccStore, SkewedHlcOracle};
use aion_types::{codec, AxiomKind, DataKind, Violation};
use aion_workload::{
    generate_faulty_history, generate_history, generate_templates, run_interleaved, IsolationLevel,
    KeyDist, WorkloadSpec,
};

fn base_spec() -> WorkloadSpec {
    WorkloadSpec::default().with_txns(3_000).with_sessions(16).with_ops_per_txn(8).with_keys(64)
}

#[test]
fn every_distribution_checks_clean() {
    for dist in [KeyDist::Uniform, KeyDist::Zipfian, KeyDist::Hotspot] {
        let h = generate_history(&base_spec().with_dist(dist), IsolationLevel::Si);
        let r = check_si_report(&h);
        assert!(r.is_ok(), "{dist:?}: {r}");
    }
}

#[test]
fn all_gc_policies_agree_on_large_history() {
    let h = generate_history(&base_spec(), IsolationLevel::Si);
    let reference = check_si(&h, &ChronosOptions::with_gc(GcPolicy::Never)).report;
    for gc in [GcPolicy::Fast, GcPolicy::EveryN(100), GcPolicy::EveryN(1000)] {
        let r = check_si(&h, &ChronosOptions::with_gc(gc)).report;
        assert_eq!(r.violations, reference.violations, "{gc:?}");
    }
}

#[test]
fn checking_survives_codec_roundtrip() {
    let h = generate_history(&base_spec(), IsolationLevel::Si);
    let bytes = codec::encode_history(&h);
    let loaded = codec::decode_history(&bytes).expect("decodes");
    let a = check_si_consuming(loaded, &ChronosOptions::default());
    let b = check_si(&h, &ChronosOptions::default());
    assert_eq!(a.report.violations, b.report.violations);
    assert_eq!(a.txns, b.txns);
}

#[test]
fn decentralized_clock_skew_is_caught() {
    // Paper Appendix A/B + §V-D: decentralized timestamps with skew cause
    // "snapshot unavailability" — a transaction can commit with a
    // timestamp *below* an earlier reader's snapshot, so the reader
    // provably missed a version it should have seen. With zero skew the
    // HLC oracle is as good as the centralized one; with skew, CHRONOS
    // must catch the fallout (the YugabyteDB clock-skew bug class).
    let spec = base_spec().with_txns(1_000);
    let templates = generate_templates(&spec);

    let healthy = SkewedHlcOracle::new(&[0, 0, 0]);
    let store = MvccStore::with_oracle(DataKind::Kv, Box::new(healthy));
    let h = run_interleaved(&store, &templates, spec.sessions, 3).history;
    let r = check_si_report(&h);
    assert!(r.is_ok(), "zero skew must be clean: {}", r.summary());

    let skewed = SkewedHlcOracle::new(&[0, 500, -500, 1_000]);
    let store = MvccStore::with_oracle(DataKind::Kv, Box::new(skewed));
    let h = run_interleaved(&store, &templates, spec.sessions, 3).history;
    let r = check_si_report(&h);
    assert!(!r.is_ok(), "skewed clocks must produce detectable violations");
    assert!(r.count(AxiomKind::Ext) > 0, "missed snapshots manifest as EXT: {}", r.summary());
}

#[test]
fn fault_classes_map_to_expected_axioms() {
    let spec = base_spec().with_txns(5_000);
    let lost = generate_faulty_history(
        &spec,
        FaultPlan { lost_update_rate: 0.02, seed: 3, ..FaultPlan::default() },
    );
    let r = check_si_report(&lost);
    assert!(r.count(AxiomKind::NoConflict) > 0);
    assert_eq!(r.count(AxiomKind::Int), 0);

    let stale = generate_faulty_history(
        &spec,
        FaultPlan { stale_read_rate: 0.02, seed: 3, ..FaultPlan::default() },
    );
    let r = check_si_report(&stale);
    assert!(r.count(AxiomKind::Ext) > 0);
    assert_eq!(r.count(AxiomKind::NoConflict), 0);

    let hidden = generate_faulty_history(
        &spec,
        FaultPlan { int_anomaly_rate: 0.02, seed: 3, ..FaultPlan::default() },
    );
    let r = check_si_report(&hidden);
    assert!(r.count(AxiomKind::Int) > 0);

    let mut skewed = generate_history(&spec, IsolationLevel::Si);
    assert!(inject_clock_skew(&mut skewed, 0.01, 100, 3) > 0);
    let r = check_si_report(&skewed);
    assert!(!r.is_ok(), "skewed timestamps must violate something");
}

#[test]
fn conflict_pairs_are_never_duplicated() {
    let h = generate_faulty_history(
        &base_spec().with_txns(4_000).with_keys(16),
        FaultPlan { lost_update_rate: 0.05, seed: 9, ..FaultPlan::default() },
    );
    let r = check_si_report(&h);
    let mut pairs = std::collections::BTreeSet::new();
    for v in &r.violations {
        if let Violation::NoConflict { key, t1, t2 } = v {
            let norm = if t1.0 < t2.0 { (*key, *t1, *t2) } else { (*key, *t2, *t1) };
            assert!(pairs.insert(norm), "duplicate conflict report {v}");
        }
    }
    assert!(!pairs.is_empty());
}

#[test]
fn list_engine_histories_check_clean_at_scale() {
    let spec = base_spec().with_txns(2_000).with_kind(DataKind::List).with_read_ratio(0.4);
    let h = generate_history(&spec, IsolationLevel::Si);
    assert!(h.stats().writes > 0);
    let r = check_si_report(&h);
    assert!(r.is_ok(), "{r}");
}
