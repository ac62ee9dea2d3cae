//! Round-trip property tests: arbitrary generated histories survive
//! `History → {jsonl, binary, dbcop} → History` **identically** — same
//! transactions, same ops, same timestamps, same collection order, same
//! declared per-transaction isolation levels — over the existing
//! `WorkloadSpec` generators at both execution levels and both data
//! kinds (dbcop is register-only, so its leg runs on the kv histories).
//! EDN has no writer in the crate; the golden corpus pins its `:level`
//! leg through the test exporter instead.

use aion_io::{open_stream, read_history_from, write_history, Format, ReaderOptions};
use aion_storage::Anomaly;
use aion_types::{DataKind, History, IsolationLevel};
use aion_workload::{generate_history, LevelMix, WorkloadSpec};
use proptest::prelude::*;

fn roundtrip(h: &History, format: Format) -> History {
    let mut bytes = Vec::new();
    write_history(h, format, &mut bytes).expect("serialize");
    let reader = open_stream(&bytes[..], format, ReaderOptions::default()).expect("open");
    read_history_from(reader).expect("deserialize")
}

fn arb_spec() -> impl Strategy<Value = (WorkloadSpec, IsolationLevel)> {
    (1usize..60, 1usize..7, 2u64..40, 1usize..7, any::<u64>(), 0u8..2, 0u8..2).prop_map(
        |(txns, sessions, keys, ops, seed, level, kind)| {
            let spec = WorkloadSpec::default()
                .with_txns(txns)
                .with_sessions(sessions)
                .with_keys(keys)
                .with_ops_per_txn(ops)
                .with_kind(if kind == 0 { DataKind::Kv } else { DataKind::List })
                .with_seed(seed);
            let level = if level == 0 { IsolationLevel::Si } else { IsolationLevel::Ser };
            (spec, level)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_histories_roundtrip((spec, level) in arb_spec()) {
        let h = generate_history(&spec, level);
        prop_assert_eq!(&roundtrip(&h, Format::Jsonl), &h, "jsonl");
        prop_assert_eq!(&roundtrip(&h, Format::Binary), &h, "binary");
        if h.kind == DataKind::Kv {
            prop_assert_eq!(&roundtrip(&h, Format::Dbcop), &h, "dbcop");
        }
    }

    /// Anomalous histories (weird timestamps, duplicate ids, swapped
    /// session orders) must survive the trip too — the corpus depends
    /// on fixtures carrying their defects byte-faithfully.
    #[test]
    fn injected_histories_roundtrip(
        (spec, level) in arb_spec(),
        which in 0usize..Anomaly::ALL.len(),
        seed in any::<u64>(),
    ) {
        let mut h = generate_history(&spec.with_kind(DataKind::Kv).with_ts_stride(16), level);
        let anomaly = Anomaly::ALL[which];
        anomaly.inject(&mut h, 0.3, seed);
        prop_assert_eq!(&roundtrip(&h, Format::Jsonl), &h, "jsonl/{}", anomaly.name());
        prop_assert_eq!(&roundtrip(&h, Format::Binary), &h, "binary/{}", anomaly.name());
        prop_assert_eq!(&roundtrip(&h, Format::Dbcop), &h, "dbcop/{}", anomaly.name());
    }

    /// Declared per-transaction levels — full mixes, sparse
    /// declarations, and the undeclared default — survive every
    /// writable format losslessly.
    #[test]
    fn declared_levels_roundtrip(
        (spec, level) in arb_spec(),
        (w_rc, w_ra, w_si, w_ser) in (0.0f64..4.0, 0.0f64..4.0, 0.0f64..4.0, 0.0f64..4.0),
        per_txn in any::<bool>(),
        undeclare_every in 0usize..4,
        mix_seed in any::<u64>(),
    ) {
        let mix = LevelMix { rc: w_rc, ra: w_ra, si: w_si, ser: w_ser, per_txn };
        let mut h = generate_history(&spec.with_kind(DataKind::Kv), level);
        mix.stamp(&mut h, mix_seed);
        // Sparse declarations: a real collector only annotates sessions
        // that opted in.
        if undeclare_every > 0 {
            for (i, t) in h.txns.iter_mut().enumerate() {
                if i % (undeclare_every + 1) == 0 {
                    t.level = None;
                }
            }
        }
        for format in [Format::Jsonl, Format::Binary, Format::Dbcop] {
            let back = roundtrip(&h, format);
            prop_assert_eq!(&back, &h, "{}", format);
            for (a, b) in back.txns.iter().zip(&h.txns) {
                prop_assert_eq!(a.level, b.level, "{}: level dropped", format);
            }
        }
        // Determinism of the stamp itself (same mix + seed → same levels).
        let mut twin = generate_history(&spec.with_kind(DataKind::Kv), level);
        mix.stamp(&mut twin, mix_seed);
        if undeclare_every == 0 {
            prop_assert_eq!(&twin, &h, "stamping must be deterministic");
            prop_assert!(twin.txns.iter().all(|t| t.level.is_some()));
        }
        // Per-session mixes keep one level per session.
        if !per_txn && undeclare_every == 0 {
            let mut per_sid: std::collections::BTreeMap<u32, IsolationLevel> = Default::default();
            for t in &h.txns {
                let l = t.level.expect("stamped");
                let prev = per_sid.insert(t.sid.0, l);
                prop_assert!(prev.is_none() || prev == Some(l), "session changed level");
            }
        }
    }
}
