//! History generation with on-disk caching for the experiment harness.
//!
//! Large histories (up to 1M transactions at `--scale 1`) take a while to
//! generate; experiments reuse them, so generated histories are cached as
//! encoded files under `results/cache/`, keyed by their parameters.

use aion_storage::{MvccStore, TwoPlStore};
use aion_types::{codec, DataKind, History};
use aion_workload::apps::{rubis, tpcc, twitter};
use aion_workload::{run_interleaved, IsolationLevel, TxnTemplate, WorkloadSpec};
use std::path::PathBuf;

/// Where cached histories live.
pub(crate) fn cache_dir() -> PathBuf {
    PathBuf::from("results").join("cache")
}

fn cached(key: &str, build: impl FnOnce() -> History) -> History {
    let dir = cache_dir();
    let path = dir.join(format!("{key}.hist"));
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(h) = codec::decode_history(&bytes) {
            return h;
        }
    }
    let h = build();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(&path, codec::encode_history(&h));
    }
    h
}

/// A default-workload history at the given isolation level (cached).
pub(crate) fn default_history(spec: &WorkloadSpec, level: IsolationLevel) -> History {
    let key = format!(
        "def-{:?}-{}s{}o{}r{}k{}d{}-{:?}-{}",
        level,
        spec.txns,
        spec.sessions,
        spec.ops_per_txn,
        (spec.read_ratio * 100.0) as u32,
        spec.keys,
        spec.dist.label(),
        spec.kind,
        spec.seed
    )
    .replace(' ', "");
    cached(&key, || aion_workload::generate_history(spec, level))
}

/// Which application workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum App {
    /// Twitter clone (growing key space).
    Twitter,
    /// RUBiS auction site.
    Rubis,
    /// TPC-C-lite order entry.
    Tpcc,
}

impl App {
    /// Label used in tables.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            App::Twitter => "Twitter",
            App::Rubis => "RUBiS",
            App::Tpcc => "TPCC",
        }
    }
}

/// Generate (cached) an application history.
pub(crate) fn app_history(app: App, txns: usize, level: IsolationLevel, seed: u64) -> History {
    let key = format!("app-{}-{txns}-{level:?}-{seed}", app.label());
    cached(&key, || {
        let templates: Vec<TxnTemplate> = match app {
            App::Twitter => twitter::twitter_templates(
                txns,
                &twitter::TwitterParams { seed, ..Default::default() },
            ),
            App::Rubis => {
                rubis::rubis_templates(txns, &rubis::RubisParams { seed, ..Default::default() })
            }
            App::Tpcc => {
                tpcc::tpcc_templates(txns, &tpcc::TpccParams { seed, ..Default::default() })
            }
        };
        let sessions = 24;
        match level {
            IsolationLevel::Ser => {
                let store = TwoPlStore::new(DataKind::Kv);
                run_interleaved(&store, &templates, sessions, seed).history
            }
            // SI and everything below it run the MVCC engine.
            _ => {
                let store = MvccStore::new(DataKind::Kv);
                run_interleaved(&store, &templates, sessions, seed).history
            }
        }
    })
}

/// The throughput-experiment spec of §VI-A: #sess=24, #ops/txn=8, and 90 %
/// reads for SER checking (50 % for SI).
pub(crate) fn throughput_spec(txns: usize, ser: bool) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_txns(txns)
        .with_sessions(24)
        .with_ops_per_txn(8)
        .with_read_ratio(if ser { 0.9 } else { 0.5 })
}

/// The key Cobra's fence transactions read-modify-write.
pub(crate) const FENCE_KEY: aion_types::Key = aion_types::Key(1 << 60);

/// A serializable history with a fence transaction woven in every
/// `fence_every` transactions (Cobra requires fences in the client
/// workload — the intrusiveness the paper criticizes). Returns the history
/// and the fence key.
pub(crate) fn cobra_history(txns: usize, fence_every: usize) -> (History, aion_types::Key) {
    let key = format!("cobra-{txns}-f{fence_every}");
    let h = cached(&key, || {
        let spec = throughput_spec(txns, true);
        let base = aion_workload::generate_templates(&spec);
        let fence = TxnTemplate::new(vec![
            aion_workload::OpTemplate::Read(FENCE_KEY),
            aion_workload::OpTemplate::Write(FENCE_KEY),
        ]);
        let mut templates = Vec::with_capacity(base.len() + base.len() / fence_every.max(1) + 1);
        for (i, t) in base.into_iter().enumerate() {
            if fence_every > 0 && i % fence_every == 0 {
                templates.push(fence.clone());
            }
            templates.push(t);
        }
        let store = TwoPlStore::new(DataKind::Kv);
        run_interleaved(&store, &templates, spec.sessions, spec.seed).history
    });
    (h, FENCE_KEY)
}
