//! # aion — the facade crate
//!
//! One import surface over the whole isolation-checking workspace, a
//! Rust reproduction of *"Online Timestamp-based Transactional Isolation
//! Checking of Database Systems"* (ICDE 2025). Applications depend on
//! this crate alone; the implementation crates stay independently
//! usable.
//!
//! ## Crate map
//!
//! | module | backing crate | contents |
//! |--------|---------------|----------|
//! | [`types`] | `aion-types` | timestamps, transactions, histories, violations, the [`Checker`](prelude::Checker) session API |
//! | [`offline`] | `aion-core` | CHRONOS: offline SI/SER checkers (paper Algorithms 1–2, §VI-A) |
//! | [`online`] | `aion-online` | AION / AION-SER: online checkers over out-of-order streams (Algorithm 3) |
//! | [`storage`] | `aion-storage` | MVCC-SI and strict-2PL engines, timestamp oracles, fault injection |
//! | [`workload`] | `aion-workload` | the paper's Table I workload, list workloads, Twitter/RUBiS/TPC-C-lite |
//! | [`baselines`] | `aion-baselines` | Elle, Emme, PolySI, Viper, Cobra reconstructions |
//! | [`io`] | `aion-io` | history interchange (JSONL/binary/dbcop/EDN) and streaming file ingestion |
//! | [`serve`] | `aion-serve` | the multi-tenant online checking daemon: TCP ingestion, named sessions, checkpoint/restore (`docs/serve.md`) |
//!
//! ## The streaming session API
//!
//! Every checker — online AION, offline CHRONOS, and the baseline
//! adapters — implements one trait, [`prelude::Checker`]:
//!
//! * `feed(txn, now_ms)` advances the clock to `now_ms`, then ingests one
//!   transaction, returning the typed [`prelude::CheckEvent`]s both produced
//!   (EXT finalizations, definitive violations, verdict flip-flops, GC passes);
//! * `tick(now_ms)` is for idle time and `tick(u64::MAX)` at end of stream;
//! * `finish()` closes the session into the uniform [`prelude::Outcome`].
//!
//! Offline checkers buffer in `feed` and do all work in `finish`; the
//! online checker emits verdicts *while* the history streams in, which
//! is the paper's core claim. Drivers like
//! [`online::run_plan`](prelude::run_plan) are generic over the trait,
//! so one arrival plan can be replayed through any checker and the
//! event timelines compared.
//!
//! ## Quickstart
//!
//! ```
//! use aion::prelude::*;
//!
//! // Generate a small SI history from the paper's workload generator...
//! let spec = WorkloadSpec::default().with_txns(200).with_sessions(8).with_keys(32);
//! let history = generate_history(&spec, IsolationLevel::Si);
//!
//! // ...check it offline with CHRONOS...
//! let outcome = check_si(&history, &ChronosOptions::default());
//! assert!(outcome.is_ok());
//!
//! // ...and online with AION: `feed` carries the clock, so events stream as arrivals come in.
//! let mut checker = OnlineChecker::builder()
//!     .level(IsolationLevel::Si)
//!     .ext_timeout_ms(5_000)
//!     .build()
//!     .expect("config");
//! for (i, txn) in history.txns.iter().enumerate() {
//!     for event in checker.feed(txn.clone(), i as u64) {
//!         println!("[{i}] {event}");
//!     }
//! }
//! assert!(checker.finish().is_ok());
//! ```
//!
//! For parallel checking, [`prelude::ShardedChecker`] runs the same
//! session API over N key-partitioned worker threads — see
//! `docs/architecture.md` and the `sharded_monitoring` example.
//!
//! See `examples/` for end-to-end tours: `quickstart`,
//! `online_monitoring` (streaming verdicts + GC), `sharded_monitoring`
//! (parallel checking), `write_skew`, `fault_injection`,
//! `list_histories`, and `twitter_audit`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(rust_2018_idioms)]

pub use aion_baselines as baselines;
pub use aion_core as offline;
pub use aion_io as io;
pub use aion_online as online;
pub use aion_serve as serve;
pub use aion_storage as storage;
pub use aion_types as types;
pub use aion_workload as workload;

pub mod prelude {
    //! The common vocabulary: `use aion::prelude::*` and start checking.
    //!
    //! Brings in the domain types, the [`Checker`] session API, both
    //! CHRONOS entry points, the AION online checker with its builder,
    //! the storage engines and the workload generators. Baseline
    //! checkers stay behind [`crate::baselines`] to keep the namespace
    //! tidy.

    pub use aion_types::{
        apply, expected_read, AxiomKind, CheckEvent, CheckReport, Checker, CheckerStats, DataKind,
        EventKey, ExtPredicate, FlipSummary, History, HistoryStats, IsolationLevel, Key,
        LevelChecks, LevelPolicy, Outcome, ReadAnchor, SessionId, SessionPredicate, Snapshot,
        Timestamp, Transaction, TxnBuilder, TxnId, Value, Violation,
    };

    pub use aion_core::{
        check_ra, check_ra_consuming, check_ra_report, check_rc, check_rc_consuming,
        check_rc_report, check_ser, check_ser_consuming, check_ser_report, check_si,
        check_si_consuming, check_si_report, ChronosChecker, ChronosOptions, ChronosOutcome,
        GcPolicy, StageTimings,
    };

    pub use aion_online::{
        feed_plan, route_txn, run_plan, AionConfig, Arrival, ConfigError, FeedConfig,
        OnlineChecker, OnlineCheckerBuilder, OnlineGcPolicy, OnlineRunReport, RoutedTxn,
        ShardConfig, ShardedChecker,
    };

    pub use aion_storage::{
        inject_clock_skew, inject_clock_skew_at, Anomaly, AnomalyProfile, CentralOracle,
        CommitError, Expected, FaultPlan, MvccStore, MvccTxn, Oracle, Recorder, SkewTarget,
        SkewedHlcOracle, Store, StoreStats, StoreTxn, TwoPlStore, TwoPlTxn, ViolationKind,
    };

    pub use aion_workload::{
        generate_faulty_history, generate_history, generate_templates, run_interleaved,
        run_templates, table1, KeyDist, LevelMix, OpTemplate, RunReport, TxnTemplate, WorkloadSpec,
    };

    pub use aion_io::{
        open_path, open_sniffed_stream, open_stream, read_history, stream_check, verdict_of,
        write_history, write_history_to_path, Format, HistoryReader, IoFormatError, ReaderOptions,
        StreamReport,
    };

    pub use aion_serve::{Registry, ServeConfig, ServeError, Server};
}
