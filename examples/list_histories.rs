//! List histories: the paper's second data type (§IV-B — TiDB/YugabyteDB
//! model lists as comma-separated TEXT columns with `INSERT ... ON
//! DUPLICATE KEY UPDATE` appends). Appends make version order *observable*
//! (every read reveals the whole prefix), which is why ElleList is exact
//! where ElleKV is not — and checking splits naturally into a prefix (EXT)
//! and a suffix (INT) obligation.
//!
//! ```text
//! cargo run --release --example list_histories
//! ```

use aion::baselines::{check_elle_list, Level};
use aion::prelude::*;

fn main() {
    // A healthy list workload on the MVCC engine.
    let spec = WorkloadSpec::default()
        .with_txns(5_000)
        .with_sessions(16)
        .with_ops_per_txn(6)
        .with_keys(64)
        .with_kind(DataKind::List)
        .with_read_ratio(0.4);
    let history = generate_history(&spec, IsolationLevel::Si);
    let stats = history.stats();
    println!("list history: {} txns, {} ops over {} keys", stats.txns, stats.ops, stats.keys);

    let chronos = check_si(&history, &ChronosOptions::default());
    let elle = check_elle_list(&history, Level::Si);
    println!(
        "CHRONOS: {}   ElleList: {}",
        chronos.report.summary(),
        if elle.accepted { "ACCEPT" } else { "REJECT" }
    );
    assert!(chronos.is_ok() && elle.is_ok());

    // Hand-crafted anomalies show the EXT/INT split.
    let k = Key(1);

    // 1. Lost prefix: the transaction sees its own append but not the
    //    committed prefix — the snapshot was wrong → EXT.
    let mut h = History::new(DataKind::List);
    h.push(TxnBuilder::new(1).session(0, 0).interval(1, 2).append(k, Value(10)).build());
    h.push(
        TxnBuilder::new(2)
            .session(1, 0)
            .interval(3, 4)
            .append(k, Value(20))
            .read_list(k, vec![Value(20)]) // missing the committed [10]
            .build(),
    );
    let r = check_si_report(&h);
    println!("lost prefix   → {}", r.summary());
    assert_eq!(r.count(AxiomKind::Ext), 1);

    // 2. Lost append: the transaction loses its *own* write → INT.
    let mut h = History::new(DataKind::List);
    h.push(
        TxnBuilder::new(1)
            .session(0, 0)
            .interval(1, 2)
            .append(k, Value(10))
            .read_list(k, vec![]) // own append invisible
            .build(),
    );
    let r = check_si_report(&h);
    println!("lost append   → {}", r.summary());
    assert_eq!(r.count(AxiomKind::Int), 1);

    // 3. Concurrent appenders: NOCONFLICT, even though no read observes it.
    let mut h = History::new(DataKind::List);
    h.push(TxnBuilder::new(1).session(0, 0).interval(1, 4).append(k, Value(1)).build());
    h.push(TxnBuilder::new(2).session(1, 0).interval(2, 5).append(k, Value(2)).build());
    let r = check_si_report(&h);
    println!("overlap write → {}", r.summary());
    assert_eq!(r.count(AxiomKind::NoConflict), 1);

    // Online: the append cascade re-derives published lists when a base
    // arrives late (see aion-online's checker docs).
    let mut ck = OnlineChecker::builder().kind(DataKind::List).build().expect("open session");
    ck.feed(TxnBuilder::new(2).session(0, 0).interval(3, 4).append(k, Value(20)).build(), 0);
    ck.feed(
        TxnBuilder::new(3)
            .session(1, 0)
            .interval(5, 6)
            .read_list(k, vec![Value(10), Value(20)])
            .build(),
        1,
    );
    // The reader looks wrong until the first appender shows up...
    ck.feed(TxnBuilder::new(1).session(2, 0).interval(1, 2).append(k, Value(10)).build(), 2);
    let out = ck.finish();
    println!("out-of-order  → {}", out.report.summary());
    assert!(out.is_ok());
}
