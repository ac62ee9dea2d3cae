//! End-to-end daemon tests over real loopback TCP: the full
//! serve → feed → checkpoint → kill → restore → verdict cycle the CI
//! smoke job also exercises, plus wire-level error behaviour.

use aion_serve::{client, ServeConfig, Server};
use std::path::PathBuf;

fn corpus(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../io/tests/corpus").join(name)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aion-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(cfg: ServeConfig) -> (String, aion_serve::ServerHandle) {
    let server = Server::bind(cfg).unwrap();
    let addr = server.local_addr().to_string();
    (addr, server.spawn().unwrap())
}

fn stop(addr: &str, handle: aion_serve::ServerHandle) {
    client::shutdown(addr).unwrap();
    handle.join().unwrap();
}

/// The recount oracle's figure for a default session fed `fixture` the
/// way the daemon feeds it: arrival *n* at virtual time *n*, tick first.
/// (The oracle exists only where debug assertions do.)
#[cfg(debug_assertions)]
fn recounted_bytes(fixture: &str) -> u64 {
    use aion_types::Checker;
    let file = std::io::BufReader::new(std::fs::File::open(corpus(fixture)).unwrap());
    let opts = aion_io::ReaderOptions { strict: false, kind_hint: None };
    let (_, mut reader) = aion_io::open_sniffed_stream(file, opts).unwrap();
    let mut twin = aion_online::OnlineChecker::builder().build().unwrap();
    let mut now = 0;
    while let Some(txn) = reader.next_txn().unwrap() {
        twin.tick(now);
        twin.feed(txn, now);
        now += 1;
    }
    twin.recount_memory_bytes() as u64
}

#[test]
fn valid_and_anomalous_fixtures_get_the_recorded_verdicts() {
    let (addr, handle) = start(ServeConfig::default());
    client::ping(&addr).unwrap();

    // Two tenants with different formats, checked concurrently.
    client::open(&addr, "good", &client::OpenOptions::default()).unwrap();
    client::open(&addr, "bad", &client::OpenOptions { shards: Some(2), ..Default::default() })
        .unwrap();

    let fed = client::feed_path(&addr, "good", corpus("valid_kv_si.jsonl"), false).unwrap();
    assert!(fed.int_field("txns").unwrap() > 0);
    assert_eq!(fed.str_field("format"), Some("jsonl"));
    // The reply's estimate is a sum of maintained counters; it must be
    // the figure a full walk over the same state produces.
    #[cfg(debug_assertions)]
    assert_eq!(fed.int_field("memory_bytes"), Some(recounted_bytes("valid_kv_si.jsonl")));
    // The anomalous history rides the binary format: the socket sniffer
    // must detect it without a file extension.
    let fed = client::feed_path(&addr, "bad", corpus("lost-update_si.bin"), true).unwrap();
    assert_eq!(fed.str_field("format"), Some("bin"));

    let list = client::list(&addr).unwrap();
    assert!(list.terminal.get("sessions").is_some());

    let good = client::finish(&addr, "good").unwrap();
    assert_eq!(good.str_field("verdict"), Some("ok"));
    let bad = client::finish(&addr, "bad").unwrap();
    assert_ne!(bad.str_field("verdict"), Some("ok"));
    assert!(bad.int_field("violations").unwrap() > 0);

    stop(&addr, handle);
}

#[test]
fn events_stream_back_during_the_feed() {
    let (addr, handle) = start(ServeConfig::default());
    client::open(&addr, "s", &client::OpenOptions::default()).unwrap();
    // duplicate-tid commits its violation at arrival, so the event must
    // arrive mid-feed, before the terminal line.
    let fed = client::feed_path(&addr, "s", corpus("duplicate-tid_si.jsonl"), true).unwrap();
    assert!(
        fed.events.iter().any(|e| { e.get("event").and_then(|v| v.as_str()) == Some("violation") }),
        "expected a mid-stream violation event, got {:?}",
        fed.events
    );
    client::finish(&addr, "s").unwrap();
    stop(&addr, handle);
}

/// The keystone cycle: feed half a history, checkpoint, hard-kill the
/// daemon (drop it without finishing anything), start a *new* daemon,
/// restore, feed the second half, and require the verdict an
/// uninterrupted session produces.
#[test]
fn checkpoint_survives_a_daemon_restart() {
    let dir = scratch("restart");
    let snap = dir.join("mid.ckpt");
    let snap = snap.to_str().unwrap();

    let raw = std::fs::read(corpus("write-skew_si.jsonl")).unwrap();
    let lines: Vec<&[u8]> = raw.split_inclusive(|&b| b == b'\n').collect();
    let (header, body) = (lines[0], &lines[1..]);
    let mid = body.len() / 2;
    let mut first = header.to_vec();
    body[..mid].iter().for_each(|l| first.extend_from_slice(l));
    let mut second = header.to_vec();
    body[mid..].iter().for_each(|l| second.extend_from_slice(l));

    // Uninterrupted reference run, same daemon config.
    let (addr, handle) = start(ServeConfig::default());
    client::open(&addr, "ref", &client::OpenOptions::default()).unwrap();
    client::feed_bytes(&addr, "ref", &raw, false).unwrap();
    let reference = client::finish(&addr, "ref").unwrap();

    // Interrupted run: first half, checkpoint, kill the daemon.
    client::open(&addr, "live", &client::OpenOptions::default()).unwrap();
    client::feed_bytes(&addr, "live", &first, false).unwrap();
    let ck = client::checkpoint(&addr, "live", snap).unwrap();
    assert_eq!(ck.str_field("kind"), Some("single"));
    stop(&addr, handle); // daemon gone, session state gone with it

    // Fresh daemon: restore and finish the stream.
    let (addr, handle) = start(ServeConfig::default());
    client::restore(&addr, "live", snap, None).unwrap();
    client::feed_bytes(&addr, "live", &second, false).unwrap();
    let resumed = client::finish(&addr, "live").unwrap();

    assert_eq!(resumed.str_field("verdict"), reference.str_field("verdict"));
    assert_eq!(resumed.int_field("txns"), reference.int_field("txns"));
    assert_eq!(resumed.int_field("violations"), reference.int_field("violations"));
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sharded sessions checkpoint and restore across a shard-count change.
#[test]
fn sharded_checkpoint_restores_onto_a_different_worker_count() {
    let dir = scratch("reshard");
    let snap = dir.join("sharded.ckpt");
    let snap = snap.to_str().unwrap();

    let (addr, handle) = start(ServeConfig::default());
    let sharded = client::OpenOptions { shards: Some(2), ..Default::default() };
    client::open(&addr, "ref", &sharded).unwrap();
    client::feed_path(&addr, "ref", corpus("read-skew_si.jsonl"), false).unwrap();
    let reference = client::finish(&addr, "ref").unwrap();

    client::open(&addr, "live", &sharded).unwrap();
    client::feed_path(&addr, "live", corpus("read-skew_si.jsonl"), false).unwrap();
    let ck = client::checkpoint(&addr, "live", snap).unwrap();
    assert_eq!(ck.str_field("kind"), Some("sharded"));
    client::finish(&addr, "live").unwrap();

    client::restore(&addr, "wider", snap, Some(3)).unwrap();
    let resumed = client::finish(&addr, "wider").unwrap();
    assert_eq!(resumed.str_field("verdict"), reference.str_field("verdict"));
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_errors_are_typed_and_do_not_kill_the_daemon() {
    let (addr, handle) = start(ServeConfig::default());

    // Unknown session.
    let err = client::finish(&addr, "ghost").unwrap_err();
    assert!(matches!(err, aion_serve::ServeError::UnknownSession(_)), "{err}");

    // Duplicate open.
    client::open(&addr, "dup", &client::OpenOptions::default()).unwrap();
    let err = client::open(&addr, "dup", &client::OpenOptions::default()).unwrap_err();
    assert!(matches!(err, aion_serve::ServeError::DuplicateSession(_)), "{err}");

    // Unparseable history bytes.
    let err = client::feed_bytes(&addr, "dup", b"\x00\x01garbage\x02", false).unwrap_err();
    assert!(matches!(err, aion_serve::ServeError::Protocol(_)), "{err}");

    // Bad level token.
    let err = client::open(
        &addr,
        "x",
        &client::OpenOptions { level: Some("chaotic".into()), ..Default::default() },
    )
    .unwrap_err();
    assert!(matches!(err, aion_serve::ServeError::Protocol(_)), "{err}");

    // Restoring from a non-snapshot file is a typed snapshot error.
    let dir = scratch("badsnap");
    let bogus = dir.join("not-a-snapshot");
    std::fs::write(&bogus, b"AIONCKPT but then garbage garbage garbage").unwrap();
    let err = client::restore(&addr, "y", bogus.to_str().unwrap(), None).unwrap_err();
    assert!(matches!(err, aion_serve::ServeError::Protocol(_)), "{err}");

    // After all that abuse the daemon still works.
    client::feed_path(&addr, "dup", corpus("valid_kv_si.jsonl"), false).unwrap();
    let done = client::finish(&addr, "dup").unwrap();
    assert_eq!(done.str_field("verdict"), Some("ok"));
    stop(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hard_backpressure_travels_the_wire() {
    let (addr, handle) =
        start(ServeConfig { soft_limit_bytes: 0, hard_limit_bytes: 0, ..ServeConfig::default() });
    client::open(&addr, "t", &client::OpenOptions::default()).unwrap();
    // First feed populates the memory estimate; afterwards the zero
    // hard ceiling refuses everything.
    let fed = client::feed_path(&addr, "t", corpus("valid_kv_si.jsonl"), false).unwrap();
    assert_eq!(fed.str_field("pressure"), Some("soft"));
    let err = client::feed_path(&addr, "t", corpus("valid_kv_si.jsonl"), false).unwrap_err();
    assert!(matches!(err, aion_serve::ServeError::Backpressure { .. }), "{err}");
    // The session is still live and finishable.
    let done = client::finish(&addr, "t").unwrap();
    assert_eq!(done.str_field("verdict"), Some("ok"));
    stop(&addr, handle);
}

// ---------------------------------------------------------------------
// Registry soak under a simulated clock (no TCP, no wall-clock sleeps).
//
// These drive the public `Registry` API directly with a SimClock so
// idle eviction, backpressure transitions and virtual-arrival-clock
// continuity are pure functions of the seed — the DST counterpart of
// the socket tests above.
// ---------------------------------------------------------------------

mod sim_registry {
    use aion_serve::{OpenParams, Registry, ServeError};
    use aion_types::rng::SplitMix64;
    use aion_types::{DataKind, History, Key, SimClock, TxnBuilder, Value};
    use std::sync::Arc;

    fn hist_bytes(n: u64, anomalous: bool) -> Vec<u8> {
        let mut h = History::new(DataKind::Kv);
        for i in 0..n {
            h.push(
                TxnBuilder::new(i + 1)
                    .session(0, i as u32)
                    .interval(2 * i + 1, 2 * i + 2)
                    .put(Key(i % 8), Value(i))
                    .build(),
            );
        }
        if anomalous {
            h.push(
                TxnBuilder::new(n + 1)
                    .session(1, 0)
                    .interval(2 * n + 1, 2 * n + 2)
                    .read(Key(0), Value(999_999))
                    .build(),
            );
        }
        let mut bytes = Vec::new();
        aion_io::write_history(&h, aion_io::Format::Jsonl, &mut bytes).unwrap();
        bytes
    }

    fn feed(
        reg: &Registry,
        name: &str,
        bytes: &[u8],
    ) -> Result<aion_serve::registry::FeedSummary, ServeError> {
        let mut reader =
            aion_io::open_stream(bytes, aion_io::Format::Jsonl, aion_io::ReaderOptions::default())
                .unwrap();
        reg.feed(name, reader.as_mut(), |_| Ok(()))
    }

    #[test]
    fn idle_eviction_follows_the_simulated_clock_not_wall_time() {
        let clock = SimClock::at(0);
        let reg = Registry::new(usize::MAX, usize::MAX)
            .with_clock(Arc::new(clock.clone()))
            .with_idle_eviction(1_000);
        reg.open("idle", &OpenParams::default()).unwrap();
        reg.open("active", &OpenParams::default()).unwrap();

        // Inside the window nothing is reclaimed.
        clock.advance(600);
        assert!(reg.evict_idle().is_empty());

        // Feeding "active" re-stamps it; "idle" ages past the window.
        feed(&reg, "active", &hist_bytes(4, false)).unwrap();
        clock.advance(600);
        assert_eq!(reg.evict_idle(), vec!["idle".to_owned()]);
        assert!(matches!(reg.stats("idle"), Err(ServeError::UnknownSession(_))));
        let (outcome, txns) = reg.finish("active").unwrap();
        assert!(outcome.is_ok());
        assert_eq!(txns, 4);
    }

    #[test]
    fn hard_backpressure_recovers_after_idle_eviction() {
        let clock = SimClock::at(0);
        // Zero ceilings: every resident byte is over the line, exactly
        // like the wire-level backpressure test above.
        let reg = Registry::new(0, 0).with_clock(Arc::new(clock.clone())).with_idle_eviction(500);
        reg.open("a", &OpenParams::default()).unwrap();
        let s = feed(&reg, "a", &hist_bytes(4, false)).unwrap();
        assert!(s.soft_pressure, "soft ceiling flags the first feed");

        // With "a" resident, the hard ceiling refuses the next tenant…
        reg.open("b", &OpenParams::default()).unwrap();
        let err = feed(&reg, "b", &hist_bytes(4, false)).unwrap_err();
        assert!(matches!(err, ServeError::Backpressure { .. }), "{err}");

        // …until the idle window elapses on the virtual clock and
        // eviction reclaims the memory.
        clock.advance(1_000);
        let evicted = reg.evict_idle();
        assert_eq!(evicted, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(reg.total_memory_bytes(), 0);
        reg.open("c", &OpenParams::default()).unwrap();
        let s = feed(&reg, "c", &hist_bytes(4, false)).unwrap();
        assert_eq!(s.txns, 4, "admission recovers once evicted state drains");
    }

    /// A 120-step seeded soak mixing opens, feeds, finishes, virtual
    /// time advances (with eviction) and checkpoint/restore. The entire
    /// observable trace must be a pure function of the seed, and every
    /// restore must resume the session's virtual arrival clock.
    fn soak(seed: u64, dir: &std::path::Path) -> Vec<String> {
        let clock = SimClock::at(0);
        let reg = Registry::new(16 << 10, 256 << 10)
            .with_clock(Arc::new(clock.clone()))
            .with_idle_eviction(1_000);
        let mut rng = SplitMix64::new(seed);
        let mut log = Vec::new();
        let mut live: Vec<String> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..120u32 {
            match rng.below(6) {
                0 => {
                    let name = format!("s{next_id}");
                    next_id += 1;
                    let shards = if rng.chance(0.3) { Some(2) } else { None };
                    reg.open(&name, &OpenParams { shards, ..OpenParams::default() }).unwrap();
                    live.push(name.clone());
                    log.push(format!("{step} open {name} shards={shards:?}"));
                }
                1 | 2 => {
                    if live.is_empty() {
                        continue;
                    }
                    let name = live[rng.below(live.len() as u64) as usize].clone();
                    let n = 8 + rng.below(56);
                    let bad = rng.chance(0.2);
                    match feed(&reg, &name, &hist_bytes(n, bad)) {
                        Ok(s) => log.push(format!(
                            "{step} feed {name} txns={} viol={} soft={}",
                            s.txns, s.violations, s.soft_pressure
                        )),
                        Err(e) => log.push(format!("{step} feed {name} err={}", e.category())),
                    }
                }
                3 => {
                    let ms = 200 + rng.below(900);
                    clock.advance(ms);
                    let evicted = reg.evict_idle();
                    live.retain(|n| !evicted.contains(n));
                    log.push(format!("{step} advance {ms} evicted={evicted:?}"));
                }
                4 => {
                    if live.is_empty() {
                        continue;
                    }
                    let name = live.swap_remove(rng.below(live.len() as u64) as usize);
                    match reg.finish(&name) {
                        Ok((o, txns)) => {
                            log.push(format!("{step} finish {name} ok={} txns={txns}", o.is_ok()))
                        }
                        Err(e) => log.push(format!("{step} finish {name} err={}", e.category())),
                    }
                }
                5 => {
                    if live.is_empty() {
                        continue;
                    }
                    let name = live[rng.below(live.len() as u64) as usize].clone();
                    let path = dir.join(format!("{name}-{step}.ckpt"));
                    let path = path.to_str().unwrap();
                    reg.checkpoint(&name, path).unwrap();
                    let before = reg.stats(&name).unwrap().txns;
                    let copy = format!("{name}-r{step}");
                    reg.restore(&copy, path, None).unwrap();
                    let after = reg.stats(&copy).unwrap().txns;
                    assert_eq!(before, after, "virtual arrival clock must survive restore");
                    live.push(copy.clone());
                    log.push(format!("{step} restore {name}->{copy} txns={after}"));
                }
                _ => unreachable!(),
            }
        }
        // Drain every surviving session so sharded workers join.
        for name in live {
            let _ = reg.finish(&name);
        }
        log
    }

    #[test]
    fn seeded_registry_soak_is_deterministic() {
        let dir = super::scratch("simsoak");
        for seed in [7u64, 20260808] {
            let a = soak(seed, &dir);
            let b = soak(seed, &dir);
            assert_eq!(a, b, "seed {seed}: identical seeds must replay identical traces");
            assert!(
                a.iter().any(|l| l.contains("soft=true")),
                "seed {seed}: soak never crossed the soft ceiling:\n{a:#?}"
            );
            assert!(
                a.iter().any(|l| l.contains("evicted=[\"")),
                "seed {seed}: soak never evicted an idle session:\n{a:#?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mixed_level_sessions_check_per_transaction_levels() {
    let (addr, handle) = start(ServeConfig::default());
    client::open(
        &addr,
        "m",
        &client::OpenOptions { level: Some("mixed".into()), ..Default::default() },
    )
    .unwrap();
    client::feed_path(&addr, "m", corpus("valid_mixed.jsonl"), false).unwrap();
    let done = client::finish(&addr, "m").unwrap();
    assert_eq!(done.str_field("verdict"), Some("ok"));
    stop(&addr, handle);
}
