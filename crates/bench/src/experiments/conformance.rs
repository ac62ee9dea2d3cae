//! `experiments conformance [--fast] [--level rc|ra|si|ser|mixed]`:
//! the anomaly-injection matrix over the whole isolation-level lattice.
//!
//! For every anomaly class of [`aion_storage::anomalies::Anomaly`], every
//! built-in isolation level (RC, RA, SI, SER), and every checker in the
//! workspace — the single `OnlineChecker`, `ShardedChecker` at 1–4
//! shards, offline `ChronosChecker`, and the Elle / Emme baselines —
//! this experiment plants the anomaly into a *valid* generated history
//! (synthetic Table-I KV and the RUBiS application workload), replays
//! the history through `run_plan` with the default out-of-order arrival
//! plan, and asserts the expected verdict for the cell:
//!
//! * timestamp-based checkers must report the anomaly's tagged
//!   [`ViolationKind`](aion_storage::ViolationKind) at each level (or
//!   accept, where the level permits it — e.g. write skew anywhere
//!   below SER, read skew under RC, dirty writes everywhere but SI);
//! * the baselines must accept/reject according to what their inference
//!   can see at SI/SER (the §V-D separation), and must produce the
//!   typed `Outcome::unsupported` verdict at RC/RA — their models stop
//!   at SI/SER, and a silent SI answer would corrupt the matrix.
//!
//! A **mixed-level differential pass** closes the run (unless `--level`
//! pins a single level): per-transaction-leveled histories (an even
//! RC/RA/SI/SER mix) — valid and anomaly-injected — stream through the
//! single `OnlineChecker` and a `ShardedChecker` under
//! `LevelPolicy::PerTxn`, and both must produce identical violation
//! reports and flip counts. This is the end-to-end anchor for
//! mixed-level checking (no per-cell expectations exist for arbitrary
//! mixes; equivalence is the invariant).
//!
//! Any cell disagreeing with its expectation fails the run (exit 1), so
//! CI runs `conformance --fast` as a cross-checker regression net. The
//! run writes `results/conformance.json` (full per-cell data) and
//! regenerates `docs/conformance.md` (the expectation matrix, identical
//! bytes for `--fast` and full runs).

use super::{Ctx, Family};
use aion_baselines::{ElleChecker, EmmeChecker};
use aion_core::{ChronosChecker, ChronosOptions};
use aion_online::{feed_plan, run_plan, FeedConfig, OnlineChecker};
use aion_storage::{Anomaly, Expected};
use aion_types::{AxiomKind, DataKind, History, IsolationLevel, LevelPolicy, Outcome};
use aion_workload::apps::rubis::{rubis_templates, RubisParams};
use aion_workload::{generate_history, run_templates, LevelMix, WorkloadSpec};
use std::fmt::Write as _;

/// Injection seed; every injector salts it differently.
const SEED: u64 = 0xc0f0;

/// The level columns of the matrix, weakest first.
const LEVELS: &[IsolationLevel] = IsolationLevel::ALL;

/// What one matrix cell must produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CellExpect {
    /// The checker must accept the history unchanged.
    Accept,
    /// The checker must report at least one violation of this class.
    Detect(AxiomKind),
    /// The checker must reject (baselines report no violation kinds).
    Reject,
    /// The checker must produce the typed `Outcome::unsupported`
    /// verdict for this level (baselines outside SI/SER).
    Unsupported,
}

impl std::fmt::Display for CellExpect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellExpect::Accept => f.write_str("accept"),
            CellExpect::Detect(k) => write!(f, "detect {k}"),
            CellExpect::Reject => f.write_str("reject"),
            CellExpect::Unsupported => f.write_str("unsupported"),
        }
    }
}

/// The checker families of the matrix, in column order.
const FAMILIES: &[Family] = &[
    Family::Aion,
    Family::Sharded(1),
    Family::Sharded(2),
    Family::Sharded(3),
    Family::Sharded(4),
    Family::Chronos,
    Family::Elle,
    Family::Emme,
];

/// Per-anomaly injection rate: enough instances for a deterministic
/// signal without drowning the history.
fn rate_of(anomaly: Anomaly) -> f64 {
    match anomaly {
        // Swaps perturb whole pairs and duplicate ids drop transactions;
        // keep those sparse. Dirty-write candidates are restricted to
        // read-stable transactions, so compensate with a higher rate.
        Anomaly::SessionBreak => 0.08,
        Anomaly::DuplicateTid => 0.10,
        Anomaly::DirtyWrite => 0.45,
        _ => 0.25,
    }
}

/// Expected verdict of one (workload, anomaly, level, family) cell.
///
/// The timestamp-based families follow the anomaly's per-level profile
/// tag — guaranteed by injector construction for *any* workload and
/// seed (the full run re-asserts them under extra seeds). The baseline
/// columns encode what Elle-style black-box and Emme-style white-box
/// inference can see at SI/SER; a few Elle cells are
/// workload-dependent (black-box cycle evidence needs dense
/// read-modify-write chains, which the synthetic KV mix has and RUBiS
/// mostly lacks) and are pinned per workload on the experiment's fixed
/// deterministic histories. At RC and RA the baselines must refuse
/// with the typed unsupported verdict. A checker regressing against
/// any cell fails CI.
fn expected_for(
    workload: &str,
    anomaly: Option<Anomaly>,
    level: IsolationLevel,
    family: Family,
) -> CellExpect {
    if !family.is_timestamp_based() && !matches!(level, IsolationLevel::Si | IsolationLevel::Ser) {
        return CellExpect::Unsupported;
    }
    let Some(a) = anomaly else { return CellExpect::Accept };
    if family.is_timestamp_based() {
        return match a.profile().expected_at(level) {
            Expected::Accept => CellExpect::Accept,
            Expected::Detect(k) => CellExpect::Detect(k),
        };
    }
    let ser = level == IsolationLevel::Ser;
    let reject = match family {
        // Elle (black-box): sees only values.
        //
        // * Guaranteed rejects on any history: reads of never-written or
        //   non-final values (G1a/G1b) and forked read-modify-writes
        //   (lost update) are inference-level anomalies.
        // * Evidence-dependent rejects: a stale, future, or
        //   session-reordered read closes a dependency cycle only when
        //   surrounding read-modify-write chains pin the version order.
        //   The synthetic KV mix (50% writes, hot keys) provides that
        //   evidence; RUBiS's sparser r-m-w structure does for stale
        //   and future reads but not for session swaps. Conversely,
        //   write skew under SER is visible to Elle exactly when both
        //   skewed keys are covered by r-m-w anti-dependency evidence —
        //   RUBiS bids are r-m-ws on `top_bid`, the synthetic mix's
        //   blind writes are not.
        // * Everything carried purely by timestamps — overlapping
        //   writers, clock skew, duplicate ids/timestamps — is
        //   invisible (the "limited capabilities on key-value data" the
        //   paper notes).
        Family::Elle => match a {
            // Guaranteed-visible classes come straight from the catalog
            // tag — one source of truth with the injector library.
            _ if a.profile().value_visible => true,
            // Evidence-dependent cells, pinned on this experiment's
            // deterministic histories: both workloads carry enough
            // r-m-w evidence to convict stale and future reads...
            Anomaly::ReadSkew | Anomaly::FutureRead => true,
            // ...only the synthetic mix convicts session swaps, and only
            // RUBiS's r-m-w bids convict write skew (under SER).
            Anomaly::SessionBreak => workload == "kv",
            Anomaly::WriteSkew => ser && workload == "rubis",
            _ => false,
        },
        // Emme (white-box): trusts timestamps, so it recovers the full
        // version order and catches every dependency-cycle anomaly the
        // timestamp checkers catch — including both clock-skew classes
        // and session breaks, at the level where they are visible. INT
        // violations (internal reads) and collection-integrity breaks
        // (duplicate ids/timestamps) are outside its dependency-graph
        // model.
        Family::Emme => match a {
            Anomaly::IntViolation | Anomaly::DuplicateTid | Anomaly::DuplicateTimestamp => false,
            Anomaly::DirtyWrite => !ser,
            Anomaly::WriteSkew => ser,
            Anomaly::ClockSkewStart => !ser,
            _ => true,
        },
        _ => unreachable!("timestamp families handled above"),
    };
    if reject {
        CellExpect::Reject
    } else {
        CellExpect::Accept
    }
}

/// Does the outcome satisfy the cell's expectation?
fn cell_ok(expected: CellExpect, o: &Outcome) -> bool {
    match expected {
        CellExpect::Accept => o.is_ok(),
        CellExpect::Detect(kind) => o.report.count(kind) > 0,
        CellExpect::Reject => o.unsupported.is_none() && !o.is_ok(),
        CellExpect::Unsupported => o.unsupported.is_some(),
    }
}

/// Compressed observation for reports: `ok` or `EXT:3 SESSION:1` or
/// `reject(4 findings)` or `unsupported(rc)`.
fn observed_of(o: &Outcome) -> String {
    if let Some(level) = o.unsupported {
        return format!("unsupported({level})");
    }
    if o.is_ok() {
        return "ok".into();
    }
    if o.report.is_empty() {
        return format!("reject({} findings)", o.notes.len());
    }
    let mut parts: Vec<String> = [
        AxiomKind::Session,
        AxiomKind::Int,
        AxiomKind::Ext,
        AxiomKind::NoConflict,
        AxiomKind::Integrity,
    ]
    .iter()
    .filter(|k| o.report.count(**k) > 0)
    .map(|k| format!("{k}:{}", o.report.count(*k)))
    .collect();
    if parts.is_empty() {
        parts.push("reject".into());
    }
    parts.join(" ")
}

struct Cell {
    workload: &'static str,
    anomaly: &'static str,
    level: &'static str,
    checker: String,
    planted: usize,
    expected: CellExpect,
    observed: String,
    ok: bool,
}

/// Transactions per base history. Identical in fast and full runs so
/// the pinned baseline cells cannot drift between CI and full passes.
const TXNS: usize = 500;

fn base_spec() -> WorkloadSpec {
    // A generous timestamp stride leaves room for the injectors to
    // relocate timestamps without collisions; moderate per-transaction
    // footprints keep the 2PL (SER) runs from aborting most templates.
    WorkloadSpec::default()
        .with_txns(TXNS)
        .with_sessions(16)
        .with_ops_per_txn(6)
        .with_keys(96)
        .with_ts_stride(16)
        .with_seed(9)
}

fn base_history(workload: &str, level: IsolationLevel) -> History {
    let spec = base_spec();
    match workload {
        "kv" => generate_history(&spec, level),
        "rubis" => {
            // Hot parameters: a small user/item space keeps versions per
            // key dense enough for every injector to find candidates.
            let templates = rubis_templates(TXNS, &RubisParams { users: 40, items: 60, seed: 42 });
            run_templates(&spec, level, &templates)
        }
        other => panic!("unknown conformance workload {other}"),
    }
}

fn run_cell(
    family: Family,
    level: IsolationLevel,
    kind: DataKind,
    plan: &[aion_online::Arrival],
) -> Outcome {
    match family {
        Family::Aion => {
            let ck = OnlineChecker::builder()
                .kind(kind)
                .level(level)
                .build()
                .expect("in-memory session");
            run_plan(ck, plan).outcome
        }
        Family::Sharded(n) => {
            let ck = OnlineChecker::builder()
                .kind(kind)
                .level(level)
                .shards(n)
                .build_sharded()
                .expect("in-memory session");
            run_plan(ck, plan).outcome
        }
        Family::Chronos => {
            let ck = ChronosChecker::new(level, kind, ChronosOptions::default());
            run_plan(ck, plan).outcome
        }
        Family::Elle => run_plan(ElleChecker::new(level, kind), plan).outcome,
        Family::Emme => run_plan(EmmeChecker::new(level, kind), plan).outcome,
    }
}

/// Run the full matrix; write `results/conformance.json` and regenerate
/// `docs/conformance.md`; exit non-zero on any unexpected cell.
///
/// `--fast` (CI) runs the primary seed only — every (anomaly × level ×
/// checker) cell over both workloads plus the mixed-level differential
/// pass. The full run replays the timestamp-checker columns under extra
/// injection seeds, stressing that the injector *guarantees* (not
/// merely this seed) hold; the baseline columns are seed-pinned and
/// only asserted on the primary seed. `--level <l>` restricts the level
/// axis to one column; `--level mixed` runs only the differential pass.
pub(super) fn conformance(ctx: &Ctx) {
    let level_filter = match ctx.level.as_deref() {
        None => None,
        Some("mixed") => {
            let mismatches = mixed_differential_pass();
            if mismatches > 0 {
                eprintln!("conformance: {mismatches} mixed-level divergences");
                std::process::exit(1);
            }
            println!("conformance: mixed-level differential pass clean");
            return;
        }
        Some(label) => match IsolationLevel::parse(label) {
            Some(l) => Some(l),
            None => {
                eprintln!(
                    "unknown conformance level '{label}' (valid: {}|mixed)",
                    IsolationLevel::LABELS.join("|")
                );
                std::process::exit(2);
            }
        },
    };
    let extra_seeds: &[u64] = if ctx.fast { &[] } else { &[0x51, 0x52] };
    let mut cells: Vec<Cell> = Vec::new();
    let mut mismatches = 0usize;

    for workload in ["kv", "rubis"] {
        for &level in LEVELS.iter().filter(|&&l| level_filter.is_none_or(|f| f == l)) {
            let base = base_history(workload, level);
            let mut rows: Vec<(Option<Anomaly>, History, usize)> = vec![(None, base.clone(), 0)];
            for &a in Anomaly::ALL {
                let mut h = base.clone();
                let planted = a.inject(&mut h, rate_of(a), SEED);
                rows.push((Some(a), h, planted));
            }
            for (anomaly, history, planted) in rows {
                let name = anomaly.map(|a| a.name()).unwrap_or("none");
                if anomaly.is_some() && planted == 0 {
                    println!("!! {workload}/{}/{name}: injector planted nothing", level.label());
                    mismatches += 1;
                    continue;
                }
                let plan = feed_plan(&history, &FeedConfig::default());
                for &family in FAMILIES {
                    let expected = expected_for(workload, anomaly, level, family);
                    let outcome = run_cell(family, level, history.kind, &plan);
                    let ok = cell_ok(expected, &outcome);
                    if !ok {
                        mismatches += 1;
                        println!(
                            "!! {workload}/{}/{name}/{}: expected {expected}, observed {}",
                            level.label(),
                            family.label(),
                            observed_of(&outcome)
                        );
                    }
                    cells.push(Cell {
                        workload,
                        anomaly: name,
                        level: level.label(),
                        checker: family.label(),
                        planted,
                        expected,
                        observed: observed_of(&outcome),
                        ok,
                    });
                }
            }

            // Full mode: the timestamp-checker guarantees must hold for
            // any seed, not just the pinned one.
            for &seed in extra_seeds {
                for &a in Anomaly::ALL {
                    let mut h = base.clone();
                    if a.inject(&mut h, rate_of(a), seed) == 0 {
                        continue; // rate chance; the primary seed covers planting
                    }
                    let plan = feed_plan(&h, &FeedConfig::default());
                    for &family in FAMILIES.iter().filter(|f| f.is_timestamp_based()) {
                        let expected = expected_for(workload, Some(a), level, family);
                        let outcome = run_cell(family, level, h.kind, &plan);
                        if !cell_ok(expected, &outcome) {
                            mismatches += 1;
                            println!(
                                "!! {workload}/{}/{}/{} (seed {seed:#x}): expected {expected}, \
                                 observed {}",
                                level.label(),
                                a.name(),
                                family.label(),
                                observed_of(&outcome)
                            );
                        }
                    }
                }
            }
        }
    }

    if level_filter.is_none() {
        mismatches += mixed_differential_pass();
    }

    print_summary(&cells);
    write_json(ctx, &cells);
    write_doc();

    if mismatches > 0 {
        eprintln!("conformance: {mismatches} unexpected matrix cells");
        std::process::exit(1);
    }
    println!("conformance: all {} cells agree with the expectation matrix", cells.len());
}

/// The mixed-level differential pass: per-transaction-leveled histories
/// (valid and injected) must check identically — violations, flips,
/// whole-transaction counts — through the single `OnlineChecker` and a
/// `ShardedChecker` under `LevelPolicy::PerTxn`. Returns the number of
/// divergences.
fn mixed_differential_pass() -> usize {
    let mut mismatches = 0usize;
    let spec = base_spec().with_level_mix(LevelMix::even());
    let base = generate_history(&spec, IsolationLevel::Si);
    assert!(base.txns.iter().all(|t| t.level.is_some()), "level_mix must stamp every transaction");
    let mut rows: Vec<(&str, History)> = vec![("none", base.clone())];
    for &a in Anomaly::ALL {
        let mut h = base.clone();
        if a.inject(&mut h, rate_of(a), SEED) > 0 {
            rows.push((a.name(), h));
        }
    }
    for (name, history) in rows {
        let plan = feed_plan(&history, &FeedConfig::default());
        let policy = LevelPolicy::per_txn(IsolationLevel::Si);
        let single = {
            let ck = OnlineChecker::builder()
                .kind(history.kind)
                .levels(policy.clone())
                .build()
                .expect("in-memory session");
            run_plan(ck, &plan).outcome
        };
        for shards in [2usize, 3] {
            let sharded = {
                let ck = OnlineChecker::builder()
                    .kind(history.kind)
                    .levels(policy.clone())
                    .shards(shards)
                    .build_sharded()
                    .expect("in-memory session");
                run_plan(ck, &plan).outcome
            };
            let mut a = single.report.violations.clone();
            let mut b = sharded.report.violations.clone();
            a.sort_by_key(|v| format!("{v:?}"));
            b.sort_by_key(|v| format!("{v:?}"));
            if a != b || single.flips.total_flips != sharded.flips.total_flips {
                mismatches += 1;
                println!(
                    "!! mixed/{name}/sharded-{shards}: single {} vs sharded {}",
                    observed_of(&single),
                    observed_of(&sharded)
                );
            }
        }
    }
    mismatches
}

fn print_summary(cells: &[Cell]) {
    let mut t = crate::tables::Table::new(
        "conformance: anomaly × level × checker (each cell: observed verdict)",
        &["workload", "anomaly", "level", "planted", "expected", "agreeing checkers"],
    );
    let mut seen: Vec<(&str, &str, &str)> = Vec::new();
    for c in cells {
        let key = (c.workload, c.anomaly, c.level);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let group: Vec<&Cell> =
            cells.iter().filter(|x| (x.workload, x.anomaly, x.level) == key).collect();
        let agreeing = group.iter().filter(|c| c.ok).count();
        let expected = group
            .iter()
            .find(|c| c.checker == "aion")
            .map(|c| c.expected.to_string())
            .unwrap_or_default();
        t.row(vec![
            c.workload.into(),
            c.anomaly.into(),
            c.level.into(),
            c.planted.to_string(),
            expected,
            format!("{agreeing}/{}", group.len()),
        ]);
    }
    print!("{}", t.render());
}

fn write_json(ctx: &Ctx, cells: &[Cell]) {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 2,\n");
    let _ = writeln!(out, "  \"mode\": \"{}\",", if ctx.fast { "fast" } else { "full" });
    let _ = writeln!(out, "  \"txns_per_history\": {TXNS},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"workload\": \"{}\", \"anomaly\": \"{}\", \"level\": \"{}\", \
             \"checker\": \"{}\", \"planted\": {}, \"expected\": \"{}\", \
             \"observed\": \"{}\", \"ok\": {} }}",
            c.workload, c.anomaly, c.level, c.checker, c.planted, c.expected, c.observed, c.ok
        );
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::create_dir_all(&ctx.out).ok();
    let path = ctx.out.join("conformance.json");
    std::fs::write(&path, out).expect("write conformance.json");
    println!("wrote {}", path.display());
}

/// Regenerate `docs/conformance.md` — the expectation matrix as a
/// markdown table. The content depends only on the encoded expectations
/// (not on history sizes), so fast and full runs produce identical
/// bytes and CI can diff the checked-in file.
fn write_doc() {
    let mut md = String::new();
    md.push_str(
        "# Cross-checker conformance matrix\n\n\
         <!-- GENERATED by `experiments conformance` (crates/bench/src/experiments/conformance.rs).\n     \
         Do not edit by hand: re-run `cargo run --release -p aion-bench --bin experiments -- conformance --fast`. -->\n\n\
         Every anomaly class of the injection library\n\
         (`aion_storage::anomalies`) with the verdict each checker family\n\
         must reach, per isolation level of the lattice (RC < RA < SI and\n\
         RC < SER; SI/SER and RA/SER are incomparable — the clock-skew\n\
         rows below are the witnesses). `experiments conformance` plants\n\
         each anomaly into valid\n\
         synthetic-KV and RUBiS histories, replays them through every\n\
         checker via the streaming `Checker` session API, and fails CI if\n\
         any cell disagrees. See\n\
         [isolation-models.md](isolation-models.md) for the axiom\n\
         definitions and [benchmarks.md](benchmarks.md) for how to run it.\n\n\
         Timestamp-based checkers (`aion`, `sharded-1..4`, `chronos`)\n\
         share the four level columns: the sharded-equivalence property\n\
         tests guarantee they agree, and this matrix re-asserts it end to\n\
         end. The baselines model exactly SI and SER; at RC/RA they must\n\
         produce the typed `unsupported` verdict (asserted, not shown).\n\n",
    );
    md.push_str(
        "| anomaly | ts (RC) | ts (RA) | ts (SI) | ts (SER) | elle (SI/SER) | emme (SI/SER) |\n\
         |---------|---------|---------|---------|----------|---------------|---------------|\n",
    );
    // Baseline cells that differ per workload (black-box cycle evidence
    // is density-dependent) render both verdicts.
    let cell = |level: IsolationLevel, fam: Family, a: Anomaly| {
        let kv = expected_for("kv", Some(a), level, fam);
        let rubis = expected_for("rubis", Some(a), level, fam);
        if kv == rubis {
            kv.to_string()
        } else {
            format!("kv: {kv} · rubis: {rubis}")
        }
    };
    for &a in Anomaly::ALL {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} | {} / {} | {} / {} |",
            a.name(),
            cell(IsolationLevel::ReadCommitted, Family::Aion, a),
            cell(IsolationLevel::ReadAtomic, Family::Aion, a),
            cell(IsolationLevel::Si, Family::Aion, a),
            cell(IsolationLevel::Ser, Family::Aion, a),
            cell(IsolationLevel::Si, Family::Elle, a),
            cell(IsolationLevel::Ser, Family::Elle, a),
            cell(IsolationLevel::Si, Family::Emme, a),
            cell(IsolationLevel::Ser, Family::Emme, a),
        );
    }
    md.push_str(
        "\nReading the matrix:\n\n\
         - **Value-level anomalies** (aborted reads, intermediate reads,\n  \
           lost updates) are visible to every family on any history — even\n  \
           black-box Elle-style inference sees a read of a value that was\n  \
           never (or never finally) written, or two read-modify-writes\n  \
           forked from one version.\n\
         - **Evidence-dependent anomalies** (stale, future, and\n  \
           session-reordered reads; write skew under SER): black-box\n  \
           inference can only convict them when surrounding\n  \
           read-modify-write chains pin the version order and close a\n  \
           dependency cycle. That is why a few Elle cells differ per\n  \
           workload — the r-m-w-dense synthetic mix convicts where\n  \
           RUBiS's structure cannot (or, for write skew, vice versa).\n\
         - **Timestamp-level anomalies** (overlapping dirty writes, both\n  \
           clock-skew classes, duplicate ids and timestamps) are exactly\n  \
           the classes the paper's §V-D argues for: Elle accepts them\n  \
           all — no value is ever wrong. Emme, which derives its version\n  \
           order *from* the timestamps, catches the dependency-visible\n  \
           ones but still misses INT violations and collection-integrity\n  \
           breaks, which live outside any dependency graph.\n\
         - **Level separation along the lattice**: read skew is the\n  \
           RC/RA separator (a stale committed version satisfies RC's\n  \
           membership predicate, never RA's frontier predicate); dirty\n  \
           writes and lost updates are the RA/SI separator (NOCONFLICT\n  \
           exists only at SI); write skew is the SI/SER separator; and\n  \
           the two clock-skew classes split along the read-anchor axis —\n  \
           start skew is invisible to the commit-anchored levels (RC,\n  \
           SER), commit skew is invisible only to RC, whose membership\n  \
           predicate tolerates the resulting staleness.\n\
         - **Detection monotonicity**: along every comparable pair of\n  \
           the lattice (RC ⊆ RA ⊆ SI and RC ⊆ SER) the set of detected\n  \
           violation kinds only grows, and the level-independent axes\n  \
           (INT, INTEGRITY) agree across even the incomparable pairs —\n  \
           property-tested per injector in\n  \
           `crates/online/tests/level_lattice_proptests.rs`.\n\n\
         Mixed-level checking has no per-cell expectations (an anomaly's\n\
         verdict depends on which transaction's level it lands on);\n\
         instead the mixed differential pass asserts that the single and\n\
         sharded checkers agree violation-for-violation on\n\
         per-transaction-leveled histories, valid and injected alike.\n\n\
         The matrix is a live regression net, not just documentation: it\n\
         already caught CHRONOS-SER silently accepting start-timestamp\n\
         collisions that AION-SER reports (the integrity scan has since\n\
         moved to `crates/core/src/event.rs`, which every level shares).\n",
    );
    // Repo-root-relative by convention; from another cwd the matrix
    // verdict still stands, so degrade to a warning rather than failing
    // a passed run.
    match std::fs::write("docs/conformance.md", md) {
        Ok(()) => println!("wrote docs/conformance.md"),
        Err(e) => eprintln!(
            "warning: docs/conformance.md not regenerated ({e}); \
             run from the repository root to refresh it"
        ),
    }
}
