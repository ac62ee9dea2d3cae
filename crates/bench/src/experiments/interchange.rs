//! `experiments check` / `experiments convert`: point any checker at a
//! history file, or translate between interchange formats.
//!
//! ```text
//! experiments check <path|-> [--format auto|jsonl|bin|dbcop|edn]
//!                          [--level rc|ra|si|ser|both|all|mixed]
//!                          [--checker aion|sharded-N|chronos|elle|emme]
//!                          [--kind kv|list] [--gc N] [--expect pass|fail]
//! experiments convert <in> <out> [--from auto|...] [--to jsonl|bin|dbcop]
//! ```
//!
//! `check` streams the file through [`aion_io::stream_check`] — the
//! reader yields one transaction at a time, so the history is never
//! materialized — and prints one verdict line per isolation level in
//! the same [`aion_io::verdict_of`] notation the golden corpus records.
//! Pass `-` to read the history from stdin instead of a file: the
//! format is sniffed from the byte prefix ([`aion_io::open_sniffed_stream`])
//! unless `--format` pins it, so `generator | experiments check -`
//! pipelines work with any interchange format. (Stdin is buffered once
//! in memory, since multi-level runs re-stream it.)
//! `--level mixed` opens one `LevelPolicy::PerTxn` session instead:
//! each streamed transaction is checked at its own declared level (the
//! `level` extension field every format carries), defaulting to SI —
//! timestamp checkers only, since the offline baselines have no mixed
//! model. `--expect` turns the run into an assertion (CI smoke): `pass`
//! requires every session's verdict to be `ok`, `fail` requires none to
//! be. `--gc N` bounds the online checker's resident transactions
//! (spill-to-disk GC), making truly larger-than-memory runs practical.
//! Flag parse errors list the valid labels (unit-tested below — a bare
//! "invalid argument" helps nobody at 2 a.m.).
//!
//! `convert` reads leniently (anomalies pass through untouched) and
//! rewrites; dbcop → jsonl keeps the synthesized serial timestamps, and
//! aion-written dbcop files convert back losslessly via their `"aion"`
//! extension.

use super::{Family, CHECKER_FLAGS};
use aion_baselines::{ElleChecker, EmmeChecker};
use aion_core::{ChronosChecker, ChronosOptions};
use aion_io::{
    detect_format, open_path, open_sniffed_stream, open_stream, read_history, stream_check,
    verdict_of, write_history_to_path, Format, ReaderOptions, StreamReport,
};
use aion_online::{OnlineChecker, OnlineGcPolicy};
use aion_types::{DataKind, IsolationLevel, LevelPolicy};
use std::path::PathBuf;

/// The level labels `--level` accepts, for error messages.
const LEVEL_FLAGS: &str = "rc|ra|si|ser|both|all|mixed";

/// Parse a `--level` value into the checking sessions to open; the
/// error lists every valid label.
fn parse_level_flag(s: &str) -> Result<Vec<LevelPolicy>, String> {
    let uniform = |l| LevelPolicy::Uniform(l);
    match s {
        "both" => Ok(vec![uniform(IsolationLevel::Si), uniform(IsolationLevel::Ser)]),
        "all" => Ok(IsolationLevel::ALL.iter().copied().map(uniform).collect()),
        "mixed" => Ok(vec![LevelPolicy::per_txn(IsolationLevel::Si)]),
        other => match IsolationLevel::parse(other) {
            Some(l) => Ok(vec![uniform(l)]),
            None => Err(format!("unknown level '{other}' (valid: {LEVEL_FLAGS})")),
        },
    }
}

struct CheckArgs {
    path: PathBuf,
    /// `Some(bytes)` when the input path was `-`: stdin, buffered once
    /// so each per-level session can re-stream it.
    stdin: Option<Vec<u8>>,
    format: Option<Format>,
    levels: Vec<LevelPolicy>,
    family: Family,
    kind_hint: Option<DataKind>,
    gc: Option<usize>,
    expect: Option<bool>,
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).map(String::as_str).unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn parse_check_args(args: &[String]) -> CheckArgs {
    let mut parsed = CheckArgs {
        path: PathBuf::new(),
        stdin: None,
        format: None,
        levels: vec![
            LevelPolicy::Uniform(IsolationLevel::Si),
            LevelPolicy::Uniform(IsolationLevel::Ser),
        ],
        family: Family::Aion,
        kind_hint: None,
        gc: None,
        expect: None,
    };
    let mut path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => match flag_value(args, &mut i, "--format") {
                "auto" => parsed.format = None,
                other => {
                    parsed.format = Some(
                        Format::parse_flag(other)
                            .unwrap_or_else(|| die(&format!("unknown format '{other}'"))),
                    )
                }
            },
            "--level" => {
                parsed.levels = parse_level_flag(flag_value(args, &mut i, "--level"))
                    .unwrap_or_else(|e| die(&e));
            }
            "--checker" => {
                let v = flag_value(args, &mut i, "--checker");
                parsed.family = Family::parse(v).unwrap_or_else(|e| die(&e));
            }
            "--kind" => {
                parsed.kind_hint = Some(match flag_value(args, &mut i, "--kind") {
                    "kv" => DataKind::Kv,
                    "list" => DataKind::List,
                    other => die(&format!("unknown kind '{other}' (kv|list)")),
                })
            }
            "--gc" => {
                let v = flag_value(args, &mut i, "--gc");
                parsed.gc = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--gc needs a positive integer")),
                );
            }
            "--expect" => {
                parsed.expect = Some(match flag_value(args, &mut i, "--expect") {
                    "pass" => true,
                    "fail" => false,
                    other => die(&format!("unknown expectation '{other}' (pass|fail)")),
                })
            }
            other if other.starts_with('-') && other != "-" => {
                die(&format!("unknown flag {other}"))
            }
            other => {
                if path.replace(PathBuf::from(other)).is_some() {
                    die("check takes exactly one input path");
                }
            }
        }
        i += 1;
    }
    parsed.path = path.unwrap_or_else(|| {
        die(&format!(
            "usage: experiments check <path|-> [--format f] [--level {LEVEL_FLAGS}] \
             [--checker {CHECKER_FLAGS}] [--kind kv|list] [--gc N] [--expect pass|fail]"
        ))
    });
    parsed
}

fn open_input<'a>(a: &'a CheckArgs, opts: ReaderOptions) -> Box<dyn aion_io::HistoryReader + 'a> {
    match &a.stdin {
        Some(bytes) => {
            let format = a.format.expect("stdin format resolved before opening");
            open_stream(&bytes[..], format, opts)
                .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")))
        }
        None => open_path(&a.path, a.format, opts)
            .unwrap_or_else(|e| die(&format!("cannot open {}: {e}", a.path.display()))),
    }
}

fn run_one(a: &CheckArgs, policy: &LevelPolicy, kind: DataKind) -> StreamReport {
    let opts = ReaderOptions { strict: false, kind_hint: a.kind_hint };
    let mut reader = open_input(a, opts);
    // The offline checkers model one fixed level; a mixed (per-txn)
    // policy needs the streaming checkers' per-arrival dispatch.
    let uniform = |family: &str| {
        policy.uniform_level().unwrap_or_else(|| {
            die(&format!(
                "--level mixed requires a streaming timestamp checker \
                 (aion or sharded-N); {family} checks one fixed level"
            ))
        })
    };
    let report = match a.family {
        Family::Aion => {
            let mut b = OnlineChecker::builder().kind(kind).levels(policy.clone());
            if let Some(max_txns) = a.gc {
                b = b.gc(OnlineGcPolicy::Checking { max_txns });
            }
            let ck = b.build().unwrap_or_else(|e| die(&format!("cannot open session: {e}")));
            stream_check(reader.as_mut(), ck)
        }
        Family::Sharded(n) => {
            let ck = OnlineChecker::builder()
                .kind(kind)
                .levels(policy.clone())
                .shards(n)
                .build_sharded()
                .unwrap_or_else(|e| die(&format!("cannot open session: {e}")));
            stream_check(reader.as_mut(), ck)
        }
        Family::Chronos => stream_check(
            reader.as_mut(),
            ChronosChecker::new(uniform("chronos"), kind, ChronosOptions::default()),
        ),
        Family::Elle => stream_check(reader.as_mut(), ElleChecker::new(uniform("elle"), kind)),
        Family::Emme => stream_check(reader.as_mut(), EmmeChecker::new(uniform("emme"), kind)),
    };
    report.unwrap_or_else(|e| die(&format!("cannot read {}: {e}", a.path.display())))
}

/// `experiments check <path> ...`: stream a history file through a
/// checker at one or both isolation levels. Exits non-zero when
/// `--expect` disagrees with any verdict.
pub fn check_cmd(args: &[String]) {
    let mut a = parse_check_args(args);
    if a.path.as_os_str() == "-" {
        let mut bytes = Vec::new();
        std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut bytes)
            .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
        a.stdin = Some(bytes);
    }
    let format = match (a.format, &a.stdin) {
        (Some(f), _) => f,
        // No filename to take an extension from: sniff the byte prefix.
        (None, Some(bytes)) => {
            open_sniffed_stream(&bytes[..], ReaderOptions { strict: false, kind_hint: None })
                .map(|(f, _)| f)
                .unwrap_or_else(|e| die(&format!("cannot detect format of stdin: {e}")))
        }
        (None, None) => detect_format(&a.path)
            .unwrap_or_else(|e| die(&format!("cannot detect format of {}: {e}", a.path.display()))),
    };
    // Per-level runs reuse the detected format instead of re-sniffing.
    a.format = Some(format);
    // The kind is known once one reader opens (header / first entry).
    let kind = a
        .kind_hint
        .unwrap_or_else(|| open_input(&a, ReaderOptions { strict: false, kind_hint: None }).kind());
    let mut mismatches = 0usize;
    let policies = std::mem::take(&mut a.levels);
    for policy in &policies {
        let report = run_one(&a, policy, kind);
        let verdict = verdict_of(&report.outcome);
        println!(
            "check {} format={format} kind={} checker={} txns={} events={} verdict={verdict}",
            a.path.display(),
            match kind {
                DataKind::Kv => "kv",
                DataKind::List => "list",
            },
            report.outcome.checker,
            report.txns,
            report.events,
        );
        if let Some(expect_pass) = a.expect {
            if report.outcome.is_ok() != expect_pass {
                eprintln!(
                    "!! {} under {}: expected {}, observed {verdict}",
                    a.path.display(),
                    policy.label(),
                    if expect_pass { "pass" } else { "fail" },
                );
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        std::process::exit(1);
    }
}

/// `experiments convert <in> <out> ...`: translate a history file
/// between interchange formats.
pub fn convert_cmd(args: &[String]) {
    let mut from: Option<Format> = None;
    let mut to: Option<Format> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => match flag_value(args, &mut i, "--from") {
                "auto" => from = None,
                other => {
                    from = Some(
                        Format::parse_flag(other)
                            .unwrap_or_else(|| die(&format!("unknown format '{other}'"))),
                    )
                }
            },
            "--to" => {
                let v = flag_value(args, &mut i, "--to");
                to = Some(
                    Format::parse_flag(v).unwrap_or_else(|| die(&format!("unknown format '{v}'"))),
                );
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => paths.push(PathBuf::from(other)),
        }
        i += 1;
    }
    let [input, output] = paths.as_slice() else {
        die("usage: experiments convert <in> <out> [--from f] [--to jsonl|bin|dbcop]");
    };
    let to = to
        .or_else(|| Format::from_extension(output))
        .unwrap_or_else(|| die("cannot infer target format from extension; pass --to"));
    let h = read_history(input, from)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", input.display())));
    write_history_to_path(&h, to, output)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", output.display())));
    let stats = h.stats();
    println!(
        "convert {} -> {} ({}): {} txns, {} ops, {} sessions",
        input.display(),
        output.display(),
        to,
        stats.txns,
        stats.ops,
        stats.sessions
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_flag_parses() {
        assert_eq!(Family::parse("aion"), Ok(Family::Aion));
        assert_eq!(Family::parse("sharded-3"), Ok(Family::Sharded(3)));
        assert!(Family::parse("sharded-0").is_err());
        assert!(Family::parse("polysi").is_err());
    }

    /// Parse failures must spell out every valid label — a bare
    /// "invalid argument" is exactly what this regressed from.
    #[test]
    fn parse_errors_list_the_valid_labels() {
        let err = Family::parse("polysi").unwrap_err();
        assert!(
            err.contains("aion|sharded-N|chronos|elle|emme"),
            "checker error must list the labels: {err}"
        );
        assert!(err.contains("polysi"), "and echo the offending value: {err}");

        let err = parse_level_flag("serializable-2pl").unwrap_err();
        assert!(
            err.contains("rc|ra|si|ser|both|all|mixed"),
            "level error must list the labels: {err}"
        );
        assert!(err.contains("serializable-2pl"), "and echo the offending value: {err}");
    }

    #[test]
    fn level_flag_expands_to_policies() {
        use aion_types::{IsolationLevel, LevelPolicy};
        assert_eq!(
            parse_level_flag("rc").unwrap(),
            vec![LevelPolicy::Uniform(IsolationLevel::ReadCommitted)]
        );
        assert_eq!(parse_level_flag("both").unwrap().len(), 2);
        assert_eq!(parse_level_flag("all").unwrap().len(), IsolationLevel::ALL.len());
        assert_eq!(
            parse_level_flag("mixed").unwrap(),
            vec![LevelPolicy::per_txn(IsolationLevel::Si)]
        );
    }
}
