//! Golden-diagnostic corpus: every rule has a `bad_*` fixture that must
//! produce exactly the findings in its `.expected` file, and a `good_*`
//! counterpart (the sanctioned fix, or a legitimate suppression) that
//! must produce none.
//!
//! Each fixture's first line is a `//@ path: crates/<crate>/src/...`
//! directive giving the virtual workspace path the file is linted
//! under — that is what puts it in a rule's scope. To regenerate the
//! `.expected` files after an intentional diagnostic change, run with
//! `LINT_GOLDEN_REGEN=1` and review the diff. The contracts clippy
//! enforces keep their fixtures in `aion-online`'s
//! `tests/clippy_contracts.rs`, checked by the workspace clippy run.

use aion_lint::lint_file;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn virtual_path(src: &str, fixture: &str) -> String {
    let first = src.lines().next().unwrap_or_default();
    first
        .strip_prefix("//@ path:")
        .map(str::trim)
        .unwrap_or_else(|| panic!("{fixture}: first line must be a `//@ path:` directive"))
        .to_string()
}

fn findings_of(fixture: &str) -> String {
    let src = std::fs::read_to_string(fixtures_dir().join(fixture))
        .unwrap_or_else(|e| panic!("read {fixture}: {e}"));
    let path = virtual_path(&src, fixture);
    let findings = lint_file(&path, &src);
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

fn check_golden(fixture: &str) {
    let got = findings_of(fixture);
    let expected_path = fixtures_dir().join(fixture.replace(".rs", ".expected"));
    if std::env::var_os("LINT_GOLDEN_REGEN").is_some() {
        std::fs::write(&expected_path, &got).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!("read {}: {e} (LINT_GOLDEN_REGEN=1 to create)", expected_path.display())
    });
    assert_eq!(
        got, expected,
        "{fixture}: diagnostics diverged from golden (LINT_GOLDEN_REGEN=1 to regenerate)"
    );
}

fn check_clean(fixture: &str) {
    let got = findings_of(fixture);
    assert!(got.is_empty(), "{fixture} must lint clean, got:\n{got}");
}

#[test]
fn bad_fixtures_match_goldens() {
    for fixture in ["bad_panic.rs", "bad_lattice.rs", "bad_suppression.rs"] {
        check_golden(fixture);
    }
}

#[test]
fn good_fixtures_are_clean() {
    for fixture in ["good_panic.rs", "good_lattice.rs", "good_suppression.rs"] {
        check_clean(fixture);
    }
}

#[test]
fn every_rule_fires_somewhere_in_the_corpus() {
    // The planted-violation check: each rule id must appear in at least
    // one bad fixture's findings, proving the rule actually fires.
    let mut all = String::new();
    for fixture in ["bad_panic.rs", "bad_lattice.rs", "bad_suppression.rs"] {
        all.push_str(&findings_of(fixture));
    }
    for rule in aion_lint::RULES {
        assert!(all.contains(&format!("[{rule}]")), "rule `{rule}` never fired in the corpus");
    }
}
