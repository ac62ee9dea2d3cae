//! Self-hosting: the workspace that ships `aion-lint` must itself lint
//! clean — zero findings, no ledger of tolerated ones.

use aion_lint::{lint_workspace, workspace_sources};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_modulo_baseline() {
    let report = lint_workspace(&workspace_root()).expect("lint workspace");
    assert!(
        report.is_clean(),
        "lint findings (fix them, or suppress with a reasoned allow comment):\n{}",
        report.findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn workspace_walk_is_sorted_and_nonempty() {
    let files = workspace_sources(&workspace_root()).expect("walk workspace");
    assert!(files.len() > 50, "workspace walk found only {} files", files.len());
    let mut sorted = files.clone();
    sorted.sort();
    assert_eq!(files, sorted, "workspace walk must be deterministic");
    assert!(files.iter().all(|f| f.starts_with("crates/") && f.ends_with(".rs")));
}
