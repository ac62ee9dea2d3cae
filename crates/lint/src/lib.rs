//! `aion-lint`: workspace static analysis for the contracts clippy
//! cannot express.
//!
//! The serve daemon promises to survive malformed input, and a new
//! isolation level must fail loudly rather than vanish into a default.
//! Both promises rest on repo-wide conventions — no panics in daemon
//! code, no silent `_ =>` over the isolation lattice. This crate makes
//! the machine check them: a hand-rolled Rust `lexer`, two `rules` and a
//! justified-suppression syntax (the third rule, `suppression`, checks
//! that syntax). Every finding fails the run; a reasoned suppression
//! comment is the only way past a rule. The clock seam, the transport
//! seam and determinism are clippy's (`clippy.toml` and crate
//! attributes).
//!
//! Run it as `experiments lint` or the `workspace_is_clean_modulo_baseline`
//! self-test. See `docs/lint.md` for the contract catalog.
#![warn(unreachable_pub)]
#![warn(clippy::allow_attributes_without_reason)]
#![deny(rustdoc::broken_intra_doc_links)]

mod lexer;
mod rules;

pub use lexer::{lex, Tok, TokKind};
pub use rules::{lint_file, Finding, RULES};
use std::path::{Path, PathBuf};

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every unsuppressed finding, sorted — any of them fails the run.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

impl LintReport {
    /// True when the workspace has no finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A lint-run failure (I/O) — distinct from findings, which are a
/// *result*.
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file failed.
    Io(PathBuf, std::io::Error),
    /// No `crates/` directory under the given root.
    NotAWorkspace(PathBuf),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::NotAWorkspace(p) => {
                write!(f, "{} has no crates/ directory (not the workspace root?)", p.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Find the workspace root: walk up from `start` to the first directory
/// containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every `.rs` file under `crates/*/src`, workspace-relative with `/`
/// separators, sorted (the walk order is part of the deterministic
/// output contract).
pub fn workspace_sources(root: &Path) -> Result<Vec<String>, LintError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    let mut files = Vec::new();
    let crates =
        std::fs::read_dir(&crates_dir).map_err(|e| LintError::Io(crates_dir.clone(), e))?;
    for entry in crates.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint the workspace at `root`: every file of [`workspace_sources`],
/// findings sorted.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let files = workspace_sources(root)?;
    let mut findings = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
        findings.extend(lint_file(rel, &text));
    }
    findings.sort();
    Ok(LintReport { findings, files: files.len() })
}
