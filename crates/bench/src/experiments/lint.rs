//! `experiments lint`: the workspace static-analysis pass as a CLI.
//!
//! ```text
//! experiments lint [--root DIR]
//! ```
//!
//! Runs `aion_lint::lint_workspace` over every `crates/*/src` file and
//! prints its findings. Exits non-zero when there is any, so CI can
//! gate on it. See `docs/lint.md` for the rule catalog.

use aion_lint::{find_workspace_root, lint_workspace};
use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments lint [--root DIR]");
    std::process::exit(2);
}

/// Entry point for `experiments lint`.
pub fn lint_cmd(args: &[String]) {
    let mut root: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = Some(
                    args.get(i).map(Into::into).unwrap_or_else(|| die("--root needs a directory")),
                );
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let root = root
        .or_else(|| std::env::current_dir().ok().and_then(|cwd| find_workspace_root(&cwd)))
        .unwrap_or_else(|| die("no workspace root found (pass --root)"));

    match lint_workspace(&root) {
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            println!("lint: {} file(s), {} finding(s)", report.files, report.findings.len());
            if !report.is_clean() {
                std::process::exit(1);
            }
        }
        Err(e) => die(&format!("{e}")),
    }
}
