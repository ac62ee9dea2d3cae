//! One experiment per table/figure of the paper. Each function prints the
//! series the paper reports and writes a CSV under the output directory.
//!
//! `--scale N` divides the paper's transaction counts by `N` (default 20)
//! so the whole suite runs on a laptop in minutes; `--scale 1` reproduces
//! paper-scale inputs.

mod conformance;
pub mod dst;
mod flipflops;
pub mod interchange;
pub mod lint;
mod offline;
mod online;
pub mod serve;

use std::path::PathBuf;

/// Shared experiment context.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Divide paper transaction counts by this.
    pub scale: usize,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// CI mode (`--fast`): smaller histories, same cell coverage.
    pub fast: bool,
    /// `--level` filter for level-aware experiments (conformance):
    /// an isolation-level label or `"mixed"`; `None` runs everything.
    pub level: Option<String>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx { scale: 20, out: PathBuf::from("results"), fast: false, level: None }
    }
}

impl Ctx {
    /// Scale a paper-sized transaction count (with a sane floor).
    pub fn n(&self, paper: usize) -> usize {
        (paper / self.scale).clamp(100.min(paper), paper)
    }
}

/// The checker labels `--checker` accepts, for error messages.
const CHECKER_FLAGS: &str = "aion|sharded-N|chronos|elle|emme";

/// A checker family: a column of the conformance matrix, a `--checker`
/// value of `experiments check`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Family {
    Aion,
    Sharded(usize),
    Chronos,
    Elle,
    Emme,
}

impl Family {
    fn label(self) -> String {
        match self {
            Family::Aion => "aion".into(),
            Family::Sharded(n) => format!("sharded-{n}"),
            Family::Chronos => "chronos".into(),
            Family::Elle => "elle".into(),
            Family::Emme => "emme".into(),
        }
    }

    /// Parse a `--checker` value; the error lists every valid label.
    fn parse(s: &str) -> Result<Family, String> {
        match s {
            "aion" => Ok(Family::Aion),
            "chronos" => Ok(Family::Chronos),
            "elle" => Ok(Family::Elle),
            "emme" => Ok(Family::Emme),
            _ => s
                .strip_prefix("sharded-")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .map(Family::Sharded)
                .ok_or_else(|| format!("unknown checker '{s}' (valid: {CHECKER_FLAGS}, N ≥ 1)")),
        }
    }

    fn is_timestamp_based(self) -> bool {
        matches!(self, Family::Aion | Family::Sharded(_) | Family::Chronos)
    }
}

/// All experiment ids, in run order for `all`.
pub const ALL: &[&str] = &[
    "table1", "fig4", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "sec5d",
    "fig12a", "fig12b", "fig12cd", "fig13", "fig14", "fig15", "fig16", "fig17_18", "fig19",
    "fig20_21", "fig22", "fig23", "fig24", "fig25",
];

/// Dispatch one experiment by id. Returns false for unknown ids.
pub fn run(id: &str, ctx: &Ctx) -> bool {
    match id {
        "table1" => offline::table1(ctx),
        "fig4" => offline::fig4(ctx),
        "fig5a" => offline::fig5a(ctx),
        "fig5b" => offline::fig5b(ctx),
        "fig6" => offline::fig6(ctx),
        "fig7" => offline::fig7(ctx),
        "fig8" => offline::fig8(ctx),
        "fig9" => offline::fig9(ctx),
        "fig10" => offline::fig10(ctx),
        "fig11" => offline::fig11(ctx),
        "sec5d" => offline::sec5d(ctx),
        "fig22" => offline::fig22(ctx),
        "fig24" => offline::fig24(ctx),
        "fig12a" => online::fig12a(ctx),
        "fig12b" => online::fig12b(ctx),
        "fig12cd" => online::fig12cd(ctx),
        "fig15" => online::fig15(ctx),
        "fig16" => online::fig16(ctx),
        "fig23" => online::fig23(ctx),
        "fig25" => online::fig25(ctx),
        "fig13" => flipflops::fig13(ctx),
        "fig14" => flipflops::fig14(ctx),
        "fig17_18" => flipflops::fig17_18(ctx),
        "fig19" => flipflops::fig19(ctx),
        "fig20_21" => flipflops::fig20_21(ctx),
        "conformance" => conformance::conformance(ctx),
        _ => return false,
    }
    true
}
