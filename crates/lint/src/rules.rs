//! The rule set: what each lint forbids, where it applies, and how
//! findings are suppressed.
//!
//! Every rule is a lexical pass over the token stream of one file.
//! Rules are deliberately *best-effort*: a lexer cannot type-check, so
//! each rule is tuned to catch the real contract violations this repo
//! grows (see `docs/lint.md` for the catalog and the sanctioned fix for
//! each) while keeping false positives rare enough that writing a
//! justified allow comment (the suppression syntax is documented in
//! `docs/lint.md`) is never a burden. The clock, transport and
//! determinism contracts need resolved types, so clippy enforces them
//! (the workspace `clippy.toml` and crate attributes).

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

/// Stable rule identifiers (the names used in `allow(...)` comments).
pub const RULES: &[&str] = &["panic-freedom", "lattice-exhaustiveness", "suppression"];

/// One finding: rule id + location + message.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path (`crates/online/src/feed.rs`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Crates whose non-test code must not be able to panic (daemon and
/// checker hot paths).
const PANIC_FREE_CRATES: &[&str] = &["serve", "online"];

/// Crates where a silent `_ =>` over `IsolationLevel`/`CheckEvent` could
/// swallow a future lattice level or event kind.
const LATTICE_CRATES: &[&str] = &["types", "core", "online", "baselines", "io", "serve", "dst"];

/// Lint one file. `path` must be workspace-relative with `/` separators;
/// it drives rule scoping (crate name, test exemptions).
pub fn lint_file(path: &str, src: &str) -> Vec<Finding> {
    let all = lex(src);
    let code: Vec<Tok> = all.iter().copied().filter(is_code).collect();
    let test_lines = test_region_lines(src, &code);
    let suppress = Suppressions::parse(path, src, &all);

    let mut out = Vec::new();
    out.extend(suppress.malformed.iter().cloned());
    panic_freedom(path, src, &code, &mut out);
    lattice_exhaustiveness(path, src, &code, &mut out);

    out.retain(|f| {
        f.rule == "suppression" || (!test_lines.contains(&f.line) && !suppress.covers(f))
    });
    out.sort();
    out.dedup();
    out
}

fn is_code(t: &Tok) -> bool {
    !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
}

/// The crate name under `crates/<name>/...`, if any.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Files under `tests/`, `benches/` or `examples/` are test collateral:
/// every rule except `suppression` skips them wholesale.
fn is_test_file(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/")
}

// --- test-region detection ------------------------------------------------

/// Lines covered by `#[cfg(test)]` / `#[test]` items (the attribute's own
/// line through the closing brace of the annotated item).
fn test_region_lines(src: &str, code: &[Tok]) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].text(src) == "#" && code.get(i + 1).map(|t| t.text(src)) == Some("[") {
            // Scan the attribute body for `test`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut is_test_attr = false;
            while j < code.len() && depth > 0 {
                match code[j].text(src) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                // Cover from the attribute to the end of the annotated
                // item: the first `{`..matching `}` block after it (fn
                // body or `mod tests` body). Items ending in `;` before
                // any `{` (e.g. `#[cfg(test)] use x;`) cover to the `;`.
                let start_line = code[i].line;
                let mut k = j;
                while k < code.len() && code[k].text(src) != "{" && code[k].text(src) != ";" {
                    k += 1;
                }
                let end_line = if k < code.len() && code[k].text(src) == "{" {
                    let mut d = 1i32;
                    let mut m = k + 1;
                    while m < code.len() && d > 0 {
                        match code[m].text(src) {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    code.get(m.saturating_sub(1)).map_or(u32::MAX, |t| t.line)
                } else {
                    code.get(k).map_or(start_line, |t| t.line)
                };
                lines.extend(start_line..=end_line);
                i = j;
                continue;
            }
        }
        i += 1;
    }
    lines
}

// --- suppression ----------------------------------------------------------

struct Suppressions {
    /// `(rule, line)` pairs a well-formed allow comment covers (the
    /// comment's own line, plus the next code line for comments that
    /// stand alone on theirs).
    allowed: Vec<(String, u32)>,
    /// Malformed directives (missing justification / unknown rule) — as
    /// findings under the `suppression` rule, never suppressible.
    malformed: Vec<Finding>,
}

impl Suppressions {
    fn parse(path: &str, src: &str, all: &[Tok]) -> Suppressions {
        let mut s = Suppressions { allowed: Vec::new(), malformed: Vec::new() };
        let malformed =
            |line, msg: String| Finding { rule: "suppression", file: path.to_string(), line, msg };
        for (idx, t) in all.iter().enumerate() {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let text = t.text(src);
            let Some(at) = text.find("aion-lint:") else { continue };
            let directive = &text[at + "aion-lint:".len()..];
            let Some(open) = directive.find("allow(") else {
                s.malformed
                    .push(malformed(t.line, "aion-lint directive without allow(rule, ...)".into()));
                continue;
            };
            let Some(close) = directive[open..].find(')') else {
                s.malformed
                    .push(malformed(t.line, "unclosed allow( in aion-lint directive".into()));
                continue;
            };
            let rules: Vec<String> = directive[open + "allow(".len()..open + close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let rest = directive[open + close + 1..].trim_start();
            // Mandatory justification: a dash/colon separator followed by
            // actual words. "because CI said so" is on the author.
            let reason = rest
                .strip_prefix('—')
                .or_else(|| rest.strip_prefix("--"))
                .or_else(|| rest.strip_prefix('-'))
                .or_else(|| rest.strip_prefix(':'))
                .map(str::trim)
                .unwrap_or("");
            if reason.is_empty() {
                s.malformed.push(malformed(
                    t.line,
                    "allow() without a justification (`— <reason>` is mandatory)".into(),
                ));
                continue;
            }
            let mut bad_rule = false;
            for r in &rules {
                if !RULES.contains(&r.as_str()) {
                    s.malformed
                        .push(malformed(t.line, format!("allow() names unknown rule `{r}`")));
                    bad_rule = true;
                }
            }
            if rules.is_empty() {
                s.malformed.push(malformed(t.line, "allow() lists no rules".into()));
                continue;
            }
            if bad_rule {
                continue;
            }
            // A comment alone on its line covers the next code line;
            // a trailing comment covers its own line. Cover both: the
            // only code "on" a standalone comment's line is none.
            let next_code_line =
                all[idx + 1..].iter().find(|n| is_code(n)).map(|n| n.line).unwrap_or(t.line);
            let standalone = !all[..idx].iter().any(|p| is_code(p) && p.line == t.line);
            for r in rules {
                s.allowed.push((r.clone(), t.line));
                if standalone {
                    s.allowed.push((r, next_code_line));
                }
            }
        }
        s
    }

    fn covers(&self, f: &Finding) -> bool {
        self.allowed.iter().any(|(r, l)| r == f.rule && *l == f.line)
    }
}

// --- rule: panic-freedom --------------------------------------------------

/// In daemon/hot-path crates, non-test code must not contain
/// `.unwrap()`, `.expect(`, `panic!`, `todo!`, `unimplemented!`, or
/// slice/map indexing `x[...]` — all of which can abort the process on a
/// malformed input. (`unreachable!` stays legal: it is the sanctioned
/// loud catch-all for non_exhaustive matches.)
fn panic_freedom(path: &str, src: &str, code: &[Tok], out: &mut Vec<Finding>) {
    if crate_of(path).is_none_or(|c| !PANIC_FREE_CRATES.contains(&c)) || is_test_file(path) {
        return;
    }
    let mut push = |line: u32, msg: String| {
        out.push(Finding { rule: "panic-freedom", file: path.to_string(), line, msg });
    };
    for (i, t) in code.iter().enumerate() {
        let text = t.text(src);
        match t.kind {
            TokKind::Ident => {
                let next = code.get(i + 1).map(|x| x.text(src));
                let prev = i.checked_sub(1).and_then(|p| code.get(p)).map(|x| x.text(src));
                match text {
                    "unwrap" | "expect" if prev == Some(".") && next == Some("(") => push(
                        t.line,
                        format!("`.{text}(...)` can abort the daemon — return a typed error"),
                    ),
                    "panic" | "todo" | "unimplemented" if next == Some("!") => {
                        push(t.line, format!("`{text}!` in non-test daemon code"))
                    }
                    _ => {}
                }
            }
            TokKind::Punct if text == "[" => {
                // Indexing (prev token ends an expression) as opposed to
                // array literals, attributes, macro brackets, types.
                let prev = i.checked_sub(1).and_then(|p| code.get(p));
                let is_index = prev.is_some_and(|p| {
                    p.kind == TokKind::Ident && !is_keyword_before_bracket(p.text(src))
                        || p.text(src) == ")"
                        || p.text(src) == "]"
                });
                if is_index {
                    push(
                        t.line,
                        "slice/map indexing can panic on out-of-range — use .get(..) and \
                         handle the miss"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, `else [..]`...).
fn is_keyword_before_bracket(t: &str) -> bool {
    matches!(
        t,
        "return"
            | "break"
            | "in"
            | "else"
            | "match"
            | "if"
            | "while"
            | "mut"
            | "dyn"
            | "impl"
            | "where"
            | "as"
            | "const"
            | "let"
            | "for"
            | "ref"
    )
}

// --- rule: lattice-exhaustiveness ----------------------------------------

/// A `match` whose arms name `IsolationLevel::…` or `CheckEvent::…`
/// variants must not also have a silent `_ =>` arm: adding `Causal` /
/// `Prefix` (or a new event kind) should fail loudly, not vanish into a
/// default. The sanctioned catch-all for these `#[non_exhaustive]` enums
/// is a *named* binding with an explicit loud body (see docs/lint.md).
fn lattice_exhaustiveness(path: &str, src: &str, code: &[Tok], out: &mut Vec<Finding>) {
    if crate_of(path).is_none_or(|c| !LATTICE_CRATES.contains(&c)) || is_test_file(path) {
        return;
    }
    let mut i = 0;
    while i < code.len() {
        if code[i].text(src) != "match" {
            i += 1;
            continue;
        }
        // Scrutinee runs to the `{` at depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < code.len() {
            match code[j].text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= code.len() {
            break;
        }
        // Walk the arms: pattern tokens run from an arm start to the
        // top-level `=>`; bodies run to the `,` (or `}`-then-`,`) that
        // returns us to arm position.
        let mut k = j + 1;
        let mut depth = 1i32;
        let mut in_pattern = true;
        let mut pattern: Vec<&Tok> = Vec::new();
        let mut wildcard_arm_line: Option<u32> = None;
        let mut names_lattice_enum = false;
        while k < code.len() && depth > 0 {
            let txt = code[k].text(src);
            match txt {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            if in_pattern && depth == 1 {
                if txt == "=" && code.get(k + 1).map(|t| t.text(src)) == Some(">") {
                    // End of pattern.
                    let pat_texts: Vec<&str> = pattern.iter().map(|t| t.text(src)).collect();
                    if pat_texts.contains(&"IsolationLevel") || pat_texts.contains(&"CheckEvent") {
                        names_lattice_enum = true;
                    }
                    if pat_texts == ["_"] {
                        wildcard_arm_line = Some(pattern[0].line);
                    }
                    in_pattern = false;
                    k += 2;
                    continue;
                }
                pattern.push(&code[k]);
            } else if !in_pattern && depth == 1 && txt == "," {
                in_pattern = true;
                pattern = Vec::new();
            } else if !in_pattern && depth == 1 && txt == "}" {
                // A braced arm body just closed (the `}` dropped us back
                // to arm depth); the trailing comma is optional, so the
                // next token may already start the next arm's pattern.
                in_pattern = true;
                pattern = Vec::new();
                if code.get(k + 1).map(|t| t.text(src)) == Some(",") {
                    k += 2;
                    continue;
                }
            }
            k += 1;
        }
        if names_lattice_enum {
            if let Some(line) = wildcard_arm_line {
                out.push(Finding {
                    rule: "lattice-exhaustiveness",
                    file: path.to_string(),
                    line,
                    msg: "silent `_ =>` in a match over IsolationLevel/CheckEvent — name the \
                          variants (a future `Causal`/`Prefix` must fail loudly); for the \
                          non_exhaustive catch-all use a named binding with a loud body"
                        .into(),
                });
            }
        }
        i = j + 1;
    }
}
