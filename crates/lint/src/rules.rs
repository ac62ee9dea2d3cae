//! The rule set: what each lint forbids, where it applies, and how
//! findings are suppressed.
//!
//! Every rule is a lexical pass over the token stream of one file (plus,
//! for the determinism rule, a workspace-wide table of hash-typed names
//! built in a first pass). Rules are deliberately *best-effort*: a
//! lexer cannot type-check, so each rule is tuned to catch the real
//! contract violations this repo grows (see `docs/lint.md` for the
//! catalog and the sanctioned fix for each) while keeping false
//! positives rare enough that writing a justified allow comment (the
//! suppression syntax is documented in `docs/lint.md`) is never a
//! burden.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

/// Stable rule identifiers (the names used in `allow(...)` comments).
pub const RULES: &[&str] = &[
    "clock-seam",
    "transport-seam",
    "determinism",
    "panic-freedom",
    "lattice-exhaustiveness",
    "suppression",
];

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

/// Workspace-wide context shared by per-file passes.
#[derive(Debug, Default)]
pub struct NameTable {
    /// `(crate, name)` pairs: field/binding names declared with a
    /// hash-map/set type somewhere in that determinism-sensitive crate.
    /// Iterating one of these in a `for` loop is order-sensitive by
    /// construction. Scoped per crate so `txns: FxHashMap` in
    /// `aion-online` does not taint a `txns: Vec` in `aion-types`.
    pub hash_typed: BTreeSet<(String, String)>,
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Crates whose verdicts/events/snapshots must be a pure function of the
/// input stream (the DST determinism contract).
const DETERMINISM_CRATES: &[&str] = &["types", "core", "online", "dst"];

/// Crates whose non-test code must not be able to panic (daemon and
/// checker hot paths).
const PANIC_FREE_CRATES: &[&str] = &["serve", "online"];

/// Crates where a silent `_ =>` over `IsolationLevel`/`CheckEvent` could
/// swallow a future lattice level or event kind.
const LATTICE_CRATES: &[&str] = &["types", "core", "online", "baselines", "io", "serve", "dst"];

/// Feed one file's declarations into the cross-file [`NameTable`].
/// Collects `name: FxHashMap<...>` (fields, params, annotated lets) and
/// `name = FxHashMap::default()`-style inferred bindings.
pub fn collect_names(path: &str, src: &str, table: &mut NameTable) {
    let Some(krate) = crate_of(path).filter(|c| DETERMINISM_CRATES.contains(c)) else {
        return;
    };
    let toks: Vec<Tok> = lex(src).into_iter().filter(is_code).collect();
    for w in toks.windows(3) {
        let (a, b, c) = (&w[0], &w[1], &w[2]);
        if a.kind != TokKind::Ident || c.kind != TokKind::Ident {
            continue;
        }
        let sep = b.text(src);
        if (sep == ":" || sep == "=") && HASH_TYPES.contains(&c.text(src)) {
            table.hash_typed.insert((krate.to_string(), a.text(src).to_string()));
        }
    }
}

/// Lint one file. `path` must be workspace-relative with `/` separators;
/// it drives rule scoping (crate name, seam files, test exemptions).
pub fn lint_file(path: &str, src: &str, table: &NameTable) -> Vec<Finding> {
    let all = lex(src);
    let code: Vec<Tok> = all.iter().copied().filter(is_code).collect();
    let test_lines = test_region_lines(src, &code);
    let suppress = Suppressions::parse(path, src, &all);

    let mut out = Vec::new();
    out.extend(suppress.malformed.iter().cloned());
    clock_seam(path, src, &code, &mut out);
    transport_seam(path, src, &code, &mut out);
    determinism(path, src, &code, table, &mut out);
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
        for (idx, t) in all.iter().enumerate() {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let text = t.text(src);
            let Some(at) = text.find("aion-lint:") else { continue };
            let directive = &text[at + "aion-lint:".len()..];
            let Some(open) = directive.find("allow(") else {
                s.malformed.push(Finding {
                    rule: "suppression",
                    file: path.to_string(),
                    line: t.line,
                    msg: "aion-lint directive without allow(rule, ...)".into(),
                });
                continue;
            };
            let Some(close) = directive[open..].find(')') else {
                s.malformed.push(Finding {
                    rule: "suppression",
                    file: path.to_string(),
                    line: t.line,
                    msg: "unclosed allow( in aion-lint directive".into(),
                });
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
                s.malformed.push(Finding {
                    rule: "suppression",
                    file: path.to_string(),
                    line: t.line,
                    msg: "allow() without a justification (`— <reason>` is mandatory)".into(),
                });
                continue;
            }
            let mut bad_rule = false;
            for r in &rules {
                if !RULES.contains(&r.as_str()) {
                    s.malformed.push(Finding {
                        rule: "suppression",
                        file: path.to_string(),
                        line: t.line,
                        msg: format!("allow() names unknown rule `{r}`"),
                    });
                    bad_rule = true;
                }
            }
            if rules.is_empty() {
                s.malformed.push(Finding {
                    rule: "suppression",
                    file: path.to_string(),
                    line: t.line,
                    msg: "allow() lists no rules".into(),
                });
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

// --- rule: clock-seam -----------------------------------------------------

/// `Instant` / `SystemTime` may only be touched inside the Clock seam
/// (`aion_types::clock`, which wraps them behind `Clock`/`Stopwatch`)
/// and the measurement harness (`crates/bench`). Everything else must
/// take a `Clock` or `Stopwatch` so DST can interpose a `SimClock`.
fn clock_seam(path: &str, src: &str, code: &[Tok], out: &mut Vec<Finding>) {
    if path == "crates/types/src/clock.rs" || crate_of(path) == Some("bench") || is_test_file(path)
    {
        return;
    }
    for t in code {
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text(src);
        if text == "Instant" || text == "SystemTime" {
            out.push(Finding {
                rule: "clock-seam",
                file: path.to_string(),
                line: t.line,
                msg: format!(
                    "`{text}` outside aion_types::clock — take a `Clock` (DST-reachable state) \
                     or a `Stopwatch` (wall-time measurement) instead"
                ),
            });
        }
    }
}

// --- rule: transport-seam -------------------------------------------------

/// Thread spawning and raw crossbeam channel plumbing belong to the
/// `ShardTransport` seam (`aion_online::transport`): code that spawns its
/// own threads or channels is invisible to the DST scheduler.
fn transport_seam(path: &str, src: &str, code: &[Tok], out: &mut Vec<Finding>) {
    if path == "crates/online/src/transport.rs" || is_test_file(path) {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text(src);
        if text == "crossbeam" {
            out.push(Finding {
                rule: "transport-seam",
                file: path.to_string(),
                line: t.line,
                msg: "raw crossbeam use outside aion_online::transport — route delivery \
                      through the ShardTransport seam"
                    .into(),
            });
        }
        if text == "thread"
            && code.get(i + 1).map(|x| x.text(src)) == Some(":")
            && code.get(i + 2).map(|x| x.text(src)) == Some(":")
        {
            if let Some(callee) = code.get(i + 3).map(|x| x.text(src)) {
                if callee == "spawn" || callee == "Builder" {
                    out.push(Finding {
                        rule: "transport-seam",
                        file: path.to_string(),
                        line: t.line,
                        msg: format!(
                            "`thread::{callee}` outside aion_online::transport — spawned \
                             threads escape the DST scheduler"
                        ),
                    });
                }
            }
        }
    }
}

// --- rule: determinism ----------------------------------------------------

/// In verdict-affecting crates: (a) `std::collections::HashMap/HashSet`
/// is forbidden (SipHash's random seed makes iteration order differ run
/// to run — use `aion_types::FxHashMap` or `BTreeMap`); (b) `for`-loop
/// iteration over any hash-typed name is flagged (even an Fx map's order
/// is an artifact of insertion history — sort before the order can
/// escape into events, snapshots or counters).
fn determinism(path: &str, src: &str, code: &[Tok], table: &NameTable, out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(path).filter(|c| DETERMINISM_CRATES.contains(c)) else {
        return;
    };
    if path == "crates/types/src/fxhash.rs" || is_test_file(path) {
        return;
    }
    for t in code {
        let text = t.text(src);
        if t.kind == TokKind::Ident && (text == "HashMap" || text == "HashSet") {
            out.push(Finding {
                rule: "determinism",
                file: path.to_string(),
                line: t.line,
                msg: format!(
                    "`{text}` (randomly seeded) in a verdict-affecting crate — use \
                     aion_types::Fx{text} or BTree{}",
                    text.trim_start_matches("Hash")
                ),
            });
        }
    }
    // for-loop heads: `for PAT in <expr> {` where <expr> iterates a
    // hash-typed name.
    let mut i = 0;
    while i < code.len() {
        if code[i].text(src) != "for" {
            i += 1;
            continue;
        }
        // Find `in` at pattern depth 0 before any `{` (an `impl ... for
        // Type` has no `in` before its body).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut in_at = None;
        while j < code.len() {
            match code[j].text(src) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                "in" if depth == 0 => {
                    in_at = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(in_at) = in_at else {
            i += 1;
            continue;
        };
        // Expression tokens: from after `in` to the body `{` at depth 0.
        let mut k = in_at + 1;
        let mut depth = 0i32;
        let mut expr = Vec::new();
        while k < code.len() {
            let txt = code[k].text(src);
            match txt {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
            expr.push(code[k]);
            k += 1;
        }
        if let Some(name) = iterated_hash_name(src, &expr, krate, table) {
            out.push(Finding {
                rule: "determinism",
                file: path.to_string(),
                line: code[i].line,
                msg: format!(
                    "iteration over hash-typed `{name}` — hash order is an insertion-history \
                     artifact; collect and sort (or iterate a BTreeMap) before the order \
                     can escape"
                ),
            });
        }
        i = k.max(i + 1);
    }
}

/// Methods whose iteration order is the map's internal order.
const UNORDERED_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// If the for-head expression is (a reference to) a path ending in a
/// hash-typed name, or such a path followed by one unordered-iteration
/// method call, return that name.
fn iterated_hash_name(src: &str, expr: &[Tok], krate: &str, table: &NameTable) -> Option<String> {
    // Strip leading `&`/`&mut`.
    let mut toks: Vec<&Tok> =
        expr.iter().skip_while(|t| matches!(t.text(src), "&" | "mut")).collect();
    // Strip one trailing `.method()` if it's an unordered iterator.
    if toks.len() >= 4 {
        let n = toks.len();
        if toks[n - 1].text(src) == ")"
            && toks[n - 2].text(src) == "("
            && toks[n - 4].text(src) == "."
        {
            let m = toks[n - 3].text(src);
            if UNORDERED_ITERS.contains(&m) {
                toks.truncate(n - 4);
            } else {
                return None; // `.enumerate()`, `.range(..)`, `.rev()` — not our shape
            }
        }
    }
    // What remains must be a plain path `a.b.c` / `self.x` — any other
    // call or operator means we cannot tell what is iterated.
    let mut last_ident = None;
    for t in &toks {
        match t.kind {
            TokKind::Ident => last_ident = Some(t.text(src)),
            TokKind::Punct if matches!(t.text(src), "." | ":") => {}
            _ => return None,
        }
    }
    let name = last_ident?;
    table.hash_typed.contains(&(krate.to_string(), name.to_string())).then(|| name.to_string())
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
