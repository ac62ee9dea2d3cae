//! Lexer totality: no input — arbitrary bytes, byte-mutated real Rust
//! source, truncations — may ever panic the lexer or the rule passes.
//! The lint runs over every workspace file on every CI run; a panic on
//! weird-but-valid source would take CI down with it.

use aion_lint::{lex, lint_file, TokKind};
use proptest::prelude::*;

/// Real source with every token class the lexer distinguishes.
const SEED_SRC: &str = r####"
//! Module docs with `code` and -- dashes.
use std::collections::BTreeMap; // trailing
/* block /* nested */ comment */
fn f<'a>(x: &'a str) -> char {
    let _r = r#"raw "quoted" string"#;
    let _b = b"bytes\xff";
    let _c = 'x';
    let _n = 0xFF_u64 + 1.5e-3;
    match x.len() {
        0 => 'a',
        _ => 'b',
    }
}
"####;

fn lint_total(src: &str) {
    // Lexing and every rule pass must return (never panic) on any input.
    let toks = lex(src);
    for t in &toks {
        // Spans must be in-bounds, on char boundaries, and non-empty for
        // every token kind (the rules index `src` with them).
        assert!(t.start < t.end && t.end <= src.len(), "bad span {}..{}", t.start, t.end);
        let _ = t.text(src);
    }
    let _ = lint_file("crates/online/src/fuzz.rs", src);
    let _ = lint_file("crates/serve/src/fuzz.rs", src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_mutations_never_panic(pos in 0usize..SEED_SRC.len(), byte in 0u32..256) {
        let mut bytes = SEED_SRC.as_bytes().to_vec();
        bytes[pos] = byte as u8;
        // Mutation may break UTF-8; the lexer takes &str, so lint what
        // still decodes (lossy repair exercises replacement chars).
        let src = String::from_utf8_lossy(&bytes).into_owned();
        lint_total(&src);
    }

    #[test]
    fn truncations_never_panic(cut in 0usize..SEED_SRC.len()) {
        let mut end = cut;
        while !SEED_SRC.is_char_boundary(end) {
            end -= 1;
        }
        lint_total(&SEED_SRC[..end]);
    }

    #[test]
    fn arbitrary_ascii_soup_never_panics(v in proptest::collection::vec(32u8..127, 0..200)) {
        let src = String::from_utf8_lossy(&v).into_owned();
        lint_total(&src);
    }

    #[test]
    fn comments_and_strings_stay_opaque(n in 0u32..1000) {
        // Whatever we embed in a comment or string, it must never leak
        // rule findings (rules only read code tokens).
        let src = format!(
            "// panic!() v[0] {n}\nfn ok() {{ let s = \"todo!() unwrap()[0] {n}\"; drop(s); }}\n"
        );
        let findings = lint_file("crates/online/src/fuzz.rs", &src);
        prop_assert!(findings.is_empty(), "leaked: {findings:?}");
    }
}

#[test]
fn seed_source_lexes_to_expected_classes() {
    let toks = lex(SEED_SRC);
    assert!(toks.iter().any(|t| t.kind == TokKind::LineComment));
    assert!(toks.iter().any(|t| t.kind == TokKind::BlockComment));
    assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    assert!(toks.iter().any(|t| t.kind == TokKind::Char));
    assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
    assert!(toks.iter().any(|t| t.kind == TokKind::Number));
}
