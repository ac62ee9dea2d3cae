//@ path: crates/online/src/fixture.rs
// aion-lint: allow(panic-freedom)
pub fn first(v: &[u32]) -> u32 { v[0] }

// aion-lint: allow(determinism) — the rule moved to clippy
pub fn last(v: &[u32]) -> u32 {
    *v.last().unwrap()
}
