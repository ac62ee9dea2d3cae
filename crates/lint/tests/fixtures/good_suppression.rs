//@ path: crates/online/src/fixture.rs
// aion-lint: allow(panic-freedom) — fixture: a justified standalone
// suppression covers the next code line
pub fn first(v: &[u32]) -> u32 { v[0] }

pub fn last(v: &[u32]) -> u32 {
    *v.last().unwrap() // aion-lint: allow(panic-freedom) — trailing form covers its own line
}
