//! Fixture: `[]`-indexing a map panics on a missing key. Slice, array and
//! `Vec` indexing (and unwrap/expect/panic!) are clippy's panic lints.

use std::collections::{BTreeMap, HashMap};

pub struct Index {
    by_id: BTreeMap<u32, u32>,
}

pub fn index_site(v: &[u32], m: &std::collections::HashMap<u32, u32>) -> u32 {
    v[3] + m[&7] // REAL
}

pub fn local_map() -> u32 {
    let counts: HashMap<u32, u32> = HashMap::new();
    counts[&0] // REAL
}

pub fn field_map(ix: &Index) -> u32 {
    ix.by_id[&1] // REAL
}

pub fn not_flagged(v: Option<u32>, m: &HashMap<u32, u32>, s: &[u32]) -> u32 {
    // Lookups that cannot panic, and the shapes clippy owns.
    let found = m.get(&7).copied().unwrap_or(0);
    let arr = [1, 2, 3];
    found + v.unwrap_or_default() + s[0] + arr[1]
}
