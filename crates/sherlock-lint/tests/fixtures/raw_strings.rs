//! Lexer fixture: NaN-unsafe-looking text inside raw strings must not
//! fire, while real comparisons after them still must.

pub fn raw_strings() -> String {
    // None of these are real comparisons — they live inside string literals.
    let a = r"x == 0.5 and y != 1.0";
    let b = r#"embedded "quote" then a.partial_cmp(&b).unwrap()"#;
    let c = r##"hash depth two: r#"inner"# z == 2.0"##;
    let d = "escaped \" quote then w == 3.0";
    format!("{a}{b}{c}{d}")
}

pub fn real_compare_after_raw(v: f64) -> bool {
    let _decoy = r##"a "# inside needs two hashes"##;
    v == 0.5 // REAL: must be reported on this line
}
