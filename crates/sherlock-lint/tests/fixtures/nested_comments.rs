//! Lexer fixture: nested block comments swallow NaN-unsafe text; code
//! after the comment closes is live again.

/* outer /* inner x == 0.5 */ still a comment: y != 1.0 */
pub fn after_comments(v: f64) -> bool {
    /* one more /* nested */ level */
    v != 0.0 // REAL: must be reported on this line
}

// A line comment with x == 0.5 and a.partial_cmp(&b).unwrap() changes nothing.
pub fn clean() -> u8 {
    0
}
