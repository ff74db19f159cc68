//! Fixture: per-line and file-level allow escapes.

pub fn same_line(v: f64) -> bool {
    v == 0.5 // sherlock-lint: allow(nan-unsafe): fixture shows same-line escape
}

pub fn line_above(v: f64) -> bool {
    // sherlock-lint: allow(nan-unsafe): fixture shows line-above escape
    v == 0.5
}

pub fn wrong_rule(v: f64) -> bool {
    // sherlock-lint: allow(panic-path): names the wrong rule, so it does not suppress
    v == 0.5 // REAL: must be reported despite the escape above
}

pub fn unescaped(v: f64) -> bool {
    v == 0.5 // REAL: must be reported on this line
}
