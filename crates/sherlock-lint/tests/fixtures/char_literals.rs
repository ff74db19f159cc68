//! Lexer fixture: char literals containing `"` or `'` must not desync the
//! lexer into treating following code as a string.

pub fn chars(input: &str) -> usize {
    let quote = '"';
    let bracket = '[';
    let escaped = '\'';
    let newline = '\n';
    // A lifetime, to check `'a` is not parsed as an unterminated char.
    fn generic<'a>(s: &'a str) -> &'a str {
        s
    }
    let _ = generic(input);
    input.matches([quote, bracket, escaped, newline]).count()
}

pub fn real_compare(v: f64) -> bool {
    let _ = '"';
    v == 1.5 // REAL: float comparison must be reported on this line
}
