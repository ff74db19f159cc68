//! Fixture: `unsynced-store-write` flags bare `fs::write` of artifacts in
//! library code (persist through `dbsherlock_core::store::ModelStore`).

pub fn persists_by_hand(path: &str, body: &str) {
    let _ = std::fs::write(path, body); // REAL
    let _ = fs::write(path, body); // REAL
}

pub fn reading_and_writer_methods_are_fine(path: &str, buf: &[u8]) {
    let _ = std::fs::read(path);
    let mut sink: Vec<u8> = Vec::new();
    use std::io::Write;
    let _ = sink.write(buf);
    let _ = sink.write_all(buf);
}

pub fn sanctioned_site(path: &str) {
    // sherlock-lint: allow(unsynced-store-write): pretend this is the store module
    let _ = std::fs::write(path, b"checksummed elsewhere");
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_write_freely() {
        std::fs::write("/tmp/scratch", b"ok").unwrap();
    }
}
