//! The suppression baseline: a checked-in snapshot of historical findings
//! (`tools/lint-baseline.txt`) so the lint fails CI only on *new*
//! violations while the old ones are burned down over time.
//!
//! Entries are keyed `(rule, path, trimmed source line, occurrence index)`
//! rather than by line number, so unrelated edits that shift code up or
//! down do not invalidate the baseline. The occurrence index
//! disambiguates identical snippets within one file (the same `x.unwrap()`
//! appearing twice — even twice on one line): each repetition is its own
//! entry, so fixing one occurrence leaves exactly one identifiable stale
//! entry instead of an anonymous multiset credit.
//!
//! File format is tab-separated `rule<TAB>path<TAB>occ<TAB>snippet`, with
//! the snippet last so embedded tabs in source lines cannot desync the
//! parse.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;

use crate::rules::Finding;

/// `(rule, path, snippet, occurrence)` — one suppressed finding.
type Key = (String, String, String, usize);

/// Set of suppressed findings, occurrence-indexed per file.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: HashSet<Key>,
}

/// Result of diffing current findings against a baseline.
#[derive(Debug, Default)]
pub struct Diff<'a> {
    /// Findings not covered by the baseline — these fail the build.
    pub new: Vec<&'a Finding>,
    /// Findings absorbed by the baseline.
    pub baselined: usize,
    /// Baseline entries that no longer match anything (fixed or moved) —
    /// candidates for `--update-baseline`.
    pub stale: usize,
}

/// Assigns occurrence indices: the n-th identical `(rule, path, snippet)`
/// triple gets index n-1, in presentation order.
#[derive(Default)]
struct OccCounter {
    seen: HashMap<(String, String, String), usize>,
}

impl OccCounter {
    fn next(&mut self, rule: &str, path: &str, snippet: &str) -> usize {
        let slot =
            self.seen.entry((rule.to_string(), path.to_string(), snippet.to_string())).or_insert(0);
        let occ = *slot;
        *slot += 1;
        occ
    }
}

impl Baseline {
    /// Parse the baseline file. A missing file is an empty baseline, so the
    /// tool bootstraps cleanly on a pristine tree.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Baseline::default()),
            Err(e) => return Err(e),
        };
        let mut entries = HashSet::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, '\t');
            let (Some(rule), Some(file), Some(Ok(occ)), Some(snippet)) =
                (parts.next(), parts.next(), parts.next().map(str::parse::<usize>), parts.next())
            else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed baseline line (want rule\\tpath\\tocc\\tsnippet): {line:?}"),
                ));
            };
            entries.insert((rule.to_string(), file.to_string(), snippet.to_string(), occ));
        }
        Ok(Baseline { entries })
    }

    /// Serialize `findings` as a fresh baseline file (sorted, stable).
    pub fn write(path: &Path, findings: &[Finding]) -> io::Result<()> {
        let mut occs = OccCounter::default();
        let mut lines: Vec<String> = findings
            .iter()
            .map(|f| {
                let occ = occs.next(f.rule.name(), &f.path, &f.snippet);
                format!("{}\t{}\t{}\t{}", f.rule.name(), f.path, occ, f.snippet)
            })
            .collect();
        lines.sort();
        let mut body = String::from(
            "# sherlock-lint suppression baseline.\n\
             # Frozen findings: the lint fails only on violations not listed here.\n\
             # Regenerate with `cargo run -p sherlock-lint -- --update-baseline`.\n\
             # Format: rule<TAB>path<TAB>occurrence-index<TAB>trimmed source line.\n",
        );
        for line in &lines {
            body.push_str(line);
            body.push('\n');
        }
        // sherlock-lint: allow(raw-fs-write, unsynced-store-write): the baseline is regenerated wholesale; a torn write just re-runs
        std::fs::write(path, body)
    }

    /// Number of suppressed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is suppressed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Split `findings` into new vs. baselined. Each finding claims the
    /// next occurrence index for its `(rule, path, snippet)` triple, in
    /// order, and is baselined iff that exact indexed entry exists — so a
    /// line carrying the same snippet twice needs two entries, and fixing
    /// either occurrence surfaces as a stale entry rather than silently
    /// rebalancing a count.
    pub fn diff<'a>(&self, findings: &'a [Finding]) -> Diff<'a> {
        let mut occs = OccCounter::default();
        let mut used: HashSet<&Key> = HashSet::new();
        let mut diff = Diff::default();
        for f in findings {
            let occ = occs.next(f.rule.name(), &f.path, &f.snippet);
            let key = (f.rule.name().to_string(), f.path.clone(), f.snippet.clone(), occ);
            match self.entries.get(&key) {
                Some(entry) => {
                    used.insert(entry);
                    diff.baselined += 1;
                }
                None => diff.new.push(f),
            }
        }
        diff.stale = self.entries.len() - used.len();
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleKind;

    fn finding(rule: RuleKind, path: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            snippet: snippet.to_string(),
            message: String::new(),
            trace: Vec::new(),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sherlock-lint-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/baseline.txt")).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn roundtrip_and_diff() {
        let old = vec![
            finding(RuleKind::PanicPath, "a.rs", 3, "x.unwrap();"),
            finding(RuleKind::PanicPath, "a.rs", 9, "x.unwrap();"), // duplicate snippet
            finding(RuleKind::NanUnsafe, "b.rs", 1, "a == 0.0"),
        ];
        let path = tmp("roundtrip.txt");
        Baseline::write(&path, &old).unwrap();
        let b = Baseline::load(&path).unwrap();
        assert_eq!(b.len(), 3);

        // Same findings, different line numbers: fully baselined.
        let drifted = vec![
            finding(RuleKind::PanicPath, "a.rs", 13, "x.unwrap();"),
            finding(RuleKind::PanicPath, "a.rs", 29, "x.unwrap();"),
            finding(RuleKind::NanUnsafe, "b.rs", 5, "a == 0.0"),
        ];
        let d = b.diff(&drifted);
        assert!(d.new.is_empty());
        assert_eq!(d.baselined, 3);
        assert_eq!(d.stale, 0);

        // A third identical unwrap exceeds the per-occurrence entries.
        let mut more = drifted.clone();
        more.push(finding(RuleKind::PanicPath, "a.rs", 40, "x.unwrap();"));
        let d = b.diff(&more);
        assert_eq!(d.new.len(), 1);

        // Fixing a finding leaves a stale entry.
        let fixed = &drifted[..2];
        let d = b.diff(fixed);
        assert!(d.new.is_empty());
        assert_eq!(d.stale, 1);
    }

    #[test]
    fn duplicate_snippets_on_one_line_are_distinct_entries() {
        // `a.unwrap(); b.unwrap();` on a single line: two findings with
        // identical (rule, path, line, snippet). Each must be its own
        // occurrence-indexed entry.
        let twice = vec![
            finding(RuleKind::PanicPath, "a.rs", 7, "a.unwrap(); b.unwrap();"),
            finding(RuleKind::PanicPath, "a.rs", 7, "a.unwrap(); b.unwrap();"),
        ];
        let path = tmp("dup-line.txt");
        Baseline::write(&path, &twice).unwrap();
        let b = Baseline::load(&path).unwrap();
        assert_eq!(b.len(), 2, "one entry per occurrence, not a collapsed key");

        // Both present: fully absorbed.
        let d = b.diff(&twice);
        assert!(d.new.is_empty());
        assert_eq!((d.baselined, d.stale), (2, 0));

        // One occurrence fixed: the orphaned entry must surface as stale —
        // this is the regression the multiset keying missed.
        let d = b.diff(&twice[..1]);
        assert!(d.new.is_empty());
        assert_eq!((d.baselined, d.stale), (1, 1));

        // A third occurrence appearing is NEW, not absorbed.
        let mut three = twice.clone();
        three.push(twice[0].clone());
        let d = b.diff(&three);
        assert_eq!(d.new.len(), 1);
    }

    #[test]
    fn legacy_three_field_format_is_rejected() {
        // `rule<TAB>path<TAB>snippet` has no occurrence index, so it is
        // malformed rather than read with indices assigned in file order.
        let path = tmp("legacy.txt");
        std::fs::write(
            &path,
            "# comment\n\
             panic-path\ta.rs\tx.unwrap();\n\
             nan-unsafe\tb.rs\ta == 0.0\n",
        )
        .unwrap();
        assert!(Baseline::load(&path).is_err());
    }

    #[test]
    fn malformed_line_is_an_error() {
        let path = tmp("malformed.txt");
        for line in [
            "panic-path only-two-fields\n",
            // A non-numeric occurrence index.
            "panic-path\ta.rs\tfirst\tx.unwrap();\n",
        ] {
            std::fs::write(&path, line).unwrap();
            assert!(Baseline::load(&path).is_err(), "{line:?}");
        }
    }
}
