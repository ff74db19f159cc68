//! Experiment output: aligned ASCII tables on stdout plus machine-readable
//! JSON under `results/`.

use std::fmt::Write as _;
use std::path::PathBuf;

use serde_json::Value as Json;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    #[allow(
        clippy::indexing_slicing,
        reason = "rows come through row(), which asserts one cell per header"
    )]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Format a plain number cell.
pub fn num(v: f64) -> String {
    format!("{v:.2}")
}

/// Write a JSON document to `results/<name>.json` (relative to the
/// workspace root when run via `cargo run`, else the current directory).
/// Failures are reported but not fatal — the table on stdout is the
/// primary artifact.
pub fn write_json(name: &str, value: &Json) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => {
            // sherlock-lint: allow(unsynced-store-write): bench report, re-runnable — not a store artifact
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("(wrote {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Minimal experiment CLI: `--repeats N` to override the trial count,
/// `--full` for the paper-scale counts, and `--seed N` to override the
/// experiment's RNG seed (every binary defaults to a fixed constant, so
/// runs are reproducible either way — the flag exists to probe seed
/// sensitivity without rebuilding).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentArgs {
    /// Requested repeat count, if any.
    pub repeats: Option<usize>,
    /// Run at paper scale.
    pub full: bool,
    /// Requested RNG seed, if any.
    pub seed: Option<u64>,
}

impl ExperimentArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> Self {
        let mut args = ExperimentArgs { repeats: None, full: false, seed: None };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--repeats" => {
                    args.repeats = iter.next().and_then(|v| v.parse().ok());
                }
                "--full" => args.full = true,
                "--seed" => {
                    args.seed = iter.next().and_then(|v| v.parse().ok());
                }
                other => eprintln!("warning: unknown argument {other:?} ignored"),
            }
        }
        args
    }

    /// Choose a repeat count: explicit `--repeats` wins, then `--full`'s
    /// paper-scale value, then the quick default.
    pub fn repeats_or(&self, quick: usize, full: usize) -> usize {
        self.repeats.unwrap_or(if self.full { full } else { quick })
    }

    /// Choose an RNG seed: explicit `--seed` wins over the binary's
    /// deterministic default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a longer name".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        let lines: Vec<&str> = text.lines().collect();
        // Header and rows align on the second column.
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1'), Some(col));
        assert_eq!(lines[4].find('2'), Some(col));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(12.345), "12.3%");
        assert_eq!(num(1.0 / 3.0), "0.33");
    }

    #[test]
    fn repeats_policy() {
        let quick = ExperimentArgs { repeats: None, full: false, seed: None };
        assert_eq!(quick.repeats_or(10, 50), 10);
        let full = ExperimentArgs { repeats: None, full: true, seed: None };
        assert_eq!(full.repeats_or(10, 50), 50);
        let explicit = ExperimentArgs { repeats: Some(3), full: true, seed: None };
        assert_eq!(explicit.repeats_or(10, 50), 3);
    }

    #[test]
    fn seed_policy() {
        let default = ExperimentArgs { repeats: None, full: false, seed: None };
        assert_eq!(default.seed_or(0xF168), 0xF168);
        let explicit = ExperimentArgs { repeats: None, full: false, seed: Some(7) };
        assert_eq!(explicit.seed_or(0xF168), 7);
    }
}
