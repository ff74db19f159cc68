//! Workspace traversal and per-file rule scoping.

use std::io;
use std::path::{Path, PathBuf};

use crate::calls::CallGraph;
use crate::flow::{FileFlow, FlowIndex};
use crate::lexer::lex;
use crate::rules::{check_deny_header, scan_source_indexed, FileClass, Finding, RuleKind};
use crate::syntax::FileSyntax;
use crate::taint::TaintIndex;

/// Directory names never scanned, wherever they appear.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    ".claude",
    // Vendored stand-ins for crates.io deps: external code, not ours.
    "offline-deps",
    // Lint-test fixtures intentionally contain violations.
    "fixtures",
];

/// What to scan and with which rules.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Rules to run.
    pub rules: Vec<RuleKind>,
}

impl ScanConfig {
    /// All rules over `root`.
    pub fn all_rules(root: PathBuf) -> Self {
        ScanConfig { root, rules: RuleKind::ALL.to_vec() }
    }
}

/// Classify a workspace-relative path (forward slashes). `None` ⇒ skip.
///
/// * `Lib` — library code of a workspace crate (`crates/*/src/**`, root
///   `src/**`), excluding `src/bin/` and `main.rs`: the full rule set.
/// * `Other` — tests, benches, examples, binaries: `panic-path` waived.
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let in_crate_src =
        (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/");
    let is_binary = rel.contains("/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs";
    if in_crate_src && !is_binary {
        Some(FileClass::Lib)
    } else {
        Some(FileClass::Other)
    }
}

/// Is `rel` a crate root that must carry the clippy deny-header?
/// Covers every `crates/*/src/lib.rs` plus the workspace facade `src/lib.rs`.
pub fn needs_deny_header(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let mut parts = rel.split('/');
    matches!(
        (parts.next(), parts.next(), parts.next(), parts.next(), parts.next()),
        (Some("crates"), Some(_), Some("src"), Some("lib.rs"), None)
    )
}

/// Walk the workspace and run the configured rules over every `.rs` file.
/// Findings come back sorted by `(path, line, rule name)` — a documented,
/// enum-order-independent total order, so output is byte-identical across
/// runs and across refactors that reorder `RuleKind`.
///
/// When any flow or taint rule is requested the scan is **two-pass**: pass 1
/// builds the workspace-wide [`CallGraph`] from every library file, and the
/// [`FlowIndex`] (lock-order pairs, budget summaries) and [`TaintIndex`]
/// over it; pass 2 runs the rules with those indexes so interprocedural
/// facts cross file boundaries.
pub fn scan_workspace(config: &ScanConfig) -> io::Result<Vec<Finding>> {
    scan_workspace_with_taint(config).map(|(findings, _)| findings)
}

/// The workspace-wide [`TaintIndex`] and the [`CallGraph`] it was
/// finalized over.
pub type TaintFacts = (TaintIndex, CallGraph);

/// [`scan_workspace`] that also hands back the [`TaintFacts`] (when any
/// taint rule was requested), so callers like `--certify` can derive the
/// certificate from the same pass-1 facts the findings came from.
pub fn scan_workspace_with_taint(
    config: &ScanConfig,
) -> io::Result<(Vec<Finding>, Option<TaintFacts>)> {
    let mut files = Vec::new();
    collect_rs_files(&config.root, &config.root, &mut files)?;
    files.sort();

    let mut classified: Vec<(String, FileClass, String)> = Vec::new();
    for rel in &files {
        let Some(class) = classify(rel) else { continue };
        let source = std::fs::read_to_string(config.root.join(rel))?;
        classified.push((rel.clone(), class, source));
    }

    let needs_flow = config.rules.iter().any(|r| crate::rules::FLOW.contains(r));
    let needs_taint = config.rules.iter().any(|r| crate::rules::TAINT.contains(r));

    let (flow_index, taint) = if needs_flow || needs_taint {
        let mut calls = CallGraph::default();
        let mut flow_index = needs_flow.then(FlowIndex::default);
        let mut taint_index = needs_taint.then(TaintIndex::default);
        for (rel, class, source) in &classified {
            // Test/bench/binary code never feeds the interprocedural
            // facts — only library code can deadlock the daemon or taint
            // a serialized diagnosis.
            if *class != FileClass::Lib {
                continue;
            }
            let lexed = lex(source);
            let syn = FileSyntax::analyze(&lexed.tokens);
            let (attr_mask, test_mask) = crate::rules::structure_masks(&lexed.tokens);
            calls.add_file(&lexed.tokens, &syn, &test_mask, &attr_mask);
            if let Some(index) = flow_index.as_mut() {
                let flow = FileFlow::analyze(&lexed.tokens, &syn, &test_mask);
                index.add_file(rel, &flow);
            }
            if let Some(index) = taint_index.as_mut() {
                index.add_file(rel, &lexed, &syn, &test_mask, &attr_mask);
            }
        }
        if let Some(index) = flow_index.as_mut() {
            index.finalize(&calls);
        }
        if let Some(index) = taint_index.as_mut() {
            index.finalize(&calls);
        }
        (flow_index, taint_index.map(|index| (index, calls)))
    } else {
        (None, None)
    };

    let mut findings = Vec::new();
    for (rel, class, source) in &classified {
        findings.extend(scan_source_indexed(
            rel,
            source,
            *class,
            &config.rules,
            flow_index.as_ref(),
            taint.as_ref().map(|(index, _)| index),
        ));
        if config.rules.contains(&RuleKind::DenyHeader) && needs_deny_header(rel) {
            findings.extend(check_deny_header(rel, source));
        }
    }
    findings.sort_by(|a, b| {
        a.path.cmp(&b.path).then(a.line.cmp(&b.line)).then(a.rule.name().cmp(b.rule.name()))
    });
    Ok((findings, taint))
}

/// Recursively collect workspace-relative forward-slash paths of `.rs` files.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/predicate.rs"), Some(FileClass::Lib));
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Lib));
        assert_eq!(classify("crates/bench/src/bin/run_all.rs"), Some(FileClass::Other));
        assert_eq!(classify("src/bin/dbsherlock-cli.rs"), Some(FileClass::Other));
        assert_eq!(classify("crates/sherlock-lint/src/main.rs"), Some(FileClass::Other));
        assert_eq!(classify("crates/core/tests/integration.rs"), Some(FileClass::Other));
        assert_eq!(classify("tests/end_to_end.rs"), Some(FileClass::Other));
        assert_eq!(classify("examples/quickstart.rs"), Some(FileClass::Other));
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn deny_header_scope() {
        assert!(needs_deny_header("crates/core/src/lib.rs"));
        assert!(needs_deny_header("src/lib.rs"));
        assert!(!needs_deny_header("crates/core/src/predicate.rs"));
        assert!(!needs_deny_header("crates/core/src/sub/lib.rs"));
        assert!(!needs_deny_header("tests/lib.rs"));
    }

    #[test]
    fn finds_own_workspace_root() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("workspace root");
        assert!(root.join("crates").is_dir());
    }
}
