//! Integration tests: run the rule engine over the checked-in fixture
//! files and assert that exactly the `REAL`-marked lines are reported.
//!
//! The fixtures live under `tests/fixtures/` (excluded from workspace
//! scans by `workspace::SKIP_DIRS`), so they can contain deliberate
//! violations without failing the workspace lint.

use std::path::Path;

use sherlock_lint::{
    certify,
    rules::{check_deny_header, scan_source, FileClass, Finding, RuleKind},
    workspace::{find_workspace_root, scan_workspace_with_taint, ScanConfig},
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scan_fixture(name: &str, class: FileClass) -> (String, Vec<Finding>) {
    let source = fixture(name);
    let findings = scan_source(name, &source, class, &RuleKind::ALL);
    (source, findings)
}

/// Every finding must anchor to a line carrying the `REAL` marker, and
/// every marked line must be found — so fixtures document themselves.
fn assert_matches_markers(source: &str, findings: &[Finding], rule: RuleKind) {
    let marked: Vec<u32> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// REAL"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    let mut reported: Vec<u32> =
        findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect();
    reported.sort_unstable();
    reported.dedup();
    assert_eq!(reported, marked, "findings: {findings:#?}");
}

#[test]
fn raw_strings_do_not_hide_or_fake_findings() {
    let (source, findings) = scan_fixture("raw_strings.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::NanUnsafe);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn nested_block_comments_are_skipped() {
    let (source, findings) = scan_fixture("nested_comments.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::NanUnsafe);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn char_literals_do_not_desync_the_lexer() {
    let (source, findings) = scan_fixture("char_literals.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::NanUnsafe);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn cfg_test_items_are_exempt_but_shipped_code_is_not() {
    let (source, findings) = scan_fixture("cfg_test_module.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    // before(), cfg(not(test)) mod, after() — the two test mods are exempt.
    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn panic_path_catches_every_pattern() {
    let (source, findings) = scan_fixture("panic_path.rs", FileClass::Lib);
    assert!(findings.iter().all(|f| f.rule == RuleKind::PanicPath), "{findings:#?}");
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    // m[&7] on a HashMap parameter, a let-bound HashMap, a BTreeMap field;
    // v[3] (a slice) beside m[&7] is clippy's, so one finding per line.
    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn panic_path_is_waived_outside_lib_code() {
    let (_, findings) = scan_fixture("panic_path.rs", FileClass::Other);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn nan_unsafe_catches_every_pattern() {
    let (_, findings) = scan_fixture("nan_unsafe.rs", FileClass::Other);
    assert!(findings.iter().all(|f| f.rule == RuleKind::NanUnsafe), "{findings:#?}");
    // ==, !=, == f64::NAN, partial_cmp().unwrap(), partial_cmp in sort_by.
    assert_eq!(findings.len(), 5, "{findings:#?}");
    assert!(findings.iter().all(|f| !f.snippet.contains("total_cmp")), "{findings:#?}");
}

#[test]
fn raw_fs_write_fires_only_on_fs_path_writes_in_lib_code() {
    // `unsynced-store-write` flags exactly the bare `fs::write` lines.
    let (source, findings) = scan_fixture("raw_fs_write.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnsyncedStoreWrite);
    // std::fs::write + fs::write; reads, writer methods, the escape, and
    // the #[cfg(test)] write stay silent. (`swallowed-error` fires on the
    // discarded `write_all`, so count per rule.)
    let store_rule = findings.iter().filter(|f| f.rule == RuleKind::UnsyncedStoreWrite).count();
    assert_eq!(store_rule, 2, "{findings:#?}");
    // Bin/bench/test files may write freely.
    let (_, other) = scan_fixture("raw_fs_write.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn nondet_iteration_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("nondet_iteration.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::NondetIteration);
    // Sorted copy, reducers, order-free sinks and the allow escape are silent.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    let (_, other) = scan_fixture("nondet_iteration.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn budget_blind_loop_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("budget_blind_loop.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::BudgetBlindLoop);
    // The polling stage, header poll, trivial collector, allow escape and
    // the loop delegating to a budget-polling callee are silent; the loop
    // passing the handle to a non-polling callee is not.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let (_, other) = scan_fixture("budget_blind_loop.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn lock_order_inversion_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("lock_order_inversion.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::LockOrderInversion);
    // Consistent-order and drop-before-second pairs are silent; the
    // interprocedural site names the callee it reaches the lock through.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(
        findings.iter().any(|f| f.message.contains("via call to `backward_inner`")),
        "{findings:#?}"
    );
    let (_, other) = scan_fixture("lock_order_inversion.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn qualified_call_edges_survive_alias_shadowing() {
    // The fixture aliases every callee's bare name (`use … as …`), so the
    // edges only exist if `Self::`-, `crate::`- and `prelude::`-qualified
    // calls keep their literal target instead of the alias resolution.
    let (source, findings) = scan_fixture("call_graph_qualified.rs", FileClass::Lib);
    let marked = |tag: &str| -> Vec<u32> {
        source
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(&format!("// REAL {tag}")))
            .map(|(i, _)| i as u32 + 1)
            .collect()
    };
    let reported = |rule: RuleKind| -> Vec<u32> {
        let mut lines: Vec<u32> =
            findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    };
    // The inversion spans a `Self::`-qualified call and a module-qualified
    // `sync::lock(` acquisition.
    assert_eq!(
        reported(RuleKind::LockOrderInversion),
        marked("lock-order-inversion"),
        "{findings:#?}"
    );
    // Loops delegating to polling callees through `crate::`/`prelude::`
    // paths are silent; the qualified edge to a non-polling callee fires.
    assert_eq!(reported(RuleKind::BudgetBlindLoop), marked("budget-blind-loop"), "{findings:#?}");
}

#[test]
fn guard_across_blocking_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("guard_across_blocking.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::GuardAcrossBlocking);
    // Drop-before-write, inner-scope, consumed-probe and condvar-wait
    // shapes are silent.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    let (_, other) = scan_fixture("guard_across_blocking.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn swallowed_error_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("swallowed_error.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::SwallowedError);
    // `?`-propagation, counted errors, the drain path, Path::join and the
    // test module are silent.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let (_, other) = scan_fixture("swallowed_error.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn unsynced_store_write_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("unsynced_store_write.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnsyncedStoreWrite);
    // Reads, read-only OpenOptions, the allow escape and the test module
    // are silent.
    assert_eq!(findings.len(), 4, "{findings:#?}");
    let (_, other) = scan_fixture("unsynced_store_write.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn unbounded_channel_fixture_flags_exactly_the_marked_lines() {
    // The rule is path-scoped to the daemon crate, so label the fixture
    // as sherlockd source instead of using `scan_fixture`.
    let source = fixture("unbounded_channel.rs");
    let findings = scan_source(
        "crates/sherlockd/src/unbounded_channel.rs",
        &source,
        FileClass::Lib,
        &RuleKind::ALL,
    );
    assert_matches_markers(&source, &findings, RuleKind::UnboundedChannel);
    // The drained field, shed queue, retained handles, non-loop pushes,
    // String receiver, the allow escape and the test module are silent.
    let rule_hits = findings.iter().filter(|f| f.rule == RuleKind::UnboundedChannel).count();
    assert_eq!(rule_hits, 2, "{findings:#?}");
    // Outside the daemon crate the same source is out of scope.
    let elsewhere = scan_source("crates/core/src/x.rs", &source, FileClass::Lib, &RuleKind::ALL);
    assert!(!elsewhere.iter().any(|f| f.rule == RuleKind::UnboundedChannel), "{elsewhere:#?}");
    // Bin/bench/test files may accumulate freely.
    let other = scan_source(
        "crates/sherlockd/src/unbounded_channel.rs",
        &source,
        FileClass::Other,
        &RuleKind::ALL,
    );
    assert!(!other.iter().any(|f| f.rule == RuleKind::UnboundedChannel), "{other:#?}");
}

#[test]
fn unbounded_retry_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("unbounded_retry.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnboundedRetry);
    // The attempt-counted backoff, deadline-capped drain, shutdown-polled
    // accept loop, `for` loops, sleepless spins, the allow escape and the
    // test module are silent.
    let rule_hits = findings.iter().filter(|f| f.rule == RuleKind::UnboundedRetry).count();
    assert_eq!(rule_hits, 2, "{findings:#?}");
    // Bin/bench/test files may poll freely.
    let (_, other) = scan_fixture("unbounded_retry.rs", FileClass::Other);
    assert!(!other.iter().any(|f| f.rule == RuleKind::UnboundedRetry), "{other:#?}");
}

#[test]
fn github_annotations_escape_workflow_metacharacters() {
    let f = Finding {
        rule: RuleKind::PanicPath,
        path: "crates/a,b/src/x:y.rs".to_string(),
        line: 7,
        snippet: "let x = 100%;".to_string(),
        message: "multi\nline".to_string(),
        trace: Vec::new(),
    };
    assert_eq!(
        f.render_github(),
        "::error file=crates/a%2Cb/src/x%3Ay.rs,line=7,\
         title=sherlock-lint[panic-path]::multi%0Aline — `let x = 100%25;`"
    );
}

/// The full workspace scan must be byte-identical across runs (ISSUE PR 5
/// acceptance): stable file order, stable `(path, line, rule-name)` finding
/// order, no iteration-order leaks in the engine itself.
#[test]
fn workspace_scan_output_is_deterministic() {
    let here = std::env::current_dir().unwrap();
    let root = find_workspace_root(&here).expect("workspace root");
    let config = ScanConfig::all_rules(root);
    let render = |findings: &[Finding]| -> String {
        findings.iter().map(|f| format!("{}\n{}\n", f.render(), f.render_github())).collect()
    };
    let (first, taint) = scan_workspace_with_taint(&config).expect("scan 1");
    let (second, _) = scan_workspace_with_taint(&config).expect("scan 2");
    assert_eq!(render(&first), render(&second));
    // Sanity: the scan actually visited the workspace's library code.
    let (index, calls) = taint.expect("full-rule scan builds the taint index");
    let cert = certify(&index, &calls, &first);
    assert!(cert.entries.values().all(|e| e.present), "{:#?}", cert.entries);
}

#[test]
fn allow_escapes_suppress_only_the_named_rule() {
    let (source, findings) = scan_fixture("allow_escape.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::NanUnsafe);
    // wrong_rule (escape names panic-path) + unescaped.
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

#[test]
fn deny_header_requires_the_clippy_policy() {
    let with = "#![warn(missing_docs)]\n\
                #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, \
                clippy::indexing_slicing, clippy::string_slice, clippy::panic, \
                clippy::unreachable, clippy::todo, clippy::unimplemented))]\n\
                pub fn f() {}\n";
    assert!(check_deny_header("crates/x/src/lib.rs", with).is_none());
    let without = "#![warn(missing_docs)]\npub fn f() {}\n";
    let finding = check_deny_header("crates/x/src/lib.rs", without).expect("must flag");
    assert_eq!(finding.rule, RuleKind::DenyHeader);
    assert_eq!(finding.line, 1);
}

#[test]
fn taint_determinism_fixture_matches_markers() {
    let (source, findings) = scan_fixture("taint_determinism.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::TaintDeterminism);
}

#[test]
fn taint_determinism_findings_carry_source_to_sink_traces() {
    use sherlock_lint::rules::TraceKind;
    let (_, findings) = scan_fixture("taint_determinism.rs", FileClass::Lib);
    let taint: Vec<&Finding> =
        findings.iter().filter(|f| f.rule == RuleKind::TaintDeterminism).collect();
    assert!(!taint.is_empty());
    for f in taint {
        let last = f.trace.last().unwrap_or_else(|| panic!("empty trace: {f:#?}"));
        assert_eq!(last.kind, TraceKind::Sink, "{f:#?}");
        assert!(
            f.trace.iter().any(|s| s.kind == TraceKind::SanitizerMiss),
            "no sanitizer-miss hop: {f:#?}"
        );
    }
}

#[test]
fn unisolated_panic_fixture_matches_markers() {
    let (source, findings) = scan_fixture("unisolated_panic.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnisolatedPanic);
}

#[test]
fn unisolated_panic_findings_carry_entry_to_panic_traces() {
    use sherlock_lint::rules::TraceKind;
    let (_, findings) = scan_fixture("unisolated_panic.rs", FileClass::Lib);
    let panics: Vec<&Finding> =
        findings.iter().filter(|f| f.rule == RuleKind::UnisolatedPanic).collect();
    assert!(!panics.is_empty());
    for f in panics {
        let first = f.trace.first().unwrap_or_else(|| panic!("empty trace: {f:#?}"));
        assert_eq!(first.kind, TraceKind::Entry, "{f:#?}");
        assert_eq!(f.trace.last().map(|s| s.kind), Some(TraceKind::Panic), "{f:#?}");
    }
}

/// The taint layer only certifies library code: tests and binaries may
/// panic and may be nondeterministic.
#[test]
fn taint_rules_skip_non_lib_files() {
    for fixture_name in ["taint_determinism.rs", "unisolated_panic.rs"] {
        let (_, findings) = scan_fixture(fixture_name, FileClass::Other);
        assert!(
            findings.iter().all(
                |f| f.rule != RuleKind::TaintDeterminism && f.rule != RuleKind::UnisolatedPanic
            ),
            "{fixture_name}: {findings:#?}"
        );
    }
}
