//! Property-based tests for the flow layer.
//!
//! The CFG builder documents an exact edge-accounting model (one base
//! `end → exit` edge; an `if` chain with `k` arms adds `2k` edges plus a
//! fall-through when there is no `else`; every loop adds 4 edges; `break`
//! adds 1; a `match` with `k` braced arms adds `2k`). These tests decode
//! random byte tapes into arbitrarily nested branch/loop trees and check
//! that model — and that every node stays reachable from entry, the
//! invariant the dataflow engine's fixpoint rests on. The call-graph
//! property drives import resolution through generated grouped/renamed
//! `use` trees.

use proptest::prelude::*;
use sherlock_lint::calls::CallGraph;
use sherlock_lint::flow::{build_cfg, Cfg};
use sherlock_lint::lexer::lex;
use sherlock_lint::syntax::FileSyntax;

/// One structured statement of pseudo-Rust, nestable.
#[derive(Debug, Clone)]
enum Stmt {
    /// `work();`
    Call,
    /// `if cond { … }` (no else)
    If(Vec<Stmt>),
    /// `if cond { … } else { … }`
    IfElse(Vec<Stmt>, Vec<Stmt>),
    /// `loop { … [break;] }` — the flag appends a final `break;`
    Loop(Vec<Stmt>, bool),
    /// `while cond { … }`
    While(Vec<Stmt>),
    /// `match x { P0 => { … } … }` with 1–3 braced arms
    Match(Vec<Vec<Stmt>>),
}

/// Recursive-descent decode of a byte tape into a statement tree. An
/// exhausted tape degrades to plain calls, so every tape is valid.
fn next(tape: &[u8], pos: &mut usize) -> u8 {
    let b = tape.get(*pos).copied().unwrap_or(0);
    *pos += 1;
    b
}

fn decode_block(tape: &[u8], pos: &mut usize, depth: u32) -> Vec<Stmt> {
    let n = 1 + (next(tape, pos) % 2) as usize;
    (0..n).map(|_| decode_stmt(tape, pos, depth)).collect()
}

fn decode_stmt(tape: &[u8], pos: &mut usize, depth: u32) -> Stmt {
    if depth >= 3 || *pos >= tape.len() {
        return Stmt::Call;
    }
    match next(tape, pos) % 6 {
        0 => Stmt::Call,
        1 => Stmt::If(decode_block(tape, pos, depth + 1)),
        2 => {
            let then = decode_block(tape, pos, depth + 1);
            let other = decode_block(tape, pos, depth + 1);
            Stmt::IfElse(then, other)
        }
        3 => {
            let breaks = next(tape, pos) & 1 == 1;
            Stmt::Loop(decode_block(tape, pos, depth + 1), breaks)
        }
        4 => Stmt::While(decode_block(tape, pos, depth + 1)),
        _ => {
            let arms = 1 + (next(tape, pos) % 3) as usize;
            Stmt::Match((0..arms).map(|_| decode_block(tape, pos, depth + 1)).collect())
        }
    }
}

fn render(stmts: &[Stmt], out: &mut String) {
    for stmt in stmts {
        match stmt {
            Stmt::Call => out.push_str("work(); "),
            Stmt::If(body) => {
                out.push_str("if cond { ");
                render(body, out);
                out.push_str("} ");
            }
            Stmt::IfElse(then, other) => {
                out.push_str("if cond { ");
                render(then, out);
                out.push_str("} else { ");
                render(other, out);
                out.push_str("} ");
            }
            Stmt::Loop(body, breaks) => {
                out.push_str("loop { ");
                render(body, out);
                if *breaks {
                    out.push_str("break; ");
                }
                out.push_str("} ");
            }
            Stmt::While(body) => {
                out.push_str("while cond { ");
                render(body, out);
                out.push_str("} ");
            }
            Stmt::Match(arms) => {
                out.push_str("match x { ");
                for (i, arm) in arms.iter().enumerate() {
                    out.push_str(&format!("P{i} => {{ "));
                    render(arm, out);
                    out.push_str("} ");
                }
                out.push_str("} ");
            }
        }
    }
}

/// Edge count each construct contributes under the documented model.
fn expected_edges(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Call => 0,
            // cur→arm, arm→join, plus the no-else fall-through cur→join.
            Stmt::If(body) => 3 + expected_edges(body),
            // cur→arm ×2, arm→join ×2.
            Stmt::IfElse(then, other) => 4 + expected_edges(then) + expected_edges(other),
            // cur→head, head→body, body_end→head, head→after (+ break).
            Stmt::Loop(body, breaks) => 4 + usize::from(*breaks) + expected_edges(body),
            Stmt::While(body) => 4 + expected_edges(body),
            // cur→arm and arm→join per arm.
            Stmt::Match(arms) => {
                2 * arms.len() + arms.iter().map(|a| expected_edges(a)).sum::<usize>()
            }
        })
        .sum()
}

fn cfg_of(source: &str) -> Cfg {
    let lexed = lex(source);
    let syn = FileSyntax::analyze(&lexed.tokens);
    let f = syn.fns.first().expect("fn parsed");
    let (open, _) = f.body.expect("body");
    build_cfg(&lexed.tokens, &syn, open).expect("cfg built")
}

proptest! {
    /// For any nest of branches and loops: the CFG's edge count matches
    /// the documented per-construct accounting exactly, and every node is
    /// reachable from entry.
    #[test]
    fn cfg_edges_match_branch_counts(tape in proptest::collection::vec(0u8..=255, 0..48)) {
        let mut pos = 0;
        let n = (next(&tape, &mut pos) % 4) as usize;
        let stmts: Vec<Stmt> = (0..n).map(|_| decode_stmt(&tape, &mut pos, 0)).collect();
        let mut body = String::new();
        render(&stmts, &mut body);
        let source = format!("fn f() {{ {body} }}");
        let cfg = cfg_of(&source);
        prop_assert_eq!(
            cfg.edge_count(),
            1 + expected_edges(&stmts),
            "source: {:?}",
            &source
        );
        prop_assert_eq!(
            cfg.reachable().len(),
            cfg.nodes.len(),
            "unreachable nodes in {:?}",
            &source
        );
    }

    /// Call-graph resolution must round-trip through grouped and renamed
    /// `use` imports: calling the local (possibly renamed) name records
    /// the *original* item in the caller's summary.
    #[test]
    fn call_graph_round_trips_renamed_imports(
        items in proptest::collection::vec(("[a-z]{1,5}", any::<bool>()), 1..5)
    ) {
        let named: Vec<(String, Option<String>)> = items
            .iter()
            .enumerate()
            .map(|(i, (stem, renamed))| {
                let orig = format!("f{i}_{stem}");
                let alias = if *renamed { Some(format!("r{i}_{stem}")) } else { None };
                (orig, alias)
            })
            .collect();
        let tree = named
            .iter()
            .map(|(orig, alias)| match alias {
                Some(alias) => format!("{orig} as {alias}"),
                None => orig.clone(),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let calls = named
            .iter()
            .map(|(orig, alias)| format!("{}();", alias.as_deref().unwrap_or(orig)))
            .collect::<Vec<_>>()
            .join(" ");
        let source = format!("use crate::util::{{{tree}}};\nfn caller() {{ {calls} }}");
        let lexed = lex(&source);
        let syn = FileSyntax::analyze(&lexed.tokens);
        let mask = vec![false; lexed.tokens.len()];
        let calls = CallGraph::from_file(&lexed.tokens, &syn, &mask, &mask);
        let callees: Vec<&str> = calls.callees("caller").map(|(c, _)| c).collect();
        for (orig, alias) in &named {
            prop_assert!(
                callees.contains(&orig.as_str()),
                "call through {:?} did not resolve to {}; calls: {:?} (source {:?})",
                alias.as_deref().unwrap_or(orig),
                orig,
                &callees,
                &source
            );
        }
    }
}
