//! The workspace call graph: one call-site recognizer ([`call_at`]) and one
//! callee table ([`CallGraph`]) per scan, which the flow and taint indexes
//! both read. Fns are keyed by bare name, so same-named fns merge; closures
//! passed as values are invisible as edges; and a call inside an isolation
//! wrapper's argument list counts as isolated even while building the
//! arguments (DESIGN §15 has the soundness caveats).

use std::collections::BTreeMap;

use crate::lexer::{ident_at, op_at, Token};
use crate::rules::KEYWORDS;
use crate::semantic::NON_CALL_IDENTS;
use crate::syntax::FileSyntax;

/// Calls whose argument span isolates panics: everything lexically inside
/// their parens converts a panic into an `Err`/`None` instead of
/// unwinding further.
const ISOLATION_WRAPPERS: &[&str] = &["catch_unwind", "try_par_map_indexed", "quiet_panics"];

/// The call-site recognizer: `Some(callee)` when token `i` heads a call — a
/// lower-case identifier before `(`, not after `fn` (a definition) and not
/// a keyword. A `::`-qualified callee keeps its literal name (the path
/// already picked the item; the import-alias map would misresolve
/// `use x as y` aliases); a bare one resolves through the file's imports.
pub(crate) fn call_at<'a>(toks: &'a [Token], syn: &'a FileSyntax, i: usize) -> Option<&'a str> {
    let name = ident_at(toks, i)?;
    if !op_at(toks, i + 1, "(")
        // Tuple-struct / enum-variant construction.
        || !name.starts_with(|c: char| c.is_lowercase() || c == '_')
        || NON_CALL_IDENTS.contains(&name)
        || KEYWORDS.contains(&name)
        || (i >= 1 && ident_at(toks, i - 1) == Some("fn"))
    {
        return None;
    }
    Some(if i >= 1 && op_at(toks, i - 1, "::") { name } else { syn.resolve(name) })
}

/// Paren-group spans of isolation-wrapper calls in `[body_open, body_close]`.
pub(crate) fn isolation_spans(
    toks: &[Token],
    body_open: usize,
    body_close: usize,
) -> Vec<(usize, usize)> {
    (body_open..body_close.min(toks.len()))
        .filter(|&i| {
            ident_at(toks, i).is_some_and(|name| ISOLATION_WRAPPERS.contains(&name))
                && op_at(toks, i + 1, "(")
        })
        .filter_map(|i| crate::rules::matching_paren(toks, i + 1).map(|close| (i + 1, close)))
        .collect()
}

/// What one caller → callee edge carries, merged over its call sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edge {
    /// Some call site lies outside every isolation wrapper's argument span.
    pub unisolated: bool,
    /// Some call site passes one of the caller's parameters as an argument
    /// (the edge along which caller taint can reach a callee's sink).
    pub forwards_param: bool,
}

/// The callee table: every non-test library fn with a body, by bare name,
/// mapped to its resolved callees in name order.
#[derive(Debug, Default)]
pub struct CallGraph {
    fns: BTreeMap<String, BTreeMap<String, Edge>>,
}

impl CallGraph {
    /// Add one file's fns. Call sites in test code or attributes are not
    /// edges.
    pub fn add_file(
        &mut self,
        toks: &[Token],
        syn: &FileSyntax,
        test_mask: &[bool],
        attr_mask: &[bool],
    ) {
        let masked = |i: usize| {
            test_mask.get(i).copied().unwrap_or(false) || attr_mask.get(i).copied().unwrap_or(false)
        };
        for f in &syn.fns {
            let Some((body_open, body_close)) = f.body else { continue };
            if test_mask.get(f.name_tok).copied().unwrap_or(false) {
                continue;
            }
            let iso = isolation_spans(toks, body_open, body_close);
            let params: Vec<&str> = f.params.iter().map(|(n, _)| n.as_str()).collect();
            let callees = self.fns.entry(f.name.clone()).or_default();
            for i in body_open + 1..body_close.min(toks.len()) {
                let Some(callee) = call_at(toks, syn, i).filter(|_| !masked(i)) else { continue };
                let edge = callees.entry(callee.to_string()).or_default();
                edge.unisolated |= !iso.iter().any(|&(o, c)| i > o && i < c);
                let args = syn.group_at_opener(i + 1).and_then(|id| syn.groups.get(id));
                edge.forwards_param |= args.is_some_and(|g| {
                    (g.open + 1..g.close.min(toks.len())).any(|k| {
                        !op_at(toks, k.wrapping_sub(1), ".")
                            && ident_at(toks, k).is_some_and(|n| params.contains(&n))
                    })
                });
            }
        }
    }

    /// The table of one file, for single-file scans (fixtures, tests).
    pub fn from_file(
        toks: &[Token],
        syn: &FileSyntax,
        test_mask: &[bool],
        attr_mask: &[bool],
    ) -> CallGraph {
        let mut calls = CallGraph::default();
        calls.add_file(toks, syn, test_mask, attr_mask);
        calls
    }

    /// `name`'s callees with their edge facts, in name order; none for a
    /// name with no body in the scan.
    pub fn callees(&self, name: &str) -> impl Iterator<Item = (&str, Edge)> + '_ {
        self.fns.get(name).into_iter().flatten().map(|(callee, edge)| (callee.as_str(), *edge))
    }
}
