//! Layer 3 of the analyzer: **flow**.
//!
//! The syntax layer ([`crate::syntax`]) gives every file a delimiter tree,
//! an import table, and a function list. This module builds on those three
//! to answer questions the statement-level rules cannot:
//!
//! 1. **Control-flow graphs** ([`Cfg`]) — one per function body, built by a
//!    single recursive walk over the delimiter tree. Nodes are contiguous
//!    token spans; `if`/`else if`/`else` chains, `match` arms, and the
//!    three loop forms become the usual diamond/back-edge shapes, and
//!    early exits (`return`, `?`, `break`, `continue`) get their own
//!    edges. Bare `{ … }` block expressions are linearized into the
//!    current node — precise enough for lock tracking, and it keeps the
//!    builder honest about what it models.
//! 2. **A worklist dataflow engine** ([`dataflow_in`]) — a forward
//!    may-analysis over up to 64 facts per function, each node's transfer
//!    function reduced to a `(surviving_mask, gen_set)` pair. Facts only
//!    ever turn on as the fixpoint iterates, so termination is by
//!    monotonicity, not by an iteration cap.
//! 3. **A workspace lock and polling index** ([`FlowIndex`]) —
//!    per-function summaries (locks acquired, budget polling) keyed by
//!    name, with reachability fixpoints over the scan's one call graph
//!    ([`crate::calls::CallGraph`]) so rules can ask "does anything this
//!    loop calls poll the budget?" or "what does this callee lock?".
//!
//! Three rules live here — `lock-order-inversion`, `guard-across-blocking`
//! and `swallowed-error` — and the semantic layer's `budget-blind-loop`
//! consumes [`FlowIndex::polls_reachable`] for its interprocedural upgrade.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;

use crate::calls::{call_at, CallGraph};
use crate::lexer::{ident_at, line_of, op_at, Tok, Token};
use crate::rules::{FileClass, RuleKind};
use crate::syntax::FileSyntax;

/// Calls that can block the calling thread on I/O, another thread, or a
/// timer. `Condvar::wait`/`wait_timeout` are deliberately **absent**: they
/// atomically release the guard they are handed, so holding a guard across
/// them is the intended pattern, not a bug.
const BLOCKING_CALLS: &[&str] = &[
    "accept",
    "connect",
    "flush",
    "join",
    "read",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "sleep",
    "write_all",
    "write_fmt",
];

/// Fallible store/net/protocol operations whose `Err` must not be silently
/// discarded (`swallowed-error`). Method form only, so `fs::write(..)` free
/// functions stay out of scope.
const SWALLOWABLE: &[&str] =
    &["flush", "join", "save", "send", "spawn", "sync_all", "sync_data", "write_all", "write_fmt"];

/// The dataflow engine packs facts into a `u64`, so at most this many
/// guard slots are tracked per function (excess slots are ignored —
/// conservative in the "miss a finding" direction, never a false positive).
pub(crate) const MAX_SLOTS: usize = 64;

// ----- control-flow graph -----------------------------------------------

/// Entry node id of every [`Cfg`] (also the first real node: a straight-line
/// body is entirely the entry node).
pub const ENTRY: usize = 0;
/// Exit node id of every [`Cfg`]; `return` and `?` edges target it directly.
pub const EXIT: usize = 1;

/// One CFG node: a contiguous token span plus successor edges.
#[derive(Debug, Clone, Default)]
pub struct CfgNode {
    /// Token range `[start, end)` this node covers. Spans of distinct nodes
    /// do not overlap; construct keywords and delimiters may fall between
    /// spans (they carry no events).
    pub span: (usize, usize),
    /// Successor node ids, deduplicated, in insertion order.
    pub succs: Vec<usize>,
}

/// A per-function control-flow graph over the delimiter tree.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; index 0 is [`ENTRY`], index 1 is [`EXIT`].
    pub nodes: Vec<CfgNode>,
}

impl Cfg {
    /// Total number of (deduplicated) edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.succs.len()).sum()
    }

    /// Set of node ids reachable from [`ENTRY`].
    pub fn reachable(&self) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![ENTRY];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if let Some(node) = self.nodes.get(id) {
                stack.extend(node.succs.iter().copied());
            }
        }
        seen
    }
}

/// Build the CFG for the function body whose `{` is at token `body_open`.
/// Returns `None` when the opener is not a brace group (malformed input).
pub fn build_cfg(toks: &[Token], syn: &FileSyntax, body_open: usize) -> Option<Cfg> {
    let gid = syn.group_at_opener(body_open)?;
    let mut b = Builder { toks, syn, nodes: Vec::new(), loops: Vec::new() };
    let entry = b.new_node(body_open + 1);
    let exit = b.new_node(toks.len());
    debug_assert_eq!((entry, exit), (ENTRY, EXIT));
    let end = b.build_block(ENTRY, gid);
    b.edge(end, EXIT);
    Some(Cfg { nodes: b.nodes })
}

struct Builder<'a> {
    toks: &'a [Token],
    syn: &'a FileSyntax,
    nodes: Vec<CfgNode>,
    /// Innermost-last stack of `(head, after)` targets for `continue`/`break`.
    loops: Vec<(usize, usize)>,
}

impl Builder<'_> {
    fn new_node(&mut self, start: usize) -> usize {
        self.nodes.push(CfgNode { span: (start, start), succs: Vec::new() });
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if let Some(node) = self.nodes.get_mut(from) {
            if !node.succs.contains(&to) {
                node.succs.push(to);
            }
        }
    }

    fn end_span(&mut self, node: usize, end: usize) {
        if let Some(n) = self.nodes.get_mut(node) {
            if end > n.span.1 {
                n.span.1 = end;
            }
        }
    }

    fn group_span(&self, gid: usize) -> (usize, usize) {
        self.syn.groups.get(gid).map(|g| (g.open, g.close.min(self.toks.len()))).unwrap_or((0, 0))
    }

    fn at_scope(&self, i: usize, gid: usize) -> bool {
        self.syn.enclosing.get(i).copied().flatten() == Some(gid)
    }

    /// Walk the interior of brace group `gid`, threading `cur` through each
    /// control construct. Returns the node control falls out of.
    fn build_block(&mut self, mut cur: usize, gid: usize) -> usize {
        let (open, close) = self.group_span(gid);
        let mut i = open + 1;
        while i < close {
            if !self.at_scope(i, gid) {
                i += 1;
                continue;
            }
            match ident_at(self.toks, i) {
                Some("if") => cur = self.build_if(cur, gid, &mut i, close),
                Some("match") => cur = self.build_match(cur, gid, &mut i, close),
                Some(kw @ ("for" | "while" | "loop")) => {
                    let bare_loop = kw == "loop";
                    cur = self.build_loop(cur, gid, &mut i, close, bare_loop);
                }
                Some("break") => {
                    if let Some(&(_, after)) = self.loops.last() {
                        self.edge(cur, after);
                    }
                    i += 1;
                }
                Some("continue") => {
                    if let Some(&(head, _)) = self.loops.last() {
                        self.edge(cur, head);
                    }
                    i += 1;
                }
                Some("return") => {
                    self.edge(cur, EXIT);
                    i += 1;
                }
                _ => {
                    if op_at(self.toks, i, "?") {
                        self.edge(cur, EXIT);
                    }
                    i += 1;
                }
            }
            self.end_span(cur, i.min(close));
        }
        self.end_span(cur, close);
        cur
    }

    /// Scan from `from` for the next `{` at `gid` scope, folding condition
    /// tokens (and their `?` exits) into `cur`. `None` when a `;`/`}` at
    /// scope arrives first (no body: malformed or not a control construct).
    fn advance_to_brace(
        &mut self,
        cur: usize,
        from: usize,
        close: usize,
        gid: usize,
    ) -> Option<usize> {
        let mut k = from;
        while k < close {
            if self.at_scope(k, gid) {
                if op_at(self.toks, k, "{") {
                    self.end_span(cur, k);
                    return Some(k);
                }
                if op_at(self.toks, k, ";") || op_at(self.toks, k, "}") {
                    return None;
                }
                if op_at(self.toks, k, "?") {
                    self.edge(cur, EXIT);
                }
            }
            k += 1;
        }
        None
    }

    /// `if` / `else if` / `else` chain. With k arms total: k edges
    /// `cur -> arm`, k edges `arm_end -> join`, plus `cur -> join` iff the
    /// chain has no final `else`.
    fn build_if(&mut self, cur: usize, gid: usize, i: &mut usize, close: usize) -> usize {
        self.end_span(cur, *i);
        let mut arm_ends: Vec<usize> = Vec::new();
        let mut has_else = false;
        let mut pos = *i + 1;
        loop {
            let Some(brace) = self.advance_to_brace(cur, pos, close, gid) else {
                *i = pos.max(*i + 1);
                return cur;
            };
            let Some(arm_gid) = self.syn.group_at_opener(brace) else {
                *i = brace + 1;
                return cur;
            };
            let arm = self.new_node(brace + 1);
            self.edge(cur, arm);
            arm_ends.push(self.build_block(arm, arm_gid));
            pos = self.group_span(arm_gid).1.saturating_add(1);
            if pos < close && self.at_scope(pos, gid) && ident_at(self.toks, pos) == Some("else") {
                if ident_at(self.toks, pos + 1) == Some("if") {
                    pos += 2;
                    continue;
                }
                let Some(ebrace) = self.advance_to_brace(cur, pos + 1, close, gid) else {
                    break;
                };
                let Some(else_gid) = self.syn.group_at_opener(ebrace) else {
                    break;
                };
                let arm = self.new_node(ebrace + 1);
                self.edge(cur, arm);
                arm_ends.push(self.build_block(arm, else_gid));
                pos = self.group_span(else_gid).1.saturating_add(1);
                has_else = true;
            }
            break;
        }
        let join = self.new_node(pos.min(close));
        for end in arm_ends {
            self.edge(end, join);
        }
        if !has_else {
            self.edge(cur, join);
        }
        *i = pos;
        join
    }

    /// `for`/`while`/`loop`: head node (holding the header tokens), body,
    /// and an after node — exactly 4 edges (`cur->head`, `head->body`,
    /// `body_end->head`, `head->after`) plus any `break`/`continue`. The
    /// `head->after` edge is emitted even for bare `loop` so every node
    /// stays reachable from entry (dead-code precision is not this
    /// analyzer's job).
    fn build_loop(
        &mut self,
        cur: usize,
        gid: usize,
        i: &mut usize,
        close: usize,
        bare_loop: bool,
    ) -> usize {
        self.end_span(cur, *i);
        let head = self.new_node(*i);
        self.edge(cur, head);
        let brace = if bare_loop {
            op_at(self.toks, *i + 1, "{").then(|| *i + 1)
        } else {
            self.advance_to_brace(head, *i + 1, close, gid)
        };
        let (Some(brace),) = (brace,) else {
            // Malformed: treat the keyword as plain tokens; `head` stays a
            // reachable dead end.
            *i += 1;
            return cur;
        };
        let Some(bgid) = self.syn.group_at_opener(brace) else {
            *i = brace + 1;
            return cur;
        };
        self.end_span(head, brace);
        let body = self.new_node(brace + 1);
        self.edge(head, body);
        let bclose = self.group_span(bgid).1;
        let after = self.new_node(bclose.saturating_add(1).min(close));
        self.loops.push((head, after));
        let body_end = self.build_block(body, bgid);
        self.loops.pop();
        self.edge(body_end, head);
        self.edge(head, after);
        *i = bclose.saturating_add(1);
        after
    }

    /// `match`: scrutinee tokens fold into `cur`; each top-level arm gets
    /// `cur -> arm` and `arm_end -> join` (2 edges per arm; `cur -> join`
    /// only for an empty match). Braced arm bodies recurse; expression arms
    /// span to the next top-level `,` with their own `?`/`return` edges.
    fn build_match(&mut self, cur: usize, gid: usize, i: &mut usize, close: usize) -> usize {
        self.end_span(cur, *i);
        let Some(brace) = self.advance_to_brace(cur, *i + 1, close, gid) else {
            *i += 1;
            return cur;
        };
        let Some(mgid) = self.syn.group_at_opener(brace) else {
            *i = brace + 1;
            return cur;
        };
        let (mopen, mclose) = self.group_span(mgid);
        let mut arm_ends: Vec<usize> = Vec::new();
        let mut k = mopen + 1;
        while k < mclose {
            if !(self.at_scope(k, mgid) && op_at(self.toks, k, "=>")) {
                k += 1;
                continue;
            }
            let next = k + 1;
            if op_at(self.toks, next, "{") && self.at_scope(next, mgid) {
                if let Some(agid) = self.syn.group_at_opener(next) {
                    let arm = self.new_node(next + 1);
                    self.edge(cur, arm);
                    arm_ends.push(self.build_block(arm, agid));
                    k = self.group_span(agid).1.saturating_add(1);
                    continue;
                }
            }
            // Expression arm: runs to the next `,` at match scope.
            let arm = self.new_node(next);
            self.edge(cur, arm);
            let mut e = next;
            while e < mclose {
                if self.at_scope(e, mgid) {
                    if op_at(self.toks, e, ",") {
                        break;
                    }
                    if op_at(self.toks, e, "?") || ident_at(self.toks, e) == Some("return") {
                        self.edge(arm, EXIT);
                    } else if ident_at(self.toks, e) == Some("break") {
                        if let Some(&(_, after)) = self.loops.last() {
                            self.edge(arm, after);
                        }
                    } else if ident_at(self.toks, e) == Some("continue") {
                        if let Some(&(head, _)) = self.loops.last() {
                            self.edge(arm, head);
                        }
                    }
                }
                e += 1;
            }
            self.end_span(arm, e);
            arm_ends.push(arm);
            k = e + 1;
        }
        let join = self.new_node(mclose.saturating_add(1).min(close));
        if arm_ends.is_empty() {
            self.edge(cur, join);
        }
        for end in arm_ends {
            self.edge(end, join);
        }
        *i = mclose.saturating_add(1);
        join
    }
}

// ----- worklist dataflow engine -----------------------------------------

/// Forward may-analysis over `u64` fact sets. `transfer[n]` is the node's
/// `(surviving_mask, gen_set)`: `out = (in & surviving) | gen`. Returns the
/// fixpoint `in` state per node (entry starts empty). Both components of
/// every transfer are constants, so `out` is a monotone function of `in`
/// and the iteration terminates without a cap.
pub fn dataflow_in(cfg: &Cfg, transfer: &[(u64, u64)]) -> Vec<u64> {
    let n = cfg.nodes.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, node) in cfg.nodes.iter().enumerate() {
        for &s in &node.succs {
            if let Some(p) = preds.get_mut(s) {
                p.push(id);
            }
        }
    }
    let mut ins = vec![0u64; n];
    let mut outs: Vec<u64> = (0..n).map(|id| transfer.get(id).map_or(0, |&(_, gen)| gen)).collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let in_new = preds.get(id).map_or(0u64, |ps| {
                ps.iter().fold(0u64, |acc, &p| acc | outs.get(p).copied().unwrap_or(0))
            });
            let (surv, gen) = transfer.get(id).copied().unwrap_or((u64::MAX, 0));
            let out_new = (in_new & surv) | gen;
            let stale =
                ins.get(id).copied() != Some(in_new) || outs.get(id).copied() != Some(out_new);
            if stale {
                if let (Some(i_slot), Some(o_slot)) = (ins.get_mut(id), outs.get_mut(id)) {
                    *i_slot = in_new;
                    *o_slot = out_new;
                    changed = true;
                }
            }
        }
        if !changed {
            return ins;
        }
    }
}

// ----- per-function facts -----------------------------------------------

/// A `let`-bound mutex guard tracked by the dataflow engine.
#[derive(Debug, Clone)]
pub struct GuardSlot {
    /// Binding name (`guard` in `let guard = lock(&self.tenants);`).
    pub name: String,
    /// Lock identity — the last path segment of the acquisition receiver
    /// (`tenants`, `queue`, the binding name of a local mutex, …).
    pub lock: String,
    /// Token index of the acquisition (the dataflow gen point).
    pub tok: usize,
    /// Innermost brace group of the `let`; the guard is dead outside it
    /// even without an explicit `drop` (lexical-scope kill).
    pub scope: Option<usize>,
}

/// A lock acquisition site with the guard set live on entry to it.
#[derive(Debug, Clone)]
pub struct LockEvent {
    /// Lock identity being acquired.
    pub lock: String,
    /// Source line.
    pub line: u32,
    /// Lock identities already held here (possibly empty).
    pub held: Vec<String>,
}

/// A call site with the guard set live on entry to it.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Callee name after `use`-import resolution.
    pub callee: String,
    /// Source line.
    pub line: u32,
    /// Lock identities held across the call.
    pub held: Vec<String>,
}

/// A potentially-blocking call made while at least zero guards are live.
#[derive(Debug, Clone)]
pub struct BlockEvent {
    /// The blocking call's name (`write_all`, `join`, `sleep`, …).
    pub call: String,
    /// Source line.
    pub line: u32,
    /// `(guard binding, lock identity)` pairs live across the call.
    pub guards: Vec<(String, String)>,
}

/// Flow facts for one function body.
#[derive(Debug, Clone)]
pub struct FlowFn {
    /// Function name (methods keyed by bare name).
    pub name: String,
    /// Its control-flow graph.
    pub cfg: Cfg,
    /// Every lock acquisition, with held-set context.
    pub acquires: Vec<LockEvent>,
    /// Every plausible call site, with held-set context.
    pub calls: Vec<CallEvent>,
    /// Every blocking call with the guards live across it.
    pub blocking: Vec<BlockEvent>,
    /// Does this function poll a budget/cancel handle directly
    /// (a budget-typed parameter or local followed by `.`)?
    pub polls_budget: bool,
}

/// Flow facts for every function in one file.
#[derive(Debug, Default)]
pub struct FileFlow {
    /// Per-function facts, in source order.
    pub fns: Vec<FlowFn>,
}

impl FileFlow {
    /// Analyze every function body in the file. Events at tokens covered by
    /// `test_mask` are not recorded (CFGs are still built), so `#[cfg(test)]`
    /// code never feeds the workspace index or the flow rules.
    pub fn analyze(toks: &[Token], syn: &FileSyntax, test_mask: &[bool]) -> FileFlow {
        let mut fns = Vec::new();
        for f in &syn.fns {
            let Some((body_open, body_close)) = f.body else { continue };
            let Some(cfg) = build_cfg(toks, syn, body_open) else { continue };
            let slots = collect_guards(toks, syn, body_open, body_close);
            let transfer = node_transfers(&cfg, toks, &slots);
            let ins = dataflow_in(&cfg, &transfer);
            let (acquires, calls, blocking) = walk_events(&cfg, toks, syn, &slots, &ins, test_mask);
            fns.push(FlowFn {
                name: f.name.clone(),
                cfg,
                acquires,
                calls,
                blocking,
                polls_budget: polls_directly(toks, syn, f, body_open, body_close),
            });
        }
        FileFlow { fns }
    }
}

/// Recognise a lock acquisition at token `i` and name the lock:
/// the project-idiom free helper `lock(&self.tenants)` (poison-riding), or
/// a plain method call `writer.lock()`. The lock identity is the last path
/// segment of the receiver (`self.` is skipped).
fn detect_acquisition(toks: &[Token], i: usize) -> Option<String> {
    if ident_at(toks, i) != Some("lock") || !op_at(toks, i + 1, "(") {
        return None;
    }
    let method = i >= 1 && op_at(toks, i - 1, ".");
    if method {
        let recv = ident_at(toks, i.checked_sub(2)?)?;
        if recv == "self" || recv == "Self" {
            return None;
        }
        return Some(recv.to_string());
    }
    // Free-helper form: reject `fn lock(` definitions and type-qualified
    // paths (`Mutex::lock(`, `Self::lock(`) — but a module-qualified free
    // helper (`sync::lock(guarded)`) is an acquisition like the bare call.
    if i >= 1 && ident_at(toks, i - 1) == Some("fn") {
        return None;
    }
    if i >= 2 && op_at(toks, i - 1, "::") {
        let qualifier = ident_at(toks, i - 2);
        if qualifier.is_none_or(|q| q.starts_with(char::is_uppercase)) {
            return None;
        }
    }
    // Scan the argument path expression for its last identifier.
    let mut k = i + 2;
    let mut last: Option<&str> = None;
    while k < toks.len() {
        match toks.get(k).map(|t| &t.kind) {
            Some(Tok::Ident(name)) => {
                if name != "self" && name != "mut" {
                    last = Some(name.as_str());
                }
            }
            Some(Tok::Op("&" | "." | "::")) => {}
            _ => break,
        }
        k += 1;
    }
    last.map(str::to_string)
}

/// Collect the `let`-bound guard slots of one body: `let [mut] NAME = …;`
/// statements whose initializer contains a lock acquisition.
fn collect_guards(
    toks: &[Token],
    syn: &FileSyntax,
    body_open: usize,
    body_close: usize,
) -> Vec<GuardSlot> {
    let mut slots = Vec::new();
    let mut t = body_open + 1;
    let end = body_close.min(toks.len());
    while t < end && slots.len() < MAX_SLOTS {
        if ident_at(toks, t) != Some("let") {
            t += 1;
            continue;
        }
        let mut name_at = t + 1;
        if ident_at(toks, name_at) == Some("mut") {
            name_at += 1;
        }
        let (Some(name), true) = (ident_at(toks, name_at), op_at(toks, name_at + 1, "=")) else {
            t += 1;
            continue;
        };
        let let_scope = syn.brace_scope(t);
        let stmt_end = syn.statement_end(toks, t, let_scope);
        if let Some(acq) = (name_at + 2..stmt_end.min(end))
            .find_map(|k| detect_acquisition(toks, k).map(|lock| (k, lock)))
        {
            // Two shapes that *contain* an acquisition but bind no guard:
            //  * `let known = { let g = lock(&m); … };` — the lock lives in
            //    a nested block and drops at its `}`, not with `known`;
            //  * `let idle = lock(&m).is_empty() && …;` — the temporary is
            //    consumed by the chained call and drops at the `;`.
            let at_let_scope = syn.brace_scope(acq.0) == let_scope;
            if at_let_scope && !chain_consumes(toks, syn, acq.0) {
                slots.push(GuardSlot {
                    name: name.to_string(),
                    lock: acq.1,
                    tok: acq.0,
                    scope: let_scope,
                });
            }
        }
        t = stmt_end.max(t + 1);
    }
    slots
}

/// Does the method chain after the acquisition at `acq` *consume* the
/// guard? Poison-riding adapters (`unwrap` / `expect` / `unwrap_or_else`)
/// pass the guard through; any other chained call (`lock(&q).is_empty()`)
/// consumes the temporary, which then drops at the statement's `;`.
fn chain_consumes(toks: &[Token], syn: &FileSyntax, acq: usize) -> bool {
    const PASSTHROUGH: &[&str] = &["expect", "unwrap", "unwrap_or_else"];
    let mut close = match syn.group_at_opener(acq + 1).and_then(|id| syn.groups.get(id)) {
        Some(g) => g.close,
        None => return false,
    };
    while op_at(toks, close + 1, ".") {
        let Some(name) = ident_at(toks, close + 2) else { return false };
        if !op_at(toks, close + 3, "(") {
            // Field access / await — not a consuming call; stop here.
            return false;
        }
        if !PASSTHROUGH.contains(&name) {
            return true;
        }
        close = match syn.group_at_opener(close + 3).and_then(|id| syn.groups.get(id)) {
            Some(g) => g.close,
            None => return false,
        };
    }
    false
}

/// Reduce each CFG node to its `(surviving_mask, gen_set)` transfer by a
/// linear walk of its span: a slot's acquisition token gens its bit, an
/// explicit `drop(NAME)` kills it.
fn node_transfers(cfg: &Cfg, toks: &[Token], slots: &[GuardSlot]) -> Vec<(u64, u64)> {
    cfg.nodes
        .iter()
        .map(|node| {
            let mut surv = u64::MAX;
            let mut gen = 0u64;
            for t in node.span.0..node.span.1.min(toks.len()) {
                for (b, slot) in slots.iter().enumerate() {
                    if slot.tok == t {
                        gen |= 1u64 << b;
                    }
                }
                if let Some(b) = explicit_drop(toks, t, slots) {
                    gen &= !(1u64 << b);
                    surv &= !(1u64 << b);
                }
            }
            (surv, gen)
        })
        .collect()
}

/// `drop(NAME)` where NAME is a tracked guard: returns the slot bit.
fn explicit_drop(toks: &[Token], t: usize, slots: &[GuardSlot]) -> Option<usize> {
    if ident_at(toks, t) != Some("drop") || !op_at(toks, t + 1, "(") {
        return None;
    }
    let name = ident_at(toks, t + 2)?;
    if !op_at(toks, t + 3, ")") {
        return None;
    }
    slots.iter().position(|s| s.name == name)
}

/// Does this function poll a budget handle directly? (A budget-typed
/// parameter or body-local binding followed by `.` — i.e. a method call on
/// the handle, not merely passing it along.)
fn polls_directly(
    toks: &[Token],
    syn: &FileSyntax,
    f: &crate::syntax::FnInfo,
    body_open: usize,
    body_close: usize,
) -> bool {
    let handles = crate::semantic::budget_handles(syn, f, body_open, body_close);
    (body_open + 1..body_close.min(toks.len()))
        .any(|t| ident_at(toks, t).is_some_and(|n| handles.contains(&n)) && op_at(toks, t + 1, "."))
}

/// Replay each node's span against its dataflow in-state, recording lock,
/// call, and blocking events with held-guard context.
fn walk_events(
    cfg: &Cfg,
    toks: &[Token],
    syn: &FileSyntax,
    slots: &[GuardSlot],
    ins: &[u64],
    test_mask: &[bool],
) -> (Vec<LockEvent>, Vec<CallEvent>, Vec<BlockEvent>) {
    let mut events = (Vec::new(), Vec::new(), Vec::new());
    for (id, node) in cfg.nodes.iter().enumerate() {
        let mut state = ins.get(id).copied().unwrap_or(0);
        for t in node.span.0..node.span.1.min(toks.len()) {
            let masked = test_mask.get(t).copied().unwrap_or(false);
            if !masked {
                record_events(&mut events, toks, syn, slots, state, t);
            }
            for (b, slot) in slots.iter().enumerate() {
                if slot.tok == t {
                    state |= 1u64 << b;
                }
            }
            if let Some(b) = explicit_drop(toks, t, slots) {
                state &= !(1u64 << b);
            }
        }
    }
    events
}

fn record_events(
    (acquires, calls, blocking): &mut (Vec<LockEvent>, Vec<CallEvent>, Vec<BlockEvent>),
    toks: &[Token],
    syn: &FileSyntax,
    slots: &[GuardSlot],
    state: u64,
    t: usize,
) {
    let live = |at: usize| -> Vec<(String, String)> {
        slots
            .iter()
            .enumerate()
            .filter(|(b, slot)| {
                state & (1u64 << b) != 0
                    && slot
                        .scope
                        .is_none_or(|gid| syn.groups.get(gid).is_some_and(|g| g.contains(at)))
            })
            .map(|(_, slot)| (slot.name.clone(), slot.lock.clone()))
            .collect()
    };
    if let Some(lock) = detect_acquisition(toks, t) {
        let held: Vec<String> = live(t).into_iter().map(|(_, l)| l).collect();
        acquires.push(LockEvent { lock, line: line_of(toks, t), held });
    }
    let Some(name) = ident_at(toks, t) else { return };
    if !op_at(toks, t + 1, "(") {
        return;
    }
    if BLOCKING_CALLS.contains(&name)
        && (op_at(toks, t.wrapping_sub(1), ".") || op_at(toks, t.wrapping_sub(1), "::"))
        // `.join(` with arguments is `str`/`Path` join, not thread join.
        && (name != "join" || op_at(toks, t + 2, ")"))
    {
        let guards = live(t);
        if !guards.is_empty() {
            blocking.push(BlockEvent { call: name.to_string(), line: line_of(toks, t), guards });
        }
    }
    if let Some(callee) = call_at(toks, syn, t) {
        let held: Vec<String> = live(t).into_iter().map(|(_, l)| l).collect();
        calls.push(CallEvent { callee: callee.to_string(), line: line_of(toks, t), held });
    }
}

// ----- workspace call-graph index ---------------------------------------

/// Per-function summary after [`FlowIndex::finalize`]: `acquires` is the
/// *reachable* acquisition set (own plus callees', one fixpoint), `polls`
/// is reachable budget polling.
#[derive(Debug, Clone, Default)]
struct FnSummary {
    /// Locks acquired by this function or anything it (transitively) calls.
    acquires: BTreeSet<String>,
    /// Does this function (or anything it calls) poll a budget handle?
    polls: bool,
}

/// One observed lock-ordering fact: `first` was held while `second` was
/// acquired at `path:line` (possibly via one call-graph step).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderPair {
    /// Lock held on entry.
    pub first: String,
    /// Lock acquired while `first` was held.
    pub second: String,
    /// File the acquisition (or the call leading to it) is in.
    pub path: String,
    /// Line of the acquisition or call site.
    pub line: u32,
    /// `Some(callee)` when the second acquisition happens inside a callee.
    pub via: Option<String>,
}

/// The workspace-wide lock and polling index: function summaries,
/// propagated over the scan's [`CallGraph`], plus every observed
/// lock-ordering pair. Built once per scan (or per file for single-file
/// scans), then handed read-only to the rules.
#[derive(Debug, Default)]
pub struct FlowIndex {
    fns: BTreeMap<String, FnSummary>,
    pairs: Vec<OrderPair>,
    pending: Vec<PendingCall>,
    finalized: bool,
}

#[derive(Debug)]
struct PendingCall {
    callee: String,
    path: String,
    line: u32,
    held: Vec<String>,
}

impl FlowIndex {
    /// Fold one analyzed file into the index. Call [`FlowIndex::finalize`]
    /// once all files are in.
    pub fn add_file(&mut self, path: &str, flow: &FileFlow) {
        for f in &flow.fns {
            let summary = match self.fns.entry(f.name.clone()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(FnSummary::default()),
            };
            summary.polls |= f.polls_budget;
            for acq in &f.acquires {
                summary.acquires.insert(acq.lock.clone());
                for held in &acq.held {
                    if held != &acq.lock {
                        self.pairs.push(OrderPair {
                            first: held.clone(),
                            second: acq.lock.clone(),
                            path: path.to_string(),
                            line: acq.line,
                            via: None,
                        });
                    }
                }
            }
            for call in f.calls.iter().filter(|call| !call.held.is_empty()) {
                self.pending.push(PendingCall {
                    callee: call.callee.clone(),
                    path: path.to_string(),
                    line: call.line,
                    held: call.held.clone(),
                });
            }
        }
    }

    /// Run the reachability fixpoints over `calls` (budget polling and lock
    /// acquisition summaries, one call-graph level at a time until stable)
    /// and expand held-across-call sites into interprocedural ordering
    /// pairs.
    pub fn finalize(&mut self, calls: &CallGraph) {
        // Propagate `polls` and `acquires` over the call graph.
        loop {
            let mut changed = false;
            let names: Vec<String> = self.fns.keys().cloned().collect();
            for name in &names {
                let Some(summary) = self.fns.get(name) else { continue };
                let mut polls = summary.polls;
                let mut acquires = summary.acquires.clone();
                for (callee, _) in calls.callees(name) {
                    if let Some(cs) = self.fns.get(callee) {
                        polls |= cs.polls;
                        acquires.extend(cs.acquires.iter().cloned());
                    }
                }
                let Some(summary) = self.fns.get_mut(name) else { continue };
                if polls != summary.polls || acquires != summary.acquires {
                    summary.polls = polls;
                    summary.acquires = acquires;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Held-across-call -> ordering pairs against the callee's
        // reachable acquisition set.
        for call in std::mem::take(&mut self.pending) {
            let Some(summary) = self.fns.get(&call.callee) else { continue };
            for second in &summary.acquires {
                for first in &call.held {
                    if first != second {
                        self.pairs.push(OrderPair {
                            first: first.clone(),
                            second: second.clone(),
                            path: call.path.clone(),
                            line: call.line,
                            via: Some(call.callee.clone()),
                        });
                    }
                }
            }
        }
        self.pairs.sort();
        self.pairs.dedup();
        self.finalized = true;
    }

    /// Single-file convenience: add, finalize over that file's call graph.
    pub fn from_file(path: &str, flow: &FileFlow, calls: &CallGraph) -> FlowIndex {
        let mut index = FlowIndex::default();
        index.add_file(path, flow);
        index.finalize(calls);
        index
    }

    /// Does `name` (or anything it transitively calls) poll a budget
    /// handle? The semantic layer's `budget-blind-loop` asks this per
    /// callee inside a loop.
    pub fn polls_reachable(&self, name: &str) -> bool {
        self.fns.get(name).is_some_and(|s| s.polls)
    }

    /// All ordering pairs observed in `path`.
    fn pairs_in<'i>(&'i self, path: &str) -> impl Iterator<Item = &'i OrderPair> {
        let path = path.to_string();
        self.pairs.iter().filter(move |p| p.path == path)
    }

    /// The first pair acquiring `first` then `second`, anywhere.
    fn find_pair(&self, first: &str, second: &str) -> Option<&OrderPair> {
        self.pairs.iter().find(|p| p.first == first && p.second == second)
    }
}

// ----- the flow rules ---------------------------------------------------

/// Run the flow-layer rules on one file. `flow` is this file's analysis;
/// `index` is the (workspace-wide or file-local) call-graph index.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_flow(
    path: &str,
    toks: &[Token],
    syn: &FileSyntax,
    flow: &FileFlow,
    class: FileClass,
    test_mask: &[bool],
    rules: &[RuleKind],
    index: &FlowIndex,
    emit: &mut dyn FnMut(RuleKind, u32, String),
) {
    if class != FileClass::Lib {
        return;
    }
    if rules.contains(&RuleKind::LockOrderInversion) {
        lock_order_inversion(path, index, emit);
    }
    if rules.contains(&RuleKind::GuardAcrossBlocking) {
        guard_across_blocking(flow, emit);
    }
    if rules.contains(&RuleKind::SwallowedError) {
        swallowed_error(toks, syn, test_mask, emit);
    }
}

fn lock_order_inversion(
    path: &str,
    index: &FlowIndex,
    emit: &mut dyn FnMut(RuleKind, u32, String),
) {
    let mut seen: BTreeSet<(u32, String, String)> = BTreeSet::new();
    let local: Vec<OrderPair> = index.pairs_in(path).cloned().collect();
    for pair in &local {
        let Some(counter) = index.find_pair(&pair.second, &pair.first) else { continue };
        if !seen.insert((pair.line, pair.first.clone(), pair.second.clone())) {
            continue;
        }
        let via = pair
            .via
            .as_deref()
            .map(|callee| format!(" (via call to `{callee}`)"))
            .unwrap_or_default();
        emit(
            RuleKind::LockOrderInversion,
            pair.line,
            format!(
                "lock `{}` is held while `{}` is acquired{via}, but {}:{} takes \
                 them in the opposite order; two threads on these paths can \
                 deadlock — pick one order and stick to it",
                pair.first, pair.second, counter.path, counter.line
            ),
        );
    }
}

fn guard_across_blocking(flow: &FileFlow, emit: &mut dyn FnMut(RuleKind, u32, String)) {
    for f in &flow.fns {
        for site in &f.blocking {
            let named: Vec<String> = site
                .guards
                .iter()
                .map(|(guard, lock)| format!("`{guard}` (lock `{lock}`)"))
                .collect();
            emit(
                RuleKind::GuardAcrossBlocking,
                site.line,
                format!(
                    "`{}` can block while guard {} is live; one stalled peer \
                     then pins every thread waiting on that lock — drop the \
                     guard before blocking",
                    site.call,
                    named.join(", "),
                ),
            );
        }
    }
}

fn swallowed_error(
    toks: &[Token],
    syn: &FileSyntax,
    test_mask: &[bool],
    emit: &mut dyn FnMut(RuleKind, u32, String),
) {
    let mut t = 0;
    while t < toks.len() {
        let Some(name) = ident_at(toks, t) else {
            t += 1;
            continue;
        };
        if !SWALLOWABLE.contains(&name)
            || !op_at(toks, t.wrapping_sub(1), ".")
            || !op_at(toks, t + 1, "(")
            // `.join("/")` on str/Path is infallible; thread join takes none.
            || (name == "join" && !op_at(toks, t + 2, ")"))
            || test_mask.get(t).copied().unwrap_or(false)
        {
            t += 1;
            continue;
        }
        // Shutdown/drain paths may legitimately best-effort their writes.
        if syn
            .enclosing_fn(t)
            .is_some_and(|f| f.name.contains("drain") || f.name.contains("shutdown"))
        {
            t += 1;
            continue;
        }
        let scope = syn.brace_scope(t);
        let start = syn.statement_start(toks, t, scope);
        let end = syn.statement_end(toks, t, scope);
        if ident_at(toks, start) == Some("let")
            && ident_at(toks, start + 1) == Some("_")
            && op_at(toks, start + 2, "=")
        {
            emit(
                RuleKind::SwallowedError,
                line_of(toks, start),
                format!(
                    "`let _ =` discards the result of `{name}`; a failed \
                     store/net write must be counted, logged, or propagated"
                ),
            );
        } else if let Some(k) = find_ok_call(toks, start, end).or_else(|| {
            // The fallible call may sit inside a closure (`.map(|i| …spawn…)`)
            // while the swallow happens downstream in the same fn-body-level
            // statement (`.filter_map(|h| h.ok())`). Escalate the search to
            // the statement at the enclosing fn's body scope.
            let body_open = syn.enclosing_fn(t)?.body?.0;
            let fn_scope = syn.group_at_opener(body_open);
            if fn_scope == scope {
                return None;
            }
            let wide_end = syn.statement_end(toks, t, fn_scope);
            find_ok_call(toks, t, wide_end)
        }) {
            emit(
                RuleKind::SwallowedError,
                line_of(toks, k),
                format!(
                    "`.ok()` swallows the error from `{name}`; a failed \
                     store/net write must be counted, logged, or propagated"
                ),
            );
        }
        t = end.max(t + 1);
    }
}

/// First argument-less `.ok()` call in `[start, end)`.
fn find_ok_call(toks: &[Token], start: usize, end: usize) -> Option<usize> {
    (start..end.min(toks.len())).find(|&k| {
        ident_at(toks, k) == Some("ok")
            && op_at(toks, k.wrapping_sub(1), ".")
            && op_at(toks, k + 1, "(")
            && op_at(toks, k + 2, ")")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn setup(src: &str) -> (Vec<Token>, FileSyntax) {
        let lexed = lex(src);
        let syn = FileSyntax::analyze(&lexed.tokens);
        (lexed.tokens, syn)
    }

    fn index_of(toks: &[Token], syn: &FileSyntax, flow: &FileFlow) -> FlowIndex {
        let mask = vec![false; toks.len()];
        FlowIndex::from_file("mem.rs", flow, &CallGraph::from_file(toks, syn, &mask, &mask))
    }

    fn cfg_of(src: &str) -> Cfg {
        let (toks, syn) = setup(src);
        let f = syn.fns.first().expect("fn parsed");
        let (open, _) = f.body.expect("body");
        build_cfg(&toks, &syn, open).expect("cfg built")
    }

    fn flow_of(src: &str) -> FileFlow {
        let (toks, syn) = setup(src);
        let mask = vec![false; toks.len()];
        FileFlow::analyze(&toks, &syn, &mask)
    }

    fn findings_of(src: &str, rules: &[RuleKind]) -> Vec<(RuleKind, u32, String)> {
        let (toks, syn) = setup(src);
        let mask = vec![false; toks.len()];
        let flow = FileFlow::analyze(&toks, &syn, &mask);
        let index = index_of(&toks, &syn, &flow);
        let mut out = Vec::new();
        scan_flow(
            "mem.rs",
            &toks,
            &syn,
            &flow,
            FileClass::Lib,
            &mask,
            rules,
            &index,
            &mut |rule, line, msg| out.push((rule, line, msg)),
        );
        out
    }

    #[test]
    fn straight_line_fn_is_entry_to_exit() {
        let cfg = cfg_of("fn f() { a(); b(); c(); }");
        assert_eq!(cfg.nodes.len(), 2);
        assert_eq!(cfg.edge_count(), 1);
        assert_eq!(cfg.reachable().len(), 2);
    }

    #[test]
    fn if_else_makes_a_diamond() {
        let cfg = cfg_of("fn f(x: bool) { if x { a(); } else { b(); } c(); }");
        // entry, exit, 2 arms, join.
        assert_eq!(cfg.nodes.len(), 5);
        // cur->arm x2, arm->join x2, join->exit.
        assert_eq!(cfg.edge_count(), 5);
        assert_eq!(cfg.reachable().len(), 5);
    }

    #[test]
    fn if_without_else_keeps_fallthrough_edge() {
        let cfg = cfg_of("fn f(x: bool) { if x { a(); } b(); }");
        assert_eq!(cfg.nodes.len(), 4);
        // cur->arm, arm->join, cur->join, join->exit.
        assert_eq!(cfg.edge_count(), 4);
    }

    #[test]
    fn loop_has_back_edge_and_break_edge() {
        let cfg = cfg_of("fn f() { loop { if done() { break; } step(); } tail(); }");
        // Every node reachable, including `after` via head->after.
        assert_eq!(cfg.reachable().len(), cfg.nodes.len());
        // entry->head, head->body, body_end->head, head->after,
        // if: body->arm, arm->join, body->join, arm->after (break),
        // after->exit.
        assert_eq!(cfg.edge_count(), 9);
    }

    #[test]
    fn question_mark_and_return_edge_to_exit() {
        let cfg = cfg_of("fn f() -> R { let x = g()?; if x { return h(); } k() }");
        let entry_succs = &cfg.nodes[ENTRY].succs;
        assert!(entry_succs.contains(&EXIT), "? should edge to exit: {entry_succs:?}");
        assert_eq!(cfg.reachable().len(), cfg.nodes.len());
    }

    #[test]
    fn match_arms_fan_out_and_rejoin() {
        let cfg =
            cfg_of("fn f(x: E) { match x { E::A => { a(); } E::B(v) => b(v), _ => {} } tail(); }");
        // entry, exit, 3 arms, join.
        assert_eq!(cfg.nodes.len(), 6);
        // cur->arm x3, arm->join x3, join->exit.
        assert_eq!(cfg.edge_count(), 7);
        assert_eq!(cfg.reachable().len(), 6);
    }

    #[test]
    fn dataflow_guard_survives_until_drop() {
        let src = "fn f(m: &Mutex<u32>) { let g = lock(m); use_it(&g); drop(g); after(); }";
        let flow = flow_of(src);
        let f = &flow.fns[0];
        // `use_it` called with the guard's lock held; `after` with it dropped.
        let use_call = f.calls.iter().find(|c| c.callee == "use_it").expect("use_it");
        assert_eq!(use_call.held, vec!["m".to_string()]);
        let after_call = f.calls.iter().find(|c| c.callee == "after").expect("after");
        assert!(after_call.held.is_empty(), "drop should kill the fact");
    }

    #[test]
    fn guard_dies_at_scope_exit() {
        let src = "fn f(m: &Mutex<u32>) { { let g = lock(m); use_it(&g); } after(); }";
        let flow = flow_of(src);
        let after_call = flow.fns[0].calls.iter().find(|c| c.callee == "after").expect("after");
        assert!(after_call.held.is_empty(), "guard scope ended before after()");
    }

    #[test]
    fn interprocedural_inversion_is_found() {
        let src = "
            fn forward(d: &D) { let t = lock(&d.tenants); let q = lock(&d.queue); work(&t, &q); }
            fn backward_outer(d: &D) { let q = lock(&d.queue); backward_inner(d); drop(q); }
            fn backward_inner(d: &D) { let t = lock(&d.tenants); touch(&t); }
        ";
        let findings = findings_of(src, &[RuleKind::LockOrderInversion]);
        assert!(
            findings.iter().any(|(_, _, m)| m.contains("tenants") && m.contains("queue")),
            "expected an inversion finding, got {findings:?}"
        );
        // Both directions are reported (one per conflicting site).
        assert!(findings.len() >= 2, "{findings:?}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "
            fn one(d: &D) { let t = lock(&d.tenants); let q = lock(&d.queue); work(&t, &q); }
            fn two(d: &D) { let t = lock(&d.tenants); let q = lock(&d.queue); work(&t, &q); }
        ";
        assert!(findings_of(src, &[RuleKind::LockOrderInversion]).is_empty());
    }

    #[test]
    fn guard_across_blocking_fires_and_condvar_wait_is_exempt() {
        let hit = "fn f(m: &Mutex<W>) { let mut g = lock(m); g.write_all(b\"x\"); }";
        assert_eq!(findings_of(hit, &[RuleKind::GuardAcrossBlocking]).len(), 1);
        let wait = "fn f(d: &D) { let mut q = lock(&d.queue); let r = d.cv.wait_timeout(q, t); }";
        assert!(findings_of(wait, &[RuleKind::GuardAcrossBlocking]).is_empty());
        let dropped = "fn f(m: &Mutex<W>) { let g = lock(m); drop(g); sock.write_all(b\"x\"); }";
        assert!(findings_of(dropped, &[RuleKind::GuardAcrossBlocking]).is_empty());
    }

    #[test]
    fn block_result_binding_is_not_a_guard() {
        // `known` holds the *result* of the block; the lock drops at the
        // inner `}` (the daemon's handle_detect / worker_loop idiom).
        let src = "fn f(d: &D) {
            let known = { let t = lock(&d.tenants); t.len() };
            std::thread::sleep(dur);
        }";
        assert!(findings_of(src, &[RuleKind::GuardAcrossBlocking]).is_empty());
    }

    #[test]
    fn consumed_lock_temporary_is_not_a_guard() {
        // The temporary guard is consumed by `.is_empty()` and drops at the
        // `;` (the daemon's drain-idle probe).
        let src = "fn f(d: &D) {
            let idle = lock(&d.queue).is_empty();
            std::thread::sleep(dur);
        }";
        assert!(findings_of(src, &[RuleKind::GuardAcrossBlocking]).is_empty());
    }

    #[test]
    fn poison_riding_chain_is_still_a_guard() {
        // `unwrap` / `unwrap_or_else` pass the guard through — only
        // non-adapter chained calls consume it.
        let src = "fn f(m: &Mutex<W>) {
            let mut g = m.lock().unwrap_or_else(|p| p.into_inner());
            g.write_all(b\"x\");
        }";
        assert_eq!(findings_of(src, &[RuleKind::GuardAcrossBlocking]).len(), 1);
    }

    #[test]
    fn swallow_in_downstream_closure_is_found() {
        // The fallible `.spawn` sits inside a `.map` closure; the `.ok()`
        // swallow happens downstream in the same fn-body statement (the
        // daemon's spawn_workers shape).
        let src = "fn f(n: u32) -> Vec<H> {
            (0..n)
                .map(|i| { std::thread::Builder::new().spawn(move || work(i)) })
                .filter_map(|h| h.ok())
                .collect()
        }";
        let findings = findings_of(src, &[RuleKind::SwallowedError]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].2.contains("spawn"), "{findings:?}");
    }

    #[test]
    fn swallowed_error_let_underscore_and_ok() {
        let src = "
            fn f(w: &mut W) { let _ = w.write_all(b\"x\"); }
            fn g(w: &mut W) { w.flush().ok(); }
            fn propagate(w: &mut W) -> io::Result<()> { w.write_all(b\"x\")?; Ok(()) }
            fn drain(w: &mut W) { let _ = w.flush(); }
        ";
        let findings = findings_of(src, &[RuleKind::SwallowedError]);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn path_join_is_not_thread_join() {
        let src = "fn f(dir: &Path) { let p = dir.join(\"model.bin\"); read(&p); }";
        assert!(findings_of(src, &[RuleKind::SwallowedError]).is_empty());
    }

    #[test]
    fn call_graph_resolves_renamed_imports() {
        let src = "
            use crate::util::{alpha, beta as gamma};
            fn caller() { alpha(); gamma(); stages::gamma(); Some(1); fn inner() {} }
        ";
        let (toks, syn) = setup(src);
        let mask = vec![false; toks.len()];
        let calls = CallGraph::from_file(&toks, &syn, &mask, &mask);
        let callees: Vec<&str> = calls.callees("caller").map(|(c, _)| c).collect();
        // Qualified names stay literal; constructors and definitions are
        // not calls.
        assert_eq!(callees, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn polls_reachable_propagates_one_level_and_beyond() {
        let src = "
            fn poller(budget: &DiagnosisBudget) -> R { budget.check(\"stage\") }
            fn middle(budget: &DiagnosisBudget) -> R { poller(budget) }
            fn top(budget: &DiagnosisBudget) -> R { middle(budget) }
            fn blind(x: u32) -> u32 { x }
        ";
        let (toks, syn) = setup(src);
        let mask = vec![false; toks.len()];
        let flow = FileFlow::analyze(&toks, &syn, &mask);
        let index = index_of(&toks, &syn, &flow);
        assert!(index.polls_reachable("poller"));
        assert!(index.polls_reachable("middle"));
        assert!(index.polls_reachable("top"));
        assert!(!index.polls_reachable("blind"));
    }

    #[test]
    fn test_mask_suppresses_events() {
        let src = "fn f(m: &Mutex<W>) { let mut g = lock(m); g.write_all(b\"x\"); }";
        let (toks, syn) = setup(src);
        let mask = vec![true; toks.len()];
        let flow = FileFlow::analyze(&toks, &syn, &mask);
        assert!(flow.fns[0].blocking.is_empty());
        assert!(flow.fns[0].acquires.is_empty());
    }
}
