//! Layer 4: interprocedural taint analysis and panic-reachability
//! certification.
//!
//! Two question this layer answers statically, rather than by sampling:
//!
//! 1. **Determinism** — can a nondeterministic value (entropy-seeded RNG,
//!    wall-clock reading, hash-map iteration order, thread id, pointer
//!    address) reach a serialized output (`Explanation` construction,
//!    `ModelStore` records, sherlockd protocol responses, bench JSON
//!    writers) without passing a sanitizer (an explicit sort, an
//!    order-free reduction, a seed-derived stream)?
//! 2. **Panic isolation** — which `unwrap`/`expect`/`panic!`/`[]`-indexing
//!    sites are reachable from the certified public entry points
//!    (`explain_batch`, `validate_explanation`, the sherlockd ingest
//!    loop) along a path that never crosses a `catch_unwind` /
//!    `try_par_map_indexed` isolation boundary?
//!
//! The analysis reuses the flow layer's machinery: intra-function taint
//! rides the CFG + bitset dataflow engine ([`crate::flow::build_cfg`],
//! [`crate::flow::dataflow_in`]); interprocedural facts are monotone
//! fixed-point summaries over the scan's one call graph
//! ([`crate::calls::CallGraph`]), which the [`crate::flow::FlowIndex`]
//! reads too. Both directions over-approximate (see the call graph's
//! caveats and DESIGN §15).

use std::collections::{BTreeMap, BTreeSet};

use crate::calls::{call_at, isolation_spans, CallGraph};
use crate::flow::{build_cfg, dataflow_in, MAX_SLOTS};
use crate::lexer::{ident_at, line_of, op_at, LexOutput, Tok, Token};
use crate::rules::{FileClass, RuleKind, TraceKind, TraceStep, KEYWORDS};
use crate::semantic::{HASH_TYPES, ITER_HEADS, ORDER_FREE_SINKS, REDUCERS, SORTERS};
use crate::syntax::FileSyntax;

// ----- the lattice ------------------------------------------------------

/// Taint kinds, one bit each; a taint set is the bitwise OR of its kinds,
/// so lattice join is `|` (monotone, idempotent, commutative — the
/// properties `tests/taint_props.rs` checks).
pub type TaintSet = u8;

/// Entropy-seeded RNG output.
pub const RNG: TaintSet = 1;
/// Wall-clock reading used beyond a deadline check.
pub const CLOCK: TaintSet = 1 << 1;
/// `HashMap`/`HashSet` iteration order.
pub const HASH_ORDER: TaintSet = 1 << 2;
/// Thread identity.
pub const THREAD_ID: TaintSet = 1 << 3;
/// Pointer/address values (raw-pointer casts, `{:p}` formatting).
pub const ADDRESS: TaintSet = 1 << 4;

/// Human-readable name per kind, for messages and traces.
pub fn kind_names(set: TaintSet) -> String {
    const NAMES: &[(TaintSet, &str)] = &[
        (RNG, "rng-entropy"),
        (CLOCK, "wall-clock"),
        (HASH_ORDER, "hash-order"),
        (THREAD_ID, "thread-id"),
        (ADDRESS, "address"),
    ];
    let picked: Vec<&str> = NAMES.iter().filter(|(k, _)| (set & k) != 0).map(|(_, n)| *n).collect();
    picked.join("+")
}

/// What would have cleared this taint, for the sanitizer-miss trace step.
fn expected_sanitizer(set: TaintSet) -> &'static str {
    if set & HASH_ORDER != 0 {
        "a sort, an order-free reduction, or collecting into an ordered container"
    } else if set & RNG != 0 {
        "a seed-derived stream (seed_from_u64 / splitmix64)"
    } else if set & CLOCK != 0 {
        "no sanitizer exists — wall-clock values must not be serialized"
    } else {
        "no sanitizer exists for this kind"
    }
}

// ----- source / sanitizer / sink tables ---------------------------------

/// Entropy-seeded RNG constructors (clippy.toml bans the ones the vendored
/// `rand` still has).
const ENTROPY_SOURCES: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "try_from_os_rng"];

/// Types whose `::now()` is a wall-clock source.
const CLOCK_TYPES: &[&str] = &["SystemTime", "Instant"];

/// A `::now()` whose statement mentions one of these is a deadline /
/// duration computation, not a serialized value: `let deadline = Instant::
/// now() + budget`, `started: Instant::now()`. Substring match, like
/// `RETRY_GUARDS` in the semantic layer.
const DEADLINE_HINTS: &[&str] = &[
    "deadline",
    "elapsed",
    "timeout",
    "budget",
    "expire",
    "remaining",
    "uptime",
    "start",
    "since",
    "epoch",
    "tick",
    "wait",
    "backoff",
    "t0",
];

/// Idents that derive a reproducible stream from an explicit seed: seeing
/// one in an expression clears RNG taint.
const SEED_SANITIZERS: &[&str] = &["seed_from_u64", "from_seed", "splitmix64", "derive_stream"];

/// Order-free folds: with `REDUCERS`, these clear HASH_ORDER. `fold` is
/// trusted to be order-free here — order-sensitive folds over hash maps
/// are the `nondet-iteration` rule's business.
const ORDER_FREE_FOLDS: &[&str] = &["fold", "try_fold"];

/// Construction of one of these types is a serialization sink: the value
/// crosses a reproducibility boundary (`Explanation` is diffed across
/// runs; `Response` goes out the sherlockd socket).
const SINK_TYPES: &[&str] = &["Explanation", "Response"];

/// Calls whose arguments are persisted: ModelStore records and the bench
/// JSON report writers.
const SINK_CALLS: &[&str] = &["save", "save_with_backoff", "write_json", "write_report"];

/// The certified entry points (bare fn names, workspace-wide): the public
/// explain/diagnose surface plus the sherlockd ingest loop. A missing
/// name fails certification — renaming an entry must be a loud event.
pub const ENTRY_POINTS: &[&str] = &[
    "explain_batch",
    "try_explain",
    "validate_explanation",
    "handle_line",
    "ingest",
    "worker_loop",
];

// ----- token helpers ----------------------------------------------------

/// `(open, close)` token span of delimiter group `id`.
fn group_bounds(syn: &FileSyntax, id: usize) -> Option<(usize, usize)> {
    syn.groups.get(id).map(|g| (g.open, g.close))
}

// ----- site detection ---------------------------------------------------

/// A nondeterminism source at token `i`, if any: `(kind, description)`.
fn source_at(
    toks: &[Token],
    syn: &FileSyntax,
    i: usize,
    addr_fmt_lines: &[u32],
) -> Option<(TaintSet, String)> {
    let tok = toks.get(i)?;
    // `{:p}` / `{:#p}` inside a format string: the lexer records the line.
    if matches!(tok.kind, Tok::Str) && addr_fmt_lines.contains(&tok.line) {
        return Some((ADDRESS, "`{:p}` pointer formatting".to_string()));
    }
    let name = ident_at(toks, i)?;
    // Entropy-seeded RNG: `thread_rng()`, `rand::rng()`, `rand::random()`.
    if ENTROPY_SOURCES.contains(&name) && op_at(toks, i + 1, "(") {
        return Some((RNG, format!("entropy-seeded `{name}()`")));
    }
    if matches!(name, "rng" | "random")
        && op_at(toks, i + 1, "(")
        && i >= 2
        && op_at(toks, i - 1, "::")
        && ident_at(toks, i - 2) == Some("rand")
    {
        return Some((RNG, format!("entropy-seeded `rand::{name}()`")));
    }
    // Wall clock: `SystemTime::now()` / `Instant::now()` outside a
    // deadline-ish statement.
    if name == "now" && op_at(toks, i + 1, "(") && i >= 2 && op_at(toks, i - 1, "::") {
        if let Some(ty) = ident_at(toks, i - 2) {
            if CLOCK_TYPES.contains(&ty) && !deadline_context(toks, syn, i) {
                return Some((CLOCK, format!("wall-clock `{ty}::now()`")));
            }
        }
    }
    // Hash iteration order: `map.iter()`, `set.keys()`, … on a hash type.
    if ITER_HEADS.contains(&name)
        && i >= 2
        && op_at(toks, i - 1, ".")
        && (op_at(toks, i + 1, "(") || (op_at(toks, i + 1, "::") && op_at(toks, i + 2, "<")))
    {
        if let Some(ty) = syn.receiver_type(toks, i - 2) {
            if HASH_TYPES.contains(&ty) {
                return Some((HASH_ORDER, format!("`.{name}()` on a `{ty}`")));
            }
        }
    }
    // Thread identity: `thread::current()`.
    if name == "current"
        && op_at(toks, i + 1, "(")
        && i >= 2
        && op_at(toks, i - 1, "::")
        && ident_at(toks, i - 2) == Some("thread")
    {
        return Some((THREAD_ID, "`thread::current()`".to_string()));
    }
    // Address: raw-pointer cast `x as *const T` / `as *mut T`.
    if name == "as"
        && op_at(toks, i + 1, "*")
        && matches!(ident_at(toks, i + 2), Some("const" | "mut"))
    {
        return Some((ADDRESS, "raw-pointer cast".to_string()));
    }
    None
}

/// Does the statement containing token `i` look like deadline/duration
/// arithmetic rather than a serialized timestamp?
fn deadline_context(toks: &[Token], syn: &FileSyntax, i: usize) -> bool {
    let scope = syn.enclosing.get(i).copied().flatten();
    let end = syn.statement_end(toks, i, scope);
    let mut start = i;
    while start > 0
        && !matches!(toks.get(start - 1).map(|t| &t.kind), Some(Tok::Op(";" | "{" | "}")))
    {
        start -= 1;
    }
    (start..end.min(toks.len())).any(|k| {
        ident_at(toks, k).is_some_and(|n| {
            let lower = n.to_ascii_lowercase();
            DEADLINE_HINTS.iter().any(|h| lower.contains(h))
        })
    })
}

/// A sanitizer at token `i`: `(kinds cleared, description)`.
fn sanitizer_at(toks: &[Token], syn: &FileSyntax, i: usize) -> Option<(TaintSet, String)> {
    let name = ident_at(toks, i)?;
    let call_like =
        op_at(toks, i + 1, "(") || (op_at(toks, i + 1, "::") && op_at(toks, i + 2, "<"));
    if !call_like {
        return None;
    }
    if SORTERS.contains(&name) {
        return Some((HASH_ORDER, format!("`.{name}()` sort")));
    }
    if REDUCERS.contains(&name) || ORDER_FREE_FOLDS.contains(&name) {
        return Some((HASH_ORDER, format!("order-free `.{name}()`")));
    }
    // `collect::<BTreeMap<…>>()` — collecting into an ordered/order-free
    // container re-establishes a canonical order.
    if name == "collect" && op_at(toks, i + 1, "::") && op_at(toks, i + 2, "<") {
        let scope = syn.enclosing.get(i).copied().flatten();
        let end = syn.statement_end(toks, i, scope);
        let head = syn.type_head(toks, i + 3, end);
        if ORDER_FREE_SINKS.contains(&head.as_str()) {
            return Some((HASH_ORDER, format!("collect into `{head}`")));
        }
    }
    if SEED_SANITIZERS.contains(&name) {
        return Some((RNG, format!("seed-derived `{name}`")));
    }
    None
}

/// A serialization sink whose argument span starts at token `i`:
/// `(args_open, args_close, description)`. The span is the brace group of
/// a struct-literal construction or the paren group of a sink call.
fn sink_at(toks: &[Token], syn: &FileSyntax, i: usize) -> Option<(usize, usize, String)> {
    let name = ident_at(toks, i)?;
    let group_span =
        |open: usize| -> Option<(usize, usize)> { group_bounds(syn, syn.group_at_opener(open)?) };
    if SINK_TYPES.contains(&name) {
        // `Explanation { … }` — but not the `struct Explanation {` item
        // definition or an `impl Explanation {` block.
        if op_at(toks, i + 1, "{")
            && i >= 1
            && !matches!(ident_at(toks, i - 1), Some("struct" | "impl" | "enum" | "union" | "for"))
        {
            let (open, close) = group_span(i + 1)?;
            return Some((open, close, format!("`{name} {{ .. }}` construction")));
        }
        // `Response::Variant { … }` / `Response::ctor( … )`.
        if op_at(toks, i + 1, "::") {
            if let Some(variant) = ident_at(toks, i + 2) {
                if op_at(toks, i + 3, "{") {
                    let (open, close) = group_span(i + 3)?;
                    return Some((open, close, format!("`{name}::{variant}` construction")));
                }
                if op_at(toks, i + 3, "(") {
                    let (open, close) = group_span(i + 3)?;
                    return Some((open, close, format!("`{name}::{variant}(..)`")));
                }
            }
        }
        return None;
    }
    if SINK_CALLS.contains(&name) && op_at(toks, i + 1, "(") {
        let (open, close) = group_span(i + 1)?;
        return Some((open, close, format!("`{name}(..)` persisted record")));
    }
    None
}

/// A panic site at token `i` (the call, macro and `[]`-indexing shapes of
/// clippy's panic lints): `(description)`.
fn panic_site_at(toks: &[Token], i: usize) -> Option<&'static str> {
    match &toks.get(i)?.kind {
        Tok::Ident(name) => match name.as_str() {
            "unwrap"
                if i >= 1
                    && op_at(toks, i - 1, ".")
                    && op_at(toks, i + 1, "(")
                    && op_at(toks, i + 2, ")") =>
            {
                Some("`.unwrap()`")
            }
            "expect" if i >= 1 && op_at(toks, i - 1, ".") && op_at(toks, i + 1, "(") => {
                Some("`.expect()`")
            }
            "panic" if op_at(toks, i + 1, "!") => Some("`panic!`"),
            "unreachable" if op_at(toks, i + 1, "!") => Some("`unreachable!`"),
            "todo" if op_at(toks, i + 1, "!") => Some("`todo!`"),
            "unimplemented" if op_at(toks, i + 1, "!") => Some("`unimplemented!`"),
            _ => None,
        },
        Tok::Op("[") => {
            let indexing = match i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.kind) {
                Some(Tok::Ident(name)) => !KEYWORDS.contains(&name.as_str()),
                Some(Tok::Op(o)) => matches!(*o, ")" | "]" | "?"),
                _ => false,
            };
            indexing.then_some("`[]`-indexing")
        }
        _ => None,
    }
}

// ----- the interprocedural index ----------------------------------------

/// One unisolated panic site, kept with its own location because
/// same-named fns merge across files.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// File the site lives in.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// `` `.unwrap()` `` etc.
    pub desc: &'static str,
}

/// Per-function facts gathered file-by-file; same-named fns (other impls,
/// other files) merge conservatively.
#[derive(Debug, Default, Clone)]
struct FnNode {
    /// Declaration site of the first-seen definition (for trace steps).
    path: String,
    line: u32,
    /// Body line spans of every merged definition, for mapping findings
    /// back to functions: `(path, first_line, last_line)`.
    spans: Vec<(String, u32, u32)>,
    /// Taint kinds produced directly in the body.
    sources: TaintSet,
    /// Kinds a sanitizer clears somewhere in the body (coarse: clearing
    /// anywhere is assumed to cover the returned value).
    sanitized: TaintSet,
    /// A parameter flows directly into a local serialization sink.
    has_param_sink: bool,
    /// Unisolated local panic sites.
    panics: Vec<PanicSite>,
    /// Count of locally isolated panic sites.
    isolated_panics: usize,
}

/// How an exposed function is reached: the entry point and the bare-name
/// witness chain `entry → … → fn`.
#[derive(Debug, Clone)]
pub struct Exposure {
    /// The certified entry the BFS started from.
    pub entry: String,
    /// Call chain, entry first, the exposed fn last.
    pub chain: Vec<String>,
}

/// Workspace-wide taint facts: per-function summaries plus, over the call
/// graph, the two fixed-points (may-return taint, sink reachability) and
/// the panic exposure map.
#[derive(Debug, Default)]
pub struct TaintIndex {
    fns: BTreeMap<String, FnNode>,
    /// Fixed-point may-return taint per fn.
    returns: BTreeMap<String, TaintSet>,
    /// Fns whose parameters can transitively reach a serialization sink.
    sink_reach: BTreeSet<String>,
    /// Fn name → how it is reached unisolated from a certified entry.
    exposed: BTreeMap<String, Exposure>,
    finalized: bool,
}

impl TaintIndex {
    /// Harvest per-function facts from one lexed+analyzed file. Only
    /// library files should be fed in (tests and binaries may panic and
    /// may be nondeterministic).
    pub fn add_file(
        &mut self,
        path: &str,
        lexed: &LexOutput,
        syn: &FileSyntax,
        test_mask: &[bool],
        attr_mask: &[bool],
    ) {
        let toks = &lexed.tokens;
        let site_allowed = |line: u32| {
            let name = RuleKind::UnisolatedPanic.name();
            lexed.file_allows.iter().any(|a| a == name)
                || [line, line.saturating_sub(1)]
                    .iter()
                    .any(|l| lexed.allows.get(l).is_some_and(|rs| rs.iter().any(|a| a == name)))
        };
        for f in &syn.fns {
            let Some((body_open, body_close)) = f.body else { continue };
            if test_mask.get(f.name_tok).copied().unwrap_or(false) {
                continue;
            }
            let decl_line = line_of(toks, f.name_tok);
            let node = self.fns.entry(f.name.clone()).or_default();
            if node.spans.is_empty() {
                node.path = path.to_string();
                node.line = decl_line;
            }
            let last_line = toks.get(body_close).or(toks.last()).map_or(0, |t| t.line);
            node.spans.push((path.to_string(), decl_line, last_line));

            let iso = isolation_spans(toks, body_open, body_close);
            let in_iso = |i: usize| iso.iter().any(|&(o, c)| i > o && i < c);
            let params: Vec<&str> = f.params.iter().map(|(n, _)| n.as_str()).collect();

            for i in body_open + 1..body_close.min(toks.len()) {
                if test_mask.get(i).copied().unwrap_or(false)
                    || attr_mask.get(i).copied().unwrap_or(false)
                {
                    continue;
                }
                if let Some((kind, _)) = source_at(toks, syn, i, &lexed.addr_fmt_lines) {
                    node.sources |= kind;
                }
                if let Some((kind, _)) = sanitizer_at(toks, syn, i) {
                    node.sanitized |= kind;
                }
                if let Some((o, c, _)) = sink_at(toks, syn, i) {
                    let direct = (o + 1..c.min(toks.len())).any(|k| {
                        !op_at(toks, k.wrapping_sub(1), ".")
                            && ident_at(toks, k).is_some_and(|n| params.contains(&n))
                    });
                    if direct {
                        node.has_param_sink = true;
                    }
                }
                if let Some(desc) = panic_site_at(toks, i) {
                    let line = line_of(toks, i);
                    if in_iso(i) {
                        node.isolated_panics += 1;
                    } else if !site_allowed(line) {
                        node.panics.push(PanicSite { path: path.to_string(), line, desc });
                    }
                }
            }
        }
        self.finalized = false;
    }

    /// Run the two interprocedural fixed points and the entry-point BFSs
    /// over `calls`. Both fixed points are monotone over finite lattices (a
    /// u8 bitset per fn; a growing set of fn names), so they terminate.
    pub fn finalize(&mut self, calls: &CallGraph) {
        // May-return taint: what a call to `f` can hand back, after the
        // fn's own sanitizers.
        self.returns =
            self.fns.iter().map(|(n, f)| (n.clone(), f.sources & !f.sanitized)).collect();
        loop {
            let mut changed = false;
            for (name, node) in &self.fns {
                let mut set = node.sources;
                for (callee, _) in calls.callees(name) {
                    set |= self.returns.get(callee).copied().unwrap_or(0);
                }
                set &= !node.sanitized;
                let slot = self.returns.entry(name.clone()).or_insert(0);
                if *slot != set {
                    *slot = set;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Sink reachability: a param of `f` can reach a serialization
        // sink, directly or through a param-forwarding call.
        self.sink_reach =
            self.fns.iter().filter(|(_, f)| f.has_param_sink).map(|(n, _)| n.clone()).collect();
        loop {
            let before = self.sink_reach.len();
            let grown: Vec<String> = self
                .fns
                .iter()
                .filter(|(n, _)| {
                    !self.sink_reach.contains(*n)
                        && calls
                            .callees(n)
                            .any(|(c, edge)| edge.forwards_param && self.sink_reach.contains(c))
                })
                .map(|(n, _)| n.clone())
                .collect();
            self.sink_reach.extend(grown);
            if self.sink_reach.len() == before {
                break;
            }
        }
        // Panic exposure: BFS from each certified entry over unisolated
        // call edges, recording a witness chain per reached fn.
        self.exposed.clear();
        for entry in ENTRY_POINTS {
            if !self.fns.contains_key(*entry) {
                continue;
            }
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(vec![entry.to_string()]);
            while let Some(chain) = queue.pop_front() {
                let name = chain.last().cloned().unwrap_or_default();
                if self.exposed.contains_key(&name) {
                    continue;
                }
                self.exposed.insert(
                    name.clone(),
                    Exposure { entry: entry.to_string(), chain: chain.clone() },
                );
                for (callee, edge) in calls.callees(&name) {
                    if edge.unisolated
                        && !self.exposed.contains_key(callee)
                        && self.fns.contains_key(callee)
                    {
                        let mut next = chain.clone();
                        next.push(callee.to_string());
                        queue.push_back(next);
                    }
                }
            }
        }
        self.finalized = true;
    }

    /// File-local index for single-file scans (fixtures, tests), over that
    /// file's call graph.
    pub fn from_file(
        path: &str,
        lexed: &LexOutput,
        syn: &FileSyntax,
        test_mask: &[bool],
        attr_mask: &[bool],
        calls: &CallGraph,
    ) -> TaintIndex {
        let mut index = TaintIndex::default();
        index.add_file(path, lexed, syn, test_mask, attr_mask);
        index.finalize(calls);
        index
    }

    /// May-return taint of `name` (0 for unknown / std fns).
    pub fn returns(&self, name: &str) -> TaintSet {
        debug_assert!(self.finalized, "query before finalize()");
        self.returns.get(name).copied().unwrap_or(0)
    }

    /// Can a value passed to `name` reach a serialization sink?
    pub fn sink_reaching(&self, name: &str) -> bool {
        self.sink_reach.contains(name)
    }

    /// How `name` is reached unisolated from a certified entry, if it is.
    pub fn exposure(&self, name: &str) -> Option<&Exposure> {
        self.exposed.get(name)
    }

    /// Location of a fn's first-seen definition.
    fn decl(&self, name: &str) -> Option<(&str, u32)> {
        self.fns.get(name).map(|f| (f.path.as_str(), f.line))
    }
}

// ----- the per-file scan ------------------------------------------------

/// Run the taint rules over one file, reporting through `emit(rule, line,
/// message, trace)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_taint(
    path: &str,
    lexed: &LexOutput,
    syn: &FileSyntax,
    class: FileClass,
    test_mask: &[bool],
    attr_mask: &[bool],
    rules: &[RuleKind],
    index: &TaintIndex,
    emit: &mut dyn FnMut(RuleKind, u32, String, Vec<TraceStep>),
) {
    if class != FileClass::Lib {
        return;
    }
    let toks = &lexed.tokens;
    if rules.contains(&RuleKind::TaintDeterminism) {
        for f in &syn.fns {
            if test_mask.get(f.name_tok).copied().unwrap_or(false) {
                continue;
            }
            scan_fn_determinism(path, lexed, syn, f, test_mask, attr_mask, index, emit);
        }
    }
    if rules.contains(&RuleKind::UnisolatedPanic) {
        for f in &syn.fns {
            let Some(exposure) = index.exposure(&f.name) else { continue };
            let Some(node) = index.fns.get(&f.name) else { continue };
            let decl_line = toks.get(f.name_tok).map_or(0, |t| t.line);
            for site in &node.panics {
                // Same-named fns merge; only report the sites that live in
                // this file *and* this definition's span.
                if site.path != path {
                    continue;
                }
                let in_this_def = node.spans.iter().any(|(p, lo, hi)| {
                    p == path && *lo == decl_line && site.line >= *lo && site.line <= *hi
                });
                if !in_this_def {
                    continue;
                }
                let mut trace = Vec::new();
                for (step, name) in exposure.chain.iter().enumerate() {
                    let (p, l) = index.decl(name).unwrap_or((path, site.line));
                    let kind = if step == 0 { TraceKind::Entry } else { TraceKind::Call };
                    trace.push(TraceStep {
                        path: p.to_string(),
                        line: l,
                        kind,
                        note: format!(
                            "`{name}` ({})",
                            if step == 0 { "certified entry" } else { "unisolated call" }
                        ),
                    });
                }
                trace.push(TraceStep {
                    path: site.path.clone(),
                    line: site.line,
                    kind: TraceKind::Panic,
                    note: format!("{} panics here", site.desc),
                });
                emit(
                    RuleKind::UnisolatedPanic,
                    site.line,
                    format!(
                        "{} is reachable from certified entry `{}` (via {}) without an \
                         isolation boundary; wrap the call path in try_par_map_indexed/\
                         catch_unwind or make this site infallible",
                        site.desc,
                        exposure.entry,
                        exposure.chain.join(" → "),
                    ),
                    trace,
                );
            }
        }
    }
}

/// A taint-carrying local binding.
struct Slot {
    name: String,
    /// Token index of the binding name (its definition site).
    tok: usize,
    /// Expression token range `(after '=', statement end)`.
    expr: (usize, usize),
    taint: TaintSet,
    /// First contributing source, for the trace.
    origin: Option<TraceStep>,
}

/// Determinism scan of one function: compute per-binding taint to a local
/// fixed point, run reaching-definitions over the CFG, and check every
/// serialization sink in the body.
#[allow(clippy::too_many_arguments)]
fn scan_fn_determinism(
    path: &str,
    lexed: &LexOutput,
    syn: &FileSyntax,
    f: &crate::syntax::FnInfo,
    test_mask: &[bool],
    attr_mask: &[bool],
    index: &TaintIndex,
    emit: &mut dyn FnMut(RuleKind, u32, String, Vec<TraceStep>),
) {
    let toks = &lexed.tokens;
    let Some((body_open, body_close)) = f.body else { return };

    // Collect taintable bindings: `let [mut] name … = expr;`.
    let mut slots: Vec<Slot> = Vec::new();
    for b in &syn.bindings {
        if b.tok <= body_open || b.tok >= body_close || slots.len() >= MAX_SLOTS - 2 {
            continue;
        }
        let scope = syn.enclosing.get(b.tok).copied().flatten();
        let end = syn.statement_end(toks, b.tok, scope);
        // Find the `=` introducing the initializer.
        let Some(eq) = (b.tok..end.min(toks.len())).find(|&k| op_at(toks, k, "=")) else {
            continue;
        };
        slots.push(Slot {
            name: b.name.clone(),
            tok: b.tok,
            expr: (eq + 1, end),
            taint: 0,
            origin: None,
        });
    }

    // A binding annotated with an ordered/order-free container type
    // canonicalizes iteration order on its own: `let m: BTreeMap<…> = …`.
    let annotated: Vec<bool> = slots
        .iter()
        .map(|s| {
            syn.bindings
                .iter()
                .find(|b| b.tok == s.tok)
                .is_some_and(|b| ORDER_FREE_SINKS.contains(&b.ty.as_str()))
        })
        .collect();

    // Statement-level sanitizers: `names.sort();` between a slot's
    // definition and a later use cleans the slot at that use. Recorded as
    // `(slot name, sanitizer token, kinds cleared)`; only the direct
    // `slot.sanitizer(..)` receiver form counts.
    let mut stmt_sans: Vec<(String, usize, TaintSet)> = Vec::new();
    for k in body_open + 1..body_close.min(toks.len()) {
        let Some(name) = ident_at(toks, k) else { continue };
        if op_at(toks, k.wrapping_sub(1), ".") || !op_at(toks, k + 1, ".") {
            continue;
        }
        if !slots.iter().any(|s| s.name == name) {
            continue;
        }
        if let Some((kind, _)) = sanitizer_at(toks, syn, k + 2) {
            stmt_sans.push((name.to_string(), k + 2, kind));
        }
    }

    // Taint of an expression token range: direct sources + referenced
    // slot taint + callee may-return taint, minus sanitizers in range.
    let stmt_sans = &stmt_sans;
    let expr_taint = |range: (usize, usize),
                      slots: &[Slot],
                      live: Option<&dyn Fn(&str) -> bool>|
     -> (TaintSet, Option<TraceStep>) {
        let (start, end) = range;
        let mut set: TaintSet = 0;
        let mut cleared: TaintSet = 0;
        let mut origin: Option<TraceStep> = None;
        for k in start..end.min(toks.len()) {
            if test_mask.get(k).copied().unwrap_or(false)
                || attr_mask.get(k).copied().unwrap_or(false)
            {
                continue;
            }
            if let Some((kind, desc)) = source_at(toks, syn, k, &lexed.addr_fmt_lines) {
                set |= kind;
                if origin.is_none() {
                    origin = Some(TraceStep {
                        path: path.to_string(),
                        line: line_of(toks, k),
                        kind: TraceKind::Source,
                        note: desc,
                    });
                }
            }
            if let Some((kind, _)) = sanitizer_at(toks, syn, k) {
                cleared |= kind;
            }
            if let Some(name) = ident_at(toks, k) {
                // Another binding referenced by value (not a field/method
                // name after `.`).
                if !op_at(toks, k.wrapping_sub(1), ".") {
                    if let Some(s) =
                        slots.iter().find(|s| s.name == name && s.tok != k && s.taint != 0)
                    {
                        let mut carried = s.taint;
                        for (sn, stok, kinds) in stmt_sans.iter() {
                            if sn == &s.name && *stok > s.tok && *stok < k {
                                carried &= !kinds;
                            }
                        }
                        if carried != 0 && live.is_none_or(|alive| alive(&s.name)) {
                            set |= carried;
                            if origin.is_none() {
                                origin = s.origin.clone().or(Some(TraceStep {
                                    path: path.to_string(),
                                    line: line_of(toks, s.tok),
                                    kind: TraceKind::Propagation,
                                    note: format!("via binding `{}`", s.name),
                                }));
                            }
                        }
                    }
                }
                if let Some(callee) = call_at(toks, syn, k) {
                    let ret = index.returns(callee);
                    if ret != 0 {
                        set |= ret;
                        if origin.is_none() {
                            origin = Some(TraceStep {
                                path: path.to_string(),
                                line: line_of(toks, k),
                                kind: TraceKind::Propagation,
                                note: format!("returned by `{callee}()`"),
                            });
                        }
                    }
                }
            }
        }
        (set & !cleared, origin)
    };

    // Local fixed point over binding taints (loops can feed a binding
    // back into itself; the join is monotone so this converges).
    loop {
        let mut changed = false;
        for idx in 0..slots.len() {
            let Some(expr) = slots.get(idx).map(|s| s.expr) else { continue };
            let (mut set, origin) = expr_taint(expr, &slots, None);
            if annotated.get(idx).copied().unwrap_or(false) {
                set &= !HASH_ORDER;
            }
            let Some(slot) = slots.get_mut(idx) else { continue };
            if set != slot.taint {
                slot.taint = set;
                slot.origin = origin;
                changed = true;
            } else if slot.origin.is_none() {
                slot.origin = origin;
            }
        }
        if !changed {
            break;
        }
    }

    // Reaching definitions over the CFG: bit k ⇔ slot k's definition has
    // executed. No kills — taint is a may-analysis.
    let cfg = build_cfg(toks, syn, body_open);
    let reach: Option<(Vec<u64>, &crate::flow::Cfg)> = cfg.as_ref().map(|cfg| {
        let transfers: Vec<(u64, u64)> = cfg
            .nodes
            .iter()
            .map(|n| {
                let mut gen: u64 = 0;
                for (k, s) in slots.iter().enumerate() {
                    if s.tok >= n.span.0 && s.tok < n.span.1 {
                        gen |= 1 << k;
                    }
                }
                (u64::MAX, gen)
            })
            .collect();
        (dataflow_in(cfg, &transfers), cfg)
    });
    let slot_live_at = |tok: usize, name: &str| -> bool {
        let Some((ins, cfg)) = &reach else { return true };
        let Some(k) = slots.iter().position(|s| s.name == name) else { return true };
        // Smallest node span containing the sink token.
        let node = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.span.0 <= tok && tok < n.span.1)
            .min_by_key(|(_, n)| n.span.1 - n.span.0);
        let def_tok = slots.get(k).map_or(0, |s| s.tok);
        match node {
            Some((id, n)) => {
                ins.get(id).copied().unwrap_or(0) & (1 << k) != 0
                    || (def_tok >= n.span.0 && def_tok < tok)
            }
            None => true, // outside any node (fn signature) — be safe
        }
    };

    // Check every sink in the body.
    for i in body_open + 1..body_close.min(toks.len()) {
        if test_mask.get(i).copied().unwrap_or(false) || attr_mask.get(i).copied().unwrap_or(false)
        {
            continue;
        }
        let site = sink_at(toks, syn, i).or_else(|| {
            // Interprocedural: an argument handed to a sink-reaching fn.
            call_at(toks, syn, i).filter(|c| index.sink_reaching(c)).and_then(|c| {
                let (open, close) = group_bounds(syn, syn.group_at_opener(i + 1)?)?;
                Some((open, close, format!("call to sink-reaching `{c}()`")))
            })
        });
        let Some((open, close, desc)) = site else { continue };
        let live = |name: &str| slot_live_at(open, name);
        let (set, origin) = expr_taint((open + 1, close), &slots, Some(&live));
        if set == 0 {
            continue;
        }
        let line = line_of(toks, i);
        let mut trace = Vec::new();
        if let Some(o) = origin {
            trace.push(o);
        }
        trace.push(TraceStep {
            path: path.to_string(),
            line,
            kind: TraceKind::SanitizerMiss,
            note: format!("not cleared by {}", expected_sanitizer(set)),
        });
        trace.push(TraceStep {
            path: path.to_string(),
            line,
            kind: TraceKind::Sink,
            note: desc.clone(),
        });
        emit(
            RuleKind::TaintDeterminism,
            line,
            format!(
                "nondeterministic value ({}) flows into {desc} without a sanitizer; \
                 outputs must be reproducible across runs",
                kind_names(set),
            ),
            trace,
        );
    }
}

// ----- certification ----------------------------------------------------

/// Per-entry-point certification facts.
#[derive(Debug, Default, Clone)]
pub struct EntryReport {
    /// The entry fn exists in the workspace.
    pub present: bool,
    /// Fns reachable over *any* call edge (isolated or not).
    pub reachable_fns: usize,
    /// `taint-determinism` findings inside the reachable set.
    pub tainted_sink_findings: usize,
    /// Panic sites in the reachable set that sit behind an isolation
    /// boundary (locally wrapped, or only reachable through one).
    pub panic_sites_isolated: usize,
    /// Panic sites reachable without ever crossing a boundary.
    pub panic_sites_unisolated: usize,
}

impl EntryReport {
    /// Both certification clauses hold for this entry.
    pub fn clean(&self) -> bool {
        self.present && self.tainted_sink_findings == 0 && self.panic_sites_unisolated == 0
    }
}

/// The machine-readable certificate `--certify` emits.
#[derive(Debug, Default)]
pub struct Certificate {
    /// Entry name → report, in `ENTRY_POINTS` order (BTreeMap for stable
    /// serialization).
    pub entries: BTreeMap<String, EntryReport>,
    /// Workspace-wide `taint-determinism` finding count.
    pub taint_findings: usize,
    /// Workspace-wide `unisolated-panic` finding count.
    pub panic_findings: usize,
    /// All entries present and clean.
    pub certified: bool,
}

/// Evaluate the certificate against a finalized index, the call graph it
/// was finalized over, and the workspace findings (post allow-filtering).
pub fn certify(
    index: &TaintIndex,
    calls: &CallGraph,
    findings: &[crate::rules::Finding],
) -> Certificate {
    let taint_findings = findings.iter().filter(|f| f.rule == RuleKind::TaintDeterminism).count();
    let panic_findings = findings.iter().filter(|f| f.rule == RuleKind::UnisolatedPanic).count();
    let mut entries = BTreeMap::new();

    for entry in ENTRY_POINTS {
        let mut report = EntryReport::default();
        if index.fns.contains_key(*entry) {
            report.present = true;
            // Reachability over all edges (for determinism + isolated
            // counts)…
            let all = bfs(&index.fns, calls, entry, false);
            // …and over unisolated edges only.
            let un = bfs(&index.fns, calls, entry, true);
            report.reachable_fns = all.len();
            for name in &all {
                let Some(node) = index.fns.get(name) else { continue };
                report.panic_sites_isolated += node.isolated_panics;
                if un.contains(name) {
                    report.panic_sites_unisolated += node.panics.len();
                } else {
                    report.panic_sites_isolated += node.panics.len();
                }
                report.tainted_sink_findings += findings
                    .iter()
                    .filter(|f| {
                        f.rule == RuleKind::TaintDeterminism
                            && node
                                .spans
                                .iter()
                                .any(|(p, lo, hi)| *p == f.path && f.line >= *lo && f.line <= *hi)
                    })
                    .count();
            }
        }
        entries.insert(entry.to_string(), report);
    }
    let certified = entries.values().all(EntryReport::clean);
    Certificate { entries, taint_findings, panic_findings, certified }
}

/// Deterministic BFS over the call graph from `entry` through the fns the
/// index knows; `unisolated_only` restricts traversal to edges outside
/// isolation spans.
fn bfs(
    fns: &BTreeMap<String, FnNode>,
    calls: &CallGraph,
    entry: &str,
    unisolated_only: bool,
) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(entry.to_string());
    while let Some(name) = queue.pop_front() {
        if !seen.insert(name.clone()) {
            continue;
        }
        for (callee, edge) in calls.callees(&name) {
            if (edge.unisolated || !unisolated_only)
                && !seen.contains(callee)
                && fns.contains_key(callee)
            {
                queue.push_back(callee.to_string());
            }
        }
    }
    seen
}

impl Certificate {
    /// Render as deterministic JSON (sorted keys, no timestamps) — the
    /// file CI diffs.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"sherlock-lint-certificate/v1\",\n");
        out.push_str(&format!("  \"certified\": {},\n", self.certified));
        out.push_str("  \"rules\": [\"taint-determinism\", \"unisolated-panic\"],\n");
        out.push_str(&format!(
            "  \"workspace\": {{\"taint_determinism_findings\": {}, \
             \"unisolated_panic_findings\": {}}},\n",
            self.taint_findings, self.panic_findings
        ));
        out.push_str("  \"entry_points\": {\n");
        let n = self.entries.len();
        for (i, (name, r)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"present\": {}, \"determinism_clean\": {}, \
                 \"reachable_fns\": {}, \"tainted_sink_findings\": {}, \
                 \"panic_sites_isolated\": {}, \"panic_sites_unisolated\": {}}}{}\n",
                name,
                r.present,
                r.present && r.tainted_sink_findings == 0,
                r.reachable_fns,
                r.tainted_sink_findings,
                r.panic_sites_isolated,
                r.panic_sites_unisolated,
                if i + 1 < n { "," } else { "" },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::structure_masks;

    fn setup(src: &str) -> (LexOutput, FileSyntax, Vec<bool>, Vec<bool>) {
        let lexed = lex(src);
        let syn = FileSyntax::analyze(&lexed.tokens);
        let (attr_mask, test_mask) = structure_masks(&lexed.tokens);
        (lexed, syn, test_mask, attr_mask)
    }

    fn findings_of(src: &str) -> Vec<(RuleKind, u32, String)> {
        let (lexed, syn, test_mask, attr_mask) = setup(src);
        let calls = CallGraph::from_file(&lexed.tokens, &syn, &test_mask, &attr_mask);
        let index = TaintIndex::from_file(
            "crates/core/src/x.rs",
            &lexed,
            &syn,
            &test_mask,
            &attr_mask,
            &calls,
        );
        let mut got = Vec::new();
        scan_taint(
            "crates/core/src/x.rs",
            &lexed,
            &syn,
            FileClass::Lib,
            &test_mask,
            &attr_mask,
            &[RuleKind::TaintDeterminism, RuleKind::UnisolatedPanic],
            &index,
            &mut |rule, line, msg, _trace| got.push((rule, line, msg)),
        );
        got
    }

    #[test]
    fn hash_iteration_into_sink_fires() {
        let got = findings_of(
            "fn build(map: &HashMap<String, f64>) -> Explanation {\n\
             let names: Vec<String> = map.keys().cloned().collect();\n\
             Explanation { causes: names }\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, RuleKind::TaintDeterminism);
        assert_eq!(got[0].1, 3);
    }

    #[test]
    fn sorted_hash_iteration_is_clean() {
        let got = findings_of(
            "fn build(map: &HashMap<String, f64>) -> Explanation {\n\
             let mut names: Vec<String> = map.keys().cloned().collect();\n\
             names.sort();\n\
             Explanation { causes: names }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn closure_sanitizer_is_honored() {
        // The satellite regression: a comparator inside a closure still
        // counts as the sanitizing sort.
        let got = findings_of(
            "fn build(map: &HashMap<String, f64>) -> Explanation {\n\
             let scores: Vec<f64> = map.values().cloned().collect();\n\
             let top = scores.iter().cloned().fold(0.0f64, f64::max);\n\
             let mut names: Vec<String> = map.keys().cloned().collect();\n\
             names.sort_by(|a, b| a.total_cmp(b));\n\
             Explanation { causes: names, score: top }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn clock_now_without_deadline_hint_fires() {
        let got = findings_of(
            "fn stamp() -> Response {\n\
             let when = SystemTime::now();\n\
             Response::Stats { when }\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, RuleKind::TaintDeterminism);
    }

    #[test]
    fn deadline_arithmetic_is_exempt() {
        let got = findings_of(
            "fn arm(&self) -> Response {\n\
             let deadline = Instant::now() + self.budget;\n\
             let ok = check(deadline);\n\
             Response::Ready { ok }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn callee_summary_carries_taint_across_fns() {
        let got = findings_of(
            "fn pick(map: &HashMap<u32, f64>) -> Vec<u32> {\n\
             map.keys().cloned().collect()\n\
             }\n\
             fn publish(map: &HashMap<u32, f64>) -> Explanation {\n\
             let ks = pick(map);\n\
             Explanation { causes: ks }\n\
             }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].1, 6);
    }

    #[test]
    fn sanitizing_callee_clears_summary() {
        let got = findings_of(
            "fn pick(map: &HashMap<u32, f64>) -> Vec<u32> {\n\
             let mut ks: Vec<u32> = map.keys().cloned().collect();\n\
             ks.sort_unstable();\n\
             ks\n\
             }\n\
             fn publish(map: &HashMap<u32, f64>) -> Explanation {\n\
             let ks = pick(map);\n\
             Explanation { causes: ks }\n\
             }\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn unisolated_panic_reachable_from_entry() {
        let got = findings_of(
            "fn worker_loop(&self) {\n\
             step();\n\
             }\n\
             fn step() {\n\
             helper().unwrap();\n\
             }\n",
        );
        let panics: Vec<_> =
            got.iter().filter(|(r, _, _)| *r == RuleKind::UnisolatedPanic).collect();
        assert_eq!(panics.len(), 1, "{got:?}");
        assert_eq!(panics[0].1, 5);
    }

    #[test]
    fn isolated_panic_is_exempt() {
        let got = findings_of(
            "fn worker_loop(&self) {\n\
             let out = try_par_map_indexed(policy, \"stage\", &items, |_, it| step(it));\n\
             drop(out);\n\
             }\n\
             fn step(it: &Item) -> Result<(), E> {\n\
             it.value().unwrap();\n\
             Ok(())\n\
             }\n",
        );
        let panics: Vec<_> =
            got.iter().filter(|(r, _, _)| *r == RuleKind::UnisolatedPanic).collect();
        assert!(panics.is_empty(), "{got:?}");
    }

    #[test]
    fn certificate_reports_unisolated_sites() {
        let (lexed, syn, test_mask, attr_mask) = setup(
            "fn explain_batch(&self) {\n\
             inner();\n\
             }\n\
             fn inner() {\n\
             x.unwrap();\n\
             }\n",
        );
        let calls = CallGraph::from_file(&lexed.tokens, &syn, &test_mask, &attr_mask);
        let index = TaintIndex::from_file(
            "crates/core/src/d.rs",
            &lexed,
            &syn,
            &test_mask,
            &attr_mask,
            &calls,
        );
        let cert = certify(&index, &calls, &[]);
        let report = &cert.entries["explain_batch"];
        assert!(report.present);
        assert_eq!(report.panic_sites_unisolated, 1);
        assert!(!cert.certified);
        // JSON is stable and parseable-ish.
        let json = cert.render_json();
        assert!(json.contains("\"certified\": false"), "{json}");
        assert_eq!(json, certify(&index, &calls, &[]).render_json());
    }

    #[test]
    fn qualified_calls_resolve_without_alias_mangling() {
        // `use x::step as other;` must not divert the qualified call
        // `stages::step()` through the alias map.
        let got = findings_of(
            "use crate::other as step;\n\
             fn worker_loop(&self) {\n\
             stages::step();\n\
             }\n\
             fn step() {\n\
             x.unwrap();\n\
             }\n",
        );
        let panics: Vec<_> =
            got.iter().filter(|(r, _, _)| *r == RuleKind::UnisolatedPanic).collect();
        assert_eq!(panics.len(), 1, "{got:?}");
    }
}
