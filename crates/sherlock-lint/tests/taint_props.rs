//! Property-based tests for the taint layer.
//!
//! The taint lattice is a `u8` bitset whose join is `|` — monotone,
//! idempotent, commutative — and the interprocedural summary is the
//! least fixed point of a monotone transfer function over that lattice
//! (`returns(f) = (sources(f) ∨ ⋁ returns(callee)) ∧ ¬sanitized(f)`).
//! These tests check the algebraic laws directly, then decode random
//! byte tapes into little call graphs with sources and sanitizers
//! sprinkled in and check the real index against an independently
//! computed reference model: the fixed point must converge to the model,
//! re-finalizing must be idempotent, and adding a source to one function
//! must never shrink any function's summary.

use proptest::prelude::*;
use sherlock_lint::calls::CallGraph;
use sherlock_lint::lexer::lex;
use sherlock_lint::syntax::FileSyntax;
use sherlock_lint::taint::{TaintIndex, TaintSet, ADDRESS, CLOCK, HASH_ORDER, RNG, THREAD_ID};

const TOP: TaintSet = RNG | CLOCK | HASH_ORDER | THREAD_ID | ADDRESS;
/// The untainted set, the join's identity.
const CLEAN: TaintSet = 0;

/// One generated function: which sources/sanitizers its body contains
/// and which sibling functions it calls.
#[derive(Debug, Clone)]
struct FnSpec {
    rng: bool,
    clock: bool,
    hash: bool,
    san_rng: bool,
    san_hash: bool,
    calls: Vec<usize>,
}

impl FnSpec {
    fn sources(&self) -> TaintSet {
        (if self.rng { RNG } else { 0 })
            | (if self.clock { CLOCK } else { 0 })
            | (if self.hash { HASH_ORDER } else { 0 })
    }

    fn sanitized(&self) -> TaintSet {
        (if self.san_rng { RNG } else { 0 }) | (if self.san_hash { HASH_ORDER } else { 0 })
    }
}

/// Recursive-descent tape decode, `flow_props.rs`-style: an exhausted
/// tape degrades to zero bytes, so every tape is a valid program.
fn next(tape: &[u8], pos: &mut usize) -> u8 {
    let b = tape.get(*pos).copied().unwrap_or(0);
    *pos += 1;
    b
}

fn decode_program(tape: &[u8]) -> Vec<FnSpec> {
    let mut pos = 0;
    let n = 1 + (next(tape, &mut pos) % 5) as usize;
    (0..n)
        .map(|_| {
            let flags = next(tape, &mut pos);
            let ncalls = (next(tape, &mut pos) % 3) as usize;
            let calls = (0..ncalls).map(|_| (next(tape, &mut pos) as usize) % n).collect();
            FnSpec {
                rng: flags & 1 != 0,
                clock: flags & 2 != 0,
                hash: flags & 4 != 0,
                san_rng: flags & 8 != 0,
                san_hash: flags & 16 != 0,
                calls,
            }
        })
        .collect()
}

/// Render the spec as the pseudo-Rust the real scanner sees. Statement
/// forms mirror the site-detection tables: `thread_rng()` is an entropy
/// source, a bare `SystemTime::now();` has no deadline hint in its
/// statement, `.keys()` on a `HashMap`-annotated binding is a hash-order
/// source, `seed_from_u64` / `.sort()` are the sanitizers.
fn render(specs: &[FnSpec]) -> String {
    let mut out = String::new();
    for (i, spec) in specs.iter().enumerate() {
        out.push_str(&format!("fn f{i}() {{ "));
        if spec.rng {
            out.push_str("thread_rng(); ");
        }
        if spec.clock {
            out.push_str("SystemTime::now(); ");
        }
        if spec.hash {
            out.push_str("let m: HashMap<u8, u8> = make(); m.keys(); ");
        }
        if spec.san_rng {
            out.push_str("seed_from_u64(9); ");
        }
        if spec.san_hash {
            out.push_str("keep.sort(); ");
        }
        for &c in &spec.calls {
            out.push_str(&format!("f{c}(); "));
        }
        out.push_str("} ");
    }
    out
}

fn graph_of(source: &str) -> CallGraph {
    let lexed = lex(source);
    let syn = FileSyntax::analyze(&lexed.tokens);
    let mask = vec![false; lexed.tokens.len()];
    CallGraph::from_file(&lexed.tokens, &syn, &mask, &mask)
}

fn index_of(source: &str) -> TaintIndex {
    let lexed = lex(source);
    let syn = FileSyntax::analyze(&lexed.tokens);
    let mask = vec![false; lexed.tokens.len()];
    TaintIndex::from_file("gen.rs", &lexed, &syn, &mask, &mask, &graph_of(source))
}

/// Independent fixed point over the spec (never looks at tokens).
fn reference_returns(specs: &[FnSpec]) -> Vec<TaintSet> {
    let mut ret: Vec<TaintSet> = specs.iter().map(|s| s.sources() & !s.sanitized()).collect();
    loop {
        let mut changed = false;
        for (i, s) in specs.iter().enumerate() {
            let mut set = s.sources();
            for &c in &s.calls {
                set |= ret.get(c).copied().unwrap_or(0);
            }
            set &= !s.sanitized();
            if set != ret[i] {
                ret[i] = set;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    ret
}

proptest! {
    /// The algebraic laws certification rests on: join is idempotent,
    /// commutative, associative, an upper bound of both operands, and
    /// has the empty set as identity — i.e. `(TaintSet, |)` is a
    /// bounded join-semilattice, so the fixed points below exist.
    #[test]
    fn join_is_a_semilattice(a in 0..=TOP, b in 0..=TOP, c in 0..=TOP) {
        prop_assert_eq!(a | a, a);
        prop_assert_eq!(a | b, b | a);
        prop_assert_eq!((a | b) | c, a | (b | c));
        prop_assert_eq!((a | b) & a, a); // a ⊑ a ∨ b
        prop_assert_eq!(a | CLEAN, a);
    }

    /// For any generated call graph — cycles, self-calls, dead fns — the
    /// scanner's fixed point converges to the reference model computed
    /// from the spec alone, stays under ⊤, and re-finalizing the index
    /// changes nothing.
    #[test]
    fn summary_fixpoint_matches_reference_model(
        tape in proptest::collection::vec(0u8..=255, 0..32)
    ) {
        let specs = decode_program(&tape);
        let source = render(&specs);
        let mut index = index_of(&source);
        let expected = reference_returns(&specs);
        for (i, want) in expected.iter().enumerate() {
            let got = index.returns(&format!("f{i}"));
            prop_assert_eq!(got, *want, "f{}: got {:#b} want {:#b} (source {:?})",
                i, got, want, &source);
            prop_assert_eq!(got & !TOP, 0);
        }
        index.finalize(&graph_of(&source));
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(index.returns(&format!("f{i}")), *want,
                "finalize() is not idempotent on f{} (source {:?})", i, &source);
        }
    }

    /// Monotonicity of the whole pipeline: forcing one extra source into
    /// `f0`'s body never shrinks *any* function's summary — the transfer
    /// function is monotone in sources, so the least fixed point can only
    /// grow.
    #[test]
    fn adding_a_source_never_shrinks_summaries(
        tape in proptest::collection::vec(0u8..=255, 0..32)
    ) {
        let specs = decode_program(&tape);
        let mut grown = specs.clone();
        grown[0].rng = true;
        let before = index_of(&render(&specs));
        let after = index_of(&render(&grown));
        for i in 0..specs.len() {
            let a = before.returns(&format!("f{i}"));
            let b = after.returns(&format!("f{i}"));
            prop_assert_eq!(a | b, b, "f{}: {:#b} ⋢ {:#b}", i, a, b);
        }
    }
}
