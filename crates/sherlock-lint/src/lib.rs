#![warn(missing_docs)]
// The analyzer holds itself to the workspace's panic policy: clippy denies
// every panic lint below in library code (tests may panic freely).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::string_slice,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! `sherlock-lint` — a zero-dependency static analyzer for domain invariants
//! the ordinary toolchain cannot express.
//!
//! DBSherlock's diagnosis quality rests on numerically delicate code:
//! predicate partitioning, the Eq. 3 confidence score, DBSCAN, and the
//! mutual-information filter. A single NaN-unsafe comparison, panicking
//! index, or unseeded RNG silently corrupts diagnoses or breaks bench
//! reproducibility. `clippy` covers the generic half of that surface: the
//! crate roots deny its panic lints in library code (`unwrap_used`,
//! `expect_used`, `indexing_slicing`, `string_slice`, `panic`,
//! `unreachable`, `todo`, `unimplemented`), and the root `clippy.toml`
//! bans raw thread spawns, panic-hook swaps and entropy-seeded RNGs
//! through `disallowed-methods`. Accepted sites carry
//! `#[allow(clippy::…, reason = "…")]` on their statement or function.
//! This crate covers the domain half (see [`rules::RuleKind`]) in four
//! layers.
//!
//! **Token rules** pattern-match the lexer's stream directly:
//!
//! * `nan-unsafe` — float `==` / `!=`, `partial_cmp(..).unwrap()`, and bare
//!   `partial_cmp` inside sort comparators (use `f64::total_cmp`).
//! * `deny-header` — every crate root must carry the
//!   `#![cfg_attr(not(test), deny(clippy::unwrap_used, …))]` header naming
//!   every lint of [`rules::PANIC_POLICY`], so clippy enforces the panic
//!   policy at compile time.
//!
//! **Semantic rules** run on the [`syntax`] layer — a delimiter tree with
//! import resolution and a per-scope binding table — so they can reason
//! about *what a name is* rather than what it looks like ([`semantic`]):
//!
//! * `panic-path` — `[]`-indexing a `HashMap`/`BTreeMap` in non-test
//!   library code (panics on a missing key; clippy's `indexing_slicing`
//!   does not cover map `Index`).
//! * `nondeterministic-iteration` — iterating a `HashMap`/`HashSet` into
//!   ordered output without a sort (threatens the bit-identical parallel
//!   diagnosis guarantee).
//! * `budget-blind-loop` — a loop in a budget-carrying pipeline stage that
//!   does real work but never polls the `ArmedBudget`/`CancelFlag`.
//! * `unsynced-store-write` — filesystem mutation (`fs::write`, `rename`,
//!   `File::create`, writable `OpenOptions`) outside `store.rs`.
//! * `unbounded-channel` — a `Vec`/`VecDeque` growing inside a loop in
//!   daemon (`crates/sherlockd`) library code with no capacity check,
//!   shed, or drain in reach (client-fed buffers must stay bounded).
//!
//! **Flow rules** run on the [`flow`] layer — per-function control-flow
//! graphs over the delimiter tree, a worklist gen/kill dataflow engine for
//! guard liveness, and a workspace-wide call graph resolved through the
//! import tables — so they can reason about *order and reach*, not just
//! names in a scope:
//!
//! * `lock-order-inversion` — two mutexes (think `tenants`/`queue`)
//!   acquired in opposite orders on different call paths, including one
//!   interprocedural step via call-graph summaries.
//! * `guard-across-blocking` — a live `MutexGuard` spanning a blocking
//!   call (`join`/`accept`/`read*`/`write_all`/`recv`/`sleep`); Condvar
//!   waits are exempt because they release the guard atomically.
//! * `swallowed-error` — `let _ =` / `.ok()` on fallible store/net/
//!   protocol writes outside shutdown paths.
//! * (upgrade) `budget-blind-loop` now accepts a loop whose *callees*
//!   poll the budget — the call-graph reachability fixpoint replaced the
//!   old file-wide mention heuristic.
//!
//! **Taint rules** run on the [`taint`] layer — an interprocedural
//! source/sanitizer/sink analysis with monotone fixed-point function
//! summaries over the same call graph, plus a panic-reachability pass —
//! so they can *certify* properties rather than spot-check them:
//!
//! * `taint-determinism` — a nondeterministic value (entropy RNG, wall
//!   clock, hash iteration order, thread id, pointer address) flows into
//!   a serialized output (`Explanation`/`Response` construction,
//!   ModelStore records) without a sanitizer (sort, order-free reduction,
//!   seed-derived stream). Findings carry a source→sanitizer-miss→sink
//!   trace, emitted as a SARIF `codeFlow`.
//! * `unisolated-panic` — a panic site reachable from a certified entry
//!   point (`explain_batch`, `validate_explanation`, the sherlockd
//!   ingest loop) with no `catch_unwind`/`try_par_map_indexed` boundary
//!   on the path. The `--certify` CLI mode distills both rules into
//!   `tools/lint-certificate.json`, which CI diffs.
//!
//! The build is hermetic, so everything here is hand-rolled on `std`: a
//! token-level Rust lexer ([`lexer`]) instead of `syn`, and a tiny JSON
//! emitter instead of `serde`. There is no suppression baseline: each
//! finding is fixed or acknowledged in place.
//!
//! Per-line escapes: end a line (or the line above) with
//! `// sherlock-lint: allow(<rule>[, <rule>])` to acknowledge a finding in
//! place, with the justification in the same comment.

pub mod flow;
pub mod lexer;
pub mod rules;
pub mod semantic;
pub mod syntax;
pub mod taint;
pub mod workspace;

pub use rules::{FileClass, Finding, RuleKind, TraceKind, TraceStep};
pub use taint::{certify, Certificate, TaintIndex};
pub use workspace::{scan_workspace, scan_workspace_with_taint, ScanConfig};
