//! Deterministic scoped-thread execution layer.
//!
//! DBSherlock's hot loops are embarrassingly parallel: Algorithm 1 builds a
//! partition space and extracts a predicate *per attribute* independently
//! (§§3–4), cause ranking scores confidence *per causal model* independently
//! (§6, Eq. 3), and anomaly detection computes potential power and k-distances
//! per attribute / per point (§7). This module provides the one sanctioned way
//! to fan that work out: [`ExecPolicy`] selects a thread budget and
//! [`try_par_map_indexed`] maps a function over a slice on scoped threads,
//! collecting results *by index* so output order — and therefore every
//! downstream sort, threshold, and tie-break — is byte-identical to the serial
//! run. Determinism is the correctness bar, enforced by the determinism test
//! suite.
//!
//! Raw `std::thread::spawn` / `std::thread::scope` elsewhere in the workspace
//! is banned by the `disallowed-methods` list in the root `clippy.toml`;
//! route new parallelism through here.
//!
//! One scheduler, [`try_par_map_indexed`], runs every fan-out: a panic in
//! any task is caught at the slot boundary and surfaced as that slot's
//! [`SherlockError::TaskPanicked`], so one poisoned input can never take
//! down the rest of a batch.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::SherlockError;

/// How many worker threads a pipeline stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Run on the calling thread only. Guaranteed allocation-free of any
    /// thread machinery; the reference against which parallel output is
    /// checked bit-for-bit.
    Serial,
    /// Use exactly `n` worker threads (clamped to at least 1).
    Threads(usize),
    /// Use one thread per available CPU, as reported by
    /// [`std::thread::available_parallelism`]; falls back to serial when the
    /// parallelism cannot be determined.
    #[default]
    Auto,
}

impl ExecPolicy {
    /// Resolve the policy to a concrete thread count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }
}

impl std::fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::Serial => write!(f, "serial"),
            ExecPolicy::Threads(n) => write!(f, "threads({n})"),
            ExecPolicy::Auto => write!(f, "auto"),
        }
    }
}

/// Render a caught panic payload as a human-readable message.
///
/// `panic!("...")` carries a `&'static str` or (with formatting) a `String`;
/// anything else gets a placeholder rather than being dropped silently.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map fallible `f` over `items`, possibly in parallel, with per-slot panic
/// isolation; the one scheduler of the workspace.
///
/// Work is dealt round-robin: thread `t` of `T` handles indices
/// `t, t+T, t+2T, …`, each producing `(index, result)` pairs that are merged
/// and sorted by index afterwards. Because `f` receives the index and the
/// item — never any cross-item state — the output is identical under any
/// [`ExecPolicy`], which the determinism suite asserts. `Serial` runs a
/// plain in-order loop on the calling thread.
///
/// Each task runs under [`std::panic::catch_unwind`]: a panic becomes that
/// slot's [`SherlockError::TaskPanicked`] (tagged with `stage`) instead of
/// aborting the whole map. Every path returns exactly one result per item.
pub fn try_par_map_indexed<T, U, F>(
    policy: ExecPolicy,
    stage: &'static str,
    items: &[T],
    f: F,
) -> Vec<Result<U, SherlockError>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U, SherlockError> + Sync,
{
    let panicked = |message: String| SherlockError::TaskPanicked { stage, message };
    // `f` only sees `&T` and shared captures; if a panic tears its internal
    // state mid-task, the whole slot is discarded as `TaskPanicked`, so no
    // broken invariant is ever observed afterwards.
    let guarded = |i: usize, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(i, item)))
            .unwrap_or_else(|payload| Err(panicked(panic_message(payload.as_ref()))))
    };
    let threads = policy.resolve().min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, item)| guarded(i, item)).collect();
    }

    let mut indexed: Vec<(usize, Result<U, SherlockError>)> = Vec::with_capacity(items.len());
    #[allow(
        clippy::disallowed_methods,
        reason = "the execution layer is the one sanctioned spawn site"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let guarded = &guarded;
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(tid)
                        .step_by(threads)
                        .map(|(i, item)| (i, guarded(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (tid, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(chunk) => indexed.extend(chunk),
                // `guarded` catches every task panic, so a worker can only
                // die between tasks; each of its slots then reports that.
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    indexed.extend(
                        (tid..items.len())
                            .step_by(threads)
                            .map(|i| (i, Err(panicked(message.clone())))),
                    );
                }
            }
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_floors_at_one() {
        assert_eq!(ExecPolicy::Serial.resolve(), 1);
        assert_eq!(ExecPolicy::Threads(0).resolve(), 1);
        assert_eq!(ExecPolicy::Threads(7).resolve(), 7);
        assert!(ExecPolicy::Auto.resolve() >= 1);
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(ExecPolicy::default(), ExecPolicy::Auto);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..101).collect();
        let square = |i: usize, x: &u64| Ok((i as u64) * 1000 + x * x);
        let serial = try_par_map_indexed(ExecPolicy::Serial, "t", &items, square);
        for threads in [2, 3, 4, 16, 200] {
            let parallel = try_par_map_indexed(ExecPolicy::Threads(threads), "t", &items, square);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out = try_par_map_indexed(ExecPolicy::Threads(4), "t", &[] as &[u8], |_, x| Ok(*x));
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1, 2, 3];
        let out = try_par_map_indexed(ExecPolicy::Threads(64), "t", &items, |_, x| Ok(x * 2));
        assert_eq!(out, vec![Ok(2), Ok(4), Ok(6)]);
    }

    use crate::chaos::quiet_panics;

    #[test]
    fn try_map_matches_infallible_map_on_clean_input() {
        let items: Vec<u64> = (0..57).collect();
        let serial =
            try_par_map_indexed(ExecPolicy::Serial, "t", &items, |i, x| Ok((i as u64) * 100 + x));
        for threads in [2, 5, 64] {
            let parallel =
                try_par_map_indexed(ExecPolicy::Threads(threads), "t", &items, |i, x| {
                    Ok((i as u64) * 100 + x)
                });
            assert_eq!(serial, parallel, "threads={threads}");
        }
        let plain: Vec<u64> = items.iter().enumerate().map(|(i, x)| (i as u64) * 100 + x).collect();
        let unwrapped: Vec<u64> = serial.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(unwrapped, plain);
    }

    #[test]
    fn panics_are_isolated_per_slot() {
        let items: Vec<u32> = (0..20).collect();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(4)] {
            let results = quiet_panics(|| {
                try_par_map_indexed(policy, "square", &items, |_, &x| {
                    if x % 7 == 3 {
                        panic!("poison at {x}");
                    }
                    Ok(x * x)
                })
            });
            for (i, result) in results.iter().enumerate() {
                if i % 7 == 3 {
                    match result {
                        Err(SherlockError::TaskPanicked { stage, message }) => {
                            assert_eq!(*stage, "square");
                            assert_eq!(message, &format!("poison at {i}"));
                        }
                        other => panic!("slot {i}: expected TaskPanicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(result.as_ref().unwrap(), &((i * i) as u32), "{policy}");
                }
            }
        }
    }

    #[test]
    fn errors_pass_through_untouched() {
        let items = [1u8, 2, 3];
        let results = try_par_map_indexed(ExecPolicy::Threads(2), "s", &items, |_, &x| {
            if x == 2 {
                Err(SherlockError::EmptyInput("two"))
            } else {
                Ok(x)
            }
        });
        assert!(matches!(results[1], Err(SherlockError::EmptyInput("two"))));
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
    }

    #[test]
    fn non_string_panic_payloads_get_a_placeholder() {
        let results = quiet_panics(|| {
            try_par_map_indexed(
                ExecPolicy::Serial,
                "s",
                &[0u8],
                |_, _| -> Result<u8, SherlockError> { std::panic::panic_any(42_i32) },
            )
        });
        match &results[0] {
            Err(SherlockError::TaskPanicked { message, .. }) => {
                assert_eq!(message, "non-string panic payload");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(ExecPolicy::Serial.to_string(), "serial");
        assert_eq!(ExecPolicy::Threads(4).to_string(), "threads(4)");
        assert_eq!(ExecPolicy::Auto.to_string(), "auto");
    }
}
