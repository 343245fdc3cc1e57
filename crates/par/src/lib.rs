//! `fidelity-par` — the parallel loop of fault-injection campaigns.
//!
//! The build environment is offline (no crates.io), so this crate builds
//! the one scheduling primitive the campaign runner needs on `std` alone
//! and without `unsafe`:
//!
//! * **One claim counter** — [`run_with`] spawns scoped workers that take
//!   task indices from one shared `AtomicUsize` until the count runs out.
//!   Every worker claims in ascending index order, so the lowest unfinished
//!   task is always close to the claim frontier and consumers that commit
//!   results in index order (the campaign's ordered checkpoint buffer) keep
//!   moving. A long task never idles the others: they keep claiming.
//! * **Exactly-once execution** — each index is handed out once by the
//!   counter, whatever the worker count, the schedule or a panic in another
//!   task.
//! * **Panic containment** — a panicking task is caught and the first
//!   payload re-raised only after every worker has joined, so one poisoned
//!   cell cannot discard the rest of a campaign wave.
//! * **No leaked threads** — workers are scoped (`std::thread::scope`), so
//!   every worker has exited when [`run_with`] returns.
//!
//! Determinism: the loop makes no promise about which worker runs which
//! task. Callers that need bit-reproducible results (the campaign runner)
//! make each task a pure function of its index — per-task derived RNG
//! seeds, commutative shared accounting — which is exactly the contract
//! `fidelity-core` follows. Cancellation is the caller's: a task that sees
//! its cancel flag returns at once ([`CancelToken`]).

#![warn(missing_docs)]

mod cancel;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

pub use cancel::{sleep_unless, CancelToken};

/// Runs `f(state, 0), f(state, 1), …, f(state, tasks - 1)`, each exactly
/// once, on `workers.clamp(1, tasks)` scoped threads, and blocks until all
/// have finished. Zero tasks spawn nothing.
///
/// Every worker builds its state with `init(worker_index)` before its first
/// task and passes `&mut` to it to each task it claims. Worker state exists
/// for allocation reuse only (e.g. one tensor workspace per campaign
/// worker): which tasks share a state value depends on scheduling, so it
/// must never influence task results.
///
/// # Panics
///
/// Re-raises the first task panic (in worker order) after every worker has
/// joined, so every other task has run by then. A panicking task may leave
/// its worker's state partially updated; the worker goes on using it, which
/// is sound only under the results-independence rule above. A panic in
/// `init` propagates once the scope has joined.
pub fn run_with<S, I, F>(workers: usize, tasks: usize, init: I, f: F)
where
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    let payload = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.clamp(1, tasks))
            .map(|w| {
                let (next, init, f) = (&next, &init, &f);
                s.spawn(move || {
                    let mut state = init(w);
                    let mut first = None;
                    loop {
                        // One read-modify-write on one atomic hands each
                        // index out once; task results are published by the
                        // scope's join, so no stronger ordering is needed.
                        let task = next.fetch_add(1, Ordering::Relaxed);
                        if task >= tasks {
                            return first;
                        }
                        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(&mut state, task))) {
                            first.get_or_insert(p);
                        }
                    }
                })
            })
            .collect();
        // `or` takes its argument by value, so every handle is joined.
        handles.into_iter().fold(None, |first, h| {
            first.or(h.join().unwrap_or_else(|p| resume_unwind(p)))
        })
    });
    if let Some(p) = payload {
        resume_unwind(p);
    }
}
