//! Offline loom-style deterministic interleaving model checker.
//!
//! Vendored shim: no external dependencies, no unsafe. Provides drop-in
//! `sync`/`thread` facades that select the real `std` types unless built
//! with `RUSTFLAGS=--cfg loom_model`, plus an always-available
//! [`model`](mod@model) namespace for tests that opt in via a cargo
//! feature instead of a global cfg flag.
//!
//! The checker runs a closure repeatedly, once per explored interleaving.
//! Model threads are real OS threads serialized by a turnstile scheduler
//! (`rt`): exactly one runs between scheduling points (every mutex,
//! condvar, atomic, spawn/join op), so every execution is a total order —
//! the model explores **sequential consistency**. Decision points (moments
//! with more than one runnable thread) identify an interleaving; the
//! driver enumerates them by depth-first backtracking, or samples them by
//! a seeded random walk for state spaces too big to exhaust.
//!
//! What is checked: assertion failures, real panics, and deadlocks in any
//! explored interleaving, with the decision trace reported on failure.
//! What is *not* checked: weak memory orderings (`Relaxed` vs `Acquire`
//! behave identically here — that discipline is checked statically by
//! `fidelity concheck`).
//!
//! ```
//! let report = loom::Builder::default().explore(|| {
//!     use loom::model::{sync, thread};
//!     let n = sync::Arc::new(sync::Mutex::new(0u32));
//!     let n2 = sync::Arc::clone(&n);
//!     let t = thread::spawn(move || {
//!         *n2.lock().unwrap() += 1;
//!     });
//!     *n.lock().unwrap() += 1;
//!     t.join().unwrap();
//!     assert_eq!(*n.lock().unwrap(), 2);
//! });
//! assert!(report.complete && report.failure.is_none());
//! ```

mod rt;
mod sync_model;
mod thread_model;

use std::sync::{Arc, PoisonError};

use rt::{Mode, ModelAbort, Rt};

/// Always-available model types, independent of the `--cfg loom_model`
/// facade switch. Protocol tests gated behind a cargo feature use these.
pub mod model {
    /// Model `std::sync` subset (`Mutex`, `Condvar`, atomics).
    pub mod sync {
        pub use crate::sync_model::atomic;
        pub use crate::sync_model::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
        pub use std::sync::Arc;
    }
    /// Model `std::thread` subset (`spawn`, `JoinHandle`, `yield_now`).
    pub mod thread {
        pub use crate::thread_model::{spawn, yield_now, JoinHandle};
    }
}

/// Drop-in `std::sync` facade: real types unless built with
/// `--cfg loom_model`.
#[cfg(not(loom_model))]
pub mod sync {
    pub use std::sync::atomic;
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};
}

/// Drop-in `std::sync` facade (model types; built with `--cfg loom_model`).
#[cfg(loom_model)]
pub mod sync {
    pub use crate::sync_model::atomic;
    pub use crate::sync_model::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use std::sync::Arc;
}

/// Drop-in `std::thread` facade: real types unless built with
/// `--cfg loom_model`.
#[cfg(not(loom_model))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

/// Drop-in `std::thread` facade (model types; built with `--cfg loom_model`).
#[cfg(loom_model)]
pub mod thread {
    pub use crate::thread_model::{spawn, yield_now, JoinHandle};
}

/// Drop-in `std::hint` facade; a spin-loop hint is a scheduling point
/// inside a model.
pub mod hint {
    /// Spin-loop hint: yields to the model scheduler when inside one.
    pub fn spin_loop() {
        if let Some((rt, tid)) = crate::rt_current() {
            rt.yield_point(tid);
        } else {
            std::hint::spin_loop();
        }
    }
}

pub(crate) use rt::current as rt_current;

/// Outcome of [`Builder::explore`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Interleavings (executions) actually run.
    pub executions: usize,
    /// How many of them hit the per-execution step bound and were cut short.
    pub truncated: usize,
    /// Whether the DFS exhausted the interleaving space (always `false` in
    /// random-walk mode and when `max_executions` stopped the search).
    pub complete: bool,
    /// First failure observed (assertion/panic/deadlock), with its decision
    /// trace; exploration stops at the first failure.
    pub failure: Option<String>,
}

/// Exploration budget and strategy for one model-checking run.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Per-execution scheduling-point bound; executions exceeding it are
    /// counted as `truncated`, not failures.
    pub max_steps: usize,
    /// DFS: stop after this many interleavings even if incomplete.
    /// Random-walk: exactly this many walks.
    pub max_executions: usize,
    /// `Some(seed)` switches from exhaustive DFS to a seeded random walk.
    pub seed: Option<u64>,
    /// CHESS-style preemption bound: schedules may contain at most this
    /// many context switches at points where the running thread was still
    /// runnable (switches at blocking points stay free). `None` explores
    /// the full space. With a bound, a `complete` report means the DFS
    /// exhausted every schedule *within the bound* — empirically, almost
    /// all concurrency bugs manifest within two preemptions, at a state
    /// space orders of magnitude smaller.
    pub preemption_bound: Option<usize>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            max_steps: 20_000,
            max_executions: 100_000,
            seed: None,
            preemption_bound: None,
        }
    }
}

/// Runs `f` as one model execution replaying `prefix`; returns the decision
/// trace, whether it was truncated, and any failure.
fn run_once(
    f: &Arc<dyn Fn() + Send + Sync>,
    prefix: Vec<usize>,
    max_steps: usize,
    mode: Mode,
    seed: u64,
    preemption_bound: Option<usize>,
) -> (Vec<usize>, Vec<usize>, bool, Option<String>) {
    let rt = Rt::new(prefix, max_steps, mode, seed, preemption_bound);
    let tid = rt.register_thread();
    let trt = Arc::clone(&rt);
    let body = Arc::clone(f);
    let root = std::thread::Builder::new()
        .name("loom-model-root".to_string())
        .spawn(move || {
            rt::set_current(Some((Arc::clone(&trt), tid)));
            trt.wait_first_schedule(tid);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body()));
            let failure = match outcome {
                Ok(()) => None,
                Err(payload) => {
                    if payload.downcast_ref::<ModelAbort>().is_some() {
                        None
                    } else if let Some(s) = payload.downcast_ref::<&str>() {
                        Some((*s).to_string())
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        Some(s.clone())
                    } else {
                        Some("model root panicked (non-string payload)".to_string())
                    }
                }
            };
            trt.thread_finished(tid, failure);
            rt::set_current(None);
        })
        .expect("spawn model root thread");
    rt.start();
    rt.wait_execution_done();
    let _ = root.join();
    loop {
        let handles: Vec<_> = {
            let mut h = rt.os_handles.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *h)
        };
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    let (choices, truncated, failure) = rt.take_outcome();
    let ranks = choices.iter().map(|c| c.rank).collect();
    let alts = choices.iter().map(|c| c.alternatives).collect();
    (ranks, alts, truncated, failure)
}

/// Increments a decision trace to the next DFS prefix, or `None` when the
/// space is exhausted: bump the deepest decision that still has an
/// untried alternative, discarding everything below it.
fn next_prefix(mut ranks: Vec<usize>, alts: &[usize]) -> Option<Vec<usize>> {
    while let Some(last) = ranks.last().copied() {
        let depth = ranks.len() - 1;
        if last + 1 < alts[depth] {
            ranks[depth] = last + 1;
            return Some(ranks);
        }
        ranks.pop();
    }
    None
}

impl Builder {
    /// Explores interleavings of `f` and returns the [`Report`] without
    /// panicking; use this for coverage stats and negative tests.
    pub fn explore<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut report = Report {
            executions: 0,
            truncated: 0,
            complete: false,
            failure: None,
        };
        match self.seed {
            Some(seed) => {
                for i in 0..self.max_executions {
                    report.executions += 1;
                    let walk_seed = seed
                        .wrapping_add(i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let (ranks, _alts, truncated, failure) = run_once(
                        &f,
                        Vec::new(),
                        self.max_steps,
                        Mode::Random,
                        walk_seed,
                        self.preemption_bound,
                    );
                    if truncated {
                        report.truncated += 1;
                    }
                    if let Some(msg) = failure {
                        report.failure = Some(format!(
                            "{msg}\n  decision trace (seed {walk_seed}): {ranks:?}"
                        ));
                        return report;
                    }
                }
            }
            None => {
                let mut prefix = Vec::new();
                loop {
                    report.executions += 1;
                    let (ranks, alts, truncated, failure) = run_once(
                        &f,
                        prefix,
                        self.max_steps,
                        Mode::Dfs,
                        0,
                        self.preemption_bound,
                    );
                    if truncated {
                        report.truncated += 1;
                    }
                    if let Some(msg) = failure {
                        report.failure = Some(format!("{msg}\n  decision trace: {ranks:?}"));
                        return report;
                    }
                    match next_prefix(ranks, &alts) {
                        Some(p) if report.executions < self.max_executions => prefix = p,
                        Some(_) => break,
                        None => {
                            report.complete = true;
                            break;
                        }
                    }
                }
            }
        }
        report
    }

    /// Explores interleavings of `f`, panicking with the decision trace on
    /// the first failing one — the `#[test]`-facing entry point.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let report = self.explore(f);
        if let Some(msg) = &report.failure {
            panic!(
                "loom model failed after {} interleaving(s): {msg}",
                report.executions
            );
        }
        report
    }
}

/// Exhaustively model-checks `f` with default bounds (loom's classic entry
/// point); panics on the first failing interleaving.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}
