//! `fidelity-par` — a hand-rolled work-stealing thread pool for
//! fault-injection campaigns.
//!
//! The build environment is offline (no crates.io), so this crate implements
//! the minimal scheduling substrate the campaign runner needs from scratch,
//! on `std` alone and without `unsafe`:
//!
//! * **Work stealing** — every worker owns a deque of task indices; it pops
//!   work from its own front (draining its shard in ascending index order,
//!   which keeps ordered-commit consumers moving) and, when empty, steals
//!   the back half of a randomly-probed victim. Long-running cells
//!   therefore never leave sibling workers idle, whatever the initial shard
//!   layout.
//! * **Exactly-once execution** — each task index is executed exactly once
//!   regardless of worker count, steal order, or panics in other tasks; the
//!   pool never loses or duplicates work.
//! * **Panic containment** — a panicking task is caught, counted, and its
//!   payload re-raised only after every other task has finished, so one
//!   poisoned cell cannot discard the rest of a campaign sweep.
//! * **No leaked threads** — workers are scoped (`std::thread::scope`); by
//!   construction every worker has exited when [`WorkStealPool::run`]
//!   returns.
//!
//! Determinism: the pool makes no ordering promises. Callers that need
//! bit-reproducible results (the campaign runner) must make each task a pure
//! function of its index — per-task derived RNG seeds, commutative shared
//! accounting — which is exactly the contract `fidelity-core` follows.
//! Victim probing is seeded ([`PoolSpec::seed`]) so even scheduling noise is
//! reproducible under a single-threaded victim pattern, but nothing in the
//! result may depend on it.

#![warn(missing_docs)]

mod cancel;
#[cfg(feature = "loom_model")]
pub mod modelcheck;
mod pool;

pub use cancel::{sleep_unless, CancelToken};
pub use pool::{run_indexed, PoolSpec, RunStats, ShardPlan, WorkStealPool};

/// Minimal xorshift64* generator for victim selection. Scheduling noise must
/// not come from ambient entropy (the workspace determinism lint forbids
/// it), so each worker derives its probe stream from the pool seed.
#[derive(Debug, Clone)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point.
        XorShift64 { state: seed | 1 }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (n > 0).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::XorShift64;

    #[test]
    fn xorshift_is_deterministic_and_varied() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert!(distinct.len() > 12, "poor variation: {xs:?}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = XorShift64::new(7);
        for _ in 0..100 {
            assert!(rng.below(5) < 5);
        }
    }
}
