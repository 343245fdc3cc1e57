//! Cooperative cancellation for campaigns and the serve jobs that run them.
//!
//! A [`CancelToken`] is a cloneable flag shared between a supervisor (a
//! deadline monitor, a service handling `DELETE /campaigns/:id`, a graceful
//! shutdown path) and the workers it governs. Cancellation is cooperative:
//! nothing is interrupted mid-task, so a task that started before the flag
//! flipped runs to completion and commits its result — the property that
//! lets a cancelled campaign leave a clean checkpoint behind.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cloneable cancellation flag. All clones observe the same state; once
/// cancelled, a token never resets.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested. One acquire load — cheap
    /// enough to poll from worker loops.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Sleeps for `total`, polling `interrupted` in short slices so a
/// cancellation cuts a long wait (a retry backoff) short. Returns `false`
/// when the wait was interrupted.
pub fn sleep_unless(total: Duration, interrupted: impl Fn() -> bool) -> bool {
    const SLICE: Duration = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() {
        if interrupted() {
            return false;
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
    !interrupted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }
}
