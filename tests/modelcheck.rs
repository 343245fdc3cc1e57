//! Bounded model checking of the workspace's four concurrency protocols.
//!
//! Gated behind the `loom_model` cargo feature (CI runs
//! `cargo test -p fidelity --features loom_model --test modelcheck`); a
//! plain `cargo test` compiles none of this. Each test drives one of the
//! `modelcheck` modules, which re-express a production protocol against
//! the vendored `loom` shim so every interleaving (or a seeded sample of
//! them, where the space is too large) is executed and its invariants
//! asserted. Failures panic with the decision trace that reproduces the
//! bad schedule.

#![cfg(feature = "loom_model")]

/// Owner-pop vs thief-steal: 2 workers, 3 funneled tasks, exhaustive.
/// No task lost or duplicated in any schedule.
#[test]
fn work_steal_deque_exhaustive() {
    let report = fidelity_par::modelcheck::deque_exhaustive();
    assert!(report.complete, "DFS must exhaust the space: {report:?}");
    assert_eq!(report.truncated, 0, "no schedule may hit the step bound");
    assert!(
        report.executions > 1,
        "the funnel must force at least one real scheduling choice"
    );
}

/// The same deque protocol at 3 workers / 6 tasks, seeded random walks.
#[test]
fn work_steal_deque_random_walk() {
    let report = fidelity_par::modelcheck::deque_random_walk(0xF1DE_117F, 300);
    assert_eq!(report.executions, 300);
    assert_eq!(report.truncated, 0, "walks must terminate within bounds");
}

/// OrderedCommit: a wave's out-of-order completions, a restored row and
/// one failure skip drain to the identical stratum-order wave log under
/// every schedule, with the cursor restarting at each wave.
#[test]
fn ordered_commit_exhaustive() {
    let report = fidelity_core::modelcheck::ordered_commit_exhaustive();
    assert!(report.complete, "DFS must exhaust the space: {report:?}");
    assert_eq!(report.truncated, 0);
}

/// Supervisor single-flight: duplicate submissions attach, never double-
/// enqueue, even with a worker claiming concurrently.
#[test]
fn supervisor_dedup_exhaustive() {
    let report = fidelity_serve::modelcheck::supervisor_dedup_exhaustive();
    assert!(report.complete, "DFS must exhaust the space: {report:?}");
    assert_eq!(report.truncated, 0);
}

/// Supervisor shedding: a full queue always resolves to the high-priority
/// job queued and the low one shed or bounced — never both, never neither.
#[test]
fn supervisor_shed_exhaustive() {
    let report = fidelity_serve::modelcheck::supervisor_shed_exhaustive();
    assert!(report.complete, "DFS must exhaust the space: {report:?}");
    assert_eq!(report.truncated, 0);
}

/// Histogram record/snapshot: a concurrent snapshot never observes more
/// bucketed samples than counted ones.
#[test]
fn histogram_snapshot_exhaustive() {
    let report = fidelity_obs::modelcheck::histogram_exhaustive();
    assert!(report.complete, "DFS must exhaust the space: {report:?}");
    assert_eq!(report.truncated, 0);
}
