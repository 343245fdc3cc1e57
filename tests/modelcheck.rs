//! Bounded model checking of the workspace's concurrency protocols: the
//! campaign's ordered checkpoint commit, the serve supervisor's admission
//! (dedup and shedding) and the histogram snapshot.
//!
//! Gated behind the `loom_model` cargo feature (CI runs
//! `cargo test -p fidelity --features loom_model --test modelcheck`); a
//! plain `cargo test` compiles none of this. Each test drives one of the
//! `modelcheck` modules, which re-express a production protocol against
//! the vendored `loom` shim so every interleaving (within a preemption
//! bound, where the space is too large) is executed and its invariants
//! asserted. Failures panic with the decision trace that reproduces the
//! bad schedule.

#![cfg(feature = "loom_model")]

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
