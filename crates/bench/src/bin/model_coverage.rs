//! Model-checker coverage statistics for the concurrency verification
//! layer (EXPERIMENTS.md, "Concurrency verification" section).
//!
//! Runs every protocol model the workspace ships — four exhaustive checks,
//! one of them preemption-bounded — and prints a table of interleavings
//! explored, completeness, truncations, and wall clock. Requires the
//! `loom_model` feature:
//!
//! ```text
//! cargo run --release -p fidelity-bench --features loom_model --bin model_coverage
//! ```
//!
//! Every run is deterministic (the DFS order is a function of the model),
//! so the numbers are reproducible bit-for-bit and any failure comes with a
//! replayable decision trace.

use std::time::Instant;

fn row(name: &str, bound: &str, run: impl FnOnce() -> loom::Report) {
    let t0 = Instant::now();
    let r = run();
    let elapsed = t0.elapsed();
    println!(
        "| {name} | {bound} | {} | {} | {} | {:.2?} |",
        r.executions,
        if r.complete { "yes" } else { "no" },
        r.truncated,
        elapsed
    );
}

fn main() {
    println!("| protocol | bound | interleavings | complete | truncated | time |");
    println!("|---|---|---|---|---|---|");
    row("ordered checkpoint commit", "unbounded", || {
        fidelity_core::modelcheck::ordered_commit_exhaustive()
    });
    row("supervisor dedup + worker", "unbounded", || {
        fidelity_serve::modelcheck::supervisor_dedup_exhaustive()
    });
    row("supervisor shed (cap 1)", "unbounded", || {
        fidelity_serve::modelcheck::supervisor_shed_exhaustive()
    });
    row("histogram record/snapshot", "3 preemptions", || {
        fidelity_obs::modelcheck::histogram_exhaustive()
    });
}
