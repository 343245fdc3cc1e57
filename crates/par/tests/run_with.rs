//! Tests of the claim-counter loop: exactly-once execution under uneven
//! task costs, ascending claims per worker, per-worker state, panic
//! containment, and exactness of the shared `obs` counters the campaign
//! runner aggregates through it (mirroring the 8-thread contention test in
//! `crates/obs`).

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use fidelity_par::run_with;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// N workers × M tasks: every task executes exactly once, and the loop
/// returns (scoped workers exited).
#[test]
fn every_task_runs_exactly_once() {
    const TASKS: usize = 600;
    for workers in [1, 2, 3, 4, 8] {
        let counts: Vec<AtomicU32> = (0..TASKS).map(|_| AtomicU32::new(0)).collect();
        run_with(
            workers,
            TASKS,
            |_| (),
            |(), i| {
                // Uneven task costs: every 13th task is ~100x heavier.
                let spins = if i % 13 == 0 { 5_000 } else { 50 };
                for s in 0..spins {
                    std::hint::black_box(s);
                }
                counts[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "task {i} ran the wrong number of times (workers={workers})"
            );
        }
    }
}

/// One worker runs exactly `0, 1, 2, …` — the campaign's ordered commit
/// then writes every row as soon as it finishes — and under contention
/// each worker still sees strictly ascending indices.
#[test]
fn claims_are_ascending_per_worker() {
    let order = Mutex::new(Vec::new());
    run_with(1, 50, |_| (), |(), i| lock(&order).push(i));
    assert_eq!(*lock(&order), (0..50).collect::<Vec<_>>());

    const WORKERS: usize = 4;
    const TASKS: usize = 400;
    let seen: Vec<Mutex<Vec<usize>>> = (0..WORKERS).map(|_| Mutex::new(Vec::new())).collect();
    run_with(
        WORKERS,
        TASKS,
        |w| w,
        |w, i| {
            for s in 0..200u64 {
                std::hint::black_box(s.wrapping_mul(i as u64));
            }
            lock(&seen[*w]).push(i);
        },
    );
    let mut all = Vec::new();
    for (w, s) in seen.iter().enumerate() {
        let s = lock(s);
        assert!(
            s.windows(2).all(|p| p[0] < p[1]),
            "worker {w} claimed out of order: {s:?}"
        );
        all.extend(s.iter().copied());
    }
    all.sort_unstable();
    assert_eq!(all, (0..TASKS).collect::<Vec<_>>());
}

/// `init` runs once per spawned worker, before that worker's tasks, and the
/// worker count is clamped to the task count.
#[test]
fn init_runs_once_per_worker_clamped_to_tasks() {
    for (workers, tasks, spawned) in [(4, 128, 4), (64, 3, 3), (0, 5, 1)] {
        let inits = AtomicUsize::new(0);
        let max_worker = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        run_with(
            workers,
            tasks,
            |w| {
                inits.fetch_add(1, Ordering::Relaxed);
                max_worker.fetch_max(w, Ordering::Relaxed);
                0usize
            },
            |local, _| {
                *local += 1;
                done.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), spawned, "workers={workers}");
        assert_eq!(max_worker.load(Ordering::Relaxed), spawned - 1);
        assert_eq!(done.load(Ordering::Relaxed), tasks);
    }
}

#[test]
fn zero_tasks_spawn_nothing() {
    run_with(
        8,
        0,
        |_| panic!("no worker may start"),
        |(), _: usize| panic!("no task may run"),
    );
}

/// A panicking task mid-run: every other task still runs exactly once, and
/// the payload is re-raised after the workers have joined.
#[test]
fn panicking_task_loses_nothing_and_reraises() {
    const TASKS: usize = 300;
    let counts: Vec<AtomicU32> = (0..TASKS).map(|_| AtomicU32::new(0)).collect();
    let result = catch_unwind(|| {
        run_with(
            8,
            TASKS,
            |_| (),
            |(), i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
                if i == 150 {
                    panic!("task {i} is poisoned");
                }
            },
        );
    });
    let text = result
        .expect_err("the task panic must be re-raised")
        .downcast::<String>()
        .map(|s| *s)
        .unwrap_or_default();
    assert_eq!(text, "task 150 is poisoned");
    for (i, c) in counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} lost or duplicated");
    }
}

/// Exactness of `obs` metrics under contention: 8 workers hammering one
/// shared counter and histogram lose no increments. This is the cross-crate
/// version of the obs-internal contention test — the campaign runner relies
/// on it when aggregating per-worker telemetry.
#[test]
fn obs_counters_are_exact_across_workers() {
    const TASKS: usize = 4_000;
    const PER_TASK: u64 = 5;
    let counter = fidelity_obs::metrics::counter("par.stress.increments");
    let histogram = fidelity_obs::metrics::histogram("par.stress.values");
    let before = counter.get();
    run_with(
        8,
        TASKS,
        |_| (),
        |(), i| {
            for _ in 0..PER_TASK {
                counter.inc();
            }
            histogram.record(i as u64);
        },
    );
    assert_eq!(
        counter.get() - before,
        TASKS as u64 * PER_TASK,
        "lost counter increments under contention"
    );
    assert_eq!(histogram.count(), TASKS as u64);
}
