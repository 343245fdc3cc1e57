//! Deterministic interleaving model of the ordered checkpoint commit.
//!
//! The campaign's `OrderedCommit` ([`crate::campaign`]) writes one wave of
//! the wave log at a time: the `wave` line when the wave starts, each
//! stratum's row as it commits, then the failed strata and the `wdone`
//! marker at the wave's barrier. Workers finish a wave's tasks out of
//! order, so completions park until every lower task of the wave has
//! committed or skipped, and a wave-scoped cursor drains them contiguously
//! — the log is always the byte prefix a serial run would have written, no
//! matter how workers are scheduled. This module re-expresses that protocol
//! against the `loom` model `Mutex` (file writes become appends to an
//! in-memory record log) and lets the model scheduler enumerate every
//! interleaving of worker commits.
//!
//! Checked invariants, in every explored interleaving:
//!
//! - **write-order determinism**: the log equals the serial one — rows in
//!   stratum order with the failed stratum absent, its `wfail` at the
//!   barrier — identical across all schedules, which is exactly the
//!   checkpoint-byte determinism the resume path relies on;
//! - **wave scoping**: the cursor restarts at each wave, so a second wave's
//!   rows drain from its own first task;
//! - **resume**: a row restored from a killed run's open wave is committed
//!   ahead of the workers and drains in its place;
//! - **skip semantics**: a failed stratum advances the cursor without a
//!   row, so later strata still drain;
//! - **drain completeness**: after the last commit, the cursor has passed
//!   every task and nothing is left parked in `pending`.

use std::collections::BTreeMap;

use loom::model::sync::{Arc, Mutex, MutexGuard};
use loom::model::thread;

/// One line of the model's wave log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    Wave(usize),
    Row(usize),
    Fail(usize),
    Done(usize),
}

/// `OrderedCommit` with the `BufWriter<File>` replaced by a record log.
struct ModelCommit {
    log: Vec<Record>,
    cursor: usize,
    /// Task index → the stratum whose row to write, or `None` for a skip.
    pending: BTreeMap<usize, Option<usize>>,
}

impl ModelCommit {
    /// Mirrors `OrderedCommit::start_wave`.
    fn start_wave(&mut self, index: usize) {
        self.cursor = 0;
        self.pending.clear();
        self.log.push(Record::Wave(index));
    }

    /// Mirrors `OrderedCommit::commit`: park, then drain the contiguous run.
    fn commit(&mut self, task: usize, entry: Option<usize>) {
        self.pending.insert(task, entry);
        while let Some(slot) = self.pending.remove(&self.cursor) {
            if let Some(stratum) = slot {
                self.log.push(Record::Row(stratum));
            }
            self.cursor += 1;
        }
    }

    /// Mirrors `OrderedCommit::end_wave`.
    fn end_wave(&mut self, index: usize, fails: &[usize]) {
        self.log.extend(fails.iter().map(|&s| Record::Fail(s)));
        self.log.push(Record::Done(index));
    }
}

fn lock(m: &Mutex<ModelCommit>) -> MutexGuard<'_, ModelCommit> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One model execution. Wave 0 (strata 0 and 2) commits serially. Wave 1
/// allocates strata 1, 3, 4, 6, 7 as tasks 0–4: task 0's row is restored
/// from a killed run; worker A finishes tasks 2 and 4, worker B task 3 and
/// then fails task 1 (stratum 3). Full check after the join and barrier.
fn run_model() {
    let state = Arc::new(Mutex::new(ModelCommit {
        log: Vec::new(),
        cursor: 0,
        pending: BTreeMap::new(),
    }));
    {
        let mut st = lock(&state);
        st.start_wave(0);
        st.commit(1, Some(2));
        st.commit(0, Some(0));
        st.end_wave(0, &[]);
        st.start_wave(1);
        st.commit(0, Some(1)); // restored
    }
    let a = {
        let state = Arc::clone(&state);
        thread::spawn(move || {
            for (task, stratum) in [(2usize, 4usize), (4, 7)] {
                lock(&state).commit(task, Some(stratum));
            }
        })
    };
    let b = {
        let state = Arc::clone(&state);
        thread::spawn(move || {
            lock(&state).commit(3, Some(6));
            // Task 1 failed: commits as a skip, the cursor must still
            // advance.
            lock(&state).commit(1, None);
        })
    };
    a.join().expect("worker A panicked");
    b.join().expect("worker B panicked");
    let mut st = lock(&state);
    st.end_wave(1, &[3]);
    use Record::{Done, Fail, Row, Wave};
    assert_eq!(
        st.log,
        vec![
            Wave(0),
            Row(0),
            Row(2),
            Done(0),
            Wave(1),
            Row(1),
            Row(4),
            Row(6),
            Row(7),
            Fail(3),
            Done(1),
        ],
        "checkpoint bytes depend on scheduling"
    );
    assert_eq!(st.cursor, 5, "cursor did not pass the whole wave");
    assert!(st.pending.is_empty(), "finished strata left parked");
}

/// Exhaustively model-checks the out-of-order flush protocol. Panics on
/// the first interleaving whose record log deviates from the serial one.
pub fn ordered_commit_exhaustive() -> loom::Report {
    loom::Builder::default().check(run_model)
}
