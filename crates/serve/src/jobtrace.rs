//! Per-job end-to-end tracing: deterministic trace ids, append-mode JSONL
//! trace files with rotation, and the `job.*` event vocabulary that
//! `fidelity report --trace` renders as a span tree.
//!
//! The trace id is derived from the job fingerprint ([`trace_id`]), so
//! every daemon generation that touches a job — including one recovering
//! the job after `kill -9` — stamps the *same* id into the same per-job
//! file. The file is opened in append mode; sequence numbers are
//! per-tracer (they restart at 0 each generation, which the report's
//! gap detector is built to tolerate), and `pid` identifies the
//! generation that wrote each record.
//!
//! Rotation: when the file passes [`ROTATE_BYTES`] it is renamed to
//! `<path>.1` (replacing any previous rotation) and a fresh file starts,
//! bounding any one job's trace footprint to roughly twice the cap.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use fidelity_obs::fnv::fnv64;
use fidelity_obs::trace::{Field, JsonlSink, TraceEvent, TraceSink, Value};
use fidelity_obs::{clock, metrics};

/// Rotation threshold for one job trace file.
pub const ROTATE_BYTES: u64 = 4 * 1024 * 1024;

/// The deterministic trace id for a job: FNV-1a over a domain-separated
/// copy of the job id (the spec fingerprint), hex. Every process that
/// handles the job derives the same id with no coordination.
pub fn trace_id(job_id: &str) -> String {
    let mut keyed = Vec::with_capacity(job_id.len() + 16);
    keyed.extend_from_slice(b"fidelity-trace/");
    keyed.extend_from_slice(job_id.as_bytes());
    format!("{:016x}", fnv64(&keyed))
}

/// The trace file path for a job id inside a state directory.
pub fn trace_path(state_dir: &Path, job_id: &str) -> PathBuf {
    state_dir.join(format!("job-{job_id}.trace.jsonl"))
}

/// A per-job trace writer. Thread-safe; every record is stamped with the
/// job's trace id, job id, and the writing process id.
pub struct JobTracer {
    trace_id: String,
    job_id: String,
    path: PathBuf,
    sink: RwLock<JsonlSink>,
    seq: AtomicU64,
    pid: u64,
}

impl std::fmt::Debug for JobTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JobTracer({}, trace={})", self.job_id, self.trace_id)
    }
}

impl JobTracer {
    /// Opens (appending) the job's trace file under `state_dir`.
    ///
    /// # Errors
    ///
    /// Returns a description when the file cannot be opened.
    pub fn open(state_dir: &Path, job_id: &str) -> Result<JobTracer, String> {
        let path = trace_path(state_dir, job_id);
        let sink = JsonlSink::append(&path)?;
        Ok(JobTracer {
            trace_id: trace_id(job_id),
            job_id: job_id.to_owned(),
            path,
            sink: RwLock::new(sink),
            seq: AtomicU64::new(0),
            pid: u64::from(std::process::id()),
        })
    }

    /// The job's deterministic trace id.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// The trace file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events this tracer's sink dropped on write errors.
    pub fn dropped(&self) -> u64 {
        self.sink
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped()
    }

    /// Records one event, augmented with `trace`, `job`, and `pid` fields.
    /// Never panics and never blocks beyond one buffered write.
    pub fn record_event(&self, name: &str, fields: &[Field<'_>]) {
        let mut augmented: Vec<Field<'_>> = Vec::with_capacity(fields.len() + 3);
        augmented.extend_from_slice(fields);
        augmented.push(("trace", Value::Str(&self.trace_id)));
        augmented.push(("job", Value::Str(&self.job_id)));
        augmented.push(("pid", Value::U64(self.pid)));
        let event = TraceEvent {
            name,
            t_us: clock::since_epoch_us(),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            fields: &augmented,
        };
        let over_cap = {
            let sink = self.sink.read().unwrap_or_else(PoisonError::into_inner);
            sink.record(&event);
            // Flush per record: job traces are low-rate (lifecycle events
            // and per-cell records, not per-injection), and the file must
            // survive `kill -9` — a buffered generation-1 record that dies
            // with the process would break trace continuity across crashes.
            let _ = sink.flush();
            sink.bytes_written() >= ROTATE_BYTES
        };
        if over_cap {
            self.rotate();
        }
    }

    /// Emits a `job.span` phase record (`queue_wait` / `run` / `backoff`).
    pub fn span(&self, phase: &str, dur_us: u64, attempt: u64) {
        self.record_event(
            "job.span",
            &[
                ("phase", Value::Str(phase)),
                ("dur_us", Value::U64(dur_us)),
                ("attempt", Value::U64(attempt)),
            ],
        );
    }

    /// Flushes the underlying file and, when events were dropped, appends a
    /// `trace.lossy` marker (best effort) so post-hoc readers see the loss
    /// even without the live metric.
    pub fn flush(&self) {
        let dropped = {
            let sink = self.sink.read().unwrap_or_else(PoisonError::into_inner);
            let _ = sink.flush();
            sink.dropped()
        };
        if dropped > 0 {
            self.record_event("trace.lossy", &[("dropped", Value::U64(dropped))]);
            let sink = self.sink.read().unwrap_or_else(PoisonError::into_inner);
            let _ = sink.flush();
        }
    }

    /// Renames the current file to `<path>.1` and starts a fresh one.
    /// Degrades gracefully: if the new file cannot be created, writing
    /// continues into the renamed (or original) sink.
    fn rotate(&self) {
        let mut sink = self.sink.write().unwrap_or_else(PoisonError::into_inner);
        // Re-check under the exclusive guard: a racing recorder may have
        // rotated already.
        if sink.bytes_written() < ROTATE_BYTES {
            return;
        }
        let _ = sink.flush();
        let rotated = self.path.with_extension("jsonl.1");
        if std::fs::rename(&self.path, &rotated).is_ok() {
            if let Ok(fresh) = JsonlSink::create(&self.path) {
                *sink = fresh;
                metrics::counter("serve.trace.rotations").inc();
            }
        }
    }
}

impl TraceSink for JobTracer {
    /// Adapts the tracer to the generic sink interface (the campaign
    /// runner's per-campaign outlet): re-stamps the event with this
    /// tracer's sequence and identity fields.
    fn record(&self, event: &TraceEvent<'_>) {
        self.record_event(event.name, event.fields);
    }

    fn flush(&self) -> Result<(), String> {
        JobTracer::flush(self);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_obs::json::{self, Json};

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fidelity-jobtrace-{tag}-{}", std::process::id()))
    }

    #[test]
    fn trace_id_is_deterministic_and_distinct() {
        assert_eq!(trace_id("abc"), trace_id("abc"));
        assert_ne!(trace_id("abc"), trace_id("abd"));
        assert_ne!(trace_id("abc"), "abc");
        assert_eq!(trace_id("abc").len(), 16);
    }

    #[test]
    fn records_carry_identity_and_survive_reopen() {
        let dir = scratch("reopen");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let t1 = JobTracer::open(&dir, "deadbeef00000001").expect("open tracer");
        t1.record_event("job.admit", &[("state", Value::Str("accepted"))]);
        t1.span("queue_wait", 10, 0);
        t1.flush();
        let id = t1.trace_id().to_owned();
        drop(t1);

        // Second generation: same file, same trace id, fresh seq.
        let t2 = JobTracer::open(&dir, "deadbeef00000001").expect("reopen tracer");
        assert_eq!(t2.trace_id(), id);
        t2.span("run", 500, 1);
        t2.flush();

        let text = std::fs::read_to_string(trace_path(&dir, "deadbeef00000001")).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        for v in &lines {
            assert_eq!(v.get("trace").and_then(Json::as_str), Some(id.as_str()));
            assert_eq!(
                v.get("job").and_then(Json::as_str),
                Some("deadbeef00000001")
            );
            assert!(v.get("pid").and_then(Json::as_u64).is_some());
        }
        // The whole file summarizes into one job keyed by the trace id.
        let summary = fidelity_obs::report::summarize(text.as_bytes()).unwrap();
        let job = &summary.jobs[&id];
        assert_eq!(job.queue_wait_us, 10);
        assert_eq!(job.run_us, 500);
        assert!(!summary.is_lossy());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_caps_file_size() {
        let dir = scratch("rotate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = JobTracer::open(&dir, "cafe000000000002").expect("open tracer");
        // ~200 bytes per record; push well past the cap.
        let filler = "x".repeat(160);
        let per_record = 200u64;
        let records = ROTATE_BYTES / per_record + 64;
        for i in 0..records {
            t.record_event(
                "spam",
                &[("i", Value::U64(i)), ("pad", Value::Str(&filler))],
            );
        }
        t.flush();
        let live = std::fs::metadata(t.path()).expect("live file exists").len();
        assert!(
            live < ROTATE_BYTES,
            "live file must restart after rotation (len {live})"
        );
        let rotated = t.path().with_extension("jsonl.1");
        assert!(rotated.exists(), "rotated file kept");
        assert!(std::fs::metadata(&rotated).unwrap().len() >= ROTATE_BYTES);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
