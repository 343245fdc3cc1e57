//! The supervised job engine behind the HTTP API.
//!
//! Jobs move through a small state machine:
//!
//! ```text
//!                      +----------------------------------------+
//!                      v                                        |
//! submit -> queued -> running -> done                           |
//!             |          |-----> failed  (retries exhausted) ---+ resubmit
//!             |          |-----> cancelled (DELETE, drain)      |
//!             |          `-----> expired  (deadline)            |
//!             `--------> shed    (overload eviction) -----------+
//! ```
//!
//! Every transition is journaled before it takes effect (write-ahead), so a
//! killed daemon recovers exactly: accepted-but-unfinished jobs re-enqueue
//! and resume from their checkpoints, finished jobs keep their recorded
//! summaries, and a resumed campaign is bit-identical to an uninterrupted
//! one (the cell RNG streams are derived, never ambient).
//!
//! Failure handling per job: attempts run under the campaign's own panic
//! isolation; a failed attempt retries with the workspace's seeded
//! exponential backoff ([`RetryBackoff`]) up to the job's retry budget,
//! each retry resuming from the checkpoint rather than starting over.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use fidelity_core::analysis::{analyze, ResilienceAnalysis};
use fidelity_core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity_core::resilience::{self, CheckpointSpec, RetryBackoff};
use fidelity_obs::json::escape_into;
use fidelity_obs::progress::{ProgressShare, ProgressSnapshot, ProgressSpec};
use fidelity_obs::trace::{SinkHandle, TraceSink, Value};
use fidelity_obs::{clock, event, prof};
use fidelity_par::{sleep_unless, CancelToken};

use crate::jobspec::JobSpec;
use crate::jobtrace::{self, JobTracer};
use crate::journal::{replay_file, Journal, JournalEvent};
use crate::metrics::ServeMetrics;
use crate::queue::{JobQueue, PushOutcome, QueueEntry};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for the journal and per-job checkpoints.
    pub state_dir: PathBuf,
    /// Bounded queue capacity; submissions beyond it are rejected or shed.
    pub queue_cap: usize,
    /// Concurrent campaign executions.
    pub workers: usize,
    /// Worker threads per campaign (results are bit-identical for any
    /// value).
    pub campaign_threads: usize,
    /// Fault injection applied to every job's campaign — the service's own
    /// chaos-test hook. Always empty in production configurations.
    pub chaos: Vec<fidelity_core::resilience::ChaosSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("fidelity-serve-state"),
            queue_cap: 8,
            workers: 1,
            campaign_threads: 2,
            chaos: Vec::new(),
        }
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the campaign.
    Running,
    /// Finished; a summary is recorded.
    Done,
    /// Retries exhausted.
    Failed,
    /// Cancelled via the API.
    Cancelled,
    /// The job deadline expired.
    Expired,
    /// Evicted from a full queue by higher-priority work.
    Shed,
}

impl JobState {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
            JobState::Shed => "shed",
        }
    }

    /// Whether the state ends the job's current lifetime. Terminal jobs
    /// stay registered (for dedup and status) and may be resubmitted.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done
                | JobState::Failed
                | JobState::Cancelled
                | JobState::Expired
                | JobState::Shed
        )
    }
}

#[derive(Debug)]
struct JobMeta {
    state: JobState,
    attempts: usize,
    priority: i32,
    seq: u64,
    error: Option<String>,
    summary_json: Option<String>,
    /// When the job entered the queue (`clock::since_epoch_us`), for the
    /// queue-wait span in the per-job trace.
    queued_at_us: u64,
}

/// One registered job (by fingerprint id).
#[derive(Debug)]
pub struct JobEntry {
    id: String,
    spec: JobSpec,
    meta: Mutex<JobMeta>,
    /// Cancellation for the *current* lifetime; tokens never reset, so a
    /// resubmission installs a fresh one.
    cancel: Mutex<CancelToken>,
    /// Set by the deadline monitor just before it fires the token, so the
    /// worker can tell expiry from an API cancel.
    deadline_fired: AtomicBool,
    /// Absolute deadline (`clock::since_epoch_us`), 0 while not running.
    deadline_at_us: AtomicU64,
    /// Progress outlet shared with status queries and event streams.
    share: ProgressShare,
    /// Per-job trace writer (`None` only when the trace file could not be
    /// opened — tracing degrades, the job still runs).
    tracer: Option<Arc<JobTracer>>,
}

/// What `submit` did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Newly accepted and queued.
    Accepted,
    /// Accepted; the named lower-priority queued job was shed to make room.
    AcceptedShedding {
        /// Id of the evicted job.
        victim: String,
    },
    /// An identical spec is already queued or running; this submission
    /// attached to it (single-flight).
    Attached {
        /// The in-flight job's state.
        state: JobState,
    },
    /// An identical spec already finished; the recorded result applies.
    AlreadyDone,
    /// The queue is full of equal-or-higher-priority work; retry later.
    Busy {
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
}

/// The supervised job engine. One instance per daemon; shared with the
/// HTTP listener through an `Arc`.
#[derive(Debug)]
pub struct Supervisor {
    cfg: ServeConfig,
    jobs: Mutex<HashMap<String, Arc<JobEntry>>>,
    queue: JobQueue,
    journal: Mutex<Journal>,
    seq: AtomicU64,
    accepting: AtomicBool,
    shutdown: CancelToken,
    running_jobs: AtomicUsize,
    recovered: usize,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    metrics: Arc<ServeMetrics>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Supervisor {
    /// Boots the engine: recovers the journal, re-enqueues unfinished jobs,
    /// and spawns the worker and deadline-monitor threads.
    ///
    /// # Errors
    ///
    /// Fails on an unusable state directory or a corrupt journal (a torn
    /// tail is not corruption; see [`crate::journal`]).
    pub fn start(cfg: ServeConfig) -> Result<Arc<Supervisor>, String> {
        std::fs::create_dir_all(&cfg.state_dir)
            .map_err(|e| format!("state dir {}: {e}", cfg.state_dir.display()))?;
        let journal_path = cfg.state_dir.join("jobs.journal");
        let events = replay_file(&journal_path)?;

        // Fold the log into per-job final states, preserving submit order.
        let mut order: Vec<String> = Vec::new();
        let mut folded: HashMap<String, (String, JobState, Option<String>, Option<String>)> =
            HashMap::new();
        for ev in &events {
            let id = ev.id().to_owned();
            match ev {
                JournalEvent::Submit { spec_json, .. } => {
                    if !folded.contains_key(&id) {
                        order.push(id.clone());
                    }
                    folded.insert(id, (spec_json.clone(), JobState::Queued, None, None));
                }
                JournalEvent::Start { .. } => {
                    if let Some(f) = folded.get_mut(&id) {
                        f.1 = JobState::Running;
                    }
                }
                JournalEvent::Done { summary_json, .. } => {
                    if let Some(f) = folded.get_mut(&id) {
                        f.1 = JobState::Done;
                        f.3 = Some(summary_json.clone());
                    }
                }
                JournalEvent::Fail { reason, .. } => {
                    if let Some(f) = folded.get_mut(&id) {
                        f.1 = JobState::Failed;
                        f.2 = Some(reason.clone());
                    }
                }
                JournalEvent::Cancel { .. } => {
                    if let Some(f) = folded.get_mut(&id) {
                        f.1 = JobState::Cancelled;
                        f.2 = Some("cancelled".to_owned());
                    }
                }
                JournalEvent::Expire { .. } => {
                    if let Some(f) = folded.get_mut(&id) {
                        f.1 = JobState::Expired;
                        f.2 = Some("deadline expired".to_owned());
                    }
                }
                JournalEvent::Shed { .. } => {
                    if let Some(f) = folded.get_mut(&id) {
                        f.1 = JobState::Shed;
                        f.2 = Some("shed under overload".to_owned());
                    }
                }
            }
        }

        // Re-validate every recovered record before rewriting anything: a
        // spec that no longer parses must abort recovery while the original
        // journal is still intact on disk. A spec that sets a field this
        // version retired keeps its record; if it had not finished, it
        // fails rather than rerunning under different semantics.
        let mut recovered_jobs = Vec::with_capacity(order.len());
        for id in &order {
            let Some((spec_json, mut state, mut error, summary)) = folded.remove(id) else {
                continue;
            };
            let (spec, retired) = JobSpec::from_journal_str(&spec_json)
                .map_err(|e| format!("journal job {id}: {e}"))?;
            if let (Some(field), JobState::Running | JobState::Queued) = (retired, state) {
                state = JobState::Failed;
                error = Some(format!(
                    "job spec uses the retired field `{field}`; resubmit without it"
                ));
            }
            recovered_jobs.push((id.clone(), spec_json, spec, state, error, summary));
        }

        // Compact: rewrite the journal from the folded state, dropping any
        // torn tail and bounding the log's growth. The rewrite goes to a
        // temporary file that is atomically renamed over `jobs.journal`
        // only once every record has landed, so a crash or I/O error
        // mid-compaction never loses durably journaled jobs.
        let tmp_path = cfg.state_dir.join("jobs.journal.tmp");
        let mut journal = Journal::create(&tmp_path)?;
        let mut entries: Vec<Arc<JobEntry>> = Vec::new();
        let mut recovered = 0usize;
        for (id, spec_json, spec, state, error, summary) in recovered_jobs {
            journal.append(&JournalEvent::Submit {
                id: id.clone(),
                spec_json,
            })?;
            // An interrupted `running` job recovers as queued: its
            // checkpoint holds the finished cells, so the rerun is a
            // resume, not a restart.
            let recovered_state = match state {
                JobState::Running | JobState::Queued => JobState::Queued,
                terminal => {
                    let terminal_event = match terminal {
                        JobState::Done => JournalEvent::Done {
                            id: id.clone(),
                            summary_json: summary.clone().unwrap_or_else(|| "{}".to_owned()),
                        },
                        JobState::Failed => JournalEvent::Fail {
                            id: id.clone(),
                            reason: error.clone().unwrap_or_default(),
                        },
                        JobState::Cancelled => JournalEvent::Cancel { id: id.clone() },
                        JobState::Expired => JournalEvent::Expire { id: id.clone() },
                        _ => JournalEvent::Shed { id: id.clone() },
                    };
                    journal.append(&terminal_event)?;
                    terminal
                }
            };
            if recovered_state == JobState::Queued {
                recovered += 1;
            }
            let priority = spec.priority;
            entries.push(Arc::new(JobEntry {
                id: id.clone(),
                spec,
                meta: Mutex::new(JobMeta {
                    state: recovered_state,
                    attempts: 0,
                    priority,
                    seq: 0,
                    error,
                    summary_json: summary,
                    queued_at_us: 0,
                }),
                cancel: Mutex::new(CancelToken::new()),
                deadline_fired: AtomicBool::new(false),
                deadline_at_us: AtomicU64::new(0),
                share: ProgressShare::new(),
                tracer: JobTracer::open(&cfg.state_dir, &id).ok().map(Arc::new),
            }));
        }
        journal.commit_rename(&journal_path)?;

        let metrics = Arc::new(ServeMetrics::new());
        metrics.recovered.add(recovered as u64);
        let sup = Arc::new(Supervisor {
            queue: JobQueue::new(cfg.queue_cap),
            cfg,
            jobs: Mutex::new(HashMap::new()),
            journal: Mutex::new(journal),
            seq: AtomicU64::new(1),
            accepting: AtomicBool::new(true),
            shutdown: CancelToken::new(),
            running_jobs: AtomicUsize::new(0),
            recovered,
            threads: Mutex::new(Vec::new()),
            metrics,
        });
        {
            let mut jobs = lock(&sup.jobs);
            for entry in entries {
                let requeue = lock(&entry.meta).state == JobState::Queued;
                if requeue {
                    let seq = sup.seq.fetch_add(1, Ordering::Relaxed);
                    {
                        let mut meta = lock(&entry.meta);
                        meta.seq = seq;
                        meta.queued_at_us = clock::since_epoch_us();
                    }
                    // Recovered jobs were accepted in a previous lifetime,
                    // so requeueing bypasses the capacity check: a pre-crash
                    // queue at cap plus interrupted running jobs can exceed
                    // `queue_cap`, and dropping any of them would break the
                    // zero-lost-accepted-jobs guarantee.
                    sup.queue.push_recovered(QueueEntry {
                        id: entry.id.clone(),
                        priority: entry.spec.priority,
                        seq,
                    });
                    event!("serve.recover", id = &entry.id);
                    if let Some(t) = &entry.tracer {
                        // The recovery record ties this generation's pid to
                        // the job's trace id, minted by the generation that
                        // admitted it.
                        t.record_event("job.recover", &[]);
                    }
                }
                jobs.insert(entry.id.clone(), entry);
            }
        }

        let workers = sup.cfg.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let s = Arc::clone(&sup);
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || s.worker_loop());
            match spawned {
                Ok(h) => threads.push(h),
                Err(e) => return Err(format!("worker spawn: {e}")),
            }
        }
        let s = Arc::clone(&sup);
        match std::thread::Builder::new()
            .name("serve-deadline".to_owned())
            .spawn(move || s.deadline_loop())
        {
            Ok(h) => threads.push(h),
            Err(e) => return Err(format!("monitor spawn: {e}")),
        }
        *lock(&sup.threads) = threads;
        Ok(sup)
    }

    /// Jobs re-enqueued from the journal at boot.
    pub fn recovered_jobs(&self) -> usize {
        self.recovered
    }

    /// Whether new submissions are being accepted (false while draining).
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// Fails while the daemon is draining or on journal I/O errors.
    pub fn submit(&self, spec: JobSpec) -> Result<(String, SubmitOutcome), String> {
        if !self.is_accepting() {
            return Err("shutting down; not accepting new campaigns".to_owned());
        }
        let id = spec.job_id();
        let mut jobs = lock(&self.jobs);
        if let Some(existing) = jobs.get(&id) {
            let state = lock(&existing.meta).state;
            match state {
                JobState::Done => {
                    self.metrics.dedup.inc();
                    return Ok((id, SubmitOutcome::AlreadyDone));
                }
                s if !s.is_terminal() => {
                    // Single-flight: an identical spec is already in flight;
                    // this submission rides along.
                    event!("serve.attach", id = &id);
                    self.metrics.dedup.inc();
                    return Ok((id, SubmitOutcome::Attached { state: s }));
                }
                _ => {} // terminal non-done: resubmission below
            }
        }

        // Backpressure is decided before anything mutates: submitters are
        // serialized by the `jobs` lock held here, and concurrent pops and
        // cancels only free queue space, so an admission predicted now
        // cannot come back rejected from the push below. This keeps a
        // rejected resubmission's terminal state untouched — the job is
        // never left marked queued while absent from the queue.
        if !self.queue.would_accept(spec.priority) {
            event!("serve.reject", id = &id);
            self.metrics.rejected.inc();
            return Ok((
                id,
                SubmitOutcome::Busy {
                    retry_after: crate::queue::RETRY_AFTER,
                },
            ));
        }

        // Write-ahead: the submit record is durable before the job is
        // registered or queued, so a crash at any later point recovers the
        // job, and a failed append leaves no half-accepted state behind.
        self.journal_append(&JournalEvent::Submit {
            id: id.clone(),
            spec_json: spec.to_canonical_json(),
        })?;

        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let queued_at_us = clock::since_epoch_us();
        let fresh = !jobs.contains_key(&id);
        let entry = jobs.entry(id.clone()).or_insert_with(|| {
            Arc::new(JobEntry {
                id: id.clone(),
                spec: spec.clone(),
                meta: Mutex::new(JobMeta {
                    state: JobState::Queued,
                    attempts: 0,
                    priority: spec.priority,
                    seq,
                    error: None,
                    summary_json: None,
                    queued_at_us,
                }),
                cancel: Mutex::new(CancelToken::new()),
                deadline_fired: AtomicBool::new(false),
                deadline_at_us: AtomicU64::new(0),
                share: ProgressShare::new(),
                tracer: JobTracer::open(&self.cfg.state_dir, &id).ok().map(Arc::new),
            })
        });
        if !fresh {
            // Resubmission of a failed/cancelled/expired/shed job: new
            // lifetime, fresh token, keep the id (and its checkpoint).
            let mut meta = lock(&entry.meta);
            meta.state = JobState::Queued;
            meta.attempts = 0;
            meta.priority = spec.priority;
            meta.seq = seq;
            meta.error = None;
            meta.queued_at_us = queued_at_us;
            drop(meta);
            *lock(&entry.cancel) = CancelToken::new();
            entry.deadline_fired.store(false, Ordering::Release);
        }
        if let Some(t) = &entry.tracer {
            // The admission record mints the trace id on the wire: from here
            // on every journal mirror, span, and terminal record carries it.
            t.record_event(
                "job.admit",
                &[
                    ("state", Value::Str("accepted")),
                    ("priority", Value::I64(i64::from(spec.priority))),
                    ("network", Value::Str(&spec.network)),
                ],
            );
        }

        match self.queue.push(QueueEntry {
            id: id.clone(),
            priority: spec.priority,
            seq,
        }) {
            PushOutcome::Queued => {
                event!("serve.submit", id = &id, priority = spec.priority);
                self.metrics.submitted.inc();
                Ok((id, SubmitOutcome::Accepted))
            }
            PushOutcome::Shed { victim } => {
                // Report the eviction loudly: mark the victim, journal it,
                // and name it in the acceptance response. The journal write
                // is best-effort — the write-ahead submit record above is
                // what recovery depends on; losing the shed record merely
                // re-runs a deterministic, checkpointed job.
                if let Some(v) = jobs.get(&victim.id) {
                    let mut meta = lock(&v.meta);
                    meta.state = JobState::Shed;
                    meta.error = Some(format!("shed under overload by job {id}"));
                }
                let _ = self.journal_append(&JournalEvent::Shed {
                    id: victim.id.clone(),
                });
                event!("serve.shed", victim = &victim.id, for_job = &id);
                self.metrics.submitted.inc();
                self.metrics.shed.inc();
                // Trace I/O happens outside the jobs guard: the victim's
                // terminal record is informational, and flushing a file
                // under the admission lock would stall every submitter.
                let victim_tracer = jobs.get(&victim.id).and_then(|v| v.tracer.clone());
                drop(jobs);
                if let Some(t) = victim_tracer {
                    t.record_event("job.terminal", &[("state", Value::Str("shed"))]);
                    t.flush();
                }
                Ok((id, SubmitOutcome::AcceptedShedding { victim: victim.id }))
            }
            PushOutcome::Rejected { retry_after } => {
                // Unreachable by construction (`would_accept` held under
                // this same lock), kept as a safe fallback: undo the
                // registration so no job is left marked queued while absent
                // from the queue, and journal the shed so recovery agrees.
                if fresh {
                    jobs.remove(&id);
                } else if let Some(v) = jobs.get(&id) {
                    let mut meta = lock(&v.meta);
                    meta.state = JobState::Shed;
                    meta.error = Some("rejected by a full queue".to_owned());
                }
                let _ = self.journal_append(&JournalEvent::Shed { id: id.clone() });
                event!("serve.reject", id = &id);
                self.metrics.rejected.inc();
                Ok((id, SubmitOutcome::Busy { retry_after }))
            }
        }
    }

    /// Cancels a job. Queued jobs are dequeued immediately; running jobs
    /// get a cooperative cancel (they drain to their checkpoint first).
    /// Returns the resulting state, or `None` for an unknown id.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let entry = lock(&self.jobs).get(id).map(Arc::clone)?;
        let mut meta = lock(&entry.meta);
        match meta.state {
            JobState::Queued => {
                self.queue.remove(id);
                meta.state = JobState::Cancelled;
                meta.error = Some("cancelled".to_owned());
                drop(meta);
                let _ = self.journal_append(&JournalEvent::Cancel { id: id.to_owned() });
                event!("serve.cancel", id = id, was = "queued");
                if let Some(t) = &entry.tracer {
                    t.record_event("job.terminal", &[("state", Value::Str("cancelled"))]);
                    t.flush();
                }
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                drop(meta);
                lock(&entry.cancel).cancel();
                event!("serve.cancel", id = id, was = "running");
                Some(JobState::Running) // will transition when the drain lands
            }
            terminal => Some(terminal),
        }
    }

    /// Status of one job as a JSON object, or `None` for an unknown id.
    pub fn status_json(&self, id: &str) -> Option<String> {
        let entry = lock(&self.jobs).get(id).map(Arc::clone)?;
        Some(self.render_status(&entry))
    }

    /// All registered jobs as a JSON array (submission-stable order by
    /// sequence, then id).
    pub fn list_json(&self) -> String {
        let mut entries: Vec<Arc<JobEntry>> = lock(&self.jobs).values().map(Arc::clone).collect();
        entries.sort_by_key(|e| {
            let meta = lock(&e.meta);
            (meta.seq, e.id.clone())
        });
        let mut s = String::from("[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&self.render_status(e));
        }
        s.push(']');
        s
    }

    /// Health snapshot as JSON: liveness (the daemon answered at all) plus
    /// readiness facts — uptime, queue headroom, journal size, and worker
    /// liveness — so an orchestrator can distinguish "busy" from "wedged".
    pub fn healthz_json(&self) -> String {
        let queued = self.queue.len();
        let headroom = self.cfg.queue_cap.saturating_sub(queued);
        let (workers_total, workers_alive) = {
            let threads = lock(&self.threads);
            let alive = threads.iter().filter(|t| !t.is_finished()).count();
            (threads.len(), alive)
        };
        format!(
            "{{\"status\":\"{}\",\"accepting\":{},\"uptime_secs\":{},\"queued\":{queued},\
             \"running\":{},\"jobs\":{},\"recovered\":{},\"queue_cap\":{},\
             \"queue_headroom\":{headroom},\"journal_bytes\":{},\
             \"workers_alive\":{workers_alive},\"workers_total\":{workers_total}}}",
            if self.is_accepting() {
                "ok"
            } else {
                "draining"
            },
            self.is_accepting(),
            clock::since_epoch_us() / 1_000_000,
            self.running_jobs.load(Ordering::Relaxed),
            lock(&self.jobs).len(),
            self.recovered,
            self.cfg.queue_cap,
            self.journal_bytes(),
        )
    }

    /// The service-level instrument handles (exposed for the HTTP listener
    /// and tests).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The trace file path for a job id (the `/campaigns/:id/trace` route
    /// serves these bytes).
    pub fn trace_path_for(&self, id: &str) -> PathBuf {
        jobtrace::trace_path(&self.cfg.state_dir, id)
    }

    /// Journal size on disk, bytes (0 when unreadable).
    fn journal_bytes(&self) -> u64 {
        std::fs::metadata(self.cfg.state_dir.join("jobs.journal")).map_or(0, |m| m.len())
    }

    /// Publishes the sampled gauges (queue depth/headroom, per-state job
    /// counts, journal size, uptime). Called on every `/metrics` scrape so
    /// gauge freshness matches scrape cadence without a sampler thread.
    pub fn refresh_gauges(&self) {
        let queued = self.queue.len();
        self.metrics.queue_depth.set(queued as i64);
        self.metrics
            .queue_headroom
            .set(self.cfg.queue_cap.saturating_sub(queued) as i64);
        self.metrics.journal_bytes.set(self.journal_bytes() as i64);
        self.metrics
            .uptime_seconds
            .set((clock::since_epoch_us() / 1_000_000) as i64);
        let mut counts = [0i64; 7];
        for entry in lock(&self.jobs).values() {
            let state = lock(&entry.meta).state;
            if let Some(c) = counts.get_mut(crate::metrics::state_index(state)) {
                *c += 1;
            }
        }
        for (state, count) in crate::metrics::STATES.iter().zip(counts) {
            self.metrics.set_state_count(*state, count);
        }
    }

    /// Subscribes to a job's progress snapshots. Returns the receiver, the
    /// latest snapshot (if any), and whether the job is already terminal.
    pub fn subscribe(
        &self,
        id: &str,
    ) -> Option<(Receiver<ProgressSnapshot>, Option<ProgressSnapshot>, bool)> {
        let entry = lock(&self.jobs).get(id).map(Arc::clone)?;
        let rx = entry.share.subscribe();
        let latest = entry.share.latest();
        let terminal = lock(&entry.meta).state.is_terminal();
        Some((rx, latest, terminal))
    }

    /// Whether the job is terminal right now (event streams use this to
    /// stop).
    pub fn is_terminal(&self, id: &str) -> Option<bool> {
        let entry = lock(&self.jobs).get(id).map(Arc::clone)?;
        let terminal = lock(&entry.meta).state.is_terminal();
        Some(terminal)
    }

    /// Graceful shutdown: stop accepting, cancel running jobs (they drain
    /// to their checkpoints), keep queued jobs journaled for the next boot,
    /// and join every engine thread.
    pub fn shutdown_and_drain(&self) {
        self.accepting.store(false, Ordering::Release);
        self.shutdown.cancel();
        // Cooperatively cancel in-flight campaigns; their checkpoints make
        // the work resumable, so draining loses nothing.
        for entry in lock(&self.jobs).values() {
            if lock(&entry.meta).state == JobState::Running {
                lock(&entry.cancel).cancel();
            }
        }
        self.queue.close();
        let threads = std::mem::take(&mut *lock(&self.threads));
        for t in threads {
            let _ = t.join();
        }
        event!("serve.shutdown", drained = true);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.is_cancelled()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn journal_append(&self, ev: &JournalEvent) -> Result<(), String> {
        lock(&self.journal).append(ev)
    }

    fn worker_loop(&self) {
        while let Some(q) = self.queue.pop_blocking() {
            if self.shutdown.is_cancelled() {
                // Drain mode: leave the job journaled-as-submitted; the next
                // boot re-enqueues it. Keep pulling so close() terminates.
                continue;
            }
            self.run_job(&q.id);
        }
    }

    fn deadline_loop(&self) {
        while !self.shutdown.is_cancelled() {
            let now = clock::since_epoch_us();
            let running: Vec<Arc<JobEntry>> = lock(&self.jobs)
                .values()
                .filter(|e| lock(&e.meta).state == JobState::Running)
                .map(Arc::clone)
                .collect();
            for entry in running {
                let at = entry.deadline_at_us.load(Ordering::Acquire);
                if at != 0 && now >= at && !entry.deadline_fired.swap(true, Ordering::AcqRel) {
                    event!("serve.deadline", id = &entry.id);
                    lock(&entry.cancel).cancel();
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn run_job(&self, id: &str) {
        let _prof = prof::scope("serve.run_job");
        let Some(entry) = lock(&self.jobs).get(id).map(Arc::clone) else {
            return; // cancelled-and-removed between pop and here
        };
        let queued_at_us;
        {
            let mut meta = lock(&entry.meta);
            if meta.state != JobState::Queued {
                return; // cancelled while queued (raced the dequeue)
            }
            meta.state = JobState::Running;
            queued_at_us = meta.queued_at_us;
        }
        if let Some(t) = &entry.tracer {
            let waited = clock::since_epoch_us().saturating_sub(queued_at_us);
            t.span("queue_wait", if queued_at_us == 0 { 0 } else { waited }, 0);
        }
        if self
            .journal_append(&JournalEvent::Start { id: id.to_owned() })
            .is_err()
        {
            // A dead journal voids the crash-recovery story; fail the job
            // rather than run it unlogged.
            let mut meta = lock(&entry.meta);
            meta.state = JobState::Failed;
            meta.error = Some("journal write failed".to_owned());
            return;
        }
        self.running_jobs.fetch_add(1, Ordering::Relaxed);
        if let Some(ms) = entry.spec.deadline_ms {
            // Saturating: validation bounds `deadline_ms`, but a wrapped
            // deadline would mean instant expiry (or a panicking worker in
            // debug builds), so the arithmetic stays overflow-proof anyway.
            let at = clock::since_epoch_us().saturating_add(ms.saturating_mul(1000));
            entry.deadline_at_us.store(at, Ordering::Release);
        }
        let cancel = lock(&entry.cancel).clone();
        event!("serve.start", id = id, network = &entry.spec.network);

        let backoff = RetryBackoff::default();
        let retries = entry.spec.retries;
        let mut outcome: Result<String, String> = Err("never attempted".to_owned());
        for attempt in 0..=retries {
            lock(&entry.meta).attempts = attempt + 1;
            let run_sw = clock::Stopwatch::start();
            outcome = self.run_attempt(&entry, &cancel);
            if let Some(t) = &entry.tracer {
                t.span(
                    "run",
                    run_sw.elapsed_us().unwrap_or(0),
                    (attempt + 1) as u64,
                );
            }
            match &outcome {
                Ok(_) => break,
                Err(_) if cancel.is_cancelled() => break,
                Err(e) => {
                    event!("serve.retry", id = id, attempt = attempt + 1, error = e);
                    self.metrics.retries.inc();
                    if attempt < retries {
                        let wait = backoff.delay(entry.spec.campaign_seed(), 0, attempt + 1);
                        let backoff_sw = clock::Stopwatch::start();
                        let kept_going = sleep_unless(wait, || cancel.is_cancelled());
                        if let Some(t) = &entry.tracer {
                            t.span(
                                "backoff",
                                backoff_sw.elapsed_us().unwrap_or(0),
                                (attempt + 1) as u64,
                            );
                        }
                        if !kept_going {
                            break;
                        }
                    }
                }
            }
        }
        entry.deadline_at_us.store(0, Ordering::Release);
        self.running_jobs.fetch_sub(1, Ordering::Relaxed);

        let terminal_state = match outcome {
            Ok(summary_json) => {
                let _ = self.journal_append(&JournalEvent::Done {
                    id: id.to_owned(),
                    summary_json: summary_json.clone(),
                });
                let mut meta = lock(&entry.meta);
                meta.state = JobState::Done;
                meta.summary_json = Some(summary_json);
                meta.error = None;
                event!("serve.done", id = id);
                Some(JobState::Done)
            }
            Err(e) if entry.deadline_fired.load(Ordering::Acquire) => {
                let _ = self.journal_append(&JournalEvent::Expire { id: id.to_owned() });
                let mut meta = lock(&entry.meta);
                meta.state = JobState::Expired;
                meta.error = Some(format!("deadline expired: {e}"));
                event!("serve.expired", id = id);
                Some(JobState::Expired)
            }
            Err(_) if self.shutdown.is_cancelled() => {
                // Drained by graceful shutdown: the checkpoint holds the
                // finished cells and the journal still says "submitted", so
                // the next boot resumes the job. Not a terminal state.
                let mut meta = lock(&entry.meta);
                meta.state = JobState::Queued;
                meta.queued_at_us = clock::since_epoch_us();
                event!("serve.drain", id = id);
                None
            }
            Err(e) if cancel.is_cancelled() => {
                let _ = self.journal_append(&JournalEvent::Cancel { id: id.to_owned() });
                let mut meta = lock(&entry.meta);
                meta.state = JobState::Cancelled;
                meta.error = Some(format!("cancelled: {e}"));
                event!("serve.cancelled", id = id);
                Some(JobState::Cancelled)
            }
            Err(e) => {
                let _ = self.journal_append(&JournalEvent::Fail {
                    id: id.to_owned(),
                    reason: e.clone(),
                });
                let mut meta = lock(&entry.meta);
                meta.state = JobState::Failed;
                meta.error = Some(e.clone());
                event!("serve.failed", id = id, error = &e);
                Some(JobState::Failed)
            }
        };
        if let (Some(state), Some(t)) = (terminal_state, &entry.tracer) {
            t.record_event("job.terminal", &[("state", Value::Str(state.as_str()))]);
            t.flush();
        }
    }

    fn run_attempt(&self, entry: &JobEntry, cancel: &CancelToken) -> Result<String, String> {
        let _prof = prof::scope("serve.run_attempt");
        let (engine, trace, metric) = entry.spec.deploy()?;
        let mut spec = entry.spec.campaign_spec(self.cfg.campaign_threads);
        // Resume semantics on every attempt: cells already checkpointed (by
        // a previous attempt, lifetime, or daemon process) are restored, so
        // retries and restarts never redo or alter finished work.
        let checkpoint = self.checkpoint_path(entry);
        // A checkpoint in the retired per-cell format (written by an older
        // daemon) cannot be resumed; the job is deterministic, so it
        // simply reruns from scratch.
        if resilience::is_retired_checkpoint(&checkpoint) {
            let _ = std::fs::remove_file(&checkpoint);
        }
        spec.resilience.checkpoint = Some(CheckpointSpec::resuming(checkpoint));
        spec.resilience.cancel = Some(cancel.clone());
        // The job deadline doubles as the per-injection watchdog bound: any
        // single injection outliving the whole job budget is already lost.
        spec.resilience.injection_deadline = entry.spec.deadline_ms.map(Duration::from_millis);
        spec.resilience.chaos = self.cfg.chaos.clone();
        spec.progress = Some(ProgressSpec {
            interval: Duration::from_millis(100),
            render: false,
            share: Some(entry.share.clone()),
            sink: entry
                .tracer
                .clone()
                .map(|t| SinkHandle(t as Arc<dyn TraceSink>)),
        });
        let accel = fidelity_accel::presets::nvdla_like();
        let analysis = analyze(
            &engine,
            &trace,
            &accel,
            metric.as_ref(),
            PAPER_RAW_FIT_PER_MB,
            &spec,
        )
        .map_err(|e| e.to_string())?;
        Ok(summary_json(&analysis))
    }

    /// Per-job checkpoint path: keyed by the job id (the spec fingerprint),
    /// so recovery after a crash finds it from the journal alone.
    pub fn checkpoint_path(&self, entry: &JobEntry) -> PathBuf {
        self.cfg.state_dir.join(format!("job-{}.ckpt", entry.id))
    }

    /// Checkpoint path for a job id (test and tooling hook).
    pub fn checkpoint_path_for(&self, id: &str) -> PathBuf {
        self.cfg.state_dir.join(format!("job-{id}.ckpt"))
    }

    fn render_status(&self, entry: &JobEntry) -> String {
        let meta = lock(&entry.meta);
        let mut s = String::with_capacity(256);
        s.push_str("{\"id\":");
        escape_into(&mut s, &entry.id);
        s.push_str(",\"state\":\"");
        s.push_str(meta.state.as_str());
        s.push('"');
        let _ = std::fmt::Write::write_fmt(
            &mut s,
            format_args!(
                ",\"priority\":{},\"attempts\":{},\"retries\":{}",
                meta.priority, meta.attempts, entry.spec.retries
            ),
        );
        s.push_str(",\"network\":");
        escape_into(&mut s, &entry.spec.network);
        if let Some(err) = &meta.error {
            s.push_str(",\"error\":");
            escape_into(&mut s, err);
        }
        if let Some(summary) = &meta.summary_json {
            s.push_str(",\"summary\":");
            s.push_str(summary);
        }
        if let Some(snap) = entry.share.latest() {
            s.push_str(",\"progress\":");
            s.push_str(&snap.to_json());
        }
        s.push('}');
        s
    }
}

/// Renders the result summary for a finished job: the FIT breakdown plus
/// aggregate masking statistics with the canonical Wilson 95% interval.
fn summary_json(analysis: &ResilienceAnalysis) -> String {
    let campaign = &analysis.campaign;
    let (masked, output_error, anomaly) = campaign.cells.iter().fold((0, 0, 0), |acc, c| {
        (acc.0 + c.masked, acc.1 + c.output_error, acc.2 + c.anomaly)
    });
    let injections = campaign.total_samples();
    let (lo, hi) = fidelity_obs::stats::wilson95(masked, injections);
    let p = if injections == 0 {
        0.0
    } else {
        masked as f64 / injections as f64
    };
    let mut s = String::with_capacity(256);
    s.push('{');
    let mut num = |key: &str, v: f64, first: bool| {
        if !first {
            s.push(',');
        }
        s.push('"');
        s.push_str(key);
        s.push_str("\":");
        fidelity_obs::json::number_into(&mut s, v);
    };
    num("fit_total", analysis.fit.total, true);
    num("fit_datapath", analysis.fit.datapath, false);
    num("fit_local", analysis.fit.local, false);
    num("fit_global", analysis.fit.global, false);
    num("cells", campaign.cells.len() as f64, false);
    num("cell_failures", campaign.failures.len() as f64, false);
    num("injections", injections as f64, false);
    num("masked", masked as f64, false);
    num("output_error", output_error as f64, false);
    num("anomaly", anomaly as f64, false);
    num("masked_probability", p, false);
    num("masked_lo", lo, false);
    num("masked_hi", hi, false);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fidelity-poison-{tag}-{}", std::process::id()))
    }

    /// A worker panicking while it holds supervisor locks must not wedge
    /// admission: every internal `lock()` recovers from poison, so the
    /// supervisor keeps accepting jobs after the panic.
    #[test]
    fn submit_survives_poisoned_locks() {
        let dir = scratch_dir("submit");
        let _ = std::fs::remove_dir_all(&dir);
        let sup = Supervisor::start(ServeConfig {
            state_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .expect("supervisor starts");

        // Panic a thread mid-hold on the two locks `submit` takes (in
        // submit's own order, jobs before journal). The guards are still
        // live when the panic unwinds, so std marks both mutexes poisoned.
        let s = Arc::clone(&sup);
        let worker = std::thread::spawn(move || {
            let _jobs = s.jobs.lock().unwrap();
            let _journal = s.journal.lock().unwrap();
            panic!("simulated worker crash while holding supervisor locks");
        });
        assert!(worker.join().is_err(), "the worker must actually panic");
        assert!(sup.jobs.is_poisoned(), "jobs mutex should be poisoned");
        assert!(
            sup.journal.is_poisoned(),
            "journal mutex should be poisoned"
        );

        assert!(sup.is_accepting(), "poison must not flip admission off");
        let spec = JobSpec {
            network: "lstm".to_owned(),
            samples: 1,
            threads: 1,
            ..JobSpec::default()
        };
        let (id, outcome) = sup.submit(spec).expect("submit succeeds after poison");
        assert!(matches!(outcome, SubmitOutcome::Accepted), "{outcome:?}");
        assert!(!id.is_empty());

        sup.shutdown_and_drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A state directory written by daemons that still accepted
    /// `target_ci` or `mac_tier` and wrote per-cell checkpoints recovers:
    /// finished jobs naming either field keep their records, unfinished
    /// ones fail by name, and a job journaled with `"mac_tier":"bitwise"`
    /// whose checkpoint is in the retired format reruns fresh under its id.
    #[test]
    fn recovers_a_state_dir_from_earlier_versions() {
        let dir = scratch_dir("earlier-versions");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old_spec = r#"{"network":"lstm","samples":2,"target_ci":0.05}"#;
        let fast_spec = r#"{"network":"lstm","samples":2,"mac_tier":"fast"}"#;
        let fresh = JobSpec {
            network: "lstm".to_owned(),
            samples: 1,
            seed: Some(3),
            threads: 1,
            ..JobSpec::default()
        };
        let fresh_id = fresh.job_id();
        // `fresh` as the previous version journaled it.
        let fresh_json = r#"{"network":"lstm","precision":"fp16","samples":1,"seed":3,"record_events":false,"threads":1,"priority":0,"retries":2,"batch":0,"mac_tier":"bitwise"}"#;
        {
            let mut journal = Journal::create(&dir.join("jobs.journal")).unwrap();
            for ev in [
                JournalEvent::Submit {
                    id: "00000000000000d0".to_owned(),
                    spec_json: old_spec.to_owned(),
                },
                JournalEvent::Done {
                    id: "00000000000000d0".to_owned(),
                    summary_json: "{\"fit_total\":1.5}".to_owned(),
                },
                JournalEvent::Submit {
                    id: "00000000000000a1".to_owned(),
                    spec_json: old_spec.to_owned(),
                },
                JournalEvent::Start {
                    id: "00000000000000a1".to_owned(),
                },
                JournalEvent::Submit {
                    id: "00000000000000f0".to_owned(),
                    spec_json: fast_spec.to_owned(),
                },
                JournalEvent::Done {
                    id: "00000000000000f0".to_owned(),
                    summary_json: "{\"fit_total\":2.5}".to_owned(),
                },
                JournalEvent::Submit {
                    id: "00000000000000f1".to_owned(),
                    spec_json: fast_spec.to_owned(),
                },
                JournalEvent::Submit {
                    id: fresh_id.clone(),
                    spec_json: fresh_json.to_owned(),
                },
            ] {
                journal.append(&ev).unwrap();
            }
        }
        let ckpt = dir.join(format!("job-{fresh_id}.ckpt"));
        std::fs::write(
            &ckpt,
            "fidelity-ckpt v1\nfingerprint 0000000000000000\ndone 0\n",
        )
        .unwrap();

        let sup = Supervisor::start(ServeConfig {
            state_dir: dir.clone(),
            ..ServeConfig::default()
        })
        .expect("an earlier version's state dir recovers");
        let state = |id: &str| lock(&lock(&sup.jobs)[id].meta).state;
        assert_eq!(state("00000000000000d0"), JobState::Done);
        assert_eq!(state("00000000000000a1"), JobState::Failed);
        let failed = sup.status_json("00000000000000a1").unwrap();
        assert!(failed.contains("retired field `target_ci`"), "{failed}");
        assert_eq!(state("00000000000000f0"), JobState::Done);
        assert_eq!(state("00000000000000f1"), JobState::Failed);
        let failed = sup.status_json("00000000000000f1").unwrap();
        assert!(failed.contains("retired field `mac_tier`"), "{failed}");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while sup.is_terminal(&fresh_id) != Some(true) {
            assert!(std::time::Instant::now() < deadline, "job never finished");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(state(&fresh_id), JobState::Done);
        let rewritten = std::fs::read_to_string(&ckpt).unwrap();
        assert!(rewritten.starts_with("fidelity-ackpt v1\n"), "{rewritten}");
        sup.shutdown_and_drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
