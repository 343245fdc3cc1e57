//! serve-mobilenet: an in-process `fidelity-serve` daemon driven over its
//! HTTP/JSON API by one closed-loop client (one connection open at a time).

use std::path::{Path, PathBuf};
use std::time::Instant;

use fidelity_dnn::init::SplitMix64;
use fidelity_obs::json::{self, Json};
use fidelity_serve::{serve, Client, ServeConfig, ServeHandle, Supervisor};

use crate::gates;
use crate::report::RunReport;
use crate::workloads::{self, Workload, SERVE_JOBS, SETUP_REPS, THREADS};

const TERMINAL: [&str; 5] = ["done", "failed", "cancelled", "expired", "shed"];

/// A running daemon over its own state directory.
pub struct Daemon {
    handle: Option<ServeHandle>,
    pub client: Client,
    pub dir: PathBuf,
}

impl Daemon {
    /// Boots a daemon (one campaign worker, [`THREADS`] campaign threads) on
    /// an ephemeral local port over a fresh `dir` and checks that
    /// `/healthz` answers 200. Returns it with the boot seconds: journal
    /// recovery, engine threads and a bound listener. The first request's
    /// wait for the accept loop's next poll (up to its 5 ms interval, and
    /// bimodal across processes) is left out; every request pays it, so it
    /// shows in `serve.overhead_ms`.
    pub fn boot(dir: PathBuf) -> Result<(Daemon, f64), String> {
        // Best effort: the directory is normally absent.
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let sup = Supervisor::start(ServeConfig {
            state_dir: dir.clone(),
            queue_cap: 8,
            workers: 1,
            campaign_threads: THREADS,
            chaos: Vec::new(),
        })?;
        let handle = serve(sup, "127.0.0.1:0")?;
        let boot_s = t.elapsed().as_secs_f64();
        let client = Client::new(handle.addr().to_string());
        let daemon = Daemon {
            handle: Some(handle),
            client,
            dir,
        };
        let health = daemon.client.healthz()?;
        if health.status != 200 {
            return Err(format!("healthz {}: {}", health.status, health.body));
        }
        Ok((daemon, boot_s))
    }

    /// Drains the daemon through `POST /shutdown` and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.client.shutdown()?;
        if let Some(h) = self.handle.take() {
            h.wait();
        }
        if reply.status == 202 {
            Ok(())
        } else {
            Err(format!("shutdown {}: {}", reply.status, reply.body))
        }
    }

    /// Size of the write-ahead job journal.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join("jobs.journal")).map_or(0, |m| m.len())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.stop();
            h.wait();
        }
    }
}

/// One finished job as the client saw it.
pub struct JobRun {
    pub id: String,
    /// Submit to the terminal line of the event stream.
    pub latency_s: f64,
    /// Injections behind the job's certificate.
    pub injections: usize,
}

/// Submits workload `w`'s campaign on the network built from `job_seed`,
/// waits on `GET /campaigns/:id/events` until its last line is a terminal
/// status document, then checks the job ended `done` and that its
/// checkpoint re-verifies.
pub fn run_job(d: &Daemon, w: Workload, job_seed: u64) -> Result<JobRun, String> {
    let t = Instant::now();
    let reply = d.client.submit(&w.job_json(job_seed))?;
    if reply.status != 202 {
        return Err(format!("submit {}: {}", reply.status, reply.body));
    }
    let id = json::parse(&reply.body)?
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("no id in {}", reply.body))?
        .to_owned();
    let state = wait_terminal(&d.client, &id)?;
    let latency_s = t.elapsed().as_secs_f64();
    if state != "done" {
        return Err(format!("job {id} ended {state}"));
    }
    let injections = gates::reverify_checkpoint(w.plan(), &d.dir.join(format!("job-{id}.ckpt")))?;
    Ok(JobRun {
        id,
        latency_s,
        injections,
    })
}

/// The stream ends once the campaign's final progress snapshot is out,
/// which can precede the job's terminal state by the FIT computation and
/// the journal write; a stream that ended on a non-terminal line is opened
/// again.
fn wait_terminal(client: &Client, id: &str) -> Result<String, String> {
    for _ in 0..1000 {
        let reply = client.request("GET", &format!("/campaigns/{id}/events"), None)?;
        if reply.status != 200 {
            return Err(format!("events {}: {}", reply.status, reply.body));
        }
        let last = reply.body.lines().rev().find(|l| !l.trim().is_empty());
        let state = last
            .and_then(|l| json::parse(l).ok())
            .and_then(|doc| doc.get("state").and_then(Json::as_str).map(str::to_owned));
        if let Some(state) = state.filter(|s| TERMINAL.contains(&s.as_str())) {
            return Ok(state);
        }
    }
    Err(format!("job {id} never reached a terminal state"))
}

/// The pass's submission order: every builder seed `1..=SERVE_JOBS` once,
/// shuffled by `seed`. The set of jobs, and so the work, is the same for
/// every seed.
pub fn submission_order(seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (1..=SERVE_JOBS).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one job of serve-mobilenet's pass on `d`; a job that fails is a
/// gate problem and counts as failed.
fn job(d: &Daemon, job_seed: u64, report: &mut RunReport) -> Option<JobRun> {
    report.attempted += 1;
    match run_job(d, Workload::ServeMobilenet, job_seed) {
        Ok(run) => Some(run),
        Err(e) => {
            report.failed += 1;
            report.problems.push(e);
            None
        }
    }
}

/// Runs one pass of every job on `d` and returns the finished jobs.
pub fn pass(d: &Daemon, order: &[u64], report: &mut RunReport) -> Vec<JobRun> {
    order.iter().filter_map(|&s| job(d, s, report)).collect()
}

/// Mean boot seconds of [`SETUP_REPS`] daemons, each shut down before the
/// next, timed on a thread of their own after one untimed boot there (see
/// [`SETUP_REPS`]).
fn boot_batch(tmp: &Path) -> Result<f64, String> {
    let boot = |i: usize| {
        let (d, secs) = Daemon::boot(tmp.join(format!("boot-{i}")))?;
        d.shutdown()?;
        Ok(secs)
    };
    let boots: Vec<f64> = workloads::on_fresh_stack(|| {
        boot(SETUP_REPS)?;
        (0..SETUP_REPS).map(boot).collect()
    })?;
    Ok(boots.iter().sum::<f64>() / SETUP_REPS as f64)
}

/// Untraced end to end: passes of the 24 jobs, a fresh daemon each, until
/// the next pass would overrun `seconds`, with a batch of timed daemon boots
/// after each job (see [`SETUP_REPS`]).
pub fn e2e_serve(
    seed: u64,
    seconds: f64,
    tmp: &Path,
    report: &mut RunReport,
) -> Result<(), String> {
    {
        let (d, _) = workloads::deploy(Workload::ServeMobilenet)?;
        gates::kernel_self_check(&d.engine, &d.trace, &mut report.problems);
    }
    // The jobs differ in size, so a pass's median latency would be whichever
    // job ranks in the middle; its mean is steadier.
    let order = submission_order(seed);
    let mut latencies = Vec::new();
    let mut injections = Vec::new();
    let mut boots = Vec::new();
    let window = Instant::now();
    for n in 0.. {
        let (d, _) = Daemon::boot(tmp.join(format!("pass-{n}")))?;
        let t = Instant::now();
        let mut runs = Vec::with_capacity(order.len());
        for &job_seed in &order {
            runs.extend(job(&d, job_seed, report));
            boots.push(boot_batch(tmp)?);
        }
        let pass_s = t.elapsed().as_secs_f64();
        d.shutdown()?;
        latencies.push(runs.iter().map(|r| r.latency_s).sum::<f64>() / runs.len().max(1) as f64);
        injections.push(runs.iter().map(|r| r.injections).sum::<usize>() as f64);
        if window.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }
    report.push("setup_s", "s", &boots);
    report.push("fit_s", "s", &latencies);
    report.push("injections", "count", &injections);
    Ok(())
}
