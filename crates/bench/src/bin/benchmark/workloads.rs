//! The four workloads: what each deploys, the campaign it runs, and the
//! untraced end-to-end loop of the three campaign workloads.

use std::path::Path;
use std::time::Instant;

use fidelity_accel::presets::nvdla_like;
use fidelity_core::adaptive::AdaptivePlan;
use fidelity_core::analysis::{analyze, ResilienceAnalysis};
use fidelity_core::campaign::CampaignSpec;
use fidelity_core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity_core::outcome::{CorrectnessMetric, TopOneMatch};
use fidelity_core::resilience::CheckpointSpec;
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::precision::Precision;
use fidelity_workloads::metrics::BleuThreshold;
use fidelity_workloads::{classification_suite, transformer_workload, WorkloadKind};

use crate::gates;
use crate::report::RunReport;

/// Compute threads of every campaign (sized for a two-core machine).
pub const THREADS: usize = 2;
/// Batched fault-cone re-ensure cadence of every campaign.
pub const BATCH: usize = 16;
/// Setups per timed batch. A setup takes about a millisecond, too short to
/// time alone on a shared machine. An untraced run times one batch after
/// each rep, and `setup_s` is the median over the batches of each batch's
/// mean setup. Each batch runs on a new thread and starts with one untimed
/// setup: without it, about half the batches read all of their setups half
/// again slower than the rest (measured), and a run's median flipped between
/// the two.
pub const SETUP_REPS: usize = 11;
/// Builder seed of the networks under analysis. `--seed` drives the
/// campaign's sampling, not the model: a user analyzes one fixed network.
pub const BUILD_SEED: u64 = 42;
/// Serve jobs per pass: adaptive mobilenet at this ε, one job per builder
/// seed `1..=SERVE_JOBS` (distinct, so dedup never answers).
pub const SERVE_JOBS: u64 = 24;
pub const SERVE_EPSILON: f64 = 0.2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CertInception,
    CertResnet,
    FixedTransformer,
    ServeMobilenet,
}

/// How a campaign decides how many injections to run.
#[derive(Clone, Copy, Debug)]
pub enum Plan {
    /// Certified ±ε at 95 % confidence.
    Adaptive(f64),
    /// A fixed count per (layer × category) cell.
    Fixed(usize),
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CertInception,
        Workload::CertResnet,
        Workload::FixedTransformer,
        Workload::ServeMobilenet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CertInception => "cert-inception",
            Workload::CertResnet => "cert-resnet",
            Workload::FixedTransformer => "fixed-transformer",
            Workload::ServeMobilenet => "serve-mobilenet",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The campaign plan. Adaptive campaigns stop at the end of the wave in
    /// which the bound first drops below ε, so the injection count jumps by
    /// half at each wave boundary. Each ε sits midway between the bounds two
    /// consecutive waves reach on this network (at least 7 % from the
    /// extremes seen over 20 seeds), so every seed stops after the same wave
    /// and `injections` is exact: inception after 12 waves, resnet after 10.
    pub fn plan(self) -> Plan {
        match self {
            Workload::CertInception => Plan::Adaptive(0.19),
            Workload::CertResnet => Plan::Adaptive(0.345),
            Workload::FixedTransformer => Plan::Fixed(200),
            Workload::ServeMobilenet => Plan::Adaptive(SERVE_EPSILON),
        }
    }

    /// Builder seed of the network this workload's campaign analyzes: the
    /// first serve job's network for serve-mobilenet.
    fn build_seed(self) -> u64 {
        match self {
            Workload::ServeMobilenet => 1,
            _ => BUILD_SEED,
        }
    }

    /// The job spec that asks the daemon for this workload's campaign on
    /// the network built from `seed` (a job's seed drives both the builder
    /// and the sampling).
    pub fn job_json(self, seed: u64) -> String {
        let network = match self {
            Workload::CertInception => "inception",
            Workload::CertResnet => "resnet",
            Workload::FixedTransformer => "transformer",
            Workload::ServeMobilenet => "mobilenet",
        };
        let plan = match self.plan() {
            Plan::Adaptive(eps) => format!("\"epsilon\":{eps}"),
            Plan::Fixed(n) => format!("\"samples\":{n}"),
        };
        format!("{{\"network\":\"{network}\",\"seed\":{seed},{plan},\"batch\":{BATCH}}}")
    }
}

/// A deployed workload: the engine, its golden trace, and the correctness
/// metric that judges its output.
pub struct Deployed {
    pub engine: Engine,
    pub trace: Trace,
    pub metric: Box<dyn CorrectnessMetric>,
}

/// Seconds spent in each setup step.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub build: f64,
    pub deploy: f64,
    pub golden: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build + self.deploy + self.golden
    }
}

/// Builds the workload's network, deploys it at FP16 (`Engine::new`) and
/// records its golden trace (`Engine::trace`), timing each step.
pub fn deploy(w: Workload) -> Result<(Deployed, SetupTimes), String> {
    let t = Instant::now();
    let seed = w.build_seed();
    let wl = match w {
        Workload::CertInception => classification_suite(seed).remove(0),
        Workload::CertResnet => classification_suite(seed).remove(1),
        Workload::FixedTransformer => transformer_workload(seed),
        Workload::ServeMobilenet => classification_suite(seed).remove(2),
    };
    let build = t.elapsed().as_secs_f64();
    let metric: Box<dyn CorrectnessMetric> = match wl.kind {
        WorkloadKind::Translation => Box::new(BleuThreshold::ten_percent()),
        _ => Box::new(TopOneMatch),
    };
    let t = Instant::now();
    let engine = Engine::new(
        wl.network,
        Precision::Fp16,
        std::slice::from_ref(&wl.inputs),
    )
    .map_err(|e| format!("deploy {}: {e}", w.name()))?;
    let deploy = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let trace = engine
        .trace(&wl.inputs)
        .map_err(|e| format!("golden trace {}: {e}", w.name()))?;
    let golden = t.elapsed().as_secs_f64();
    Ok((
        Deployed {
            engine,
            trace,
            metric,
        },
        SetupTimes {
            build,
            deploy,
            golden,
        },
    ))
}

/// Times `reps` deployments of `w` on a thread of their own, after one
/// untimed deployment there (see [`SETUP_REPS`]).
pub fn timed_setups(w: Workload, reps: usize) -> Result<Vec<SetupTimes>, String> {
    on_fresh_stack(|| {
        deploy(w)?;
        (0..reps).map(|_| deploy(w).map(|(_, t)| t)).collect()
    })
}

/// Mean seconds of one batch of [`SETUP_REPS`] deployments of `w`.
fn setup_batch(w: Workload) -> Result<f64, String> {
    let times = timed_setups(w, SETUP_REPS)?;
    Ok(times.iter().map(SetupTimes::total).sum::<f64>() / SETUP_REPS as f64)
}

/// Runs `f` on a new thread. The main thread's stack starts at a random
/// offset within its page. Setups timed on the main thread read about 45 %
/// slower in most processes and not in others; with address randomization
/// off, or on a new thread, whose stack starts at the same offset in every
/// process, they did not (measured on x86-64).
pub fn on_fresh_stack<T: Send>(f: impl FnOnce() -> Result<T, String> + Send) -> Result<T, String> {
    std::thread::scope(|s| s.spawn(f).join()).map_err(|_| "setup thread panicked".to_owned())?
}

/// The campaign spec of workload `w` with campaign seed `seed`.
pub fn campaign_spec(w: Workload, seed: u64, checkpoint: Option<&Path>) -> CampaignSpec {
    let mut spec = CampaignSpec {
        seed,
        threads: THREADS,
        batch: BATCH,
        ..CampaignSpec::default()
    };
    match w.plan() {
        Plan::Adaptive(eps) => spec.adaptive = Some(AdaptivePlan::new(eps)),
        Plan::Fixed(n) => spec.samples_per_cell = n,
    }
    spec.resilience.checkpoint = checkpoint.map(CheckpointSpec::new);
    spec
}

/// One call to `analysis::analyze` — the FIT answer — and its wall-clock
/// seconds.
pub fn timed_analyze(
    d: &Deployed,
    spec: &CampaignSpec,
) -> Result<(f64, ResilienceAnalysis), String> {
    let accel = nvdla_like();
    let t = Instant::now();
    let analysis = analyze(
        &d.engine,
        &d.trace,
        &accel,
        d.metric.as_ref(),
        PAPER_RAW_FIT_PER_MB,
        spec,
    )
    .map_err(|e| format!("campaign failed: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), analysis))
}

/// The bytes that must repeat exactly across reps of one seed: the
/// canonical certificate of an adaptive campaign, which must also have
/// converged, or the checkpoint of a fixed-count one.
pub fn answer_bytes(
    analysis: &ResilienceAnalysis,
    checkpoint: Option<&Path>,
) -> Result<Vec<u8>, String> {
    match (&analysis.campaign.certificate, checkpoint) {
        (Some(cert), _) if !cert.converged => Err(format!(
            "certificate did not converge: bound {} > ε {}",
            cert.total_bound, cert.plan.epsilon
        )),
        (Some(cert), _) => Ok(cert.canonical_bytes()),
        (None, Some(path)) => {
            std::fs::read(path).map_err(|e| format!("read checkpoint {}: {e}", path.display()))
        }
        (None, None) => Err("no certificate and no checkpoint to compare".to_owned()),
    }
}

/// Untraced end to end for cert-inception, cert-resnet and
/// fixed-transformer: `analyze` reps until the next one would overrun
/// `seconds`, each checked against the first and followed by a batch of
/// timed setups.
pub fn e2e_campaign(
    w: Workload,
    seed: u64,
    seconds: f64,
    tmp: &Path,
    report: &mut RunReport,
) -> Result<(), String> {
    let (d, _) = deploy(w)?;
    gates::kernel_self_check(&d.engine, &d.trace, &mut report.problems);
    let checkpoint = matches!(w.plan(), Plan::Fixed(_)).then(|| tmp.join("campaign.ckpt"));
    let spec = campaign_spec(w, seed, checkpoint.as_deref());

    let mut fits = Vec::new();
    let mut injections = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    let window = Instant::now();
    loop {
        let (secs, analysis) = timed_analyze(&d, &spec)?;
        fits.push(secs);
        injections.push(analysis.campaign.total_samples() as f64);
        report.attempted += analysis.campaign.cells.len() as u64;
        report.failed += analysis.campaign.failures.len() as u64;
        let bytes = answer_bytes(&analysis, checkpoint.as_deref())?;
        match &first {
            None => first = Some(bytes),
            Some(f) if *f != bytes => report
                .problems
                .push(format!("rep {} answer differs from rep 1", fits.len())),
            Some(_) => {}
        }
        setups.push(setup_batch(w)?);
        if window.elapsed().as_secs_f64() + secs > seconds {
            break;
        }
    }
    if let Some(bytes) = &first {
        check_reference(w, seed, bytes, &mut report.problems);
    }
    report.push("setup_s", "s", &setups);
    report.push("fit_s", "s", &fits);
    report.push("injections", "count", &injections);
    Ok(())
}

/// Compares a certificate with its pinned reference, when one exists for
/// this workload and seed.
pub fn check_reference(w: Workload, seed: u64, bytes: &[u8], problems: &mut Vec<String>) {
    if seed != gates::REFERENCE_SEED {
        return;
    }
    if let Some(&(_, want)) = gates::CERT_REFERENCE.iter().find(|(n, _)| *n == w.name()) {
        let got = gates::fnv64(bytes);
        if got != want {
            problems.push(format!(
                "certificate FNV {got:016x} != pinned {want:016x} at seed {seed}"
            ));
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
