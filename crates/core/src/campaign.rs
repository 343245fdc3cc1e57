//! Statistical fault-injection campaigns (Fig. 3, step 2).
//!
//! A campaign runs software injections for every (MAC layer × FF category)
//! cell — a *stratum* — of a deployed network and tallies the outcome
//! distribution, yielding the `Prob_SWmask(cat, r)` inputs of Eq. 2.
//!
//! There is one executor. It runs a campaign as waves of per-stratum
//! quotas: a fixed-count spec is a plan of exactly one wave that gives
//! `samples_per_cell` to every stratum and has no stop rule, and an adaptive
//! spec ([`crate::adaptive`]) runs ε-driven waves until its FIT bound holds.
//! A wave's strata are independent, so they are sharded across the
//! `fidelity-par` work-stealing pool (`spec.threads` workers), each worker
//! evaluating injections through its own [`BatchedInjectionRunner`]. Every
//! stratum derives its RNG stream from `(campaign seed, cell id)`, never
//! from shared state, making campaigns bit-reproducible regardless of
//! worker count or steal order. Rows go through an ordered commit buffer,
//! so the on-disk wave log is always the same deterministic prefix a serial
//! run would have written.
//!
//! Long campaigns run under the fault-tolerance policy of
//! [`crate::resilience`]: strata execute inside a panic boundary with
//! bounded retries, each injection can carry a wall-clock watchdog, and
//! every finished stratum is checkpointed so an interrupted campaign resumes
//! exactly where it stopped ([`CampaignRunner::resume_from`]).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_accel::ff::FfCategory;
use fidelity_dnn::graph::{golden_key, Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::DnnError;
use fidelity_obs::event;
use fidelity_obs::metrics::{Counter, Histogram};
use fidelity_obs::progress::{CampaignProgress, CategoryKind, OutcomeKind, ProgressSpec};
use fidelity_obs::record_log::RecordLog;
use fidelity_obs::trace::{self, Field, Value};
use fidelity_obs::{clock, prof, timing_enabled};
use fidelity_par::{sleep_unless, CancelToken, PoolSpec, ShardPlan, WorkStealPool};

use crate::adaptive::{
    allocate_even, allocate_neyman, build_certificate, stratum_terms, stratum_weights,
    AdaptivePlan, ConfidenceCertificate, WAVE_FLOOR, WAVE_MIN_BUDGET,
};
use crate::batch::BatchedInjectionRunner;
use crate::models::{model_for, SoftwareFaultModel};
use crate::outcome::{CorrectnessMetric, Outcome};
use crate::resilience::{
    campaign_fingerprint, cat_code, create_log, fold_wave, parse_log, write_cert_footer, write_row,
    write_wave, write_wave_end, write_wave_start, CellFailure, CertFooter, ChaosMode, ChaosSpec,
    FailureReason, LogPlan, ResilienceSpec, StratumMeta, StratumRow, WaveBlock, WaveFail,
};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Injection samples per (layer × category) cell: the one wave of a
    /// fixed-count campaign. Ignored when `adaptive` is set.
    pub samples_per_cell: usize,
    /// Base RNG seed; campaigns are deterministic in (seed, spec).
    pub seed: u64,
    /// Worker threads. Results and checkpoint bytes are bit-identical for
    /// any value.
    pub threads: usize,
    /// Whether to keep per-injection events (needed for the Key-Result-5
    /// perturbation analysis; costs memory and checkpoint bytes).
    /// Fixed-count campaigns only.
    pub record_events: bool,
    /// Fault-tolerance policy: panic isolation, watchdogs, checkpointing.
    pub resilience: ResilienceSpec,
    /// Live progress telemetry to stderr (`--progress`). `None` keeps the
    /// campaign silent. Excluded from the checkpoint fingerprint: reporting
    /// never changes the statistics.
    pub progress: Option<ProgressSpec>,
    /// Batched fault-cone evaluation (`--batch`), on or off. Any value
    /// `> 0` has each worker install a read-only golden snapshot of the
    /// trace in its workspace and evaluate every injection as a sparse
    /// delta over its downstream cone ([`Engine::resume_delta`]); a
    /// snapshot lost to a panic is re-installed before the next injection.
    /// `0` sends every injection through the dense resume. Pure
    /// evaluation policy: per-cell RNG streams and every produced value
    /// are bit-identical either way, so the field is excluded from the
    /// checkpoint fingerprint.
    pub batch: usize,
    /// Confidence-driven adaptive campaign plan (`--adaptive`). When set,
    /// the single fixed wave is replaced by wave-based sequential sampling
    /// that terminates once the total Eq.-2 FIT uncertainty is below the
    /// plan's ±ε (see [`crate::adaptive`]); the plan's parameters are
    /// campaign identity and enter the checkpoint fingerprint. Mutually
    /// exclusive with `record_events`.
    pub adaptive: Option<AdaptivePlan>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            samples_per_cell: 200,
            seed: 0xF1DE_117F,
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
            record_events: false,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        }
    }
}

/// One recorded injection (when `record_events` is set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionEvent {
    /// Number of faulty neurons at the corrupted layer.
    pub faulty_neurons: usize,
    /// Largest layer-level perturbation.
    pub max_perturbation: f32,
    /// Outcome class.
    pub outcome: Outcome,
}

/// Outcome tally of one (layer × category) cell.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Target node index.
    pub node: usize,
    /// Target layer name.
    pub layer: String,
    /// FF category.
    pub category: FfCategory,
    /// The software fault model applied.
    pub model: SoftwareFaultModel,
    /// Samples run.
    pub samples: usize,
    /// Masked outcomes.
    pub masked: usize,
    /// Application output errors.
    pub output_error: usize,
    /// System anomalies.
    pub anomaly: usize,
    /// Per-injection events (empty unless requested).
    pub events: Vec<InjectionEvent>,
}

impl CellStats {
    /// `Prob_SWmask` for this cell. Global-control cells are 0 by the
    /// framework's definition.
    pub fn prob_swmask(&self) -> f64 {
        if matches!(self.model, SoftwareFaultModel::GlobalControl) {
            return 0.0;
        }
        if self.samples == 0 {
            return 0.0;
        }
        self.masked as f64 / self.samples as f64
    }
}

/// All cells of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-cell statistics, ordered by (node, census order). A cell listed
    /// in [`CampaignResult::failures`] by this run carries the partial
    /// statistics of its last attempt (possibly zero samples); one frozen
    /// by an earlier, resumed run carries its committed tally.
    pub cells: Vec<CellStats>,
    /// Cells that exhausted their retries and degraded to partial
    /// statistics. Empty for a healthy campaign.
    pub failures: Vec<CellFailure>,
    /// The machine-checkable confidence certificate of an adaptive campaign
    /// (per-stratum n, p̂, CI half-width, FIT contribution ± bound, total ε
    /// achieved). `None` for fixed-count campaigns.
    pub certificate: Option<ConfidenceCertificate>,
}

impl CampaignResult {
    /// Total injections run.
    pub fn total_samples(&self) -> usize {
        self.cells.iter().map(|c| c.samples).sum()
    }

    /// `Prob_SWmask(cat, r)` for a given node, when the cell exists.
    pub fn prob_swmask(&self, node: usize, category: FfCategory) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.node == node && c.category == category)
            .map(CellStats::prob_swmask)
    }

    /// Target node indices covered by the campaign.
    pub fn nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.cells.iter().map(|c| c.node).collect();
        v.dedup();
        v
    }
}

/// Runs a campaign over every MAC layer of the deployed engine and every FF
/// category of the accelerator's census, honoring `spec.resilience`.
///
/// Convenience wrapper around [`CampaignRunner::run`].
///
/// # Errors
///
/// Returns [`DnnError::Campaign`] when the failure budget is exhausted or
/// the checkpoint is unusable.
pub fn run_campaign(
    engine: &Engine,
    trace: &Trace,
    accel: &AcceleratorConfig,
    metric: &dyn CorrectnessMetric,
    spec: &CampaignSpec,
) -> Result<CampaignResult, DnnError> {
    CampaignRunner::new(engine, trace, accel, metric, spec.clone()).run()
}

/// Applies a chaos directive to sample `i` of a stratum.
fn apply_chaos(chaos: Option<&ChaosSpec>, i: usize, node: usize, category: FfCategory) {
    if let Some(c) = chaos {
        match c.mode {
            ChaosMode::PanicAtSample(k) if i == k => {
                // Deliberate: exercises the panic-isolation path.
                // statcheck:allow(panic-path)
                panic!("chaos: deliberate panic at sample {i} of cell (node {node}, {category})");
            }
            ChaosMode::PanicAtSample(_) => {}
            ChaosMode::DelayPerInjection(d) => std::thread::sleep(d),
        }
    }
}

/// The open checkpoint file behind an ordered commit buffer.
///
/// Workers finish a wave's strata out of order, but the file must stay a
/// deterministic prefix of what a serial run writes — otherwise the bytes
/// (and any resumed campaign's view of them) would depend on scheduling.
/// Finished strata therefore park in `pending` until every lower-indexed
/// task of the wave has been committed or skipped; the wave-scoped cursor
/// then drains them to disk in stratum order. A failed stratum commits as
/// a skip: the cursor advances without writing a row, and its `wfail` line
/// is written at the wave's barrier.
struct OrderedCommit {
    writer: RecordLog,
    /// Lowest task index of the current wave not yet committed or skipped.
    cursor: usize,
    /// Out-of-order completions waiting for the cursor: the stratum's row,
    /// or `None` for a skip.
    pending: BTreeMap<usize, Option<(usize, StratumRow)>>,
}

impl OrderedCommit {
    /// Opens wave `index`: writes its `wave` line and resets the cursor.
    fn start_wave(&mut self, index: usize) -> io::Result<()> {
        self.cursor = 0;
        self.pending.clear();
        write_wave_start(&mut self.writer, index)
    }

    /// Parks one finished (`Some`) or failed (`None`) task and drains every
    /// now-contiguous entry to disk in task order, flushing what it wrote.
    /// Returns the strata whose rows this call wrote.
    fn commit(
        &mut self,
        task: usize,
        entry: Option<(usize, StratumRow)>,
    ) -> io::Result<Vec<usize>> {
        self.pending.insert(task, entry);
        let mut written = Vec::new();
        while let Some(slot) = self.pending.remove(&self.cursor) {
            if let Some((stratum, row)) = slot {
                write_row(&mut self.writer, stratum, &row)?;
                written.push(stratum);
            }
            self.cursor += 1;
        }
        if !written.is_empty() {
            self.writer.flush()?;
        }
        Ok(written)
    }

    /// Closes wave `index` at its barrier.
    fn end_wave(&mut self, index: usize, fails: &[WaveFail]) -> io::Result<()> {
        write_wave_end(&mut self.writer, index, fails)?;
        self.writer.flush()
    }

    /// Seals a finished adaptive campaign with its certificate footer.
    fn seal(&mut self, footer: &CertFooter) -> io::Result<()> {
        write_cert_footer(&mut self.writer, footer)?;
        self.writer.flush()
    }
}

/// Cached handles into the global metrics registry — resolved once per
/// campaign so the hot path pays one relaxed `fetch_add` per increment, not
/// a registry lock.
struct CampaignMetrics {
    injections: Arc<Counter>,
    cells_done: Arc<Counter>,
    retries: Arc<Counter>,
    watchdog: Arc<Counter>,
    /// Per-injection latency (recorded only while timing is enabled).
    injection_ns: Arc<Histogram>,
}

impl CampaignMetrics {
    fn handles() -> Self {
        CampaignMetrics {
            injections: fidelity_obs::metrics::counter("campaign.injections"),
            cells_done: fidelity_obs::metrics::counter("campaign.cells_done"),
            retries: fidelity_obs::metrics::counter("campaign.cell_retries"),
            watchdog: fidelity_obs::metrics::counter("campaign.watchdog_fires"),
            injection_ns: fidelity_obs::metrics::histogram("campaign.injection_ns"),
        }
    }
}

/// Maps the accelerator's FF category onto the coarse kind the
/// dependency-free progress reporter tallies.
fn category_kind(cat: FfCategory) -> CategoryKind {
    match cat {
        FfCategory::Datapath { .. } => CategoryKind::Datapath,
        FfCategory::LocalControl => CategoryKind::LocalControl,
        FfCategory::GlobalControl => CategoryKind::GlobalControl,
    }
}

fn outcome_kind(outcome: Outcome) -> OutcomeKind {
    match outcome {
        Outcome::Masked => OutcomeKind::Masked,
        Outcome::OutputError => OutcomeKind::OutputError,
        Outcome::SystemAnomaly => OutcomeKind::Anomaly,
    }
}

/// The published result of one stratum's wave task: its tally after the
/// quota, or the last attempt's partial tally and why every attempt failed.
type TaskOutcome = Result<StratumRow, (StratumRow, FailureReason)>;

/// A campaign bound to its engine, workload trace, accelerator, and spec —
/// the stateful entry point when checkpoint/resume or failure reporting is
/// needed ([`run_campaign`] remains the one-shot convenience).
pub struct CampaignRunner<'a> {
    engine: &'a Engine,
    trace: &'a Trace,
    accel: &'a AcceleratorConfig,
    metric: &'a dyn CorrectnessMetric,
    spec: CampaignSpec,
}

impl std::fmt::Debug for CampaignRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CampaignRunner(net={}, samples_per_cell={})",
            self.engine.network().name(),
            self.spec.samples_per_cell
        )
    }
}

impl<'a> CampaignRunner<'a> {
    /// Binds a campaign to its inputs.
    pub fn new(
        engine: &'a Engine,
        trace: &'a Trace,
        accel: &'a AcceleratorConfig,
        metric: &'a dyn CorrectnessMetric,
        spec: CampaignSpec,
    ) -> Self {
        CampaignRunner {
            engine,
            trace,
            accel,
            metric,
            spec,
        }
    }

    /// Runs the campaign on `spec.threads` workers. When the spec's
    /// checkpoint has `resume` set and a compatible checkpoint exists, its
    /// committed work is loaded from it.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] when the failure budget is exhausted
    /// or the checkpoint is unusable.
    pub fn run(&self) -> Result<CampaignResult, DnnError> {
        let _prof = prof::scope("campaign.run");
        let resume = self
            .spec
            .resilience
            .checkpoint
            .as_ref()
            .filter(|c| c.resume)
            .map(|c| c.path.clone());
        self.execute(resume.as_deref())
    }

    /// Runs the campaign, first loading every committed row from the
    /// checkpoint at `path` (which must have been written by a campaign with
    /// the same fingerprint: same network, seed, sampling plan). Strata are
    /// deterministic in (seed, node, category) and their RNG positions ride
    /// in the rows, so the combined result is bit-identical to an
    /// uninterrupted run. A missing file simply runs the whole campaign;
    /// progress keeps being checkpointed to the spec's configured path, or
    /// to `path` when none is configured.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] on a fingerprint mismatch or corrupt
    /// checkpoint, and for an exhausted failure budget as in
    /// [`CampaignRunner::run`].
    pub fn resume_from(&self, path: &Path) -> Result<CampaignResult, DnnError> {
        self.execute(Some(path))
    }

    /// The campaign's strata: every MAC node × every modeled FF category,
    /// each with its Eq.-2 identity weight.
    fn strata(&self) -> Vec<StratumMeta> {
        let network = self.engine.network();
        let mut strata = Vec::new();
        for node in
            (0..network.node_count()).filter(|&i| self.engine.mac_spec(i, self.trace).is_some())
        {
            for (category, _) in self.accel.census.iter() {
                if let Some(model) = model_for(category, self.accel) {
                    let layer = network.layer(node).name().to_owned();
                    strata.push(StratumMeta {
                        node,
                        category,
                        model,
                        weight: 0.0,
                        layer,
                    });
                }
            }
        }
        let ids: Vec<(usize, FfCategory)> = strata.iter().map(|m| (m.node, m.category)).collect();
        for (meta, weight) in
            strata
                .iter_mut()
                .zip(stratum_weights(self.engine, self.trace, self.accel, &ids))
        {
            meta.weight = weight;
        }
        strata
    }

    /// The one executor. A fixed-count spec is a plan of one wave that
    /// gives `samples_per_cell` to every stratum; an adaptive spec runs
    /// ε-driven waves until its bound holds. Each wave's rows commit per
    /// stratum, in stratum order, to the wave log.
    #[allow(clippy::too_many_lines)] // one linear pipeline: setup, resume, wave loop, result
    fn execute(&self, resume_path: Option<&Path>) -> Result<CampaignResult, DnnError> {
        let spec = &self.spec;
        let bad = |message: String| DnnError::Campaign { message };
        if spec.adaptive.is_some() && spec.record_events {
            return Err(bad(
                "adaptive campaigns do not record per-injection events \
                 (strata sizes are data-dependent); drop record_events"
                    .into(),
            ));
        }
        let (log_plan, z) = match &spec.adaptive {
            Some(plan) => (
                LogPlan::Adaptive {
                    plan: plan.clone(),
                    floor: WAVE_FLOOR,
                },
                plan.validated_z()?,
            ),
            None => (
                LogPlan::Fixed {
                    samples_per_cell: spec.samples_per_cell,
                },
                0.0,
            ),
        };
        let fixed = matches!(log_plan, LogPlan::Fixed { .. });
        let strata = self.strata();
        let ids: Vec<(usize, FfCategory)> = strata.iter().map(|m| (m.node, m.category)).collect();
        let fingerprint = campaign_fingerprint(spec, self.engine.network().name(), &ids);

        // Each stratum owns an RNG stream derived from (seed, node,
        // category); its position rides in every committed row.
        let mut rows: Vec<StratumRow> = strata
            .iter()
            .map(|p| StratumRow {
                rng_state: spec.seed
                    ^ (p.node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ cat_tag(p.category),
                ..StratumRow::default()
            })
            .collect();
        let mut frozen = vec![false; strata.len()];
        let mut failures: Vec<(usize, CellFailure)> = Vec::new();
        // Failed strata report their last attempt's partial tally; the
        // checkpoint and certificate keep the committed one.
        let mut reported: Vec<Option<StratumRow>> = vec![None; strata.len()];
        let mut committed: Vec<WaveBlock> = Vec::new();
        let mut open: Option<WaveBlock> = None;
        let mut resumed_footer: Option<CertFooter> = None;

        // Resume: fold every closed wave into the tallies under the row
        // invariants; the open wave's rows are checked against its quotas
        // when the loop reaches it.
        let resumed = match resume_path.filter(|p| p.exists()) {
            Some(path) => {
                let file = File::open(path)
                    .map_err(|e| bad(format!("cannot open checkpoint {}: {e}", path.display())))?;
                // A file that ends inside its preamble holds no committed work.
                parse_log(BufReader::new(file))?.map(|log| (path, log))
            }
            None => None,
        };
        let rewrite = resumed.is_some();
        if let Some((path, log)) = resumed {
            if log.fingerprint != fingerprint {
                return Err(bad(format!(
                    "checkpoint {} belongs to a different campaign \
                     (fingerprint {:016x}, expected {:016x})",
                    path.display(),
                    log.fingerprint,
                    fingerprint
                )));
            }
            if log.plan != log_plan {
                return Err(bad(format!(
                    "checkpoint {} was written by a different sampling plan",
                    path.display()
                )));
            }
            if log.strata.len() != strata.len()
                || log.strata.iter().zip(&strata).any(|(m, mine)| {
                    m.node != mine.node
                        || m.category != mine.category
                        || m.weight.to_bits() != mine.weight.to_bits()
                })
            {
                return Err(bad(format!(
                    "checkpoint {} stratum table does not match the plan",
                    path.display()
                )));
            }
            let corrupt = |e: String| bad(format!("corrupt checkpoint {}: {e}", path.display()));
            for block in &log.waves {
                fold_wave(block, &log_plan, &strata, &mut rows, &mut frozen).map_err(corrupt)?;
                for f in &block.fails {
                    let failure = strata[f.stratum].failure(
                        f.attempts,
                        rows[f.stratum].samples,
                        f.reason.clone(),
                    );
                    failures.push((f.stratum, failure));
                }
            }
            committed = log.waves;
            open = log.open;
            resumed_footer = log.footer;
        }

        // Telemetry: the campaign lifecycle is traced, counted, and (when
        // asked for) rendered live. All of it is a no-op without a sink or
        // `spec.progress`.
        let campaign_sw = clock::Stopwatch::start_if(timing_enabled());
        let metrics = CampaignMetrics::handles();
        let net = self.engine.network().name().to_owned();
        let workers = spec.threads.clamp(1, strata.len().max(1));
        let epsilon = spec.adaptive.as_ref().map_or(0.0, |a| a.epsilon);
        event!(
            "campaign.start",
            net = &net,
            cells = strata.len(),
            samples_per_cell = spec.samples_per_cell,
            adaptive = !fixed,
            epsilon = epsilon,
            seed = spec.seed,
            threads = workers,
        );
        let progress = spec.progress.as_ref().map(|p| {
            let per_cell = match &spec.adaptive {
                Some(a) => a.max_injections / strata.len().max(1),
                None => spec.samples_per_cell,
            };
            CampaignProgress::new(
                net.clone(),
                p,
                strata.len(),
                per_cell,
                spec.resilience.failure_budget,
            )
        });
        // Per-job trace outlet: when a service attached a sink to the
        // progress spec (the daemon's per-job trace file), lifecycle events
        // are mirrored there in addition to the global trace sink. The sink
        // stamps its own identity fields (trace id, job id, pid).
        let job_sink = spec.progress.as_ref().and_then(|p| p.sink.clone());
        let mirror = |name: &str, fields: &[Field<'_>]| {
            if let Some(h) = &job_sink {
                trace::record_now(h.sink(), name, fields);
            }
        };
        mirror(
            "campaign.start",
            &[
                ("net", Value::Str(&net)),
                ("cells", Value::U64(strata.len() as u64)),
                ("adaptive", Value::U64(u64::from(!fixed))),
                ("threads", Value::U64(workers as u64)),
            ],
        );
        // Strata holding a committed row, in a closed wave or the open one.
        let open_rows = open.as_ref().map_or(&[][..], |b| &b.rows[..]);
        let restored = (0..strata.len())
            .filter(|&i| rows[i].samples > 0 || open_rows.iter().any(|(s, _)| *s == i))
            .count();
        if !committed.is_empty() || restored > 0 {
            // A resumed campaign announces where it picks up instead of
            // silently restarting the display from zero.
            let remaining = strata.len().saturating_sub(restored);
            event!(
                "campaign.resume",
                net = &net,
                restored = restored,
                remaining = remaining,
                waves = committed.len(),
                injections = rows.iter().map(|r| r.samples).sum::<usize>(),
            );
            if let (true, Some(p)) = (fixed, &progress) {
                p.set_restored(restored);
            }
            mirror(
                "campaign.resume",
                &[
                    ("restored", Value::U64(restored as u64)),
                    ("remaining", Value::U64(remaining as u64)),
                ],
            );
        }

        // Canonical rewrite: the checkpoint is recreated from the closed
        // waves (the open wave's rows re-commit when it restarts), so a torn
        // tail from the previous process never lingers and resumed files
        // stay bit-identical to uninterrupted ones. A log that held
        // committed records is rewritten beside itself and renamed over
        // it, so a kill mid-rewrite keeps every committed wave; a fresh log
        // is created in place.
        let ckpt_path = spec
            .resilience
            .checkpoint
            .as_ref()
            .map(|c| c.path.as_path())
            .or(resume_path);
        let io_err = |what: &str, e: io::Error| DnnError::Campaign {
            message: format!("checkpoint {what} failed: {e}"),
        };
        let ckpt: Option<Mutex<OrderedCommit>> = match ckpt_path {
            Some(path) => {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent).map_err(|e| io_err("directory creation", e))?;
                }
                let target = match rewrite {
                    true => path.with_added_extension("tmp"),
                    false => path.to_owned(),
                };
                let mut writer = create_log(&target, fingerprint, &log_plan, &strata)
                    .map_err(|e| io_err("creation", e))?;
                for block in &committed {
                    write_wave(&mut writer, block).map_err(|e| io_err("wave write", e))?;
                }
                match rewrite {
                    true => writer.commit_rename(path),
                    false => writer.flush(),
                }
                .map_err(|e| io_err("rewrite", e))?;
                Some(Mutex::new(OrderedCommit {
                    writer,
                    cursor: 0,
                    pending: BTreeMap::new(),
                }))
            }
            None => None,
        };

        let abort = AtomicBool::new(false);
        let failure_count = AtomicUsize::new(failures.len());
        let errors: Mutex<Vec<DnnError>> = Mutex::new(Vec::new());
        let fatal = |e: DnnError| {
            lock(&errors).push(e);
            abort.store(true, Ordering::Relaxed);
        };
        // Records a task's verdict in the ordered commit buffer: `Some` is
        // a finished stratum's row to persist, `None` a failed one the
        // cursor must skip. Either way the cursor only moves in task order,
        // so the checkpoint bytes cannot depend on scheduling.
        let commit = |task: usize, entry: Option<(usize, StratumRow)>| {
            if let Some(state) = &ckpt {
                match lock(state).commit(task, entry) {
                    Ok(written) => {
                        for &stratum in &written {
                            event!(
                                "checkpoint.cell",
                                idx = stratum,
                                node = strata[stratum].node
                            );
                        }
                        if !written.is_empty() {
                            event!("checkpoint.flush", upto = task);
                        }
                    }
                    Err(e) => fatal(io_err("row write", e)),
                }
            }
        };

        let max_attempts = spec.resilience.max_retries_per_cell + 1;
        let cancel = spec.resilience.cancel.as_ref();
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let pool = WorkStealPool::new(PoolSpec {
            workers,
            seed: spec.seed,
            plan: ShardPlan::Balanced,
            cancel: spec.resilience.cancel.clone(),
        });

        let mut wave = committed.len();
        // A checkpoint that already carries its certificate footer is a
        // finished campaign: re-running waves would extend a sealed result.
        while resumed_footer.is_none() {
            let next = next_wave(
                &log_plan,
                z,
                spec.seed,
                wave,
                &strata,
                &rows,
                &frozen,
                progress.as_ref(),
            );
            let Some((quotas, bound)) = next else {
                if open.is_some() {
                    return Err(bad(format!(
                        "corrupt checkpoint: wave {wave} is open but the plan stops before it"
                    )));
                }
                break;
            };
            // Rows the open wave committed before a kill: each must be the
            // stratum's pre-wave tally plus its recomputed quota.
            let outcomes: Vec<Mutex<Option<TaskOutcome>>> =
                quotas.iter().map(|_| Mutex::new(None)).collect();
            let mut restored: Vec<(usize, usize, StratumRow)> = Vec::new();
            if let Some(mut block) = open.take() {
                for (idx, row) in &block.rows {
                    let task = quotas.iter().position(|&(s, _)| s == *idx);
                    let Some(task) = task else {
                        return Err(bad(format!(
                            "corrupt checkpoint: wave {wave} has a row for stratum {idx}, \
                             which the wave did not allocate"
                        )));
                    };
                    let want = rows[*idx].samples + quotas[task].1;
                    if row.samples != want {
                        return Err(bad(format!(
                            "corrupt checkpoint: wave {wave} row for stratum {idx} has {} \
                             samples, expected {want}",
                            row.samples
                        )));
                    }
                    restored.push((task, *idx, row.clone()));
                }
                // A torn barrier's `wfail` lines do not count: those strata
                // have no row and simply run again.
                block.fails.clear();
                fold_wave(&block, &log_plan, &strata, &mut rows, &mut frozen)
                    .map_err(|e| bad(format!("corrupt checkpoint: {e}")))?;
            }
            let budget: usize = quotas.iter().map(|&(_, q)| q).sum();
            event!(
                "campaign.wave",
                net = &net,
                wave = wave,
                strata = quotas.len(),
                budget = budget,
                bound = bound,
            );
            mirror(
                "campaign.wave",
                &[
                    ("wave", Value::U64(wave as u64)),
                    ("strata", Value::U64(quotas.len() as u64)),
                ],
            );
            if let Some(state) = &ckpt {
                lock(state)
                    .start_wave(wave)
                    .map_err(|e| io_err("wave write", e))?;
            }
            for (task, stratum, row) in restored {
                commit(task, Some((stratum, row.clone())));
                *lock(&outcomes[task]) = Some(Ok(row));
            }

            // Run the wave. Tasks read the committed tallies immutably and
            // publish into their own slot; the barrier folds the slots back
            // in stratum order, so nothing about the result depends on
            // scheduling.
            let rows_ref = &rows;
            pool.run_with(
                quotas.len(),
                |worker| (worker as u64, BatchedInjectionRunner::new(spec.batch)),
                |(worker, runner), task| {
                    // Advisory early-exit: a stale read runs at most one
                    // extra stratum; the abort's error state is sequenced by
                    // the `errors` lock, not this flag.
                    // statcheck:allow(relaxed-flag)
                    if abort.load(Ordering::Relaxed) || cancelled() {
                        return;
                    }
                    if lock(&outcomes[task]).is_some() {
                        return; // restored from the checkpoint
                    }
                    let (sidx, quota) = quotas[task];
                    let plan = &strata[sidx];
                    let cat = cat_code(plan.category);
                    // Per task, not per injection: a task is many
                    // injections, so the guard's cost stays off the hot path.
                    let _cell_prof = prof::scope("campaign.run;campaign.cell");
                    let cell_sw = clock::Stopwatch::start_if(timing_enabled());
                    let mut last: Option<(StratumRow, FailureReason)> = None;
                    let mut done = None;
                    for attempt in 0..max_attempts {
                        // Each attempt restarts from the committed tally and
                        // RNG position, so a successful retry is
                        // bit-identical to a clean first run.
                        let mut row = rows_ref[sidx].clone();
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            self.run_quota(
                                &mut row,
                                plan,
                                quota,
                                progress.as_ref(),
                                &metrics,
                                runner,
                            )
                        }));
                        match run {
                            Ok(Ok(())) => {
                                done = Some(row);
                                break;
                            }
                            Ok(Err(e)) => last = Some((row, FailureReason::Error(e.to_string()))),
                            Err(payload) => {
                                last = Some((row, FailureReason::Panic(panic_text(&*payload))));
                            }
                        }
                        if attempt + 1 < max_attempts {
                            metrics.retries.inc();
                            if let Some(p) = &progress {
                                p.on_retry();
                            }
                            event!(
                                "cell.retry",
                                node = plan.node,
                                cat = &cat,
                                attempt = attempt + 1,
                                reason = last.as_ref().map_or("", |(_, r)| r.kind()),
                            );
                            // Back off before the retry; the wait is derived
                            // from (seed, stratum, retry) so the schedule
                            // replays exactly. A cancellation or abort cuts
                            // the wait short — the stratum then lands on the
                            // failure path with its partial tally.
                            let wait =
                                spec.resilience
                                    .retry_backoff
                                    .delay(spec.seed, sidx, attempt + 1);
                            // Advisory wake-early hint, same contract as the
                            // task-entry abort check.
                            // statcheck:allow(relaxed-flag)
                            if !sleep_unless(wait, || abort.load(Ordering::Relaxed) || cancelled())
                            {
                                break;
                            }
                        }
                    }
                    let dur_us = cell_sw.elapsed_us().unwrap_or(0);
                    let outcome = if let Some(row) = done {
                        event!(
                            "cell.done",
                            node = plan.node,
                            cat = &cat,
                            samples = row.samples,
                            masked = row.masked,
                            output_error = row.output_error,
                            anomaly = row.anomaly,
                            elapsed_us = dur_us,
                        );
                        metrics.cells_done.inc();
                        if let (true, Some(p)) = (fixed, &progress) {
                            p.on_cell_done();
                        }
                        mirror(
                            "cell.done",
                            &[
                                ("node", Value::U64(plan.node as u64)),
                                ("cat", Value::Str(&cat)),
                                ("samples", Value::U64(row.samples as u64)),
                                ("masked", Value::U64(row.masked as u64)),
                                ("worker", Value::U64(*worker)),
                                ("dur_us", Value::U64(dur_us)),
                            ],
                        );
                        commit(task, Some((sidx, row.clone())));
                        Ok(row)
                    } else {
                        // Unreachable fallback: `last` is always set when
                        // no attempt completed (max_attempts >= 1).
                        let (partial, reason) = last.unwrap_or_else(|| {
                            (
                                rows_ref[sidx].clone(),
                                FailureReason::Error("stratum never ran".into()),
                            )
                        });
                        let failed_so_far = failure_count.fetch_add(1, Ordering::Relaxed) + 1;
                        event!(
                            "cell.failed",
                            node = plan.node,
                            cat = &cat,
                            attempts = max_attempts,
                            samples = partial.samples,
                            reason = reason.kind(),
                        );
                        if let Some(p) = &progress {
                            p.on_cell_failed();
                        }
                        mirror(
                            "cell.failed",
                            &[
                                ("node", Value::U64(plan.node as u64)),
                                ("cat", Value::Str(&cat)),
                                ("reason", Value::Str(reason.kind())),
                                ("worker", Value::U64(*worker)),
                                ("dur_us", Value::U64(dur_us)),
                            ],
                        );
                        // No row: the cursor skips the stratum, and its
                        // `wfail` line waits for the barrier.
                        commit(task, None);
                        // Exactly one worker observes the count crossing the
                        // budget — the one whose `fetch_add` lands on
                        // budget + 1 — so the abort fires once with a
                        // message that does not depend on how many other
                        // strata failed concurrently.
                        if failed_so_far == spec.resilience.failure_budget + 1 {
                            fatal(bad(format!(
                                "failure budget exhausted: {failed_so_far} cells failed \
                                 (budget {})",
                                spec.resilience.failure_budget
                            )));
                        }
                        Err((partial, reason))
                    };
                    *lock(&outcomes[task]) = Some(outcome);
                },
            );

            // The barrier: fold the wave in stratum order.
            let mut fails = Vec::new();
            let mut finished = 0;
            for (task, &(sidx, _)) in quotas.iter().enumerate() {
                match lock(&outcomes[task]).take() {
                    None => {}
                    Some(Ok(row)) => {
                        finished += 1;
                        rows[sidx] = row;
                    }
                    Some(Err((partial, reason))) => {
                        // The stratum freezes with its committed tally: the
                        // failed attempt's samples were never committed.
                        finished += 1;
                        frozen[sidx] = true;
                        let failure =
                            strata[sidx].failure(max_attempts, partial.samples, reason.clone());
                        failures.push((sidx, failure));
                        fails.push(WaveFail {
                            stratum: sidx,
                            attempts: max_attempts,
                            reason,
                        });
                        reported[sidx] = Some(partial);
                    }
                }
            }
            if let Some(e) = lock(&errors).first() {
                if let Some(p) = &progress {
                    p.finish();
                }
                event!("campaign.abort", net = &net, error = &e.to_string());
                mirror("campaign.abort", &[("error", Value::Str(&e.to_string()))]);
                return Err(e.clone());
            }
            if finished < quotas.len() {
                // Cancelled mid-wave: the rows committed so far stay on
                // disk, so the checkpoint resumes with only the rest.
                if let Some(p) = &progress {
                    p.finish();
                }
                let injections: usize = rows.iter().map(|r| r.samples).sum();
                event!(
                    "campaign.cancel",
                    net = &net,
                    waves = wave,
                    done = finished,
                    total = quotas.len(),
                    injections = injections,
                );
                return Err(bad(format!(
                    "campaign cancelled after {finished}/{} strata of wave {wave} \
                     ({injections} injections)",
                    quotas.len()
                )));
            }
            // A fixed plan persists no failure: its one wave stays open, so
            // a resume retries exactly the failed strata. An adaptive plan
            // closes the wave and its failed strata stay frozen, because
            // later waves were planned around them.
            if let (Some(state), false) = (&ckpt, fixed && !fails.is_empty()) {
                lock(state)
                    .end_wave(wave, &fails)
                    .map_err(|e| io_err("wave write", e))?;
                event!("checkpoint.flush", upto = strata.len());
            }
            wave += 1;
        }

        // Build the certificate with the exact arithmetic the offline
        // verifier replays, so `statcheck --cert` compares bit-for-bit.
        let certificate = match &log_plan {
            LogPlan::Fixed { .. } => None,
            LogPlan::Adaptive { plan, .. } => {
                let tallies: Vec<(usize, usize)> =
                    rows.iter().map(|r| (r.samples, r.masked)).collect();
                let cert = build_certificate(fingerprint, plan, z, &strata, &tallies, wave);
                let footer = CertFooter {
                    total_bound: cert.total_bound,
                    total_injections: cert.total_injections,
                    waves: wave,
                    converged: cert.converged,
                };
                // A complete checkpoint must agree with its own data when
                // recomputed — anything else is tampering or corruption.
                if resumed_footer.is_some_and(|f| f != footer) {
                    return Err(bad(
                        "corrupt checkpoint: stored certificate does not match its own \
                         wave data"
                            .into(),
                    ));
                }
                if let Some(state) = &ckpt {
                    lock(state)
                        .seal(&footer)
                        .map_err(|e| io_err("certificate write", e))?;
                }
                Some(cert)
            }
        };
        if let Some(p) = &progress {
            p.finish();
        }

        let cells: Vec<CellStats> = strata
            .iter()
            .zip(&rows)
            .zip(&reported)
            .map(|((meta, row), partial)| meta.cell(partial.as_ref().unwrap_or(row)))
            .collect();
        // Failures are found in wave order; reporting them in stratum order
        // keeps the result deterministic across worker counts and resumes.
        failures.sort_by_key(|&(idx, _)| idx);
        let result = CampaignResult {
            cells,
            failures: failures.into_iter().map(|(_, f)| f).collect(),
            certificate,
        };
        let (masked, output_error, anomaly) = result.cells.iter().fold((0, 0, 0), |acc, c| {
            (acc.0 + c.masked, acc.1 + c.output_error, acc.2 + c.anomaly)
        });
        let converged = result.certificate.as_ref().is_some_and(|c| c.converged);
        let elapsed_us = campaign_sw.elapsed_us().unwrap_or(0);
        event!(
            "campaign.finish",
            net = &net,
            cells = result.cells.len(),
            injections = result.total_samples(),
            masked = masked,
            output_error = output_error,
            anomaly = anomaly,
            waves = wave,
            converged = converged,
            failures = result.failures.len(),
            elapsed_us = elapsed_us,
        );
        mirror(
            "campaign.finish",
            &[
                ("cells", Value::U64(result.cells.len() as u64)),
                ("injections", Value::U64(result.total_samples() as u64)),
                ("masked", Value::U64(masked as u64)),
                ("waves", Value::U64(wave as u64)),
                ("failures", Value::U64(result.failures.len() as u64)),
                ("elapsed_us", Value::U64(elapsed_us)),
            ],
        );
        Ok(result)
    }

    /// Runs one stratum's wave quota into `row`, continuing its RNG stream
    /// from the committed position. The tally is passed by reference so a
    /// panic mid-loop leaves the samples completed so far observable to the
    /// caller's recovery path. Sample indices are absolute (`row.samples`
    /// counts from the stratum's birth), so chaos triggers fire at the same
    /// injection whichever wave reaches it.
    fn run_quota(
        &self,
        row: &mut StratumRow,
        plan: &StratumMeta,
        quota: usize,
        progress: Option<&CampaignProgress>,
        metrics: &CampaignMetrics,
        runner: &mut BatchedInjectionRunner,
    ) -> Result<(), DnnError> {
        let spec = &self.spec;
        // Global control needs no simulation: Prob_SWmask is 0 by definition.
        if matches!(plan.model, SoftwareFaultModel::GlobalControl) {
            row.samples += quota;
            row.anomaly += quota;
            metrics.injections.add(quota as u64);
            if let Some(p) = progress {
                for _ in 0..quota {
                    p.on_injection(CategoryKind::GlobalControl, OutcomeKind::Anomaly);
                }
            }
            return Ok(());
        }
        let kind = category_kind(plan.category);
        let chaos = spec
            .resilience
            .chaos
            .iter()
            .find(|c| c.node == plan.node && c.category == plan.category);
        let mut rng = SplitMix64::new(row.rng_state);
        // Hashed once per task, not per injection: the campaign's trace
        // never changes.
        let golden = golden_key(self.trace);
        for _ in 0..quota {
            let i = row.samples;
            // The watchdog clock starts before any chaos delay: a slow
            // injection and a stalled one are indistinguishable to it. Time
            // comes from the obs clock — the workspace's one sanctioned
            // wall-clock site — and never feeds campaign statistics.
            let deadline = spec.resilience.injection_deadline.map(|d| clock::now() + d);
            apply_chaos(chaos, i, plan.node, plan.category);
            let inj_sw = clock::Stopwatch::start_if(timing_enabled());
            let inj = runner.run_keyed(
                golden,
                self.engine,
                self.trace,
                plan.node,
                plan.model,
                self.metric,
                &mut rng,
                deadline,
            )?;
            metrics.injection_ns.record_opt(inj_sw.elapsed_ns());
            metrics.injections.inc();
            row.samples += 1;
            match inj.outcome {
                Outcome::Masked => row.masked += 1,
                Outcome::OutputError => row.output_error += 1,
                Outcome::SystemAnomaly => row.anomaly += 1,
            }
            if inj.watchdog {
                metrics.watchdog.inc();
                event!("watchdog.fired", node = plan.node, sample = i);
                if let Some(p) = progress {
                    p.on_watchdog();
                }
            }
            if let Some(p) = progress {
                p.on_injection(kind, outcome_kind(inj.outcome));
            }
            if spec.record_events {
                row.events.push(InjectionEvent {
                    faulty_neurons: inj.faulty_neurons,
                    max_perturbation: inj.max_perturbation,
                    outcome: inj.outcome,
                });
            }
        }
        row.rng_state = rng.state();
        Ok(())
    }
}

/// The next wave's `(stratum, quota)` allocation, in stratum order, and the
/// FIT bound it starts from; `None` once the plan stops. The allocation is
/// a pure function of (plan, seed, wave, committed tallies), which is what
/// lets a resumed campaign recompute the quotas of the wave it was killed
/// in.
///
/// A fixed-count plan is one wave of `samples_per_cell` per stratum with no
/// stop rule (its bound is not computed: NaN). An adaptive plan lays an
/// even floor in wave 0, then spends half the total so far, Neyman-style,
/// until the bound holds, the cap is reached, or no stratum can grow.
#[allow(clippy::too_many_arguments)]
fn next_wave(
    plan: &LogPlan,
    z: f64,
    seed: u64,
    wave: usize,
    strata: &[StratumMeta],
    rows: &[StratumRow],
    frozen: &[bool],
    progress: Option<&CampaignProgress>,
) -> Option<(Vec<(usize, usize)>, f64)> {
    let quotas_and_bound = match plan {
        LogPlan::Fixed { samples_per_cell } => {
            let quotas = (0..strata.len())
                .filter(|&i| wave == 0 && !frozen[i] && *samples_per_cell > 0)
                .map(|i| (i, *samples_per_cell))
                .collect();
            (quotas, f64::NAN)
        }
        LogPlan::Adaptive { plan, floor } => {
            let bounds: Vec<f64> = strata
                .iter()
                .zip(rows)
                .map(|(m, r)| stratum_terms(m.weight, r.masked, r.samples, z, m.sampled()).3)
                .collect();
            let total_bound: f64 = bounds.iter().sum();
            // Display-only convergence readout: a stratum counts as resolved
            // once its share of the bound is below its even split of ε,
            // among the strata that can ever carry uncertainty.
            let live = |i: usize| strata[i].sampled() && strata[i].weight > 0.0;
            let display_total = (0..strata.len()).filter(|&i| live(i)).count();
            let resolved = (0..strata.len())
                .filter(|&i| live(i) && bounds[i] <= plan.epsilon / display_total.max(1) as f64)
                .count();
            fidelity_obs::metrics::gauge("campaign.strata_resolved").set(resolved as i64);
            fidelity_obs::metrics::gauge("campaign.strata_total").set(display_total as i64);
            if let Some(p) = progress {
                p.set_strata(resolved, display_total);
            }
            if total_bound <= plan.epsilon {
                return None; // converged
            }
            let total: usize = rows.iter().map(|r| r.samples).sum();
            let headroom = plan.max_injections.saturating_sub(total);
            let growable: Vec<usize> = (0..strata.len())
                .filter(|&i| strata[i].sampled() && !frozen[i] && bounds[i] > 0.0)
                .collect();
            // The cap ends the campaign with an honest non-converged
            // certificate; with nothing growable, frozen strata hold the
            // bound up.
            if headroom == 0 || growable.is_empty() {
                return None;
            }
            let quotas = if wave == 0 {
                let budget = (floor * growable.len()).min(headroom);
                allocate_even(budget, &growable, seed, wave)
            } else {
                let budget = (total / 2).max(WAVE_MIN_BUDGET).min(headroom);
                let weighted: Vec<(usize, f64)> =
                    growable.iter().map(|&i| (i, bounds[i])).collect();
                allocate_neyman(budget, &weighted, seed, wave)
            };
            (quotas, total_bound)
        }
    };
    let (quotas, bound): (Vec<(usize, usize)>, f64) = quotas_and_bound;
    (!quotas.is_empty()).then_some((quotas, bound))
}

/// Locks a mutex, recovering from poisoning: a worker that panicked inside
/// the runner's own bookkeeping (not the injection code, which unwinds
/// before any lock is taken) still leaves consistent per-stratum data.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn cat_tag(category: FfCategory) -> u64 {
    use fidelity_accel::ff::{PipelineStage, VarType};
    match category {
        FfCategory::Datapath { stage, var } => {
            let s = match stage {
                PipelineStage::BeforeBuffer => 1u64,
                PipelineStage::BufferToMac => 2,
                PipelineStage::AfterMac => 3,
            };
            let v = match var {
                VarType::Input => 1u64,
                VarType::Weight => 2,
                VarType::Bias => 3,
                VarType::PartialSum => 4,
                VarType::Output => 5,
            };
            s * 31 + v
        }
        FfCategory::LocalControl => 1009,
        FfCategory::GlobalControl => 2003,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TopOneMatch;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalAvgPool};
    use fidelity_dnn::precision::Precision;

    fn tiny_engine() -> (Engine, Trace) {
        let net = NetworkBuilder::new("clf")
            .input("x")
            .layer(
                Conv2d::new("conv", uniform_tensor(1, vec![4, 2, 3, 3], 0.6))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["relu"])
            .unwrap()
            .layer(Flatten::new("flat"), &["gap"])
            .unwrap()
            .layer(
                Dense::new("fc", uniform_tensor(2, vec![5, 4], 0.6)).unwrap(),
                &["flat"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = uniform_tensor(3, vec![1, 2, 6, 6], 1.0);
        let trace = engine.trace(&[x]).unwrap();
        (engine, trace)
    }

    #[test]
    fn campaign_covers_all_cells() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 20,
            seed: 7,
            threads: 4,
            record_events: false,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        // 2 MAC layers × 7 categories.
        assert_eq!(result.cells.len(), 14);
        assert_eq!(result.total_samples(), 14 * 20);
        for cell in &result.cells {
            assert_eq!(cell.masked + cell.output_error + cell.anomaly, cell.samples);
        }
    }

    #[test]
    fn campaign_is_reproducible_across_thread_counts() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let run = |threads: usize| {
            let spec = CampaignSpec {
                samples_per_cell: 30,
                seed: 99,
                threads,
                record_events: false,
                resilience: Default::default(),
                progress: None,
                batch: 0,
                adaptive: None,
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec)
                .unwrap()
                .cells
                .iter()
                .map(|c| (c.node, c.masked, c.output_error, c.anomaly))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn global_cells_never_mask() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 5,
            seed: 1,
            threads: 2,
            record_events: false,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        for cell in result
            .cells
            .iter()
            .filter(|c| c.category == FfCategory::GlobalControl)
        {
            assert_eq!(cell.prob_swmask(), 0.0);
            assert_eq!(cell.anomaly, cell.samples);
        }
    }

    /// Scratch path for checkpoint-writing tests; unique per test name and
    /// process so parallel test threads never collide.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fidelity-campaign-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Cancellation skips work, reports a distinct error, and leaves a
    /// checkpoint that resumes to the same bytes as an uninterrupted run.
    #[test]
    fn cancelled_campaign_errors_and_checkpoint_resumes_bit_identical() {
        use crate::resilience::CheckpointSpec;
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let base = |ckpt: CheckpointSpec, cancel: Option<CancelToken>| CampaignSpec {
            samples_per_cell: 12,
            seed: 23,
            threads: 2,
            record_events: true,
            resilience: ResilienceSpec {
                checkpoint: Some(ckpt),
                cancel,
                ..ResilienceSpec::default()
            },
            progress: None,
            batch: 0,
            adaptive: None,
        };

        let ref_path = scratch("cancel-ref.ckpt");
        let spec = base(CheckpointSpec::new(&ref_path), None);
        run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let ref_bytes = std::fs::read(&ref_path).unwrap();
        std::fs::remove_file(&ref_path).ok();

        // A pre-fired token: every cell is skipped and the run reports
        // cancellation instead of fabricating results.
        let path = scratch("cancel-resume.ckpt");
        let token = CancelToken::new();
        token.cancel();
        let spec = base(CheckpointSpec::new(&path), Some(token));
        let err = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("cancelled after 0/"),
            "unexpected error: {err}"
        );

        // The checkpoint left behind (header only) resumes cleanly, and the
        // finished file is bit-identical to the uninterrupted run's.
        let spec = base(CheckpointSpec::resuming(&path), None);
        let resumed = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        assert!(resumed.failures.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), ref_bytes);
        std::fs::remove_file(&path).ok();
    }

    /// The first and last non-global cells of the plan, as chaos victims
    /// (global-control cells never reach the injection loop, so chaos cannot
    /// fire there).
    fn victim_pair(result: &CampaignResult) -> ((usize, FfCategory), (usize, FfCategory)) {
        let non_global: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.category != FfCategory::GlobalControl)
            .collect();
        let first = non_global.first().unwrap();
        let last = non_global.last().unwrap();
        ((first.node, first.category), (last.node, last.category))
    }

    /// Regression (serial-ordering bug): failures used to be reported in
    /// completion order, which depends on scheduling. They must come back in
    /// plan order for any worker count — even when the chaos specs are
    /// listed in the opposite order.
    #[test]
    fn failures_are_reported_in_plan_order() {
        use crate::resilience::{ChaosMode, ChaosSpec};
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let mut spec = CampaignSpec {
            samples_per_cell: 10,
            seed: 13,
            threads: 8,
            record_events: false,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let ((n1, c1), (n2, c2)) = victim_pair(&baseline);
        spec.resilience.max_retries_per_cell = 0;
        spec.resilience.failure_budget = 10;
        // Reverse order in the spec: the report order must not follow it.
        spec.resilience.chaos = vec![
            ChaosSpec {
                node: n2,
                category: c2,
                mode: ChaosMode::PanicAtSample(0),
            },
            ChaosSpec {
                node: n1,
                category: c1,
                mode: ChaosMode::PanicAtSample(0),
            },
        ];
        for _ in 0..4 {
            let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
            assert_eq!(result.failures.len(), 2);
            assert_eq!(
                (result.failures[0].node, result.failures[0].category),
                (n1, c1)
            );
            assert_eq!(
                (result.failures[1].node, result.failures[1].category),
                (n2, c2)
            );
        }
    }

    /// Regression (serial-ordering bug): the failure-budget abort used to
    /// fire in every worker that observed the count above budget, with a
    /// message carrying whatever count that worker happened to see. Now only
    /// the worker whose increment lands exactly on budget + 1 aborts, so the
    /// error is byte-identical for any job count.
    #[test]
    fn budget_abort_message_is_deterministic_across_job_counts() {
        use crate::resilience::{ChaosMode, ChaosSpec};
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let mut spec = CampaignSpec {
            samples_per_cell: 10,
            seed: 29,
            threads: 1,
            record_events: false,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let ((n1, c1), (n2, c2)) = victim_pair(&baseline);
        spec.resilience.max_retries_per_cell = 0;
        spec.resilience.failure_budget = 0;
        spec.resilience.chaos = vec![
            ChaosSpec {
                node: n1,
                category: c1,
                mode: ChaosMode::PanicAtSample(0),
            },
            ChaosSpec {
                node: n2,
                category: c2,
                mode: ChaosMode::PanicAtSample(0),
            },
        ];
        let message = |jobs: usize| {
            let spec = CampaignSpec {
                threads: jobs,
                ..spec.clone()
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec)
                .unwrap_err()
                .to_string()
        };
        let serial = message(1);
        assert!(
            serial.contains("1 cells failed (budget 0)"),
            "unexpected message: {serial}"
        );
        for jobs in [2, 4, 8] {
            assert_eq!(serial, message(jobs), "jobs={jobs}");
        }
    }

    /// Regression (serial-ordering bug): checkpoint records used to be
    /// appended in completion order, so the file bytes depended on
    /// scheduling. The ordered commit buffer must make them identical for
    /// any worker count, including with per-injection events in the records.
    #[test]
    fn checkpoint_bytes_identical_across_job_counts() {
        use crate::resilience::CheckpointSpec;
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let bytes = |jobs: usize| {
            let path = scratch(&format!("ordered-commit-{jobs}.ckpt"));
            let spec = CampaignSpec {
                samples_per_cell: 15,
                seed: 41,
                threads: jobs,
                record_events: true,
                resilience: ResilienceSpec {
                    checkpoint: Some(CheckpointSpec::new(&path)),
                    ..ResilienceSpec::default()
                },
                progress: None,
                batch: 0,
                adaptive: None,
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
            let data = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            data
        };
        let serial = bytes(1);
        for jobs in [2, 4, 8] {
            assert_eq!(
                serial,
                bytes(jobs),
                "checkpoint bytes diverge at jobs={jobs}"
            );
        }
    }

    /// The batched fault-cone path is a pure evaluation policy: outcomes,
    /// masking counts, and recorded per-injection events (perturbation bits
    /// included) must be identical to the dense resume path for any batch
    /// size and worker count.
    #[test]
    fn batched_campaign_matches_dense_path_bitwise() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let run = |batch: usize, jobs: usize| {
            let spec = CampaignSpec {
                samples_per_cell: 25,
                seed: 71,
                threads: jobs,
                record_events: true,
                batch,
                ..CampaignSpec::default()
            };
            let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
            result
                .cells
                .iter()
                .map(|c| {
                    let events: Vec<(usize, u32, u8)> = c
                        .events
                        .iter()
                        .map(|e| {
                            (
                                e.faulty_neurons,
                                e.max_perturbation.to_bits(),
                                e.outcome as u8,
                            )
                        })
                        .collect();
                    (c.node, c.masked, c.output_error, c.anomaly, events)
                })
                .collect::<Vec<_>>()
        };
        let dense = run(0, 1);
        for batch in [1, 7, 64] {
            for jobs in [1, 4] {
                assert_eq!(dense, run(batch, jobs), "batch={batch} jobs={jobs}");
            }
        }
    }

    #[test]
    fn events_recorded_when_requested() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 10,
            seed: 3,
            threads: 1,
            record_events: true,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let non_global: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.category != FfCategory::GlobalControl)
            .collect();
        assert!(non_global.iter().all(|c| c.events.len() == c.samples));
    }
}
