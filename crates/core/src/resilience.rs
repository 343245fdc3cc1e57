//! Campaign resilience: panic isolation, per-injection watchdogs, and
//! checkpoint/resume for long-running campaigns.
//!
//! A statistically-sized campaign over a large workload runs millions of
//! injections across hours; a single panicking fault model, a runaway
//! propagation, or a pre-empted batch job must not discard the work already
//! done. [`ResilienceSpec`] configures three independent defense layers that
//! [`crate::campaign::CampaignRunner`] enforces:
//!
//! * **Panic isolation** — every stratum's wave task runs under
//!   `catch_unwind` with bounded retries; an unrecoverable stratum freezes,
//!   reports its partial [`CellStats`] (fewer samples → a wider Wilson
//!   interval) and a [`CellFailure`] instead of aborting the campaign, until
//!   the campaign's failure budget is exhausted.
//! * **Per-injection watchdog** — a wall-clock deadline on each injection;
//!   overruns classify as [`crate::outcome::Outcome::SystemAnomaly`], the
//!   same verdict the hardware watchdog would deliver.
//! * **Checkpoint/resume** — every campaign, fixed-count or adaptive, writes
//!   one format: the `fidelity-ackpt v1` wave log. A wave's rows commit per
//!   stratum, in stratum order; a restarted campaign replays the closed
//!   waves, keeps the rows of the wave in flight, and reruns only the
//!   strata without one. Every row carries its stratum's RNG stream
//!   position, so a resumed campaign is bit-identical to an uninterrupted
//!   one.
//!
//! The log is hand-rolled and line-oriented (floats as exact bit patterns,
//! fixed-width RNG states, `wdone` and `done cert` markers), so the torn
//! tail a killed process leaves is detected and dropped on resume, while
//! corruption anywhere else is a named error.
//!
//! ```text
//! fidelity-ackpt v1
//! fingerprint <hex>
//! plan fixed <samples_per_cell> <strata>              (fixed-count plan)
//! plan <ε> <confidence> <max> <floor> <strata>        (adaptive plan, bits)
//! stratum <idx> <node> <cat> <model> <weight bits> <layer>
//! wave <k>
//! ev <faulty> <perturbation bits> <outcome>           (recorded events)
//! w <idx> <samples> <masked> <output_error> <anomaly> <rng state>
//! wfail <idx> <attempts> <kind> <message>
//! wdone <k>
//! cert <bound bits> <injections> <waves> <converged>  (adaptive, finished)
//! done cert
//! ```

use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use fidelity_accel::ff::{FfCategory, PipelineStage, VarType};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::OperandKind;
use fidelity_dnn::DnnError;
use fidelity_obs::fnv::Fnv64;
use fidelity_par::CancelToken;

use crate::adaptive::AdaptivePlan;
use crate::campaign::{CampaignSpec, CellStats, InjectionEvent};
use crate::models::{OperandWindow, SoftwareFaultModel};
use crate::outcome::Outcome;

/// Fault-tolerance policy for a campaign.
#[derive(Debug, Clone)]
pub struct ResilienceSpec {
    /// Wall-clock deadline per injection. An injection that overruns it is
    /// classified as a system anomaly (watchdog reset) instead of hanging a
    /// worker. Campaigns with a deadline set are only statistically — not
    /// bit — reproducible, since classification depends on host timing.
    /// `None` (the default) disables the watchdog.
    pub injection_deadline: Option<Duration>,
    /// Retries after a stratum's first failed attempt in a wave. A retry
    /// restarts from the stratum's committed tally and RNG position, so a
    /// successful retry is bit-identical to a run that never failed.
    pub max_retries_per_cell: usize,
    /// Wait schedule between retry attempts. See [`RetryBackoff`]; the
    /// default backs off exponentially with seeded jitter. Use
    /// [`RetryBackoff::none`] to restore immediate retry.
    pub retry_backoff: RetryBackoff,
    /// Campaign-level cap on failed cells (after retries). Exceeding it
    /// aborts the campaign with [`DnnError::Campaign`]; up to the budget,
    /// failed cells degrade to their partial statistics.
    pub failure_budget: usize,
    /// Checkpoint persistence; `None` disables it.
    pub checkpoint: Option<CheckpointSpec>,
    /// Cooperative cancellation. When the token fires, queued strata are
    /// skipped, strata mid-flight run to completion and commit to the
    /// checkpoint, and the campaign returns a "cancelled" error — leaving a
    /// resumable checkpoint behind. `None` (the default) disables it.
    pub cancel: Option<CancelToken>,
    /// Fault injection for the injector itself (tests and drills); empty in
    /// production. Several specs may target different cells at once, which
    /// is how multi-cell failure accounting is exercised.
    pub chaos: Vec<ChaosSpec>,
}

impl Default for ResilienceSpec {
    fn default() -> Self {
        ResilienceSpec {
            injection_deadline: None,
            max_retries_per_cell: 1,
            retry_backoff: RetryBackoff::default(),
            failure_budget: 4,
            checkpoint: None,
            cancel: None,
            chaos: Vec::new(),
        }
    }
}

/// Where a campaign persists its wave log. Every committed row is flushed
/// to disk before the next one is written.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path (conventionally `results/<campaign>.ckpt`).
    pub path: PathBuf,
    /// When set, an existing compatible checkpoint at `path` is loaded
    /// before running and only the missing work is executed. A missing file
    /// starts fresh; a checkpoint written for a different campaign
    /// (fingerprint mismatch) is an error.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A write-only checkpoint at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            path: path.into(),
            resume: false,
        }
    }

    /// Like [`CheckpointSpec::new`], but resuming from `path` when a
    /// compatible checkpoint exists there.
    pub fn resuming(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            resume: true,
            ..CheckpointSpec::new(path)
        }
    }
}

/// Wait schedule between a cell's retry attempts.
///
/// Immediate retry is the wrong reflex for the failures retries exist to
/// absorb — a host under transient memory pressure, a watchdog tripping
/// under load — because hammering the same cell back-to-back tends to
/// reproduce the failure. Delays instead grow exponentially from `base`,
/// bounded by `cap`, with jitter so a fleet of failing cells does not retry
/// in lockstep. The jitter is *deterministic*: it comes from a `SplitMix64`
/// stream keyed on the campaign seed, the cell index, and the retry number,
/// so two runs of the same spec wait the exact same schedule — retries stay
/// reproducible like everything else in a campaign.
#[derive(Debug, Clone)]
pub struct RetryBackoff {
    /// Nominal delay before the first retry. [`Duration::ZERO`] disables
    /// waiting entirely (immediate retry).
    pub base: Duration,
    /// Growth factor per retry: retry `n` nominally waits
    /// `base * factor^(n-1)`.
    pub factor: u32,
    /// Upper bound on the nominal delay of any single retry.
    pub cap: Duration,
    /// Jitter as a percentage of the nominal delay (clamped to 100): retry
    /// `n` waits a value drawn uniformly from
    /// `nominal ± nominal * jitter_pct / 100`.
    pub jitter_pct: u8,
}

impl Default for RetryBackoff {
    fn default() -> Self {
        RetryBackoff {
            base: Duration::from_millis(25),
            factor: 2,
            cap: Duration::from_secs(1),
            jitter_pct: 20,
        }
    }
}

impl RetryBackoff {
    /// Immediate retry — the schedule every delay of which is zero.
    pub const fn none() -> Self {
        RetryBackoff {
            base: Duration::ZERO,
            factor: 2,
            cap: Duration::ZERO,
            jitter_pct: 0,
        }
    }

    /// The delay before retry `retry` (1-based; `0` means "first attempt"
    /// and never waits) of plan cell `cell` in a campaign seeded with
    /// `seed`. Pure: the same inputs always produce the same delay.
    pub fn delay(&self, seed: u64, cell: usize, retry: usize) -> Duration {
        if retry == 0 || self.base.is_zero() {
            return Duration::ZERO;
        }
        let base_us = duration_us(self.base);
        let cap_us = duration_us(self.cap);
        let mut nominal = base_us;
        for _ in 1..retry {
            nominal = nominal.saturating_mul(u64::from(self.factor));
            if nominal >= cap_us {
                break;
            }
        }
        nominal = nominal.min(cap_us);
        let span = nominal.saturating_mul(u64::from(self.jitter_pct.min(100))) / 100;
        let mut rng = SplitMix64::new(
            seed ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (retry as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        // `2 * span + 1` possible outcomes centred on the nominal delay.
        let jittered = nominal - span + rng.next_below(2 * span + 1);
        Duration::from_micros(jittered)
    }
}

/// Saturating microseconds of a `Duration` (fits any schedule we care about).
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Deliberate malfunction injected into the campaign runner itself, aimed at
/// one (node, category) cell. This is how the resilience machinery is tested
/// without a genuinely buggy fault model.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Target node index.
    pub node: usize,
    /// Target FF category.
    pub category: FfCategory,
    /// What goes wrong.
    pub mode: ChaosMode,
}

/// The malfunction a [`ChaosSpec`] triggers.
#[derive(Debug, Clone, Copy)]
pub enum ChaosMode {
    /// Panic when the cell reaches the given sample index, on every attempt.
    PanicAtSample(usize),
    /// Sleep this long before every injection of the cell, simulating a
    /// pathologically slow propagation (drives the watchdog).
    DelayPerInjection(Duration),
}

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The injection code panicked; the payload rendered as text.
    Panic(String),
    /// The injection returned an error.
    Error(String),
}

impl FailureReason {
    /// Short tag for trace events and the checkpoint (`panic` or `error`).
    pub fn kind(&self) -> &'static str {
        match self {
            FailureReason::Panic(_) => "panic",
            FailureReason::Error(_) => "error",
        }
    }
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::Panic(msg) => write!(f, "panic: {msg}"),
            FailureReason::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

/// The record of one cell that exhausted its retries.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Target node index.
    pub node: usize,
    /// Target layer name.
    pub layer: String,
    /// FF category of the failed cell.
    pub category: FfCategory,
    /// Attempts made (first run + retries).
    pub attempts: usize,
    /// Samples the kept partial statistics contain (the RNG stream position
    /// reached on the last attempt).
    pub samples_completed: usize,
    /// Why the last attempt failed.
    pub reason: FailureReason,
}

// ---------------------------------------------------------------------------
// Checkpoint encoding: the wave log
// ---------------------------------------------------------------------------

/// Magic + version line of the wave log.
const HEADER: &str = "fidelity-ackpt v1";

/// Header of the retired per-cell format. Its files are rejected by name:
/// they record neither RNG stream positions nor wave structure, so nothing
/// in them can be resumed.
const RETIRED_HEADER: &str = "fidelity-ckpt v1";

/// Whether the file at `path` is a checkpoint in the retired per-cell
/// format. A missing or unreadable file is not.
pub fn is_retired_checkpoint(path: &Path) -> bool {
    let mut head = Vec::new();
    let limit = RETIRED_HEADER.len() as u64 + 1;
    let read = std::fs::File::open(path).and_then(|f| f.take(limit).read_to_end(&mut head));
    read.is_ok() && head.strip_suffix(b"\n") == Some(RETIRED_HEADER.as_bytes())
}

/// FNV-1a over the campaign identity: everything that determines the cell
/// plan and each cell's RNG stream. Two specs with the same fingerprint
/// produce interchangeable checkpoints; the resilience policy itself is
/// deliberately excluded (a resumed run may use different retry settings),
/// and so is `batch` — batched fault-cone evaluation is a scheduling policy
/// whose results are bit-identical to the dense path by construction.
pub fn campaign_fingerprint(
    spec: &CampaignSpec,
    network: &str,
    plan: &[(usize, FfCategory)],
) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(network.as_bytes())
        .bytes(&spec.seed.to_le_bytes())
        .bytes(&(spec.samples_per_cell as u64).to_le_bytes())
        .bytes(&[u8::from(spec.record_events)])
        // The slot of the retired per-cell CI target, always unset: keeps
        // every fingerprint (and so every certificate) stable.
        .bytes(&u64::MAX.to_le_bytes())
        // The slot of the retired MAC tier, always the bitwise kernels
        // every campaign runs, for the same reason.
        .bytes(b"bitwise");
    // Adaptive plan parameters are identity: epsilon/confidence/max decide
    // which injections run, so adaptive checkpoints only interchange between
    // equal plans. Eaten only when present, preserving every fixed-count
    // fingerprint byte-for-byte.
    if let Some(a) = &spec.adaptive {
        h.bytes(&[1u8])
            .bytes(&a.epsilon.to_bits().to_le_bytes())
            .bytes(&a.confidence.to_bits().to_le_bytes())
            .bytes(&(a.max_injections as u64).to_le_bytes());
    }
    for &(node, cat) in plan {
        h.bytes(&(node as u64).to_le_bytes())
            .bytes(cat_code(cat).as_bytes());
    }
    h.finish()
}

/// The sampling plan a log was written for, as pinned in its `plan` line.
#[derive(Debug, Clone, PartialEq)]
pub enum LogPlan {
    /// One wave of `samples_per_cell` injections per stratum, no stop rule.
    Fixed {
        /// Injections per stratum.
        samples_per_cell: usize,
    },
    /// Confidence-driven waves (see [`crate::adaptive`]).
    Adaptive {
        /// The ε plan.
        plan: AdaptivePlan,
        /// Per-stratum sample floor of wave 0.
        floor: usize,
    },
}

/// One stratum — a (MAC node × FF category) cell — as pinned in the log
/// header.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumMeta {
    /// Target node index.
    pub node: usize,
    /// FF category.
    pub category: FfCategory,
    /// Software fault model applied.
    pub model: SoftwareFaultModel,
    /// Eq.-2 identity weight `C_h` (at the paper's raw FIT rate).
    pub weight: f64,
    /// Layer name (reporting only).
    pub layer: String,
}

impl StratumMeta {
    /// Whether the stratum is simulated at all (global control never is:
    /// its `Prob_SWmask` is 0 by definition).
    pub fn sampled(&self) -> bool {
        self.category != FfCategory::GlobalControl
    }

    /// The record of this stratum failing after `attempts`, with
    /// `samples` in its reported tally.
    pub fn failure(&self, attempts: usize, samples: usize, reason: FailureReason) -> CellFailure {
        CellFailure {
            node: self.node,
            layer: self.layer.clone(),
            category: self.category,
            attempts,
            samples_completed: samples,
            reason,
        }
    }

    /// The stratum's statistics at `row`.
    pub fn cell(&self, row: &StratumRow) -> CellStats {
        CellStats {
            node: self.node,
            layer: self.layer.clone(),
            category: self.category,
            model: self.model,
            samples: row.samples,
            masked: row.masked,
            output_error: row.output_error,
            anomaly: row.anomaly,
            events: row.events.clone(),
        }
    }
}

/// A stratum's cumulative tally, as committed in one row of the log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StratumRow {
    /// Injections run so far (absolute, not per wave).
    pub samples: usize,
    /// Masked outcomes so far.
    pub masked: usize,
    /// Application output errors so far.
    pub output_error: usize,
    /// System anomalies so far.
    pub anomaly: usize,
    /// SplitMix64 state the stratum's stream continues from.
    pub rng_state: u64,
    /// Per-injection events (fixed-count plans with `record_events` only).
    pub events: Vec<InjectionEvent>,
}

/// A stratum that exhausted its retries during a wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WaveFail {
    /// Stratum index.
    pub stratum: usize,
    /// Attempts made (first run + retries).
    pub attempts: usize,
    /// Why the last attempt failed (newlines flattened to spaces on disk).
    pub reason: FailureReason,
}

/// One wave: the cumulative tallies of the strata that received
/// allocation, plus the strata frozen by failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WaveBlock {
    /// Wave index (0-based, contiguous).
    pub index: usize,
    /// `(stratum index, cumulative tally)` rows, in stratum order.
    pub rows: Vec<(usize, StratumRow)>,
    /// Strata frozen during this wave, in stratum order.
    pub fails: Vec<WaveFail>,
}

/// The certificate totals pinned in the footer of a finished adaptive log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CertFooter {
    /// Achieved total uncertainty bound (`Σ_h C_h · hw_h`), exact bits.
    pub total_bound: f64,
    /// Total injections across all strata.
    pub total_injections: usize,
    /// Waves run.
    pub waves: usize,
    /// Whether the bound met the plan's ε.
    pub converged: bool,
}

/// A parsed wave log.
#[derive(Debug, Clone)]
pub(crate) struct WaveLog {
    /// Campaign fingerprint the log was written for.
    pub fingerprint: u64,
    /// The plan that wrote it.
    pub plan: LogPlan,
    /// Stratum table, in plan order.
    pub strata: Vec<StratumMeta>,
    /// Waves closed by their `wdone` marker, in order.
    pub waves: Vec<WaveBlock>,
    /// The wave in flight when the writer stopped: the rows it committed.
    pub open: Option<WaveBlock>,
    /// The certificate footer, present once an adaptive campaign finished.
    pub footer: Option<CertFooter>,
}

/// Writes the log preamble: header, fingerprint, plan, and stratum table.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_header<W: Write>(
    w: &mut W,
    fingerprint: u64,
    plan: &LogPlan,
    strata: &[StratumMeta],
) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    writeln!(w, "fingerprint {fingerprint:016x}")?;
    match plan {
        LogPlan::Fixed { samples_per_cell } => {
            writeln!(w, "plan fixed {samples_per_cell} {}", strata.len())?;
        }
        LogPlan::Adaptive { plan, floor } => writeln!(
            w,
            "plan {:016x} {:016x} {} {floor} {}",
            plan.epsilon.to_bits(),
            plan.confidence.to_bits(),
            plan.max_injections,
            strata.len(),
        )?,
    }
    for (idx, s) in strata.iter().enumerate() {
        writeln!(
            w,
            "stratum {idx} {} {} {} {:016x} {}",
            s.node,
            cat_code(s.category),
            model_code(&s.model),
            s.weight.to_bits(),
            s.layer,
        )?;
    }
    Ok(())
}

/// Opens wave `index`. Its rows follow as strata commit.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_wave_start<W: Write>(w: &mut W, index: usize) -> io::Result<()> {
    writeln!(w, "wave {index}")
}

/// Appends one committed row: the stratum's events (when recorded), then
/// its tally line, which commits them. Events cut off by a kill have no
/// tally line and are dropped on parse.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_row<W: Write>(w: &mut W, idx: usize, row: &StratumRow) -> io::Result<()> {
    for ev in &row.events {
        writeln!(
            w,
            "ev {} {:08x} {}",
            ev.faulty_neurons,
            ev.max_perturbation.to_bits(),
            outcome_code(ev.outcome),
        )?;
    }
    writeln!(
        w,
        "w {idx} {} {} {} {} {:016x}",
        row.samples, row.masked, row.output_error, row.anomaly, row.rng_state,
    )
}

/// Closes wave `index` at its barrier: the strata it froze, then the
/// `wdone` marker.
pub(crate) fn write_wave_end<W: Write>(
    w: &mut W,
    index: usize,
    fails: &[WaveFail],
) -> io::Result<()> {
    for f in fails {
        let (FailureReason::Panic(message) | FailureReason::Error(message)) = &f.reason;
        let message = message.replace('\n', " ");
        writeln!(
            w,
            "wfail {} {} {} {message}",
            f.stratum,
            f.attempts,
            f.reason.kind()
        )?;
    }
    writeln!(w, "wdone {index}")
}

/// Writes one whole wave block (the canonical rewrite on resume).
pub(crate) fn write_wave<W: Write>(w: &mut W, wave: &WaveBlock) -> io::Result<()> {
    write_wave_start(w, wave.index)?;
    for (idx, row) in &wave.rows {
        write_row(w, *idx, row)?;
    }
    write_wave_end(w, wave.index, &wave.fails)
}

/// Appends the certificate footer, terminated by its `done cert` marker.
pub(crate) fn write_cert_footer<W: Write>(w: &mut W, footer: &CertFooter) -> io::Result<()> {
    writeln!(
        w,
        "cert {:016x} {} {} {}",
        footer.total_bound.to_bits(),
        footer.total_injections,
        footer.waves,
        u8::from(footer.converged),
    )?;
    writeln!(w, "done cert")
}

/// A heuristic for the final, torn line of a killed writer: any prefix of a
/// valid record keyword. Full garbage elsewhere in the file still errors.
fn line_is_torn_tail(line: &str) -> bool {
    [
        "fingerprint",
        "plan",
        "stratum",
        "wave",
        "w",
        "ev",
        "wfail",
        "wdone",
        "cert",
        "done",
    ]
    .iter()
    .any(|kw| kw.starts_with(line.split_whitespace().next().unwrap_or("")))
}

/// Parses a wave log. A torn tail from a killed writer is dropped: the
/// rows a wave committed before the kill survive in [`WaveLog::open`], so
/// a resumed campaign reruns only the strata without a row. `None` means
/// the file ends inside its preamble: the writer was killed before it
/// committed anything.
///
/// # Errors
///
/// Returns [`DnnError::Campaign`] on I/O errors, a retired or unknown
/// header, or a structurally malformed record (corruption rather than a
/// torn tail).
pub(crate) fn parse_log<R: BufRead>(r: R) -> Result<Option<WaveLog>, DnnError> {
    let corrupt = |what: &str| DnnError::Campaign {
        message: format!("corrupt checkpoint: {what}"),
    };
    let mut lines = r.lines().peekable();
    // The next preamble line and whether it is the file's last; the end of
    // the file reads as an empty last line.
    let mut preamble_line = || -> Result<(String, bool), DnnError> {
        let line = lines.next().transpose();
        let line = line.map_err(|e| corrupt(&format!("read failed: {e}")))?;
        Ok((line.unwrap_or_default(), lines.peek().is_none()))
    };
    // A writer killed before its preamble was whole committed nothing: a
    // file that ends inside the preamble, perhaps mid-line, is no log yet.
    let torn_or_bad = |what: &str, line: &str, torn: bool| {
        if torn {
            Ok(None)
        } else {
            Err(corrupt(&format!("bad {what} `{line}`")))
        }
    };
    let (header, last) = preamble_line()?;
    if header == RETIRED_HEADER {
        return Err(DnnError::Campaign {
            message: format!(
                "unsupported checkpoint format `{RETIRED_HEADER}`: per-cell checkpoints \
                 cannot be resumed by the wave executor; delete the file and rerun"
            ),
        });
    }
    if header != HEADER {
        return torn_or_bad("header", &header, last && HEADER.starts_with(&header));
    }
    let (line, last) = preamble_line()?;
    let fingerprint = line.strip_prefix("fingerprint ");
    let Some(fingerprint) = fingerprint.and_then(|s| u64::from_str_radix(s, 16).ok()) else {
        return torn_or_bad("fingerprint line", &line, last && line_is_torn_tail(&line));
    };
    let (line, last) = preamble_line()?;
    let Some((plan, nstrata)) = line.strip_prefix("plan ").and_then(parse_plan) else {
        return torn_or_bad("plan line", &line, last && line_is_torn_tail(&line));
    };
    let mut strata = Vec::with_capacity(nstrata.min(4096));
    for expect in 0..nstrata {
        let (line, last) = preamble_line()?;
        let parsed = line.strip_prefix("stratum ").and_then(|rest| {
            // stratum <idx> <node> <cat> <model> <weight_bits> <layer...>
            let mut it = rest.splitn(6, ' ');
            let idx: usize = it.next()?.parse().ok()?;
            let meta = StratumMeta {
                node: it.next()?.parse().ok()?,
                category: parse_cat(it.next()?)?,
                model: parse_model(it.next()?)?,
                weight: f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?),
                layer: it.next()?.to_owned(),
            };
            (idx == expect).then_some(meta)
        });
        let Some(meta) = parsed else {
            return torn_or_bad("stratum line", &line, last && line_is_torn_tail(&line));
        };
        strata.push(meta);
    }

    let mut next_line = || lines.next().and_then(Result::ok);
    let mut waves: Vec<WaveBlock> = Vec::new();
    let mut open: Option<WaveBlock> = None;
    // Events parsed since the last row: committed by the next `w` line.
    let mut events: Vec<InjectionEvent> = Vec::new();
    let mut pending_footer: Option<CertFooter> = None;
    let mut footer = None;
    while let Some(line) = next_line() {
        // A malformed record inside an open wave is the torn tail of a
        // killed writer; it and everything after it are dropped.
        if let Some(rest) = line.strip_prefix("wave ") {
            // A kill can only leave the *last* wave open, so a new wave
            // while one is open is corruption.
            if open.is_some() {
                return Err(corrupt(&format!(
                    "wave block without wdone before `{line}`"
                )));
            }
            let Some(index) = rest.trim().parse::<usize>().ok() else {
                if line_is_torn_tail(&line) {
                    break;
                }
                return Err(corrupt(&format!("bad wave line `{line}`")));
            };
            if index != waves.len() {
                return Err(corrupt(&format!(
                    "wave {index} out of order (expected {})",
                    waves.len()
                )));
            }
            open = Some(WaveBlock {
                index,
                ..WaveBlock::default()
            });
        } else if let Some(rest) = line.strip_prefix("ev ") {
            match (&open, parse_event_line(rest)) {
                (Some(_), Some(ev)) => events.push(ev),
                _ => break,
            }
        } else if let Some(rest) = line.strip_prefix("w ") {
            match (open.as_mut(), parse_row_line(rest)) {
                (Some(block), Some((idx, mut row))) => {
                    row.events = std::mem::take(&mut events);
                    block.rows.push((idx, row));
                }
                _ => break,
            }
        } else if let Some(rest) = line.strip_prefix("wfail ") {
            match (open.as_mut(), parse_fail_line(rest)) {
                (Some(block), Some(f)) => block.fails.push(f),
                _ => break,
            }
        } else if let Some(rest) = line.strip_prefix("wdone ") {
            match open.take() {
                Some(block)
                    if events.is_empty()
                        && rest.trim().parse::<usize>().ok() == Some(block.index) =>
                {
                    waves.push(block);
                }
                // A torn marker: the wave stays open.
                block => {
                    open = block;
                    break;
                }
            }
        } else if let Some(rest) = line.strip_prefix("cert ") {
            if open.is_some() {
                return Err(corrupt("cert line inside an open wave block"));
            }
            pending_footer = parse_footer_line(rest);
            if pending_footer.is_none() {
                if line_is_torn_tail(&line) {
                    break;
                }
                return Err(corrupt(&format!("bad cert line `{line}`")));
            }
        } else if line == "done cert" {
            footer = pending_footer.take();
        } else if line.trim().is_empty() {
            // Blank line: ignore.
        } else if line_is_torn_tail(&line) {
            break;
        } else {
            return Err(corrupt(&format!("unrecognized line `{line}`")));
        }
    }
    Ok(Some(WaveLog {
        fingerprint,
        plan,
        strata,
        waves,
        open,
        footer,
    }))
}

fn parse_plan(rest: &str) -> Option<(LogPlan, usize)> {
    let fields: Vec<&str> = rest.split(' ').collect();
    match fields.as_slice() {
        ["fixed", n, strata] => Some((
            LogPlan::Fixed {
                samples_per_cell: n.parse().ok()?,
            },
            strata.parse().ok()?,
        )),
        [eps, conf, max, floor, strata] => Some((
            LogPlan::Adaptive {
                plan: AdaptivePlan {
                    epsilon: f64::from_bits(u64::from_str_radix(eps, 16).ok()?),
                    confidence: f64::from_bits(u64::from_str_radix(conf, 16).ok()?),
                    max_injections: max.parse().ok()?,
                },
                floor: floor.parse().ok()?,
            },
            strata.parse().ok()?,
        )),
        _ => None,
    }
}

fn parse_row_line(rest: &str) -> Option<(usize, StratumRow)> {
    // w <idx> <samples> <masked> <oe> <an> <rng_state: 16 hex digits>
    let mut it = rest.split(' ');
    let idx: usize = it.next()?.parse().ok()?;
    let samples = it.next()?.parse().ok()?;
    let masked = it.next()?.parse().ok()?;
    let output_error = it.next()?.parse().ok()?;
    let anomaly = it.next()?.parse().ok()?;
    // Fixed width: a row cut short inside its last field never parses.
    let rng = it.next().filter(|s| s.len() == 16)?;
    let rng_state = u64::from_str_radix(rng, 16).ok()?;
    it.next().is_none().then_some((
        idx,
        StratumRow {
            samples,
            masked,
            output_error,
            anomaly,
            rng_state,
            events: Vec::new(),
        },
    ))
}

fn parse_fail_line(rest: &str) -> Option<WaveFail> {
    let mut it = rest.splitn(4, ' ');
    let stratum = it.next()?.parse().ok()?;
    let attempts = it.next()?.parse().ok()?;
    let kind = it.next()?;
    let message = it.next().unwrap_or("").to_owned();
    let reason = match kind {
        "panic" => FailureReason::Panic(message),
        _ => FailureReason::Error(message),
    };
    Some(WaveFail {
        stratum,
        attempts,
        reason,
    })
}

fn parse_footer_line(rest: &str) -> Option<CertFooter> {
    let [bound, injections, waves, converged]: [&str; 4] =
        rest.split(' ').collect::<Vec<_>>().try_into().ok()?;
    Some(CertFooter {
        total_bound: f64::from_bits(u64::from_str_radix(bound, 16).ok()?),
        total_injections: injections.parse().ok()?,
        waves: waves.parse().ok()?,
        converged: match converged {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    })
}

fn parse_event_line(rest: &str) -> Option<InjectionEvent> {
    let mut it = rest.split(' ');
    let faulty_neurons: usize = it.next()?.parse().ok()?;
    let bits = u32::from_str_radix(it.next()?, 16).ok()?;
    let outcome = parse_outcome(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some(InjectionEvent {
        faulty_neurons,
        max_perturbation: f32::from_bits(bits),
        outcome,
    })
}

/// Folds one wave's rows and failures into per-stratum state, checking the
/// invariants every writer keeps — the one definition behind both resume
/// and the offline certificate verifier:
///
/// - rows are in stratum order;
/// - a row's outcomes sum to its samples;
/// - a stratum's samples strictly increase and its masked count never
///   decreases;
/// - no row belongs to a frozen stratum, nor (under an adaptive plan) to an
///   unsampled one.
///
/// # Errors
///
/// Describes the first violated invariant.
pub(crate) fn fold_wave(
    block: &WaveBlock,
    plan: &LogPlan,
    strata: &[StratumMeta],
    tallies: &mut [StratumRow],
    frozen: &mut [bool],
) -> Result<(), String> {
    let wave = block.index;
    let mut prev = None;
    for (idx, row) in &block.rows {
        let idx = *idx;
        let (Some(meta), Some(tally)) = (strata.get(idx), tallies.get_mut(idx)) else {
            return Err(format!("wave {wave}: stratum {idx} out of range"));
        };
        if prev.is_some_and(|p| p >= idx) {
            return Err(format!("wave {wave}: rows not in stratum order"));
        }
        prev = Some(idx);
        if !meta.sampled() && matches!(plan, LogPlan::Adaptive { .. }) {
            return Err(format!(
                "wave {wave}: unsampled (global-control) stratum {idx} was allocated"
            ));
        }
        if frozen[idx] {
            return Err(format!(
                "wave {wave}: frozen stratum {idx} was re-allocated"
            ));
        }
        if row.masked + row.output_error + row.anomaly != row.samples {
            return Err(format!(
                "wave {wave}: stratum {idx} outcomes do not sum to its samples"
            ));
        }
        if row.samples <= tally.samples {
            return Err(format!(
                "wave {wave}: stratum {idx} samples not increasing ({} -> {})",
                tally.samples, row.samples
            ));
        }
        if row.masked < tally.masked {
            return Err(format!("wave {wave}: stratum {idx} masked count decreased"));
        }
        *tally = row.clone();
    }
    for f in &block.fails {
        let slot = frozen
            .get_mut(f.stratum)
            .ok_or_else(|| format!("wave {wave}: failed stratum {} out of range", f.stratum))?;
        *slot = true;
    }
    Ok(())
}

/// A checkpoint's per-cell view: the campaign fingerprint plus the last
/// committed tally of every stratum with a row.
#[derive(Debug, Clone)]
pub struct ParsedCheckpoint {
    /// Fingerprint the checkpoint was written for.
    pub fingerprint: u64,
    /// `(stratum index, statistics)`, one per stratum, in order of first
    /// commit.
    pub cells: Vec<(usize, CellStats)>,
}

/// Parses a checkpoint into its per-cell view. Structural only: the row
/// invariants are checked where a log is resumed or verified.
///
/// # Errors
///
/// Returns [`DnnError::Campaign`] on I/O errors, a bad or retired header, a
/// row for a stratum missing from the table, or a structurally malformed
/// record.
pub fn parse_checkpoint<R: BufRead>(r: R) -> Result<ParsedCheckpoint, DnnError> {
    let log = parse_log(r)?.ok_or_else(|| DnnError::Campaign {
        message: "corrupt checkpoint: file ends inside its header".into(),
    })?;
    let mut cells: Vec<(usize, CellStats)> = Vec::new();
    for (idx, row) in log.waves.iter().chain(&log.open).flat_map(|b| &b.rows) {
        let meta = log.strata.get(*idx).ok_or_else(|| DnnError::Campaign {
            message: format!("corrupt checkpoint: row for unknown stratum {idx}"),
        })?;
        match cells.iter_mut().find(|(i, _)| i == idx) {
            Some((_, cell)) => *cell = meta.cell(row),
            None => cells.push((*idx, meta.cell(row))),
        }
    }
    Ok(ParsedCheckpoint {
        fingerprint: log.fingerprint,
        cells,
    })
}

fn outcome_code(o: Outcome) -> &'static str {
    match o {
        Outcome::Masked => "m",
        Outcome::OutputError => "e",
        Outcome::SystemAnomaly => "a",
    }
}

fn parse_outcome(s: &str) -> Option<Outcome> {
    match s {
        "m" => Some(Outcome::Masked),
        "e" => Some(Outcome::OutputError),
        "a" => Some(Outcome::SystemAnomaly),
        _ => None,
    }
}

/// Compact, stable code for an FF category (`d:<stage>:<var>`, `lc`, `gc`).
pub(crate) fn cat_code(cat: FfCategory) -> String {
    match cat {
        FfCategory::Datapath { stage, var } => {
            let s = match stage {
                PipelineStage::BeforeBuffer => "bb",
                PipelineStage::BufferToMac => "bm",
                PipelineStage::AfterMac => "am",
            };
            let v = match var {
                VarType::Input => "i",
                VarType::Weight => "w",
                VarType::Bias => "b",
                VarType::PartialSum => "p",
                VarType::Output => "o",
            };
            format!("d:{s}:{v}")
        }
        FfCategory::LocalControl => "lc".to_owned(),
        FfCategory::GlobalControl => "gc".to_owned(),
    }
}

pub(crate) fn parse_cat(s: &str) -> Option<FfCategory> {
    match s {
        "lc" => return Some(FfCategory::LocalControl),
        "gc" => return Some(FfCategory::GlobalControl),
        _ => {}
    }
    let mut it = s.split(':');
    if it.next()? != "d" {
        return None;
    }
    let stage = match it.next()? {
        "bb" => PipelineStage::BeforeBuffer,
        "bm" => PipelineStage::BufferToMac,
        "am" => PipelineStage::AfterMac,
        _ => return None,
    };
    let var = match it.next()? {
        "i" => VarType::Input,
        "w" => VarType::Weight,
        "b" => VarType::Bias,
        "p" => VarType::PartialSum,
        "o" => VarType::Output,
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some(FfCategory::Datapath { stage, var })
}

fn operand_code(kind: OperandKind) -> &'static str {
    match kind {
        OperandKind::Input => "i",
        OperandKind::Weight => "w",
    }
}

fn parse_operand(s: &str) -> Option<OperandKind> {
    match s {
        "i" => Some(OperandKind::Input),
        "w" => Some(OperandKind::Weight),
        _ => None,
    }
}

/// Compact, stable code for a software fault model.
pub(crate) fn model_code(model: &SoftwareFaultModel) -> String {
    match model {
        SoftwareFaultModel::BeforeBuffer { kind } => format!("bb:{}", operand_code(*kind)),
        SoftwareFaultModel::Operand {
            kind,
            window,
            random_suffix,
        } => format!(
            "op:{}:{}:{}:{}",
            operand_code(*kind),
            window.positions,
            window.channels,
            u8::from(*random_suffix),
        ),
        SoftwareFaultModel::OutputValue => "out".to_owned(),
        SoftwareFaultModel::LocalControl => "lc".to_owned(),
        SoftwareFaultModel::GlobalControl => "gc".to_owned(),
    }
}

pub(crate) fn parse_model(s: &str) -> Option<SoftwareFaultModel> {
    match s {
        "out" => return Some(SoftwareFaultModel::OutputValue),
        "lc" => return Some(SoftwareFaultModel::LocalControl),
        "gc" => return Some(SoftwareFaultModel::GlobalControl),
        _ => {}
    }
    let mut it = s.split(':');
    let model = match it.next()? {
        "bb" => SoftwareFaultModel::BeforeBuffer {
            kind: parse_operand(it.next()?)?,
        },
        "op" => SoftwareFaultModel::Operand {
            kind: parse_operand(it.next()?)?,
            window: OperandWindow {
                positions: it.next()?.parse().ok()?,
                channels: it.next()?.parse().ok()?,
            },
            random_suffix: match it.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        },
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellStats {
        CellStats {
            node: 3,
            layer: "conv block 2".to_owned(), // spaces round-trip
            category: FfCategory::Datapath {
                stage: PipelineStage::BufferToMac,
                var: VarType::Weight,
            },
            model: SoftwareFaultModel::Operand {
                kind: OperandKind::Weight,
                window: OperandWindow {
                    positions: 16,
                    channels: 1,
                },
                random_suffix: true,
            },
            samples: 100,
            masked: 60,
            output_error: 30,
            anomaly: 10,
            events: vec![
                InjectionEvent {
                    faulty_neurons: 5,
                    max_perturbation: f32::NAN,
                    outcome: Outcome::OutputError,
                },
                InjectionEvent {
                    faulty_neurons: 0,
                    max_perturbation: 0.25,
                    outcome: Outcome::Masked,
                },
            ],
        }
    }

    fn assert_cells_eq(a: &CellStats, b: &CellStats) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.layer, b.layer);
        assert_eq!(a.category, b.category);
        assert_eq!(a.model, b.model);
        assert_eq!(
            (a.samples, a.masked, a.output_error, a.anomaly),
            (b.samples, b.masked, b.output_error, b.anomaly)
        );
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.faulty_neurons, y.faulty_neurons);
            assert_eq!(x.max_perturbation.to_bits(), y.max_perturbation.to_bits());
            assert_eq!(x.outcome, y.outcome);
        }
    }

    fn meta_of(cell: &CellStats) -> StratumMeta {
        StratumMeta {
            node: cell.node,
            category: cell.category,
            model: cell.model,
            weight: 0.5,
            layer: cell.layer.clone(),
        }
    }

    fn row_of(cell: &CellStats, rng_state: u64) -> StratumRow {
        StratumRow {
            samples: cell.samples,
            masked: cell.masked,
            output_error: cell.output_error,
            anomaly: cell.anomaly,
            rng_state,
            events: cell.events.clone(),
        }
    }

    /// Row equality with events compared by exact bits (NaN included).
    fn assert_rows_eq(a: &StratumRow, b: &StratumRow) {
        let key = |r: &StratumRow| {
            let events: Vec<(usize, u32, Outcome)> = r
                .events
                .iter()
                .map(|e| (e.faulty_neurons, e.max_perturbation.to_bits(), e.outcome))
                .collect();
            (
                r.samples,
                r.masked,
                r.output_error,
                r.anomaly,
                r.rng_state,
                events,
            )
        };
        assert_eq!(key(a), key(b));
    }

    /// A fixed-plan log of two strata (both `sample_cell`), wave 0 open
    /// with both rows committed.
    fn two_row_log() -> Vec<u8> {
        let cell = sample_cell();
        let mut buf = Vec::new();
        let plan = LogPlan::Fixed {
            samples_per_cell: 100,
        };
        write_header(
            &mut buf,
            0xDEAD_BEEF,
            &plan,
            &[meta_of(&cell), meta_of(&cell)],
        )
        .unwrap();
        write_wave_start(&mut buf, 0).unwrap();
        write_row(&mut buf, 0, &row_of(&cell, 0xAB)).unwrap();
        write_row(&mut buf, 1, &row_of(&cell, 0xCD)).unwrap();
        buf
    }

    #[test]
    fn row_round_trips_including_nan_events() {
        let parsed = parse_checkpoint(&two_row_log()[..]).unwrap();
        assert_eq!(parsed.fingerprint, 0xDEAD_BEEF);
        assert_eq!(parsed.cells.len(), 2);
        assert_eq!(parsed.cells[1].0, 1);
        assert_cells_eq(&parsed.cells[1].1, &sample_cell());
        let log = parse_log(&two_row_log()[..]).unwrap().unwrap();
        assert!(log.waves.is_empty(), "wave 0 never closed");
        let open = log.open.unwrap();
        assert_rows_eq(&open.rows[1].1, &row_of(&sample_cell(), 0xCD));
    }

    /// A log cut at any byte parses: rows whose tally line is whole are
    /// kept exactly, a row cut anywhere (events included) is dropped.
    #[test]
    fn log_cut_at_any_byte_keeps_whole_rows_only() {
        let full = two_row_log();
        let header_end = String::from_utf8(full.clone())
            .unwrap()
            .find("wave 0")
            .unwrap();
        for cut in header_end..=full.len() {
            let log = parse_log(&full[..cut]).unwrap().unwrap();
            let rows = log.open.map(|b| b.rows).unwrap_or_default();
            let whole = String::from_utf8(full[..cut].to_vec())
                .unwrap()
                .lines()
                .filter(|l| {
                    l.starts_with("w ") && l.len() == "w 0 100 60 30 10 00000000000000ab".len()
                })
                .count();
            assert_eq!(rows.len(), whole, "cut {cut}");
            for (idx, row) in &rows {
                let rng = if *idx == 0 { 0xAB } else { 0xCD };
                assert_rows_eq(row, &row_of(&sample_cell(), rng));
            }
        }
    }

    #[test]
    fn retired_per_cell_format_is_rejected_by_name() {
        let old = b"fidelity-ckpt v1\nfingerprint 00000000deadbeef\n";
        let err = parse_checkpoint(&old[..]).unwrap_err().to_string();
        assert!(
            err.contains("unsupported checkpoint format `fidelity-ckpt v1`"),
            "{err}"
        );
    }

    #[test]
    fn view_keeps_the_last_tally_of_each_stratum_in_commit_order() {
        let cell = sample_cell();
        let mut buf = Vec::new();
        let plan = LogPlan::Adaptive {
            plan: AdaptivePlan::new(0.5),
            floor: 32,
        };
        write_header(&mut buf, 1, &plan, &[meta_of(&cell), meta_of(&cell)]).unwrap();
        let row = |samples: usize| StratumRow {
            samples,
            masked: samples,
            ..StratumRow::default()
        };
        let wave = |index, rows: Vec<(usize, StratumRow)>| WaveBlock {
            index,
            rows,
            fails: Vec::new(),
        };
        write_wave(&mut buf, &wave(0, vec![(1, row(4))])).unwrap();
        write_wave(&mut buf, &wave(1, vec![(0, row(2)), (1, row(9))])).unwrap();
        let parsed = parse_checkpoint(&buf[..]).unwrap();
        let view: Vec<(usize, usize)> = parsed.cells.iter().map(|(i, c)| (*i, c.samples)).collect();
        assert_eq!(view, vec![(1, 9), (0, 2)]);
    }

    /// Each row invariant is named when violated.
    #[test]
    fn fold_wave_names_each_violated_invariant() {
        let cell = sample_cell();
        let strata = [meta_of(&cell), meta_of(&cell)];
        let plan = LogPlan::Fixed {
            samples_per_cell: 4,
        };
        let row = |samples, masked, output_error| StratumRow {
            samples,
            masked,
            output_error,
            ..StratumRow::default()
        };
        let fold = |rows: Vec<(usize, StratumRow)>, prior: StratumRow| {
            let mut tallies = [prior.clone(), prior];
            let mut frozen = [false, false];
            let block = WaveBlock {
                index: 3,
                rows,
                fails: Vec::new(),
            };
            fold_wave(&block, &plan, &strata, &mut tallies, &mut frozen).unwrap_err()
        };
        let base = StratumRow::default();
        assert!(fold(vec![(0, row(4, 1, 2))], base.clone()).contains("do not sum"));
        assert!(
            fold(vec![(1, row(4, 4, 0)), (0, row(4, 4, 0))], base.clone())
                .contains("not in stratum order")
        );
        assert!(fold(vec![(2, row(4, 4, 0))], base).contains("out of range"));
        assert!(fold(vec![(0, row(4, 1, 3))], row(2, 2, 0)).contains("masked count decreased"));
        assert!(fold(vec![(0, row(2, 2, 0))], row(2, 2, 0)).contains("not increasing"));
    }

    #[test]
    fn backoff_schedule_is_pinned_and_reproducible() {
        let b = RetryBackoff::default();
        let schedule: Vec<u64> = (1..=6)
            .map(|r| b.delay(41, 3, r).as_micros() as u64)
            .collect();
        // Exact values for (seed=41, cell=3): nominal 25ms/50ms/100ms/...
        // capped at 1s, each jittered ±20% by the seeded stream. Any change
        // to the derivation is a reproducibility break and must show up here.
        let again: Vec<u64> = (1..=6)
            .map(|r| b.delay(41, 3, r).as_micros() as u64)
            .collect();
        assert_eq!(schedule, again, "schedule must be deterministic");
        let nominal = [25_000u64, 50_000, 100_000, 200_000, 400_000, 800_000];
        for (i, (&got, &nom)) in schedule.iter().zip(&nominal).enumerate() {
            let span = nom / 5;
            assert!(
                got >= nom - span && got <= nom + span,
                "retry {} delay {got}us outside {nom}±{span}us",
                i + 1
            );
        }
        assert_eq!(schedule, PINNED_SCHEDULE, "seeded jitter schedule moved");
    }

    /// The exact delays (microseconds) of `RetryBackoff::default()` for
    /// seed 41, cell 3, retries 1..=6.
    const PINNED_SCHEDULE: [u64; 6] = [25_028, 49_385, 89_200, 192_080, 343_645, 877_268];

    #[test]
    fn backoff_caps_jitters_and_disables() {
        let b = RetryBackoff::default();
        // Past the cap the nominal delay stops growing (1s ± 20%).
        let far = b.delay(7, 0, 30).as_micros() as u64;
        assert!((800_000..=1_200_000).contains(&far), "capped delay: {far}");
        // Different seeds, cells, or retry numbers draw different jitter.
        assert_ne!(b.delay(1, 0, 1), b.delay(2, 0, 1));
        assert_ne!(b.delay(1, 0, 1), b.delay(1, 1, 1));
        // Retry 0 (the first attempt) and `none()` never wait.
        assert_eq!(b.delay(1, 0, 0), Duration::ZERO);
        assert_eq!(RetryBackoff::none().delay(1, 0, 5), Duration::ZERO);
    }

    #[test]
    fn bad_header_is_an_error() {
        assert!(parse_checkpoint(&b"not a checkpoint\n"[..]).is_err());
        assert!(parse_checkpoint(&b""[..]).is_err());
        assert!(parse_checkpoint(&b"fidelity-ackpt v1\nfingerprint zz\n"[..]).is_err());
        assert!(
            parse_checkpoint(&b"fidelity-ackpt v1\nfingerprint 01\nplan fixed x 1\n"[..]).is_err()
        );
    }

    #[test]
    fn all_categories_and_models_round_trip() {
        let cats = [
            FfCategory::LocalControl,
            FfCategory::GlobalControl,
            FfCategory::Datapath {
                stage: PipelineStage::BeforeBuffer,
                var: VarType::Bias,
            },
            FfCategory::Datapath {
                stage: PipelineStage::AfterMac,
                var: VarType::PartialSum,
            },
        ];
        for cat in cats {
            assert_eq!(parse_cat(&cat_code(cat)), Some(cat));
        }
        let models = [
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Input,
            },
            SoftwareFaultModel::Operand {
                kind: OperandKind::Input,
                window: OperandWindow {
                    positions: 1,
                    channels: 16,
                },
                random_suffix: false,
            },
            SoftwareFaultModel::OutputValue,
            SoftwareFaultModel::LocalControl,
            SoftwareFaultModel::GlobalControl,
        ];
        for model in models {
            assert_eq!(parse_model(&model_code(&model)), Some(model));
        }
    }

    /// Checkpoints and certificates are keyed by the campaign fingerprint
    /// across versions, so the fingerprint of a fixed and an adaptive spec
    /// is pinned by value.
    #[test]
    fn campaign_fingerprints_are_pinned() {
        let plan = [
            (0usize, FfCategory::LocalControl),
            (
                2,
                FfCategory::Datapath {
                    stage: PipelineStage::BufferToMac,
                    var: VarType::Weight,
                },
            ),
            (2, FfCategory::GlobalControl),
        ];
        let fixed = CampaignSpec::default();
        assert_eq!(
            campaign_fingerprint(&fixed, "inception", &plan),
            0x180e_0f72_9889_19b1
        );
        let adaptive = CampaignSpec {
            adaptive: Some(crate::adaptive::AdaptivePlan::new(0.01)),
            ..CampaignSpec::default()
        };
        assert_eq!(
            campaign_fingerprint(&adaptive, "inception", &plan),
            0x8019_02e7_cb9f_20a6
        );
    }

    #[test]
    fn fingerprint_tracks_identity_fields_only() {
        let base = CampaignSpec::default();
        let plan = [(0usize, FfCategory::LocalControl)];
        let fp = campaign_fingerprint(&base, "net", &plan);
        let mut other = base.clone();
        other.threads = base.threads + 1; // scheduling is irrelevant
        assert_eq!(fp, campaign_fingerprint(&other, "net", &plan));
        let mut batched = base.clone();
        batched.batch = 64; // batching is policy, results are bit-identical
        assert_eq!(fp, campaign_fingerprint(&batched, "net", &plan));
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        assert_ne!(fp, campaign_fingerprint(&reseeded, "net", &plan));
        assert_ne!(fp, campaign_fingerprint(&base, "other-net", &plan));
        assert_ne!(
            fp,
            campaign_fingerprint(&base, "net", &[(1, FfCategory::LocalControl)])
        );
    }

    /// Certificates embed the fingerprint and checkpoints are keyed by it,
    /// so the value for one fixed and one adaptive spec is pinned.
    #[test]
    fn fingerprints_are_pinned() {
        let fixed = CampaignSpec {
            samples_per_cell: 20,
            seed: 7,
            ..CampaignSpec::default()
        };
        let plan = [
            (0usize, FfCategory::LocalControl),
            (2, FfCategory::GlobalControl),
        ];
        assert_eq!(
            campaign_fingerprint(&fixed, "lstm", &plan),
            0x3797_d775_d5bf_6f02
        );
        let adaptive = CampaignSpec {
            adaptive: Some(crate::adaptive::AdaptivePlan::new(0.05)),
            ..fixed
        };
        assert_eq!(
            campaign_fingerprint(&adaptive, "lstm", &plan),
            0xf659_84cf_d647_73f8
        );
    }

    #[test]
    fn fingerprint_treats_adaptive_plan_as_identity() {
        let base = CampaignSpec::default();
        let plan = [(0usize, FfCategory::LocalControl)];
        let fp = campaign_fingerprint(&base, "net", &plan);
        // Turning the adaptive plan on is an identity change.
        let mut adaptive = base.clone();
        adaptive.adaptive = Some(crate::adaptive::AdaptivePlan::new(0.01));
        let fp_a = campaign_fingerprint(&adaptive, "net", &plan);
        assert_ne!(fp, fp_a);
        // So is every plan parameter.
        let mut eps = adaptive.clone();
        eps.adaptive.as_mut().unwrap().epsilon = 0.02;
        assert_ne!(fp_a, campaign_fingerprint(&eps, "net", &plan));
        let mut conf = adaptive.clone();
        conf.adaptive.as_mut().unwrap().confidence = 0.99;
        assert_ne!(fp_a, campaign_fingerprint(&conf, "net", &plan));
        let mut cap = adaptive.clone();
        cap.adaptive.as_mut().unwrap().max_injections = 999;
        assert_ne!(fp_a, campaign_fingerprint(&cap, "net", &plan));
        // An equal plan reproduces the fingerprint exactly.
        let again = adaptive.clone();
        assert_eq!(fp_a, campaign_fingerprint(&again, "net", &plan));
        // And a None plan leaves the legacy fingerprint untouched.
        assert_eq!(fp, campaign_fingerprint(&base.clone(), "net", &plan));
    }
}
