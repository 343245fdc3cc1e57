//! Adaptive confidence-driven campaign planning: stratified sequential
//! sampling with early termination and a machine-checkable certificate.
//!
//! The fixed-count campaign of [`crate::campaign`] spends the same number of
//! injections on every (layer × FF category) cell, although most cells
//! resolve their masking probability long before the budget runs out and a
//! few (high-variance, high-FIT-weight) cells deserve far more. This module
//! replaces the per-cell count with a *target accuracy*: sampling stops once
//! the campaign can bound its Eq.-2 FIT estimate to a requested ±ε at a
//! requested confidence level.
//!
//! **Stratification.** Each plan cell — one (MAC node × [`FfCategory`])
//! pair — is a stratum. Its Eq.-2 weight
//! `C_h = FIT_raw · N_ff · w_r · FF_Perc(cat) · (1 − Prob_inactive)` is
//! computed once up front (at the paper's raw FIT rate, so the weights are
//! identity: they do not depend on the raw-FIT scaling a caller later
//! applies); the stratum's FIT contribution is `C_h · (1 − p̂)` where `p̂` is
//! the observed `Prob_SWmask`, and its uncertainty contribution is
//! `C_h · hw` with `hw` the Wilson half-width of `p̂` at the plan's z. The
//! campaign has converged when `Σ_h C_h · hw_h ≤ ε`. Global-control strata
//! are never sampled (`Prob_SWmask = 0` by definition), contribute `C_h`
//! exactly, and carry zero uncertainty.
//!
//! **Allocation.** Waves of injections are sized from the running total
//! (wave 0 lays a floor of [`WAVE_FLOOR`] samples per stratum; each later
//! wave spends half the total so far, at least [`WAVE_MIN_BUDGET`]) and
//! split across strata proportionally to their current uncertainty
//! contribution — a Neyman-style allocation that buys the most bound
//! reduction per injection. Rounding remainders are distributed by a
//! seed-derived permutation, so the schedule is a pure function of
//! (seed, tallies) and bit-identical for any worker count.
//!
//! **Determinism and resume.** Each stratum owns the same SplitMix64 stream
//! it would own in a fixed-count campaign (so the first k adaptive samples
//! of a stratum are bit-identical to the fixed path's first k), and the
//! stream's state is persisted in every row of the campaign's wave log
//! ([`crate::resilience`]). A killed campaign loses at most the strata in
//! flight; resuming replays the allocator from the recorded tallies (the
//! quotas are a pure function of them) and continues the exact streams
//! mid-way (via [`SplitMix64::state`]), producing byte-identical results
//! and checkpoint files.
//!
//! **Certificate.** A finished campaign emits a [`ConfidenceCertificate`]:
//! per-stratum n, p̂, CI half-width, FIT contribution ± bound, the total ε
//! achieved, and the campaign fingerprint. The certificate is recomputable
//! from the checkpoint alone — [`verify_checkpoint`] re-derives every term
//! offline and cross-checks the stored totals bit-for-bit, which is what
//! `fidelity statcheck --cert` runs.

use std::io::BufRead;

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_accel::ff::FfCategory;
use fidelity_accel::perf::{extract_work, LayerTiming};
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::DnnError;
use fidelity_obs::stats::{wilson, z_for_confidence};

use crate::activeness::prob_inactive;
use crate::fit::PAPER_RAW_FIT_PER_MB;
use crate::resilience::{cat_code, fold_wave, parse_log, LogPlan, StratumMeta, StratumRow};

/// Sampling floor laid by wave 0: every sampled stratum gets this many
/// injections before any adaptive decision, so a lucky early streak cannot
/// freeze a stratum's estimate on a handful of samples.
pub const WAVE_FLOOR: usize = 32;

/// Minimum injection budget of any wave after the floor wave: below this,
/// per-wave scheduling overhead dominates the statistics bought.
pub const WAVE_MIN_BUDGET: usize = 64;

/// Adaptive sampling policy for a campaign: run injection waves until the
/// total FIT-contribution uncertainty is below `epsilon`, or `max_injections`
/// is exhausted.
///
/// Fingerprint semantics (see `campaign_fingerprint`): `epsilon`,
/// `confidence`, and `max_injections` are campaign *identity* — they decide
/// which injections run, so checkpoints are only interchangeable between
/// equal plans. Wave batching (worker count, `--batch`) remains pure policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePlan {
    /// Target half-width on the total FIT contribution of the sampled
    /// strata, in the same FIT units Eq. 2 produces at
    /// [`PAPER_RAW_FIT_PER_MB`]. The campaign converges when
    /// `Σ_h C_h · hw_h ≤ ε`.
    pub epsilon: f64,
    /// Two-sided confidence level of the per-stratum Wilson intervals. Only
    /// levels with a pinned quantile are accepted (0.90, 0.95, 0.99 — see
    /// [`z_for_confidence`]).
    pub confidence: f64,
    /// Hard cap on total injections across all strata. Reaching it ends the
    /// campaign with an honest non-converged certificate.
    pub max_injections: usize,
}

impl AdaptivePlan {
    /// A plan targeting ±`epsilon` at 95% confidence with a one-million
    /// injection cap.
    pub fn new(epsilon: f64) -> Self {
        AdaptivePlan {
            epsilon,
            confidence: 0.95,
            max_injections: 1_000_000,
        }
    }

    /// Validates the plan and returns the standard-normal quantile of its
    /// confidence level.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] for a non-positive or non-finite ε, an
    /// unsupported confidence level, or a zero injection cap.
    pub fn validated_z(&self) -> Result<f64, DnnError> {
        let bad = |message: String| DnnError::Campaign { message };
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(bad(format!(
                "adaptive epsilon must be positive and finite, got {}",
                self.epsilon
            )));
        }
        if self.max_injections == 0 {
            return Err(bad("adaptive max_injections must be at least 1".into()));
        }
        z_for_confidence(self.confidence).ok_or_else(|| {
            bad(format!(
                "unsupported adaptive confidence level {} (use 0.90, 0.95, or 0.99)",
                self.confidence
            ))
        })
    }
}

/// Eq.-2 identity weights `C_h` for every plan cell, computed at the paper's
/// raw FIT rate so they are independent of any caller-side scaling.
///
/// `plan` is the campaign's cell plan in plan order; the returned vector is
/// index-aligned with it.
pub(crate) fn stratum_weights(
    engine: &Engine,
    trace: &Trace,
    accel: &AcceleratorConfig,
    plan: &[(usize, FfCategory)],
) -> Vec<f64> {
    let work = extract_work(engine, trace);
    let precision = engine.precision();
    let mut nodes: Vec<usize> = plan.iter().map(|&(node, _)| node).collect();
    nodes.dedup();
    let timings: Vec<(usize, LayerTiming)> = nodes
        .iter()
        .map(|&node| (node, LayerTiming::analyze(accel, &work[node])))
        .collect();
    let total_exec: f64 = timings.iter().map(|(_, t)| t.total_cycles as f64).sum();
    let raw_total = PAPER_RAW_FIT_PER_MB * accel.ff_megabytes();
    plan.iter()
        .map(|&(node, category)| {
            let timing = timings
                .iter()
                .find(|(n, _)| *n == node)
                .map(|(_, t)| t)
                // Every plan node was timed just above.
                // statcheck:allow(panic-path)
                .expect("plan node timed");
            let w = if total_exec > 0.0 {
                timing.total_cycles as f64 / total_exec
            } else {
                0.0
            };
            let frac = accel.census.fraction(category);
            let inactive = prob_inactive(accel, category, timing, precision);
            raw_total * w * frac * (1.0 - inactive)
        })
        .collect()
}

/// The per-stratum certificate terms, derived from (weight, tally, z) —
/// shared by the running campaign and the offline verifier so both compute
/// bit-identical numbers.
pub(crate) fn stratum_terms(
    weight: f64,
    masked: usize,
    samples: usize,
    z: f64,
    sampled: bool,
) -> (f64, f64, f64, f64) {
    let p_hat = if samples == 0 {
        0.0
    } else {
        masked as f64 / samples as f64
    };
    let halfwidth = if sampled {
        let (lo, hi) = wilson(masked, samples, z);
        (hi - lo) / 2.0
    } else {
        0.0
    };
    let contribution = weight * (1.0 - p_hat);
    let bound = weight * halfwidth;
    (p_hat, halfwidth, contribution, bound)
}

// ---------------------------------------------------------------------------
// Wave allocation
// ---------------------------------------------------------------------------

/// A seed-derived rank for breaking allocation ties; a pure function of
/// (seed, wave, stratum), so the permutation replays exactly on resume.
fn tie_rank(seed: u64, wave: usize, stratum: usize) -> u64 {
    SplitMix64::new(
        seed ^ 0xADA7_11CE_5EED_0001u64.wrapping_mul(wave as u64 + 1)
            ^ (stratum as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
    .next_u64()
}

/// Splits `budget` injections evenly over `strata` (the floor wave), with
/// the remainder distributed by the seeded permutation. Returns
/// `(stratum index, quota)` pairs in stratum order, zero quotas omitted.
pub(crate) fn allocate_even(
    budget: usize,
    strata: &[usize],
    seed: u64,
    wave: usize,
) -> Vec<(usize, usize)> {
    if strata.is_empty() || budget == 0 {
        return Vec::new();
    }
    let per = budget / strata.len();
    let rem = budget % strata.len();
    let mut order: Vec<usize> = (0..strata.len()).collect();
    order.sort_by_key(|&i| (tie_rank(seed, wave, strata[i]), strata[i]));
    let mut quotas = vec![per; strata.len()];
    for &i in order.iter().take(rem) {
        quotas[i] += 1;
    }
    let mut out: Vec<(usize, usize)> = strata
        .iter()
        .zip(quotas)
        .filter(|&(_, q)| q > 0)
        .map(|(&s, q)| (s, q))
        .collect();
    out.sort_unstable_by_key(|&(s, _)| s);
    out
}

/// Neyman-style allocation: splits `budget` over `strata` proportionally to
/// each stratum's current uncertainty contribution `C_h · hw_h`, with
/// largest-remainder rounding and seeded tie-breaks. Returns
/// `(stratum index, quota)` pairs in stratum order, zero quotas omitted.
pub(crate) fn allocate_neyman(
    budget: usize,
    strata: &[(usize, f64)],
    seed: u64,
    wave: usize,
) -> Vec<(usize, usize)> {
    if strata.is_empty() || budget == 0 {
        return Vec::new();
    }
    let total: f64 = strata.iter().map(|&(_, b)| b).sum();
    if total <= 0.0 {
        return allocate_even(
            budget,
            &strata.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            seed,
            wave,
        );
    }
    let shares: Vec<f64> = strata
        .iter()
        .map(|&(_, b)| budget as f64 * (b / total))
        .collect();
    let mut quotas: Vec<usize> = shares.iter().map(|&s| s.floor() as usize).collect();
    let assigned: usize = quotas.iter().sum();
    let mut order: Vec<usize> = (0..strata.len()).collect();
    // Largest fractional remainder first; seeded permutation breaks exact
    // ties (total_cmp gives f64 a total order, so the sort is deterministic).
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.total_cmp(&fa)
            .then_with(|| tie_rank(seed, wave, strata[a].0).cmp(&tie_rank(seed, wave, strata[b].0)))
            .then_with(|| strata[a].0.cmp(&strata[b].0))
    });
    for &i in order.iter().take(budget.saturating_sub(assigned)) {
        quotas[i] += 1;
    }
    let mut out: Vec<(usize, usize)> = strata
        .iter()
        .zip(quotas)
        .filter(|&(_, q)| q > 0)
        .map(|(&(s, _), q)| (s, q))
        .collect();
    out.sort_unstable_by_key(|&(s, _)| s);
    out
}

// ---------------------------------------------------------------------------
// Confidence certificate
// ---------------------------------------------------------------------------

/// One stratum's entry in a [`ConfidenceCertificate`].
#[derive(Debug, Clone, PartialEq)]
pub struct StratumCert {
    /// Target node index.
    pub node: usize,
    /// Target layer name.
    pub layer: String,
    /// FF category.
    pub category: FfCategory,
    /// Injections run for this stratum.
    pub samples: usize,
    /// Masked outcomes.
    pub masked: usize,
    /// Eq.-2 identity weight `C_h` (at [`PAPER_RAW_FIT_PER_MB`]).
    pub weight: f64,
    /// Observed masking probability `p̂` (0 for unsampled strata).
    pub p_hat: f64,
    /// Wilson half-width of `p̂` at the plan's confidence level (0 for
    /// unsampled strata, whose `Prob_SWmask` is 0 by definition).
    pub ci_halfwidth: f64,
    /// FIT contribution `C_h · (1 − p̂)`.
    pub contribution: f64,
    /// Uncertainty contribution `C_h · hw` — the stratum's share of the
    /// total ε bound.
    pub bound: f64,
    /// Whether the stratum is sampled (global control never is).
    pub sampled: bool,
}

/// The machine-checkable result of an adaptive campaign: everything needed
/// to audit the claimed ±ε offline.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceCertificate {
    /// Campaign fingerprint the certificate belongs to.
    pub fingerprint: u64,
    /// The plan that produced it.
    pub plan: AdaptivePlan,
    /// Per-stratum terms, in plan order.
    pub strata: Vec<StratumCert>,
    /// Total injections across all strata.
    pub total_injections: usize,
    /// Waves run.
    pub waves: usize,
    /// Total FIT estimate `Σ_h C_h · (1 − p̂_h)` at [`PAPER_RAW_FIT_PER_MB`].
    pub total_fit: f64,
    /// Achieved total uncertainty bound `Σ_h C_h · hw_h`.
    pub total_bound: f64,
    /// Whether `total_bound ≤ ε`.
    pub converged: bool,
}

impl ConfidenceCertificate {
    /// A canonical, deterministic byte serialization (floats as exact bit
    /// patterns) — the unit the determinism tests compare across worker
    /// counts and resume paths.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str("fidelity-cert v1\n");
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!(
            "plan {:016x} {:016x} {}\n",
            self.plan.epsilon.to_bits(),
            self.plan.confidence.to_bits(),
            self.plan.max_injections,
        ));
        for (idx, s) in self.strata.iter().enumerate() {
            out.push_str(&format!(
                "stratum {idx} {} {} {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {} {}\n",
                s.node,
                cat_code(s.category),
                s.samples,
                s.masked,
                s.weight.to_bits(),
                s.p_hat.to_bits(),
                s.ci_halfwidth.to_bits(),
                s.contribution.to_bits(),
                s.bound.to_bits(),
                u8::from(s.sampled),
                s.layer,
            ));
        }
        out.push_str(&format!(
            "total {:016x} {:016x} {} {} {}\n",
            self.total_fit.to_bits(),
            self.total_bound.to_bits(),
            self.total_injections,
            self.waves,
            u8::from(self.converged),
        ));
        out.into_bytes()
    }

    /// Renders the certificate as a human-readable per-stratum table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Confidence certificate (fingerprint {:016x})\n",
            self.fingerprint
        ));
        out.push_str(&format!(
            "  target ±{:.6} FIT at {:.0}% confidence, cap {} injections\n",
            self.plan.epsilon,
            self.plan.confidence * 100.0,
            self.plan.max_injections,
        ));
        out.push_str(&format!(
            "  {}: bound {:.6} FIT after {} injections in {} waves\n\n",
            if self.converged {
                "CONVERGED"
            } else {
                "NOT CONVERGED"
            },
            self.total_bound,
            self.total_injections,
            self.waves,
        ));
        out.push_str(&format!(
            "{:<16} {:<8} {:>8} {:>8} {:>10} {:>12} {:>12}\n",
            "layer", "category", "n", "p^", "ci +/-", "FIT", "bound +/-"
        ));
        for s in &self.strata {
            out.push_str(&format!(
                "{:<16} {:<8} {:>8} {:>8.4} {:>10.5} {:>12.5} {:>12.6}\n",
                s.layer,
                cat_code(s.category),
                s.samples,
                s.p_hat,
                s.ci_halfwidth,
                s.contribution,
                s.bound,
            ));
        }
        out.push_str(&format!(
            "{:<16} {:<8} {:>8} {:>8} {:>10} {:>12.5} {:>12.6}\n",
            "total", "", self.total_injections, "", "", self.total_fit, self.total_bound,
        ));
        out
    }
}

/// Builds the certificate from the final stratum tallies — the same
/// arithmetic [`verify_checkpoint`] re-runs offline.
pub(crate) fn build_certificate(
    fingerprint: u64,
    plan: &AdaptivePlan,
    z: f64,
    strata: &[StratumMeta],
    tallies: &[(usize, usize)],
    waves: usize,
) -> ConfidenceCertificate {
    let mut certs = Vec::with_capacity(strata.len());
    let mut total_fit = 0.0f64;
    let mut total_bound = 0.0f64;
    let mut total_injections = 0usize;
    for (meta, &(samples, masked)) in strata.iter().zip(tallies) {
        let (p_hat, ci_halfwidth, contribution, bound) =
            stratum_terms(meta.weight, masked, samples, z, meta.sampled());
        total_fit += contribution;
        total_bound += bound;
        total_injections += samples;
        certs.push(StratumCert {
            node: meta.node,
            layer: meta.layer.clone(),
            category: meta.category,
            samples,
            masked,
            weight: meta.weight,
            p_hat,
            ci_halfwidth,
            contribution,
            bound,
            sampled: meta.sampled(),
        });
    }
    ConfidenceCertificate {
        fingerprint,
        plan: plan.clone(),
        strata: certs,
        total_injections,
        waves,
        total_fit,
        total_bound,
        converged: total_bound <= plan.epsilon,
    }
}

/// Re-verifies an adaptive checkpoint offline and returns the certificate
/// it vouches for — the engine behind `fidelity statcheck --cert`.
///
/// Every invariant the running campaign maintains is re-checked from the
/// file alone: wave blocks contiguous and internally ordered, tallies
/// monotone and self-consistent, frozen strata never re-allocated, the
/// recomputed total bound bit-identical to the stored footer, the converged
/// flag consistent with ε, and the injection total within the cap.
///
/// # Errors
///
/// Returns [`DnnError::Campaign`] describing the first violated invariant,
/// or a parse error for a structurally corrupt file.
pub fn verify_checkpoint<R: BufRead>(r: R) -> Result<ConfidenceCertificate, DnnError> {
    let fail = |message: String| DnnError::Campaign {
        message: format!("certificate verification failed: {message}"),
    };
    let log = parse_log(r)?.ok_or_else(|| fail("checkpoint ends inside its header".into()))?;
    let LogPlan::Adaptive { plan, .. } = &log.plan else {
        return Err(fail(
            "checkpoint was written by a fixed-count plan, which carries no certificate".into(),
        ));
    };
    let z = plan.validated_z().map_err(|e| fail(e.to_string()))?;
    let footer = log
        .footer
        .ok_or_else(|| fail("checkpoint has no certificate footer (campaign unfinished)".into()))?;

    // Replay the wave blocks under the invariants resume also enforces.
    let n = log.strata.len();
    let mut rows = vec![StratumRow::default(); n];
    let mut frozen = vec![false; n];
    for block in &log.waves {
        fold_wave(block, &log.plan, &log.strata, &mut rows, &mut frozen).map_err(fail)?;
    }
    let tallies: Vec<(usize, usize)> = rows.iter().map(|r| (r.samples, r.masked)).collect();
    let cert = build_certificate(
        log.fingerprint,
        plan,
        z,
        &log.strata,
        &tallies,
        log.waves.len(),
    );
    if cert.total_bound.to_bits() != footer.total_bound.to_bits() {
        return Err(fail(format!(
            "recomputed total bound {} != stored {} (bit mismatch)",
            cert.total_bound, footer.total_bound
        )));
    }
    if cert.total_injections != footer.total_injections {
        return Err(fail(format!(
            "recomputed injection total {} != stored {}",
            cert.total_injections, footer.total_injections
        )));
    }
    if log.waves.len() != footer.waves {
        return Err(fail(format!(
            "checkpoint has {} waves but footer claims {}",
            log.waves.len(),
            footer.waves
        )));
    }
    if cert.converged != footer.converged {
        return Err(fail(format!(
            "converged flag {} inconsistent with bound {} vs epsilon {}",
            footer.converged, cert.total_bound, plan.epsilon
        )));
    }
    if cert.total_injections > plan.max_injections {
        return Err(fail(format!(
            "injection total {} exceeds the plan cap {}",
            cert.total_injections, plan.max_injections
        )));
    }
    Ok(cert)
}

/// Opens and verifies an adaptive checkpoint file; see [`verify_checkpoint`].
///
/// # Errors
///
/// As [`verify_checkpoint`], plus I/O errors opening the file.
pub fn verify_checkpoint_file(path: &std::path::Path) -> Result<ConfidenceCertificate, DnnError> {
    let file = std::fs::File::open(path).map_err(|e| DnnError::Campaign {
        message: format!("cannot open adaptive checkpoint {}: {e}", path.display()),
    })?;
    verify_checkpoint(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::SoftwareFaultModel;
    use crate::resilience::{
        write_cert_footer, write_header, write_row, write_wave, write_wave_start, CertFooter,
        FailureReason, WaveBlock, WaveFail,
    };
    use fidelity_accel::ff::{PipelineStage, VarType};
    use fidelity_obs::record_log;

    /// `log` with each record's payload passed through `edit` (`None`
    /// drops the record) and framed again by the shared writer.
    fn edit_records(log: &[u8], edit: impl Fn(&str) -> Option<String>) -> Vec<u8> {
        let (header, records) = record_log::read(log).unwrap();
        let mut out = Vec::new();
        record_log::write_header(&mut out, &header).unwrap();
        for record in records {
            if let Some(payload) = edit(record.unwrap().1) {
                record_log::write_record(&mut out, &payload).unwrap();
            }
        }
        out
    }

    /// `log` with the first occurrence of `from` replaced by `to` in the raw
    /// bytes, checksums untouched.
    fn splice(log: &[u8], from: &str, to: &str) -> Vec<u8> {
        String::from_utf8(log.to_vec())
            .unwrap()
            .replacen(from, to, 1)
            .into_bytes()
    }

    fn adaptive(plan: &AdaptivePlan) -> LogPlan {
        LogPlan::Adaptive {
            plan: plan.clone(),
            floor: WAVE_FLOOR,
        }
    }

    fn meta(node: usize, category: FfCategory, weight: f64) -> StratumMeta {
        StratumMeta {
            node,
            category,
            model: match category {
                FfCategory::GlobalControl => SoftwareFaultModel::GlobalControl,
                FfCategory::LocalControl => SoftwareFaultModel::LocalControl,
                FfCategory::Datapath { .. } => SoftwareFaultModel::OutputValue,
            },
            weight,
            layer: format!("layer{node}"),
        }
    }

    fn dp() -> FfCategory {
        FfCategory::Datapath {
            stage: PipelineStage::BeforeBuffer,
            var: VarType::Input,
        }
    }

    #[test]
    fn plan_validation_rejects_bad_parameters() {
        assert!(AdaptivePlan::new(0.01).validated_z().is_ok());
        assert!(AdaptivePlan::new(0.0).validated_z().is_err());
        assert!(AdaptivePlan::new(-1.0).validated_z().is_err());
        assert!(AdaptivePlan::new(f64::NAN).validated_z().is_err());
        let mut p = AdaptivePlan::new(0.01);
        p.confidence = 0.42;
        assert!(p.validated_z().is_err());
        let mut p = AdaptivePlan::new(0.01);
        p.max_injections = 0;
        assert!(p.validated_z().is_err());
        let mut p = AdaptivePlan::new(0.01);
        p.confidence = 0.99;
        assert!(p.validated_z().is_ok());
    }

    #[test]
    fn even_allocation_is_exact_and_deterministic() {
        let strata = [0usize, 2, 5];
        let a = allocate_even(10, &strata, 7, 0);
        let b = allocate_even(10, &strata, 7, 0);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|&(_, q)| q).sum::<usize>(), 10);
        // In stratum order, every stratum within one of the mean.
        let mut prev = None;
        for &(s, q) in &a {
            assert!(prev.is_none_or(|p| p < s));
            prev = Some(s);
            assert!((3..=4).contains(&q), "quota {q}");
        }
        // Different seeds may permute the remainder.
        let c = allocate_even(10, &strata, 8, 0);
        assert_eq!(c.iter().map(|&(_, q)| q).sum::<usize>(), 10);
    }

    #[test]
    fn neyman_allocation_follows_uncertainty() {
        let strata = [(0usize, 9.0), (1, 1.0)];
        let quotas = allocate_neyman(100, &strata, 3, 1);
        assert_eq!(quotas.iter().map(|&(_, q)| q).sum::<usize>(), 100);
        let q0 = quotas.iter().find(|&&(s, _)| s == 0).map_or(0, |&(_, q)| q);
        let q1 = quotas.iter().find(|&&(s, _)| s == 1).map_or(0, |&(_, q)| q);
        assert_eq!(q0, 90);
        assert_eq!(q1, 10);
        // Zero total uncertainty degrades to an even split.
        let flat = allocate_neyman(10, &[(0, 0.0), (1, 0.0)], 3, 1);
        assert_eq!(flat.iter().map(|&(_, q)| q).sum::<usize>(), 10);
    }

    #[test]
    fn checkpoint_round_trips_including_footer() {
        let plan = AdaptivePlan::new(0.005);
        let strata = vec![meta(0, dp(), 1.5), meta(0, FfCategory::GlobalControl, 0.25)];
        let mut buf = Vec::new();
        write_header(&mut buf, 0xABCD, &adaptive(&plan), &strata).unwrap();
        let wave = WaveBlock {
            index: 0,
            rows: vec![(
                0,
                StratumRow {
                    samples: 32,
                    masked: 30,
                    output_error: 2,
                    anomaly: 0,
                    rng_state: 0xDEAD_BEEF,
                    ..StratumRow::default()
                },
            )],
            fails: vec![WaveFail {
                stratum: 0,
                attempts: 2,
                reason: FailureReason::Panic("chaos: deliberate panic".into()),
            }],
        };
        write_wave(&mut buf, &wave).unwrap();
        let footer = CertFooter {
            total_bound: 0.123,
            total_injections: 32,
            waves: 1,
            converged: false,
        };
        write_cert_footer(&mut buf, &footer).unwrap();
        let parsed = parse_log(&buf[..]).unwrap().unwrap();
        assert_eq!(parsed.fingerprint, 0xABCD);
        assert_eq!(parsed.plan, adaptive(&plan));
        assert_eq!(parsed.strata, strata);
        assert_eq!(parsed.waves.len(), 1);
        assert_eq!(parsed.waves[0], wave);
        assert_eq!(parsed.footer, Some(footer));
    }

    #[test]
    fn torn_wave_block_is_dropped_not_fatal() {
        let plan = AdaptivePlan::new(0.01);
        let strata = vec![meta(0, dp(), 1.0)];
        let mut buf = Vec::new();
        write_header(&mut buf, 1, &adaptive(&plan), &strata).unwrap();
        let row = StratumRow {
            samples: 32,
            masked: 16,
            output_error: 16,
            anomaly: 0,
            rng_state: 7,
            ..StratumRow::default()
        };
        write_wave(
            &mut buf,
            &WaveBlock {
                index: 0,
                rows: vec![(0, row.clone())],
                fails: vec![],
            },
        )
        .unwrap();
        // Kill mid-write of a second wave: its `wave` record and a tally
        // row, cut at every byte short of the row's newline.
        let mut tail = Vec::new();
        write_wave_start(&mut tail, 1).unwrap();
        let wave_start = tail.len();
        let mut row64 = row.clone();
        row64.samples = 64;
        write_row(&mut tail, 0, &row64).unwrap();
        for cut in 0..tail.len() {
            let torn = [&buf[..], &tail[..cut]].concat();
            let parsed = parse_log(&torn[..]).unwrap().unwrap();
            assert_eq!(parsed.waves.len(), 1, "cut {cut}");
            assert_eq!(parsed.waves[0].rows[0].1, row);
            assert!(parsed.footer.is_none());
            // The torn row is dropped; the wave it opened stays open.
            assert_eq!(parsed.open.is_some(), cut >= wave_start, "cut {cut}");
            assert!(parsed.open.is_none_or(|b| b.rows.is_empty()), "cut {cut}");
        }
        // The same records spliced in unframed fail their checksum.
        for unframed in [
            "wave 1\n",
            "wave 1\nw 0 64 3",
            "w 0 64 32 32 0 0000000000000007\n",
        ] {
            let spliced = [&buf[..], unframed.as_bytes()].concat();
            let err = parse_log(&spliced[..]).unwrap_err().to_string();
            assert!(err.contains("checksum"), "{unframed:?}: {err}");
        }
        // Genuine garbage still errors, framed or not.
        let garbage = [&buf[..], b"lorem ipsum\n"].concat();
        assert!(parse_log(&garbage[..]).is_err());
        let mut framed = buf.clone();
        record_log::write_record(&mut framed, "lorem ipsum").unwrap();
        let err = parse_log(&framed[..]).unwrap_err().to_string();
        assert!(err.contains("unrecognized record"), "{err}");
    }

    #[test]
    fn verify_accepts_a_consistent_checkpoint_and_rejects_tampering() {
        let plan = AdaptivePlan::new(10.0); // generous: one wave converges
        let z = plan.validated_z().unwrap();
        let strata = vec![meta(0, dp(), 2.0), meta(0, FfCategory::GlobalControl, 0.5)];
        let tallies = [(40usize, 30usize), (0, 0)];
        let cert = build_certificate(9, &plan, z, &strata, &tallies, 1);
        assert!(cert.converged);
        let mut buf = Vec::new();
        write_header(&mut buf, 9, &adaptive(&plan), &strata).unwrap();
        write_wave(
            &mut buf,
            &WaveBlock {
                index: 0,
                rows: vec![(
                    0,
                    StratumRow {
                        samples: 40,
                        masked: 30,
                        output_error: 10,
                        anomaly: 0,
                        rng_state: 1,
                        ..StratumRow::default()
                    },
                )],
                fails: vec![],
            },
        )
        .unwrap();
        write_cert_footer(
            &mut buf,
            &CertFooter {
                total_bound: cert.total_bound,
                total_injections: cert.total_injections,
                waves: 1,
                converged: cert.converged,
            },
        )
        .unwrap();
        let ok = buf;
        let verified = verify_checkpoint(&ok[..]).unwrap();
        assert_eq!(verified, cert);

        // Tamper with the masked count: the stored bound no longer matches.
        let (row, tampered_row) = ("w 0 40 30 10 0", "w 0 40 35 5 0");
        let tampered = edit_records(&ok, |p| Some(p.replacen(row, tampered_row, 1)));
        let err = verify_checkpoint(&tampered[..]).unwrap_err().to_string();
        assert!(err.contains("total bound"), "unexpected: {err}");
        let err = verify_checkpoint(&splice(&ok, row, tampered_row)[..])
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum mismatch"), "unexpected: {err}");

        // Tamper with the converged flag.
        let flag = |p: &str| match p.strip_prefix("cert ") {
            Some(rest) => format!("cert {}0", &rest[..rest.len() - 1]),
            None => p.to_owned(),
        };
        let unconverged = edit_records(&ok, |p| Some(flag(p)));
        let err = verify_checkpoint(&unconverged[..]).unwrap_err().to_string();
        assert!(err.contains("converged flag"), "unexpected: {err}");
        let err = verify_checkpoint(&splice(&ok, " 1\n", " 0\n")[..])
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum mismatch"), "unexpected: {err}");

        // An unfinished checkpoint (no footer) cannot certify anything.
        let footer = |p: &str| p.starts_with("cert ") || p == "done cert";
        let unfinished = edit_records(&ok, |p| (!footer(p)).then(|| p.to_owned()));
        let err = verify_checkpoint(&unfinished[..]).unwrap_err().to_string();
        assert!(err.contains("no certificate footer"), "unexpected: {err}");
    }

    #[test]
    fn verify_rejects_global_and_frozen_allocation() {
        let plan = AdaptivePlan::new(0.001);
        let strata = vec![meta(0, dp(), 2.0), meta(0, FfCategory::GlobalControl, 0.5)];
        let mut buf = Vec::new();
        write_header(&mut buf, 9, &adaptive(&plan), &strata).unwrap();
        let row = |samples, masked| StratumRow {
            samples,
            masked,
            output_error: samples - masked,
            anomaly: 0,
            rng_state: 1,
            ..StratumRow::default()
        };
        // Global-control stratum allocated: invalid.
        let mut bad = buf.clone();
        write_wave(
            &mut bad,
            &WaveBlock {
                index: 0,
                rows: vec![(1, row(8, 0))],
                fails: vec![],
            },
        )
        .unwrap();
        write_cert_footer(
            &mut bad,
            &CertFooter {
                total_bound: 0.0,
                total_injections: 8,
                waves: 1,
                converged: false,
            },
        )
        .unwrap();
        let err = verify_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("global-control"), "unexpected: {err}");

        // A frozen stratum re-allocated on a later wave: invalid.
        let mut bad = buf.clone();
        write_wave(
            &mut bad,
            &WaveBlock {
                index: 0,
                rows: vec![(0, row(8, 4))],
                fails: vec![WaveFail {
                    stratum: 0,
                    attempts: 2,
                    reason: FailureReason::Panic("boom".into()),
                }],
            },
        )
        .unwrap();
        write_wave(
            &mut bad,
            &WaveBlock {
                index: 1,
                rows: vec![(0, row(16, 8))],
                fails: vec![],
            },
        )
        .unwrap();
        write_cert_footer(
            &mut bad,
            &CertFooter {
                total_bound: 0.0,
                total_injections: 16,
                waves: 2,
                converged: false,
            },
        )
        .unwrap();
        let err = verify_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("frozen"), "unexpected: {err}");

        // Shrinking samples: invalid.
        let mut bad = buf;
        write_wave(
            &mut bad,
            &WaveBlock {
                index: 0,
                rows: vec![(0, row(8, 4))],
                fails: vec![],
            },
        )
        .unwrap();
        write_wave(
            &mut bad,
            &WaveBlock {
                index: 1,
                rows: vec![(0, row(4, 2))],
                fails: vec![],
            },
        )
        .unwrap();
        write_cert_footer(
            &mut bad,
            &CertFooter {
                total_bound: 0.0,
                total_injections: 4,
                waves: 2,
                converged: false,
            },
        )
        .unwrap();
        let err = verify_checkpoint(&bad[..]).unwrap_err().to_string();
        assert!(err.contains("not increasing"), "unexpected: {err}");
    }

    #[test]
    fn certificate_bytes_are_deterministic_and_render_is_sane() {
        let plan = AdaptivePlan::new(0.005);
        let z = plan.validated_z().unwrap();
        let strata = vec![meta(0, dp(), 2.0), meta(1, FfCategory::GlobalControl, 0.5)];
        let cert = build_certificate(5, &plan, z, &strata, &[(100, 90), (0, 0)], 3);
        assert_eq!(cert.canonical_bytes(), cert.canonical_bytes());
        // The global stratum contributes its full weight with zero bound.
        assert_eq!(cert.strata[1].contribution, 0.5);
        assert_eq!(cert.strata[1].bound, 0.0);
        assert_eq!(cert.total_injections, 100);
        let text = cert.render();
        assert!(text.contains("layer0"));
        assert!(text.contains("NOT CONVERGED") || text.contains("CONVERGED"));
        assert!(text.contains("fingerprint 0000000000000005"));
    }
}
