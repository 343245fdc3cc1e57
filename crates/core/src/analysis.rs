//! The end-to-end FIdelity flow (Fig. 3): activeness analysis → software
//! fault-injection campaign → Accelerator_FIT_rate.

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_accel::ff::FfCategory;
use fidelity_accel::perf::{extract_work, LayerTiming};
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::DnnError;

use crate::activeness::prob_inactive;
use crate::campaign::{run_campaign, CampaignResult, CampaignSpec};
use crate::fit::{accelerator_fit_rate, CategoryTerm, FitBreakdown, LayerTerm};
use crate::outcome::CorrectnessMetric;

/// Everything the flow produces for one (network, precision, metric) triple.
#[derive(Debug, Clone)]
pub struct ResilienceAnalysis {
    /// The FIT breakdown with no protection applied.
    pub fit: FitBreakdown,
    /// The FIT breakdown assuming global-control FFs are protected (Fig. 6).
    pub fit_global_protected: FitBreakdown,
    /// The per-layer Eq.-2 inputs (for reporting and sensitivity reuse).
    pub layer_terms: Vec<LayerTerm>,
    /// The raw campaign.
    pub campaign: CampaignResult,
}

/// Runs the complete FIdelity flow on a deployed engine.
///
/// `raw_fit_per_mb` is the technology-dependent raw FF FIT rate
/// ([`crate::fit::PAPER_RAW_FIT_PER_MB`] reproduces the paper's setting).
///
/// # Errors
///
/// Propagates graph-execution errors.
pub fn analyze(
    engine: &Engine,
    trace: &Trace,
    accel: &AcceleratorConfig,
    metric: &dyn CorrectnessMetric,
    raw_fit_per_mb: f64,
    spec: &CampaignSpec,
) -> Result<ResilienceAnalysis, DnnError> {
    // Step 1+2: campaign over MAC layers and categories.
    let campaign = {
        let _span = fidelity_obs::span!("analysis.campaign");
        run_campaign(engine, trace, accel, metric, spec)?
    };

    // Performance model for exec times and Class-3 activeness.
    let _span = fidelity_obs::span!("analysis.fit");
    let work = extract_work(engine, trace);
    let precision = engine.precision();

    let mut layer_terms = Vec::new();
    for &node in &campaign.nodes() {
        let w = &work[node];
        let timing = LayerTiming::analyze(accel, w);
        let categories = accel
            .census
            .iter()
            .filter_map(|(category, _)| {
                let swmask = campaign.prob_swmask(node, category)?;
                Some(CategoryTerm {
                    category,
                    prob_inactive: prob_inactive(accel, category, &timing, precision),
                    prob_swmask: swmask,
                })
            })
            .collect();
        layer_terms.push(LayerTerm {
            name: w.name.clone(),
            exec_cycles: timing.total_cycles,
            categories,
        });
    }

    // Step 3: Eq. 2.
    let fit = accelerator_fit_rate(accel, raw_fit_per_mb, &layer_terms, &[]);
    let fit_global_protected = accelerator_fit_rate(
        accel,
        raw_fit_per_mb,
        &layer_terms,
        &[FfCategory::GlobalControl],
    );

    Ok(ResilienceAnalysis {
        fit,
        fit_global_protected,
        layer_terms,
        campaign,
    })
}

/// Runs the flow over several input samples and averages the per-cell
/// masking probabilities before Eq. 2 — the paper's campaigns draw inputs
/// from a dataset, not a single image.
///
/// Each sample gets its own trace and campaign (seeded differently);
/// exec-time weights come from the first sample (layer shapes are input-
/// independent for these workloads).
///
/// # Errors
///
/// Propagates graph-execution errors.
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn analyze_multi(
    engine: &Engine,
    samples: &[Vec<fidelity_dnn::Tensor>],
    accel: &AcceleratorConfig,
    metric: &dyn CorrectnessMetric,
    raw_fit_per_mb: f64,
    spec: &CampaignSpec,
) -> Result<ResilienceAnalysis, DnnError> {
    assert!(!samples.is_empty(), "need at least one input sample");
    let mut per_sample = Vec::with_capacity(samples.len());
    for (i, inputs) in samples.iter().enumerate() {
        let trace = engine.trace(inputs)?;
        let mut sample_spec = spec.clone();
        sample_spec.seed = spec.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
        // Each sample is its own campaign with its own seed, so it also gets
        // its own checkpoint file (`<path>.s<i>`): a resumed multi-sample
        // analysis skips every sample campaign that already finished.
        if let Some(ckpt) = sample_spec.resilience.checkpoint.as_mut() {
            let mut path = ckpt.path.clone().into_os_string();
            path.push(format!(".s{i}"));
            ckpt.path = path.into();
        }
        per_sample.push(analyze(
            engine,
            &trace,
            accel,
            metric,
            raw_fit_per_mb,
            &sample_spec,
        )?);
    }

    // Average the per-(layer, category) masking terms across samples, then
    // recompute Eq. 2 once.
    let mut layer_terms = per_sample[0].layer_terms.clone();
    for terms in &mut layer_terms {
        for cat in &mut terms.categories {
            let mut mask = 0.0;
            let mut inactive = 0.0;
            for s in &per_sample {
                let t = s
                    .layer_terms
                    .iter()
                    .find(|t| t.name == terms.name)
                    // Per-sample analyses all come from the same deployed
                    // network, so the lookup cannot fail.
                    // statcheck:allow(panic-path)
                    .expect("same network across samples");
                let c = t
                    .categories
                    .iter()
                    .find(|c| c.category == cat.category)
                    // Same accelerator census for every sample, see above.
                    // statcheck:allow(panic-path)
                    .expect("same census across samples");
                mask += c.prob_swmask;
                inactive += c.prob_inactive;
            }
            cat.prob_swmask = mask / per_sample.len() as f64;
            cat.prob_inactive = inactive / per_sample.len() as f64;
        }
    }
    let fit = accelerator_fit_rate(accel, raw_fit_per_mb, &layer_terms, &[]);
    let fit_global_protected = accelerator_fit_rate(
        accel,
        raw_fit_per_mb,
        &layer_terms,
        &[FfCategory::GlobalControl],
    );
    // Concatenate the campaigns for inspection.
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for s in per_sample {
        cells.extend(s.campaign.cells);
        failures.extend(s.campaign.failures);
    }
    let campaign = CampaignResult {
        cells,
        failures,
        // Per-sample certificates do not concatenate (each certifies its own
        // plan fingerprint); adaptive multi-sample runs re-verify per sample.
        certificate: None,
    };
    Ok(ResilienceAnalysis {
        fit,
        fit_global_protected,
        layer_terms,
        campaign,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::PAPER_RAW_FIT_PER_MB;
    use crate::outcome::TopOneMatch;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Conv2d, Dense, Flatten, GlobalAvgPool};
    use fidelity_dnn::precision::Precision;

    fn tiny() -> (Engine, Trace) {
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(
                Conv2d::new("conv", uniform_tensor(1, vec![4, 2, 3, 3], 0.5))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["conv"])
            .unwrap()
            .layer(Flatten::new("flat"), &["gap"])
            .unwrap()
            .layer(
                Dense::new("fc", uniform_tensor(2, vec![3, 4], 0.5)).unwrap(),
                &["flat"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let trace = engine
            .trace(&[uniform_tensor(3, vec![1, 2, 6, 6], 1.0)])
            .unwrap();
        (engine, trace)
    }

    #[test]
    fn multi_sample_averages_masking() {
        let (engine, _) = tiny();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 20,
            seed: 9,
            threads: 2,
            record_events: false,
            resilience: Default::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let samples: Vec<Vec<fidelity_dnn::Tensor>> = (0..3)
            .map(|i| vec![uniform_tensor(100 + i, vec![1, 2, 6, 6], 1.0)])
            .collect();
        let multi = analyze_multi(
            &engine,
            &samples,
            &cfg,
            &TopOneMatch,
            PAPER_RAW_FIT_PER_MB,
            &spec,
        )
        .unwrap();
        assert!(multi.fit.total > 0.0);
        // Campaign concatenates all three samples' cells.
        assert_eq!(multi.campaign.cells.len(), 3 * 2 * 7);
        // The averaged FIT lies within the span of per-sample FITs.
        let mut per_sample = Vec::new();
        for (i, inputs) in samples.iter().enumerate() {
            let trace = engine.trace(inputs).unwrap();
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            per_sample.push(
                analyze(
                    &engine,
                    &trace,
                    &cfg,
                    &TopOneMatch,
                    PAPER_RAW_FIT_PER_MB,
                    &s,
                )
                .unwrap()
                .fit
                .total,
            );
        }
        let lo = per_sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_sample.iter().cloned().fold(0.0f64, f64::max);
        assert!(multi.fit.total >= lo - 1e-9 && multi.fit.total <= hi + 1e-9);
    }

    #[test]
    fn full_flow_produces_consistent_breakdown() {
        let (engine, trace) = tiny();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 25,
            seed: 5,
            threads: 2,
            record_events: false,
            resilience: Default::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let analysis = analyze(
            &engine,
            &trace,
            &cfg,
            &TopOneMatch,
            PAPER_RAW_FIT_PER_MB,
            &spec,
        )
        .unwrap();
        let fit = &analysis.fit;
        assert!(fit.total > 0.0);
        assert!((fit.datapath + fit.local + fit.global - fit.total).abs() < 1e-9);
        // Global-control FFs never mask in the model, so they dominate or at
        // least contribute substantially.
        assert!(fit.global > 0.0);
        // Fig. 6 scenario removes exactly the global part.
        assert!((analysis.fit_global_protected.total - (fit.total - fit.global)).abs() < 1e-9);
        // Layer terms cover both MAC layers.
        assert_eq!(analysis.layer_terms.len(), 2);
    }
}
