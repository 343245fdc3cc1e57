//! Integration: the full FIdelity flow over every workload family, checking
//! the structural invariants of the FIT breakdown and the paper's headline
//! orderings.

use fidelity::core::analysis::analyze;
use fidelity::core::campaign::CampaignSpec;
use fidelity::core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity::core::outcome::{CorrectnessMetric, TopOneMatch};
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;
use fidelity::workloads::metrics::{BleuThreshold, DetectionThreshold};
use fidelity::workloads::{lstm_workload, transformer_workload, workload, yolo_workload, Workload};

fn spec(samples: usize) -> CampaignSpec {
    CampaignSpec {
        samples_per_cell: samples,
        seed: 0xE2E,
        ..CampaignSpec::default()
    }
}

fn run(
    workload: Workload,
    precision: Precision,
    metric: &dyn CorrectnessMetric,
    samples: usize,
) -> fidelity::core::analysis::ResilienceAnalysis {
    let engine = Engine::new(
        workload.network,
        precision,
        std::slice::from_ref(&workload.inputs),
    )
    .unwrap();
    let trace = engine.trace(&workload.inputs).unwrap();
    let accel = fidelity::accel::presets::nvdla_like();
    analyze(
        &engine,
        &trace,
        &accel,
        metric,
        PAPER_RAW_FIT_PER_MB,
        &spec(samples),
    )
    .unwrap()
}

#[test]
fn breakdown_invariants_hold_for_every_family() {
    let cases: Vec<(Workload, Box<dyn CorrectnessMetric>)> = vec![
        (workload("inception", 1).unwrap(), Box::new(TopOneMatch)),
        (
            yolo_workload(1),
            Box::new(DetectionThreshold::ten_percent()),
        ),
        (
            transformer_workload(1),
            Box::new(BleuThreshold::ten_percent()),
        ),
        (lstm_workload(1), Box::new(TopOneMatch)),
    ];
    for (workload, metric) in cases {
        let name = workload.name.clone();
        let analysis = run(workload, Precision::Fp16, metric.as_ref(), 40);
        let f = &analysis.fit;
        assert!(f.total > 0.0, "{name}: zero FIT");
        assert!(
            (f.datapath + f.local + f.global - f.total).abs() < 1e-9,
            "{name}: breakdown does not sum"
        );
        assert!(f.global > 0.0, "{name}: global control must contribute");
        // Fig. 6 scenario = total minus global, exactly.
        assert!(
            (analysis.fit_global_protected.total - (f.total - f.global)).abs() < 1e-9,
            "{name}: protected-global mismatch"
        );
        // Raw-FIT ceiling: nothing can exceed the all-faults-fail bound.
        let accel = fidelity::accel::presets::nvdla_like();
        let ceiling = PAPER_RAW_FIT_PER_MB * accel.ff_megabytes();
        assert!(f.total <= ceiling + 1e-9, "{name}: FIT above raw ceiling");
    }
}

#[test]
fn metric_threshold_ordering_transformer() {
    // Key result 3: a looser correctness metric can only lower the
    // datapath+local FIT (identical injections, same seed).
    let tight = run(
        transformer_workload(2),
        Precision::Fp16,
        &BleuThreshold::ten_percent(),
        60,
    );
    let loose = run(
        transformer_workload(2),
        Precision::Fp16,
        &BleuThreshold::twenty_percent(),
        60,
    );
    let tight_dl = tight.fit.datapath + tight.fit.local;
    let loose_dl = loose.fit.datapath + loose.fit.local;
    assert!(
        loose_dl <= tight_dl + 1e-9,
        "20% metric must not raise FIT: {loose_dl} vs {tight_dl}"
    );
}

#[test]
fn analysis_is_reproducible() {
    let a = run(
        workload("resnet", 3).unwrap(),
        Precision::Fp16,
        &TopOneMatch,
        30,
    );
    let b = run(
        workload("resnet", 3).unwrap(),
        Precision::Fp16,
        &TopOneMatch,
        30,
    );
    assert_eq!(a.fit.total.to_bits(), b.fit.total.to_bits());
    assert_eq!(a.campaign.total_samples(), b.campaign.total_samples());
}

#[test]
fn exec_time_weights_are_positive() {
    let analysis = run(
        workload("mobilenet", 4).unwrap(),
        Precision::Fp16,
        &TopOneMatch,
        20,
    );
    assert!(!analysis.layer_terms.is_empty());
    for term in &analysis.layer_terms {
        assert!(term.exec_cycles > 0, "{} has zero exec time", term.name);
        for cat in &term.categories {
            assert!((0.0..=1.0).contains(&cat.prob_inactive));
            assert!((0.0..=1.0).contains(&cat.prob_swmask));
        }
    }
}
