//! Integration: precision / perturbation effects (Key results 4 and 5) and
//! outcome-classification behaviour under deliberately injected extremes.

use fidelity::core::campaign::{run_campaign, CampaignSpec};
use fidelity::core::inject::inject_once;
use fidelity::core::models::SoftwareFaultModel;
use fidelity::core::outcome::{Outcome, TopOneMatch};
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::macspec::OperandKind;
use fidelity::dnn::precision::Precision;
use fidelity::workloads::{classification_suite, workload};

fn spec(samples: usize, events: bool) -> CampaignSpec {
    CampaignSpec {
        samples_per_cell: samples,
        seed: 0xACC,
        record_events: events,
        ..CampaignSpec::default()
    }
}

#[test]
fn fp16_faults_produce_larger_perturbations_than_int8() {
    // The dynamic-range argument behind Key result 4: FP16's exponent bits
    // allow enormous perturbations; the INT8 grid bounds them.
    let accel = fidelity::accel::presets::nvdla_like();
    let mut max_fp16 = 0.0f32;
    let mut max_int8 = 0.0f32;
    for precision in [Precision::Fp16, Precision::Int8] {
        let w = workload("resnet", 9).unwrap();
        let engine = Engine::new(w.network, precision, std::slice::from_ref(&w.inputs)).unwrap();
        let trace = engine.trace(&w.inputs).unwrap();
        let campaign =
            run_campaign(&engine, &trace, &accel, &TopOneMatch, &spec(80, true)).unwrap();
        let max_pert = campaign
            .cells
            .iter()
            .flat_map(|c| c.events.iter())
            .map(|e| e.max_perturbation)
            .filter(|p| p.is_finite())
            .fold(0.0f32, f32::max);
        match precision {
            Precision::Fp16 => max_fp16 = max_pert,
            _ => max_int8 = max_pert,
        }
    }
    assert!(
        max_fp16 > 10.0 * max_int8,
        "FP16 perturbations ({max_fp16}) should dwarf INT8 ({max_int8})"
    );
}

#[test]
fn large_perturbations_cause_more_output_errors() {
    // Key result 5 as a coarse assertion over recorded single-neuron events.
    let accel = fidelity::accel::presets::nvdla_like();
    let mut small = (0usize, 0usize);
    let mut large = (0usize, 0usize);
    for workload in classification_suite(11) {
        let engine = Engine::new(
            workload.network,
            Precision::Fp16,
            std::slice::from_ref(&workload.inputs),
        )
        .unwrap();
        let trace = engine.trace(&workload.inputs).unwrap();
        let campaign =
            run_campaign(&engine, &trace, &accel, &TopOneMatch, &spec(120, true)).unwrap();
        for event in campaign.cells.iter().flat_map(|c| c.events.iter()) {
            if event.faulty_neurons != 1 {
                continue;
            }
            let err = usize::from(event.outcome == Outcome::OutputError);
            if event.max_perturbation <= 100.0 {
                small = (small.0 + err, small.1 + 1);
            } else {
                large = (large.0 + err, large.1 + 1);
            }
        }
    }
    assert!(small.1 > 50 && large.1 > 10, "need events in both buckets");
    let p_small = small.0 as f64 / small.1 as f64;
    let p_large = large.0 as f64 / large.1 as f64;
    assert!(
        p_large > 2.0 * p_small,
        "large perturbations ({p_large:.3}) should fail much more than small ({p_small:.3})"
    );
}

#[test]
fn before_buffer_weight_fault_can_break_top1() {
    // Direct, deterministic-seeded check that the injection plumbing can
    // actually change the application output: keep injecting until a fault
    // flips the label, then verify the outcome classification agrees.
    let w = workload("inception", 5).unwrap();
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let node = engine.network().node_index("stem").unwrap();
    let mut rng = SplitMix64::new(1);
    let mut saw_error = false;
    for _ in 0..400 {
        let inj = inject_once(
            &engine,
            &trace,
            node,
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Weight,
            },
            &TopOneMatch,
            &mut rng,
        )
        .unwrap();
        if inj.outcome == Outcome::OutputError {
            let final_out = inj.final_output.expect("completed run has output");
            assert_ne!(final_out.argmax(), trace.output.argmax());
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "no output error in 400 weight-memory faults");
}

#[test]
fn int8_outcomes_differ_from_fp16_under_same_seed() {
    let accel = fidelity::accel::presets::nvdla_like();
    let masked_frac = |precision| {
        let w = workload("mobilenet", 13).unwrap();
        let engine = Engine::new(w.network, precision, std::slice::from_ref(&w.inputs)).unwrap();
        let trace = engine.trace(&w.inputs).unwrap();
        let campaign =
            run_campaign(&engine, &trace, &accel, &TopOneMatch, &spec(60, false)).unwrap();
        let (masked, total) = campaign
            .cells
            .iter()
            .filter(|c| c.category != fidelity::accel::ff::FfCategory::GlobalControl)
            .fold((0, 0), |(m, t), c| (m + c.masked, t + c.samples));
        masked as f64 / total as f64
    };
    let fp16 = masked_frac(Precision::Fp16);
    let int8 = masked_frac(Precision::Int8);
    // Both deployments mask most faults, but not identically.
    assert!(fp16 > 0.3 && int8 > 0.3);
    assert_ne!(fp16, int8);
}
