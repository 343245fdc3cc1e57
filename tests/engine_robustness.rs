//! Robustness fuzzing: arbitrary fault sites — including out-of-range
//! indices, control-register corruption and mid-bubble cycles — must never
//! panic either register-level engine, and every run must terminate (the
//! watchdog bounds even derailed executions).

use fidelity::core::validate::rtl_layer_for;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::precision::Precision;
use fidelity::rtl::{
    Disturbance, FaultSite, FfId, RtlEngine, SeqCounter, SysFaultSite, SysFfId, SystolicEngine,
};
use fidelity::workloads::workload;
use proptest::prelude::*;

fn nvdla_engine() -> RtlEngine {
    let w = workload("mobilenet", 31).unwrap();
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let node = engine.network().node_index("ds0_pw").unwrap();
    RtlEngine::new(rtl_layer_for(&engine, &trace, node).unwrap(), 4, 4)
}

fn systolic_engine() -> SystolicEngine {
    let w = workload("resnet", 31).unwrap();
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let node = engine.network().node_index("r2_c2").unwrap();
    SystolicEngine::new(rtl_layer_for(&engine, &trace, node).unwrap(), 3, 2)
}

fn arb_ffid() -> impl Strategy<Value = FfId> {
    prop_oneof![
        Just(FfId::FetchInput),
        Just(FfId::FetchWeight),
        Just(FfId::InputOperand),
        (0usize..8).prop_map(|lane| FfId::WeightOperand { lane }),
        (0usize..8, 0usize..8).prop_map(|(lane, slot)| FfId::Accumulator { lane, slot }),
        (0usize..8).prop_map(|lane| FfId::OutputReg { lane }),
        (0usize..8).prop_map(|lane| FfId::OutputValid { lane }),
        (0usize..32).prop_map(|index| FfId::Config { index }),
        prop_oneof![
            Just(SeqCounter::Group),
            Just(SeqCounter::Stripe),
            Just(SeqCounter::Kernel),
            Just(SeqCounter::Cycle)
        ]
        .prop_map(|counter| FfId::Sequencer { counter }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nvdla_engine_never_panics(ff in arb_ffid(), bit in 0u32..40, cycle_frac in 0.0f64..1.2) {
        let engine = nvdla_engine();
        let cycle = (engine.clean_cycles() as f64 * cycle_frac) as u64;
        let result = engine.run(Disturbance::Ff(FaultSite { ff, bit, cycle }));
        // Terminated (normally or via watchdog) with a well-formed output.
        prop_assert_eq!(result.output.len(), engine.clean_output().len());
        prop_assert!(result.cycles <= engine.clean_cycles() * 4 + 1024);
    }
}

fn arb_sys_ffid() -> impl Strategy<Value = SysFfId> {
    prop_oneof![
        Just(SysFfId::FetchInput),
        Just(SysFfId::FetchWeight),
        Just(SysFfId::WeightOperand),
        (0usize..8).prop_map(|pe| SysFfId::InputOperand { pe }),
        (0usize..8, 0usize..8).prop_map(|(pe, slot)| SysFfId::Accumulator { pe, slot }),
        (0usize..8).prop_map(|pe| SysFfId::OutputReg { pe }),
        (0usize..8).prop_map(|pe| SysFfId::OutputValid { pe }),
        (0usize..32).prop_map(|index| SysFfId::Config { index }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn systolic_engine_never_panics(ff in arb_sys_ffid(), bit in 0u32..40, cycle_frac in 0.0f64..1.2) {
        let engine = systolic_engine();
        let cycle = (engine.clean_cycles() as f64 * cycle_frac) as u64;
        let result = engine.run(SysFaultSite { ff, bit, cycle });
        prop_assert_eq!(result.output.len(), engine.clean_output().len());
        prop_assert!(result.cycles <= engine.clean_cycles() * 4 + 1024);
    }
}

#[test]
fn systolic_validation_is_exact_end_to_end() {
    use fidelity::core::validate_systolic::{random_systolic_sites, validate_systolic_many};
    let engine = systolic_engine();
    let mut rng = SplitMix64::new(71);
    let sites = random_systolic_sites(&engine, 400, &mut rng);
    let report = validate_systolic_many(&engine, &sites);
    assert!(
        report.mismatches.is_empty(),
        "{:#?}",
        &report.mismatches[..report.mismatches.len().min(3)]
    );
    assert_eq!(report.datapath_exact, report.datapath_cases);
    assert!(report.datapath_cases > 0);
}

#[test]
fn faults_past_end_of_execution_are_masked() {
    let engine = nvdla_engine();
    let result = engine.run(Disturbance::Ff(FaultSite {
        ff: FfId::InputOperand,
        bit: 3,
        cycle: engine.clean_cycles() + 10_000,
    }));
    assert_eq!(result.output.data(), engine.clean_output().data());
    assert!(!result.timed_out);
}
