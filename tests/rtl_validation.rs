//! Integration: the Sec.-IV validation claim as a test — software fault
//! models must match the register-level golden reference with zero
//! mismatches across random fault sites, layer families, and precisions.

use fidelity::core::validate::{random_sites, rtl_layer_for, validate_many};
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::precision::Precision;
use fidelity::rtl::RtlEngine;
use fidelity::workloads::{transformer_workload, workload};

fn validate_layer(
    workload: fidelity::workloads::Workload,
    layer: &str,
    precision: Precision,
    lanes: usize,
    hold: usize,
    sites: usize,
    seed: u64,
) {
    let name = workload.name.clone();
    let engine = Engine::new(
        workload.network,
        precision,
        std::slice::from_ref(&workload.inputs),
    )
    .unwrap();
    let trace = engine.trace(&workload.inputs).unwrap();
    let node = engine.network().node_index(layer).expect("layer exists");
    let rtl_layer = rtl_layer_for(&engine, &trace, node).expect("lifts to RTL");
    let rtl = RtlEngine::new(rtl_layer, lanes, hold);
    let mut rng = SplitMix64::new(seed);
    let site_list = random_sites(&rtl, sites, &mut rng);
    let report = validate_many(&rtl, &site_list);
    assert!(
        report.mismatches.is_empty(),
        "{name}/{layer}@{precision}: {:#?}",
        &report.mismatches[..report.mismatches.len().min(3)]
    );
    assert_eq!(report.datapath_exact, report.datapath_cases);
    assert_eq!(report.total, sites);
}

#[test]
fn conv_fp16_paper_geometry() {
    let w = workload("resnet", 42).unwrap();
    validate_layer(w, "r1_c1", Precision::Fp16, 16, 16, 600, 1);
}

#[test]
fn conv_int8() {
    let w = workload("inception", 42).unwrap();
    validate_layer(w, "m0_b1b", Precision::Int8, 16, 16, 400, 2);
}

#[test]
fn conv_int16_small_geometry() {
    let w = workload("mobilenet", 42).unwrap(); // pointwise conv
    validate_layer(w, "ds0_pw", Precision::Int16, 4, 8, 400, 3);
}

#[test]
fn dense_fp16() {
    let w = transformer_workload(42);
    validate_layer(w, "enc_ffn1", Precision::Fp16, 16, 16, 400, 4);
}

#[test]
fn attention_matmul_fp16() {
    let w = transformer_workload(42);
    validate_layer(w, "dec_ca_h1_scores", Precision::Fp16, 4, 4, 400, 5);
}

#[test]
fn global_control_failure_rate_is_dominant() {
    let w = workload("resnet", 42).unwrap();
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let node = engine.network().node_index("r1_c1").unwrap();
    let rtl = RtlEngine::new(rtl_layer_for(&engine, &trace, node).unwrap(), 16, 16);
    let mut rng = SplitMix64::new(6);
    // Sample only global-control sites.
    let inventory: Vec<_> = rtl
        .inventory()
        .into_iter()
        .filter(|(ff, _)| ff.category() == fidelity::accel::ff::FfCategory::GlobalControl)
        .collect();
    let sites: Vec<_> = (0..200)
        .map(|_| {
            let (ff, width) = inventory[rng.next_below(inventory.len() as u64) as usize];
            fidelity::rtl::FaultSite {
                ff,
                bit: rng.next_below(u64::from(width)) as u32,
                cycle: rng.next_below(rtl.clean_cycles()),
            }
        })
        .collect();
    let report = validate_many(&rtl, &sites);
    assert_eq!(report.global_cases, 200);
    // The conservative always-fails model is right for the majority.
    assert!(report.global_failure * 2 > report.global_cases);
}
