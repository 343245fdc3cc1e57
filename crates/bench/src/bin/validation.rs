//! E3 — Sec. IV validation: software fault models vs. the register-level
//! golden reference.
//!
//! For each representative workload layer (the Table III set: convolutions
//! from Inception/ResNet/Yolo, an FC and an attention MatMul from the
//! Transformer, an FC inside the LSTM), random fault sites are injected into
//! the register-level engine and the same sites are used to instantiate the
//! software fault models. The paper's criteria:
//!
//! * datapath faults must match **exactly** (neurons and values),
//! * local-control faults must have RF ≤ 1 with the same neuron,
//! * global-control faults are modeled as always failing; the RTL-masked
//!   fraction is reported (the paper measured ~9.5%).

use fidelity_core::validate::{random_sites, rtl_layer_for, validate_many, ValidationReport};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::precision::Precision;
use fidelity_rtl::RtlEngine;
use fidelity_workloads::{lstm_workload, transformer_workload, workload, yolo_workload, Workload};

struct Case {
    name: &'static str,
    workload: Workload,
    layer: &'static str,
}

fn main() {
    let sites_per_case = fidelity_bench::validation_sites();
    let cases = vec![
        Case {
            name: "inception 3x3 conv",
            workload: workload("inception", 42).expect("known network"),
            layer: "m0_b1b",
        },
        Case {
            name: "resnet 3x3 conv",
            workload: workload("resnet", 42).expect("known network"),
            layer: "r1_c1",
        },
        Case {
            name: "yolo 3x3 conv",
            workload: yolo_workload(42),
            layer: "c2",
        },
        Case {
            name: "transformer FC (FFN)",
            workload: transformer_workload(42),
            layer: "enc_ffn1",
        },
        Case {
            name: "transformer MatMul (attention)",
            workload: transformer_workload(42),
            layer: "enc_sa_h0_scores",
        },
        Case {
            name: "LSTM FC (gate projection)",
            workload: lstm_workload(42),
            layer: "t1_xg",
        },
    ];

    println!(
        "Sec. IV validation — {} random FF fault sites per workload layer (FP16, 16 lanes, 16-cycle weight hold)",
        sites_per_case
    );
    fidelity_bench::rule(118);
    println!(
        "{:<32} {:>7} {:>7} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9}",
        "workload layer",
        "sites",
        "masked",
        "dp cases",
        "dp exact",
        "local",
        "match",
        "global",
        "fail",
        "masked",
        "timeouts"
    );
    fidelity_bench::rule(118);

    let mut total = ValidationReport::default();
    let mut rng = SplitMix64::new(0x005E_C41D);
    for case in cases {
        let (engine, trace) = fidelity_bench::deploy(case.workload, Precision::Fp16);
        let node = engine
            .network()
            .node_index(case.layer)
            .unwrap_or_else(|| panic!("layer {} not found", case.layer));
        let layer = rtl_layer_for(&engine, &trace, node).expect("MAC layer lifts to RTL");
        let rtl = RtlEngine::new(layer, 16, 16);
        let sites = random_sites(&rtl, sites_per_case, &mut rng);
        let report = validate_many(&rtl, &sites);
        print_row(case.name, &report);
        total.merge(&report);
    }

    fidelity_bench::rule(118);
    print_row("TOTAL", &total);
    fidelity_bench::rule(118);

    // Portability check: the same methodology against the Eyeriss-like
    // row-stationary engine (a structurally different dataflow).
    println!("\nEyeriss-like systolic engine (4 PE rows, 3-channel reuse):");
    {
        use fidelity_core::validate_systolic::{random_systolic_sites, validate_systolic_many};
        use fidelity_rtl::SystolicEngine;
        let w = workload("resnet", 42).expect("known network");
        let (engine, trace) = fidelity_bench::deploy(w, Precision::Fp16);
        let node = engine.network().node_index("r1_c1").expect("resnet conv");
        let layer = rtl_layer_for(&engine, &trace, node).expect("conv lifts");
        let sys = SystolicEngine::new(layer, 4, 3);
        let sites = random_systolic_sites(&sys, sites_per_case, &mut rng);
        let report = validate_systolic_many(&sys, &sites);
        print_row("resnet conv (systolic)", &report);
        total.merge(&report);
        if !report.mismatches.is_empty() {
            println!("  SYSTOLIC MISMATCHES: {}", report.mismatches.len());
        }
    }

    let global_masked_pct = if total.global_cases > 0 {
        100.0 * total.global_masked as f64 / total.global_cases as f64
    } else {
        0.0
    };
    println!("\nSummary vs. the paper's Sec. IV-C:");
    println!(
        "  datapath software models matched RTL exactly in {}/{} non-masked cases (paper: all 8262)",
        total.datapath_exact, total.datapath_cases
    );
    println!(
        "  local-control faults had RF<=1 with the predicted neuron in {}/{} cases (paper: all 138; values non-deterministic)",
        total.local_match, total.local_cases
    );
    println!(
        "  global-control faults: {:.1}% masked in RTL (paper: ~9.5%); FIdelity conservatively models them as failures",
        global_masked_pct
    );
    println!(
        "  time-outs observed: {} (paper: 72, all global control)",
        total.timeouts
    );
    if total.mismatches.is_empty() {
        println!("  NO MISMATCHES — software fault models fully validated");
    } else {
        println!("  MISMATCHES: {}", total.mismatches.len());
        for m in total.mismatches.iter().take(10) {
            println!("    {m}");
        }
        std::process::exit(1);
    }
}

fn print_row(name: &str, r: &ValidationReport) {
    println!(
        "{:<32} {:>7} {:>7} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9}",
        name,
        r.total,
        r.masked_agreed,
        r.datapath_cases,
        r.datapath_exact,
        r.local_cases,
        r.local_match,
        r.global_cases,
        r.global_failure,
        r.global_masked,
        r.timeouts
    );
}
