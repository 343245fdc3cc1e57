//! E4 — Fig. 4: Accelerator FIT rates for Inception, ResNet, MobileNet at
//! FP16 / INT16 / INT8, stacked by datapath / local-control / global-control
//! contributions (top-1 correctness metric, raw FF FIT = 600/MB).

use fidelity_core::analysis::analyze;
use fidelity_core::fit::{
    ff_fit_budget, ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION, PAPER_RAW_FIT_PER_MB,
};
use fidelity_core::outcome::TopOneMatch;
use fidelity_core::report::format_fit;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::classification_suite;

fn main() {
    fidelity_bench::init_telemetry();
    let cfg = fidelity_accel::presets::nvdla_like();
    let spec_seed = 0xF164;
    let budget = ff_fit_budget(ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION);

    println!(
        "Fig. 4 — Accelerator_FIT_rate (raw {} FIT/MB, {} samples/cell, top-1 metric)",
        PAPER_RAW_FIT_PER_MB,
        fidelity_bench::samples_per_cell()
    );
    fidelity_bench::rule(86);
    println!(
        "{:<12} {:<8} {:>10} {:>10} {:>10} {:>10}   vs ASIL-D budget",
        "network", "precision", "datapath", "local", "global", "TOTAL"
    );
    fidelity_bench::rule(86);

    for precision in [Precision::Fp16, Precision::Int16, Precision::Int8] {
        for workload in classification_suite(42) {
            let name = workload.name.clone();
            let (engine, trace) = fidelity_bench::deploy(workload, precision);
            let analysis = analyze(
                &engine,
                &trace,
                &cfg,
                &TopOneMatch,
                PAPER_RAW_FIT_PER_MB,
                &fidelity_bench::resilient_spec(
                    &format!("fig4_{name}_{precision}"),
                    spec_seed,
                    false,
                ),
            )
            .expect("analysis over fixed workloads");
            let f = &analysis.fit;
            println!(
                "{:<12} {:<8} {:>10} {:>10} {:>10} {:>10}   {}",
                name,
                precision.to_string(),
                format_fit(f.datapath),
                format_fit(f.local),
                format_fit(f.global),
                format_fit(f.total),
                if f.total > budget {
                    format!("{}x OVER the 0.2 budget", (f.total / budget).round())
                } else {
                    "within budget".into()
                }
            );
        }
        println!();
    }
    fidelity_bench::rule(86);
    println!("Expected shapes (paper key results 1, 2, 4):");
    println!("  - every total far exceeds the 0.2 ASIL-D FF budget (Key result 1);");
    println!(
        "  - global control dominates, but datapath+local alone still exceed 0.2 (Key result 2);"
    );
    println!("  - FP16 networks generally have higher FIT than INT16/INT8; INT8 >= INT16 (Key result 4).");
    fidelity_bench::finish_telemetry();
}
