//! E12 (extension) — the paper's "Architectural Insights" as experiments:
//!
//! 1. **Selective protection**: greedily protect the FF categories with the
//!    best FIT-per-cost until the ASIL-D FF budget (0.2) is met.
//! 2. **Adaptive protection**: the resilience-critical categories are
//!    workload dependent — compare the top unprotected-FIT category across
//!    workloads.
//! 3. **Value bounding (Key result 5 co-design)**: clamp each layer's
//!    outputs to its calibrated fault-free range and re-measure the FIT
//!    rate; large perturbations (the dangerous ones) are clipped.

use fidelity_core::analysis::analyze;
use fidelity_core::fit::{
    ff_fit_budget, ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION, PAPER_RAW_FIT_PER_MB,
};
use fidelity_core::outcome::TopOneMatch;
use fidelity_core::protect::{default_costs, plan_selective_protection};
use fidelity_core::report::format_fit;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::classification_suite;

fn main() {
    let cfg = fidelity_accel::presets::nvdla_like();
    let budget = ff_fit_budget(ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION);
    let spec = fidelity_bench::campaign_spec(0xF16C, false);

    println!(
        "Architectural insights ({} samples/cell)\n",
        spec.samples_per_cell
    );

    // ---------- 1 & 2: selective / adaptive protection ----------
    println!("1) Selective protection to reach the {budget} FIT budget:");
    for workload in classification_suite(42) {
        let name = workload.name.clone();
        let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
        let analysis = analyze(
            &engine,
            &trace,
            &cfg,
            &TopOneMatch,
            PAPER_RAW_FIT_PER_MB,
            &spec,
        )
        .expect("analysis over fixed workloads");
        let costs = default_costs(cfg.census.iter().map(|(c, _)| c));
        let plan =
            plan_selective_protection(&analysis.fit, &costs, |c| cfg.census.fraction(c), budget);
        println!(
            "  {:<12} FIT {:>6} -> {:>6}  (met: {}, area cost {:.1}% of FF area)",
            name,
            format_fit(analysis.fit.total),
            format_fit(plan.final_fit),
            plan.met_target,
            plan.total_cost * 100.0
        );
        for step in &plan.steps {
            println!(
                "      protect {:<34} -{:>7} FIT  (cost {:.2}%)",
                step.category.to_string(),
                format_fit(step.fit_removed),
                step.cost * 100.0
            );
        }
    }

    // ---------- 3: value-bounding co-design ----------
    println!("\n2) Value-bounding mitigation (writeback clamp at 1.5x the fault-free range):");
    println!(
        "   {:<12} {:>22} {:>22} {:>12}",
        "network", "datapath+local FIT", "with bounding", "reduction"
    );
    for workload in classification_suite(42) {
        let name = workload.name.clone();
        let inputs = workload.inputs.clone();
        let (mut engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
        let base = analyze(
            &engine,
            &trace,
            &cfg,
            &TopOneMatch,
            PAPER_RAW_FIT_PER_MB,
            &spec,
        )
        .expect("analysis over fixed workloads");

        engine
            .enable_range_bounding(&inputs, 1.5)
            .expect("slack >= 1");
        let trace_b = engine.trace(&inputs).expect("bounded trace");
        let bounded = analyze(
            &engine,
            &trace_b,
            &cfg,
            &TopOneMatch,
            PAPER_RAW_FIT_PER_MB,
            &spec,
        )
        .expect("bounded analysis");

        let b0 = base.fit.datapath + base.fit.local;
        let b1 = bounded.fit.datapath + bounded.fit.local;
        println!(
            "   {:<12} {:>22} {:>22} {:>11.0}%",
            name,
            format_fit(b0),
            format_fit(b1),
            (1.0 - b1 / b0.max(1e-12)) * 100.0
        );
    }
    println!("\nExpected shapes: global control is always the first (best FIT/cost)");
    println!("protection pick; bounding removes a large share of the datapath+local FIT");
    println!("because it clips exactly the large perturbations Key result 5 identifies.");
}
