//! Quickstart: derive software fault models for an NVDLA-like accelerator,
//! run a fault-injection campaign on a CNN, and compute its FIT rate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fidelity::core::analysis::analyze;
use fidelity::core::campaign::CampaignSpec;
use fidelity::core::fit::{
    ff_fit_budget, ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION, PAPER_RAW_FIT_PER_MB,
};
use fidelity::core::outcome::TopOneMatch;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;
use fidelity::obs::stats::wilson95;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the accelerator — no RTL needed, just block-diagram facts:
    //    MAC geometry, FF census, bandwidths (here: the NVDLA-like preset the
    //    paper validates).
    let accel = fidelity::accel::presets::nvdla_like();
    accel.validate()?;
    println!(
        "accelerator: {} ({} MAC lanes, {:.2} MB of flip-flops)",
        accel.name,
        accel.dataflow.lanes(),
        accel.ff_megabytes()
    );

    // 2. Deploy a workload at FP16.
    let workload = fidelity::workloads::classification_suite(42).remove(0);
    println!("workload:    {} (image classification)", workload.name);
    let engine = Engine::new(
        workload.network,
        Precision::Fp16,
        std::slice::from_ref(&workload.inputs),
    )?;
    let trace = engine.trace(&workload.inputs)?;

    // 3. Run the FIdelity flow: activeness analysis, software fault-injection
    //    campaign over every MAC layer × FF category, then Eq. 2.
    let spec = CampaignSpec {
        samples_per_cell: 100,
        seed: 1,
        ..CampaignSpec::default()
    };
    let analysis = analyze(
        &engine,
        &trace,
        &accel,
        &TopOneMatch,
        PAPER_RAW_FIT_PER_MB,
        &spec,
    )?;

    println!(
        "\ncampaign:    {} injections",
        analysis.campaign.total_samples()
    );
    for cell in analysis.campaign.cells.iter().take(7) {
        let (lo, hi) = wilson95(cell.masked, cell.samples.max(1));
        println!(
            "  {:<28} {:<34} Prob_SWmask = {:.2} (95% CI {:.2}–{:.2})",
            cell.layer,
            cell.category.to_string(),
            cell.prob_swmask(),
            lo,
            hi
        );
    }
    println!("  ... ({} cells total)", analysis.campaign.cells.len());

    // 4. The resilience verdict.
    let fit = &analysis.fit;
    let budget = ff_fit_budget(ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION);
    println!("\nAccelerator_FIT_rate = {:.2}", fit.total);
    println!(
        "  datapath: {:.2}   local control: {:.3}   global control: {:.2}",
        fit.datapath, fit.local, fit.global
    );
    println!(
        "  ASIL-D FF budget is {budget}; this deployment is {:.0}x over — unprotected FFs are not safe for automotive use (Key result 1).",
        fit.total / budget
    );
    Ok(())
}
