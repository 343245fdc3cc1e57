//! Analyzing a *different* accelerator: the Eyeriss-like row-stationary
//! design of the paper's Fig. 2(b).
//!
//! FIdelity's portability claim is that only a handful of dataflow facts are
//! needed to derive fault models for a new design. This example walks
//! through the Fig. 2(b) worked targets (b1–b3), derives the Table-II-style
//! models for the Eyeriss-like census, and runs a small campaign.
//!
//! ```sh
//! cargo run --release --example custom_accelerator
//! ```

use fidelity::accel::{DataflowKind, EyerissDataflow};
use fidelity::core::analysis::analyze;
use fidelity::core::campaign::CampaignSpec;
use fidelity::core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity::core::models::model_for;
use fidelity::core::outcome::TopOneMatch;
use fidelity::core::rfa::reuse_factor_analysis;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = fidelity::accel::presets::eyeriss_like();
    let DataflowKind::Eyeriss(df) = cfg.dataflow else {
        unreachable!("preset is Eyeriss-like")
    };

    // Step 1 — Reuse Factor Analysis on the Fig. 2(b) targets.
    println!(
        "Eyeriss-like design: {}x{} PE array, {}-channel input reuse\n",
        df.k, df.k, df.channel_reuse
    );
    for inputs in [df.example_b1(), df.example_b2(), df.example_b3()] {
        let r = reuse_factor_analysis(&inputs)?;
        println!("  {:<48} RF = {}", inputs.target, r.rf());
    }
    let expect = EyerissDataflow {
        k: df.k,
        channel_reuse: df.channel_reuse,
    };
    assert_eq!(
        reuse_factor_analysis(&expect.example_b2())?.rf(),
        df.k * df.channel_reuse,
        "b2's RF must be k*t, as derived by hand in the paper"
    );

    // Step 2 — software fault models for every census category.
    println!("\nderived software fault models:");
    for (category, frac) in cfg.census.iter() {
        if let Some(model) = model_for(category, &cfg) {
            println!(
                "  {:<34} ({:>4.1}%)  {:?}",
                category.to_string(),
                frac * 100.0,
                model
            );
        }
    }

    // Step 3 — a small campaign + FIT rate on a CNN.
    let workload = fidelity::workloads::workload("mobilenet", 7).unwrap();
    let engine = Engine::new(
        workload.network,
        Precision::Fp16,
        std::slice::from_ref(&workload.inputs),
    )?;
    let trace = engine.trace(&workload.inputs)?;
    let spec = CampaignSpec {
        samples_per_cell: 80,
        seed: 3,
        ..CampaignSpec::default()
    };
    let analysis = analyze(
        &engine,
        &trace,
        &cfg,
        &TopOneMatch,
        PAPER_RAW_FIT_PER_MB,
        &spec,
    )?;
    println!(
        "\nmobilenet on the Eyeriss-like design: FIT = {:.2} (datapath {:.2}, local {:.3}, global {:.2})",
        analysis.fit.total, analysis.fit.datapath, analysis.fit.local, analysis.fit.global
    );
    println!("\nThe same framework, two different dataflows — only the RFA inputs changed.");
    Ok(())
}
