//! Sensitivity analysis: FIdelity's inputs are *estimates* early in the
//! design process (the paper, Sec. III: "estimated values can be varied for
//! sensitivity analysis to obtain resilience bounds"). This example sweeps
//! three of them — the FF census split, the raw FIT rate, and the MAC
//! geometry — and reports FIT-rate bounds.
//!
//! ```sh
//! cargo run --release --example sensitivity_sweep
//! ```

use fidelity::accel::{DataflowKind, NvdlaDataflow};
use fidelity::core::analysis::analyze;
use fidelity::core::campaign::CampaignSpec;
use fidelity::core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity::core::outcome::TopOneMatch;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = CampaignSpec {
        samples_per_cell: 60,
        seed: 2,
        ..CampaignSpec::default()
    };

    // Sweep 1: raw FF FIT rate (technology node / environment).
    println!("sweep 1 — raw FF FIT rate (scales Eq. 2 linearly):");
    let base = run_once(
        fidelity::accel::presets::nvdla_like(),
        &spec,
        PAPER_RAW_FIT_PER_MB,
    )?;
    for raw in [150.0, 300.0, 600.0, 1200.0] {
        let fit = base * raw / PAPER_RAW_FIT_PER_MB;
        println!("  raw = {raw:>6} FIT/MB  ->  Accelerator_FIT_rate = {fit:.2}");
    }

    // Sweep 2: total FF count estimate (±50% around the preset).
    println!("\nsweep 2 — total flip-flop count estimate:");
    for scale in [0.5f64, 1.0, 1.5] {
        let mut cfg = fidelity::accel::presets::nvdla_like();
        cfg.total_ff_bits = (cfg.total_ff_bits as f64 * scale) as u64;
        let fit = run_once(cfg, &spec, PAPER_RAW_FIT_PER_MB)?;
        println!("  {:>4.1}x FFs  ->  FIT = {fit:.2}", scale);
    }

    // Sweep 3: MAC geometry (lanes × weight hold) — changes the reuse
    // factors and therefore the fault models themselves.
    println!("\nsweep 3 — MAC geometry (reuse factors change the fault models):");
    for (lanes, hold) in [(8usize, 8usize), (16, 16), (32, 32)] {
        let mut cfg = fidelity::accel::presets::nvdla_like();
        cfg.dataflow = DataflowKind::Nvdla(NvdlaDataflow {
            lanes,
            weight_hold: hold,
        });
        let fit = run_once(cfg, &spec, PAPER_RAW_FIT_PER_MB)?;
        println!("  lanes = {lanes:>2}, hold = {hold:>2}  ->  FIT = {fit:.2}");
    }

    println!("\nTakeaway: the FIT rate scales linearly in raw rate and FF count, and is");
    println!("mildly sensitive to geometry (higher reuse -> more neurons per fault, but");
    println!("each fault is also more likely to be detected by the correctness metric).");
    Ok(())
}

fn run_once(
    cfg: fidelity::accel::AcceleratorConfig,
    spec: &CampaignSpec,
    raw: f64,
) -> Result<f64, Box<dyn std::error::Error>> {
    let workload = fidelity::workloads::workload("resnet", 42).unwrap();
    let engine = Engine::new(
        workload.network,
        Precision::Fp16,
        std::slice::from_ref(&workload.inputs),
    )?;
    let trace = engine.trace(&workload.inputs)?;
    let analysis = analyze(&engine, &trace, &cfg, &TopOneMatch, raw, spec)?;
    Ok(analysis.fit.total)
}
