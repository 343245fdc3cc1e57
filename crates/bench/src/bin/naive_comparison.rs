//! E10 — Sec. VI: naive software fault injection underestimates the FIT
//! rate.
//!
//! The naive technique models every hardware transient error as a single
//! bit flip in a single architectural state — no reuse factors, no control
//! faults, no FF census. The paper found it underestimates NVDLA's
//! Accelerator_FIT_rate by up to 25×.

use fidelity_core::analysis::analyze;
use fidelity_core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity_core::naive::naive_fit_rate;
use fidelity_core::report::format_fit;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::{classification_suite, yolo_workload};

fn main() {
    let cfg = fidelity_accel::presets::nvdla_like();
    let naive_samples = fidelity_bench::samples_per_cell() * 10;

    println!(
        "Sec. VI — FIdelity vs. naive single-architectural-bit-flip FI (FP16, {} naive samples)",
        naive_samples
    );
    fidelity_bench::rule(72);
    println!(
        "{:<12} {:>14} {:>14} {:>16}",
        "network", "FIdelity FIT", "naive FIT", "underestimate"
    );
    fidelity_bench::rule(72);

    let mut workloads = classification_suite(42);
    workloads.push(yolo_workload(42));
    let mut worst = 0.0f64;
    for workload in workloads {
        let name = workload.name.clone();
        let metric = workload.kind.metric();
        let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
        let analysis = analyze(
            &engine,
            &trace,
            &cfg,
            metric.as_ref(),
            PAPER_RAW_FIT_PER_MB,
            &fidelity_bench::campaign_spec(0xF16A, false),
        )
        .expect("analysis over fixed workloads");
        let naive = naive_fit_rate(
            &engine,
            &trace,
            metric.as_ref(),
            &cfg,
            PAPER_RAW_FIT_PER_MB,
            naive_samples,
            0x000B_ADF1,
        )
        .expect("naive campaign over fixed workloads");
        let ratio = if naive.fit_estimate > 0.0 {
            analysis.fit.total / naive.fit_estimate
        } else {
            f64::INFINITY
        };
        worst = worst.max(ratio);
        println!(
            "{:<12} {:>14} {:>14} {:>15}",
            name,
            format_fit(analysis.fit.total),
            format_fit(naive.fit_estimate),
            if ratio.is_finite() {
                format!("{ratio:.1}x")
            } else {
                "inf".into()
            }
        );
    }
    fidelity_bench::rule(72);
    println!(
        "Worst-case underestimation: {:.1}x (paper: up to 25x across workloads).",
        worst
    );
    println!("The naive technique misses reuse (one FF corrupting up to 16 neurons),");
    println!("control-FF behaviour, and the FF census weighting — hence the gap.");
}
