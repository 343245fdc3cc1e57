//! E15 (extension) — early design-space exploration, the paper's stated
//! motivation for an RTL-free framework: compare FIT rates across three
//! NVDLA-like design points *before any RTL exists*. The fault models
//! themselves change with the geometry (reuse factors scale with lanes and
//! weight-hold), the exposure changes with the FF census, and Eq. 2 folds
//! both into one number per design.

use fidelity_core::analysis::analyze;
use fidelity_core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity_core::outcome::TopOneMatch;
use fidelity_core::report::format_fit;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::classification_suite;

fn main() {
    let designs = [
        fidelity_accel::presets::nvdla_small_like(),
        fidelity_accel::presets::nvdla_like(),
        fidelity_accel::presets::nvdla_large_like(),
    ];
    println!(
        "Design-space exploration (FP16, top-1, {} samples/cell)",
        fidelity_bench::samples_per_cell()
    );
    fidelity_bench::rule(96);
    println!(
        "{:<20} {:>6} {:>6} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "design", "lanes", "hold", "FF bits", "datapath", "local", "global", "TOTAL"
    );
    fidelity_bench::rule(96);

    for cfg in designs {
        cfg.validate().expect("presets validate");
        let (lanes, hold) = match cfg.dataflow {
            fidelity_accel::DataflowKind::Nvdla(d) => (d.lanes, d.weight_hold),
            fidelity_accel::DataflowKind::Eyeriss(d) => (d.k * d.k, d.channel_reuse),
        };
        // Average across the CNN suite for a design-level number.
        let mut totals = fidelity_core::fit::FitBreakdown::default();
        let mut n = 0.0;
        for workload in classification_suite(42) {
            let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
            let analysis = analyze(
                &engine,
                &trace,
                &cfg,
                &TopOneMatch,
                PAPER_RAW_FIT_PER_MB,
                &fidelity_bench::campaign_spec(0xF16D, false),
            )
            .expect("analysis over fixed workloads");
            totals.datapath += analysis.fit.datapath;
            totals.local += analysis.fit.local;
            totals.global += analysis.fit.global;
            totals.total += analysis.fit.total;
            n += 1.0;
        }
        println!(
            "{:<20} {:>6} {:>6} {:>9} {:>10} {:>10} {:>10} {:>10}",
            cfg.name,
            lanes,
            hold,
            cfg.total_ff_bits,
            format_fit(totals.datapath / n),
            format_fit(totals.local / n),
            format_fit(totals.global / n),
            format_fit(totals.total / n)
        );
    }
    fidelity_bench::rule(96);
    println!("FIT scales with the FF census (global control is proportional to it), while");
    println!("the datapath contribution additionally reflects the geometry: more lanes and a");
    println!("longer weight hold mean larger reuse factors — more faulty neurons per flip —");
    println!("partly offset by the shorter execution (less exposure per inference).");
}
