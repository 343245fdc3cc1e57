//! Eq. 1 made visible: the per-layer, per-category FF activeness breakdown
//! (Fig. 3, step 1) for one workload — which fraction of each category's
//! FFs is inactive due to Class 1 (component not used), Class 2 (signal not
//! used for the deployed precision), and Class 3 (temporally idle, from the
//! performance model's fetch/compute balance).

use fidelity_accel::perf::{extract_work, LayerTiming};
use fidelity_core::activeness::prob_inactive;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::workload;

fn main() {
    let cfg = fidelity_accel::presets::nvdla_like();
    let precision = Precision::Fp16;
    let workload = workload("resnet", 42).expect("known network");
    let name = workload.name.clone();
    let (engine, trace) = fidelity_bench::deploy(workload, precision);
    let work = extract_work(&engine, &trace);

    println!(
        "FF activeness (Eq. 1) — {name} at {precision} on {}",
        cfg.name
    );
    fidelity_bench::rule(104);
    println!(
        "{:<14} {:>9} {:>9} {:>9}   Prob_inactive per category",
        "layer", "total cyc", "fetch cyc", "MAC cyc"
    );
    fidelity_bench::rule(104);
    for (idx, w) in work.iter().enumerate() {
        if engine.mac_spec(idx, &trace).is_none() {
            continue;
        }
        let timing = LayerTiming::analyze(&cfg, w);
        let probs: Vec<String> = cfg
            .census
            .iter()
            .map(|(cat, _)| {
                format!(
                    "{}={:.2}",
                    short(cat.to_string()),
                    prob_inactive(&cfg, cat, &timing, precision)
                )
            })
            .collect();
        println!(
            "{:<14} {:>9} {:>9} {:>9}   {}",
            w.name,
            timing.total_cycles,
            timing.fetch_cycles,
            timing.mac_cycles,
            probs.join(" ")
        );
    }
    fidelity_bench::rule(104);
    println!("Legend: dp-i/w = datapath input/weight (bb = before buffer, bm = buffer-to-MAC),");
    println!("dp-o = output/psum, lc/gc = local/global control. Fetch-bound layers idle their");
    println!("MAC-path FFs (high Class 3); global control never idles; Class 1/2 fractions");
    println!("come from the accelerator's InactiveModel (decompression unit, INT-only logic).");
}

fn short(cat: String) -> String {
    cat.replace("datapath input (before buffer)", "dp-i-bb")
        .replace("datapath weight (before buffer)", "dp-w-bb")
        .replace("datapath input (buffer-to-MAC)", "dp-i-bm")
        .replace("datapath weight (buffer-to-MAC)", "dp-w-bm")
        .replace("datapath output (after MAC)", "dp-o")
        .replace("local control", "lc")
        .replace("global control", "gc")
}
