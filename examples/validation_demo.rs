//! A single fault, traced end to end through both worlds: the
//! register-level golden simulator and the software fault model.
//!
//! Picks one interesting fault site (a weight operand register mid-stripe),
//! shows what the hardware does cycle-accurately, what the software model
//! predicts, and that they agree bit-for-bit.
//!
//! ```sh
//! cargo run --release --example validation_demo
//! ```

use fidelity::core::validate::{predict, rtl_layer_for, validate_site, Agreement, Prediction};
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::precision::Precision;
use fidelity::rtl::{Disturbance, FaultSite, FfId, ObservedFault, RtlEngine, SchedPoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Deploy ResNet-lite at FP16 and lift its first residual conv into the
    // register-level engine (16 lanes, 16-cycle weight hold — the paper's
    // validated NVDLA geometry).
    let workload = fidelity::workloads::workload("resnet", 42).unwrap();
    let engine = Engine::new(
        workload.network,
        Precision::Fp16,
        std::slice::from_ref(&workload.inputs),
    )?;
    let trace = engine.trace(&workload.inputs)?;
    let node = engine
        .network()
        .node_index("r1_c1")
        .expect("resnet conv exists");
    let layer = rtl_layer_for(&engine, &trace, node).expect("conv lifts to RTL");
    let rtl = RtlEngine::new(layer, 16, 16);
    println!(
        "register-level engine: {} cycles fault-free, {} flip-flops",
        rtl.clean_cycles(),
        rtl.inventory().len()
    );

    // Find a compute cycle where lane 2's weight operand register is live,
    // mid-stripe (so the fault corrupts a strict suffix of the hold window).
    let mut rng = SplitMix64::new(9);
    let site = loop {
        let cycle = rng.next_below(rtl.clean_cycles());
        if let SchedPoint::Compute { y, t_eff, .. } = rtl.schedule_at(cycle) {
            if y > 0 && y + 2 < t_eff {
                let candidate = FaultSite {
                    ff: FfId::WeightOperand { lane: 2 },
                    bit: 13, // an FP16 exponent bit: a large perturbation
                    cycle,
                };
                // Keep sampling until the fault is visible (a flip whose
                // affected inputs are all zero — e.g. behind a ReLU — is
                // legitimately masked, which is less instructive to print).
                if matches!(predict(&rtl, candidate), Prediction::Neurons { .. }) {
                    break candidate;
                }
            }
        }
    };
    println!(
        "\nfault site: {} bit {} at cycle {} ({:?})",
        site.ff,
        site.bit,
        site.cycle,
        rtl.schedule_at(site.cycle)
    );

    // Hardware truth.
    let run = rtl.run(Disturbance::Ff(site));
    let observed = ObservedFault::from_run(rtl.clean_output(), &run);
    println!(
        "\nregister-level result: {} faulty neurons {:?}",
        observed.reuse_factor(),
        observed.faulty_neurons
    );

    // Software prediction for the very same site.
    match predict(&rtl, site) {
        Prediction::Neurons { offsets, values } => {
            println!(
                "software model says:   {} faulty neurons {:?}",
                offsets.len(),
                offsets
            );
            for (off, val) in offsets.iter().zip(&values) {
                let clean = rtl.clean_output().data()[*off];
                println!(
                    "  neuron {off}: clean {clean:>12.5}  predicted {:>12.5}",
                    val.expect("datapath values are deterministic")
                );
            }
        }
        other => println!("software model says: {other:?}"),
    }

    // And the formal comparison the validation campaign runs.
    let outcome = validate_site(&rtl, site);
    match outcome.agreement {
        Agreement::DatapathExact => {
            println!("\nverdict: EXACT MATCH — same neurons, bit-identical values (Sec. IV-C).");
        }
        other => println!("\nverdict: {other:?}"),
    }
    Ok(())
}
