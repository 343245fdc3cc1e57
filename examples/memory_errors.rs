//! The Sec. III-E extension: modeling on-chip **memory** errors with the
//! same framework.
//!
//! A bit flip in a buffer word behaves exactly like a fault in the
//! fetch-path FF that wrote it (Table I, row 2 / Datapath RF Property 1):
//! every output neuron consuming the word sees the corrupted value. This
//! example flips a weight-buffer bit in the register-level engine and shows
//! the before-buffer software fault model predicting the damage exactly.
//!
//! ```sh
//! cargo run --release --example memory_errors
//! ```

use fidelity::core::validate::rtl_layer_for;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::macspec::{OperandKind, Operands, Substitution};
use fidelity::dnn::precision::Precision;
use fidelity::rtl::{Disturbance, MemFault, ObservedFault, RtlEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = fidelity::workloads::workload("mobilenet", 42).unwrap();
    let engine = Engine::new(
        workload.network,
        Precision::Fp16,
        std::slice::from_ref(&workload.inputs),
    )?;
    let trace = engine.trace(&workload.inputs)?;
    let node = engine
        .network()
        .node_index("ds0_pw")
        .expect("pointwise conv");
    let layer = rtl_layer_for(&engine, &trace, node).expect("conv lifts to RTL");
    let rtl = RtlEngine::new(layer.clone(), 8, 8);

    // Pick a weight word whose corruption is visible.
    let mut rng = SplitMix64::new(5);
    let (index, bit) = loop {
        let index = rng.next_below(layer.weight.len() as u64) as usize;
        let bit = 10 + rng.next_below(5) as u32; // exponent-ish bits
        let run = rtl.run(Disturbance::Memory(MemFault {
            weight_buffer: true,
            index,
            bit,
        }));
        if rtl.clean_output().diff_indices(&run.output, 0.0)?.len() > 1 {
            break (index, bit);
        }
    };

    println!("memory fault: weight buffer word {index}, bit {bit}");
    let run = rtl.run(Disturbance::Memory(MemFault {
        weight_buffer: true,
        index,
        bit,
    }));
    let observed = ObservedFault::from_run(rtl.clean_output(), &run);
    println!(
        "register-level engine: {} faulty neurons",
        observed.reuse_factor()
    );

    // The before-buffer software model for the same word.
    let faulty = layer.weight_codec.flip_bit(layer.weight.data()[index], bit);
    let subst = Substitution {
        kind: OperandKind::Weight,
        offset: index,
        value: faulty,
    };
    let ops = Operands {
        input: &layer.input,
        weight: &layer.weight,
    };
    let predicted: Vec<usize> = layer
        .spec
        .neurons_using_weight(index)
        .into_iter()
        .filter(|&off| {
            let v = layer
                .output_codec
                .quantize(layer.spec.compute_at(&ops, off, Some(&subst)));
            let clean = rtl.clean_output().data()[off];
            v.is_nan() || clean.is_nan() || (v - clean).abs() > 0.0
        })
        .collect();
    println!("software fault model:  {} faulty neurons", predicted.len());
    assert_eq!(observed.faulty_neurons, predicted);
    println!("\nverdict: EXACT MATCH — the datapath fault models cover memory errors too,");
    println!("so a memory-error study needs no new machinery (Sec. III-E).");
    Ok(())
}
