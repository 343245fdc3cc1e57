//! Integration: the Sec. III-E memory-error extension — a bit flip in an
//! on-chip buffer word behaves exactly like the corresponding before-buffer
//! datapath fault, so the same software fault models cover memory errors.

use fidelity::core::validate::rtl_layer_for;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::macspec::{OperandKind, Operands, Substitution};
use fidelity::dnn::precision::Precision;
use fidelity::rtl::{Disturbance, MemFault, ObservedFault, RtlEngine};
use fidelity::workloads::workload;

fn setup() -> RtlEngine {
    let w = workload("resnet", 21).unwrap();
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let node = engine.network().node_index("r1_c1").unwrap();
    RtlEngine::new(rtl_layer_for(&engine, &trace, node).unwrap(), 8, 8)
}

#[test]
fn weight_memory_flip_matches_before_buffer_model() {
    let rtl = setup();
    let layer = rtl.layer().clone();
    let mut rng = SplitMix64::new(31);
    let mut checked = 0;
    for _ in 0..40 {
        let index = rng.next_below(layer.weight.len() as u64) as usize;
        let bit = rng.next_below(16) as u32;
        let run = rtl.run(Disturbance::Memory(MemFault {
            weight_buffer: true,
            index,
            bit,
        }));
        let observed = ObservedFault::from_run(rtl.clean_output(), &run);

        // The before-buffer software model for the same word.
        let faulty_value = layer.weight_codec.flip_bit(layer.weight.data()[index], bit);
        let subst = Substitution {
            kind: OperandKind::Weight,
            offset: index,
            value: faulty_value,
        };
        let ops = Operands {
            input: &layer.input,
            weight: &layer.weight,
        };
        let mut predicted = Vec::new();
        for off in layer.spec.neurons_using_weight(index) {
            let v = layer
                .output_codec
                .quantize(layer.spec.compute_at(&ops, off, Some(&subst)));
            let clean = rtl.clean_output().data()[off];
            if v.is_nan() || clean.is_nan() || (v - clean).abs() > 0.0 {
                predicted.push((off, v));
            }
        }
        assert_eq!(
            observed.faulty_neurons,
            predicted.iter().map(|(o, _)| *o).collect::<Vec<_>>(),
            "memory fault at word {index} bit {bit}"
        );
        for ((_, pv), rv) in predicted.iter().zip(&observed.faulty_values) {
            assert!(pv.to_bits() == rv.to_bits() || (pv.is_nan() && rv.is_nan()));
        }
        checked += usize::from(!observed.faulty_neurons.is_empty());
    }
    assert!(checked > 5, "too few visible memory faults ({checked})");
}

#[test]
fn input_memory_flip_affects_receptive_fields_only() {
    let rtl = setup();
    let layer = rtl.layer().clone();
    let mut rng = SplitMix64::new(32);
    for _ in 0..20 {
        let index = rng.next_below(layer.input.len() as u64) as usize;
        let run = rtl.run(Disturbance::Memory(MemFault {
            weight_buffer: false,
            index,
            bit: 14, // exponent bit: visible if the value is used at all
        }));
        let observed = ObservedFault::from_run(rtl.clean_output(), &run);
        let users: std::collections::HashSet<usize> =
            layer.spec.neurons_using_input(index).into_iter().collect();
        for n in &observed.faulty_neurons {
            assert!(
                users.contains(n),
                "neuron {n} does not use input word {index}"
            );
        }
    }
}
