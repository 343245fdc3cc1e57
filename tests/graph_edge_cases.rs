//! Integration: graph executor edge cases and failure paths that campaigns
//! rely on but rarely hit with the standard workloads.

use fidelity::dnn::graph::{Engine, NetworkBuilder};
use fidelity::dnn::init::uniform_tensor;
use fidelity::dnn::layers::{Activation, ActivationKind, Add, Concat, Dense, MatMul};
use fidelity::dnn::precision::Precision;
use fidelity::dnn::tensor::Tensor;
use fidelity::dnn::workspace::Workspace;
use fidelity::dnn::DnnError;

fn dense(name: &str, seed: u64, out_f: usize, in_f: usize) -> Dense {
    Dense::new(name, uniform_tensor(seed, vec![out_f, in_f], 0.5)).unwrap()
}

#[test]
fn multiple_graph_inputs_bind_in_order() {
    let net = NetworkBuilder::new("two-in")
        .input("a")
        .input("b")
        .layer(MatMul::new("mm"), &["a", "b"])
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
    let a = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
    let b = Tensor::from_vec(vec![3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
    let y = engine.forward(&[a.clone(), b.clone()]).unwrap();
    assert_eq!(y.data(), &[4.0, 5.0]);
    // Swapped binding is a shape error, not a silent transpose.
    assert!(engine.forward(&[b, a]).is_err());
}

#[test]
fn wrong_input_count_is_reported() {
    let net = NetworkBuilder::new("t")
        .input("x")
        .layer(dense("fc", 1, 2, 2), &["x"])
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
    match engine.forward(&[]) {
        Err(DnnError::ArityMismatch {
            expected, actual, ..
        }) => {
            assert_eq!((expected, actual), (1, 0));
        }
        other => panic!("expected arity error, got {other:?}"),
    }
}

#[test]
fn resume_at_first_and_last_node() {
    let net = NetworkBuilder::new("chain")
        .input("x")
        .layer(dense("fc1", 1, 3, 3), &["x"])
        .unwrap()
        .layer(Activation::new("relu", ActivationKind::Relu), &["fc1"])
        .unwrap()
        .layer(dense("fc2", 2, 3, 3), &["relu"])
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
    let x = uniform_tensor(9, vec![1, 3], 1.0);
    let trace = engine.trace(&[x]).unwrap();

    // Resume at the first node with the unmodified output = clean result.
    let mut ws = Workspace::new();
    let same = engine
        .resume(&trace, 0, trace.node_outputs[0].clone(), None, &mut ws)
        .unwrap();
    assert_eq!(same.tensor().data(), trace.output.data());

    // Resume at the last node replaces the final output entirely.
    let replaced = Tensor::from_vec(vec![1, 3], vec![5.0, 6.0, 7.0]).unwrap();
    let y = engine
        .resume(&trace, 2, replaced.clone(), None, &mut ws)
        .unwrap();
    assert_eq!(y.tensor().data(), replaced.data());
}

#[test]
fn resume_rejects_bad_node() {
    let net = NetworkBuilder::new("t")
        .input("x")
        .layer(dense("fc", 1, 2, 2), &["x"])
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
    let x = uniform_tensor(1, vec![1, 2], 1.0);
    let trace = engine.trace(&[x]).unwrap();
    let err = engine
        .resume(
            &trace,
            5,
            Tensor::zeros(vec![1, 2]),
            None,
            &mut Workspace::new(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn fan_out_consumer_sees_one_producer_output() {
    // One producer feeding three consumers through concat: corrupting the
    // producer's output reaches all of them exactly once.
    let net = NetworkBuilder::new("fan")
        .input("x")
        .layer(dense("prod", 3, 2, 2), &["x"])
        .unwrap()
        .layer(Activation::new("a1", ActivationKind::Relu), &["prod"])
        .unwrap()
        .layer(Activation::new("a2", ActivationKind::Tanh), &["prod"])
        .unwrap()
        .layer(Add::new("mix"), &["a1", "a2"])
        .unwrap()
        .layer(Concat::new("cat", 1), &["mix", "prod"])
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
    let x = uniform_tensor(2, vec![1, 2], 1.0);
    let trace = engine.trace(&[x]).unwrap();
    let mut corrupted = trace.node_outputs[0].clone();
    corrupted.data_mut()[0] += 10.0;
    let y = engine
        .resume(&trace, 0, corrupted, None, &mut Workspace::new())
        .unwrap()
        .into_owned();
    // Both halves of the concat changed relative to clean.
    let clean = &trace.output;
    assert_ne!(y.at2(0, 0), clean.at2(0, 0)); // via mix
    assert_ne!(y.at2(0, 2), clean.at2(0, 2)); // via direct prod
}

#[test]
fn calibration_uses_all_samples() {
    // Two calibration samples with very different ranges: the INT8 scale
    // must cover the larger one.
    let net = NetworkBuilder::new("t")
        .input("x")
        .layer(dense("fc", 4, 2, 2), &["x"])
        .unwrap()
        .build()
        .unwrap();
    let small = vec![Tensor::from_vec(vec![1, 2], vec![0.1, 0.1]).unwrap()];
    let large = vec![Tensor::from_vec(vec![1, 2], vec![50.0, -50.0]).unwrap()];
    let engine = Engine::new(net, Precision::Int8, &[small.clone(), large.clone()]).unwrap();
    // The large sample must survive quantization roughly intact.
    let y = engine.forward(&large).unwrap();
    assert!(y.max_abs() > 1.0, "large-range sample was crushed: {y:?}");
    // Per-input codec covers ±50.
    assert!(engine.input_codec(0).max_magnitude() >= 49.0);
}

#[test]
fn quantized_weights_are_on_grid() {
    let net = NetworkBuilder::new("t")
        .input("x")
        .layer(dense("fc", 4, 3, 3), &["x"])
        .unwrap()
        .build()
        .unwrap();
    let cal = vec![uniform_tensor(5, vec![1, 3], 1.0)];
    let engine = Engine::new(net, Precision::Int8, &[cal]).unwrap();
    let codec = engine.weight_codec(0, 0).unwrap();
    for &w in engine.network().layer(0).weights()[0].data() {
        assert_eq!(codec.quantize(w), w, "weight {w} off the INT8 grid");
    }
}
