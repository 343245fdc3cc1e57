//! The software fault-injection engine: apply a model instance to one layer,
//! propagate through the rest of the network, classify the outcome.
//!
//! Propagation reuses the fault-free trace and recomputes only the nodes
//! downstream of the corrupted layer ([`fidelity_dnn::graph::Engine::resume`])
//! — the reason FIdelity-style injection is orders of magnitude faster than
//! register-level simulation.

use std::time::Instant;

use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::tensor::Tensor;
use fidelity_dnn::workspace::Workspace;
use fidelity_dnn::DnnError;

use crate::models::{apply_model_sparse, SoftwareFaultModel, SparseEffect};
use crate::outcome::{CorrectnessMetric, Outcome};
use fidelity_dnn::graph::golden_key;

/// How [`inject_once_core`] carries a sampled fault to the network output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Resume {
    /// The delta walk ([`Engine::resume_delta`]) over the golden overlay
    /// that the workspace holds for this very trace.
    Delta,
    /// The dense [`Engine::resume`] of the spliced layer output; the final
    /// output goes back to the workspace.
    Dense,
    /// The dense resume, keeping the final output.
    DenseKeep,
}

/// Everything recorded about one injection experiment.
#[derive(Debug, Clone)]
pub struct Injection {
    /// Outcome class.
    pub outcome: Outcome,
    /// Number of faulty neurons in the corrupted layer (0 when masked at the
    /// layer level or for modeled anomalies).
    pub faulty_neurons: usize,
    /// Largest |faulty − clean| perturbation at the corrupted layer.
    pub max_perturbation: f32,
    /// The final application output, when the run completed.
    pub final_output: Option<Tensor>,
    /// Whether the outcome was forced by the watchdog (deadline overrun)
    /// rather than the fault model itself — telemetry distinguishes watchdog
    /// resets from modeled anomalies.
    pub watchdog: bool,
}

/// Runs one software fault-injection experiment on a fresh workspace and
/// keeps the final application output.
///
/// # Errors
///
/// Returns [`DnnError`] when `node` is not a MAC layer or propagation fails.
pub fn inject_once(
    engine: &Engine,
    trace: &Trace,
    node: usize,
    model: SoftwareFaultModel,
    metric: &dyn CorrectnessMetric,
    rng: &mut SplitMix64,
) -> Result<Injection, DnnError> {
    let mut ws = Workspace::new();
    inject_once_core(
        engine,
        trace,
        node,
        model,
        metric,
        rng,
        None,
        &mut ws,
        Resume::DenseKeep,
    )
}

/// [`inject_once`] under a per-injection wall-clock deadline, drawing every
/// tensor — the corrupted layer output, the recomputed downstream tensors,
/// the final output — from a caller-owned [`Workspace`], so a warm pool
/// makes steady-state injection allocation-free. The final output is
/// recycled after classification (`final_output` is `None`); callers that
/// need it use [`inject_once`]. Outcomes and RNG consumption are identical.
///
/// A propagation that overruns the deadline is a runaway from the campaign's
/// point of view — the hardware watchdog would reset the accelerator — so it
/// is classified as [`Outcome::SystemAnomaly`] rather than surfaced as an
/// error. The RNG is advanced identically either way, keeping cell streams
/// deterministic. `None` disables the watchdog.
///
/// The fault takes the delta walk exactly when `ws` holds the golden
/// overlay of this trace ([`Workspace::install_golden`] under
/// [`golden_key`]), and the dense resume otherwise; outcomes are
/// bit-identical either way. The trace is hashed only when `ws` holds an
/// overlay.
///
/// # Errors
///
/// Returns [`DnnError`] when `node` is not a MAC layer or propagation fails
/// for a non-timeout reason.
#[allow(clippy::too_many_arguments)]
pub fn inject_once_pooled(
    engine: &Engine,
    trace: &Trace,
    node: usize,
    model: SoftwareFaultModel,
    metric: &dyn CorrectnessMetric,
    rng: &mut SplitMix64,
    deadline: Option<Instant>,
    ws: &mut Workspace,
) -> Result<Injection, DnnError> {
    let resume = match ws.golden_key() {
        Some(key) if key == golden_key(trace) => Resume::Delta,
        _ => Resume::Dense,
    };
    inject_once_core(
        engine, trace, node, model, metric, rng, deadline, ws, resume,
    )
}

/// One injection along the path `resume` names. The caller vouches for
/// [`Resume::Delta`]: `ws` must hold this trace's golden overlay.
#[allow(clippy::too_many_arguments)]
pub(crate) fn inject_once_core(
    engine: &Engine,
    trace: &Trace,
    node: usize,
    model: SoftwareFaultModel,
    metric: &dyn CorrectnessMetric,
    rng: &mut SplitMix64,
    deadline: Option<Instant>,
    ws: &mut Workspace,
    resume: Resume,
) -> Result<Injection, DnnError> {
    let timeout = |faulty_neurons: usize, max_perturbation: f32| Injection {
        outcome: Outcome::SystemAnomaly,
        faulty_neurons,
        max_perturbation,
        final_output: None,
        watchdog: true,
    };
    // Monotonic watchdog deadline check via the obs clock (the workspace's
    // sanctioned wall-clock site); never feeds campaign statistics.
    let expired = || deadline.is_some_and(|d| fidelity_obs::clock::now() >= d);
    let injection = match apply_model_sparse(model, engine, trace, node, rng)? {
        SparseEffect::Masked => Injection {
            outcome: Outcome::Masked,
            faulty_neurons: 0,
            max_perturbation: 0.0,
            final_output: None,
            watchdog: false,
        },
        SparseEffect::SystemFailure => Injection {
            outcome: Outcome::SystemAnomaly,
            faulty_neurons: usize::MAX,
            max_perturbation: f32::INFINITY,
            final_output: None,
            watchdog: false,
        },
        SparseEffect::Layer(app) => {
            // The delta walk propagates the sparse patch over the overlay;
            // outcomes are bit-identical to the dense resume (see
            // `Engine::resume_delta`).
            let delta = if resume == Resume::Delta {
                match engine.resume_delta(
                    trace,
                    node,
                    &app.neurons,
                    &app.values,
                    deadline,
                    ws,
                    |out| metric.is_correct(&trace.output, out),
                ) {
                    Ok(correct) => Some(correct),
                    Err(DnnError::DeadlineExceeded) => {
                        return Ok(timeout(app.neurons.len(), app.max_perturbation));
                    }
                    Err(e) => return Err(e),
                }
            } else {
                None
            };
            let (outcome, final_output) = match delta {
                Some(correct) => {
                    let outcome = if correct {
                        Outcome::Masked
                    } else {
                        Outcome::OutputError
                    };
                    (outcome, None)
                }
                None => {
                    let mut layer_output = ws.clone_of(&trace.node_outputs[node]);
                    for (&off, &v) in app.neurons.iter().zip(&app.values) {
                        layer_output.data_mut()[off] = v;
                    }
                    let resumed = match engine.resume(trace, node, layer_output, deadline, ws) {
                        Ok(out) => out,
                        Err(DnnError::DeadlineExceeded) => {
                            return Ok(timeout(app.neurons.len(), app.max_perturbation));
                        }
                        Err(e) => return Err(e),
                    };
                    let outcome = if metric.is_correct(&trace.output, resumed.tensor()) {
                        Outcome::Masked
                    } else {
                        Outcome::OutputError
                    };
                    let final_output = if resume == Resume::DenseKeep {
                        Some(resumed.into_owned())
                    } else {
                        resumed.recycle_into(ws);
                        None
                    };
                    (outcome, final_output)
                }
            };
            Injection {
                outcome,
                faulty_neurons: app.neurons.len(),
                max_perturbation: app.max_perturbation,
                final_output,
                watchdog: false,
            }
        }
    };
    // Even a completed injection that blew the deadline counts as a timeout:
    // the watchdog semantics are "the accelerator was reset", regardless of
    // what the propagation would eventually have produced.
    if expired() {
        return Ok(timeout(
            injection.faulty_neurons,
            injection.max_perturbation,
        ));
    }
    Ok(injection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TopOneMatch;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::Conv2d;
    use fidelity_dnn::layers::{Activation, ActivationKind, Dense, Flatten, GlobalAvgPool};
    use fidelity_dnn::precision::Precision;

    fn tiny_classifier() -> (Engine, Trace) {
        let conv_w = uniform_tensor(1, vec![4, 2, 3, 3], 0.6);
        let fc_w = uniform_tensor(2, vec![5, 4], 0.6);
        let net = NetworkBuilder::new("clf")
            .input("x")
            .layer(
                Conv2d::new("conv", conv_w).unwrap().with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["relu"])
            .unwrap()
            .layer(Flatten::new("flat"), &["gap"])
            .unwrap()
            .layer(Dense::new("fc", fc_w).unwrap(), &["flat"])
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = uniform_tensor(3, vec![1, 2, 6, 6], 1.0);
        let trace = engine.trace(&[x]).unwrap();
        (engine, trace)
    }

    #[test]
    fn global_control_is_anomaly() {
        let (engine, trace) = tiny_classifier();
        let mut rng = SplitMix64::new(1);
        let inj = inject_once(
            &engine,
            &trace,
            0,
            SoftwareFaultModel::GlobalControl,
            &TopOneMatch,
            &mut rng,
        )
        .unwrap();
        assert_eq!(inj.outcome, Outcome::SystemAnomaly);
    }

    #[test]
    fn output_value_faults_sometimes_mask_sometimes_fail() {
        let (engine, trace) = tiny_classifier();
        let mut rng = SplitMix64::new(2);
        let mut masked = 0;
        let mut failed = 0;
        for _ in 0..200 {
            let inj = inject_once(
                &engine,
                &trace,
                0,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
            )
            .unwrap();
            match inj.outcome {
                Outcome::Masked => masked += 1,
                Outcome::OutputError => failed += 1,
                Outcome::SystemAnomaly => panic!("no anomaly expected"),
            }
        }
        // A single bit flip in one of 144 conv outputs should often be
        // masked by pooling, but exponent flips should sometimes flip the
        // label.
        assert!(masked > 0, "expected some masked outcomes");
        assert!(failed > 0, "expected some output errors");
    }

    #[test]
    fn pooled_and_owned_injections_agree() {
        use fidelity_dnn::macspec::OperandKind;
        let (engine, trace) = tiny_classifier();
        let mut ws = Workspace::new();
        let models = [
            SoftwareFaultModel::OutputValue,
            SoftwareFaultModel::LocalControl,
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Input,
            },
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Weight,
            },
        ];
        for model in models {
            let mut r1 = SplitMix64::new(99);
            let mut r2 = SplitMix64::new(99);
            for _ in 0..25 {
                let a = inject_once(&engine, &trace, 0, model, &TopOneMatch, &mut r1).unwrap();
                let b = inject_once_pooled(
                    &engine,
                    &trace,
                    0,
                    model,
                    &TopOneMatch,
                    &mut r2,
                    None,
                    &mut ws,
                )
                .unwrap();
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.faulty_neurons, b.faulty_neurons);
                assert_eq!(a.max_perturbation.to_bits(), b.max_perturbation.to_bits());
                assert_eq!(a.watchdog, b.watchdog);
            }
        }
    }

    #[test]
    fn delta_and_pooled_injections_agree() {
        use fidelity_dnn::macspec::OperandKind;
        let (engine, trace) = tiny_classifier();
        // One workspace runs the golden-overlay delta path, the other the
        // dense resume path; every recorded quantity must agree bit-for-bit.
        let mut ws_delta = Workspace::new();
        ws_delta.install_golden(golden_key(&trace), &trace.node_outputs);
        let mut ws_plain = Workspace::new();
        let models = [
            SoftwareFaultModel::OutputValue,
            SoftwareFaultModel::LocalControl,
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Input,
            },
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Weight,
            },
        ];
        for model in models {
            let mut r1 = SplitMix64::new(1234);
            let mut r2 = SplitMix64::new(1234);
            for _ in 0..40 {
                let a = inject_once_pooled(
                    &engine,
                    &trace,
                    0,
                    model,
                    &TopOneMatch,
                    &mut r1,
                    None,
                    &mut ws_delta,
                )
                .unwrap();
                let b = inject_once_pooled(
                    &engine,
                    &trace,
                    0,
                    model,
                    &TopOneMatch,
                    &mut r2,
                    None,
                    &mut ws_plain,
                )
                .unwrap();
                assert_eq!(a.outcome, b.outcome);
                assert_eq!(a.faulty_neurons, b.faulty_neurons);
                assert_eq!(a.max_perturbation.to_bits(), b.max_perturbation.to_bits());
            }
        }
        // The overlay survived the whole run and is still keyed to the trace.
        assert_eq!(ws_delta.golden_key(), Some(golden_key(&trace)));
    }

    #[test]
    fn pooled_injection_is_allocation_free_after_warmup() {
        let (engine, trace) = tiny_classifier();
        let mut ws = Workspace::new();
        let mut rng = SplitMix64::new(7);
        let shoot = |ws: &mut Workspace, rng: &mut SplitMix64| {
            inject_once_pooled(
                &engine,
                &trace,
                0,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                rng,
                None,
                ws,
            )
            .unwrap()
        };
        for _ in 0..10 {
            shoot(&mut ws, &mut rng);
        }
        ws.reset_counters();
        for _ in 0..50 {
            shoot(&mut ws, &mut rng);
        }
        // The pool-hit metric is the zero-allocation acceptance check:
        // `unsafe_code` is forbidden workspace-wide, so a counting global
        // allocator is off the table.
        assert!(ws.hits() > 0);
        assert_eq!(
            ws.misses(),
            0,
            "steady-state injections must draw every f32 buffer from the pool"
        );
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let (engine, trace) = tiny_classifier();
        let run = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            (0..20)
                .map(|_| {
                    inject_once(
                        &engine,
                        &trace,
                        0,
                        SoftwareFaultModel::OutputValue,
                        &TopOneMatch,
                        &mut rng,
                    )
                    .unwrap()
                    .outcome
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        // Clean trace is never perturbed by injections.
        let fresh = engine
            .trace(&[uniform_tensor(3, vec![1, 2, 6, 6], 1.0)])
            .unwrap();
        assert_eq!(fresh.output.data(), trace.output.data());
    }
}
