//! Software fault models — Table II of the paper.
//!
//! A [`SoftwareFaultModel`] is the per-FF-category recipe for reproducing a
//! hardware transient fault purely in software: which stored value to
//! corrupt, how (an equivalent bit flip for datapath FFs, a random value for
//! local control), and which output neurons of the executing MAC layer are
//! affected (per Reuse Factor Analysis).
//!
//! [`apply_model_sparse`] executes a sampled instance of a model against
//! one MAC layer of a deployed network, producing the faulty neurons of the
//! layer output that the injection flow then propagates to the application
//! output.

use fidelity_accel::arch::{AcceleratorConfig, DataflowKind};
use fidelity_accel::ff::{FfCategory, PipelineStage, VarType};
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{MacNode, MacSpec, OperandKind, Substitution};
use fidelity_dnn::precision::ValueCodec;
use fidelity_dnn::tensor::Tensor;
use fidelity_dnn::DnnError;

/// The 2-D extent of the output-neuron window a buffer-to-MAC operand fault
/// can corrupt, in (position, channel) coordinates. Derived from the reuse
/// factor analysis of the accelerator's dataflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OperandWindow {
    /// Consecutive output positions affected (temporal reuse).
    pub positions: usize,
    /// Consecutive output channels affected (spatial reuse across lanes).
    pub channels: usize,
}

/// A software fault model: one row of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoftwareFaultModel {
    /// A fault before the on-chip buffer manifests as one incorrect stored
    /// value; every output neuron consuming it is faulty.
    BeforeBuffer {
        /// Which operand the value belongs to.
        kind: OperandKind,
    },
    /// A fault between the buffer and the MAC units corrupts one operand
    /// value for the window of neurons the dataflow reuses it across.
    Operand {
        /// Which operand the value belongs to.
        kind: OperandKind,
        /// Reuse window.
        window: OperandWindow,
        /// When the FF holds its value for multiple cycles, a random fault
        /// cycle truncates the affected position window to a random suffix
        /// (the paper's random `p` over `FF_value_cycles`).
        random_suffix: bool,
    },
    /// A fault in an output / partial-sum FF: one bit flip in one output
    /// neuron (RF = 1).
    OutputValue,
    /// A local-control fault: one output neuron takes a non-deterministic
    /// value, modeled as random.
    LocalControl,
    /// An active global-control fault always results in application error or
    /// system anomaly.
    GlobalControl,
}

/// Maps an FF category to its software fault model under a given accelerator
/// configuration (the Table II derivation).
///
/// Returns `None` for category/stage combinations the architecture does not
/// have (e.g. partial sums before the buffer).
pub fn model_for(cat: FfCategory, cfg: &AcceleratorConfig) -> Option<SoftwareFaultModel> {
    let (input_window, weight_window) = match cfg.dataflow {
        DataflowKind::Nvdla(d) => (
            // Broadcast input: one position × `lanes` channels (target a4).
            OperandWindow {
                positions: 1,
                channels: d.lanes,
            },
            // Weight-stationary: `weight_hold` positions × 1 channel (a2).
            OperandWindow {
                positions: d.weight_hold,
                channels: 1,
            },
        ),
        DataflowKind::Eyeriss(d) => (
            // Diagonal + channel reuse: k positions × `channel_reuse`
            // channels (target b2).
            OperandWindow {
                positions: d.k,
                channels: d.channel_reuse,
            },
            // Column-travelling weights: k positions × 1 channel (b1).
            OperandWindow {
                positions: d.k,
                channels: 1,
            },
        ),
    };
    match cat {
        FfCategory::Datapath { stage, var } => match (stage, var) {
            (PipelineStage::BeforeBuffer, VarType::Input) => {
                Some(SoftwareFaultModel::BeforeBuffer {
                    kind: OperandKind::Input,
                })
            }
            (PipelineStage::BeforeBuffer, VarType::Weight | VarType::Bias) => {
                Some(SoftwareFaultModel::BeforeBuffer {
                    kind: OperandKind::Weight,
                })
            }
            (PipelineStage::BufferToMac, VarType::Input) => Some(SoftwareFaultModel::Operand {
                kind: OperandKind::Input,
                window: input_window,
                random_suffix: false,
            }),
            (PipelineStage::BufferToMac, VarType::Weight | VarType::Bias) => {
                Some(SoftwareFaultModel::Operand {
                    kind: OperandKind::Weight,
                    window: weight_window,
                    random_suffix: true,
                })
            }
            (PipelineStage::AfterMac, VarType::Output | VarType::PartialSum | VarType::Bias) => {
                Some(SoftwareFaultModel::OutputValue)
            }
            _ => None,
        },
        FfCategory::LocalControl => Some(SoftwareFaultModel::LocalControl),
        FfCategory::GlobalControl => Some(SoftwareFaultModel::GlobalControl),
    }
}

/// The effect of one sampled model application on the executing layer: the
/// one form of a sampled fault. A corrupted layer is a sparse (offset,
/// value) patch of its clean output, which the delta walk consumes as is
/// and the dense resume splices into a copy of that output.
#[derive(Debug, Clone)]
pub enum SparseEffect {
    /// The sampled fault cannot change any value (e.g. it hit a value whose
    /// flip decodes to the same number).
    Masked,
    /// Global control: the framework models this as system failure without
    /// simulating (Prob_SWmask = 0).
    SystemFailure,
    /// The layer finishes with the given sparse corruption.
    Layer(SparseFault),
}

/// The sparse form of a corrupted-layer outcome.
#[derive(Debug, Clone)]
pub struct SparseFault {
    /// Target node index in the network.
    pub node: usize,
    /// Flat offsets of faulty neurons in the layer's output tensor.
    pub neurons: Vec<usize>,
    /// The faulty values, parallel to `neurons`.
    pub values: Vec<f32>,
    /// Largest |faulty − clean| over the faulty neurons (infinite when a
    /// NaN/Inf was produced). Drives the Key-Result-5 analysis.
    pub max_perturbation: f32,
}

/// A MAC node with the codecs of its operands.
struct MacOperands<'a> {
    mac: MacNode<'a>,
    input_codec: ValueCodec,
    weight_codec: ValueCodec,
}

fn mac_operands<'a>(engine: &'a Engine, trace: &'a Trace, node: usize) -> Option<MacOperands<'a>> {
    let mac = engine.mac_node(node, trace)?;
    let weight_codec = if matches!(mac.spec, MacSpec::MatMul(_)) {
        engine.node_input_codec_at(node, 1)
    } else {
        // Conv / Dense keep their weight in the layer; codec index 0 is the
        // main weight.
        engine.weight_codec(node, 0)?
    };
    Some(MacOperands {
        mac,
        input_codec: engine.node_input_codec_at(node, 0),
        weight_codec,
    })
}

/// Applies one sampled instance of `model` to MAC node `node` of a deployed
/// engine: samples the model and computes the changed neurons, without
/// materializing the corrupted layer output.
///
/// # Errors
///
/// Returns [`DnnError`] if `node` is not a MAC layer.
pub fn apply_model_sparse(
    model: SoftwareFaultModel,
    engine: &Engine,
    trace: &Trace,
    node: usize,
    rng: &mut SplitMix64,
) -> Result<SparseEffect, DnnError> {
    if matches!(model, SoftwareFaultModel::GlobalControl) {
        return Ok(SparseEffect::SystemFailure);
    }
    let not_mac = || DnnError::InvalidConfig {
        message: format!("node {node} is not a MAC layer"),
    };
    // Output-value and local-control faults read no operand, so the layer
    // kind settles MAC-ness: no geometry or operands are built for them.
    if !engine.network().layer(node).kind().is_mac() {
        return Err(not_mac());
    }
    let clean_out = &trace.node_outputs[node];
    let out_codec = engine.node_codec(node);
    let value_fault = |kind, window, random_suffix, rng: &mut SplitMix64| {
        let ops = mac_operands(engine, trace, node).ok_or_else(not_mac)?;
        Ok(sample_value_fault(
            &ops,
            kind,
            window,
            random_suffix,
            clean_out,
            out_codec,
            rng,
        ))
    };

    let (mut neurons, mut values) = match model {
        SoftwareFaultModel::BeforeBuffer { kind } => value_fault(kind, None, false, rng)?,
        SoftwareFaultModel::Operand {
            kind,
            window,
            random_suffix,
        } => value_fault(kind, Some(window), random_suffix, rng)?,
        SoftwareFaultModel::OutputValue => {
            let off = rng.next_below(clean_out.len() as u64) as usize;
            let bit = rng.next_below(u64::from(out_codec.precision().bits())) as u32;
            let faulty = out_codec.flip_bit(clean_out.data()[off], bit);
            (vec![off], vec![faulty])
        }
        SoftwareFaultModel::LocalControl => {
            let off = rng.next_below(clean_out.len() as u64) as usize;
            let width = out_codec.precision().bits();
            let bits = (rng.next_u64() as u32) & width_mask(width);
            (vec![off], vec![out_codec.decode(bits)])
        }
        SoftwareFaultModel::GlobalControl => unreachable!("handled above"),
    };

    // Keep only neurons whose value actually changed, compacting in place.
    let mut kept = 0;
    let mut max_pert = 0.0f32;
    for i in 0..neurons.len() {
        let (off, val) = (neurons[i], values[i]);
        let clean = clean_out.data()[off];
        let differs = val.is_nan() || clean.is_nan() || (val - clean).abs() > 0.0;
        if differs {
            let pert = if val.is_finite() && clean.is_finite() {
                (val - clean).abs()
            } else {
                f32::INFINITY
            };
            max_pert = max_pert.max(pert);
            (neurons[kept], values[kept]) = (off, val);
            kept += 1;
        }
    }
    if kept == 0 {
        return Ok(SparseEffect::Masked);
    }
    neurons.truncate(kept);
    values.truncate(kept);
    Ok(SparseEffect::Layer(SparseFault {
        node,
        neurons,
        values,
        max_perturbation: max_pert,
    }))
}

fn width_mask(width: u32) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    }
}

/// Samples a value fault in one operand element and computes the affected
/// neurons: the element's whole use window for before-buffer faults, in
/// ascending offset order, or a dataflow reuse window cut from it, in
/// position-major order.
///
/// The reuse window is a block of `window.positions` consecutive positions
/// (in computation order) × one lane-aligned group of `window.channels`
/// channels (MAC lanes process aligned channel groups by absolute channel
/// id), optionally truncated to a random position suffix (random fault
/// cycle within the hold). The draws come in that order: element, bit,
/// position block, suffix start, channel group.
fn sample_value_fault(
    ops: &MacOperands<'_>,
    kind: OperandKind,
    window: Option<OperandWindow>,
    random_suffix: bool,
    clean_out: &Tensor,
    out_codec: ValueCodec,
    rng: &mut SplitMix64,
) -> (Vec<usize>, Vec<f32>) {
    let (tensor, codec) = match kind {
        OperandKind::Input => (ops.mac.operands.input, ops.input_codec),
        OperandKind::Weight => (ops.mac.operands.weight, ops.weight_codec),
    };
    if tensor.is_empty() || clean_out.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let elem = rng.next_below(tensor.len() as u64) as usize;
    let bit = rng.next_below(u64::from(codec.precision().bits())) as u32;
    let faulty_value = codec.flip_bit(tensor.data()[elem], bit);

    let spec = &ops.mac.spec;
    let uses = match kind {
        OperandKind::Input => spec.input_window(elem),
        OperandKind::Weight => spec.weight_window(elem),
    };
    if uses.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let selected = match window {
        None => uses,
        Some(w) => {
            let n = uses.positions();
            let block = rng.next_below(n.div_ceil(w.positions) as u64) as usize;
            let (mut p0, p1) = (block * w.positions, ((block + 1) * w.positions).min(n));
            if random_suffix && p1 - p0 > 1 {
                p0 += rng.next_below((p1 - p0) as u64) as usize;
            }
            let (c0, c1) = uses.channels();
            let (g0, g1) = (c0 / w.channels, (c1 - 1) / w.channels);
            let g = g0 + rng.next_below((g1 - g0 + 1) as u64) as usize;
            let lanes = (c0.max(g * w.channels), c1.min((g + 1) * w.channels));
            uses.select((p0, p1), lanes)
        }
    };

    let subst = Substitution {
        kind,
        offset: elem,
        value: faulty_value,
    };
    let mut grid = Vec::new();
    ops.mac.recompute(&subst, &selected, &mut grid);
    if window.is_some() {
        // The recompute's position-major order is the window's.
        for v in &mut grid {
            *v = out_codec.quantize(*v);
        }
        (selected.neurons().collect(), grid)
    } else {
        let mut neurons = Vec::with_capacity(grid.len());
        let mut values = Vec::with_capacity(grid.len());
        selected.for_each_ascending(|off, i| {
            neurons.push(off);
            values.push(out_codec.quantize(grid[i]));
        });
        (neurons, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Conv2d, Dense};
    use fidelity_dnn::precision::Precision;

    fn conv_engine() -> (Engine, Trace) {
        let weight = uniform_tensor(7, vec![8, 3, 3, 3], 0.5);
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(
                Conv2d::new("conv", weight).unwrap().with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = uniform_tensor(3, vec![1, 3, 6, 6], 1.0);
        let trace = engine.trace(&[x]).unwrap();
        (engine, trace)
    }

    #[test]
    fn table2_model_mapping() {
        let cfg = presets::nvdla_like();
        let cat = FfCategory::Datapath {
            stage: PipelineStage::BufferToMac,
            var: VarType::Input,
        };
        match model_for(cat, &cfg) {
            Some(SoftwareFaultModel::Operand {
                kind,
                window,
                random_suffix,
            }) => {
                assert_eq!(kind, OperandKind::Input);
                assert_eq!(window.channels, 16);
                assert_eq!(window.positions, 1);
                assert!(!random_suffix);
            }
            other => panic!("unexpected model {other:?}"),
        }
        assert_eq!(
            model_for(FfCategory::GlobalControl, &cfg),
            Some(SoftwareFaultModel::GlobalControl)
        );
    }

    #[test]
    fn before_buffer_weight_faults_whole_channel() {
        let (engine, trace) = conv_engine();
        let mut rng = SplitMix64::new(11);
        let mut saw_fault = false;
        for _ in 0..32 {
            let effect = apply_model_sparse(
                SoftwareFaultModel::BeforeBuffer {
                    kind: OperandKind::Weight,
                },
                &engine,
                &trace,
                0,
                &mut rng,
            )
            .unwrap();
            if let SparseEffect::Layer(fault) = effect {
                saw_fault = true;
                // All faulty neurons share one output channel.
                let spec = engine.mac_spec(0, &trace).unwrap();
                let chans: std::collections::HashSet<usize> = fault
                    .neurons
                    .iter()
                    .map(|&off| spec.coords_of(off).1)
                    .collect();
                assert_eq!(chans.len(), 1);
                // And values can affect up to the whole channel (36 positions).
                assert!(fault.neurons.len() <= 36);
            }
        }
        assert!(saw_fault);
    }

    #[test]
    fn operand_input_fault_spans_lane_channels() {
        let (engine, trace) = conv_engine();
        let cfg = presets::nvdla_like();
        let model = model_for(
            FfCategory::Datapath {
                stage: PipelineStage::BufferToMac,
                var: VarType::Input,
            },
            &cfg,
        )
        .unwrap();
        let mut rng = SplitMix64::new(5);
        let spec = engine.mac_spec(0, &trace).unwrap();
        for _ in 0..32 {
            if let SparseEffect::Layer(fault) =
                apply_model_sparse(model, &engine, &trace, 0, &mut rng).unwrap()
            {
                // One spatial position, several consecutive channels.
                let coords: Vec<(usize, usize)> = fault
                    .neurons
                    .iter()
                    .map(|&off| spec.coords_of(off))
                    .collect();
                let positions: std::collections::HashSet<usize> =
                    coords.iter().map(|&(p, _)| p).collect();
                assert_eq!(positions.len(), 1);
                assert!(coords.len() <= 16);
            }
        }
    }

    #[test]
    fn operand_weight_fault_is_position_suffix() {
        let (engine, trace) = conv_engine();
        let cfg = presets::nvdla_like();
        let model = model_for(
            FfCategory::Datapath {
                stage: PipelineStage::BufferToMac,
                var: VarType::Weight,
            },
            &cfg,
        )
        .unwrap();
        let mut rng = SplitMix64::new(6);
        let spec = engine.mac_spec(0, &trace).unwrap();
        let mut sizes = std::collections::HashSet::new();
        for _ in 0..64 {
            if let SparseEffect::Layer(fault) =
                apply_model_sparse(model, &engine, &trace, 0, &mut rng).unwrap()
            {
                let chans: std::collections::HashSet<usize> = fault
                    .neurons
                    .iter()
                    .map(|&off| spec.coords_of(off).1)
                    .collect();
                assert_eq!(chans.len(), 1, "weight fault stays in one channel");
                assert!(fault.neurons.len() <= 16);
                sizes.insert(fault.neurons.len());
            }
        }
        // The random suffix makes different sizes appear.
        assert!(sizes.len() > 2, "sizes seen: {sizes:?}");
    }

    #[test]
    fn output_value_fault_is_single_neuron() {
        let (engine, trace) = conv_engine();
        let mut rng = SplitMix64::new(8);
        match apply_model_sparse(
            SoftwareFaultModel::OutputValue,
            &engine,
            &trace,
            0,
            &mut rng,
        )
        .unwrap()
        {
            SparseEffect::Layer(fault) => {
                assert_eq!(fault.neurons.len(), 1);
            }
            SparseEffect::Masked => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_control_is_system_failure() {
        let (engine, trace) = conv_engine();
        let mut rng = SplitMix64::new(9);
        assert!(matches!(
            apply_model_sparse(
                SoftwareFaultModel::GlobalControl,
                &engine,
                &trace,
                0,
                &mut rng
            )
            .unwrap(),
            SparseEffect::SystemFailure
        ));
    }

    #[test]
    fn non_mac_node_is_rejected() {
        use fidelity_dnn::layers::{Activation, ActivationKind};
        let w = uniform_tensor(1, vec![4, 4], 0.5);
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(Dense::new("fc", w).unwrap(), &["x"])
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["fc"])
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let trace = engine.trace(&[uniform_tensor(2, vec![1, 4], 1.0)]).unwrap();
        let mut rng = SplitMix64::new(3);
        assert!(apply_model_sparse(
            SoftwareFaultModel::OutputValue,
            &engine,
            &trace,
            1,
            &mut rng
        )
        .is_err());
    }
}
