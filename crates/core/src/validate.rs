//! Validation of the software fault models against the register-level
//! golden reference (Sec. IV of the paper).
//!
//! For every sampled fault site (FF × bit × cycle), two things happen:
//!
//! 1. the register-level engine runs with the bit flipped, yielding the
//!    observed faulty neurons and values, and
//! 2. the software fault model for that FF's category is instantiated *for
//!    that concrete site* (using the engine's schedule to identify which
//!    operand element / output neuron the FF held), yielding a prediction.
//!
//! The paper's validation criteria are reproduced: datapath predictions must
//! match **exactly** (same neurons, same values); local-control predictions
//! must identify the same single neuron (values are non-deterministic and
//! modeled as random); global-control faults are modeled as always failing,
//! with the RTL-masked fraction reported.

use fidelity_accel::ff::FfCategory;
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{OperandKind, Operands, Substitution};
use fidelity_dnn::tensor::Tensor;
use fidelity_rtl::{Disturbance, FaultSite, FfId, ObservedFault, RtlEngine, RtlLayer, SchedPoint};

/// The software fault model's prediction for one concrete fault site.
#[derive(Debug, Clone, PartialEq)]
pub enum Prediction {
    /// The FF is inactive at that cycle; the fault must be masked.
    Masked,
    /// A set of faulty neurons; `None` values are non-deterministic (local
    /// control).
    Neurons {
        /// Flat output offsets.
        offsets: Vec<usize>,
        /// Predicted values (parallel to `offsets`).
        values: Vec<Option<f32>>,
    },
    /// Active global control: always application error / anomaly.
    SystemFailure,
}

/// Derives the software-model prediction for a concrete fault site.
pub fn predict(engine: &RtlEngine, site: FaultSite) -> Prediction {
    let layer = engine.layer();
    let spec = &layer.spec;
    let lanes = engine.lanes() as u64;
    let cfgw = layer.config_words();
    let channels = spec.channel_count() as u64;
    let operands = Operands {
        input: &layer.input,
        weight: &layer.weight,
    };
    let flip = |codec: fidelity_dnn::precision::ValueCodec, v: f32| {
        codec.decode(codec.encode(v) ^ (1u32 << site.bit.min(31)))
    };
    let sched = engine.schedule_at(site.cycle);
    let clean = engine.clean_output();

    match site.ff {
        FfId::FetchInput => match sched {
            SchedPoint::FetchInput { index } => {
                let faulty = flip(layer.input_codec, layer.input.data()[index]);
                operand_prediction(layer, clean, OperandKind::Input, index, faulty)
            }
            _ => Prediction::Masked,
        },
        FfId::FetchWeight => match sched {
            SchedPoint::FetchWeight { index } => {
                let faulty = flip(layer.weight_codec, layer.weight.data()[index]);
                operand_prediction(layer, clean, OperandKind::Weight, index, faulty)
            }
            _ => Prediction::Masked,
        },
        FfId::InputOperand => match sched {
            SchedPoint::Compute {
                group,
                kstep,
                y,
                s_base,
                ..
            } => {
                let p = s_base + y;
                let Some(addr) = crate::rtl_addr::input_addr(&cfgw, p, kstep, layer.input.len())
                else {
                    return Prediction::Masked; // gated (padding) cycle
                };
                let faulty = flip(layer.input_codec, layer.input.data()[addr as usize]);
                let neurons: Vec<usize> = (0..lanes)
                    .map(|lane| group * lanes + lane)
                    .filter(|&c| c < channels)
                    .map(|c| spec.offset_of(p as usize, c as usize))
                    .collect();
                let addr = addr as usize;
                operand_prediction_for(layer, clean, OperandKind::Input, addr, faulty, neurons)
            }
            _ => Prediction::Masked,
        },
        FfId::WeightOperand { lane } => match sched {
            SchedPoint::Compute {
                group,
                kstep,
                y,
                t_eff,
                s_base,
                ..
            } => {
                let c = group * lanes + lane as u64;
                if c >= channels {
                    return Prediction::Masked;
                }
                let Some(addr) = crate::rtl_addr::weight_addr(&cfgw, c, kstep, layer.weight.len())
                else {
                    return Prediction::Masked;
                };
                let faulty = flip(layer.weight_codec, layer.weight.data()[addr as usize]);
                let neurons: Vec<usize> = (y..t_eff)
                    .map(|yy| spec.offset_of((s_base + yy) as usize, c as usize))
                    .collect();
                let addr = addr as usize;
                operand_prediction_for(layer, clean, OperandKind::Weight, addr, faulty, neurons)
            }
            _ => Prediction::Masked,
        },
        FfId::Accumulator { lane, slot } => {
            let (flip_before, point) = match sched {
                SchedPoint::Compute {
                    group,
                    kstep,
                    y,
                    t_eff,
                    s_base,
                    ..
                } => {
                    if (slot as u64) >= t_eff {
                        return Prediction::Masked;
                    }
                    let fb = if (slot as u64) < y {
                        kstep as usize + 1
                    } else {
                        kstep as usize
                    };
                    (fb, Some((group, s_base)))
                }
                SchedPoint::Writeback {
                    group,
                    y,
                    t_eff,
                    s_base,
                    ..
                } => {
                    // Slots at or before the drain point are already written.
                    if (slot as u64) <= y || (slot as u64) >= t_eff {
                        return Prediction::Masked;
                    }
                    (spec.kernel_steps(), Some((group, s_base)))
                }
                _ => (0, None),
            };
            let Some((group, s_base)) = point else {
                return Prediction::Masked;
            };
            let c = group * lanes + lane as u64;
            if c >= channels {
                return Prediction::Masked;
            }
            let off = spec.offset_of((s_base + slot as u64) as usize, c as usize);
            let flip = fidelity_dnn::macspec::AccFlip::new(flip_before, site.bit)
                .expect("accumulator fault sites carry f32 bit indices (inventory width 32)");
            let value = layer
                .output_codec
                .quantize(spec.compute_at_acc_flip(&operands, off, flip));
            finish_neurons(clean, vec![off], vec![Some(value)])
        }
        FfId::OutputReg { lane } => match sched {
            SchedPoint::Writeback {
                group, y, s_base, ..
            } => {
                let c = group * lanes + lane as u64;
                if c >= channels {
                    return Prediction::Masked;
                }
                let off = spec.offset_of((s_base + y) as usize, c as usize);
                let value = flip(layer.output_codec, clean.data()[off]);
                finish_neurons(clean, vec![off], vec![Some(value)])
            }
            _ => Prediction::Masked,
        },
        FfId::OutputValid { lane } => match sched {
            SchedPoint::Writeback {
                group, y, s_base, ..
            } => {
                let c = group * lanes + lane as u64;
                if c >= channels {
                    return Prediction::Masked;
                }
                let off = spec.offset_of((s_base + y) as usize, c as usize);
                Prediction::Neurons {
                    offsets: vec![off],
                    values: vec![None],
                }
            }
            _ => Prediction::Masked,
        },
        FfId::Config { .. } | FfId::Sequencer { .. } => Prediction::SystemFailure,
    }
}

/// Before-buffer prediction: all users of the corrupted stored value.
pub(crate) fn operand_prediction(
    layer: &RtlLayer,
    clean: &Tensor,
    kind: OperandKind,
    elem: usize,
    faulty: f32,
) -> Prediction {
    let users = match kind {
        OperandKind::Input => layer.spec.neurons_using_input(elem),
        OperandKind::Weight => layer.spec.neurons_using_weight(elem),
    };
    operand_prediction_for(layer, clean, kind, elem, faulty, users)
}

/// Computes the predicted values for a given neuron window under a
/// single-element substitution, dropping neurons whose value is unchanged.
pub(crate) fn operand_prediction_for(
    layer: &RtlLayer,
    clean: &Tensor,
    kind: OperandKind,
    elem: usize,
    faulty: f32,
    neurons: Vec<usize>,
) -> Prediction {
    let operands = Operands {
        input: &layer.input,
        weight: &layer.weight,
    };
    let subst = Substitution {
        kind,
        offset: elem,
        value: faulty,
    };
    let values = neurons
        .iter()
        .map(|&off| {
            let v = layer.spec.compute_at(&operands, off, Some(&subst));
            Some(layer.output_codec.quantize(v))
        })
        .collect();
    finish_neurons(clean, neurons, values)
}

/// Filters out neurons whose predicted value equals the `clean` output's
/// (those are invisible in an output diff) and collapses to `Masked` when
/// nothing remains.
pub(crate) fn finish_neurons(
    clean: &Tensor,
    offsets: Vec<usize>,
    values: Vec<Option<f32>>,
) -> Prediction {
    let mut out_offsets = Vec::new();
    let mut out_values = Vec::new();
    for (off, val) in offsets.into_iter().zip(values) {
        match val {
            Some(v) => {
                if differs(clean.data()[off], v) {
                    out_offsets.push(off);
                    out_values.push(Some(v));
                }
            }
            None => {
                out_offsets.push(off);
                out_values.push(None);
            }
        }
    }
    if out_offsets.is_empty() {
        Prediction::Masked
    } else {
        Prediction::Neurons {
            offsets: out_offsets,
            values: out_values,
        }
    }
}

/// The same "is different" rule `Tensor::diff_indices` uses with zero
/// tolerance.
fn differs(a: f32, b: f32) -> bool {
    a.is_nan() || b.is_nan() || (a - b).abs() > 0.0
}

fn values_equal(a: f32, b: f32) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits() || a == b
}

/// Lifts one MAC node of a deployed engine into a register-level layer, so
/// the exact tensors and codecs the software fault models see are also what
/// the golden reference executes (Sec. IV-B's "same fault sites" setup).
///
/// Returns `None` when the node is not a MAC layer or uses a geometry the
/// register-level engine does not support (grouped conv, batched matmul).
pub fn rtl_layer_for(
    engine: &fidelity_dnn::graph::Engine,
    trace: &fidelity_dnn::graph::Trace,
    node: usize,
) -> Option<fidelity_rtl::RtlLayer> {
    use fidelity_dnn::macspec::MacSpec;
    let spec = engine.mac_spec(node, trace)?;
    let inputs = engine.node_inputs(node, trace);
    let input_codecs = engine.node_input_codecs(node);
    let (weight, weight_codec) = if matches!(spec, MacSpec::MatMul(_)) {
        ((*inputs.get(1)?).clone(), *input_codecs.get(1)?)
    } else {
        (
            engine
                .network()
                .layer(node)
                .weights()
                .first()?
                .to_owned()
                .clone(),
            engine.weight_codec(node, 0)?,
        )
    };
    fidelity_rtl::RtlLayer::new(
        spec,
        (*inputs.first()?).clone(),
        weight,
        *input_codecs.first()?,
        weight_codec,
        engine.node_codec(node),
    )
    .ok()
}

/// How one validated site compared.
#[derive(Debug, Clone, PartialEq)]
pub enum Agreement {
    /// Both the model and RTL say masked.
    MaskedAgreed,
    /// Datapath: identical neuron set and identical values.
    DatapathExact,
    /// Local control: same (single) neuron; value non-deterministic as
    /// expected. `value_was_zero` records the RTL drop-to-initial behaviour.
    LocalNeuronMatch {
        /// Whether RTL produced the dropped-write value.
        value_was_zero: bool,
    },
    /// Global control: RTL confirmed a failure (errors or time-out).
    GlobalFailureConfirmed,
    /// Global control: RTL masked the fault (the conservative model calls
    /// it a failure; the paper measured ~9.5% of these).
    GlobalMasked,
    /// Model and RTL disagree.
    Mismatch(String),
}

/// One validated fault site of either register-level dataflow: `S` is the
/// engine's site type.
#[derive(Debug, Clone)]
pub struct SiteOutcome<S = FaultSite> {
    /// The injected site.
    pub site: S,
    /// Its FF category.
    pub category: FfCategory,
    /// Whether the RTL run timed out.
    pub timed_out: bool,
    /// Comparison verdict.
    pub agreement: Agreement,
}

/// Validates one fault site: runs RTL, derives the prediction, compares.
pub fn validate_site(engine: &RtlEngine, site: FaultSite) -> SiteOutcome {
    let category = site.ff.category();
    let result = engine.run(Disturbance::Ff(site));
    let observed = ObservedFault::from_run(engine.clean_output(), &result);
    let prediction = predict(engine, site);
    let agreement = agreement(&prediction, category, &observed, || {
        format!("site {} cycle {} bit {}", site.ff, site.cycle, site.bit)
    });
    SiteOutcome {
        site,
        category,
        timed_out: observed.timed_out,
        agreement,
    }
}

/// The agreement rule of both register-level dataflows: how the software
/// model's `prediction` for a site of `category` compares with what the
/// register-level run `observed`. `site` names the site (its FF, cycle
/// and bit) in a mismatch message.
pub(crate) fn agreement(
    prediction: &Prediction,
    category: FfCategory,
    observed: &ObservedFault,
    site: impl FnOnce() -> String,
) -> Agreement {
    match (prediction, category) {
        (Prediction::SystemFailure, _) => {
            if observed.is_masked() {
                Agreement::GlobalMasked
            } else {
                Agreement::GlobalFailureConfirmed
            }
        }
        (Prediction::Masked, _) => {
            if observed.is_masked() {
                Agreement::MaskedAgreed
            } else {
                Agreement::Mismatch(format!(
                    "predicted masked, rtl saw {} faulty neurons ({})",
                    observed.reuse_factor(),
                    site()
                ))
            }
        }
        (Prediction::Neurons { offsets, .. }, FfCategory::LocalControl) => {
            if observed.reuse_factor() <= 1
                && observed.faulty_neurons.iter().all(|n| offsets.contains(n))
            {
                // The register-level engines write a literal zero on a
                // local-control drop, so the bit-exact comparison is the
                // correct test.
                // statcheck:allow(float-eq)
                let value_was_zero = observed.faulty_values.first().is_some_and(|v| *v == 0.0);
                Agreement::LocalNeuronMatch { value_was_zero }
            } else {
                Agreement::Mismatch(format!(
                    "local control {}: predicted {:?}, rtl {:?}",
                    site(),
                    offsets,
                    observed.faulty_neurons
                ))
            }
        }
        (Prediction::Neurons { offsets, values }, _) => {
            if observed.timed_out {
                Agreement::Mismatch(format!("datapath {}: fault caused a time-out", site()))
            } else if observed.faulty_neurons == *offsets
                && observed
                    .faulty_values
                    .iter()
                    .zip(values)
                    .all(|(rv, pv)| pv.is_some_and(|p| values_equal(*rv, p)))
            {
                Agreement::DatapathExact
            } else {
                Agreement::Mismatch(format!(
                    "datapath {}: predicted {:?} rtl {:?} (values {:?} vs {:?})",
                    site(),
                    offsets,
                    observed.faulty_neurons,
                    values,
                    observed.faulty_values
                ))
            }
        }
    }
}

/// Aggregate validation statistics (the Sec. IV-C numbers).
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Sites validated.
    pub total: usize,
    /// Both sides masked.
    pub masked_agreed: usize,
    /// Non-masked datapath cases.
    pub datapath_cases: usize,
    /// ... of which exactly matched.
    pub datapath_exact: usize,
    /// Non-masked local-control cases.
    pub local_cases: usize,
    /// ... of which hit the predicted neuron with RF ≤ 1.
    pub local_match: usize,
    /// Global-control cases.
    pub global_cases: usize,
    /// ... of which RTL confirmed failure.
    pub global_failure: usize,
    /// ... of which RTL masked.
    pub global_masked: usize,
    /// RTL time-outs observed.
    pub timeouts: usize,
    /// Mismatch descriptions (empty on full validation).
    pub mismatches: Vec<String>,
}

impl ValidationReport {
    /// Folds one site outcome, of either dataflow, into the report.
    pub fn add<S>(&mut self, outcome: &SiteOutcome<S>) {
        self.total += 1;
        if outcome.timed_out {
            self.timeouts += 1;
        }
        match &outcome.agreement {
            Agreement::MaskedAgreed => self.masked_agreed += 1,
            Agreement::DatapathExact => {
                self.datapath_cases += 1;
                self.datapath_exact += 1;
            }
            Agreement::LocalNeuronMatch { .. } => {
                self.local_cases += 1;
                self.local_match += 1;
            }
            Agreement::GlobalFailureConfirmed => {
                self.global_cases += 1;
                self.global_failure += 1;
            }
            Agreement::GlobalMasked => {
                self.global_cases += 1;
                self.global_masked += 1;
            }
            Agreement::Mismatch(m) => {
                match outcome.category {
                    FfCategory::Datapath { .. } => self.datapath_cases += 1,
                    FfCategory::LocalControl => self.local_cases += 1,
                    FfCategory::GlobalControl => self.global_cases += 1,
                }
                self.mismatches.push(m.clone());
            }
        }
    }

    /// Folds another report's counts and mismatches into this one.
    pub fn merge(&mut self, other: &ValidationReport) {
        self.total += other.total;
        self.masked_agreed += other.masked_agreed;
        self.datapath_cases += other.datapath_cases;
        self.datapath_exact += other.datapath_exact;
        self.local_cases += other.local_cases;
        self.local_match += other.local_match;
        self.global_cases += other.global_cases;
        self.global_failure += other.global_failure;
        self.global_masked += other.global_masked;
        self.timeouts += other.timeouts;
        self.mismatches.extend(other.mismatches.iter().cloned());
    }
}

/// Validates a batch of sites.
pub fn validate_many(engine: &RtlEngine, sites: &[FaultSite]) -> ValidationReport {
    let mut report = ValidationReport::default();
    for &site in sites {
        report.add(&validate_site(engine, site));
    }
    report
}

/// Samples `n` random fault sites uniformly over the engine's FF inventory,
/// bit widths, and fault-free cycle window.
pub fn random_sites(engine: &RtlEngine, n: usize, rng: &mut SplitMix64) -> Vec<FaultSite> {
    let inventory = engine.inventory();
    (0..n)
        .map(|_| {
            let (ff, width) = inventory[rng.next_below(inventory.len() as u64) as usize];
            FaultSite {
                ff,
                bit: rng.next_below(u64::from(width)) as u32,
                cycle: rng.next_below(engine.clean_cycles()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::macspec::{ConvSpec, MacSpec};
    use fidelity_dnn::precision::{Precision, ValueCodec};
    use fidelity_rtl::RtlLayer;

    fn engine(precision: Precision) -> RtlEngine {
        let spec = ConvSpec {
            batch: 1,
            in_c: 2,
            in_h: 5,
            in_w: 5,
            out_c: 6,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
            groups: 1,
        };
        let codec = ValueCodec::new(precision, 0.01);
        let input = uniform_tensor(1, vec![1, 2, 5, 5], 1.0).map(|v| codec.quantize(v));
        let weight = uniform_tensor(2, vec![6, 2, 3, 3], 0.5).map(|v| codec.quantize(v));
        let layer = RtlLayer::new(MacSpec::Conv(spec), input, weight, codec, codec, codec).unwrap();
        RtlEngine::new(layer, 4, 4)
    }

    #[test]
    fn datapath_sites_validate_exactly_fp16() {
        let e = engine(Precision::Fp16);
        let mut rng = SplitMix64::new(77);
        let sites = random_sites(&e, 400, &mut rng);
        let report = validate_many(&e, &sites);
        assert_eq!(report.total, 400);
        assert!(
            report.mismatches.is_empty(),
            "mismatches: {:#?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
        assert!(report.datapath_cases > 0);
        assert_eq!(report.datapath_exact, report.datapath_cases);
    }

    #[test]
    fn datapath_sites_validate_exactly_int8() {
        let e = engine(Precision::Int8);
        let mut rng = SplitMix64::new(78);
        let sites = random_sites(&e, 300, &mut rng);
        let report = validate_many(&e, &sites);
        assert!(
            report.mismatches.is_empty(),
            "mismatches: {:#?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
    }

    #[test]
    fn global_faults_mostly_fail() {
        let e = engine(Precision::Fp16);
        let mut rng = SplitMix64::new(79);
        // Only global sites.
        let inventory: Vec<_> = e
            .inventory()
            .into_iter()
            .filter(|(ff, _)| ff.category() == FfCategory::GlobalControl)
            .collect();
        let sites: Vec<FaultSite> = (0..200)
            .map(|_| {
                let (ff, width) = inventory[rng.next_below(inventory.len() as u64) as usize];
                FaultSite {
                    ff,
                    bit: rng.next_below(u64::from(width)) as u32,
                    cycle: rng.next_below(e.clean_cycles()),
                }
            })
            .collect();
        let report = validate_many(&e, &sites);
        assert_eq!(report.global_cases, 200);
        // Most active-global faults fail; a minority is masked (the paper
        // measured ~9.5%).
        assert!(report.global_failure > report.global_masked);
        assert!(report.global_masked > 0, "expect some masked global faults");
    }
}
