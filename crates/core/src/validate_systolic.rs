//! Validation of software fault models against the Eyeriss-like systolic
//! golden reference — the same Sec.-IV methodology as [`crate::validate`],
//! applied to a second, structurally different dataflow. This is the
//! framework's portability claim made executable: only the schedule
//! interpretation changes; the comparison criteria are identical.

use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{OperandKind, Operands};
use fidelity_rtl::{ObservedFault, SysFaultSite, SysFfId, SysSchedPoint, SystolicEngine};

use crate::validate::{
    agreement, finish_neurons, operand_prediction, operand_prediction_for, Prediction, SiteOutcome,
    ValidationReport,
};

/// Derives the software-model prediction for a systolic fault site.
pub fn predict_systolic(engine: &SystolicEngine, site: SysFaultSite) -> Prediction {
    let layer = engine.layer();
    let spec = &layer.spec;
    let cfgw = layer.config_words();
    let k = engine.pe_rows() as u64;
    let t = engine.chan_reuse() as u64;
    let (out_c, out_h, out_w) = (
        spec.channel_count() as u64,
        (spec.position_count() as u64) / spec_out_w(spec),
        spec_out_w(spec),
    );
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
        SysFfId::FetchInput => match sched {
            SysSchedPoint::FetchInput { index } => {
                let faulty = flip(layer.input_codec, layer.input.data()[index]);
                operand_prediction(layer, clean, OperandKind::Input, index, faulty)
            }
            _ => Prediction::Masked,
        },
        SysFfId::FetchWeight => match sched {
            SysSchedPoint::FetchWeight { index } => {
                let faulty = flip(layer.weight_codec, layer.weight.data()[index]);
                operand_prediction(layer, clean, OperandKind::Weight, index, faulty)
            }
            _ => Prediction::Masked,
        },
        SysFfId::InputOperand { pe } => match sched {
            SysSchedPoint::Compute {
                chan_block,
                row_block,
                column,
                kstep,
                tc,
                t_eff,
            } => {
                let row = row_block * k + pe as u64;
                if row >= out_h {
                    return Prediction::Masked;
                }
                let p = row * out_w + column;
                let Some(addr) = crate::rtl_addr::input_addr(&cfgw, p, kstep, layer.input.len())
                else {
                    return Prediction::Masked;
                };
                let addr = addr as usize;
                let faulty = flip(layer.input_codec, layer.input.data()[addr]);
                // The register holds this value for the remaining channel
                // slots of the current kernel step.
                let neurons = (tc..t_eff)
                    .map(|tcc| chan_block * t + tcc)
                    .filter(|&c| c < out_c)
                    .map(|c| spec.offset_of(p as usize, c as usize))
                    .collect();
                operand_prediction_for(layer, clean, OperandKind::Input, addr, faulty, neurons)
            }
            _ => Prediction::Masked,
        },
        SysFfId::WeightOperand => match sched {
            SysSchedPoint::Compute {
                chan_block,
                row_block,
                column,
                kstep,
                tc,
                ..
            } => {
                let c = chan_block * t + tc;
                if c >= out_c {
                    return Prediction::Masked;
                }
                let Some(addr) = crate::rtl_addr::weight_addr(&cfgw, c, kstep, layer.weight.len())
                else {
                    return Prediction::Masked;
                };
                let addr = addr as usize;
                let faulty = flip(layer.weight_codec, layer.weight.data()[addr]);
                // Broadcast: all PEs whose input is live this cycle.
                let mut neurons = Vec::new();
                for pe in 0..k {
                    let row = row_block * k + pe;
                    if row >= out_h {
                        continue;
                    }
                    let p = row * out_w + column;
                    if crate::rtl_addr::input_addr(&cfgw, p, kstep, layer.input.len()).is_none() {
                        continue; // that PE's MAC is gated (padding)
                    }
                    neurons.push(spec.offset_of(p as usize, c as usize));
                }
                operand_prediction_for(layer, clean, OperandKind::Weight, addr, faulty, neurons)
            }
            _ => Prediction::Masked,
        },
        SysFfId::Accumulator { pe, slot } => {
            let (flip_before, point) = match sched {
                SysSchedPoint::Compute {
                    chan_block,
                    row_block,
                    column,
                    kstep,
                    tc,
                    t_eff,
                } => {
                    if (slot as u64) >= t_eff {
                        return Prediction::Masked;
                    }
                    let fb = if (slot as u64) < tc {
                        kstep as usize + 1
                    } else {
                        kstep as usize
                    };
                    (fb, Some((chan_block, row_block, column)))
                }
                SysSchedPoint::Writeback {
                    chan_block,
                    row_block,
                    column,
                    tc,
                    t_eff,
                } => {
                    if (slot as u64) <= tc || (slot as u64) >= t_eff {
                        return Prediction::Masked;
                    }
                    (
                        layer.spec.kernel_steps(),
                        Some((chan_block, row_block, column)),
                    )
                }
                _ => (0, None),
            };
            let Some((cb, rb, col)) = point else {
                return Prediction::Masked;
            };
            let row = rb * k + pe as u64;
            let c = cb * t + slot as u64;
            if row >= out_h || c >= out_c {
                return Prediction::Masked;
            }
            let p = row * out_w + col;
            let off = spec.offset_of(p as usize, c as usize);
            let flip = fidelity_dnn::macspec::AccFlip::new(flip_before, site.bit)
                .expect("accumulator fault sites carry f32 bit indices (inventory width 32)");
            let value = layer
                .output_codec
                .quantize(spec.compute_at_acc_flip(&operands, off, flip));
            finish_neurons(clean, vec![off], vec![Some(value)])
        }
        SysFfId::OutputReg { pe } => match sched {
            SysSchedPoint::Writeback {
                chan_block,
                row_block,
                column,
                tc,
                ..
            } => {
                let row = row_block * k + pe as u64;
                let c = chan_block * t + tc;
                if row >= out_h || c >= out_c {
                    return Prediction::Masked;
                }
                let p = row * out_w + column;
                let off = spec.offset_of(p as usize, c as usize);
                let value = flip(layer.output_codec, clean.data()[off]);
                finish_neurons(clean, vec![off], vec![Some(value)])
            }
            _ => Prediction::Masked,
        },
        SysFfId::OutputValid { pe } => match sched {
            SysSchedPoint::Writeback {
                chan_block,
                row_block,
                column,
                tc,
                ..
            } => {
                let row = row_block * k + pe as u64;
                let c = chan_block * t + tc;
                if row >= out_h || c >= out_c {
                    return Prediction::Masked;
                }
                let p = row * out_w + column;
                Prediction::Neurons {
                    offsets: vec![spec.offset_of(p as usize, c as usize)],
                    values: vec![None],
                }
            }
            _ => Prediction::Masked,
        },
        SysFfId::Config { .. } | SysFfId::Sequencer { .. } => Prediction::SystemFailure,
    }
}

fn spec_out_w(spec: &fidelity_dnn::macspec::MacSpec) -> u64 {
    match spec {
        fidelity_dnn::macspec::MacSpec::Conv(c) => c.out_w() as u64,
        _ => 1,
    }
}

/// Validates one systolic fault site by the rule of [`crate::validate`].
pub fn validate_systolic_site(
    engine: &SystolicEngine,
    site: SysFaultSite,
) -> SiteOutcome<SysFaultSite> {
    let category = site.ff.category();
    let result = engine.run(site);
    let faulty_neurons = engine
        .clean_output()
        .diff_indices(&result.output, 0.0)
        .expect("same shape");
    let observed = ObservedFault {
        faulty_values: faulty_neurons
            .iter()
            .map(|&i| result.output.data()[i])
            .collect(),
        faulty_neurons,
        timed_out: result.timed_out,
    };
    let prediction = predict_systolic(engine, site);
    let agreement = agreement(&prediction, category, &observed, || {
        format!(
            "systolic site {:?} cycle {} bit {}",
            site.ff, site.cycle, site.bit
        )
    });
    SiteOutcome {
        site,
        category,
        timed_out: observed.timed_out,
        agreement,
    }
}

/// Validates a batch of systolic sites into the shared report format.
pub fn validate_systolic_many(engine: &SystolicEngine, sites: &[SysFaultSite]) -> ValidationReport {
    let mut report = ValidationReport::default();
    for &site in sites {
        report.add(&validate_systolic_site(engine, site));
    }
    report
}

/// Samples `n` random systolic fault sites.
pub fn random_systolic_sites(
    engine: &SystolicEngine,
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<SysFaultSite> {
    let inventory = engine.inventory();
    (0..n)
        .map(|_| {
            let (ff, width) = inventory[rng.next_below(inventory.len() as u64) as usize];
            SysFaultSite {
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

    fn engine(precision: Precision) -> SystolicEngine {
        let spec = ConvSpec {
            batch: 1,
            in_c: 2,
            in_h: 6,
            in_w: 5,
            out_c: 5,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
            groups: 1,
        };
        let codec = ValueCodec::new(precision, 0.01);
        let input = uniform_tensor(21, vec![1, 2, 6, 5], 1.0).map(|v| codec.quantize(v));
        let weight = uniform_tensor(22, vec![5, 2, 3, 3], 0.5).map(|v| codec.quantize(v));
        let layer = RtlLayer::new(MacSpec::Conv(spec), input, weight, codec, codec, codec).unwrap();
        SystolicEngine::new(layer, 4, 3)
    }

    #[test]
    fn systolic_sites_validate_exactly_fp16() {
        let e = engine(Precision::Fp16);
        let mut rng = SplitMix64::new(88);
        let sites = random_systolic_sites(&e, 400, &mut rng);
        let report = validate_systolic_many(&e, &sites);
        assert!(
            report.mismatches.is_empty(),
            "mismatches: {:#?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
        assert!(report.datapath_cases > 0);
        assert_eq!(report.datapath_exact, report.datapath_cases);
    }

    #[test]
    fn systolic_sites_validate_exactly_int16() {
        let e = engine(Precision::Int16);
        let mut rng = SplitMix64::new(89);
        let sites = random_systolic_sites(&e, 300, &mut rng);
        let report = validate_systolic_many(&e, &sites);
        assert!(
            report.mismatches.is_empty(),
            "mismatches: {:#?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
    }
}
