//! The naive software fault-injection strawman (Sec. VI).
//!
//! Existing software techniques model a hardware transient error as a single
//! bit flip in a single architectural (software-visible) state. The paper
//! shows this underestimates NVDLA's FIT rate by up to 25× because it
//! ignores reuse (one FF flip corrupting many neurons), control faults, and
//! the bias of where FFs actually sit. This module implements that strawman
//! so the comparison can be reproduced.

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::workspace::Workspace;
use fidelity_dnn::DnnError;

use crate::outcome::{CorrectnessMetric, Outcome};

/// Result of a naive-injection campaign.
#[derive(Debug, Clone, Copy)]
pub struct NaiveResult {
    /// Samples run.
    pub samples: usize,
    /// Masked outcomes.
    pub masked: usize,
    /// The naive FIT estimate: raw FF FIT total × P(failure | flip).
    pub fit_estimate: f64,
}

/// Runs the naive campaign: uniform single-bit flips over all architectural
/// states (every intermediate tensor element), with the resulting masking
/// probability applied to the whole FF population.
///
/// # Errors
///
/// Propagates graph-execution errors.
pub fn naive_fit_rate(
    engine: &Engine,
    trace: &Trace,
    metric: &dyn CorrectnessMetric,
    accel: &AcceleratorConfig,
    raw_fit_per_mb: f64,
    samples: usize,
    seed: u64,
) -> Result<NaiveResult, DnnError> {
    // Architectural states = all node outputs, weighted by element count.
    let sizes: Vec<usize> = trace
        .node_outputs
        .iter()
        .map(fidelity_dnn::Tensor::len)
        .collect();
    let total: usize = sizes.iter().sum();
    let mut rng = SplitMix64::new(seed);
    let mut masked = 0usize;
    let mut ws = Workspace::new();

    for _ in 0..samples {
        let mut flat = rng.next_below(total.max(1) as u64) as usize;
        let mut node = 0usize;
        while flat >= sizes[node] {
            flat -= sizes[node];
            node += 1;
        }
        let codec = engine.node_codec(node);
        let bit = rng.next_below(u64::from(codec.precision().bits())) as u32;
        let mut corrupted = trace.node_outputs[node].clone();
        let clean = corrupted.data()[flat];
        let faulty = codec.flip_bit(clean, bit);
        let outcome = if faulty.is_nan() && clean.is_nan() || faulty == clean {
            Outcome::Masked
        } else {
            corrupted.data_mut()[flat] = faulty;
            let final_output = engine.resume(trace, node, corrupted, None, &mut ws)?;
            let correct = metric.is_correct(&trace.output, final_output.tensor());
            final_output.recycle_into(&mut ws);
            if correct {
                Outcome::Masked
            } else {
                Outcome::OutputError
            }
        };
        if outcome == Outcome::Masked {
            masked += 1;
        }
    }

    let p_fail = 1.0 - masked as f64 / samples.max(1) as f64;
    let fit_estimate = raw_fit_per_mb * accel.ff_megabytes() * p_fail;
    Ok(NaiveResult {
        samples,
        masked,
        fit_estimate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TopOneMatch;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Conv2d, Dense, Flatten, GlobalAvgPool};
    use fidelity_dnn::precision::Precision;

    #[test]
    fn naive_estimate_is_finite_and_below_raw_total() {
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(
                Conv2d::new("conv", uniform_tensor(1, vec![4, 2, 3, 3], 0.5))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["conv"])
            .unwrap()
            .layer(Flatten::new("flat"), &["gap"])
            .unwrap()
            .layer(
                Dense::new("fc", uniform_tensor(2, vec![3, 4], 0.5)).unwrap(),
                &["flat"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let trace = engine
            .trace(&[uniform_tensor(3, vec![1, 2, 6, 6], 1.0)])
            .unwrap();
        let cfg = presets::nvdla_like();
        let res = naive_fit_rate(&engine, &trace, &TopOneMatch, &cfg, 600.0, 200, 11).unwrap();
        assert_eq!(res.samples, 200);
        let raw_total = 600.0 * cfg.ff_megabytes();
        assert!(res.fit_estimate >= 0.0 && res.fit_estimate <= raw_total);
        assert!(res.masked > 0, "single-element flips are often masked");
    }
}
