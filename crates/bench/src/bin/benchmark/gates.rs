//! Correctness gates: a run whose outputs fail one reports
//! `"correct":false` and exits 1, so no timing stands for a wrong answer.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use fidelity_core::adaptive::verify_checkpoint_file;
use fidelity_core::resilience::parse_checkpoint;
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::macspec::{KernelScratch, MacSpec, Operands};
use fidelity_dnn::tensor::Tensor;
use fidelity_dnn::DnnError;

use crate::workloads::Plan;

/// Seed at which certificates are pinned.
pub const REFERENCE_SEED: u64 = 42;

/// FNV-1a of the canonical certificate bytes at [`REFERENCE_SEED`]. A change
/// that moves one of these changed which injections ran or what they
/// concluded, which no performance change may do.
pub const CERT_REFERENCE: &[(&str, u64)] = &[
    ("cert-inception", 0xa944_baa7_f466_fb08),
    ("cert-resnet", 0x4389_2f6c_e1ff_039c),
];

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Re-reads a campaign checkpoint from disk: an adaptive one must re-verify
/// its certificate offline (`verify_checkpoint_file`), a fixed-count one
/// must parse. Returns the injections it records.
pub fn reverify_checkpoint(plan: Plan, path: &Path) -> Result<usize, String> {
    let bad = |e: DnnError| format!("checkpoint {} does not re-verify: {e}", path.display());
    match plan {
        Plan::Adaptive(_) => verify_checkpoint_file(path)
            .map(|cert| cert.total_injections)
            .map_err(bad),
        Plan::Fixed(_) => {
            let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let parsed = parse_checkpoint(BufReader::new(file)).map_err(bad)?;
            Ok(parsed.cells.iter().map(|(_, c)| c.samples).sum())
        }
    }
}

/// The MAC nodes of a deployed network, in topological order.
pub fn mac_nodes(engine: &Engine, trace: &Trace) -> Vec<usize> {
    (0..engine.network().node_count())
        .filter(|&i| engine.mac_spec(i, trace).is_some())
        .collect()
}

/// A MAC node's geometry and its two operand tensors as traced.
pub fn mac_operands<'a>(
    engine: &'a Engine,
    trace: &'a Trace,
    node: usize,
) -> Option<(MacSpec, &'a Tensor, &'a Tensor)> {
    let spec = engine.mac_spec(node, trace)?;
    let input = engine.node_input_at(node, 0, trace);
    let weight = if matches!(spec, MacSpec::MatMul(_)) {
        engine.node_input_at(node, 1, trace)
    } else {
        engine.network().layer(node).weights().into_iter().next()?
    };
    Some((spec, input, weight))
}

/// Checks every MAC layer's Bitwise kernel against the scalar `compute_at`
/// oracle, neuron by neuron and bit for bit (any NaN equals any NaN: NaN
/// payloads are the one thing the kernels may legally vary).
pub fn kernel_self_check(engine: &Engine, trace: &Trace, problems: &mut Vec<String>) {
    let mut scratch = KernelScratch::new();
    for node in mac_nodes(engine, trace) {
        let Some((spec, input, weight)) = mac_operands(engine, trace, node) else {
            problems.push(format!("node {node}: MAC layer without operands"));
            continue;
        };
        let ops = Operands { input, weight };
        let mut out = vec![0.0f32; spec.out_len()];
        spec.forward_into_scratch(&ops, &mut out, &mut scratch);
        let bad = out.iter().enumerate().find(|&(off, &v)| {
            let want = spec.compute_at(&ops, off, None);
            !(v.to_bits() == want.to_bits() || (v.is_nan() && want.is_nan()))
        });
        if let Some((off, v)) = bad {
            problems.push(format!(
                "kernel self-check: node {node} ({}) neuron {off}: kernel {v:e} != compute_at {:e}",
                engine.network().layer(node).name(),
                spec.compute_at(&ops, off, None)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_published_test_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
