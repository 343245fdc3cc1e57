//! Byte pins for the MAC kernels on the workloads built from Dense and
//! MatMul layers.
//!
//! The kernels must stay bit-identical to `MacSpec::compute_at`. The
//! property tests check that on random shapes; these pins check it on the
//! real networks, end to end, through the layers' own forwards (a Dense
//! layer runs over a weight panel it packs itself, so a stale panel shows
//! here and not in a raw-operand test). The constants were computed before
//! Dense and MatMul moved onto the lane kernel and must never move with a
//! kernel change.

use fidelity::core::campaign::run_campaign;
use fidelity::core::resilience::CheckpointSpec;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;
use fidelity::obs::fnv::{fnv64, Fnv64};
use fidelity::obs::record_log;
use fidelity::serve::JobSpec;
use fidelity::workloads::{lstm_workload, transformer_workload, Workload};

/// FNV-1a over every node output of the FP16 golden trace: per node, its
/// index, shape and value bits (NaN payloads collapsed to one, since only
/// which values are NaN is deterministic).
fn golden_trace_digest(w: Workload) -> (usize, u64) {
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let mut h = Fnv64::new();
    for (node, out) in trace.node_outputs.iter().enumerate() {
        h.word(node as u64);
        for &d in out.shape() {
            h.word(d as u64);
        }
        for &v in out.data() {
            let bits = if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() };
            h.word(u64::from(bits));
        }
    }
    (trace.node_outputs.len(), h.finish())
}

#[test]
fn transformer_golden_trace_is_pinned() {
    let (nodes, digest) = golden_trace_digest(transformer_workload(42));
    assert_eq!(
        (nodes, digest),
        (71, 0x8129_9be6_3ee7_db68),
        "transformer golden trace moved"
    );
}

#[test]
fn lstm_golden_trace_is_pinned() {
    let (nodes, digest) = golden_trace_digest(lstm_workload(42));
    assert_eq!(
        (nodes, digest),
        (54, 0x61c2_1ae4_cda5_b08d),
        "lstm golden trace moved"
    );
}

/// The wave log of a small fixed-count transformer campaign: every
/// injection's outcome runs through the Dense and MatMul kernels.
#[test]
fn transformer_wave_log_is_pinned() {
    let dir = std::env::temp_dir().join(format!("fidelity-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("transformer.ckpt");
    let _ = std::fs::remove_file(&path);
    let job = JobSpec::from_json_str(r#"{"network":"transformer","samples":6,"seed":7}"#).unwrap();
    let (engine, trace, metric) = job.deploy().unwrap();
    let mut spec = job.campaign_spec(2);
    spec.resilience.checkpoint = Some(CheckpointSpec::resuming(&path));
    let accel = fidelity::accel::presets::nvdla_like();
    run_campaign(&engine, &trace, &accel, metric.as_ref(), &spec).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    // The records' payloads, each with its newline, are the lines of the
    // unframed `fidelity-ackpt v1` log after its header: same content.
    let (_, records) = record_log::read(&bytes).unwrap();
    let mut payloads = Fnv64::new();
    for record in records {
        payloads.bytes(record.unwrap().1.as_bytes()).bytes(b"\n");
    }
    assert_eq!(
        payloads.finish(),
        0xa11f_0fb4_cb3a_cde2,
        "transformer wave log content moved"
    );
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        (32_298, 0xf0d6_3887_7ea0_ebac),
        "transformer wave log moved"
    );
}
