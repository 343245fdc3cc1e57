//! Byte pins for every layer's forward on the real networks.
//!
//! The MAC kernels must stay bit-identical to `MacSpec::compute_at`. The
//! property tests check that on random shapes; these pins check it on the
//! real networks, end to end, through the layers' own forwards (a Dense
//! layer runs over a weight panel it packs itself, so a stale panel shows
//! here and not in a raw-operand test). The transformer and LSTM FP16
//! constants were computed before Dense and MatMul moved onto the lane
//! kernel and must never move with a kernel change.
//!
//! The golden traces of the other networks at FP16, and of all six at
//! INT8, were pinned at commit 67a3633, where every windowed layer still
//! had a full-output forward of its own beside its window kernel. Since
//! each such layer's forward is now its window kernel over the whole
//! output, these pins are the oracle for each layer's formula.

use fidelity::core::campaign::run_campaign;
use fidelity::core::resilience::CheckpointSpec;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;
use fidelity::obs::fnv::{fnv64, Fnv64};
use fidelity::obs::record_log;
use fidelity::serve::JobSpec;
use fidelity::workloads::{lstm_workload, transformer_workload, workload, Workload};

/// FNV-1a over every node output of the golden trace at `precision`: per
/// node, its index, shape and value bits (NaN payloads collapsed to one,
/// since only which values are NaN is deterministic).
fn golden_trace_digest(w: Workload, precision: Precision) -> (usize, u64) {
    let engine = Engine::new(w.network, precision, std::slice::from_ref(&w.inputs)).unwrap();
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
    let (nodes, digest) = golden_trace_digest(transformer_workload(42), Precision::Fp16);
    assert_eq!(
        (nodes, digest),
        (71, 0x8129_9be6_3ee7_db68),
        "transformer golden trace moved"
    );
}

#[test]
fn lstm_golden_trace_is_pinned() {
    let (nodes, digest) = golden_trace_digest(lstm_workload(42), Precision::Fp16);
    assert_eq!(
        (nodes, digest),
        (54, 0x61c2_1ae4_cda5_b08d),
        "lstm golden trace moved"
    );
}

#[test]
fn every_golden_trace_is_pinned() {
    use Precision::{Fp16, Int8};
    let pins = [
        ("inception", Fp16, 24, 0xd90e_2bc5_98e5_cdf7),
        ("resnet", Fp16, 20, 0x64bf_5525_a3fb_69a3),
        ("mobilenet", Fp16, 13, 0x6469_c0b9_a8b2_b578),
        ("yolo", Fp16, 9, 0xbecd_efa6_d0ec_b0c9),
        ("inception", Int8, 24, 0x2a12_5b3e_aa01_6d17),
        ("resnet", Int8, 20, 0x8134_2ca0_4ddc_b237),
        ("mobilenet", Int8, 13, 0xd31e_0f5c_429c_71ed),
        ("yolo", Int8, 9, 0x41a6_0c37_0c17_bf38),
        ("transformer", Int8, 71, 0x712d_b6a2_81b3_1890),
        ("lstm", Int8, 54, 0x59f8_86ff_eb24_25b2),
    ];
    for (name, precision, nodes, digest) in pins {
        let w = workload(name, 42).unwrap();
        assert_eq!(
            golden_trace_digest(w, precision),
            (nodes, digest),
            "{name} {precision:?} golden trace moved"
        );
    }
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
