//! Byte pins for the software-fault-model sampler.
//!
//! `apply_model_sparse` draws an operand element, a bit, a reuse window and
//! a channel group, then recomputes the neurons the faulty value reaches.
//! Every campaign statistic rests on those draws and values, so they must
//! never move with a change to how the window is found or how its neurons
//! are recomputed. Each pin hashes 60 samples per MAC node and per software
//! fault model the preset yields, over every shipped preset and two
//! precisions: the effect, each faulty `(neuron, value)`, the largest
//! perturbation, and the RNG's next word after each sample (so the number
//! of draws is pinned too). The constants were computed before the sampler
//! moved onto closed-form use windows and the packed recompute.

use fidelity::accel::arch::AcceleratorConfig;
use fidelity::accel::ff::FfCategory;
use fidelity::accel::presets;
use fidelity::core::models::{apply_model_sparse, model_for, SoftwareFaultModel, SparseEffect};
use fidelity::dnn::graph::Engine;
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::precision::Precision;
use fidelity::obs::fnv::Fnv64;
use fidelity::workloads::{
    classification_suite, lstm_workload, transformer_workload, yolo_workload, Workload,
};

const SAMPLES: usize = 60;

/// Value bits with every NaN collapsed to one payload: only which values
/// are NaN is deterministic, not their payloads.
fn bits(v: f32) -> u64 {
    u64::from(if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
}

/// The distinct software fault models `cfg` maps its FF categories to, in
/// category order.
fn models(cfg: &AcceleratorConfig) -> Vec<SoftwareFaultModel> {
    let mut out = Vec::new();
    for m in FfCategory::enumerate().filter_map(|cat| model_for(cat, cfg)) {
        if !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

/// One digest per (preset, precision): FP16 then INT8 for each preset of
/// `presets::all()`.
fn sampler_digests(build: impl Fn() -> Workload) -> Vec<u64> {
    let mut digests = Vec::new();
    for cfg in presets::all() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let w = build();
            let engine =
                Engine::new(w.network, precision, std::slice::from_ref(&w.inputs)).unwrap();
            let trace = engine.trace(&w.inputs).unwrap();
            let mut h = Fnv64::new();
            let macs = (0..engine.network().node_count())
                .filter(|&n| engine.network().layer(n).kind().is_mac());
            for node in macs {
                for (mi, &model) in models(&cfg).iter().enumerate() {
                    let mut rng = SplitMix64::new(0x5EED ^ ((node as u64) << 8) ^ mi as u64);
                    for _ in 0..SAMPLES {
                        match apply_model_sparse(model, &engine, &trace, node, &mut rng).unwrap() {
                            SparseEffect::Masked => {
                                h.word(0);
                            }
                            SparseEffect::SystemFailure => {
                                h.word(1);
                            }
                            SparseEffect::Layer(f) => {
                                h.word(2);
                                h.word(f.neurons.len() as u64);
                                for (&n, &v) in f.neurons.iter().zip(&f.values) {
                                    h.word(n as u64);
                                    h.word(bits(v));
                                }
                                h.word(bits(f.max_perturbation));
                            }
                        }
                        h.word(rng.clone().next_u64());
                    }
                }
            }
            digests.push(h.finish());
        }
    }
    digests
}

fn classification(name: &str) -> Workload {
    classification_suite(42)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap()
}

#[test]
fn inception_sampler_is_pinned() {
    assert_eq!(
        sampler_digests(|| classification("inception")),
        [
            0xd625_7c13_a739_d2c4,
            0xa35d_7998_d1be_64ec,
            0x3e45_b684_d735_9a75,
            0xf699_7bb5_1ecb_a42f,
            0xbc2a_215a_ae79_79a7,
            0x74ac_f98c_ffd4_af9b,
            0xc81a_b784_bcfe_eee9,
            0x89de_ec69_e54f_8e78,
        ],
        "inception sampler moved"
    );
}

#[test]
fn resnet_sampler_is_pinned() {
    assert_eq!(
        sampler_digests(|| classification("resnet")),
        [
            0xd706_e412_ebb2_c24e,
            0x83ec_adc6_3b1c_28a6,
            0xaefb_9ffb_6eca_f774,
            0x54ba_4c9c_3394_c7f1,
            0xc9df_57ed_042f_41f7,
            0x5f26_db8e_dcd2_bf12,
            0x0217_36c2_a5b0_4e61,
            0xb699_10d1_e3be_7fcb,
        ],
        "resnet sampler moved"
    );
}

#[test]
fn mobilenet_sampler_is_pinned() {
    assert_eq!(
        sampler_digests(|| classification("mobilenet")),
        [
            0x41c7_6479_a9f5_5367,
            0x5d1b_6a79_0096_dd85,
            0x6e12_c062_2bcc_6105,
            0x83bd_7390_4df1_b80e,
            0x65aa_67d5_eca1_8d5d,
            0xb2e3_b0e3_efd2_76f2,
            0xf95c_a007_f069_70fb,
            0x6b9c_c562_de42_3234,
        ],
        "mobilenet sampler moved"
    );
}

#[test]
fn yolo_sampler_is_pinned() {
    assert_eq!(
        sampler_digests(|| yolo_workload(42)),
        [
            0xe608_81b5_044f_fa15,
            0xfa26_f04b_1a91_86bf,
            0x1cab_db17_5220_f3d7,
            0xbb0e_5be2_3cfa_1076,
            0x8c47_6655_728a_a9d7,
            0x1b87_da5c_fe88_e4ff,
            0x2ab0_d331_8bd1_ce5e,
            0xdc95_036d_1c59_7836,
        ],
        "yolo sampler moved"
    );
}

#[test]
fn transformer_sampler_is_pinned() {
    assert_eq!(
        sampler_digests(|| transformer_workload(42)),
        [
            0x53bd_2b9c_6459_e36d,
            0xf4d1_2996_64f8_5268,
            0xdf14_1e93_e937_dd02,
            0x39aa_0987_7255_ace1,
            0x1d16_bb45_27b2_8b55,
            0x6113_3e7d_c544_944a,
            0x266f_cb1c_c7ec_4ef4,
            0x62f3_92a3_1864_8620,
        ],
        "transformer sampler moved"
    );
}

#[test]
fn lstm_sampler_is_pinned() {
    assert_eq!(
        sampler_digests(|| lstm_workload(42)),
        [
            0xa6fa_2472_e25d_2947,
            0x2f4c_24a2_5cdd_4072,
            0x242d_1acb_9fa2_00e4,
            0x12a5_999c_b0ff_4b56,
            0x6cc5_a940_7194_fd0a,
            0x18c8_46cf_c8eb_2741,
            0xa6fa_2472_e25d_2947,
            0x2f4c_24a2_5cdd_4072,
        ],
        "lstm sampler moved"
    );
}
