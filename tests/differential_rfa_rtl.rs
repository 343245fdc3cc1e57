//! Differential sweep: the Table-II software fault-model recipes vs. the
//! register-level golden engines, for every FF category × MAC kind ×
//! shipped accelerator preset.
//!
//! Seeds come from a committed golden corpus
//! (`tests/golden/differential_seeds.txt`), so the exact fault sites the
//! sweep validates are reproducible across machines and releases. Each seed
//! derives the layer tensors, a uniform fault-site sample over the engine's
//! FF inventory, and a targeted top-up per FF category (so rare categories
//! are exercised even when they are a small slice of the inventory). A
//! deterministic all-cycle sweep of one write-valid bit guarantees the
//! local-control writeback window is hit regardless of the random draw.
//!
//! The NVDLA-family presets run all three MAC kinds (Conv, Dense, MatMul)
//! on the broadcast engine. The Eyeriss-like preset runs Conv on the
//! systolic engine — its row-stationary mapping is defined over conv output
//! rows, a constructor precondition of `SystolicEngine`, so the NVDLA
//! family carries the Dense/MatMul columns of the kind matrix.
//!
//! The corpus also drives the batched-runner sweep: for every seed, the
//! grouped delta-evaluation path (`BatchedInjectionRunner`) must reproduce
//! the serial pooled oracle bit for bit; a mismatch names the group, the
//! cell, and the first divergent byte of the canonical injection record.

use std::collections::HashSet;

use fidelity::accel::arch::{AcceleratorConfig, DataflowKind};
use fidelity::accel::ff::FfCategory;
use fidelity::accel::presets;
use fidelity::core::batch::BatchedInjectionRunner;
use fidelity::core::inject::{inject_once_pooled, Injection};
use fidelity::core::models::model_for;
use fidelity::core::outcome::TopOneMatch;
use fidelity::core::validate::{random_sites, validate_many, ValidationReport};
use fidelity::core::validate_systolic::{random_systolic_sites, validate_systolic_many};
use fidelity::dnn::graph::{golden_key, Engine, NetworkBuilder, Trace};
use fidelity::dnn::init::{uniform_tensor, SplitMix64};
use fidelity::dnn::layers::{
    Activation, ActivationKind, Add, Conv2d, Dense, Flatten, GlobalAvgPool, LayerNorm, MatMul,
    Scale, Softmax,
};
use fidelity::dnn::macspec::{ConvSpec, DenseSpec, MacSpec, MatMulSpec};
use fidelity::dnn::precision::{Precision, ValueCodec};
use fidelity::dnn::workspace::Workspace;
use fidelity::rtl::{FaultSite, FfId, RtlEngine, RtlLayer, SysFaultSite, SysFfId, SystolicEngine};

const GOLDEN_SEEDS: &str = include_str!("golden/differential_seeds.txt");

/// Uniform sites per seed (on top of the per-category targeted top-up).
const UNIFORM_SITES: usize = 30;
/// Targeted sites per distinct FF category per seed.
const TARGETED_SITES: usize = 12;

fn golden_seeds() -> Vec<u64> {
    GOLDEN_SEEDS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().unwrap_or_else(|_| panic!("bad seed line {l:?}")))
        .collect()
}

/// The three MAC families of Table II.
#[derive(Clone, Copy, Debug)]
enum MacKind {
    Conv,
    Dense,
    MatMul,
}

impl MacKind {
    const ALL: [MacKind; 3] = [MacKind::Conv, MacKind::Dense, MacKind::MatMul];

    fn name(self) -> &'static str {
        match self {
            MacKind::Conv => "conv",
            MacKind::Dense => "dense",
            MacKind::MatMul => "matmul",
        }
    }

    /// Builds a small seeded layer of this kind at Fp16.
    fn layer(self, seed: u64) -> RtlLayer {
        let codec = ValueCodec::float(Precision::Fp16);
        let (spec, in_shape, w_shape) = match self {
            MacKind::Conv => (
                MacSpec::Conv(ConvSpec {
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
                }),
                vec![1, 2, 5, 5],
                vec![6, 2, 3, 3],
            ),
            MacKind::Dense => (
                MacSpec::Dense(DenseSpec {
                    batch: 2,
                    in_features: 6,
                    out_features: 5,
                }),
                vec![2, 6],
                vec![5, 6],
            ),
            MacKind::MatMul => (
                MacSpec::MatMul(MatMulSpec {
                    batch: 1,
                    m: 4,
                    k: 5,
                    n: 6,
                    transpose_b: false,
                }),
                vec![4, 5],
                vec![5, 6],
            ),
        };
        let input = uniform_tensor(seed, in_shape, 1.0).map(|v| codec.quantize(v));
        let weight = uniform_tensor(seed ^ 0xC0FFEE, w_shape, 0.5).map(|v| codec.quantize(v));
        RtlLayer::new(spec, input, weight, codec, codec, codec).unwrap()
    }
}

/// Every claim the differential sweep makes about one preset × kind cell.
fn assert_agreement(
    preset: &str,
    kind: &str,
    report: &ValidationReport,
    expected: &HashSet<FfCategory>,
    covered: &HashSet<FfCategory>,
) {
    let tag = format!("{preset}/{kind}");
    assert!(
        report.mismatches.is_empty(),
        "{tag}: software recipe disagrees with RTL: {:#?}",
        &report.mismatches[..report.mismatches.len().min(5)]
    );
    assert!(report.total > 0, "{tag}: empty sweep");
    assert!(report.datapath_cases > 0, "{tag}: no datapath cases hit");
    assert_eq!(
        report.datapath_exact, report.datapath_cases,
        "{tag}: datapath predictions must match bit-exactly"
    );
    assert!(report.local_cases > 0, "{tag}: no local-control cases hit");
    assert_eq!(
        report.local_match, report.local_cases,
        "{tag}: local-control predictions must identify the RTL neuron"
    );
    assert!(
        report.global_cases > 0,
        "{tag}: no global-control cases hit"
    );
    assert!(
        report.global_failure > 0,
        "{tag}: no global-control fault produced an RTL failure"
    );
    assert_eq!(
        report.global_failure + report.global_masked,
        report.global_cases,
        "{tag}: global cases must split failure/masked"
    );
    for cat in expected {
        assert!(
            covered.contains(cat),
            "{tag}: inventory category {cat:?} never sampled"
        );
    }
}

fn nvdla_geometry(cfg: &AcceleratorConfig) -> (usize, usize) {
    match &cfg.dataflow {
        DataflowKind::Nvdla(d) => (d.lanes, d.weight_hold),
        DataflowKind::Eyeriss(_) => panic!("expected an NVDLA-like preset"),
    }
}

/// Runs the full differential sweep for one NVDLA-family preset and one MAC
/// kind: golden-seeded uniform + per-category targeted sites, then the
/// deterministic write-valid cycle sweep.
fn sweep_nvdla(cfg: &AcceleratorConfig, kind: MacKind) {
    let (lanes, hold) = nvdla_geometry(cfg);
    let mut report = ValidationReport::default();
    let mut expected: HashSet<FfCategory> = HashSet::new();
    let mut covered: HashSet<FfCategory> = HashSet::new();
    for &seed in &golden_seeds() {
        let engine = RtlEngine::new(kind.layer(seed), lanes, hold);
        let mut rng = SplitMix64::new(seed);
        let mut sites = random_sites(&engine, UNIFORM_SITES, &mut rng);
        let inventory = engine.inventory();
        expected.extend(inventory.iter().map(|(ff, _)| ff.category()));
        let mut cats: Vec<FfCategory> = Vec::new();
        for (ff, _) in &inventory {
            let c = ff.category();
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        for cat in cats {
            let pool: Vec<(FfId, u32)> = inventory
                .iter()
                .copied()
                .filter(|(ff, _)| ff.category() == cat)
                .collect();
            for _ in 0..TARGETED_SITES {
                let (ff, width) = pool[rng.next_below(pool.len() as u64) as usize];
                sites.push(FaultSite {
                    ff,
                    bit: rng.next_below(u64::from(width)) as u32,
                    cycle: rng.next_below(engine.clean_cycles()),
                });
            }
        }
        covered.extend(sites.iter().map(|s| s.ff.category()));
        report.merge(&validate_many(&engine, &sites));
    }
    let engine = RtlEngine::new(kind.layer(golden_seeds()[0]), lanes, hold);
    let sweep: Vec<FaultSite> = (0..engine.clean_cycles())
        .map(|cycle| FaultSite {
            ff: FfId::OutputValid { lane: 0 },
            bit: 0,
            cycle,
        })
        .collect();
    report.merge(&validate_many(&engine, &sweep));
    assert_agreement(&cfg.name, kind.name(), &report, &expected, &covered);
}

/// The Eyeriss-like sweep: Conv on the systolic golden reference.
fn sweep_eyeriss(cfg: &AcceleratorConfig) {
    let (k, t) = match &cfg.dataflow {
        DataflowKind::Eyeriss(d) => (d.k, d.channel_reuse),
        DataflowKind::Nvdla(_) => panic!("expected the Eyeriss-like preset"),
    };
    let mut report = ValidationReport::default();
    let mut expected: HashSet<FfCategory> = HashSet::new();
    let mut covered: HashSet<FfCategory> = HashSet::new();
    for &seed in &golden_seeds() {
        let engine = SystolicEngine::new(MacKind::Conv.layer(seed), k, t);
        let mut rng = SplitMix64::new(seed);
        let mut sites = random_systolic_sites(&engine, UNIFORM_SITES, &mut rng);
        let inventory = engine.inventory();
        expected.extend(inventory.iter().map(|(ff, _)| ff.category()));
        let mut cats: Vec<FfCategory> = Vec::new();
        for (ff, _) in &inventory {
            let c = ff.category();
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        for cat in cats {
            let pool: Vec<(SysFfId, u32)> = inventory
                .iter()
                .copied()
                .filter(|(ff, _)| ff.category() == cat)
                .collect();
            for _ in 0..TARGETED_SITES {
                let (ff, width) = pool[rng.next_below(pool.len() as u64) as usize];
                sites.push(SysFaultSite {
                    ff,
                    bit: rng.next_below(u64::from(width)) as u32,
                    cycle: rng.next_below(engine.clean_cycles()),
                });
            }
        }
        covered.extend(sites.iter().map(|s| s.ff.category()));
        report.merge(&validate_systolic_many(&engine, &sites));
    }
    let engine = SystolicEngine::new(MacKind::Conv.layer(golden_seeds()[0]), k, t);
    let sweep: Vec<SysFaultSite> = (0..engine.clean_cycles())
        .map(|cycle| SysFaultSite {
            ff: SysFfId::OutputValid { pe: 0 },
            bit: 0,
            cycle,
        })
        .collect();
    report.merge(&validate_systolic_many(&engine, &sweep));
    assert_agreement(&cfg.name, "conv", &report, &expected, &covered);
}

#[test]
fn golden_corpus_is_well_formed() {
    let seeds = golden_seeds();
    assert!(seeds.len() >= 4, "corpus too small: {seeds:?}");
    let unique: HashSet<u64> = seeds.iter().copied().collect();
    assert_eq!(unique.len(), seeds.len(), "duplicate seeds: {seeds:?}");
}

#[test]
fn every_shipped_preset_is_swept() {
    let names: Vec<String> = presets::all().into_iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        [
            "nvdla-like",
            "nvdla-small-like",
            "nvdla-large-like",
            "eyeriss-like"
        ],
        "a preset was added or renamed: extend the differential sweep"
    );
}

#[test]
fn nvdla_like_agrees_on_all_kinds() {
    let cfg = presets::nvdla_like();
    for kind in MacKind::ALL {
        sweep_nvdla(&cfg, kind);
    }
}

#[test]
fn nvdla_small_like_agrees_on_all_kinds() {
    let cfg = presets::nvdla_small_like();
    for kind in MacKind::ALL {
        sweep_nvdla(&cfg, kind);
    }
}

#[test]
fn nvdla_large_like_agrees_on_all_kinds() {
    let cfg = presets::nvdla_large_like();
    for kind in MacKind::ALL {
        sweep_nvdla(&cfg, kind);
    }
}

#[test]
fn eyeriss_like_agrees_on_conv() {
    sweep_eyeriss(&presets::eyeriss_like());
}

/// A small seeded conv classifier and two traces on different inputs — two
/// golden-key groups for the batched sweep.
fn seeded_engine_with_traces(seed: u64) -> (Engine, Vec<Trace>) {
    let net = NetworkBuilder::new("diff_clf")
        .input("x")
        .layer(
            Conv2d::new("conv", uniform_tensor(seed, vec![4, 2, 3, 3], 0.6))
                .unwrap()
                .with_padding(1, 1),
            &["x"],
        )
        .unwrap()
        .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
        .unwrap()
        .layer(GlobalAvgPool::new("gap"), &["relu"])
        .unwrap()
        .layer(Flatten::new("flat"), &["gap"])
        .unwrap()
        .layer(
            Dense::new("fc", uniform_tensor(seed ^ 1, vec![5, 4], 0.6)).unwrap(),
            &["flat"],
        )
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
    let traces = [seed ^ 2, seed ^ 3]
        .iter()
        .map(|&s| {
            engine
                .trace(&[uniform_tensor(s, vec![1, 2, 6, 6], 1.0)])
                .unwrap()
        })
        .collect();
    (engine, traces)
}

/// A small seeded attention engine over `[tokens, features]` rows — Q/K/V
/// projections, `Q·Kᵀ`, scale, softmax, `·V`, output projection, residual
/// and layer norm — and two traces on different token embeddings: the
/// rank-2 sites of the batched sweep.
fn seeded_attention_with_traces(seed: u64) -> (Engine, Vec<Trace>) {
    let (tokens, d) = (5, 8);
    let proj = |name: &str, s: u64| Dense::new(name, uniform_tensor(s, vec![d, d], 0.6)).unwrap();
    let net = NetworkBuilder::new("diff_attn")
        .input("x")
        .layer(proj("q", seed ^ 4), &["x"])
        .unwrap()
        .layer(proj("k", seed ^ 5), &["x"])
        .unwrap()
        .layer(proj("v", seed ^ 6), &["x"])
        .unwrap()
        .layer(MatMul::transposed("scores"), &["q", "k"])
        .unwrap()
        .layer(Scale::new("scaled", 0.35), &["scores"])
        .unwrap()
        .layer(Softmax::new("attn"), &["scaled"])
        .unwrap()
        .layer(MatMul::new("ctx"), &["attn", "v"])
        .unwrap()
        .layer(proj("out", seed ^ 7), &["ctx"])
        .unwrap()
        .layer(Add::new("res"), &["out", "x"])
        .unwrap()
        .layer(
            LayerNorm::new(
                "ln",
                uniform_tensor(seed ^ 8, vec![d], 0.1).map(|v| 1.0 + v),
                uniform_tensor(seed ^ 9, vec![d], 0.1),
            )
            .unwrap(),
            &["res"],
        )
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
    let traces = [seed ^ 10, seed ^ 11]
        .iter()
        .map(|&s| {
            engine
                .trace(&[uniform_tensor(s, vec![tokens, d], 1.0)])
                .unwrap()
        })
        .collect();
    (engine, traces)
}

/// Canonical byte record of one injection outcome — the unit the batched
/// sweep's "first divergent byte" diagnostics are stated in.
fn injection_record(inj: &Injection) -> Vec<u8> {
    let mut b = Vec::with_capacity(14);
    b.push(inj.outcome as u8);
    b.extend((inj.faulty_neurons as u64).to_le_bytes());
    b.extend(inj.max_perturbation.to_bits().to_le_bytes());
    b.push(u8::from(inj.watchdog));
    b
}

/// Batched fault-cone sweep over the golden corpus: for every seed, every
/// census category with a software model, and several batch sizes (any
/// value above 0 runs the same delta walk), injections driven through
/// `BatchedInjectionRunner` (alternating between two trace groups) must be
/// byte-identical to the serial pooled oracle on a fresh workspace — at the
/// conv classifier's first node, and at every MAC node of the attention
/// engine, whose cones walk rank-2 token-row windows. A mismatch names the
/// group (golden key), the cell (node, category, sample), and the first
/// divergent byte of the canonical record.
#[test]
fn batched_runner_matches_serial_oracle_over_corpus() {
    for &seed in &golden_seeds() {
        let (engine, traces) = seeded_engine_with_traces(seed);
        assert_batched_matches_serial(seed, &engine, &traces, &[0]);
        let (engine, traces) = seeded_attention_with_traces(seed);
        let mac_nodes: Vec<usize> = (0..engine.network().node_count())
            .filter(|&i| engine.network().layer(i).kind().is_mac())
            .collect();
        assert_eq!(mac_nodes.len(), 6, "q, k, v, scores, ctx, out");
        assert_batched_matches_serial(seed, &engine, &traces, &mac_nodes);
    }
}

/// The batched sweep of one engine and its trace groups at `nodes`.
fn assert_batched_matches_serial(seed: u64, engine: &Engine, traces: &[Trace], nodes: &[usize]) {
    const SAMPLES: usize = 8;
    let cfg = presets::nvdla_like();
    let keys: Vec<u64> = traces.iter().map(golden_key).collect();
    // Any nonzero batch runs the same delta walk; 16 is the value the
    // benchmark and CI run.
    let batch = 16;
    let mut runner = BatchedInjectionRunner::new(batch);
    let mut oracle_ws = Workspace::new();
    for &node in nodes {
        for (category, _) in cfg.census.iter() {
            let Some(model) = model_for(category, &cfg) else {
                continue;
            };
            for (group, trace) in traces.iter().enumerate() {
                // Both sides consume an identical RNG stream.
                let mut rng_b = SplitMix64::new(seed ^ (group as u64) << 8);
                let mut rng_s = SplitMix64::new(seed ^ (group as u64) << 8);
                for sample in 0..SAMPLES {
                    let batched = runner
                        .run(engine, trace, node, model, &TopOneMatch, &mut rng_b, None)
                        .unwrap();
                    let serial = inject_once_pooled(
                        engine,
                        trace,
                        node,
                        model,
                        &TopOneMatch,
                        &mut rng_s,
                        None,
                        &mut oracle_ws,
                    )
                    .unwrap();
                    let (rb, rs) = (injection_record(&batched), injection_record(&serial));
                    if rb != rs {
                        let byte = rb
                            .iter()
                            .zip(&rs)
                            .position(|(a, b)| a != b)
                            .unwrap_or_else(|| rb.len().min(rs.len()));
                        panic!(
                            "batched sweep mismatch: seed {seed}, batch {batch}, \
                             group {group} (golden key {:#018x}), cell (node {node}, \
                             category {category:?}, sample {sample}): first divergent \
                             byte at offset {byte} (batched {:#04x} vs serial {:#04x})",
                            keys[group],
                            rb.get(byte).copied().unwrap_or(0),
                            rs.get(byte).copied().unwrap_or(0),
                        );
                    }
                }
            }
        }
    }
    let stats = runner.stats();
    assert_eq!(
        stats.delta_eligible, stats.injections,
        "seed {seed} batch {batch}: every injection should take the delta path"
    );
    assert!(
        stats.groups >= 2,
        "seed {seed} batch {batch}: alternating traces must form >= 2 groups"
    );
}
