//! Property tests for the batched fault-cone evaluation path: for random
//! small campaigns over mixed layer kinds and accelerator presets, a
//! batched run (golden snapshot amortized across samples, injections
//! evaluated as deltas over the downstream cone) must be observably
//! indistinguishable from the unbatched serial run — per-cell outcomes,
//! masking-probability bits, and checkpoint bytes — at every batch size and
//! worker count, including under injected cell panics and after a
//! mid-campaign kill/resume.
//!
//! This is the "policy, not identity" contract of `CampaignSpec::batch`:
//! batching may only change how fast an answer arrives, never which answer.

use std::path::PathBuf;

use fidelity::accel::ff::FfCategory;
use fidelity::accel::presets;
use fidelity::accel::AcceleratorConfig;
use fidelity::core::campaign::{run_campaign, CampaignResult, CampaignSpec, CellStats};
use fidelity::core::outcome::TopOneMatch;
use fidelity::core::resilience::{ChaosMode, ChaosSpec, CheckpointSpec, ResilienceSpec};
use fidelity::dnn::graph::{Engine, NetworkBuilder, Trace};
use fidelity::dnn::init::uniform_tensor;
use fidelity::dnn::layers::{
    Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalAvgPool, Pool2d, PoolKind,
};
use fidelity::dnn::precision::Precision;
use proptest::prelude::*;

/// The batch size every property is checked at. Any value above 0 runs the
/// same delta walk (the runner checks the golden snapshot before every
/// sample), so one nonzero value covers them all; 16 is the value the
/// benchmark and CI run.
const BATCH: usize = 16;

/// Worker counts every batched variant runs at.
const JOBS: [usize; 2] = [1, 4];

/// The preset pool the properties draw from.
fn preset(idx: usize) -> AcceleratorConfig {
    match idx % 3 {
        0 => presets::nvdla_like(),
        1 => presets::nvdla_small_like(),
        _ => presets::eyeriss_like(),
    }
}

/// A conv trunk with pool, concat-free spatial windows, and a dense head:
/// exercises the windowed delta path end to end.
fn conv_engine(weight_seed: u64) -> (Engine, Trace) {
    let net = NetworkBuilder::new("conv_clf")
        .input("x")
        .layer(
            Conv2d::new("conv", uniform_tensor(weight_seed, vec![4, 2, 3, 3], 0.6))
                .unwrap()
                .with_padding(1, 1),
            &["x"],
        )
        .unwrap()
        .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
        .unwrap()
        .layer(
            Pool2d::new("pool", PoolKind::Max, 2).with_stride(2),
            &["relu"],
        )
        .unwrap()
        .layer(GlobalAvgPool::new("gap"), &["pool"])
        .unwrap()
        .layer(Flatten::new("flat"), &["gap"])
        .unwrap()
        .layer(
            Dense::new("fc", uniform_tensor(weight_seed ^ 1, vec![5, 4], 0.6)).unwrap(),
            &["flat"],
        )
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
    let x = uniform_tensor(weight_seed ^ 2, vec![1, 2, 6, 6], 1.0);
    let trace = engine.trace(&[x]).unwrap();
    (engine, trace)
}

/// A dense-only stack: no spatial structure anywhere, so every delta walk
/// falls back to full node recomputes — the degenerate-window path.
fn dense_engine(weight_seed: u64) -> (Engine, Trace) {
    let net = NetworkBuilder::new("dense_clf")
        .input("x")
        .layer(
            Dense::new("fc0", uniform_tensor(weight_seed, vec![6, 8], 0.5)).unwrap(),
            &["x"],
        )
        .unwrap()
        .layer(Activation::new("relu", ActivationKind::Relu), &["fc0"])
        .unwrap()
        .layer(
            Dense::new("fc1", uniform_tensor(weight_seed ^ 1, vec![4, 6], 0.5)).unwrap(),
            &["relu"],
        )
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
    let x = uniform_tensor(weight_seed ^ 2, vec![1, 8], 1.0);
    let trace = engine.trace(&[x]).unwrap();
    (engine, trace)
}

fn engine_for(kind: usize, weight_seed: u64) -> (Engine, Trace) {
    if kind.is_multiple_of(2) {
        conv_engine(weight_seed)
    } else {
        dense_engine(weight_seed)
    }
}

/// A per-test scratch path that is removed on drop, pass or fail.
struct ScratchCkpt(PathBuf);

impl ScratchCkpt {
    fn new(tag: &str) -> Self {
        ScratchCkpt(std::env::temp_dir().join(format!(
            "fidelity_batched_{tag}_{}.ckpt",
            std::process::id()
        )))
    }
}

impl Drop for ScratchCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Everything observable about a cell, floats as exact bit patterns.
fn cell_key(c: &CellStats) -> String {
    let events: Vec<String> = c
        .events
        .iter()
        .map(|e| {
            format!(
                "{}:{:08x}:{:?}",
                e.faulty_neurons,
                e.max_perturbation.to_bits(),
                e.outcome
            )
        })
        .collect();
    format!(
        "{} {} {:?} {:?} s={} m={} oe={} an={} p={} ev={}",
        c.node,
        c.layer,
        c.category,
        c.model,
        c.samples,
        c.masked,
        c.output_error,
        c.anomaly,
        c.prob_swmask().to_bits(),
        events.join(",")
    )
}

/// The full observable surface of a campaign result, in order.
fn result_key(r: &CampaignResult) -> Vec<String> {
    let mut keys: Vec<String> = r.cells.iter().map(cell_key).collect();
    keys.extend(r.failures.iter().map(|f| {
        format!(
            "FAIL {} {} {:?} attempts={} samples={} reason={}",
            f.node, f.layer, f.category, f.attempts, f.samples_completed, f.reason
        )
    }));
    keys
}

/// Runs a spec variant with its own checkpoint file and returns
/// (result surface, checkpoint bytes).
fn run_variant(
    engine: &Engine,
    trace: &Trace,
    cfg: &AcceleratorConfig,
    spec: &CampaignSpec,
    batch: usize,
    jobs: usize,
    tag: &str,
) -> (Vec<String>, Vec<u8>) {
    let ckpt = ScratchCkpt::new(&format!("{tag}_b{batch}_j{jobs}"));
    let mut spec = spec.clone();
    spec.batch = batch;
    spec.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    let result = run_campaign(
        engine,
        trace,
        cfg,
        &TopOneMatch,
        &CampaignSpec {
            threads: jobs,
            ..spec
        },
    )
    .unwrap();
    let bytes = std::fs::read(&ckpt.0).unwrap();
    (result_key(&result), bytes)
}

/// First and last non-global cells of a clean run — chaos victims.
fn victims(
    engine: &Engine,
    trace: &Trace,
    cfg: &AcceleratorConfig,
    spec: &CampaignSpec,
) -> Vec<(usize, FfCategory)> {
    let clean = run_campaign(engine, trace, cfg, &TopOneMatch, spec).unwrap();
    let non_global: Vec<(usize, FfCategory)> = clean
        .cells
        .iter()
        .filter(|c| c.category != FfCategory::GlobalControl)
        .map(|c| (c.node, c.category))
        .collect();
    vec![non_global[0], *non_global.last().unwrap()]
}

fn base_spec(seed: u64, samples: usize, record_events: bool) -> CampaignSpec {
    CampaignSpec {
        samples_per_cell: samples,
        seed,
        threads: 1,
        record_events,
        resilience: ResilienceSpec::default(),
        progress: None,
        batch: 0,
        adaptive: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (batch, jobs) combination reproduces the unbatched serial
    /// run's full observable surface — outcomes, masking-probability bits,
    /// checkpoint bytes — over both layer-kind mixes and every preset.
    #[test]
    fn batched_campaigns_match_unbatched_serial(
        seed in 0u64..10_000,
        weight_seed in 1u64..50,
        samples in 5usize..20,
        net_kind in 0usize..2,
        preset_idx in 0usize..3,
        record_events in prop_oneof![Just(false), Just(true)],
    ) {
        let (engine, trace) = engine_for(net_kind, weight_seed);
        let cfg = preset(preset_idx);
        let spec = base_spec(seed, samples, record_events);
        let (serial_key, serial_bytes) =
            run_variant(&engine, &trace, &cfg, &spec, 0, 1, "clean");
        for &jobs in &JOBS {
            let (key, bytes) = run_variant(&engine, &trace, &cfg, &spec, BATCH, jobs, "clean");
            prop_assert_eq!(&key, &serial_key, "results diverge at jobs={}", jobs);
            prop_assert_eq!(&bytes, &serial_bytes, "checkpoint bytes diverge at jobs={}", jobs);
        }
    }

    /// Injected cell panics (which retry the cell and can drop the loaned
    /// golden overlay mid-walk) leave the batched runs byte-identical to
    /// the unbatched serial run: re-installing the overlay only restores
    /// state, it never consumes RNG or changes outcomes.
    #[test]
    fn batched_panicking_cells_match_unbatched_serial(
        seed in 0u64..10_000,
        samples in 5usize..15,
        panic_at in 0usize..5,
        net_kind in 0usize..2,
    ) {
        let (engine, trace) = engine_for(net_kind, 7);
        let cfg = presets::nvdla_like();
        let mut spec = base_spec(seed, samples, true);
        spec.resilience.chaos = victims(&engine, &trace, &cfg, &spec)
            .into_iter()
            .map(|(node, category)| ChaosSpec {
                node,
                category,
                mode: ChaosMode::PanicAtSample(panic_at),
            })
            .collect();
        spec.resilience.max_retries_per_cell = 1;
        spec.resilience.failure_budget = 4;
        let (serial_key, serial_bytes) =
            run_variant(&engine, &trace, &cfg, &spec, 0, 1, "chaos");
        prop_assert_eq!(serial_key.iter().filter(|k| k.starts_with("FAIL")).count(), 2);
        for &jobs in &JOBS {
            let (key, bytes) = run_variant(&engine, &trace, &cfg, &spec, BATCH, jobs, "chaos");
            prop_assert_eq!(&key, &serial_key, "results diverge at jobs={}", jobs);
            prop_assert_eq!(&bytes, &serial_bytes, "checkpoint bytes diverge at jobs={}", jobs);
        }
    }

    /// Kill/resume across batch boundaries: a batched campaign aborted
    /// mid-batch leaves a partial checkpoint whose records are each
    /// byte-identical to the unbatched serial reference, and resuming it —
    /// at any batch size and worker count, not necessarily the one that
    /// wrote it — completes to the full serial result.
    #[test]
    fn batched_kill_then_resume_matches_unbatched_serial(
        seed in 0u64..10_000,
        samples in 5usize..15,
        resume_batch in prop_oneof![Just(0usize), Just(BATCH)],
        resume_jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (engine, trace) = conv_engine(11);
        let cfg = presets::nvdla_like();
        let clean = base_spec(seed, samples, true);
        let (reference_key, reference_bytes) =
            run_variant(&engine, &trace, &cfg, &clean, 0, 1, "ref");

        // Kill a batched run mid-campaign: chaos panics the last non-global
        // cell with a zero failure budget.
        let killed_ckpt = ScratchCkpt::new("kill");
        let mut killed = clean.clone();
        killed.batch = BATCH;
        killed.resilience.failure_budget = 0;
        killed.resilience.max_retries_per_cell = 0;
        killed.resilience.checkpoint = Some(CheckpointSpec::new(&killed_ckpt.0));
        let victim = *victims(&engine, &trace, &cfg, &clean).last().unwrap();
        killed.resilience.chaos = vec![ChaosSpec {
            node: victim.0,
            category: victim.1,
            mode: ChaosMode::PanicAtSample(2),
        }];
        let err = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &CampaignSpec { threads: 1, ..killed })
            .unwrap_err();
        prop_assert!(err.to_string().contains("failure budget exhausted"));
        let killed_bytes = std::fs::read(&killed_ckpt.0).unwrap();
        prop_assert!(
            reference_bytes.starts_with(&killed_bytes),
            "batched serially-interrupted checkpoint is not a prefix of the serial file"
        );

        // Resume the partial checkpoint under a different batch policy.
        let resume_ckpt = ScratchCkpt::new(&format!("resume_{resume_batch}"));
        std::fs::write(&resume_ckpt.0, &killed_bytes).unwrap();
        let mut resuming = clean.clone();
        resuming.batch = resume_batch;
        resuming.resilience.checkpoint = Some(CheckpointSpec::resuming(&resume_ckpt.0));
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &CampaignSpec { threads: resume_jobs, ..resuming })
            .unwrap();
        prop_assert_eq!(
            result_key(&result),
            reference_key,
            "resume diverges at batch={} jobs={}", resume_batch, resume_jobs
        );
        let final_bytes = std::fs::read(&resume_ckpt.0).unwrap();
        prop_assert_eq!(
            &final_bytes,
            &reference_bytes,
            "resumed checkpoint bytes diverge at batch={} jobs={}", resume_batch, resume_jobs
        );
    }
}
