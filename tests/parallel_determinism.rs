//! Property tests for the parallel campaign engine: for random small
//! campaigns, per-cell outcomes, masking probabilities, and checkpoint bytes
//! must be identical to the serial run for every worker count — including
//! under injected cell panics and after a mid-campaign kill/resume.
//!
//! This is the determinism contract of the campaign executor at any
//! `spec.threads`: every cell derives its RNG stream from `(campaign seed,
//! cell id)` alone, shared accounting is commutative, and checkpoint rows
//! pass through the ordered commit buffer. Nothing observable may depend on
//! scheduling.

use std::path::PathBuf;

use fidelity::accel::ff::FfCategory;
use fidelity::accel::presets;
use fidelity::core::adaptive::AdaptivePlan;
use fidelity::core::campaign::{run_campaign, CampaignResult, CampaignSpec, CellStats};
use fidelity::core::outcome::TopOneMatch;
use fidelity::core::resilience::{ChaosMode, ChaosSpec, CheckpointSpec, ResilienceSpec};
use fidelity::dnn::graph::{Engine, NetworkBuilder, Trace};
use fidelity::dnn::init::uniform_tensor;
use fidelity::dnn::layers::{Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalAvgPool};
use fidelity::dnn::precision::Precision;
use proptest::prelude::*;

/// Worker counts every property is checked against (serial first). The CI
/// matrix appends an extra count via `FIDELITY_JOBS`.
fn job_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 3, 8];
    if let Some(extra) = std::env::var("FIDELITY_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn tiny_engine(weight_seed: u64) -> (Engine, Trace) {
    let net = NetworkBuilder::new("clf")
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
        .layer(GlobalAvgPool::new("gap"), &["relu"])
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

/// A per-test scratch path that is removed on drop, pass or fail.
struct ScratchCkpt(PathBuf);

impl ScratchCkpt {
    fn new(tag: &str) -> Self {
        ScratchCkpt(
            std::env::temp_dir().join(format!("fidelity_pardet_{tag}_{}.ckpt", std::process::id())),
        )
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

/// The full observable surface of a campaign result: every cell (including
/// masking probability bits) plus every failure, in order.
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

/// Runs the same spec at a given job count with its own checkpoint file and
/// returns (result surface, checkpoint bytes).
fn run_at(
    engine: &Engine,
    trace: &Trace,
    spec: &CampaignSpec,
    jobs: usize,
    tag: &str,
) -> (Vec<String>, Vec<u8>) {
    let cfg = presets::nvdla_like();
    let ckpt = ScratchCkpt::new(&format!("{tag}_{jobs}"));
    let mut spec = spec.clone();
    spec.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    let result = run_campaign(
        engine,
        trace,
        &cfg,
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

/// The checkpoint's records as `(plan index, canonical serialized record)`,
/// in file order — the unit the ordered-commit guarantees are stated in.
fn records(bytes: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let parsed = fidelity::core::resilience::parse_checkpoint(std::io::BufReader::new(bytes))
        .expect("checkpoint must parse");
    parsed
        .cells
        .into_iter()
        .map(|(idx, stats)| {
            let row = fidelity::core::resilience::StratumRow {
                samples: stats.samples,
                masked: stats.masked,
                output_error: stats.output_error,
                anomaly: stats.anomaly,
                rng_state: 0,
                events: stats.events,
            };
            let mut buf = Vec::new();
            fidelity::core::resilience::write_row(&mut buf, idx, &row).unwrap();
            (idx, buf)
        })
        .collect()
}

/// First and last non-global cells of a clean run — chaos victims (global
/// cells never enter the injection loop, so chaos cannot fire there).
fn victims(engine: &Engine, trace: &Trace, spec: &CampaignSpec) -> Vec<(usize, FfCategory)> {
    let cfg = presets::nvdla_like();
    let clean = run_campaign(engine, trace, &cfg, &TopOneMatch, spec).unwrap();
    let non_global: Vec<(usize, FfCategory)> = clean
        .cells
        .iter()
        .filter(|c| c.category != FfCategory::GlobalControl)
        .map(|c| (c.node, c.category))
        .collect();
    vec![non_global[0], *non_global.last().unwrap()]
}

/// A small adaptive plan for the tiny engine: the injection ceiling keeps
/// test runs fast whether or not the bound converges first.
fn adaptive_spec(seed: u64, batch: usize) -> CampaignSpec {
    CampaignSpec {
        samples_per_cell: 10, // ignored in adaptive mode
        seed,
        threads: 1,
        record_events: false,
        resilience: ResilienceSpec::default(),
        progress: None,
        batch,
        adaptive: Some(AdaptivePlan {
            epsilon: 0.002,
            confidence: 0.95,
            max_injections: 2_000,
        }),
    }
}

/// Runs an adaptive spec at a job count and returns (result surface,
/// certificate canonical bytes, checkpoint bytes).
fn run_adaptive_at(
    engine: &Engine,
    trace: &Trace,
    spec: &CampaignSpec,
    jobs: usize,
    tag: &str,
) -> (Vec<String>, Vec<u8>, Vec<u8>) {
    let cfg = presets::nvdla_like();
    let ckpt = ScratchCkpt::new(&format!("adaptive_{tag}_{jobs}"));
    let mut spec = spec.clone();
    spec.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    let result = run_campaign(
        engine,
        trace,
        &cfg,
        &TopOneMatch,
        &CampaignSpec {
            threads: jobs,
            ..spec
        },
    )
    .unwrap();
    let cert = result.certificate.as_ref().expect("adaptive emits cert");
    let bytes = std::fs::read(&ckpt.0).unwrap();
    (result_key(&result), cert.canonical_bytes(), bytes)
}

/// Adaptive campaigns: per-cell outcomes, confidence-certificate bytes, and
/// checkpoint bytes are identical across worker counts and batch modes, and
/// the offline verifier recomputes the exact same certificate from the
/// checkpoint alone.
#[test]
fn adaptive_campaigns_are_identical_across_jobs_and_batch() {
    let (engine, trace) = tiny_engine(13);
    let reference = run_adaptive_at(&engine, &trace, &adaptive_spec(42, 0), 1, "grid");
    // The plan must have run more than the seed wave (uncertainty-driven
    // reallocation actually exercised).
    let verified =
        fidelity::core::adaptive::verify_checkpoint(std::io::BufReader::new(&reference.2[..]))
            .expect("checkpoint re-verifies offline");
    assert_eq!(
        verified.canonical_bytes(),
        reference.1,
        "offline verifier disagrees with the runner's certificate"
    );
    assert!(verified.waves > 1, "expected multiple waves");
    for batch in [0usize, 16] {
        for jobs in [1usize, 2, 8] {
            if (jobs, batch) == (1, 0) {
                continue;
            }
            let got = run_adaptive_at(
                &engine,
                &trace,
                &adaptive_spec(42, batch),
                jobs,
                &format!("grid{batch}"),
            );
            assert_eq!(
                got.0, reference.0,
                "outcomes diverge at jobs={jobs} batch={batch}"
            );
            assert_eq!(
                got.1, reference.1,
                "certificate bytes diverge at jobs={jobs} batch={batch}"
            );
            assert_eq!(
                got.2, reference.2,
                "checkpoint bytes diverge at jobs={jobs} batch={batch}"
            );
        }
    }
}

/// A SIGKILL mid-wave leaves a torn checkpoint tail; resuming completes to
/// byte-identical checkpoint, certificate, and outcomes, for any worker
/// count.
#[test]
fn adaptive_kill_mid_wave_then_resume_is_identical() {
    let (engine, trace) = tiny_engine(17);
    let cfg = presets::nvdla_like();
    let spec = adaptive_spec(7, 0);
    let reference = run_adaptive_at(&engine, &trace, &spec, 1, "killref");

    // Cut the file mid-way through the second wave block and append a torn
    // partial row — exactly what a kill during a block write leaves behind.
    let text = String::from_utf8(reference.2.clone()).unwrap();
    let second_wave = text.match_indices("\nwave ").nth(1).map(|(i, _)| i + 1);
    let cut = second_wave.expect("reference has at least two waves");
    let torn_end = text[cut..].find('\n').map(|i| cut + i + 30).unwrap();
    let mut torn = text.as_bytes()[..torn_end].to_vec();
    torn.extend_from_slice(b"\nw 3 1");

    for jobs in [1usize, 4] {
        let ckpt = ScratchCkpt::new(&format!("killresume_{jobs}"));
        std::fs::write(&ckpt.0, &torn).unwrap();
        let mut resuming = spec.clone();
        resuming.resilience.checkpoint = Some(CheckpointSpec::resuming(&ckpt.0));
        let result = run_campaign(
            &engine,
            &trace,
            &cfg,
            &TopOneMatch,
            &CampaignSpec {
                threads: jobs,
                ..resuming
            },
        )
        .unwrap();
        assert_eq!(
            result_key(&result),
            reference.0,
            "resumed outcomes diverge at jobs={jobs}"
        );
        assert_eq!(
            result.certificate.unwrap().canonical_bytes(),
            reference.1,
            "resumed certificate diverges at jobs={jobs}"
        );
        assert_eq!(
            std::fs::read(&ckpt.0).unwrap(),
            reference.2,
            "resumed checkpoint bytes diverge at jobs={jobs}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random small campaigns, every job count yields the same per-cell
    /// outcomes, the same masking probabilities (exact bits), and the same
    /// checkpoint bytes as the serial run.
    #[test]
    fn campaigns_are_identical_across_job_counts(
        seed in 0u64..10_000,
        weight_seed in 1u64..50,
        samples in 5usize..20,
        record_events in 0u64..2,
    ) {
        let (engine, trace) = tiny_engine(weight_seed);
        let spec = CampaignSpec {
            samples_per_cell: samples,
            seed,
            threads: 1,
            record_events: record_events == 1,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        let (serial_key, serial_bytes) = run_at(&engine, &trace, &spec, 1, "clean");
        for jobs in &job_counts()[1..] {
            let (key, bytes) = run_at(&engine, &trace, &spec, *jobs, "clean");
            prop_assert_eq!(&key, &serial_key, "results diverge at jobs={}", jobs);
            prop_assert_eq!(&bytes, &serial_bytes, "checkpoint bytes diverge at jobs={}", jobs);
        }
    }

    /// Same contract with injected cell panics: chaos panics two cells on
    /// every attempt, so both degrade to deterministic partial statistics
    /// and are reported as failures — identically for every job count.
    #[test]
    fn panicking_cells_stay_identical_across_job_counts(
        seed in 0u64..10_000,
        samples in 5usize..15,
        panic_at in 0usize..5,
    ) {
        let (engine, trace) = tiny_engine(7);
        let mut spec = CampaignSpec {
            samples_per_cell: samples,
            seed,
            threads: 1,
            record_events: true,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        spec.resilience.chaos = victims(&engine, &trace, &spec)
            .into_iter()
            .map(|(node, category)| ChaosSpec {
                node,
                category,
                mode: ChaosMode::PanicAtSample(panic_at),
            })
            .collect();
        spec.resilience.max_retries_per_cell = 1;
        spec.resilience.failure_budget = 4;
        let (serial_key, serial_bytes) = run_at(&engine, &trace, &spec, 1, "chaos");
        // Both chaos cells must actually have failed.
        prop_assert_eq!(serial_key.iter().filter(|k| k.starts_with("FAIL")).count(), 2);
        for jobs in &job_counts()[1..] {
            let (key, bytes) = run_at(&engine, &trace, &spec, *jobs, "chaos");
            prop_assert_eq!(&key, &serial_key, "results diverge at jobs={}", jobs);
            prop_assert_eq!(&bytes, &serial_bytes, "checkpoint bytes diverge at jobs={}", jobs);
        }
    }

    /// Kill/resume: a campaign aborted mid-run leaves a partial checkpoint;
    /// resuming that same checkpoint completes to the full serial result and
    /// the full serial checkpoint bytes, for every job count.
    #[test]
    fn kill_then_resume_is_identical_across_job_counts(
        seed in 0u64..10_000,
        samples in 5usize..15,
        kill_jobs in 1usize..5,
    ) {
        let (engine, trace) = tiny_engine(11);
        let cfg = presets::nvdla_like();
        let clean = CampaignSpec {
            samples_per_cell: samples,
            seed,
            threads: 1,
            record_events: true,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            adaptive: None,
        };
        // The uninterrupted reference: result surface and checkpoint bytes.
        let (reference_key, reference_bytes) = run_at(&engine, &trace, &clean, 1, "ref");

        // Kill the campaign mid-run: chaos panics the last non-global cell
        // with a zero failure budget, aborting after some cells completed.
        let killed_ckpt = ScratchCkpt::new(&format!("kill_{kill_jobs}"));
        let mut killed = clean.clone();
        killed.resilience.failure_budget = 0;
        killed.resilience.max_retries_per_cell = 0;
        killed.resilience.checkpoint = Some(CheckpointSpec::new(&killed_ckpt.0));
        let (_, victim) = {
            let v = victims(&engine, &trace, &clean);
            (v[0], v[1])
        };
        killed.resilience.chaos = vec![ChaosSpec {
            node: victim.0,
            category: victim.1,
            mode: ChaosMode::PanicAtSample(0),
        }];
        let err = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &CampaignSpec { threads: kill_jobs, ..killed })
            .unwrap_err();
        prop_assert!(err.to_string().contains("failure budget exhausted"));
        let killed_bytes = std::fs::read(&killed_ckpt.0).unwrap();

        // Whatever made it to disk obeys the ordered-commit contract: record
        // indices strictly increase through the file, and every record is
        // byte-identical to the serial reference's record for that cell.
        let reference_records = records(&reference_bytes);
        let killed_records = records(&killed_bytes);
        prop_assert!(
            killed_records.windows(2).all(|w| w[0].0 < w[1].0),
            "interrupted checkpoint records are out of plan order"
        );
        for (idx, record) in &killed_records {
            let reference = reference_records.iter().find(|(i, _)| i == idx);
            prop_assert_eq!(
                Some(record),
                reference.map(|(_, r)| r),
                "record {} differs from the serial reference", idx
            );
        }
        // A serial kill stops in plan order, so its file is literally a
        // prefix of the uninterrupted serial file.
        if kill_jobs == 1 {
            prop_assert!(
                reference_bytes.starts_with(&killed_bytes),
                "serially-interrupted checkpoint is not a prefix of the serial file"
            );
        }

        // Resume the same partial checkpoint at every job count: identical
        // final results, and final checkpoint bytes that are identical
        // across job counts and carry exactly the reference's records.
        let mut first_final: Option<Vec<u8>> = None;
        for jobs in job_counts() {
            let resume_ckpt = ScratchCkpt::new(&format!("resume_{kill_jobs}_{jobs}"));
            std::fs::write(&resume_ckpt.0, &killed_bytes).unwrap();
            let mut resuming = clean.clone();
            resuming.resilience.checkpoint = Some(CheckpointSpec::resuming(&resume_ckpt.0));
            let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &CampaignSpec { threads: jobs, ..resuming })
                .unwrap();
            prop_assert_eq!(result_key(&result), reference_key.clone(), "resume diverges at jobs={}", jobs);
            let final_bytes = std::fs::read(&resume_ckpt.0).unwrap();
            let mut final_records = records(&final_bytes);
            final_records.sort_by_key(|&(idx, _)| idx);
            prop_assert_eq!(
                &final_records,
                &reference_records,
                "resumed checkpoint content diverges at jobs={}", jobs
            );
            match &first_final {
                None => first_final = Some(final_bytes),
                Some(expected) => prop_assert_eq!(
                    &final_bytes,
                    expected,
                    "resumed checkpoint bytes diverge at jobs={}", jobs
                ),
            }
        }
    }
}
