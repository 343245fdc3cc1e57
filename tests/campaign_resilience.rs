//! Integration tests for the campaign resilience layer: checkpoint
//! round-trips, panic isolation, the per-injection watchdog, and exact
//! kill-then-resume recovery.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fidelity::accel::ff::{FfCategory, PipelineStage, VarType};
use fidelity::accel::presets;
use fidelity::core::campaign::{
    run_campaign, CampaignResult, CampaignRunner, CampaignSpec, CellStats, InjectionEvent, MacTier,
};
use fidelity::core::models::{OperandWindow, SoftwareFaultModel};
use fidelity::core::outcome::{Outcome, TopOneMatch};
use fidelity::core::resilience::{
    parse_checkpoint, write_header, write_row, write_wave_start, ChaosMode, ChaosSpec,
    CheckpointSpec, FailureReason, LogPlan, ResilienceSpec, StratumMeta, StratumRow,
};
use fidelity::dnn::graph::{Engine, NetworkBuilder, Trace};
use fidelity::dnn::init::uniform_tensor;
use fidelity::dnn::layers::{Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalAvgPool};
use fidelity::dnn::macspec::OperandKind;
use fidelity::dnn::precision::Precision;
use fidelity::obs::progress::ProgressSpec;
use fidelity::obs::trace::{SinkHandle, TraceEvent, TraceSink, Value};
use proptest::prelude::*;

fn tiny_engine() -> (Engine, Trace) {
    let net = NetworkBuilder::new("clf")
        .input("x")
        .layer(
            Conv2d::new("conv", uniform_tensor(1, vec![4, 2, 3, 3], 0.6))
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
            Dense::new("fc", uniform_tensor(2, vec![5, 4], 0.6)).unwrap(),
            &["flat"],
        )
        .unwrap()
        .build()
        .unwrap();
    let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
    let x = uniform_tensor(3, vec![1, 2, 6, 6], 1.0);
    let trace = engine.trace(&[x]).unwrap();
    (engine, trace)
}

fn spec(samples: usize, seed: u64) -> CampaignSpec {
    CampaignSpec {
        samples_per_cell: samples,
        seed,
        threads: 2,
        record_events: true,
        resilience: ResilienceSpec::default(),
        progress: None,
        batch: 0,
        mac_tier: MacTier::Bitwise,
        adaptive: None,
    }
}

/// A per-test scratch path that is removed on drop, pass or fail.
struct ScratchCkpt(PathBuf);

impl ScratchCkpt {
    fn new(tag: &str) -> Self {
        ScratchCkpt(
            std::env::temp_dir().join(format!("fidelity_{tag}_{}.ckpt", std::process::id())),
        )
    }
}

impl Drop for ScratchCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Everything that must match for two campaign cells to be "bit-identical",
/// with float fields compared by their bit patterns.
type CellKey = (
    usize,
    String,
    String,
    usize,
    usize,
    usize,
    usize,
    Vec<(usize, u32, String)>,
);

fn cell_key(c: &CellStats) -> CellKey {
    (
        c.node,
        c.layer.clone(),
        format!("{:?}/{:?}", c.category, c.model),
        c.samples,
        c.masked,
        c.output_error,
        c.anomaly,
        c.events
            .iter()
            .map(|e| {
                (
                    e.faulty_neurons,
                    e.max_perturbation.to_bits(),
                    format!("{:?}", e.outcome),
                )
            })
            .collect(),
    )
}

fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(cell_key(x), cell_key(y));
    }
}

// ---------------------------------------------------------------------------
// Checkpoint round-trip (property-based)
// ---------------------------------------------------------------------------

const ALL_CATEGORIES: [FfCategory; 17] = {
    let mut cats = [FfCategory::LocalControl; 17];
    let stages = [
        PipelineStage::BeforeBuffer,
        PipelineStage::BufferToMac,
        PipelineStage::AfterMac,
    ];
    let vars = [
        VarType::Input,
        VarType::Weight,
        VarType::Bias,
        VarType::PartialSum,
        VarType::Output,
    ];
    let mut i = 0;
    while i < 15 {
        cats[i] = FfCategory::Datapath {
            stage: stages[i / 5],
            var: vars[i % 5],
        };
        i += 1;
    }
    cats[15] = FfCategory::LocalControl;
    cats[16] = FfCategory::GlobalControl;
    cats
};

fn arb_model() -> impl Strategy<Value = SoftwareFaultModel> {
    (0usize..6, 1usize..40, 1usize..40, 0u8..2).prop_map(|(pick, positions, channels, suffix)| {
        let kind = if pick % 2 == 0 {
            OperandKind::Input
        } else {
            OperandKind::Weight
        };
        match pick {
            0 | 1 => SoftwareFaultModel::BeforeBuffer { kind },
            2 | 3 => SoftwareFaultModel::Operand {
                kind,
                window: OperandWindow {
                    positions,
                    channels,
                },
                random_suffix: suffix == 1,
            },
            4 => SoftwareFaultModel::OutputValue,
            _ => SoftwareFaultModel::LocalControl,
        }
    })
}

fn arb_event() -> impl Strategy<Value = InjectionEvent> {
    let bits = prop_oneof![
        Just(f32::NAN.to_bits()),
        Just(f32::INFINITY.to_bits()),
        Just(f32::NEG_INFINITY.to_bits()),
        Just(0u32),
        0u32..u32::MAX,
    ];
    (0usize..10_000, bits, 0u8..3).prop_map(|(faulty_neurons, bits, out)| InjectionEvent {
        faulty_neurons,
        max_perturbation: f32::from_bits(bits),
        outcome: match out {
            0 => Outcome::Masked,
            1 => Outcome::OutputError,
            _ => Outcome::SystemAnomaly,
        },
    })
}

fn arb_cell() -> impl Strategy<Value = CellStats> {
    (
        0usize..64,
        0usize..ALL_CATEGORIES.len(),
        arb_model(),
        (0usize..500, 0usize..500, 0usize..500),
        prop::collection::vec(arb_event(), 0..6),
    )
        .prop_map(
            |(node, cat, model, (masked, output_error, anomaly), events)| CellStats {
                node,
                layer: format!("layer_{node}"),
                category: ALL_CATEGORIES[cat],
                model,
                samples: masked + output_error + anomaly,
                masked,
                output_error,
                anomaly,
                events,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any campaign's cells survive a write → parse round trip exactly,
    /// including NaN and ±∞ perturbation magnitudes (stored as raw f32
    /// bits), unusual tallies, and every category/model combination.
    #[test]
    fn checkpoint_round_trips_any_cells(
        cells in prop::collection::vec(arb_cell(), 1..8),
        fingerprint in 0u64..u64::MAX,
    ) {
        let strata: Vec<StratumMeta> = cells
            .iter()
            .map(|c| StratumMeta {
                node: c.node,
                category: c.category,
                model: c.model,
                weight: 1.0,
                layer: c.layer.clone(),
            })
            .collect();
        let mut buf = Vec::new();
        let plan = LogPlan::Fixed { samples_per_cell: 1 };
        write_header(&mut buf, fingerprint, &plan, &strata).unwrap();
        write_wave_start(&mut buf, 0).unwrap();
        for (idx, cell) in cells.iter().enumerate() {
            let row = StratumRow {
                samples: cell.samples,
                masked: cell.masked,
                output_error: cell.output_error,
                anomaly: cell.anomaly,
                rng_state: fingerprint,
                events: cell.events.clone(),
            };
            write_row(&mut buf, idx, &row).unwrap();
        }
        let parsed = parse_checkpoint(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(parsed.fingerprint, fingerprint);
        prop_assert_eq!(parsed.cells.len(), cells.len());
        for ((idx, restored), (want_idx, want)) in
            parsed.cells.iter().zip(cells.iter().enumerate())
        {
            prop_assert_eq!(*idx, want_idx);
            prop_assert_eq!(cell_key(restored), cell_key(want));
        }
    }
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

/// The last non-global cell in plan order: chaos targets it so, with one
/// worker, every earlier cell completes (and checkpoints) first.
fn victim_cell(baseline: &CampaignResult) -> (usize, FfCategory) {
    let c = baseline
        .cells
        .iter()
        .rev()
        .find(|c| c.category != FfCategory::GlobalControl)
        .expect("campaign has non-global cells");
    (c.node, c.category)
}

#[test]
fn panicking_cell_degrades_without_aborting_campaign() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec(20, 77)).unwrap();
    assert!(baseline.failures.is_empty());
    let (node, category) = victim_cell(&baseline);

    let mut chaotic = spec(20, 77);
    chaotic.resilience.chaos = vec![ChaosSpec {
        node,
        category,
        mode: ChaosMode::PanicAtSample(3),
    }];
    let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &chaotic).unwrap();

    // Exactly one cell failed, with the panic payload preserved; retries
    // restart the RNG stream, so the recorded stream position is the panic
    // sample regardless of attempt count.
    assert_eq!(result.failures.len(), 1);
    let failure = &result.failures[0];
    assert_eq!((failure.node, failure.category), (node, category));
    assert_eq!(failure.attempts, 2);
    assert_eq!(failure.samples_completed, 3);
    assert!(
        matches!(&failure.reason, FailureReason::Panic(msg) if msg.contains("deliberate panic")),
        "unexpected reason: {}",
        failure.reason
    );

    // Every other cell is bit-identical to the healthy baseline, and the
    // degraded cell keeps the partial tally of its completed samples.
    assert_eq!(result.cells.len(), baseline.cells.len());
    for (got, want) in result.cells.iter().zip(&baseline.cells) {
        if (got.node, got.category) == (node, category) {
            assert_eq!(got.samples, 3);
            assert_eq!(got.masked + got.output_error + got.anomaly, 3);
        } else {
            assert_eq!(cell_key(got), cell_key(want));
        }
    }
}

#[test]
fn failure_budget_zero_aborts_campaign() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec(10, 5)).unwrap();
    let (node, category) = victim_cell(&baseline);

    let mut chaotic = spec(10, 5);
    chaotic.resilience.failure_budget = 0;
    chaotic.resilience.max_retries_per_cell = 0;
    chaotic.resilience.chaos = vec![ChaosSpec {
        node,
        category,
        mode: ChaosMode::PanicAtSample(0),
    }];
    let err = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &chaotic).unwrap_err();
    assert!(
        err.to_string().contains("failure budget exhausted"),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------------
// Per-injection watchdog
// ---------------------------------------------------------------------------

#[test]
fn watchdog_reclassifies_stalled_injections_as_anomalies() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec(3, 11)).unwrap();
    let (node, category) = victim_cell(&baseline);

    // The deadline clock starts before the chaos delay, so every injection
    // of the stalled cell deterministically overruns it; the healthy cells
    // of this micro-network finish far inside 250 ms.
    let mut stalled = spec(3, 11);
    stalled.resilience.injection_deadline = Some(Duration::from_millis(250));
    stalled.resilience.chaos = vec![ChaosSpec {
        node,
        category,
        mode: ChaosMode::DelayPerInjection(Duration::from_millis(400)),
    }];
    let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &stalled).unwrap();

    assert!(
        result.failures.is_empty(),
        "timeouts are outcomes, not failures"
    );
    let victim = result
        .cells
        .iter()
        .find(|c| (c.node, c.category) == (node, category))
        .unwrap();
    assert_eq!(
        victim.anomaly, victim.samples,
        "every stalled sample times out"
    );
    assert!(victim
        .events
        .iter()
        .all(|e| matches!(e.outcome, Outcome::SystemAnomaly)));
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

#[test]
fn killed_campaign_resumes_bit_identically() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let ckpt = ScratchCkpt::new("kill_resume");

    // The uninterrupted reference run.
    let clean = spec(15, 123);
    let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &clean).unwrap();
    let (node, category) = victim_cell(&baseline);

    // "Kill" the campaign mid-run: one worker processes cells in plan order,
    // checkpointing each, until the chaos cell trips the zero failure budget
    // and aborts the whole campaign — leaving a partial checkpoint behind.
    let mut killed = spec(15, 123);
    killed.threads = 1;
    killed.resilience.failure_budget = 0;
    killed.resilience.max_retries_per_cell = 0;
    killed.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    killed.resilience.chaos = vec![ChaosSpec {
        node,
        category,
        mode: ChaosMode::PanicAtSample(0),
    }];
    let err = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &killed).unwrap_err();
    assert!(err.to_string().contains("failure budget exhausted"));

    // The checkpoint holds some, but not all, cells.
    let parsed = parse_checkpoint(std::io::BufReader::new(
        std::fs::File::open(&ckpt.0).unwrap(),
    ))
    .unwrap();
    assert!(!parsed.cells.is_empty(), "kill left no completed cells");
    assert!(
        parsed.cells.len() < baseline.cells.len(),
        "kill happened too late to exercise resume"
    );

    // Resuming with a clean spec completes the missing cells; deterministic
    // per-cell RNG streams make the combined result bit-identical.
    let resumed = CampaignRunner::new(&engine, &trace, &cfg, &TopOneMatch, clean.clone())
        .resume_from(&ckpt.0)
        .unwrap();
    assert!(resumed.failures.is_empty());
    assert_bit_identical(&baseline, &resumed);

    // And a second resume (now fully checkpointed) is still identical.
    let resumed_again = CampaignRunner::new(&engine, &trace, &cfg, &TopOneMatch, clean)
        .resume_from(&ckpt.0)
        .unwrap();
    assert_bit_identical(&baseline, &resumed_again);
}

#[test]
fn resume_rejects_foreign_checkpoint() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let ckpt = ScratchCkpt::new("foreign");

    let mut first = spec(5, 1);
    first.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    run_campaign(&engine, &trace, &cfg, &TopOneMatch, &first).unwrap();

    // A different seed is a different campaign: its RNG streams do not match
    // the checkpointed tallies, so resuming must refuse.
    let err = CampaignRunner::new(&engine, &trace, &cfg, &TopOneMatch, spec(5, 2))
        .resume_from(&ckpt.0)
        .unwrap_err();
    assert!(
        err.to_string().contains("different campaign"),
        "unexpected error: {err}"
    );
}

/// Records the `restored`/`remaining` fields of a `campaign.resume` event.
#[derive(Default)]
struct ResumeProbe(Mutex<Option<(u64, u64)>>);

impl TraceSink for ResumeProbe {
    fn record(&self, event: &TraceEvent<'_>) {
        if event.name == "campaign.resume" {
            let get = |key: &str| {
                event.fields.iter().find_map(|(name, value)| match value {
                    Value::U64(v) if *name == key => Some(*v),
                    _ => None,
                })
            };
            *self.0.lock().unwrap() = Some((get("restored").unwrap(), get("remaining").unwrap()));
        }
    }
}

/// A fixed plan persists no failure: the failed cell keeps no row, so a
/// resume retries exactly that cell, and once it is healthy the result and
/// the checkpoint equal a clean run's. The resume counts every loaded cell
/// as restored.
#[test]
fn failed_fixed_cell_is_retried_on_resume() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let clean_ckpt = ScratchCkpt::new("retry_clean");
    let mut clean = spec(20, 77);
    clean.resilience.checkpoint = Some(CheckpointSpec::new(&clean_ckpt.0));
    let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &clean).unwrap();
    let (node, category) = victim_cell(&baseline);

    let ckpt = ScratchCkpt::new("retry_failed");
    let mut chaotic = spec(20, 77);
    chaotic.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    chaotic.resilience.chaos = vec![ChaosSpec {
        node,
        category,
        mode: ChaosMode::PanicAtSample(3),
    }];
    let degraded = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &chaotic).unwrap();
    assert_eq!(degraded.failures.len(), 1);

    let probe = Arc::new(ResumeProbe::default());
    let mut resume = spec(20, 77);
    resume.resilience.checkpoint = Some(CheckpointSpec::resuming(&ckpt.0));
    resume.progress = Some(ProgressSpec {
        render: false,
        sink: Some(SinkHandle(probe.clone())),
        ..ProgressSpec::default()
    });
    let resumed = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &resume).unwrap();
    assert!(resumed.failures.is_empty());
    assert_bit_identical(&baseline, &resumed);
    assert_eq!(
        std::fs::read(&ckpt.0).unwrap(),
        std::fs::read(&clean_ckpt.0).unwrap()
    );
    let cells = baseline.cells.len() as u64;
    assert_eq!(*probe.0.lock().unwrap(), Some((cells - 1, 1)));
}

#[test]
fn resume_flag_on_spec_reuses_checkpoint() {
    let (engine, trace) = tiny_engine();
    let cfg = presets::nvdla_like();
    let ckpt = ScratchCkpt::new("spec_resume");

    let mut write = spec(8, 31);
    write.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    let first = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &write).unwrap();

    let mut resume = spec(8, 31);
    resume.resilience.checkpoint = Some(CheckpointSpec::resuming(&ckpt.0));
    let second = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &resume).unwrap();
    assert_bit_identical(&first, &second);
}
