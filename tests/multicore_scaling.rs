//! Multi-core wall-clock scaling of the batched parallel campaign engine.
//!
//! Hardware-gated: set `FIDELITY_MULTICORE=1` on a host with ≥4 hardware
//! threads to assert that 4 workers complete the same batched campaign at
//! least 2× faster than 1 worker. On other hosts (the CI container has a
//! single core, where no wall-clock speedup is physically available) the
//! test reports why it skipped and passes; the *correctness* of the
//! parallel path — bit-identical results at any worker count — is covered
//! unconditionally by `tests/parallel_determinism.rs` and
//! `tests/batched_vs_serial.rs`, and the single-core overhead bound is
//! recorded in EXPERIMENTS.md.

use std::time::{Duration, Instant};

use fidelity::accel::presets;
use fidelity::core::campaign::{run_campaign, CampaignSpec};
use fidelity::core::outcome::TopOneMatch;
use fidelity::core::resilience::ResilienceSpec;
use fidelity::dnn::graph::{Engine, Trace};
use fidelity::dnn::precision::Precision;
use fidelity::workloads::classification_suite;

fn deploy() -> (Engine, Trace) {
    let w = classification_suite(42).remove(0);
    let inputs = w.inputs;
    let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&inputs)).unwrap();
    let trace = engine.trace(&inputs).unwrap();
    (engine, trace)
}

/// Best-of-N wall time of the campaign at a worker count (best-of filters
/// scheduler noise; the units of work are identical by the determinism
/// contract, so best-case is the honest comparison).
fn best_wall(engine: &Engine, trace: &Trace, spec: &CampaignSpec, jobs: usize) -> Duration {
    let cfg = presets::nvdla_like();
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        run_campaign(
            engine,
            trace,
            &cfg,
            &TopOneMatch,
            &CampaignSpec {
                threads: jobs,
                ..spec.clone()
            },
        )
        .unwrap();
        best = best.min(start.elapsed());
    }
    best
}

#[test]
fn four_workers_give_at_least_2x_on_multicore_hosts() {
    if std::env::var("FIDELITY_MULTICORE").as_deref() != Ok("1") {
        eprintln!("skipped: set FIDELITY_MULTICORE=1 on a multi-core host to run");
        return;
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if threads < 4 {
        eprintln!("skipped: host has {threads} hardware threads, need >= 4");
        return;
    }

    let (engine, trace) = deploy();
    let spec = CampaignSpec {
        samples_per_cell: 40,
        seed: 9,
        threads: 1,
        record_events: false,
        resilience: ResilienceSpec::default(),
        progress: None,
        batch: 16,
        adaptive: None,
    };

    let serial = best_wall(&engine, &trace, &spec, 1);
    let parallel = best_wall(&engine, &trace, &spec, 4);
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    eprintln!("multicore scaling: jobs=1 {serial:?}, jobs=4 {parallel:?}, speedup {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "4 workers must be >= 2x serial on a {threads}-thread host, got {speedup:.2}x \
         (jobs=1 {serial:?}, jobs=4 {parallel:?})"
    );
}
