//! Criterion bench: serial vs. multi-worker campaign wall-clock.
//!
//! The parallel engine's contract is "bit-identical results for any worker
//! count" (see `tests/parallel_determinism.rs`), so the only thing worker
//! count may change is wall-clock. This bench times the same campaign at
//! 1, 2, and 4 workers; the determinism contract is re-checked on the bench
//! workload itself before timing starts. Injections/second follows from the
//! printed injection count divided by the Criterion mean.

use criterion::{criterion_group, criterion_main, Criterion};
use fidelity_core::campaign::{run_campaign, CampaignSpec};
use fidelity_core::outcome::TopOneMatch;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::workload;

fn bench_campaign_parallel(c: &mut Criterion) {
    let workload = workload("mobilenet", 42).expect("known network"); // the smallest
    let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
    let accel = fidelity_accel::presets::nvdla_like();

    let spec_at = |threads: usize| CampaignSpec {
        samples_per_cell: 300,
        seed: 1,
        threads,
        record_events: false,
        resilience: Default::default(),
        progress: None,
        batch: 0,
        adaptive: None,
    };

    // The contract the speedup is allowed to assume: worker count never
    // changes the result.
    let serial =
        run_campaign(&engine, &trace, &accel, &TopOneMatch, &spec_at(1)).expect("serial runs");
    let quad =
        run_campaign(&engine, &trace, &accel, &TopOneMatch, &spec_at(4)).expect("parallel runs");
    assert_eq!(serial.cells.len(), quad.cells.len());
    for (s, p) in serial.cells.iter().zip(&quad.cells) {
        assert_eq!(s.node, p.node);
        assert_eq!(
            (s.samples, s.masked, s.output_error, s.anomaly),
            (p.samples, p.masked, p.output_error, p.anomaly)
        );
        assert_eq!(s.prob_swmask().to_bits(), p.prob_swmask().to_bits());
    }
    println!(
        "campaign_parallel: {} injections per campaign ({} cells)",
        serial.total_samples(),
        serial.cells.len()
    );

    let mut group = c.benchmark_group("campaign_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let spec = spec_at(threads);
        group.bench_function(format!("jobs_{threads}"), |b| {
            b.iter(|| run_campaign(&engine, &trace, &accel, &TopOneMatch, &spec).expect("runs"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_campaign_parallel);
criterion_main!(benches);
