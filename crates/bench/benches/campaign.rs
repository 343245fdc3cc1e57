//! Criterion bench: whole-campaign throughput, fixed vs. adaptive sampling.
//!
//! Adaptive sampling (waves until the Eq.-2 FIT bound holds at ±ε) is the
//! knob that turns "statistically significant number of samples" from a
//! guess into a budget; this bench quantifies what it saves.

use criterion::{criterion_group, criterion_main, Criterion};
use fidelity_core::adaptive::AdaptivePlan;
use fidelity_core::campaign::{run_campaign, CampaignSpec, MacTier};
use fidelity_core::outcome::TopOneMatch;
use fidelity_dnn::precision::Precision;
use fidelity_workloads::classification_suite;

fn bench_campaign(c: &mut Criterion) {
    let workload = classification_suite(42).remove(2); // mobilenet: smallest
    let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
    let accel = fidelity_accel::presets::nvdla_like();

    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);

    let fixed = CampaignSpec {
        samples_per_cell: 300,
        seed: 1,
        threads: 4,
        record_events: false,
        resilience: Default::default(),
        progress: None,
        batch: 0,
        mac_tier: MacTier::Bitwise,
        adaptive: None,
    };
    group.bench_function("fixed_300_per_cell", |b| {
        b.iter(|| run_campaign(&engine, &trace, &accel, &TopOneMatch, &fixed).expect("runs"));
    });

    let adaptive = CampaignSpec {
        adaptive: Some(AdaptivePlan::new(0.05)),
        ..fixed.clone()
    };
    group.bench_function("adaptive_eps_0.05", |b| {
        b.iter(|| run_campaign(&engine, &trace, &accel, &TopOneMatch, &adaptive).expect("runs"));
    });

    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
