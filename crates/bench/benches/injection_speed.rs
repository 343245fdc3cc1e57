//! Criterion bench: per-injection cost of FIdelity software fault injection
//! vs. register-level simulation (the Sec. VI speed claim), plus the
//! telemetry overhead pair (instrumented vs. uninstrumented hot path).
//!
//! Before any timing, every MAC layer of the workload and of the
//! transformer is self-checked: the packed kernels, and the Conv and Dense
//! layers' own forwards over their packed panels, must reproduce
//! `compute_at` bit-for-bit, so a perf regression can never silently buy
//! speed with accuracy. The measured numbers (mean/best ns per injection
//! for the pooled and allocating paths, per-layer kernel throughput,
//! workspace pool hit rate) are merged into `BENCH_injection.json` at the
//! workspace root. `FIDELITY_BENCH_QUICK=1` runs the self-check plus a
//! short measurement and skips the Criterion sweeps — the CI smoke mode.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use fidelity_bench::report;
use fidelity_core::inject::{inject_once, inject_once_pooled};
use fidelity_core::models::SoftwareFaultModel;
use fidelity_core::outcome::TopOneMatch;
use fidelity_core::validate::{random_sites, rtl_layer_for};
use fidelity_dnn::graph::{golden_key, Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{MacSpec, Operands};
use fidelity_dnn::precision::Precision;
use fidelity_dnn::tensor::Tensor;
use fidelity_dnn::workspace::Workspace;
use fidelity_obs::json::Json;
use fidelity_rtl::{Disturbance, RtlEngine};
use fidelity_workloads::{classification_suite, transformer_workload};

/// The largest MAC layer: the representative injection target.
fn target_node(engine: &Engine, trace: &Trace) -> usize {
    (0..engine.network().node_count())
        .filter(|&i| engine.mac_spec(i, trace).is_some())
        .max_by_key(|&i| trace.node_outputs[i].len())
        .expect("has MAC layers")
}

/// The operand pair of a MAC node (MatMul takes both from the trace; Conv
/// and Dense keep their weight in the layer).
fn operands_for<'a>(engine: &'a Engine, trace: &'a Trace, node: usize) -> Operands<'a> {
    let spec = engine.mac_spec(node, trace).expect("MAC node");
    let input = engine.node_input_at(node, 0, trace);
    let weight: &Tensor = if matches!(spec, MacSpec::MatMul(_)) {
        engine.node_input_at(node, 1, trace)
    } else {
        engine
            .network()
            .layer(node)
            .weights()
            .into_iter()
            .next()
            .expect("MAC layer has a weight")
    };
    Operands { input, weight }
}

/// Asserts that the packed kernels reproduce the per-neuron reference path
/// bit-for-bit on every MAC layer: the raw-operand kernel, which packs per
/// call, and for Conv and Dense also the layer's own forward over the panel
/// it packed once. Returns the number of layers checked.
fn kernel_self_check(engine: &Engine, trace: &Trace) -> usize {
    let mut ws = Workspace::new();
    let mut checked = 0;
    for node in 0..engine.network().node_count() {
        let Some(spec) = engine.mac_spec(node, trace) else {
            continue;
        };
        let layer = engine.network().layer(node);
        let operands = operands_for(engine, trace, node);
        let mut out = vec![0.0f32; spec.out_len()];
        spec.forward_into_scratch(&operands, &mut out, ws.kernel_scratch());
        for (off, &v) in out.iter().enumerate() {
            let reference = spec.compute_at(&operands, off, None);
            assert_eq!(
                v.to_bits(),
                reference.to_bits(),
                "kernel/compute_at mismatch: node {node} ({}) offset {off}: \
                 {v} != {reference}",
                layer.name(),
            );
        }
        // Conv and Dense layers run over a panel packed when their weights
        // last changed: a stale panel shows only here.
        if !matches!(spec, MacSpec::MatMul(_)) {
            let packed = layer
                .forward(&engine.node_inputs(node, trace), &mut ws)
                .expect("layer forward");
            for (off, (&a, &b)) in out.iter().zip(packed.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "packed-layer mismatch: node {node} ({}) offset {off}: {a} != {b}",
                    layer.name(),
                );
            }
        }
        checked += 1;
    }
    checked
}

/// Times `forward_into_scratch` on every MAC layer; returns the `kernels`
/// report section.
fn kernel_throughput(engine: &Engine, trace: &Trace, reps: usize) -> Json {
    let mut ws = Workspace::new();
    let mut rows = Vec::new();
    for node in 0..engine.network().node_count() {
        let Some(spec) = engine.mac_spec(node, trace) else {
            continue;
        };
        let operands = operands_for(engine, trace, node);
        let mut out = vec![0.0f32; spec.out_len()];
        spec.forward_into_scratch(&operands, &mut out, ws.kernel_scratch()); // warm
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            spec.forward_into_scratch(&operands, &mut out, ws.kernel_scratch());
            black_box(&mut out);
            samples.push(t.elapsed().as_nanos() as f64);
        }
        let (mean_ns, best_ns) = report::mean_best(&samples);
        rows.push(report::obj([
            (
                "layer",
                Json::Str(engine.network().layer(node).name().to_owned()),
            ),
            ("macs", Json::Num(spec.macs() as f64)),
            ("out_elems", Json::Num(spec.out_len() as f64)),
            ("mean_ns", Json::Num(mean_ns)),
            ("best_ns", Json::Num(best_ns)),
            ("gmac_per_s", Json::Num(spec.macs() as f64 / mean_ns)),
        ]));
    }
    Json::Arr(rows)
}

/// Times the pooled and allocating injection paths on the target node and
/// writes the `per_injection` + `workspace` report sections.
fn measure_injections(
    engine: &Engine,
    trace: &Trace,
    network: &str,
    node: usize,
    reps: usize,
) -> (f64, f64) {
    let shoot_pooled = |rng: &mut SplitMix64, ws: &mut Workspace| {
        inject_once_pooled(
            engine,
            trace,
            node,
            SoftwareFaultModel::OutputValue,
            &TopOneMatch,
            rng,
            None,
            ws,
        )
        .expect("fixed workload")
    };
    // The pooled path runs batched: a golden snapshot of the trace in the
    // workspace routes every injection through the sparse fault-cone delta
    // resume — exactly what a campaign with `batch > 0` does.
    let mut ws = Workspace::new();
    ws.install_golden(golden_key(trace), &trace.node_outputs);
    let mut ws_dense = Workspace::new();
    let mut rng_pooled = SplitMix64::new(2);
    let mut rng_dense = SplitMix64::new(2);
    for _ in 0..5 {
        black_box(shoot_pooled(&mut rng_pooled, &mut ws)); // warm the pool
        black_box(shoot_pooled(&mut rng_dense, &mut ws_dense));
    }
    ws.reset_counters();

    // The three paths are timed in alternating batches so a background-load
    // burst degrades all of them equally instead of skewing whichever block
    // it happened to land on.
    let mut rng_alloc = SplitMix64::new(2);
    let samples = reps.clamp(1, 20);
    let batch = (reps / samples).max(1);
    let mut pooled = Vec::with_capacity(samples);
    let mut dense = Vec::with_capacity(samples);
    let mut alloc = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(shoot_pooled(&mut rng_pooled, &mut ws));
        }
        pooled.push(t.elapsed().as_nanos() as f64 / batch as f64);
        let t = Instant::now();
        for _ in 0..batch {
            black_box(shoot_pooled(&mut rng_dense, &mut ws_dense));
        }
        dense.push(t.elapsed().as_nanos() as f64 / batch as f64);
        let t = Instant::now();
        for _ in 0..batch {
            black_box(
                inject_once(
                    engine,
                    trace,
                    node,
                    SoftwareFaultModel::OutputValue,
                    &TopOneMatch,
                    &mut rng_alloc,
                )
                .expect("fixed workload"),
            );
        }
        alloc.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    let (pooled_mean, pooled_best) = report::mean_best(&pooled);
    let (dense_mean, dense_best) = report::mean_best(&dense);
    let (alloc_mean, alloc_best) = report::mean_best(&alloc);

    report::update(
        "per_injection",
        report::obj([
            ("network", Json::Str(network.to_owned())),
            ("precision", Json::Str("Fp16".to_owned())),
            ("node", Json::Num(node as f64)),
            ("reps", Json::Num(reps as f64)),
            // Keyed by the Criterion benchmark names so the report reads
            // like the bench output: `fidelity_software` is the allocating
            // `inject_once` entry point, `_pooled` the workspace-backed
            // batched delta path (golden snapshot installed), and
            // `_pooled_dense` the workspace-backed full-resume path.
            (
                "fidelity_software",
                report::obj([
                    ("mean_ns", Json::Num(alloc_mean)),
                    ("best_ns", Json::Num(alloc_best)),
                ]),
            ),
            (
                "fidelity_software_pooled",
                report::obj([
                    ("mean_ns", Json::Num(pooled_mean)),
                    ("best_ns", Json::Num(pooled_best)),
                ]),
            ),
            (
                "fidelity_software_pooled_dense",
                report::obj([
                    ("mean_ns", Json::Num(dense_mean)),
                    ("best_ns", Json::Num(dense_best)),
                ]),
            ),
        ]),
    );
    report::update(
        "workspace",
        report::obj([
            ("hits", Json::Num(ws.hits() as f64)),
            ("misses", Json::Num(ws.misses() as f64)),
            ("hit_rate", Json::Num(ws.hit_rate())),
        ]),
    );
    (pooled_mean, alloc_mean)
}

fn bench_injection(c: &mut Criterion) {
    let workload = classification_suite(42).remove(0);
    let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
    let node = target_node(&engine, &trace);
    let rtl = RtlEngine::new(
        rtl_layer_for(&engine, &trace, node).expect("lifts to RTL"),
        16,
        16,
    );
    let mut rng = SplitMix64::new(1);
    let sites = random_sites(&rtl, 64, &mut rng);

    let mut group = c.benchmark_group("per_injection");
    group.bench_function("fidelity_software", |b| {
        let mut rng = SplitMix64::new(2);
        b.iter(|| {
            inject_once(
                &engine,
                &trace,
                node,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
            )
            .expect("fixed workload")
        });
    });
    group.bench_function("fidelity_software_pooled", |b| {
        let mut rng = SplitMix64::new(2);
        let mut ws = Workspace::new();
        // Batched delta path: golden snapshot installed, sparse cone resume.
        ws.install_golden(golden_key(&trace), &trace.node_outputs);
        b.iter(|| {
            inject_once_pooled(
                &engine,
                &trace,
                node,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
                None,
                &mut ws,
            )
            .expect("fixed workload")
        });
    });
    group.bench_function("fidelity_software_pooled_dense", |b| {
        let mut rng = SplitMix64::new(2);
        let mut ws = Workspace::new();
        b.iter(|| {
            inject_once_pooled(
                &engine,
                &trace,
                node,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
                None,
                &mut ws,
            )
            .expect("fixed workload")
        });
    });
    group.bench_function("register_level", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let site = sites[i % sites.len()];
            i += 1;
            rtl.run(Disturbance::Ff(site))
        });
    });
    group.bench_function("mixed_mode", |b| {
        let mut i = 0usize;
        let mut ws = Workspace::new();
        b.iter(|| {
            let site = sites[i % sites.len()];
            i += 1;
            let run = rtl.run(Disturbance::Ff(site));
            engine
                .resume(&trace, node, run.output, None, &mut ws)
                .expect("fixed workload")
                .recycle_into(&mut ws);
        });
    });
    group.finish();
}

/// Discards every event: isolates the facade/instrumentation cost from
/// sink I/O.
struct NullSink;

impl fidelity_obs::trace::TraceSink for NullSink {
    fn record(&self, _event: &fidelity_obs::trace::TraceEvent<'_>) {}
}

/// Measures the telemetry overhead on the per-injection hot path.
///
/// `uninstrumented` runs with the facade in its default disabled state (no
/// sink, timing off) — the configuration every figure regenerator uses unless
/// `--trace`/`--metrics` is passed, and the one the <2% overhead budget in
/// EXPERIMENTS.md applies to. `instrumented` installs a discarding sink and
/// enables timing, then performs the same per-injection bookkeeping the
/// campaign runner does (stopwatch read, histogram record, counter
/// increment), bounding the fully-enabled cost.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let workload = classification_suite(42).remove(0);
    let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
    let node = target_node(&engine, &trace);

    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("uninstrumented", |b| {
        let mut rng = SplitMix64::new(3);
        b.iter(|| {
            inject_once(
                &engine,
                &trace,
                node,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
            )
            .expect("fixed workload")
        });
    });
    group.bench_function("instrumented", |b| {
        fidelity_obs::install_sink(Arc::new(NullSink));
        let injections = fidelity_obs::metrics::counter("bench.injections");
        let latency = fidelity_obs::metrics::histogram("bench.injection_ns");
        let mut rng = SplitMix64::new(3);
        b.iter(|| {
            let sw = fidelity_obs::clock::Stopwatch::start_if(fidelity_obs::timing_enabled());
            let out = inject_once(
                &engine,
                &trace,
                node,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
            )
            .expect("fixed workload");
            latency.record_opt(sw.elapsed_ns());
            injections.inc();
            out
        });
        fidelity_obs::clear_sink();
        fidelity_obs::set_timing(false);
    });
    group.finish();
}

criterion_group!(benches, bench_injection, bench_telemetry_overhead);

fn main() {
    // `cargo test` may invoke harness-less bench targets with libtest flags;
    // only measure under `cargo bench` (or a bare invocation).
    if std::env::args().any(|a| a == "--test" || a == "--list") {
        return;
    }
    let quick = report::quick();
    let workload = classification_suite(42).remove(0);
    let network = workload.name.clone();
    let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);

    // The bitwise gate comes first: nothing is timed until the packed
    // kernels are proven identical to the reference accumulation, on this
    // network and on the transformer's Dense and MatMul layers.
    let (tf_engine, tf_trace) = fidelity_bench::deploy(transformer_workload(42), Precision::Fp16);
    let checked = kernel_self_check(&engine, &trace) + kernel_self_check(&tf_engine, &tf_trace);
    eprintln!("kernel self-check: {checked} MAC layers bitwise-identical to compute_at");

    let node = target_node(&engine, &trace);
    let (inj_reps, kern_reps) = if quick { (20, 3) } else { (200, 20) };
    let (pooled_mean, alloc_mean) = measure_injections(&engine, &trace, &network, node, inj_reps);
    eprintln!(
        "per_injection ({network}): pooled mean {:.1}us, allocating mean {:.1}us",
        pooled_mean / 1e3,
        alloc_mean / 1e3
    );
    report::update("kernels", kernel_throughput(&engine, &trace, kern_reps));

    if !quick {
        benches();
    }
}
