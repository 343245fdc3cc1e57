//! Criterion bench: substrate inference cost — full forward vs. the
//! trace/resume partial re-execution that makes campaigns fast.
//!
//! Alongside the Criterion output, a manual timing pass merges an
//! `inference` section (mean/best ns for forward and last-MAC resume per
//! workload) into `BENCH_injection.json`. `FIDELITY_BENCH_QUICK=1` writes
//! the section from a short run and skips the Criterion sweep.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use fidelity_bench::report;
use fidelity_dnn::precision::Precision;
use fidelity_dnn::workspace::Workspace;
use fidelity_obs::json::Json;
use fidelity_workloads::{transformer_workload, workload, Workload};

fn suite() -> Vec<(&'static str, Workload)> {
    vec![
        ("resnet", workload("resnet", 42).expect("known network")),
        ("transformer", transformer_workload(42)),
    ]
}

/// Times forward and last-MAC resume for each workload; returns the
/// `inference` report section.
fn measure_inference(reps: usize) -> Json {
    let mut rows = Vec::new();
    for (label, workload) in suite() {
        let inputs = workload.inputs.clone();
        let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
        let node = (0..engine.network().node_count())
            .rfind(|&i| engine.mac_spec(i, &trace).is_some())
            .expect("has MAC layers");
        let replacement = trace.node_outputs[node].clone();

        let mut fwd = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            black_box(engine.forward(&inputs).expect("fixed workload"));
            fwd.push(t.elapsed().as_nanos() as f64);
        }
        let (fwd_mean, fwd_best) = report::mean_best(&fwd);

        let mut res = Vec::with_capacity(reps);
        let mut ws = Workspace::new();
        for _ in 0..reps {
            let t = Instant::now();
            let out = engine
                .resume(&trace, node, replacement.clone(), None, &mut ws)
                .expect("fixed workload");
            black_box(out.tensor());
            out.recycle_into(&mut ws);
            res.push(t.elapsed().as_nanos() as f64);
        }
        let (res_mean, res_best) = report::mean_best(&res);

        rows.push(report::obj([
            ("network", Json::Str(label.to_owned())),
            ("reps", Json::Num(reps as f64)),
            (
                "forward",
                report::obj([
                    ("mean_ns", Json::Num(fwd_mean)),
                    ("best_ns", Json::Num(fwd_best)),
                ]),
            ),
            (
                "resume_last_mac",
                report::obj([
                    ("mean_ns", Json::Num(res_mean)),
                    ("best_ns", Json::Num(res_best)),
                ]),
            ),
        ]));
    }
    Json::Arr(rows)
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");

    for (label, workload) in suite() {
        let inputs = workload.inputs.clone();
        let (engine, trace) = fidelity_bench::deploy(workload, Precision::Fp16);
        group.bench_function(format!("{label}_forward"), |b| {
            b.iter(|| engine.forward(&inputs).expect("fixed workload"));
        });
        // Resume from the last MAC layer: the common injection case.
        let node = (0..engine.network().node_count())
            .rfind(|&i| engine.mac_spec(i, &trace).is_some())
            .expect("has MAC layers");
        let replacement = trace.node_outputs[node].clone();
        group.bench_function(format!("{label}_resume_last_mac"), |b| {
            let mut ws = Workspace::new();
            b.iter(|| {
                engine
                    .resume(&trace, node, replacement.clone(), None, &mut ws)
                    .expect("fixed workload")
                    .recycle_into(&mut ws);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference);

fn main() {
    if std::env::args().any(|a| a == "--test" || a == "--list") {
        return;
    }
    let quick = report::quick();
    let reps = if quick { 5 } else { 30 };
    report::update("inference", measure_inference(reps));
    if !quick {
        benches();
    }
}
