//! The traced run: per-layer metrics, from spans the benchmark records
//! around each call into a layer and from what the program already emits
//! (an in-memory trace sink for its campaign and serve events and spans,
//! and the `campaign.injection_ns` histogram).
//!
//! Layers, top down: setup (workloads, dnn::graph) → campaign phases
//! (core::campaign / core::adaptive, par) → one injection (core::inject,
//! core::batch, core::models, core::outcome) → its fault cone (dnn::graph) →
//! the MAC kernels (dnn::macspec) against a measured multiply-add ceiling;
//! beside them the checkpoint (core::resilience), the service (serve) and a
//! register-level reference (rtl).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fidelity_core::analysis::ResilienceAnalysis;
use fidelity_core::batch::BatchedInjectionRunner;
use fidelity_core::campaign::CampaignSpec;
use fidelity_core::inject::inject_once_pooled;
use fidelity_core::models::{apply_model_sparse, SoftwareFaultModel, SparseEffect};
use fidelity_core::outcome::Outcome;
use fidelity_core::validate::{random_sites, rtl_layer_for};
use fidelity_dnn::graph::{golden_key, Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{KernelScratch, MacSpec, Operands};
use fidelity_dnn::workspace::Workspace;
use fidelity_obs::trace::{MemorySink, OwnedEvent, TraceSink};
use fidelity_rtl::{Disturbance, RtlEngine};

use crate::gates::{self, mac_nodes, mac_operands};
use crate::report::{NodeRow, RunReport};
use crate::serve_load::{self, Daemon, JobRun};
use crate::stats::Summary;
use crate::workloads::{
    self, answer_bytes, campaign_spec, timed_analyze, Deployed, Workload, BATCH, BUILD_SEED,
    SETUP_REPS, THREADS,
};

/// Injections in the single-thread replay of the campaign's stratum mix.
const REPLAY: usize = 20_000;
/// The dense (no-overlay) path redoes the first 1/`DENSE_EVERY` of each
/// stratum's replayed injections.
const DENSE_EVERY: usize = 4;
/// Untraced campaign reps with and without a checkpoint.
const CAMPAIGN_REPS: usize = 3;
/// Register-level runs, and software injections at the same node.
const RTL_SITES: usize = 500;
const RTL_SOFTWARE: usize = 2_000;
/// Neurons per group in the multiply-add ceiling loop.
const LANES: usize = 64;

/// Runs every per-layer measurement of workload `w`.
pub fn traced(w: Workload, seed: u64, tmp: &Path, report: &mut RunReport) -> Result<(), String> {
    let root = report.spans.enter(w.name());
    let span = report.spans.enter("setup");
    let setups = workloads::timed_setups(w, SETUP_REPS)?;
    let (d, _) = workloads::deploy(w)?;
    report.spans.exit(span);
    gates::kernel_self_check(&d.engine, &d.trace, &mut report.problems);
    let ms = |f: fn(&workloads::SetupTimes) -> f64| -> Vec<f64> {
        setups.iter().map(|t| f(t) * 1e3).collect()
    };
    report.push("setup.build_ms", "ms", &ms(|t| t.build));
    report.push("setup.deploy_ms", "ms", &ms(|t| t.deploy));
    report.push("setup.golden_ms", "ms", &ms(|t| t.golden));

    // serve-mobilenet's campaign is its first job's: network and sampling
    // both seeded 1, as the daemon couples them.
    let campaign_seed = if w == Workload::ServeMobilenet {
        1
    } else {
        seed
    };
    let analysis = campaign_phases(w, &d, campaign_seed, tmp, report)?;

    let span = report.spans.enter("replay");
    replay(&d, &analysis, seed, report)?;
    report.spans.exit(span);

    let span = report.spans.enter("cone");
    cone(&d, &analysis, report);
    report.spans.exit(span);

    let span = report.spans.enter("kernels");
    kernels(&d, report);
    report.spans.exit(span);

    let span = report.spans.enter("serve");
    served(w, seed, tmp, report)?;
    report.spans.exit(span);

    let span = report.spans.enter("rtl");
    rtl(&d, seed, report)?;
    report.spans.exit(span);

    report.spans.exit(root);
    Ok(())
}

/// Value of field `key` of an in-memory trace event (the sink keeps the
/// debug form of the typed value, e.g. `U64(3)` or `Str("x")`).
fn field<'a>(e: &'a OwnedEvent, key: &str) -> Option<&'a str> {
    let raw = &e.fields.iter().find(|(k, _)| k == key)?.1;
    let inner = raw.split_once('(')?.1.strip_suffix(')')?;
    Some(inner.trim_matches('"'))
}

fn span_events<'a>(
    events: &'a [OwnedEvent],
    name: &'a str,
) -> impl Iterator<Item = &'a OwnedEvent> {
    events
        .iter()
        .filter(move |e| e.name == "span" && field(e, "name") == Some(name))
}

fn dur_us(e: &OwnedEvent) -> u64 {
    field(e, "dur_us").and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Median of `samples`, or 0 when there are none.
fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Campaign phases: untraced reps without and with a checkpoint, alternated
/// so a drift in machine speed hits both alike, then one traced rep
/// (in-memory sink, timing on) whose events split the call into plan, waves
/// and the FIT computation.
fn campaign_phases(
    w: Workload,
    d: &Deployed,
    seed: u64,
    tmp: &Path,
    report: &mut RunReport,
) -> Result<ResilienceAnalysis, String> {
    let ckpt = tmp.join("traced.ckpt");
    let plain = campaign_spec(w, seed, None);
    let with_ckpt = campaign_spec(w, seed, Some(&ckpt));
    let (mut t_plain, mut t_ckpt) = (Vec::new(), Vec::new());
    let span = report.spans.enter("campaign.untraced");
    for _ in 0..CAMPAIGN_REPS {
        t_plain.push(untraced_rep(d, &plain, report)?);
        t_ckpt.push(untraced_rep(d, &with_ckpt, report)?);
    }
    report.spans.exit(span);
    let ckpt_bytes = std::fs::read(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;

    let sink = Arc::new(MemorySink::new());
    let injection_ns = fidelity_obs::metrics::histogram("campaign.injection_ns");
    let before = injection_ns.snapshot().sum;
    let span = report.spans.enter("campaign.traced");
    fidelity_obs::install_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let entry = fidelity_obs::clock::since_epoch_us();
    let traced = timed_analyze(d, &with_ckpt);
    fidelity_obs::clear_sink();
    fidelity_obs::set_timing(false);
    let busy_ns = injection_ns.snapshot().sum.saturating_sub(before);
    let (t_traced, analysis) = traced?;
    let events = sink.events();
    for e in events.iter().filter(|e| e.name == "span") {
        let name = field(e, "name").unwrap_or("span");
        report
            .spans
            .record(name, e.t_us.saturating_sub(dur_us(e)), e.t_us);
    }
    report.spans.exit(span);
    report.attempted += analysis.campaign.cells.len() as u64;
    report.failed += analysis.campaign.failures.len() as u64;

    // Gates: the traced answer equals the untraced one, and the checkpoint
    // it wrote re-verifies offline.
    let traced_ckpt = std::fs::read(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    if traced_ckpt != ckpt_bytes {
        report
            .problems
            .push("traced checkpoint differs from the untraced one".to_owned());
    }
    let answer = answer_bytes(&analysis, Some(&ckpt))?;
    workloads::check_reference(w, seed, &answer, &mut report.problems);
    let injections = analysis.campaign.total_samples();
    match gates::reverify_checkpoint(w.plan(), &ckpt) {
        Ok(n) if n == injections => {}
        Ok(n) => report.problems.push(format!(
            "checkpoint records {n} injections, the campaign {injections}"
        )),
        Err(e) => report.problems.push(e),
    }

    let waves: Vec<&OwnedEvent> = events
        .iter()
        .filter(|e| e.name == "campaign.wave")
        .collect();
    let first = waves
        .first()
        .copied()
        .or_else(|| events.iter().find(|e| e.name == "campaign.start"))
        .ok_or("traced campaign emitted no campaign.start")?;
    let campaign_end = span_events(&events, "analysis.campaign")
        .next()
        .ok_or("traced campaign emitted no analysis.campaign span")?;
    let fit = span_events(&events, "analysis.fit")
        .next()
        .ok_or("traced campaign emitted no analysis.fit span")?;
    let waves_s = campaign_end.t_us.saturating_sub(first.t_us) as f64 / 1e6;
    let injections = injections.max(1) as f64;
    report.push1(
        "phase.plan_ms",
        "ms",
        first.t_us.saturating_sub(entry) as f64 / 1e3,
    );
    report.push1("phase.waves_s", "s", waves_s);
    report.push1("phase.waves", "count", waves.len().max(1) as f64);
    report.push1("phase.fit_ms", "ms", dur_us(fit) as f64 / 1e3);
    report.push1("phase.us_per_injection", "us", waves_s * 1e6 / injections);
    report.push1(
        "par.busy_frac",
        "ratio",
        busy_ns as f64 / (waves_s.max(1e-9) * 1e9 * THREADS as f64),
    );
    report.push1("ckpt.bytes", "B", ckpt_bytes.len() as f64);
    report.push1(
        "ckpt.overhead_ms",
        "ms",
        (median(&t_ckpt) - median(&t_plain)) * 1e3,
    );
    report.push1(
        "trace.overhead_frac",
        "ratio",
        t_traced / median(&t_ckpt) - 1.0,
    );
    Ok(analysis)
}

/// Seconds of one untraced `analyze` call.
fn untraced_rep(d: &Deployed, spec: &CampaignSpec, report: &mut RunReport) -> Result<f64, String> {
    let (secs, a) = timed_analyze(d, spec)?;
    report.attempted += a.campaign.cells.len() as u64;
    report.failed += a.campaign.failures.len() as u64;
    Ok(secs)
}

/// One stratum of the campaign's answer: where it injected, with which
/// model, and how many times.
struct Stratum {
    node: usize,
    model: SoftwareFaultModel,
    n: usize,
}

fn strata(analysis: &ResilienceAnalysis) -> Vec<Stratum> {
    analysis
        .campaign
        .cells
        .iter()
        .filter(|c| c.samples > 0)
        .map(|c| Stratum {
            node: c.node,
            model: c.model,
            n: c.samples,
        })
        .collect()
}

/// Replay injections per stratum, in proportion to its n.
fn quotas(strata: &[Stratum]) -> Vec<usize> {
    let total: usize = strata.iter().map(|s| s.n).sum::<usize>().max(1);
    strata
        .iter()
        .map(|s| ((REPLAY * s.n + total / 2) / total).max(1))
        .collect()
}

fn replay_rng(seed: u64, stratum: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (stratum as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-node accumulators of the decomposed replay.
#[derive(Default, Clone, Copy)]
struct NodeCost {
    injections: usize,
    walks: usize,
    sample_us: f64,
    cone_us: f64,
    metric_us: f64,
}

/// Single-thread replay of the campaign's stratum mix, three ways over the
/// same RNG streams: through `BatchedInjectionRunner::run` (the production
/// path), decomposed into `apply_model_sparse` + `Engine::resume_delta`
/// with the judge timed inside, and through `inject_once_pooled` with no
/// golden overlay (the dense path). The first two must agree on every
/// outcome.
fn replay(
    d: &Deployed,
    analysis: &ResilienceAnalysis,
    seed: u64,
    report: &mut RunReport,
) -> Result<(), String> {
    let strata = strata(analysis);
    let quotas = quotas(&strata);
    let (engine, trace, metric) = (&d.engine, &d.trace, d.metric.as_ref());
    let err = |e: fidelity_dnn::DnnError| format!("replay: {e}");

    let span = report.spans.enter("replay.batched");
    let mut runner = BatchedInjectionRunner::new(BATCH);
    let mut times: Vec<Vec<f64>> = Vec::with_capacity(strata.len());
    let mut outcomes = Vec::with_capacity(REPLAY);
    for (h, (s, &q)) in strata.iter().zip(&quotas).enumerate() {
        let mut rng = replay_rng(seed, h);
        let mut t_h = Vec::with_capacity(q);
        for _ in 0..q {
            let t = Instant::now();
            let inj = runner
                .run(engine, trace, s.node, s.model, metric, &mut rng, None)
                .map_err(err)?;
            t_h.push(micros(t));
            outcomes.push(inj.outcome);
        }
        times.push(t_h);
    }
    report.spans.exit(span);
    let stats = runner.stats();

    let span = report.spans.enter("replay.decomposed");
    let mut ws = Workspace::new();
    ws.install_golden(golden_key(trace), &trace.node_outputs);
    let mut per_node: Vec<NodeCost> = vec![NodeCost::default(); engine.network().node_count()];
    let (mut masked_at_layer, mut mismatches, mut i) = (0usize, 0usize, 0usize);
    for (h, (s, &q)) in strata.iter().zip(&quotas).enumerate() {
        let mut rng = replay_rng(seed, h);
        for _ in 0..q {
            let cost = &mut per_node[s.node];
            let t = Instant::now();
            let effect =
                apply_model_sparse(s.model, engine, trace, s.node, &mut rng).map_err(err)?;
            cost.sample_us += micros(t);
            cost.injections += 1;
            let outcome = match effect {
                SparseEffect::Masked => {
                    masked_at_layer += 1;
                    Outcome::Masked
                }
                SparseEffect::SystemFailure => Outcome::SystemAnomaly,
                SparseEffect::Layer(f) => {
                    let mut judge_us = 0.0;
                    let t = Instant::now();
                    let correct = engine
                        .resume_delta(trace, s.node, &f.neurons, &f.values, None, &mut ws, |out| {
                            let tj = Instant::now();
                            let ok = metric.is_correct(&trace.output, out);
                            judge_us = micros(tj);
                            ok
                        })
                        .map_err(err)?;
                    cost.cone_us += micros(t) - judge_us;
                    cost.metric_us += judge_us;
                    cost.walks += 1;
                    if correct {
                        Outcome::Masked
                    } else {
                        Outcome::OutputError
                    }
                }
            };
            if outcomes.get(i) != Some(&outcome) {
                mismatches += 1;
            }
            i += 1;
        }
    }
    report.spans.exit(span);
    if mismatches > 0 {
        report.problems.push(format!(
            "replay: {mismatches} decomposed outcomes differ from BatchedInjectionRunner::run"
        ));
    }

    let span = report.spans.enter("replay.dense");
    let mut dense_ws = Workspace::new();
    let (mut dense_us, mut batched_us, mut dense_n) = (0.0, 0.0, 0usize);
    for (h, (s, &q)) in strata.iter().zip(&quotas).enumerate() {
        let mut rng = replay_rng(seed, h);
        // Same streams, so these are the first injections of the batched
        // pass, redone on the dense path.
        for batched in times[h].iter().take(q.div_ceil(DENSE_EVERY)) {
            let t = Instant::now();
            inject_once_pooled(
                engine,
                trace,
                s.node,
                s.model,
                metric,
                &mut rng,
                None,
                &mut dense_ws,
            )
            .map_err(err)?;
            dense_us += micros(t);
            batched_us += batched;
            dense_n += 1;
        }
    }
    report.spans.exit(span);

    let mut all: Vec<f64> = times.concat();
    all.sort_by(f64::total_cmp);
    let n = all.len().max(1) as f64;
    let totals = per_node.iter().fold(NodeCost::default(), |a, c| NodeCost {
        injections: a.injections + c.injections,
        walks: a.walks + c.walks,
        sample_us: a.sample_us + c.sample_us,
        cone_us: a.cone_us + c.cone_us,
        metric_us: a.metric_us + c.metric_us,
    });
    let walks = totals.walks.max(1) as f64;
    report.push1("inject.us_p50", "us", percentile(&all, 0.5));
    report.push1("inject.us_p99", "us", percentile(&all, 0.99));
    report.push1("inject.sample_us", "us", totals.sample_us / n);
    report.push1("inject.cone_us", "us", totals.cone_us / walks);
    report.push1("inject.metric_us", "us", totals.metric_us / walks);
    report.push1("inject.dense_us", "us", dense_us / dense_n.max(1) as f64);
    report.push1("inject.delta_speedup", "x", dense_us / batched_us.max(1e-9));
    report.push1(
        "inject.layer_masked_frac",
        "ratio",
        masked_at_layer as f64 / n,
    );
    report.push1(
        "inject.delta_frac",
        "ratio",
        stats.delta_eligible as f64 / stats.injections.max(1) as f64,
    );

    for s in &strata {
        if let Some(row) = report.nodes.iter_mut().find(|r| r.node == s.node) {
            row.stratum_n += s.n;
            continue;
        }
        let layer = engine.network().layer(s.node);
        let (cone_nodes, dense_nodes) = cone_of(engine, trace, s.node);
        let c = per_node[s.node];
        let per = |v: f64, k: usize| if k == 0 { 0.0 } else { v / k as f64 };
        report.nodes.push(NodeRow {
            node: s.node,
            layer: layer.name().to_owned(),
            kind: format!("{:?}", layer.kind()),
            stratum_n: s.n,
            cone_nodes,
            dense_nodes,
            sample_us: per(c.sample_us, c.injections),
            cone_us: per(c.cone_us, c.walks),
            metric_us: per(c.metric_us, c.walks),
        });
    }
    Ok(())
}

/// Nodes recomputed when `node` is corrupted, and how many of them have no
/// windowed path (`region_map` is `None`), so the walk runs a full forward
/// there.
fn cone_of(engine: &Engine, trace: &Trace, node: usize) -> (usize, usize) {
    let dense = (node + 1..engine.network().node_count())
        .filter(|&j| engine.depends_on(j, node))
        .filter(|&j| {
            let inputs = engine.node_inputs(j, trace);
            let shapes: Vec<&[usize]> = inputs.iter().map(|t| t.shape()).collect();
            engine
                .network()
                .layer(j)
                .region_map(&shapes, (0, 1), (0, 1))
                .is_none()
        })
        .count();
    (engine.downstream_count(node), dense)
}

/// Cone size and dense-fallback count per injection, weighted by stratum n
/// (global-control strata never walk a cone and are left out).
fn cone(d: &Deployed, analysis: &ResilienceAnalysis, report: &mut RunReport) {
    let (mut n, mut nodes, mut dense) = (0.0, 0.0, 0.0);
    for s in strata(analysis) {
        if matches!(s.model, SoftwareFaultModel::GlobalControl) {
            continue;
        }
        let (c, dn) = cone_of(&d.engine, &d.trace, s.node);
        n += s.n as f64;
        nodes += (s.n * c) as f64;
        dense += (s.n * dn) as f64;
    }
    let n = if n > 0.0 { n } else { 1.0 };
    report.push1("cone.nodes", "count", nodes / n);
    report.push1("cone.dense_nodes", "count", dense / n);
}

/// Median seconds per call of `f`, over at least 3 calls and 20 ms.
fn per_call(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < 0.02 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// `LANES` neurons at a time, each a chain of `a.len()` terms added in
/// ascending order as a separate multiply and add — the arithmetic of the
/// Bitwise tier (rustc never contracts `acc + x * w` into an FMA) with the
/// operands already packed in cache, so nothing but the multiply-adds is
/// left to cost time.
fn ceiling_loop(a: &[f32], b: &[f32], groups: usize) {
    let mut acc = [0.0f32; LANES];
    for _ in 0..groups {
        let a = std::hint::black_box(a);
        acc.fill(0.0);
        for (k, &av) in a.iter().enumerate() {
            for (acc_l, &bv) in acc.iter_mut().zip(&b[k * LANES..(k + 1) * LANES]) {
                *acc_l += av * bv;
            }
        }
        std::hint::black_box(&acc);
    }
}

/// MAC-weighted GMAC/s of every MAC layer's full Bitwise forward, of the
/// one-output-row window the delta path recomputes (layers without a
/// windowed kernel run their full forward there), and of the multiply-add
/// ceiling over the same neuron counts and term counts.
fn kernels(d: &Deployed, report: &mut RunReport) {
    let mut scratch = KernelScratch::new();
    let mut rng = SplitMix64::new(0xC0FF_EE00);
    let (mut full, mut window, mut ceiling) = ([0.0f64; 2], [0.0f64; 2], [0.0f64; 2]);
    for node in mac_nodes(&d.engine, &d.trace) {
        let Some((spec, input, weight)) = mac_operands(&d.engine, &d.trace, node) else {
            continue;
        };
        let ops = Operands { input, weight };
        let mut out = vec![0.0f32; spec.out_len()];
        let macs = spec.macs() as f64;
        let t = per_call(|| {
            spec.forward_into_scratch(&ops, std::hint::black_box(&mut out), &mut scratch);
        });
        full[0] += macs;
        full[1] += t;
        match &spec {
            MacSpec::Conv(c) if c.out_h() > 0 => {
                let r = c.out_h() / 2;
                let t = per_call(|| {
                    std::hint::black_box(spec.forward_region_into_scratch(
                        &ops,
                        &mut out,
                        &mut scratch,
                        (r, r + 1),
                        (0, c.out_w()),
                    ));
                });
                window[0] += macs / c.out_h() as f64;
                window[1] += t;
            }
            _ => {
                window[0] += macs;
                window[1] += t;
            }
        }
        let k = spec.kernel_steps();
        let groups = spec.out_len().div_ceil(LANES);
        let a: Vec<f32> = (0..k).map(|_| rng.next_symmetric(1.0)).collect();
        let b: Vec<f32> = (0..k * LANES).map(|_| rng.next_symmetric(1.0)).collect();
        ceiling[0] += (groups * LANES * k) as f64;
        ceiling[1] += per_call(|| ceiling_loop(&a, &b, groups));
    }
    let rate = |x: [f64; 2]| x[0] / x[1].max(1e-12) / 1e9;
    report.push1("kernel.gmacs", "GMAC/s", rate(full));
    report.push1("kernel.window_gmacs", "GMAC/s", rate(window));
    report.push1("kernel.ceiling_gmacs", "GMAC/s", rate(ceiling));
    report.push1(
        "kernel.frac_of_ceiling",
        "ratio",
        rate(full) / rate(ceiling).max(1e-12),
    );
}

/// The service path for this workload's campaign, traced: a daemon boot,
/// then the 24-job pass on serve-mobilenet or one job of the workload's
/// campaign otherwise. Queue wait and run time come from the daemon's own
/// `serve.submit`/`serve.start`/`serve.done` events.
fn served(w: Workload, seed: u64, tmp: &Path, report: &mut RunReport) -> Result<(), String> {
    let sink = Arc::new(MemorySink::new());
    fidelity_obs::install_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let result = (|| {
        let (daemon, boot_s) = Daemon::boot(tmp.join("served"))?;
        let runs: Vec<JobRun> = if w == Workload::ServeMobilenet {
            serve_load::pass(&daemon, &serve_load::submission_order(seed), report)
        } else {
            report.attempted += 1;
            vec![serve_load::run_job(&daemon, w, BUILD_SEED)?]
        };
        let journal = daemon.journal_bytes() as f64 / runs.len().max(1) as f64;
        daemon.shutdown()?;
        Ok::<_, String>((boot_s, runs, journal))
    })();
    fidelity_obs::clear_sink();
    fidelity_obs::set_timing(false);
    let (boot_s, runs, journal) = result?;
    let events = sink.events();
    let at = |name: &str, id: &str| {
        events
            .iter()
            .find(|e| e.name == name && field(e, "id") == Some(id))
            .map(|e| e.t_us)
    };
    let (mut queue_ms, mut run_s, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    for r in &runs {
        let (Some(submit), Some(start), Some(done)) = (
            at("serve.submit", &r.id),
            at("serve.start", &r.id),
            at("serve.done", &r.id),
        ) else {
            report
                .problems
                .push(format!("job {}: serve events missing from the trace", r.id));
            continue;
        };
        report.spans.record("serve.queue_wait", submit, start);
        report.spans.record("serve.run", start, done);
        let run_us = done.saturating_sub(start) as f64;
        queue_ms.push(start.saturating_sub(submit) as f64 / 1e3);
        run_s.push(run_us / 1e6);
        overhead_ms.push(r.latency_s * 1e3 - run_us / 1e3);
    }
    report.push1("serve.boot_ms", "ms", boot_s * 1e3);
    report.push("serve.queue_wait_ms", "ms", &queue_ms);
    report.push("serve.run_s", "s", &run_s);
    report.push("serve.overhead_ms", "ms", &overhead_ms);
    report.push1("serve.journal_bytes", "B", journal);
    Ok(())
}

/// Register-level reference: `RtlEngine::run` over random flip-flop sites of
/// the largest MAC layer that lifts to the register-level engine, against
/// the production software injection at the same node.
fn rtl(d: &Deployed, seed: u64, report: &mut RunReport) -> Result<(), String> {
    let (engine, trace) = (&d.engine, &d.trace);
    let (node, layer) = mac_nodes(engine, trace)
        .into_iter()
        .filter_map(|n| rtl_layer_for(engine, trace, n).map(|l| (n, l)))
        .max_by_key(|(n, _)| trace.node_outputs[*n].len())
        .ok_or("no MAC layer lifts to the register-level engine")?;
    let rtl = RtlEngine::new(layer, 16, 16);
    let mut rng = SplitMix64::new(seed ^ 0xF169);
    let sites = random_sites(&rtl, RTL_SITES, &mut rng);
    let t = Instant::now();
    for &site in &sites {
        std::hint::black_box(rtl.run(Disturbance::Ff(site)));
    }
    let rtl_us = micros(t) / RTL_SITES as f64;
    let mut runner = BatchedInjectionRunner::new(BATCH);
    let mut sw = Vec::with_capacity(RTL_SOFTWARE);
    for _ in 0..RTL_SOFTWARE {
        let t = Instant::now();
        runner
            .run(
                engine,
                trace,
                node,
                SoftwareFaultModel::OutputValue,
                d.metric.as_ref(),
                &mut rng,
                None,
            )
            .map_err(|e| format!("rtl reference: {e}"))?;
        sw.push(micros(t));
    }
    report.push1("rtl.inject_us", "us", rtl_us);
    report.push1("rtl.speedup", "x", rtl_us / median(&sw).max(1e-9));
    Ok(())
}
