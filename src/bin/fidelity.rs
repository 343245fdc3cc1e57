//! `fidelity` — command-line front end to the resilience-analysis framework.
//!
//! ```text
//! fidelity rfa      [--lanes N] [--hold N] [--eyeriss K T]
//! fidelity analyze  --network NAME [--precision fp16|int16|int8]
//!                   [--samples N] [--bounding SLACK] [--seed N]
//!                   [--jobs N] [--batch N]
//!                   [--adaptive] [--epsilon E] [--confidence C]
//!                   [--max-injections N]
//!                   [--checkpoint PATH] [--resume]
//! fidelity validate --network NAME [--layer NAME] [--sites N]
//! fidelity protect  --network NAME [--target FIT] [--samples N]
//! fidelity report   --trace FILE | --cert FILE
//! fidelity statcheck [--preset NAME] [--cert FILE]
//! fidelity lint     [--root PATH]...
//! fidelity concheck [--root PATH]...
//! ```
//!
//! Telemetry flags (accepted by `analyze`, `validate`, and `protect`):
//! `--trace FILE` streams structured JSONL events, `--progress` renders a
//! live campaign status line on stderr, and `--metrics` prints a metrics
//! snapshot (counters, gauges, latency histograms) after the run.
//!
//! Networks: inception, resnet, mobilenet, yolo, transformer, lstm.

use std::collections::HashMap;
use std::process::ExitCode;

use fidelity::accel::dataflow::{EyerissDataflow, NvdlaDataflow};
use fidelity::core::adaptive::AdaptivePlan;
use fidelity::core::analysis::analyze;
use fidelity::core::campaign::CampaignSpec;
use fidelity::core::fit::{
    ff_fit_budget, ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION, PAPER_RAW_FIT_PER_MB,
};
use fidelity::core::protect::{default_costs, plan_selective_protection};
use fidelity::core::resilience::CheckpointSpec;
use fidelity::core::rfa::reuse_factor_analysis;
use fidelity::core::validate::{random_sites, rtl_layer_for, validate_many};
use fidelity::dnn::init::SplitMix64;
use fidelity::dnn::precision::Precision;
use fidelity::rtl::RtlEngine;
use fidelity::workloads::Deployment;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // `report` reads an existing trace file; installing a sink on it would
    // truncate the input, so telemetry setup is skipped there.
    let telemetry = !matches!(command.as_str(), "report" | "help" | "--help" | "-h");
    if telemetry {
        if let Err(e) = setup_telemetry(&opts) {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let result = match command.as_str() {
        "rfa" => cmd_rfa(&opts),
        "analyze" => cmd_analyze(&opts),
        "validate" => cmd_validate(&opts),
        "protect" => cmd_protect(&opts),
        "report" => cmd_report(&opts),
        "serve" => cmd_serve(&opts),
        "top" => cmd_top(&opts),
        "statcheck" => cmd_statcheck(&opts),
        "lint" => cmd_lint(rest, &opts),
        "concheck" => cmd_concheck(rest, &opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    // Flush the trace sink (and print metrics) even when the command failed,
    // so abort events reach the trace file.
    let result = if telemetry {
        result.and(finish_telemetry(&opts))
    } else {
        result
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  fidelity rfa      [--lanes N] [--hold N] [--eyeriss K,T]
  fidelity analyze  --network NAME [--precision fp16|int16|int8]
                    [--samples N] [--bounding SLACK] [--seed N]
                    [--jobs N] [--batch N]
                    [--adaptive] [--epsilon E] [--confidence C]
                    [--max-injections N]
                    [--checkpoint PATH] [--resume]
  fidelity validate --network NAME [--layer NAME] [--sites N]
  fidelity protect  --network NAME [--target FIT] [--samples N] [--jobs N]
  fidelity report   --trace FILE | --cert FILE
  fidelity serve    [--addr HOST:PORT] [--state DIR] [--queue-cap N]
                    [--workers N] [--jobs N] [--smoke]
  fidelity top      [--addr HOST:PORT] [--interval-ms N] [--once]
  fidelity statcheck [--preset NAME] [--cert FILE]
  fidelity lint     [--root PATH]...
  fidelity concheck [--root PATH]...

telemetry (analyze | validate | protect):
  --trace FILE      write structured JSONL trace events to FILE
  --progress        live campaign status line on stderr
  --metrics         print a metrics snapshot after the run
  --profile FILE    write a collapsed-stack self-profile to FILE
                    (flamegraph.pl / speedscope compatible)

parallelism (analyze | protect):
  --jobs N          campaign worker threads (default: all cores); results
                    are bit-identical for any N

adaptive sampling (analyze):
  --adaptive        confidence-driven campaign: per-stratum Wilson CIs stop
                    sampling once the FIT bound resolves below ε; emits a
                    machine-checkable confidence certificate
  --epsilon E       target FIT half-width ε (default 0.005; implies
                    --adaptive)
  --confidence C    CI level: 0.90 | 0.95 (default) | 0.99
  --max-injections N  total-injection ceiling (default 1000000)

performance (analyze | protect):
  --batch N         batched fault-cone evaluation, on for any N > 0: keep a
                    golden snapshot per worker and evaluate injections as
                    sparse deltas (default 0 = off, the dense resume);
                    results are bit-identical either way

networks: inception | resnet | mobilenet | yolo | transformer | lstm";

/// Flags that take no value; their presence maps to `"true"`.
const BARE_FLAGS: &[&str] = &["resume", "progress", "metrics", "smoke", "once", "adaptive"];

/// Flags that take a value. A flag in neither list is refused by name, so a
/// mistyped or retired flag never silently runs with the default.
const VALUE_FLAGS: &[&str] = &[
    "addr",
    "batch",
    "bounding",
    "cert",
    "checkpoint",
    "confidence",
    "detail",
    "epsilon",
    "eyeriss",
    "hold",
    "interval-ms",
    "jobs",
    "lanes",
    "layer",
    "max-injections",
    "network",
    "precision",
    "preset",
    "profile",
    "queue-cap",
    "root",
    "samples",
    "seed",
    "sites",
    "state",
    "target",
    "trace",
    "workers",
];

/// Applies the shared telemetry flags before the command runs: `--trace FILE`
/// installs the JSONL sink, `--metrics` enables timing instrumentation.
fn setup_telemetry(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = opts.get("trace") {
        fidelity::obs::install_jsonl_sink(std::path::Path::new(path))
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    if opts.contains_key("metrics") {
        fidelity::obs::set_timing(true);
    }
    if opts.contains_key("profile") {
        fidelity::obs::prof::set_enabled(true);
    }
    Ok(())
}

/// Tears telemetry down after the command: flushes the trace sink (surfacing
/// write errors), prints the metrics snapshot when `--metrics` was given, and
/// writes the collapsed-stack self-profile when `--profile FILE` was given.
fn finish_telemetry(opts: &HashMap<String, String>) -> Result<(), String> {
    let flushed = if opts.contains_key("trace") {
        fidelity::obs::flush().map_err(|e| format!("trace flush: {e}"))
    } else {
        Ok(())
    };
    if opts.contains_key("metrics") {
        print!("{}", fidelity::obs::metrics::snapshot());
    }
    if let Some(path) = opts.get("profile") {
        fidelity::obs::prof::set_enabled(false);
        std::fs::write(path, fidelity::obs::prof::collapsed())
            .map_err(|e| format!("--profile {path}: {e}"))?;
    }
    flushed
}

fn parse_opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        if BARE_FLAGS.contains(&key) {
            opts.insert(key.to_owned(), "true".to_owned());
            continue;
        }
        if !VALUE_FLAGS.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        opts.insert(key.to_owned(), value.clone());
    }
    Ok(opts)
}

fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

fn cmd_rfa(opts: &HashMap<String, String>) -> Result<(), String> {
    if let Some(spec) = opts.get("eyeriss") {
        let (k, t) = spec
            .split_once(',')
            .ok_or_else(|| "--eyeriss expects K,T".to_owned())?;
        let df = EyerissDataflow {
            k: k.trim().parse().map_err(|_| "bad K".to_owned())?,
            channel_reuse: t.trim().parse().map_err(|_| "bad T".to_owned())?,
        };
        for inputs in [
            df.example_b1(),
            df.example_b2(),
            df.example_b3(),
            df.private_input_rfa(),
            df.weight_broadcast_rfa(),
        ] {
            let r = reuse_factor_analysis(&inputs).map_err(|e| e.to_string())?;
            println!("{:<56} RF = {}", inputs.target, r.rf());
        }
        return Ok(());
    }
    let df = NvdlaDataflow {
        lanes: get(opts, "lanes", 16usize)?,
        weight_hold: get(opts, "hold", 16usize)?,
    };
    for inputs in [
        df.example_a1(),
        df.example_a2(),
        df.example_a3(),
        df.example_a4(),
    ] {
        let r = reuse_factor_analysis(&inputs).map_err(|e| e.to_string())?;
        println!("{:<56} RF = {}", inputs.target, r.rf());
    }
    Ok(())
}

fn deploy(opts: &HashMap<String, String>, seed: u64) -> Result<Deployment, String> {
    let name = opts
        .get("network")
        .ok_or_else(|| "--network is required".to_owned())?;
    let precision = opts
        .get("precision")
        .map_or(Ok(Precision::default()), |p| p.parse())?;
    let bounding = opts
        .get("bounding")
        .map(|slack| {
            slack
                .parse()
                .map_err(|_| "--bounding: bad slack".to_owned())
        })
        .transpose()?;
    fidelity::workloads::deploy(name, seed, precision, bounding)
}

fn spec_from(opts: &HashMap<String, String>) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec {
        samples_per_cell: get(opts, "samples", 200usize)?,
        seed: get(opts, "seed", 0xF1DEu64)?,
        ..CampaignSpec::default()
    };
    // `--jobs N` pins the worker count (default: available parallelism).
    // Campaign results are bit-identical for any value; the flag only trades
    // wall-clock for cores.
    if let Some(jobs) = opts.get("jobs") {
        let jobs: usize = jobs
            .parse()
            .map_err(|_| format!("--jobs: cannot parse `{jobs}`"))?;
        if jobs == 0 {
            return Err("--jobs must be at least 1".to_owned());
        }
        spec.threads = jobs;
    }
    if opts.contains_key("progress") {
        spec.progress = Some(fidelity::obs::progress::ProgressSpec::default());
    }
    // `--batch N` with any N > 0 turns on batched fault-cone evaluation:
    // workers keep a golden snapshot and evaluate injections as sparse
    // deltas. Results are bit-identical with or without it; the flag only
    // trades memory for speed.
    if let Some(batch) = opts.get("batch") {
        spec.batch = batch
            .parse()
            .map_err(|_| format!("--batch: cannot parse `{batch}`"))?;
    }
    // `--adaptive` switches the campaign to confidence-driven wave sampling:
    // per-stratum Wilson intervals terminate sampling once the total FIT
    // uncertainty resolves below ε. `--samples` is ignored in this mode;
    // `--epsilon` alone also implies it.
    if opts.contains_key("adaptive") || opts.contains_key("epsilon") {
        let mut plan = AdaptivePlan::new(get(opts, "epsilon", 0.005f64)?);
        plan.confidence = get(opts, "confidence", plan.confidence)?;
        plan.max_injections = get(opts, "max-injections", plan.max_injections)?;
        plan.validated_z().map_err(|e| e.to_string())?;
        spec.adaptive = Some(plan);
    }
    match (opts.get("checkpoint"), opts.contains_key("resume")) {
        (Some(path), resume) => {
            spec.resilience.checkpoint = Some(if resume {
                CheckpointSpec::resuming(path)
            } else {
                CheckpointSpec::new(path)
            });
        }
        (None, true) => return Err("--resume requires --checkpoint PATH".to_owned()),
        (None, false) => {}
    }
    Ok(spec)
}

fn cmd_analyze(opts: &HashMap<String, String>) -> Result<(), String> {
    let seed = get(opts, "seed", 42u64)?;
    let (engine, trace, metric) = deploy(opts, seed)?;
    let accel = fidelity::accel::presets::nvdla_like();
    let analysis = analyze(
        &engine,
        &trace,
        &accel,
        metric.as_ref(),
        PAPER_RAW_FIT_PER_MB,
        &spec_from(opts)?,
    )
    .map_err(|e| e.to_string())?;
    let f = &analysis.fit;
    println!(
        "Accelerator_FIT_rate = {:.3}  (datapath {:.3}, local {:.3}, global {:.3})",
        f.total, f.datapath, f.local, f.global
    );
    println!(
        "with global control protected: {:.3}",
        analysis.fit_global_protected.total
    );
    let budget = ff_fit_budget(ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION);
    println!(
        "ASIL-D FF budget {budget}: {}",
        if f.total > budget {
            format!("{:.0}x over", f.total / budget)
        } else {
            "within budget".to_owned()
        }
    );
    for term in &analysis.layer_terms {
        println!(
            "  layer {:<28} exec {:>8} cycles",
            term.name, term.exec_cycles
        );
    }
    if let Some(cert) = &analysis.campaign.certificate {
        println!("\n{}", cert.render());
    }
    if opts.get("detail").map(String::as_str) == Some("true") {
        println!(
            "\n{}",
            fidelity::core::report::campaign_table(&analysis.campaign)
        );
    }
    Ok(())
}

fn cmd_validate(opts: &HashMap<String, String>) -> Result<(), String> {
    let seed = get(opts, "seed", 42u64)?;
    let (engine, trace, _) = deploy(opts, seed)?;
    let node = match opts.get("layer") {
        Some(name) => engine
            .network()
            .node_index(name)
            .ok_or_else(|| format!("layer `{name}` not found"))?,
        None => (0..engine.network().node_count())
            .filter(|&i| engine.mac_spec(i, &trace).is_some())
            .max_by_key(|&i| trace.node_outputs[i].len())
            .ok_or_else(|| "network has no MAC layer".to_owned())?,
    };
    let layer = rtl_layer_for(&engine, &trace, node)
        .ok_or_else(|| "layer does not lift to the register-level engine".to_owned())?;
    let rtl = RtlEngine::new(layer, 16, 16);
    let mut rng = SplitMix64::new(seed);
    let sites = random_sites(&rtl, get(opts, "sites", 1000usize)?, &mut rng);
    let report = validate_many(&rtl, &sites);
    println!(
        "sites {}  masked-agreed {}  datapath {}/{} exact  local {}/{}  global {} ({} masked)  timeouts {}",
        report.total,
        report.masked_agreed,
        report.datapath_exact,
        report.datapath_cases,
        report.local_match,
        report.local_cases,
        report.global_cases,
        report.global_masked,
        report.timeouts
    );
    if report.mismatches.is_empty() {
        println!("NO MISMATCHES — models validated");
        Ok(())
    } else {
        Err(format!("{} mismatches", report.mismatches.len()))
    }
}

fn cmd_report(opts: &HashMap<String, String>) -> Result<(), String> {
    // `--cert PATH` renders an adaptive campaign's confidence certificate
    // (per-stratum convergence table) from its checkpoint, re-verifying the
    // stored bounds in the process.
    if let Some(path) = opts.get("cert") {
        let cert = fidelity::core::adaptive::verify_checkpoint_file(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{}", cert.render());
        return Ok(());
    }
    let path = opts
        .get("trace")
        .ok_or_else(|| "report requires --trace FILE or --cert FILE".to_owned())?;
    let summary = fidelity::obs::report::summarize_file(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("{summary}");
    Ok(())
}

/// `fidelity serve`: boots the crash-tolerant campaign daemon. With
/// `--smoke`, boots on an ephemeral port, exercises the full API against
/// itself (submit, poll, stream, shutdown), and exits — the CI gate for the
/// service layer.
fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let default_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let smoke = opts.contains_key("smoke");
    let state_dir = match opts.get("state") {
        Some(path) => std::path::PathBuf::from(path),
        None if smoke => {
            std::env::temp_dir().join(format!("fidelity-serve-smoke-{}", std::process::id()))
        }
        None => std::path::PathBuf::from("fidelity-serve-state"),
    };
    let cfg = fidelity::serve::ServeConfig {
        state_dir,
        queue_cap: get(opts, "queue-cap", 8)?,
        workers: get(opts, "workers", 1)?,
        campaign_threads: get(opts, "jobs", default_threads)?,
        chaos: Vec::new(),
    };
    // Latency histograms on /metrics are only as good as their clock: the
    // daemon always arms timing instrumentation.
    fidelity::obs::set_timing(true);
    if smoke {
        return serve_smoke(cfg);
    }
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7350".to_owned());
    let sup = fidelity::serve::Supervisor::start(cfg)?;
    if sup.recovered_jobs() > 0 {
        println!(
            "recovered {} unfinished job(s) from the journal",
            sup.recovered_jobs()
        );
    }
    let handle = fidelity::serve::serve(sup, &addr)?;
    println!("listening on {}", handle.addr());
    println!("POST /shutdown to drain and exit");
    handle.wait();
    println!("drained; all accepted work is journaled");
    Ok(())
}

/// `fidelity top`: live terminal dashboard over a running daemon. With
/// `--once`, prints one frame and exits (scriptable / CI smoke).
fn cmd_top(opts: &HashMap<String, String>) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7350".to_owned());
    let interval_ms: u64 = get(opts, "interval-ms", 1000)?;
    fidelity::serve::top::run(
        &addr,
        opts.contains_key("once"),
        std::time::Duration::from_millis(interval_ms.max(100)),
    )
}

/// One full self-exercise of the running service, used by `--smoke` and CI:
/// boot → health → submit → stream an event → poll to completion → resubmit
/// (must dedup) → graceful shutdown.
fn serve_smoke(cfg: fidelity::serve::ServeConfig) -> Result<(), String> {
    let state_dir = cfg.state_dir.clone();
    let sup = fidelity::serve::Supervisor::start(cfg)?;
    let handle = fidelity::serve::serve(sup, "127.0.0.1:0")?;
    println!("smoke: listening on {}", handle.addr());
    let client = fidelity::serve::Client::new(handle.addr().to_string());

    let health = client.healthz()?;
    if health.status != 200 {
        return Err(format!("smoke: healthz {} {}", health.status, health.body));
    }
    for key in [
        "\"uptime_secs\":",
        "\"queue_headroom\":",
        "\"workers_alive\":",
    ] {
        if !health.body.contains(key) {
            return Err(format!("smoke: healthz missing {key}: {}", health.body));
        }
    }
    let spec = "{\"network\":\"lstm\",\"samples\":25,\"seed\":7}";
    let reply = client.submit(spec)?;
    if reply.status != 202 {
        return Err(format!("smoke: submit {} {}", reply.status, reply.body));
    }
    let id = reply
        .body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .ok_or_else(|| format!("smoke: no id in {}", reply.body))?
        .to_owned();
    println!("smoke: accepted job {id}");

    // Scrape /metrics while the job runs: the export must parse strictly
    // even mid-campaign (concurrent counter updates), and a second scrape
    // must be monotone on every counter.
    let scrape = |label: &str| -> Result<fidelity::obs::prom::PromDump, String> {
        let reply = client.request("GET", "/metrics", None)?;
        if reply.status != 200 {
            return Err(format!("smoke: metrics {} {}", reply.status, reply.body));
        }
        fidelity::obs::prom::parse(&reply.body).map_err(|e| format!("smoke: metrics {label}: {e}"))
    };
    let first = scrape("first")?;
    let status = client.wait_terminal(&id, 600, std::time::Duration::from_millis(50))?;
    if !status.contains("\"state\":\"done\"") || !status.contains("\"fit_total\":") {
        return Err(format!("smoke: job did not finish cleanly: {status}"));
    }
    println!("smoke: job done");
    let second = scrape("second")?;
    for counter in ["serve_jobs_submitted", "serve_http_requests_metrics"] {
        let (a, b) = (
            first.scalar(counter).unwrap_or(0.0),
            second.scalar(counter).unwrap_or(0.0),
        );
        if b < a {
            return Err(format!(
                "smoke: counter {counter} went backwards: {a} -> {b}"
            ));
        }
    }
    if second.scalar("serve_jobs_submitted").unwrap_or(0.0) < 1.0 {
        return Err("smoke: serve_jobs_submitted never counted".to_owned());
    }
    if second.scalar("campaign_injections").unwrap_or(0.0) < 1.0 {
        return Err("smoke: campaign_injections never counted".to_owned());
    }
    println!("smoke: /metrics parses strictly and counters are monotone");

    // The job's trace file is served over the API and carries its
    // deterministic trace id on every line.
    let trace = client.request("GET", &format!("/campaigns/{id}/trace"), None)?;
    if trace.status != 200 {
        return Err(format!("smoke: trace {} {}", trace.status, trace.body));
    }
    let want_trace_id = fidelity::serve::jobtrace::trace_id(&id);
    let mut lines = 0usize;
    for line in trace.body.lines().filter(|l| !l.is_empty()) {
        if !line.contains(&want_trace_id) {
            return Err(format!(
                "smoke: trace line missing id {want_trace_id}: {line}"
            ));
        }
        lines += 1;
    }
    if lines < 3 {
        return Err(format!("smoke: trace too short ({lines} lines)"));
    }
    println!("smoke: trace endpoint served {lines} records with trace id {want_trace_id}");

    // The `top` dashboard renders one frame from the same endpoints.
    let frame = fidelity::serve::top::fetch(&client)?;
    let rendered = fidelity::serve::top::render(&frame, None);
    if !rendered.contains("fidelity top") || !rendered.contains(&id) {
        return Err(format!("smoke: top frame incomplete:\n{rendered}"));
    }
    println!("smoke: top rendered a frame");

    let event = client.stream_one_event(&id)?;
    if !event.starts_with('{') {
        return Err(format!("smoke: bad event line `{event}`"));
    }
    println!("smoke: streamed one progress event");

    let again = client.submit(spec)?;
    if again.status != 200 || !again.body.contains("\"state\":\"done\"") {
        return Err(format!(
            "smoke: duplicate submit was not deduplicated: {} {}",
            again.status, again.body
        ));
    }
    println!("smoke: duplicate submit answered from the record");

    let reply = client.shutdown()?;
    if reply.status != 202 {
        return Err(format!("smoke: shutdown {} {}", reply.status, reply.body));
    }
    handle.wait();
    if client.healthz().is_ok() {
        return Err("smoke: daemon still listening after drain".to_owned());
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    println!("serve smoke: PASS");
    Ok(())
}

fn cmd_statcheck(opts: &HashMap<String, String>) -> Result<(), String> {
    // `--cert PATH` re-verifies an adaptive campaign's confidence
    // certificate offline: every CI and FIT bound is recomputed from the
    // checkpoint's raw tallies and compared bit-for-bit against the stored
    // footer.
    if let Some(path) = opts.get("cert") {
        let cert = fidelity::core::adaptive::verify_checkpoint_file(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "certificate OK: fingerprint {:016x}, {} strata, {} injections over {} waves, \
             FIT {:.3} ± {:.3} ({}; ε = {})",
            cert.fingerprint,
            cert.strata.len(),
            cert.total_injections,
            cert.waves,
            cert.total_fit,
            cert.total_bound,
            if cert.converged {
                "converged"
            } else {
                "NOT converged"
            },
            cert.plan.epsilon,
        );
        return Ok(());
    }
    let report = match opts.get("preset") {
        Some(name) => {
            let cfg = fidelity::accel::presets::all()
                .into_iter()
                .find(|c| c.name == *name)
                .ok_or_else(|| format!("unknown preset `{name}`"))?;
            fidelity::statcheck::verifier::verify_preset(&cfg)
        }
        None => fidelity::statcheck::verifier::verify_all(),
    };
    println!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "statcheck failed: {} error(s)",
            report.error_count()
        ))
    }
}

fn cmd_lint(args: &[String], _opts: &HashMap<String, String>) -> Result<(), String> {
    // `--root` may repeat, which the flag map cannot express; read it from
    // the raw argument list instead.
    let mut roots: Vec<std::path::PathBuf> = args
        .iter()
        .zip(args.iter().skip(1))
        .filter(|(flag, _)| flag.as_str() == "--root")
        .map(|(_, value)| std::path::PathBuf::from(value))
        .collect();
    if roots.is_empty() {
        roots = [
            "crates/core",
            "crates/dnn",
            "crates/rtl",
            "crates/obs",
            "crates/par",
            "crates/serve",
        ]
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
        if !roots.iter().all(|r| r.is_dir()) {
            return Err(
                "default lint roots not found; run from the workspace root or pass --root PATH"
                    .to_owned(),
            );
        }
    }
    let config = fidelity::statcheck::lint::LintConfig::default();
    let findings = fidelity::statcheck::lint::lint_paths(&roots, &config)
        .map_err(|e| format!("lint failed: {e}"))?;
    for f in &findings {
        println!("{f}");
    }
    // Warnings are errors: a single nondeterminism finding fails the gate.
    if findings.is_empty() {
        println!("determinism lint: clean");
        Ok(())
    } else {
        Err(format!("determinism lint: {} finding(s)", findings.len()))
    }
}

fn cmd_concheck(args: &[String], _opts: &HashMap<String, String>) -> Result<(), String> {
    // Same `--root` handling as `lint`: the flag may repeat.
    let mut roots: Vec<std::path::PathBuf> = args
        .iter()
        .zip(args.iter().skip(1))
        .filter(|(flag, _)| flag.as_str() == "--root")
        .map(|(_, value)| std::path::PathBuf::from(value))
        .collect();
    if roots.is_empty() {
        roots = [
            "crates/core",
            "crates/dnn",
            "crates/rtl",
            "crates/obs",
            "crates/par",
            "crates/serve",
        ]
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
        if !roots.iter().all(|r| r.is_dir()) {
            return Err(
                "default concheck roots not found; run from the workspace root or pass --root PATH"
                    .to_owned(),
            );
        }
    }
    let config = fidelity::statcheck::concheck::ConcheckConfig::default();
    let report = fidelity::statcheck::concheck::concheck_paths(&roots, &config)
        .map_err(|e| format!("concheck failed: {e}"))?;
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "concheck: {} function(s), {} lock(s), {} order edge(s); atomics: {} counter, {} flag, {} handoff",
        report.functions,
        report.locks,
        report.edges,
        report.atomics.counters,
        report.atomics.flags,
        report.atomics.handoffs,
    );
    // Warnings are errors: one unjustified discipline violation fails the gate.
    if report.findings.is_empty() {
        println!("concurrency check: clean");
        Ok(())
    } else {
        Err(format!(
            "concurrency check: {} finding(s)",
            report.findings.len()
        ))
    }
}

fn cmd_protect(opts: &HashMap<String, String>) -> Result<(), String> {
    let seed = get(opts, "seed", 42u64)?;
    let (engine, trace, metric) = deploy(opts, seed)?;
    let accel = fidelity::accel::presets::nvdla_like();
    let analysis = analyze(
        &engine,
        &trace,
        &accel,
        metric.as_ref(),
        PAPER_RAW_FIT_PER_MB,
        &spec_from(opts)?,
    )
    .map_err(|e| e.to_string())?;
    let target = get(
        opts,
        "target",
        ff_fit_budget(ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION),
    )?;
    let costs = default_costs(accel.census.iter().map(|(c, _)| c));
    let plan =
        plan_selective_protection(&analysis.fit, &costs, |c| accel.census.fraction(c), target);
    println!(
        "FIT {:.3} -> {:.3} (target {target}, met: {}, area cost {:.1}%)",
        analysis.fit.total,
        plan.final_fit,
        plan.met_target,
        plan.total_cost * 100.0
    );
    for step in &plan.steps {
        println!(
            "  protect {:<34} -{:.3} FIT (cost {:.2}%)",
            step.category.to_string(),
            step.fit_removed,
            step.cost * 100.0
        );
    }
    Ok(())
}
