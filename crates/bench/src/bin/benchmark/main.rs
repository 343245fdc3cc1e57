//! `benchmark` — the bench of record for FIdelity: wall-clock and injections
//! to a certified FIT, broken down phase → injection → cone → kernel.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! benchmark --compare BASE.jsonl CANDIDATE.jsonl
//! ```
//!
//! Without `--workload` every workload runs in a fresh child process of this
//! binary, one at a time, so each reports its own peak memory. The last
//! line of standard output is the result object; with `--out` the run's
//! full record (quartiles, spans, per-node table) is appended to FILE.
//! See README.md for the workloads and metrics.

mod compare;
mod gates;
mod layers;
mod report;
mod serve_load;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use fidelity_obs::json::{self, Json};

use report::{obj, render, RunReport};
use workloads::Workload;

const USAGE: &str = "usage:
  benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
  benchmark --compare BASE.jsonl CANDIDATE.jsonl
workloads: cert-inception | cert-resnet | fixed-transformer | serve-mobilenet";

/// The benchmark's declaration (metrics, units, bounds), read from the
/// directory the benchmark runs in: the repository root.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("--seed: bad value `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad value `{v}`"))?;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                args.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((base, candidate)) = &args.compare {
        match compare::run(base, candidate, Path::new(BENCHMARK_JSON)) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        }
    } else if let Some(w) = args.workload {
        run_one(w, &args)
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scratch space for checkpoints and daemon state, beside the binary (so
/// inside the build directory), removed when the run ends.
fn scratch_dir(w: Workload) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join("benchmark-tmp")
        .join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs one workload in this process and prints its result.
fn run_one(w: Workload, args: &Args) -> bool {
    let mut report = RunReport::new(w.name(), args.seed, args.trace);
    let outcome = scratch_dir(w).and_then(|tmp| {
        let result = match (args.trace, w) {
            (true, _) => layers::traced(w, args.seed, &tmp, &mut report),
            (false, Workload::ServeMobilenet) => {
                serve_load::e2e_serve(args.seed, args.seconds, &tmp, &mut report)
            }
            (false, _) => workloads::e2e_campaign(w, args.seed, args.seconds, &tmp, &mut report),
        };
        // Best effort: a leftover scratch directory only costs disk.
        let _ = std::fs::remove_dir_all(&tmp);
        result
    });
    if let Err(e) = outcome {
        report.problems.push(e);
    }
    if !args.trace {
        match workloads::peak_rss_mb() {
            Some(mb) => report.push1("peak_rss_mb", "MB", mb),
            None => report.problems.push("VmHWM unavailable".to_owned()),
        }
    }
    check_declared(&mut report, Path::new(BENCHMARK_JSON));
    eprint!("{}", report.table());
    if let Some(path) = &args.out {
        if let Err(e) = append_line(path, &report.record()) {
            report.problems.push(e);
        }
    }
    println!("{}", report.result_line());
    report.correct()
}

/// Every metric `BENCHMARK.json` declares for this mode (`end_to_end`
/// untraced, `per_layer` traced) must be reported, with the declared unit.
/// Checked whenever the file is at hand, as it is from the repository root.
fn check_declared(report: &mut RunReport, bench: &Path) {
    let Ok(text) = std::fs::read_to_string(bench) else {
        return;
    };
    let key = if report.traced {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match json::parse(&text) {
        Ok(doc) => match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => Vec::new(),
        },
        Err(e) => {
            report.problems.push(format!("{}: {e}", bench.display()));
            return;
        }
    };
    for d in &declared {
        let name = d.get("name").and_then(Json::as_str).unwrap_or("?");
        let unit = d.get("unit").and_then(Json::as_str).unwrap_or("?");
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => {}
            Some(m) => report.problems.push(format!(
                "{name}: reported in {} but declared in {unit}",
                m.unit
            )),
            None => report
                .problems
                .push(format!("declared metric {name} was not measured")),
        }
    }
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in a fresh child process of this binary, one at a
/// time, then prints every metric of every workload by name with its unit.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: current_exe: {e}");
            return false;
        }
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = std::collections::BTreeMap::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        let result = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))
            .and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
                let line = stdout.lines().last().unwrap_or_default().to_owned();
                json::parse(&line)
                    .map(|doc| (o.status.success(), doc))
                    .map_err(|e| format!("{}: bad result line `{line}`: {e}", w.name()))
            });
        let (success, doc) = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                all_correct = false;
                continue;
            }
        };
        all_correct &= success && doc.get("correct") == Some(&Json::Bool(true));
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(m)) = doc.get("metrics") {
            for (name, v) in m {
                metrics.insert(format!("{}/{name}", w.name()), v.clone());
            }
        }
    }
    for (name, v) in &metrics {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<44} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        render(&obj([
            ("correct", Json::Bool(all_correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    );
    all_correct
}
