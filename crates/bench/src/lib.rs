//! Shared plumbing for the experiment regenerators (one binary per paper
//! table/figure) and the Criterion benches.

#![warn(missing_docs)]

use fidelity_core::campaign::CampaignSpec;
use fidelity_core::resilience::CheckpointSpec;
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::precision::Precision;
use fidelity_workloads::Workload;

/// Injection samples per (layer × category) cell. Override with the
/// `FIDELITY_SAMPLES` environment variable; the default keeps every
/// regenerator comfortably under a minute while staying statistically
/// meaningful (Wilson 95% CI half-width ≲ 6 points per cell).
pub fn samples_per_cell() -> usize {
    std::env::var("FIDELITY_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
}

/// Validation sites per workload layer. Override with `FIDELITY_SITES`.
pub fn validation_sites() -> usize {
    std::env::var("FIDELITY_SITES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

/// Campaign worker threads for the regenerators: `--jobs N` on the command
/// line, else the `FIDELITY_JOBS` environment variable, else every core.
/// Campaigns are bit-identical for any value, so this only trades
/// wall-clock for cores.
pub fn jobs() -> usize {
    let argv: Vec<String> = std::env::args().collect();
    argv.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| argv.get(i + 1))
        .or_else(|| {
            argv.iter()
                .find_map(|a| a.strip_prefix("--jobs=").map(|_| a))
        })
        .map(|v| v.trim_start_matches("--jobs=").to_owned())
        .or_else(|| std::env::var("FIDELITY_JOBS").ok())
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
}

/// One string-valued option from `--NAME VALUE` / `--NAME=VALUE` on the
/// command line, else the environment variable `env`.
fn flag_or_env(flag: &str, env: &str) -> Option<String> {
    let argv: Vec<String> = std::env::args().collect();
    let long = format!("--{flag}");
    let prefixed = format!("--{flag}=");
    argv.iter()
        .position(|a| *a == long)
        .and_then(|i| argv.get(i + 1).cloned())
        .or_else(|| {
            argv.iter()
                .find_map(|a| a.strip_prefix(&prefixed).map(str::to_owned))
        })
        .or_else(|| std::env::var(env).ok())
}

/// Batched fault-cone evaluation cadence for the regenerators: `--batch N`
/// on the command line, else `FIDELITY_BATCH`, else 0 (off). Results are
/// bit-identical for any value — batching only trades memory for speed.
pub fn batch() -> usize {
    flag_or_env("batch", "FIDELITY_BATCH")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The campaign spec used by the figure regenerators. Enables the live
/// progress reporter when the binary was launched with `--progress`, and
/// honors `--jobs` / `FIDELITY_JOBS` for the worker count as well as
/// `--batch` / `FIDELITY_BATCH` for the evaluation policy.
pub fn campaign_spec(seed: u64, record_events: bool) -> CampaignSpec {
    CampaignSpec {
        samples_per_cell: samples_per_cell(),
        seed,
        threads: jobs(),
        record_events,
        resilience: Default::default(),
        progress: progress_requested().then(fidelity_obs::progress::ProgressSpec::default),
        batch: batch(),
        adaptive: None,
    }
}

/// True when the regenerator was launched with `--resume`: resume each
/// campaign from its `results/<tag>.ckpt` checkpoint instead of restarting.
pub fn resume_requested() -> bool {
    std::env::args().any(|a| a == "--resume")
}

/// True when the regenerator was launched with `--progress`.
pub fn progress_requested() -> bool {
    std::env::args().any(|a| a == "--progress")
}

/// Applies the shared telemetry flags to a regenerator binary. Call once at
/// the top of `main`:
///
/// * `--trace FILE` installs the JSONL trace sink;
/// * `--metrics` enables timing instrumentation (the snapshot prints from
///   [`finish_telemetry`]);
/// * `--progress` is consumed by [`campaign_spec`].
///
/// # Panics
///
/// Panics when `--trace` is missing its file argument or the sink cannot be
/// created — regenerators treat bad invocations as fatal.
pub fn init_telemetry() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let path = args
            .get(pos + 1)
            .filter(|p| !p.starts_with("--"))
            .unwrap_or_else(|| panic!("--trace requires a file path"));
        fidelity_obs::install_jsonl_sink(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("--trace {path}: {e}"));
    }
    if args.iter().any(|a| a == "--metrics") {
        fidelity_obs::set_timing(true);
    }
}

/// Tears telemetry down at the end of a regenerator: flushes the trace sink
/// (a flush failure is reported on stderr, not fatal) and prints the metrics
/// snapshot when `--metrics` was given.
pub fn finish_telemetry() {
    if let Err(e) = fidelity_obs::flush() {
        eprintln!("warning: {e}");
    }
    if std::env::args().any(|a| a == "--metrics") {
        print!("{}", fidelity_obs::metrics::snapshot());
    }
}

/// Like [`campaign_spec`], but checkpointing each campaign to
/// `results/<tag>.ckpt` so an interrupted regenerator can be relaunched with
/// `--resume` and skip every cell that already completed. `tag` must be
/// unique per campaign within a binary (the checkpoint fingerprint does not
/// cover deployment precision).
pub fn resilient_spec(tag: &str, seed: u64, record_events: bool) -> CampaignSpec {
    let mut spec = campaign_spec(seed, record_events);
    let path = std::path::Path::new("results").join(format!("{tag}.ckpt"));
    spec.resilience.checkpoint = Some(if resume_requested() {
        CheckpointSpec::resuming(path)
    } else {
        CheckpointSpec::new(path)
    });
    spec
}

/// Deploys a workload at a precision (calibrating integer scales on its own
/// input) and records the fault-free trace.
///
/// # Panics
///
/// Panics on graph errors — the workload topologies are fixed, so an error
/// here is a bug, not an input condition.
pub fn deploy(workload: Workload, precision: Precision) -> (Engine, Trace) {
    let calibration = vec![workload.inputs.clone()];
    let engine = Engine::new(workload.network, precision, &calibration)
        .unwrap_or_else(|e| panic!("deploying {}: {e}", workload.name));
    let trace = engine
        .trace(&workload.inputs)
        .unwrap_or_else(|e| panic!("tracing {}: {e}", workload.name));
    (engine, trace)
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

pub mod report {
    //! Machine-readable bench results.
    //!
    //! The perf benches (`injection_speed`, `inference`, the `speedup`
    //! regenerator) each merge their own section into one
    //! `BENCH_injection.json` at the workspace root, so a partial bench run
    //! updates only its rows and the file stays the union of the latest
    //! measurements. The format is the hand-rolled [`fidelity_obs::json`]
    //! value (the build is offline; no serde).

    use std::collections::BTreeMap;
    use std::path::PathBuf;

    use fidelity_obs::json::{self, Json};

    /// True when `FIDELITY_BENCH_QUICK` is set (and not `0`): the CI smoke
    /// mode — run the bitwise self-checks and a handful of timed reps, skip
    /// the full Criterion sweeps.
    pub fn quick() -> bool {
        std::env::var("FIDELITY_BENCH_QUICK").is_ok_and(|v| v != "0")
    }

    /// Where the report lives: `FIDELITY_BENCH_JSON` when set, else
    /// `BENCH_injection.json` at the workspace root (stable regardless of
    /// the working directory cargo gives a bench or a bin).
    pub fn path() -> PathBuf {
        std::env::var_os("FIDELITY_BENCH_JSON").map_or_else(
            || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_injection.json"),
            PathBuf::from,
        )
    }

    /// Builds a JSON object from literal key/value pairs.
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Inserts or replaces `section` at the top level of the report file,
    /// preserving every other section. A missing or unparsable file starts
    /// fresh; write failures warn on stderr (benches must not die on a
    /// read-only checkout).
    pub fn update(section: &str, value: Json) {
        let p = path();
        let mut root: BTreeMap<String, Json> = std::fs::read_to_string(&p)
            .ok()
            .and_then(|s| json::parse(&s).ok())
            .and_then(|j| match j {
                Json::Obj(m) => Some(m),
                _ => None,
            })
            .unwrap_or_default();
        root.insert(section.to_owned(), value);
        let mut out = String::new();
        render(&Json::Obj(root), &mut out, 0);
        out.push('\n');
        match std::fs::write(&p, out) {
            Ok(()) => eprintln!("wrote section `{section}` to {}", p.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", p.display()),
        }
    }

    /// Pretty-prints a JSON value (2-space indent, stable key order).
    pub fn render(j: &Json, out: &mut String, indent: usize) {
        match j {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => json::number_into(out, *n),
            Json::Str(s) => json::escape_into(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    render(item, out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    json::escape_into(out, k);
                    out.push_str(": ");
                    render(v, out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Mean and best of a set of per-rep nanosecond samples.
    pub fn mean_best(samples_ns: &[f64]) -> (f64, f64) {
        if samples_ns.is_empty() {
            return (0.0, 0.0);
        }
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let best = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
        (mean, best)
    }
}

pub mod gate {
    //! The bench regression gate: compares a fresh `BENCH_injection.json`
    //! against a committed baseline and fails on mean-per-injection (and
    //! other tracked mean) regressions beyond a tolerance.
    //!
    //! Pure comparison over two parsed reports — the `bench_gate` binary
    //! owns file I/O and process exit, so every rule here is unit-testable.

    use fidelity_obs::json::Json;

    /// Default allowed slowdown: a metric may grow by at most 15% before
    /// the gate fails.
    pub const DEFAULT_TOLERANCE: f64 = 0.15;

    /// One compared metric.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Delta {
        /// Dotted path into the report, e.g. `per_injection.fidelity_software_pooled.mean_ns`.
        pub metric: String,
        /// Baseline value (ns).
        pub baseline: f64,
        /// Current value (ns).
        pub current: f64,
        /// `current / baseline - 1`; positive is a slowdown.
        pub ratio: f64,
        /// Whether the slowdown exceeds the tolerance.
        pub regressed: bool,
    }

    /// The mean-valued metrics the gate tracks. Means, not bests: a best-of
    /// sample is a lower-bound estimator whose variance CI machines make
    /// useless, while the mean over the quick-mode reps is stable enough to
    /// gate on.
    const TRACKED: &[&[&str]] = &[
        &["per_injection", "fidelity_software_pooled", "mean_ns"],
        &["per_injection", "fidelity_software_pooled_dense", "mean_ns"],
        &["per_injection", "fidelity_software", "mean_ns"],
    ];

    fn lookup<'a>(root: &'a Json, path: &[&str]) -> Option<&'a Json> {
        path.iter().try_fold(root, |j, key| j.get(key))
    }

    /// Compares `current` against `baseline`, returning every tracked
    /// metric present in both. Metrics missing from either side are
    /// skipped (a partial bench run updates only its own sections).
    pub fn compare(baseline: &Json, current: &Json, tolerance: f64) -> Vec<Delta> {
        let mut out = Vec::new();
        for path in TRACKED {
            let (Some(b), Some(c)) = (
                lookup(baseline, path).and_then(Json::as_f64),
                lookup(current, path).and_then(Json::as_f64),
            ) else {
                continue;
            };
            if b <= 0.0 {
                continue; // a zero/negative baseline cannot express a ratio
            }
            let ratio = c / b - 1.0;
            out.push(Delta {
                metric: path.join("."),
                baseline: b,
                current: c,
                ratio,
                regressed: ratio > tolerance,
            });
        }
        out
    }

    /// Renders the comparison as the table the CI log shows.
    pub fn render(deltas: &[Delta], tolerance: f64) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "bench gate (tolerance {:+.0}%):", tolerance * 100.0);
        if deltas.is_empty() {
            s.push_str("  no tracked metrics in common — gate is vacuous\n");
        }
        for d in deltas {
            let _ = writeln!(
                s,
                "  {:<52} {:>12.0} -> {:>12.0} ns  {:+6.1}%  {}",
                d.metric,
                d.baseline,
                d.current,
                d.ratio * 100.0,
                if d.regressed { "REGRESSED" } else { "ok" }
            );
        }
        s
    }
}

/// Formats a FIT value with sensible precision.
pub fn fit(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_workloads::workload;

    #[test]
    fn deploy_all_precisions() {
        for precision in [Precision::Fp16, Precision::Int8] {
            let w = workload("inception", 1).expect("known network");
            let (engine, trace) = deploy(w, precision);
            assert_eq!(engine.precision(), precision);
            assert!(!trace.output.is_empty());
        }
    }

    #[test]
    fn fit_formatting() {
        assert_eq!(fit(123.4), "123");
        assert_eq!(fit(9.5), "9.50");
        assert_eq!(fit(0.123), "0.123");
    }

    #[test]
    fn report_render_round_trips() {
        use fidelity_obs::json::{parse, Json};
        let v = report::obj([
            ("mean_ns", Json::Num(123.5)),
            ("label", Json::Str("per_injection/fidelity_software".into())),
            (
                "kernels",
                Json::Arr(vec![report::obj([("layer", Json::Str("conv".into()))])]),
            ),
        ]);
        let mut s = String::new();
        report::render(&v, &mut s, 0);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn report_mean_best() {
        assert_eq!(report::mean_best(&[2.0, 4.0]), (3.0, 2.0));
        assert_eq!(report::mean_best(&[]), (0.0, 0.0));
    }

    #[test]
    fn gate_flags_regressions_beyond_tolerance() {
        use fidelity_obs::json::parse;
        let baseline = parse(
            r#"{"per_injection":{"fidelity_software_pooled":{"mean_ns":1000.0},
                "fidelity_software":{"mean_ns":2000.0}}}"#,
        )
        .unwrap();
        // Pooled regressed 20% (over the 15% gate); allocating improved.
        let current = parse(
            r#"{"per_injection":{"fidelity_software_pooled":{"mean_ns":1200.0},
                "fidelity_software":{"mean_ns":1800.0}}}"#,
        )
        .unwrap();
        let deltas = gate::compare(&baseline, &current, gate::DEFAULT_TOLERANCE);
        assert_eq!(deltas.len(), 2);
        assert!(deltas[0].regressed, "{deltas:?}");
        assert!(!deltas[1].regressed, "{deltas:?}");
        let table = gate::render(&deltas, gate::DEFAULT_TOLERANCE);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("fidelity_software_pooled"));
    }

    #[test]
    fn gate_skips_missing_metrics_and_is_vacuous_when_empty() {
        use fidelity_obs::json::parse;
        let empty = parse("{}").unwrap();
        let full =
            parse(r#"{"per_injection":{"fidelity_software_pooled":{"mean_ns":1000.0}}}"#).unwrap();
        assert!(gate::compare(&empty, &full, 0.15).is_empty());
        let table = gate::render(&[], 0.15);
        assert!(table.contains("vacuous"));
        // Within-tolerance growth passes.
        let slightly =
            parse(r#"{"per_injection":{"fidelity_software_pooled":{"mean_ns":1100.0}}}"#).unwrap();
        let deltas = gate::compare(&full, &slightly, 0.15);
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].regressed);
    }
}
