//! `--compare BASE CANDIDATE`: judges two sets of untraced runs (JSONL files
//! written with `--out`) metric by metric against the bounds in
//! `BENCHMARK.json`.

use std::path::Path;

use fidelity_obs::json::{self, Json};

use crate::stats::{verdict, worsening, Summary, Verdict};

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    let Some(Json::Arr(items)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("end_to_end entry without `{k}`"))
            };
            Ok(Declared {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// The untraced records of a `--out` file.
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if rec.get("trace") == Some(&Json::Bool(false)) {
            records.push(rec);
        }
    }
    Ok(records)
}

/// The per-run values (each run's median) of `metric` on `workload`.
fn values(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints one row per (workload, end-to-end metric) and returns whether
/// every verdict is ok.
pub fn run(base: &Path, candidate: &Path, bench: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let metrics = declared(&json::parse(&text)?)?;
    let (a, b) = (load(base)?, load(candidate)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(&b) {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    if workloads.is_empty() {
        return Err("no untraced runs to compare".to_owned());
    }
    println!(
        "{:<18} {:<12} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "base median", "spread", "cand median", "spread", "delta", "bound"
    );
    let mut all_ok = true;
    for w in &workloads {
        for m in &metrics {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            let v = verdict(&va, &vb, m.bound, m.lower_is_better);
            all_ok &= v == Verdict::Ok;
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let med = |s: Option<Summary>| s.map_or(f64::NAN, |s| s.median);
            let spread = |s: Option<Summary>| s.map_or(f64::NAN, |s| s.spread());
            let delta = match (sa, sb) {
                (Some(x), Some(y)) => worsening(x.median, y.median, m.lower_is_better),
                _ => f64::NAN,
            };
            println!(
                "{:<18} {:<12} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>+8.2}% {:>5.1}%  {} ({}; n {}/{})",
                w,
                m.name,
                med(sa),
                spread(sa) * 100.0,
                med(sb),
                spread(sb) * 100.0,
                delta * 100.0,
                m.bound * 100.0,
                v.as_str(),
                m.unit,
                va.len(),
                vb.len()
            );
        }
    }
    println!("delta: how much worse the candidate's median is (negative = better)");
    Ok(all_ok)
}
