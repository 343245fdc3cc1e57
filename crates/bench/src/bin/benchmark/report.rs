//! What one run reports: metrics, gate problems, spans and the per-node
//! table, and their JSON forms (the result line that ends standard output
//! and the fuller record `--out` appends).

use std::collections::BTreeMap;

use fidelity_obs::clock;
use fidelity_obs::json::{self, Json};

use crate::stats::Summary;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// A span the benchmark recorded around one call into a layer, or one the
/// program emitted (imported from the in-memory trace sink). Times are
/// microseconds on the program's trace clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory while a traced run executes; written out at the end.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = clock::since_epoch_us();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = clock::since_epoch_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already finished span under the innermost open span.
    pub fn record(&mut self, name: &str, start_us: u64, end_us: u64) {
        self.spans.push(Span {
            name: name.to_owned(),
            start_us,
            end_us,
            parent: self.open.last().copied(),
        });
    }
}

/// One row of the per-node cost table of a traced run.
#[derive(Debug, Clone)]
pub struct NodeRow {
    pub node: usize,
    pub layer: String,
    pub kind: String,
    pub stratum_n: usize,
    pub cone_nodes: usize,
    pub dense_nodes: usize,
    pub sample_us: f64,
    pub cone_us: f64,
    pub metric_us: f64,
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness-gate failures; the run is correct when this is empty.
    pub problems: Vec<String>,
    pub spans: Spans,
    pub nodes: Vec<NodeRow>,
}

impl RunReport {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        RunReport {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
            spans: Spans::default(),
            nodes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Adds a metric summarized from `samples` (a gate problem when empty).
    pub fn push(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        match Summary::of(samples) {
            Some(summary) => self.metrics.push(Metric {
                name,
                unit,
                summary,
            }),
            None => self.problems.push(format!("{name}: no samples")),
        }
    }

    /// Adds a single-valued metric.
    pub fn push1(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, &[value]);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as its median with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    obj([
                        ("value", Json::Num(m.summary.median)),
                        ("unit", Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        render(&obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// The `--out` record: the result plus quartiles, gate problems, and
    /// for traced runs the spans and the per-node table.
    pub fn record(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary;
                (
                    m.name.to_owned(),
                    obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(m.unit.to_owned())),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("min", Json::Num(s.min)),
                        ("max", Json::Num(s.max)),
                        ("n", Json::Num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|r| {
                obj([
                    ("node", Json::Num(r.node as f64)),
                    ("layer", Json::Str(r.layer.clone())),
                    ("kind", Json::Str(r.kind.clone())),
                    ("stratum_n", Json::Num(r.stratum_n as f64)),
                    ("cone_nodes", Json::Num(r.cone_nodes as f64)),
                    ("dense_nodes", Json::Num(r.dense_nodes as f64)),
                    ("sample_us", Json::Num(r.sample_us)),
                    ("cone_us", Json::Num(r.cone_us)),
                    ("metric_us", Json::Num(r.metric_us)),
                ])
            })
            .collect();
        render(&obj([
            ("workload", Json::Str(self.workload.to_owned())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("spans", Json::Arr(spans)),
            ("nodes", Json::Arr(nodes)),
        ]))
    }

    /// Human-readable summary (stderr): one line per metric with its
    /// quartiles, then for a traced run the per-node table and the span tree
    /// with each span's self time (its duration minus its children's).
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}): {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for m in &self.metrics {
            let s = m.summary;
            out.push_str(&format!(
                "  {:<26} {:>14.6} {:<8} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}\n",
                m.name, s.median, m.unit, s.q1, s.q3, s.min, s.max, s.n
            ));
        }
        if !self.nodes.is_empty() {
            out.push_str(&format!(
                "  {:>4} {:<24} {:<12} {:>8} {:>5} {:>5} {:>9} {:>9} {:>9}\n",
                "node", "layer", "kind", "n", "cone", "dense", "sample_us", "cone_us", "metric_us"
            ));
            for r in &self.nodes {
                out.push_str(&format!(
                    "  {:>4} {:<24} {:<12} {:>8} {:>5} {:>5} {:>9.2} {:>9.2} {:>9.2}\n",
                    r.node,
                    r.layer,
                    r.kind,
                    r.stratum_n,
                    r.cone_nodes,
                    r.dense_nodes,
                    r.sample_us,
                    r.cone_us,
                    r.metric_us
                ));
            }
        }
        if !self.spans.spans.is_empty() {
            out.push_str(&format!(
                "  {:<40} {:>12} {:>12}\n",
                "span", "ms", "self ms"
            ));
        }
        let spans = &self.spans.spans;
        for (id, s) in spans.iter().enumerate() {
            let depth = std::iter::successors(s.parent, |&p| spans[p].parent).count();
            let dur = s.end_us.saturating_sub(s.start_us);
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_us.saturating_sub(c.start_us))
                .sum();
            out.push_str(&format!(
                "  {:<40} {:>12.3} {:>12.3}\n",
                format!("{}{}", "  ".repeat(depth), s.name),
                dur as f64 / 1e3,
                dur.saturating_sub(children) as f64 / 1e3
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("  GATE FAILED: {p}\n"));
        }
        out
    }
}

pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// Compact single-line JSON.
pub fn render(j: &Json) -> String {
    let mut out = String::new();
    render_into(j, &mut out);
    out
}

fn render_into(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => json::number_into(out, *n),
        Json::Str(s) => json::escape_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::escape_into(out, k);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}
