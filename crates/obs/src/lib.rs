//! `fidelity-obs` — zero-dependency observability for the FIdelity
//! workspace: structured span/event tracing, atomic metrics, and live
//! campaign progress telemetry.
//!
//! The crate is built around one invariant: **instrumentation is free when
//! nobody is listening.** Every [`event!`] expands to a single relaxed
//! atomic load when no sink is installed, timing only reads the clock when
//! [`timing_enabled`] says a consumer asked for it
//! ([`clock::Stopwatch::start_if`]), and metrics counters are single
//! `fetch_add`s. The fault-injection hot paths in `fidelity-core`,
//! `fidelity-rtl`, and `fidelity-dnn` stay instrumented permanently and pay
//! for it only when `--trace` / `--metrics` / `--progress` are on.
//!
//! Layout:
//! - [`clock`] — the workspace's only sanctioned wall-clock site
//!   (monotonic, epoch-relative; the determinism lint bans the clock
//!   everywhere else).
//! - [`trace`] — typed events, the [`trace::TraceSink`] abstraction, and the
//!   JSONL file sink behind `--trace <file>`.
//! - [`metrics`] — counters / gauges / log2 histograms with a global
//!   registry snapshotted by `--metrics`.
//! - [`progress`] — the live stderr campaign progress line (`--progress`).
//! - [`prom`] — Prometheus text exposition: rendering [`metrics`] snapshots
//!   for `GET /metrics` and the strict parser that validates them.
//! - [`prof`] — the scoped phase self-profiler with collapsed-stack
//!   (flamegraph) export.
//! - [`report`] — trace summarization for `fidelity report --trace`.
//! - [`stats`] — the canonical Wilson-interval implementation.
//! - [`fnv`] — the workspace's one FNV-1a hasher.
//! - [`record_log`] — the checksummed append-only log under the campaign
//!   wave log and the serve journal.

pub mod clock;
pub mod fnv;
pub mod json;
pub mod metrics;
#[cfg(feature = "loom_model")]
pub mod modelcheck;
pub mod prof;
pub mod progress;
pub mod prom;
pub mod record_log;
pub mod report;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use trace::{Field, JsonlSink, TraceSink};

/// Fast-path flag mirroring "a sink is installed".
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Fast-path flag for "some consumer wants durations" (trace or metrics).
static TIMING: AtomicBool = AtomicBool::new(false);

type SinkSlot = RwLock<Option<Arc<dyn TraceSink>>>;

fn sink_slot() -> &'static SinkSlot {
    static SLOT: OnceLock<SinkSlot> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Whether a trace sink is installed. One relaxed load — the gate every
/// instrumentation site checks first.
#[inline]
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether duration measurement is wanted (a sink is installed, or
/// [`set_timing`] was called for `--metrics`). Gates clock reads via
/// [`clock::Stopwatch::start_if`].
#[inline]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Enables or disables duration measurement independently of tracing
/// (`--metrics` wants latency histograms without a trace file).
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Installs `sink` as the process-global trace sink (replacing any previous
/// one) and turns timing on.
pub fn install_sink(sink: Arc<dyn TraceSink>) {
    let mut slot = sink_slot().write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(sink);
    TIMING.store(true, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Creates a JSONL trace file at `path` and installs it as the global sink.
///
/// # Errors
///
/// Returns a description when the file cannot be created.
pub fn install_jsonl_sink(path: &Path) -> Result<(), String> {
    let sink = JsonlSink::create(path)?;
    install_sink(Arc::new(sink));
    Ok(())
}

/// Removes the global sink (subsequent events are no-ops). Timing stays as
/// configured so metrics keep their latency histograms.
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut slot = sink_slot().write().unwrap_or_else(PoisonError::into_inner);
    *slot = None;
}

/// Flushes the installed sink, if any.
///
/// # Errors
///
/// Propagates the sink's flush error (e.g. dropped-event counts from the
/// JSONL sink).
pub fn flush() -> Result<(), String> {
    let slot = sink_slot().read().unwrap_or_else(PoisonError::into_inner);
    match slot.as_ref() {
        Some(sink) => sink.flush(),
        None => Ok(()),
    }
}

/// Emits one event to the installed sink. Prefer the [`event!`] macro, which
/// checks [`trace_enabled`] before evaluating any field expression.
pub fn emit_event(name: &str, fields: &[Field<'_>]) {
    if !trace_enabled() {
        return;
    }
    let slot = sink_slot().read().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = slot.as_ref() {
        trace::record_now(sink.as_ref(), name, fields);
    }
}

/// Emits a structured trace event:
/// `event!("cell.done", node = id, cat = tag, masked = m)`.
///
/// Field values go through [`trace::Value::from`], so integers, floats,
/// `&str`, and `bool` all work. When no sink is installed the whole call is
/// one relaxed atomic load; field expressions are not evaluated.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::trace_enabled() {
            $crate::emit_event(
                $name,
                &[$((stringify!($key), $crate::trace::Value::from($val))),*],
            );
        }
    };
}

/// Times a scope and emits a `span` event with its duration on drop:
/// `let _span = span!("rfa.derive");`.
///
/// When tracing is off the guard is inert (no clock read, no event).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Guard returned by [`span!`]; emits `span { name, dur_us }` when dropped,
/// provided tracing was on when the scope was entered.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    stopwatch: clock::Stopwatch,
}

impl SpanGuard {
    /// Starts the span (reads the clock only when tracing is enabled).
    pub fn enter(name: &'static str) -> Self {
        SpanGuard {
            name,
            stopwatch: clock::Stopwatch::start_if(trace_enabled()),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(dur_us) = self.stopwatch.elapsed_us() {
            emit_event(
                "span",
                &[
                    ("name", trace::Value::Str(self.name)),
                    ("dur_us", trace::Value::U64(dur_us)),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::MemorySink;

    // The global sink is process-wide, so the facade tests share one `#[test]`
    // to avoid cross-test interference under the parallel test runner.
    #[test]
    fn facade_gates_and_delivers_events() {
        assert!(!trace_enabled());
        event!("dropped.event", x = 1u64); // no sink: must be a no-op

        let sink = Arc::new(MemorySink::new());
        install_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        assert!(trace_enabled());
        assert!(timing_enabled());

        event!("campaign.start", cells = 3u64, label = "unit");
        {
            let _span = span!("unit.scope");
        }
        clear_sink();
        event!("after.clear", x = 2u64);
        assert!(flush().is_ok());

        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "campaign.start");
        assert_eq!(events[1].name, "span");
        assert!(events[1].fields.iter().any(|(k, _)| k == "dur_us"));
        assert!(events.iter().all(|e| e.name != "after.clear"));
    }
}
