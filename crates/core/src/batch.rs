//! Batched fault-cone evaluation: amortize the golden forward pass over
//! many injections.
//!
//! A software injection only ever needs two things from the fault-free
//! baseline: the corrupted layer's clean output (to sample the fault
//! against) and the downstream tensors it perturbs. Both live in the
//! [`Trace`], which is computed once — but the *dense* resume path still
//! clones and splices a full corrupted tensor per injection. The batched
//! path instead installs a read-only golden snapshot of the trace in the
//! worker's [`Workspace`] and evaluates every injection as a sparse delta
//! over its downstream cone ([`Engine::resume_delta`]): only the faulty
//! offsets are patched, only the dirty regions of downstream tensors are
//! recomputed, and the snapshot is repaired bit-exactly afterwards.
//!
//! [`BatchedInjectionRunner`] owns that overlay: it decides, per
//! injection, between the delta walk and the dense resume. Every campaign
//! worker evaluates its injections through one
//! ([`crate::campaign::CampaignSpec::batch`] switches the delta walk on),
//! and so do callers that drive injections directly: differential test
//! sweeps, validation harnesses, custom samplers. It keys the overlay by
//! the trace's *golden key* (a process-local fingerprint of the baseline
//! tensors, see [`fidelity_dnn::graph::golden_key`]) and compares that key
//! with the workspace's before every injection. A mismatch means a group
//! switch or an overlay lost when an injection unwound mid-walk; either
//! way the runner re-installs the overlay, so every injection of an
//! enabled runner takes the delta walk. Its counters expose the machinery
//! (installs, group switches, delta walks) to tests.
//!
//! Determinism contract: batching is pure evaluation policy. The runner
//! never touches the caller's RNG, and the delta path produces bit-identical
//! outcomes, perturbation statistics, and (when requested) final outputs to
//! the dense path — guaranteed by [`Engine::resume_delta`]'s repair
//! invariants and checked end to end by `tests/batched_vs_serial.rs`.

use std::time::Instant;

use fidelity_dnn::graph::{golden_key, Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::workspace::Workspace;
use fidelity_dnn::DnnError;

use crate::inject::{inject_once_core, Injection, Resume};
use crate::models::SoftwareFaultModel;
use crate::outcome::CorrectnessMetric;

/// Counters describing how a [`BatchedInjectionRunner`] evaluated its
/// injections so far. Pure telemetry: none of these feed back into results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Injections run.
    pub injections: usize,
    /// Golden-snapshot installations (group switches plus re-installs
    /// after a lost overlay).
    pub installs: usize,
    /// Distinct group switches (the first install for a new golden key).
    pub groups: usize,
    /// Injections that took the delta walk over the installed snapshot.
    /// The remainder ran the dense resume path (a runner built with
    /// `batch == 0`).
    pub delta_eligible: usize,
}

/// Serial batched-injection driver: one [`Workspace`], one golden snapshot
/// at a time, grouped by trace identity.
///
/// ```
/// use fidelity_core::batch::BatchedInjectionRunner;
/// use fidelity_core::models::SoftwareFaultModel;
/// use fidelity_core::outcome::TopOneMatch;
/// use fidelity_dnn::init::SplitMix64;
/// # use fidelity_dnn::graph::NetworkBuilder;
/// # use fidelity_dnn::init::uniform_tensor;
/// # use fidelity_dnn::layers::{Dense, Flatten, GlobalAvgPool};
/// # use fidelity_dnn::precision::Precision;
/// # let net = NetworkBuilder::new("n")
/// #     .input("x")
/// #     .layer(GlobalAvgPool::new("gap"), &["x"]).unwrap()
/// #     .layer(Flatten::new("flat"), &["gap"]).unwrap()
/// #     .layer(Dense::new("fc", uniform_tensor(2, vec![3, 2], 0.6)).unwrap(), &["flat"]).unwrap()
/// #     .build().unwrap();
/// # let engine = fidelity_dnn::graph::Engine::new(net, Precision::Fp32, &[]).unwrap();
/// # let trace = engine.trace(&[uniform_tensor(3, vec![1, 2, 4, 4], 1.0)]).unwrap();
/// let mut runner = BatchedInjectionRunner::new(16);
/// let mut rng = SplitMix64::new(7);
/// let inj = runner
///     .run(&engine, &trace, 2, SoftwareFaultModel::OutputValue, &TopOneMatch, &mut rng, None)
///     .unwrap();
/// assert_eq!(runner.stats().groups, 1);
/// # let _ = inj;
/// ```
#[derive(Debug)]
pub struct BatchedInjectionRunner {
    ws: Workspace,
    /// Whether injections take the delta walk; `false` sends every one
    /// through the dense resume, which is what campaigns with `batch: 0` do.
    delta: bool,
    /// Key of the trace whose snapshot was installed last.
    current: Option<u64>,
    stats: BatchStats,
}

impl BatchedInjectionRunner {
    /// Creates a runner. Any `batch > 0` runs every injection as a delta
    /// walk over the golden snapshot; `0` runs every injection through the
    /// dense resume path.
    pub fn new(batch: usize) -> Self {
        BatchedInjectionRunner {
            ws: Workspace::new(),
            delta: batch > 0,
            current: None,
            stats: BatchStats::default(),
        }
    }

    /// Evaluation counters so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Runs one injection, installing the golden snapshot for `trace`'s
    /// group when the workspace does not hold it. Outcomes, RNG
    /// consumption, and statistics are bit-identical to
    /// [`crate::inject::inject_once_pooled`] on a fresh workspace.
    ///
    /// # Errors
    ///
    /// As for [`crate::inject::inject_once_pooled`]: `node` must be a MAC
    /// layer and propagation must succeed.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        engine: &Engine,
        trace: &Trace,
        node: usize,
        model: SoftwareFaultModel,
        metric: &dyn CorrectnessMetric,
        rng: &mut SplitMix64,
        deadline: Option<Instant>,
    ) -> Result<Injection, DnnError> {
        let key = golden_key(trace);
        self.run_keyed(key, engine, trace, node, model, metric, rng, deadline)
    }

    /// [`BatchedInjectionRunner::run`] with `trace`'s golden key supplied
    /// by a caller that holds one trace for many injections: hashing the
    /// trace costs 0.3–0.8 µs, a few percent of an injection.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_keyed(
        &mut self,
        key: u64,
        engine: &Engine,
        trace: &Trace,
        node: usize,
        model: SoftwareFaultModel,
        metric: &dyn CorrectnessMetric,
        rng: &mut SplitMix64,
        deadline: Option<Instant>,
    ) -> Result<Injection, DnnError> {
        self.stats.injections += 1;
        let resume = if self.delta {
            if self.ws.golden_key() != Some(key) {
                // A group switch, or an overlay lost when an injection
                // unwound mid-walk.
                self.ws.install_golden(key, &trace.node_outputs);
                self.stats.installs += 1;
                if self.current.replace(key) != Some(key) {
                    self.stats.groups += 1;
                }
            }
            self.stats.delta_eligible += 1;
            Resume::Delta
        } else {
            Resume::Dense
        };
        let ws = &mut self.ws;
        inject_once_core(
            engine, trace, node, model, metric, rng, deadline, ws, resume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::inject_once_pooled;
    use crate::models::model_for;
    use crate::outcome::TopOneMatch;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalAvgPool};
    use fidelity_dnn::precision::Precision;

    fn tiny(seed: u64) -> (Engine, Trace) {
        let net = NetworkBuilder::new("clf")
            .input("x")
            .layer(
                Conv2d::new("conv", uniform_tensor(seed, vec![4, 2, 3, 3], 0.6))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["relu"])
            .unwrap()
            .layer(Flatten::new("flat"), &["gap"])
            .unwrap()
            .layer(
                Dense::new("fc", uniform_tensor(seed + 1, vec![5, 4], 0.6)).unwrap(),
                &["flat"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = uniform_tensor(seed + 2, vec![1, 2, 6, 6], 1.0);
        let trace = engine.trace(&[x]).unwrap();
        (engine, trace)
    }

    /// The runner matches the plain pooled path bit for bit, for every
    /// category of the census and across group switches between two traces.
    #[test]
    fn batched_runner_matches_pooled_path() {
        let (engine, trace_a) = tiny(11);
        let trace_b = engine
            .trace(&[uniform_tensor(99, vec![1, 2, 6, 6], 1.0)])
            .unwrap();
        let cfg = presets::nvdla_like();
        let mut runner = BatchedInjectionRunner::new(4);
        let mut ws = Workspace::new();
        for (category, _) in cfg.census.iter() {
            let Some(model) = model_for(category, &cfg) else {
                continue;
            };
            for (t, tag) in [(&trace_a, 0u64), (&trace_b, 1u64)] {
                let mut rng_b = SplitMix64::new(0xABCD ^ tag);
                let mut rng_d = SplitMix64::new(0xABCD ^ tag);
                for _ in 0..12 {
                    let b = runner
                        .run(&engine, t, 0, model, &TopOneMatch, &mut rng_b, None)
                        .unwrap();
                    let d = inject_once_pooled(
                        &engine,
                        t,
                        0,
                        model,
                        &TopOneMatch,
                        &mut rng_d,
                        None,
                        &mut ws,
                    )
                    .unwrap();
                    assert_eq!(b.outcome, d.outcome);
                    assert_eq!(b.faulty_neurons, d.faulty_neurons);
                    assert_eq!(
                        b.max_perturbation.to_bits(),
                        d.max_perturbation.to_bits(),
                        "perturbation bits diverge"
                    );
                }
            }
        }
        let stats = runner.stats();
        assert!(stats.groups >= 2, "two traces → at least two groups");
        assert_eq!(stats.delta_eligible, stats.injections);
    }

    /// An overlay lost between two injections, as when an injection
    /// unwinds mid-walk, is re-installed before the very next injection,
    /// which takes the delta walk with the same outcomes as the pooled
    /// path on a fresh workspace.
    #[test]
    fn lost_overlay_is_reinstalled_before_the_next_injection() {
        let (engine, trace) = tiny(31);
        let model = SoftwareFaultModel::OutputValue;
        let mut runner = BatchedInjectionRunner::new(16);
        let mut rng_b = SplitMix64::new(5);
        let mut rng_d = SplitMix64::new(5);
        for i in 0..6 {
            if i == 3 {
                // What an unwound `resume_delta` leaves: the loaned overlay
                // is dropped and the workspace reports no golden key.
                drop(runner.ws.take_golden());
                assert_eq!(runner.ws.golden_key(), None);
            }
            let b = runner
                .run(&engine, &trace, 0, model, &TopOneMatch, &mut rng_b, None)
                .unwrap();
            let mut fresh = Workspace::new();
            let d = inject_once_pooled(
                &engine,
                &trace,
                0,
                model,
                &TopOneMatch,
                &mut rng_d,
                None,
                &mut fresh,
            )
            .unwrap();
            assert_eq!(b.outcome, d.outcome);
            assert_eq!(b.faulty_neurons, d.faulty_neurons);
            assert_eq!(b.max_perturbation.to_bits(), d.max_perturbation.to_bits());
        }
        let stats = runner.stats();
        assert_eq!(stats.injections, 6);
        assert_eq!(stats.delta_eligible, stats.injections);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.installs, 2, "one group install plus one re-install");
        assert_eq!(runner.ws.golden_key(), Some(golden_key(&trace)));
    }

    /// `batch == 0` disables the snapshot entirely: every injection takes
    /// the dense path and no golden buffers are ever pinned.
    #[test]
    fn zero_batch_never_installs() {
        let (engine, trace) = tiny(21);
        let mut runner = BatchedInjectionRunner::new(0);
        let mut rng = SplitMix64::new(1);
        runner
            .run(
                &engine,
                &trace,
                0,
                SoftwareFaultModel::OutputValue,
                &TopOneMatch,
                &mut rng,
                None,
            )
            .unwrap();
        let stats = runner.stats();
        assert_eq!(stats.installs, 0);
        assert_eq!(stats.delta_eligible, 0);
        assert_eq!(stats.injections, 1);
    }
}
