//! # fidelity
//!
//! Facade crate for the FIdelity reproduction: re-exports the substrate
//! crates and the framework so examples and downstream users can depend on a
//! single crate.
//!
//! * [`dnn`] — the inference substrate (tensors, layers, graphs, precision
//!   codecs, injection hooks);
//! * [`accel`] — accelerator architecture models (FF census, dataflows,
//!   performance model, presets);
//! * [`rtl`] — the register-level golden simulator used for validation;
//! * [`core`] — the FIdelity framework itself (Reuse Factor Analysis,
//!   software fault models, campaigns, Eq. 1/Eq. 2, validation);
//! * [`workloads`] — representative networks, synthetic data, and
//!   correctness metrics;
//! * [`statcheck`] — static analyses: the model-level fault-model verifier
//!   and the source-level determinism lint (`fidelity statcheck`,
//!   `fidelity lint`);
//! * [`obs`] — the zero-dependency observability layer (structured tracing,
//!   metrics, live campaign progress, trace reports);
//! * [`serve`] — the crash-tolerant campaign-as-a-service daemon
//!   (`fidelity serve`): supervised jobs, backpressure, write-ahead
//!   journaling, and checkpoint-resume crash recovery.
//!
//! ## Quickstart
//!
//! ```
//! use fidelity::core::analysis::analyze;
//! use fidelity::core::campaign::CampaignSpec;
//! use fidelity::core::fit::PAPER_RAW_FIT_PER_MB;
//! use fidelity::core::outcome::TopOneMatch;
//! use fidelity::dnn::graph::Engine;
//! use fidelity::dnn::precision::Precision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let accel = fidelity::accel::presets::nvdla_like();
//! let w = fidelity::workloads::workload("inception", 42).unwrap();
//! let engine = Engine::new(w.network, Precision::Fp16, &[w.inputs.clone()])?;
//! let trace = engine.trace(&w.inputs)?;
//! let spec = CampaignSpec { samples_per_cell: 10, ..CampaignSpec::default() };
//! let analysis = analyze(&engine, &trace, &accel, &TopOneMatch, PAPER_RAW_FIT_PER_MB, &spec)?;
//! assert!(analysis.fit.total > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use fidelity_accel as accel;
pub use fidelity_core as core;
pub use fidelity_dnn as dnn;
pub use fidelity_obs as obs;
pub use fidelity_rtl as rtl;
pub use fidelity_serve as serve;
pub use fidelity_statcheck as statcheck;
pub use fidelity_workloads as workloads;
