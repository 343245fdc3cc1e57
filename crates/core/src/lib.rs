//! # fidelity-core
//!
//! The FIdelity resilience-analysis framework (He, Balaprakash, Li —
//! MICRO 2020): accurate software fault models for logic transient errors in
//! deep-learning accelerators, derived without RTL access.
//!
//! The crate implements the paper's pipeline end to end:
//!
//! * [`rfa`] — Reuse Factor Analysis (Algorithm 1) over the dataflow
//!   descriptions of `fidelity-accel`;
//! * [`models`] — the Table-II software fault models and their application
//!   to deployed networks;
//! * [`inject`] / [`campaign`] — fast trace/resume software fault injection
//!   and statistically-sized campaigns;
//! * [`adaptive`] — confidence-driven sequential campaign planning with
//!   Neyman wave allocation and a machine-checkable certificate;
//! * [`resilience`] — fault-tolerant campaign execution: panic isolation,
//!   per-injection watchdogs, checkpoint/resume;
//! * [`activeness`] — Eq. 1 (inactive-FF masking);
//! * [`fit`] — Eq. 2 (`Accelerator_FIT_rate`) and ISO-26262 budgeting;
//! * [`analysis`] — the full Fig.-3 flow;
//! * [`validate`] — Sec.-IV validation against the register-level golden
//!   reference of `fidelity-rtl`;
//! * [`naive`] — the single-architectural-bit-flip strawman for the
//!   Sec.-VI comparison.
//!
//! ## Example: reuse factors of the paper's Fig. 2 targets
//!
//! ```
//! use fidelity_accel::dataflow::NvdlaDataflow;
//! use fidelity_core::rfa::reuse_factor_analysis;
//!
//! let df = NvdlaDataflow::paper_config();
//! let a4 = reuse_factor_analysis(&df.example_a4()).unwrap();
//! assert_eq!(a4.rf(), 16); // k² parallel MAC units
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activeness;
pub mod adaptive;
pub mod analysis;
pub mod batch;
pub mod campaign;
pub mod fit;
pub mod inject;
#[cfg(feature = "loom_model")]
pub mod modelcheck;
pub mod models;
pub mod naive;
pub mod outcome;
pub mod protect;
pub mod report;
pub mod resilience;
pub mod rfa;
pub mod validate;
pub mod validate_systolic;

/// Re-exported register-level address arithmetic used when instantiating
/// software fault models for concrete RTL fault sites.
pub(crate) mod rtl_addr {
    pub use fidelity_rtl::layer::{input_addr, weight_addr};
}

pub use adaptive::{AdaptivePlan, ConfidenceCertificate, StratumCert};
pub use analysis::{analyze, ResilienceAnalysis};
pub use batch::{BatchStats, BatchedInjectionRunner};
pub use campaign::{run_campaign, CampaignResult, CampaignRunner, CampaignSpec, MacTier};
pub use fit::{accelerator_fit_rate, FitBreakdown, PAPER_RAW_FIT_PER_MB};
pub use models::{model_for, SoftwareFaultModel};
pub use outcome::{CorrectnessMetric, Outcome, TopOneMatch};
pub use resilience::{
    CellFailure, ChaosMode, ChaosSpec, CheckpointSpec, FailureReason, ResilienceSpec,
};
pub use rfa::{reuse_factor_analysis, RfaResult};
pub use validate::{predict, random_sites, validate_many, Prediction, ValidationReport};
