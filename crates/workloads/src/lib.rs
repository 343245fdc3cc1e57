//! # fidelity-workloads
//!
//! Representative DNN workloads, synthetic datasets, and application-level
//! correctness metrics for the FIdelity resilience study (Tables III/IV of
//! the paper): Inception / ResNet / MobileNet classifiers, a Yolo-style
//! detector, a Transformer translator, and an unrolled-LSTM classifier —
//! all built on the `fidelity-dnn` substrate with deterministic synthetic
//! parameters (substitutions documented in DESIGN.md §2).
//!
//! ## Example
//!
//! ```
//! use fidelity_dnn::graph::Engine;
//! use fidelity_dnn::precision::Precision;
//! use fidelity_workloads::nets;
//!
//! let w = nets::yolo_workload(42);
//! let engine = Engine::new(w.network, Precision::Fp16, &[w.inputs.clone()]).unwrap();
//! let grid = engine.forward(&w.inputs).unwrap();
//! assert_eq!(grid.shape()[1], nets::yolo::GRID_CHANNELS);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod metrics;
pub mod nets;

pub use metrics::{BleuThreshold, DetectionThreshold};
pub use nets::{
    classification_suite, deploy, lstm_workload, transformer_workload, workload, yolo_workload,
    Deployment, Workload, WorkloadKind, NETWORKS,
};
