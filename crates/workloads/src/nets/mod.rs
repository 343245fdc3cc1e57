//! Structurally-faithful scaled-down versions of the paper's workloads
//! (Table III / Table IV): Inception, ResNet, MobileNet, Yolo, Transformer,
//! and an LSTM network.
//!
//! Each builder is deterministic in its seed. Weights are Kaiming-scaled
//! synthetic values (see DESIGN.md §2 for why this substitution preserves
//! the studied resilience phenomena).

pub mod inception;
pub mod lstm;
pub mod mobilenet;
pub mod resnet;
pub mod transformer;
pub mod yolo;

pub use inception::inception_lite;
pub use lstm::lstm_net;
pub use mobilenet::mobilenet_lite;
pub use resnet::resnet_lite;
pub use transformer::transformer_lite;
pub use yolo::yolo_lite;

use fidelity_core::outcome::{CorrectnessMetric, TopOneMatch};
use fidelity_dnn::graph::{Engine, Network, Trace};
use fidelity_dnn::init::kaiming_tensor;
use fidelity_dnn::layers::Conv2d;
use fidelity_dnn::precision::Precision;
use fidelity_dnn::tensor::Tensor;

use crate::data;
use crate::metrics::{BleuThreshold, DetectionThreshold};

/// Task family of a workload (decides its correctness metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Image classification (top-1 match).
    Classification,
    /// Machine translation (BLEU thresholds).
    Translation,
    /// Object detection (detection-score thresholds).
    Detection,
}

/// A ready-to-deploy workload: the network plus one input sample.
#[derive(Debug)]
pub struct Workload {
    /// Network name.
    pub name: String,
    /// Task family.
    pub kind: WorkloadKind,
    /// The network graph.
    pub network: Network,
    /// One input sample (binding order matches the network's inputs).
    pub inputs: Vec<Tensor>,
}

/// A workload builder, deterministic in its seed.
pub type Builder = fn(u64) -> Workload;

/// The one network-name table: each workload's builder under the name
/// `fidelity analyze --network` and job specs use.
pub const NETWORKS: [(&str, Builder); 6] = [
    ("inception", |seed| {
        classifier("inception", inception_lite(seed), seed ^ 1)
    }),
    ("resnet", |seed| {
        classifier("resnet", resnet_lite(seed), seed ^ 2)
    }),
    ("mobilenet", |seed| {
        classifier("mobilenet", mobilenet_lite(seed), seed ^ 3)
    }),
    ("yolo", yolo_workload),
    ("transformer", transformer_workload),
    ("lstm", lstm_workload),
];

/// Builds the workload named `name` in [`NETWORKS`], and only that one.
///
/// # Errors
///
/// Names an unknown network.
pub fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    let (_, build) = NETWORKS
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(|| format!("unknown network `{name}`"))?;
    Ok(build(seed))
}

/// A deployed workload: the engine, its fault-free trace and the task's
/// correctness metric.
pub type Deployment = (Engine, Trace, Box<dyn CorrectnessMetric>);

/// Deploys the workload named `name` at `precision`, range-bounded at
/// `bounding` slack when set: the one deployment path of `fidelity
/// analyze` and of `fidelity serve` jobs.
///
/// # Errors
///
/// Names an unknown network; returns engine errors as text.
pub fn deploy(
    name: &str,
    seed: u64,
    precision: Precision,
    bounding: Option<f32>,
) -> Result<Deployment, String> {
    let w = workload(name, seed)?;
    let inputs = std::slice::from_ref(&w.inputs);
    let mut engine = Engine::new(w.network, precision, inputs).map_err(|e| e.to_string())?;
    if let Some(slack) = bounding {
        let bounded = engine.enable_range_bounding(&w.inputs, slack);
        bounded.map_err(|e| e.to_string())?;
    }
    let trace = engine.trace(&w.inputs).map_err(|e| e.to_string())?;
    Ok((engine, trace, w.kind.metric()))
}

impl WorkloadKind {
    /// The application-level correctness metric of the task family.
    pub fn metric(self) -> Box<dyn CorrectnessMetric> {
        match self {
            WorkloadKind::Classification => Box::new(TopOneMatch),
            WorkloadKind::Translation => Box::new(BleuThreshold::ten_percent()),
            WorkloadKind::Detection => Box::new(DetectionThreshold::ten_percent()),
        }
    }
}

/// Builds the classification suite of Fig. 4: Inception, ResNet, MobileNet.
pub fn classification_suite(seed: u64) -> Vec<Workload> {
    NETWORKS[..3].iter().map(|(_, build)| build(seed)).collect()
}

fn classifier(name: &str, network: Network, image_seed: u64) -> Workload {
    Workload {
        name: name.into(),
        kind: WorkloadKind::Classification,
        network,
        inputs: vec![data::synthetic_image(image_seed, 3, 16)],
    }
}

/// Builds the Yolo detection workload of Fig. 5(b).
pub fn yolo_workload(seed: u64) -> Workload {
    Workload {
        name: "yolo".into(),
        kind: WorkloadKind::Detection,
        network: yolo_lite(seed),
        inputs: vec![data::synthetic_image(seed ^ 4, 3, 16)],
    }
}

/// Builds the Transformer translation workload of Fig. 5(a).
pub fn transformer_workload(seed: u64) -> Workload {
    let (network, seq) = transformer_lite(seed);
    Workload {
        name: "transformer".into(),
        kind: WorkloadKind::Translation,
        network,
        inputs: vec![
            data::token_sequence(seed ^ 5, seq, transformer::VOCAB),
            data::position_ids(seq),
            data::token_sequence(seed ^ 6, seq, transformer::VOCAB),
            data::position_ids(seq),
        ],
    }
}

/// Builds the LSTM (HAR) workload used in the validation set (Table III).
pub fn lstm_workload(seed: u64) -> Workload {
    let (network, steps, features) = lstm_net(seed);
    Workload {
        name: "lstm".into(),
        kind: WorkloadKind::Classification,
        network,
        inputs: (0..steps)
            .map(|t| data::sensor_step(seed ^ 7, t, features))
            .collect(),
    }
}

pub(crate) fn conv(
    name: &str,
    seed: u64,
    out_c: usize,
    in_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Conv2d {
    let weight = kaiming_tensor(seed, vec![out_c, in_c, k, k], in_c * k * k);
    Conv2d::new(name, weight)
        .expect("rank-4 weight by construction")
        .with_stride(stride, stride)
        .with_padding(pad, pad)
}

pub(crate) fn dense_w(seed: u64, out_f: usize, in_f: usize) -> Tensor {
    kaiming_tensor(seed, vec![out_f, in_f], in_f)
}

/// Classifier head weights with deliberately *tight* top-1 margins: every
/// class row shares a base direction plus a small per-class jitter, so the
/// logit gap between the top classes is a small fraction of the feature
/// magnitude. Trained ImageNet-scale classifiers have thin decision margins
/// (1000 classes); without this, a 10-class synthetic head would mask nearly
/// every bounded (integer-format) perturbation and flatten the paper's
/// precision comparison (Key result 4).
pub(crate) fn classifier_w(seed: u64, classes: usize, in_f: usize) -> Tensor {
    let base = kaiming_tensor(seed ^ 0x5A5A, vec![1, in_f], in_f);
    let jitter = kaiming_tensor(seed ^ 0xA5A5, vec![classes, in_f], in_f);
    let mut data = Vec::with_capacity(classes * in_f);
    for c in 0..classes {
        for f in 0..in_f {
            data.push(base.data()[f] + 0.12 * jitter.data()[c * in_f + f]);
        }
    }
    Tensor::from_vec(vec![classes, in_f], data).expect("sized correctly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_dnn::graph::Engine;
    use fidelity_dnn::precision::Precision;

    #[test]
    fn all_workloads_run_fault_free() {
        let mut workloads = classification_suite(42);
        workloads.push(yolo_workload(42));
        workloads.push(transformer_workload(42));
        workloads.push(lstm_workload(42));
        for w in workloads {
            let engine = Engine::new(w.network, Precision::Fp16, std::slice::from_ref(&w.inputs))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let out = engine
                .forward(&w.inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(!out.is_empty(), "{} produced empty output", w.name);
            assert!(
                !out.has_non_finite(),
                "{} produced non-finite outputs",
                w.name
            );
        }
    }

    #[test]
    fn every_network_name_builds_its_own_workload() {
        for (name, _) in NETWORKS {
            assert_eq!(workload(name, 1).unwrap().name, name);
        }
        let err = workload("vgg", 1).unwrap_err();
        assert_eq!(err, "unknown network `vgg`");
    }

    #[test]
    fn workloads_have_mac_layers() {
        for w in classification_suite(1) {
            let engine = Engine::new(w.network, Precision::Fp32, &[]).unwrap();
            let trace = engine.trace(&w.inputs).unwrap();
            let macs = (0..engine.network().node_count())
                .filter(|&i| engine.mac_spec(i, &trace).is_some())
                .count();
            assert!(macs >= 3, "{} has too few MAC layers ({macs})", w.name);
        }
    }
}
