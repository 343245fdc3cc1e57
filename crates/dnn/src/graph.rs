//! Network graphs, the executor, and precision-aware engines.
//!
//! A [`Network`] is a DAG of named layers. An [`Engine`] binds a network to a
//! [`Precision`], calibrating per-tensor quantization scales from a
//! fault-free run and rounding weights onto the representable grid — the
//! software analogue of deploying a trained model onto an accelerator with a
//! given datapath width.
//!
//! The engine exposes the two primitives fault injection needs:
//!
//! * [`Engine::trace`] — a fault-free run that records every intermediate
//!   tensor, and
//! * [`Engine::resume`] — re-execution from a corrupted intermediate tensor,
//!   recomputing only downstream nodes (this is why software fault injection
//!   is orders of magnitude faster than register-level simulation).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fidelity_obs::fnv::Fnv64;
use fidelity_obs::metrics::Counter;

use crate::error::DnnError;
use crate::f16::round_to_f16;
use crate::layers::{for_each_window_row, plane_dims, Layer, LayerKind};
use crate::macspec::{MacNode, MacSpec, Operands};
use crate::precision::{calibrate_scale, Precision, ValueCodec};
use crate::tensor::Tensor;
use crate::workspace::{GoldenOverlay, Region, Workspace};

/// Where a node input comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The i-th graph input.
    Input(usize),
    /// The output of the i-th node.
    Node(usize),
}

/// One node of a network: a layer plus its resolved input sources.
struct Node {
    layer: Box<dyn Layer>,
    sources: Vec<Source>,
}

/// A directed acyclic graph of layers.
///
/// Build with [`NetworkBuilder`]; run through an [`Engine`].
pub struct Network {
    name: String,
    input_names: Vec<String>,
    nodes: Vec<Node>,
    output: Source,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network(name={}, inputs={:?}, nodes={})",
            self.name,
            self.input_names,
            self.nodes.len()
        )
    }
}

impl Network {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of the graph inputs, in binding order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Number of layer nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The layer at node `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn layer(&self, idx: usize) -> &dyn Layer {
        self.nodes[idx].layer.as_ref()
    }

    /// Index of the node with the given layer name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.layer.name() == name)
    }

    /// Iterates over `(index, layer)` pairs in topological order.
    pub fn iter_layers(&self) -> impl Iterator<Item = (usize, &dyn Layer)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i, n.layer.as_ref()))
    }
}

/// Incrementally builds a [`Network`].
///
/// # Examples
///
/// ```
/// use fidelity_dnn::graph::NetworkBuilder;
/// use fidelity_dnn::layers::{Activation, ActivationKind, Dense};
/// use fidelity_dnn::tensor::Tensor;
///
/// # fn main() -> Result<(), fidelity_dnn::error::DnnError> {
/// let net = NetworkBuilder::new("mlp")
///     .input("x")
///     .layer(Dense::new("fc", Tensor::full(vec![2, 2], 0.5))?, &["x"])?
///     .layer(Activation::new("relu", ActivationKind::Relu), &["fc"])?
///     .build()?;
/// assert_eq!(net.node_count(), 2);
/// # Ok(())
/// # }
/// ```
pub struct NetworkBuilder {
    name: String,
    input_names: Vec<String>,
    nodes: Vec<Node>,
    names: HashMap<String, Source>,
    output: Option<Source>,
}

impl std::fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NetworkBuilder(name={}, inputs={:?}, nodes={})",
            self.name,
            self.input_names,
            self.nodes.len()
        )
    }
}

impl NetworkBuilder {
    /// Starts a new network.
    pub fn new(name: impl Into<String>) -> Self {
        NetworkBuilder {
            name: name.into(),
            input_names: Vec::new(),
            nodes: Vec::new(),
            names: HashMap::new(),
            output: None,
        }
    }

    /// Declares a graph input.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name (builder misuse is a programming error in
    /// the network definition, surfaced eagerly).
    pub fn input(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "duplicate graph name `{name}`"
        );
        self.names
            .insert(name.clone(), Source::Input(self.input_names.len()));
        self.input_names.push(name);
        self
    }

    /// Appends a layer consuming the named tensors.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::DuplicateName`] / [`DnnError::UnknownName`] /
    /// [`DnnError::ArityMismatch`] on malformed wiring.
    pub fn layer<L: Layer + 'static>(
        mut self,
        layer: L,
        inputs: &[&str],
    ) -> Result<Self, DnnError> {
        let lname = layer.name().to_owned();
        if self.names.contains_key(&lname) {
            return Err(DnnError::DuplicateName { name: lname });
        }
        if let Some(expected) = layer.arity() {
            if expected != inputs.len() {
                return Err(DnnError::ArityMismatch {
                    layer: lname,
                    expected,
                    actual: inputs.len(),
                });
            }
        }
        let mut sources = Vec::with_capacity(inputs.len());
        for &inp in inputs {
            let src = self.names.get(inp).ok_or_else(|| DnnError::UnknownName {
                name: inp.to_owned(),
            })?;
            sources.push(*src);
        }
        let idx = self.nodes.len();
        self.names.insert(lname, Source::Node(idx));
        self.nodes.push(Node {
            layer: Box::new(layer),
            sources,
        });
        Ok(self)
    }

    /// Marks the named tensor as the network output (defaults to the last
    /// layer added).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownName`] when the name is not defined.
    pub fn output(mut self, name: &str) -> Result<Self, DnnError> {
        let src = self.names.get(name).ok_or_else(|| DnnError::UnknownName {
            name: name.to_owned(),
        })?;
        self.output = Some(*src);
        Ok(self)
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for an empty network.
    pub fn build(self) -> Result<Network, DnnError> {
        if self.nodes.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: "network has no layers".into(),
            });
        }
        let output = self.output.unwrap_or(Source::Node(self.nodes.len() - 1));
        Ok(Network {
            name: self.name,
            input_names: self.input_names,
            nodes: self.nodes,
            output,
        })
    }
}

/// Recorded intermediates of one fault-free execution.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Quantized graph inputs, in binding order.
    pub inputs: Vec<Tensor>,
    /// Output tensor of every node, in topological order.
    pub node_outputs: Vec<Tensor>,
    /// The network output.
    pub output: Tensor,
}

/// A cheap process-local identity key for a [`Trace`], used to pair a
/// worker's installed golden overlay with the trace it mirrors.
///
/// The key hashes every recorded tensor's buffer address, length, shape and
/// boundary element bits. Two calls on the same live `Trace` always agree;
/// a different trace object — even one with equal values — hashes different
/// buffer addresses and so yields a different key, which is exactly the
/// discipline needed: an overlay is a copy of one concrete trace's buffers.
/// Never persist this value (addresses are not stable across runs).
pub fn golden_key(trace: &Trace) -> u64 {
    let mut h = Fnv64::new();
    h.word(trace.inputs.len() as u64);
    for t in &trace.inputs {
        fnv_tensor(&mut h, t);
    }
    h.word(trace.node_outputs.len() as u64);
    for t in &trace.node_outputs {
        fnv_tensor(&mut h, t);
    }
    fnv_tensor(&mut h, &trace.output);
    h.finish()
}

fn fnv_tensor(h: &mut Fnv64, t: &Tensor) {
    h.word(t.data().as_ptr() as usize as u64)
        .word(t.len() as u64);
    for &d in t.shape() {
        h.word(d as u64);
    }
    if let (Some(f), Some(l)) = (t.data().first(), t.data().last()) {
        h.word(u64::from(f.to_bits())).word(u64::from(l.to_bits()));
    }
}

/// Bounding box of a set of flat offsets into a rank-4 NCHW tensor's
/// spatial plane, or a rank-2 tensor's rows and columns (see
/// [`plane_dims`]); `Region::All` for other ranks — no structure to
/// exploit — and `None` for an empty set.
fn sparse_region(shape: &[usize], neurons: impl IntoIterator<Item = usize>) -> Option<Region> {
    let mut neurons = neurons.into_iter().peekable();
    neurons.peek()?;
    let Some([_, _, hh, ww]) = plane_dims(shape) else {
        return Some(Region::All);
    };
    let (mut h0, mut h1, mut w0, mut w1) = (usize::MAX, 0usize, usize::MAX, 0usize);
    for off in neurons {
        let r = (off / ww) % hh;
        let c = off % ww;
        h0 = h0.min(r);
        h1 = h1.max(r + 1);
        w0 = w0.min(c);
        w1 = w1.max(c + 1);
    }
    Some(Region::Window {
        h: (h0, h1),
        w: (w0, w1),
    })
}

/// Settles a recomputed node output onto the deployed datapath and finds
/// where it still diverges from golden, in one pass. Every element of the
/// row band `rows` (all rows when `None`) is quantized with `quant` (when
/// set), clamped to `bound` (when set) and written back, and the XOR of its
/// bits with golden's is ORed into a divergence word.
/// * On a rank-4 NCHW output, or a rank-2 `[tokens, features]` output
///   viewed as one plane, the band covers full rows, so it is one
///   contiguous slice per channel plane, and `mask` holds one word per
///   (row, column) of the band.
/// * Other ranks settle in one flat pass that ORs into a single word.
///
/// Returns the exact divergence: the bounding box (rank 4) of the elements
/// whose bits differ from `gold`, the full-width band of the diverging rows
/// (rank 2), `Region::All` for other ranks when any bit differs, and
/// `None` when every bit matches — the fault is logically masked here.
/// Elements outside the band must already hold golden bits.
fn settle(
    cur: &mut Tensor,
    gold: &Tensor,
    rows: Option<(usize, usize)>,
    quant: Option<ValueCodec>,
    bound: Option<f32>,
    mask: &mut Vec<u32>,
) -> Option<Region> {
    // The precision and the bound are matched once, outside the loops, so
    // each arm runs straight loops the compiler vectorizes (as in
    // `ValueCodec::quantize_slice`).
    match quant.map(|c| (c, c.precision())) {
        Some((_, Precision::Fp16)) => settle_bounded(cur, gold, rows, bound, mask, round_to_f16),
        Some((c, Precision::Int8 | Precision::Int16)) => {
            settle_bounded(cur, gold, rows, bound, mask, |v| c.quantize_on_int_grid(v))
        }
        Some((_, Precision::Fp32)) | None => settle_bounded(cur, gold, rows, bound, mask, |v| v),
    }
}

fn settle_bounded(
    cur: &mut Tensor,
    gold: &Tensor,
    rows: Option<(usize, usize)>,
    bound: Option<f32>,
    mask: &mut Vec<u32>,
    quantize: impl Fn(f32) -> f32,
) -> Option<Region> {
    match bound {
        Some(b) => settle_with(cur, gold, rows, mask, |v| clamp_to_bound(quantize(v), b)),
        None => settle_with(cur, gold, rows, mask, quantize),
    }
}

/// [`settle`] with its quantize-and-clamp step resolved to `settle_value`.
fn settle_with(
    cur: &mut Tensor,
    gold: &Tensor,
    rows: Option<(usize, usize)>,
    mask: &mut Vec<u32>,
    settle_value: impl Fn(f32) -> f32,
) -> Option<Region> {
    let shape = gold.shape();
    let (cur, gold) = (cur.data_mut(), gold.data());
    // Settles a flat run and returns the OR of its bit differences, in
    // blocks of 8 with one accumulator per lane.
    let settle_run = |cur: &mut [f32], gold: &[f32]| {
        let mut diff = [0u32; 8];
        let (mut cur, mut gold) = (cur.chunks_exact_mut(8), gold.chunks_exact(8));
        for (c, g) in (&mut cur).zip(&mut gold) {
            for ((c, g), d) in c.iter_mut().zip(g).zip(&mut diff) {
                let v = settle_value(*c);
                *c = v;
                *d |= v.to_bits() ^ g.to_bits();
            }
        }
        let tail = cur.into_remainder().iter_mut().zip(gold.remainder());
        for ((c, g), d) in tail.zip(&mut diff) {
            let v = settle_value(*c);
            *c = v;
            *d |= v.to_bits() ^ g.to_bits();
        }
        diff.iter().fold(0, |a, d| a | d)
    };
    let Some([n, c, hh, ww]) = plane_dims(shape) else {
        return (settle_run(cur, gold) != 0).then_some(Region::All);
    };
    let (h0, h1) = rows.map_or((0, hh), |(a, b)| (a.min(hh), b.min(hh)));
    if h0 >= h1 || ww == 0 {
        return None;
    }
    let planes = n * c;
    let band = (h1 - h0) * ww;
    mask.clear();
    mask.resize(band, 0);
    for plane in 0..planes {
        let a = plane * hh * ww + h0 * ww;
        let run = cur[a..a + band].iter_mut().zip(&gold[a..a + band]);
        for ((c, g), m) in run.zip(mask.iter_mut()) {
            let v = settle_value(*c);
            *c = v;
            *m |= v.to_bits() ^ g.to_bits();
        }
    }
    // Every consumer of a token row recomputes it full width, so a rank-2
    // divergence is the full-width band of its rows.
    let full_width = shape.len() == 2;
    let (mut r0, mut r1, mut c0, mut c1) = (usize::MAX, 0usize, usize::MAX, 0usize);
    for (r, row) in mask.chunks_exact(ww).enumerate() {
        // One OR over the row first, which vectorizes; most rows match.
        if row.iter().fold(0, |a, &m| a | m) == 0 {
            continue;
        }
        r0 = r0.min(h0 + r);
        r1 = h0 + r + 1;
        if full_width {
            (c0, c1) = (0, ww);
        } else {
            let first = row.iter().position(|&m| m != 0).unwrap_or(0);
            let last = row.iter().rposition(|&m| m != 0).unwrap_or(first);
            c0 = c0.min(first);
            c1 = c1.max(last + 1);
        }
    }
    (r0 < r1).then_some(Region::Window {
        h: (r0, r1),
        w: (c0, c1),
    })
}

/// Cached handles for the delta walk's always-on counters (one relaxed
/// `fetch_add` per event), exported on `/metrics`.
struct ConeMetrics {
    /// Full recomputes on the walk: the layer gave no window (`region_map`
    /// is `None`, or a source diverges everywhere).
    dense_fallback: Arc<Counter>,
    /// Recomputed nodes whose output matched golden bit for bit, so the
    /// walk ends there.
    masked: Arc<Counter>,
}

fn cone_metrics() -> &'static ConeMetrics {
    static METRICS: OnceLock<ConeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ConeMetrics {
        dense_fallback: fidelity_obs::metrics::counter("dnn.cone.dense_fallback"),
        masked: fidelity_obs::metrics::counter("dnn.cone.masked"),
    })
}

/// Unions two divergence regions: `All` absorbs everything, windows union to
/// their bounding box (a superset of the diverging elements, which is all
/// the delta path needs).
fn union_region(a: Option<Region>, b: Region) -> Region {
    match (a, b) {
        (None, r) => r,
        (Some(Region::All), _) | (_, Region::All) => Region::All,
        (Some(Region::Window { h: ah, w: aw }), Region::Window { h: bh, w: bw }) => {
            Region::Window {
                h: (ah.0.min(bh.0), ah.1.max(bh.1)),
                w: (aw.0.min(bw.0), aw.1.max(bw.1)),
            }
        }
    }
}

/// Copies every dirty region of the overlay back from the golden trace,
/// restoring bit-exact golden slots and clearing the worklist.
fn repair_overlay(overlay: &mut GoldenOverlay, trace: &Trace) {
    for (idx, dirty) in overlay.dirty.iter_mut().enumerate() {
        let Some(region) = dirty.take() else {
            continue;
        };
        let shape = trace.node_outputs[idx].shape();
        let src = trace.node_outputs[idx].data();
        let dst = overlay.slots[idx].data_mut();
        match (region, plane_dims(shape)) {
            // Elements outside the window hold golden bits, so copying the
            // dirty rows' full-width band is one slice per plane.
            (Region::Window { h, .. }, Some([_, _, _, cols])) => {
                for_each_window_row(shape, h, (0, cols), |a, b| {
                    dst[a..b].copy_from_slice(&src[a..b]);
                });
            }
            _ => dst.copy_from_slice(src),
        }
    }
}

/// Per-tensor quantization scales calibrated from a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct QuantScheme {
    /// Scale for each graph input.
    pub input_scales: Vec<f32>,
    /// Scale for each node's output tensor.
    pub node_scales: Vec<f32>,
    /// Scales for each node's weight tensors.
    pub weight_scales: Vec<Vec<f32>>,
}

/// A network bound to a precision, with calibrated codecs and quantized
/// weights: the runnable deployment that fault injection targets.
pub struct Engine {
    network: Network,
    precision: Precision,
    input_codecs: Vec<ValueCodec>,
    node_codecs: Vec<ValueCodec>,
    weight_codecs: Vec<Vec<ValueCodec>>,
    node_bounds: Option<Vec<f32>>,
    /// Transitive-dependents bitset per node, built once at construction:
    /// bit `j` of `downstream[i]` is set iff node `j` must be recomputed
    /// when node `i`'s output changes. Lets `resume` skip unaffected nodes
    /// without re-walking the graph per injection.
    downstream: Vec<Vec<u64>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(net={}, precision={}, nodes={})",
            self.network.name(),
            self.precision,
            self.network.node_count()
        )
    }
}

impl Engine {
    /// Prepares a network for execution at `precision`.
    ///
    /// For the integer formats, per-tensor scales are calibrated by running
    /// the network once in FP32 on `calibration_inputs` and taking the
    /// dynamic range of every intermediate (the paper quantized its
    /// INT16/INT8 networks with TensorFlow's min/max scheme); weights are
    /// then rounded onto the representable grid in place.
    ///
    /// # Errors
    ///
    /// Propagates any shape error from the calibration run.
    pub fn new(
        mut network: Network,
        precision: Precision,
        calibration_inputs: &[Vec<Tensor>],
    ) -> Result<Self, DnnError> {
        let n_nodes = network.node_count();
        let n_inputs = network.input_names.len();

        // Track dynamic ranges over all calibration runs (FP32, no codecs).
        let mut input_max = vec![0.0f32; n_inputs];
        let mut node_max = vec![0.0f32; n_nodes];
        if !precision.is_float() {
            let mut ws = Workspace::new();
            for sample in calibration_inputs {
                let trace = run(&network, sample, None, None, None, &mut ws)?.1;
                for (m, t) in input_max.iter_mut().zip(&trace.inputs) {
                    *m = m.max(t.max_abs());
                }
                for (m, t) in node_max.iter_mut().zip(&trace.node_outputs) {
                    *m = m.max(t.max_abs());
                }
            }
        }

        let make = |max_abs: f32| -> ValueCodec {
            ValueCodec::new(precision, calibrate_scale(precision, max_abs))
        };
        let input_codecs: Vec<ValueCodec> = input_max.iter().map(|&m| make(m)).collect();
        let node_codecs: Vec<ValueCodec> = node_max.iter().map(|&m| make(m)).collect();

        // Weight codecs from weight dynamic range; quantize weights in place.
        let mut weight_codecs = Vec::with_capacity(n_nodes);
        for node in &mut network.nodes {
            let codecs: Vec<ValueCodec> = node
                .layer
                .weights()
                .iter()
                .map(|w| make(w.max_abs()))
                .collect();
            if precision != Precision::Fp32 {
                // Every weight tensor of a layer shares the layer's grid in
                // our model; use the per-layer max for a single codec call.
                if let Some(max_codec) = codecs
                    .iter()
                    .max_by(|a, b| a.scale().total_cmp(&b.scale()))
                    .copied()
                {
                    node.layer.quantize_weights(&max_codec);
                }
            }
            weight_codecs.push(codecs);
        }

        let downstream = build_downstream(&network);
        // Register the delta walk's counters with the deployment, so a
        // `/metrics` scrape lists them before the first fault is evaluated.
        cone_metrics();
        Ok(Engine {
            network,
            precision,
            input_codecs,
            node_codecs,
            weight_codecs,
            node_bounds: None,
            downstream,
        })
    }

    /// Enables per-layer output range bounding — the hardware/software
    /// co-design mitigation the paper proposes from its Key Result 5
    /// ("bounding the values of output neurons"): a writeback-stage clamp
    /// at `slack ×` each layer's fault-free dynamic range. Large faulty
    /// values (the ones most likely to flip the application output) are
    /// clipped; fault-free behaviour is unchanged because every clean value
    /// is within its own range.
    ///
    /// Calibrates from a fault-free run on `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the calibration run. Returns
    /// [`DnnError::InvalidConfig`] when `slack < 1` (which would alter
    /// fault-free behaviour).
    pub fn enable_range_bounding(&mut self, inputs: &[Tensor], slack: f32) -> Result<(), DnnError> {
        // Negated comparison is deliberate: it rejects NaN slack too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(slack >= 1.0) {
            return Err(DnnError::InvalidConfig {
                message: format!("range-bounding slack must be >= 1, got {slack}"),
            });
        }
        self.node_bounds = None; // calibrate unbounded
        let trace = self.trace(inputs)?;
        self.node_bounds = Some(
            trace
                .node_outputs
                .iter()
                .map(|t| t.max_abs() * slack)
                .collect(),
        );
        Ok(())
    }

    /// Disables range bounding.
    pub fn disable_range_bounding(&mut self) {
        self.node_bounds = None;
    }

    /// The calibrated clamp bound of node `idx`, when bounding is enabled.
    pub fn node_bound(&self, idx: usize) -> Option<f32> {
        self.node_bounds.as_ref().map(|b| b[idx])
    }

    /// The deployed precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Output codec of node `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn node_codec(&self, idx: usize) -> ValueCodec {
        self.node_codecs[idx]
    }

    /// Codec of weight tensor `widx` of node `idx`, when it exists.
    pub fn weight_codec(&self, idx: usize, widx: usize) -> Option<ValueCodec> {
        self.weight_codecs
            .get(idx)
            .and_then(|v| v.get(widx))
            .copied()
    }

    /// Codec of graph input `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn input_codec(&self, idx: usize) -> ValueCodec {
        self.input_codecs[idx]
    }

    /// Runs the network and returns the output.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers.
    pub fn forward(&self, inputs: &[Tensor]) -> Result<Tensor, DnnError> {
        Ok(self.run(inputs)?.0)
    }

    /// Runs the network recording all intermediates.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers.
    pub fn trace(&self, inputs: &[Tensor]) -> Result<Trace, DnnError> {
        self.run(inputs).map(|(_, t)| t)
    }

    /// Re-runs from a fault-free [`Trace`] with the output of node
    /// `node_idx` replaced by `replacement`, recomputing only nodes that
    /// transitively depend on it — the dense injection path and the oracle
    /// [`Engine::resume_delta`] is tested against.
    ///
    /// Every recomputed tensor is drawn from `ws` and clean nodes are
    /// *borrowed* from the trace instead of cloned. After a warm-up
    /// injection the steady state performs zero heap allocation (measurable
    /// via [`Workspace::hit_rate`]). Which nodes to recompute comes from the
    /// transitive-dependents bitsets built at engine construction — no
    /// per-injection graph walk.
    ///
    /// The executor checks `deadline` at every node boundary; a runaway
    /// propagation is cut short with [`DnnError::DeadlineExceeded`] instead
    /// of hanging the campaign worker. `None` disables the watchdog.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from layers. Returns
    /// [`DnnError::InvalidConfig`] when `node_idx` is out of range and
    /// [`DnnError::DeadlineExceeded`] when the deadline fires.
    pub fn resume<'t>(
        &self,
        trace: &'t Trace,
        node_idx: usize,
        replacement: Tensor,
        deadline: Option<Instant>,
        ws: &mut Workspace,
    ) -> Result<ResumedOutput<'t>, DnnError> {
        let n = self.network.node_count();
        if node_idx >= n {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "resume node index {node_idx} out of range (network has {n} nodes)"
                ),
            });
        }
        if let Some(d) = deadline {
            if fidelity_obs::clock::now() >= d {
                fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                return Err(DnnError::DeadlineExceeded);
            }
        }

        let down = &self.downstream[node_idx];
        let mut slots = ws.take_slots(n);

        // The corrupted writeback passes through the same bounding hardware
        // as a clean one; it is deliberately NOT re-quantized (matching the
        // fault model: the corruption is what the datapath wrote back).
        let mut repl = replacement;
        if let Some(bounds) = &self.node_bounds {
            let bound = bounds[node_idx];
            repl.map_inplace(|v| clamp_to_bound(v, bound));
        }
        slots[node_idx] = Some(repl);

        let mut failure: Option<DnnError> = None;
        for idx in node_idx + 1..n {
            if down[idx / 64] >> (idx % 64) & 1 == 0 {
                continue; // not downstream of the corruption: trace is valid
            }
            if let Some(d) = deadline {
                if fidelity_obs::clock::now() >= d {
                    fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                    failure = Some(DnnError::DeadlineExceeded);
                    break;
                }
            }
            let node = &self.network.nodes[idx];
            let resolve = |src: &Source| -> &Tensor {
                match src {
                    Source::Input(i) => &trace.inputs[*i],
                    Source::Node(j) => match &slots[*j] {
                        Some(t) => t,
                        None => &trace.node_outputs[*j],
                    },
                }
            };
            // Input refs live on the stack for the common arities; a node
            // wider than the buffer (huge concat) falls back to a Vec.
            let mut ref_buf: [&Tensor; 8] = [&trace.output; 8];
            let ref_vec: Vec<&Tensor>;
            let in_refs: &[&Tensor] = if node.sources.len() <= ref_buf.len() {
                for (k, src) in node.sources.iter().enumerate() {
                    ref_buf[k] = resolve(src);
                }
                &ref_buf[..node.sources.len()]
            } else {
                ref_vec = node.sources.iter().map(resolve).collect();
                &ref_vec
            };
            match node.layer.forward(in_refs, ws) {
                Ok(mut raw) => {
                    let codec = self.node_codecs[idx];
                    if !self.on_grid(idx) {
                        codec.quantize_slice(raw.data_mut());
                    }
                    if let Some(bounds) = &self.node_bounds {
                        let bound = bounds[idx];
                        raw.map_inplace(|v| clamp_to_bound(v, bound));
                    }
                    slots[idx] = Some(raw);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            ws.put_slots(slots);
            return Err(e);
        }

        let out = match self.network.output {
            Source::Input(i) => ResumedOutput::Borrowed(&trace.inputs[i]),
            Source::Node(i) => match slots[i].take() {
                Some(t) => ResumedOutput::Owned(t),
                None => ResumedOutput::Borrowed(&trace.node_outputs[i]),
            },
        };
        ws.put_slots(slots);
        Ok(out)
    }

    /// Whether node `idx`'s quantize pass is skipped (see [`on_grid`]).
    fn on_grid(&self, idx: usize) -> bool {
        self.node_bounds.is_none()
            && on_grid(
                &self.network.nodes[idx],
                &self.input_codecs,
                &self.node_codecs,
                self.node_codecs[idx],
            )
    }

    /// The batched-injection hot path: evaluates one sparse fault as a pure
    /// delta over the golden overlay installed in `ws` (see
    /// [`Workspace::install_golden`] and [`golden_key`]).
    ///
    /// `neurons`/`values` describe the corrupted output of node `node_idx`
    /// as "offset `neurons[i]` holds `values[i]` instead of its clean
    /// value". The engine patches the overlay's copy of that node, walks the
    /// downstream cone recomputing each affected node — restricted to the
    /// window wherever the layer's [`Layer::region_map`] provides one, over
    /// the whole output otherwise (in place, through the same window
    /// kernel; a layer without one runs its forward) — calls `judge` on
    /// the resulting network output, then repairs every touched overlay
    /// region back to golden bits and returns the judge's verdict. Windows exist on rank-4 NCHW
    /// tensors (spatial rows × columns) and on rank-2 `[tokens, features]`
    /// tensors, viewed as one plane (token rows × feature columns). Conv
    /// and pool windows are exact; every other windowed layer is handed the
    /// window's full-width row band, one contiguous slice per channel plane.
    ///
    /// Each recompute is settled in one pass over its row band: quantize
    /// (unless the node is on grid), clamp (when bounded), write back, and
    /// OR the bits that differ from golden into divergence words: a
    /// band-sized mask of one word per (row, column) on ranks 4 and 2.
    /// The dirty region of a node comes from those
    /// words, so it is an exact diff, not an estimate: the bounding box of
    /// the elements whose bits differ from the golden trace (rank 4), the
    /// full-width band of the rows holding them (rank 2), the whole tensor
    /// (other ranks), and no region at all when none differ. So a fault that ReLU, max-pool or quantization
    /// masks ends the walk at that node, and a node that fell back to a
    /// full forward (a MatMul, say) still hands only a window to its
    /// consumers.
    ///
    /// Results are bit-identical to building the dense replacement tensor
    /// and calling [`Engine::resume`]:
    /// * every element outside a node's dirty region holds golden bits, by
    ///   construction of the diff, and a layer's window is the image of
    ///   its sources' dirty regions, so every neuron that can differ is
    ///   recomputed; recomputing a *clean* neuron reproduces its golden
    ///   bits exactly (kernels are deterministic and quantization/bounding
    ///   are idempotent on already-quantized, already-bounded values), and
    ///   so does settling a band element the window left untouched;
    /// * each recomputed neuron sees the identical accumulation order
    ///   ([`MacSpec::forward_region_into_scratch`] only narrows loop
    ///   bounds);
    /// * the sparse patch plus per-offset bounding equals splicing the
    ///   faulty values into a clean clone and bounding the whole tensor,
    ///   because every clean value is within its own calibrated bound.
    ///
    /// The one exception is NaN *payload* bits: which elements are NaN is
    /// identical, but a window pass may accumulate a given neuron at a
    /// different code location (lane body vs. tail) than the full pass, and
    /// NaN payloads are the single IEEE-754 artifact the compiler may
    /// legally vary between locations (see
    /// [NaN payloads](crate::macspec#nan-payloads)). All campaign
    /// statistics are NaN-payload-insensitive, so this never surfaces in
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when `node_idx` is out of range,
    /// when `neurons` and `values` differ in length, or when no golden
    /// overlay (with one slot per node) is installed. Returns
    /// [`DnnError::DeadlineExceeded`] when the deadline fires mid-walk; the
    /// overlay is repaired before returning, so the next injection can
    /// reuse it.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_delta<R>(
        &self,
        trace: &Trace,
        node_idx: usize,
        neurons: &[usize],
        values: &[f32],
        deadline: Option<Instant>,
        ws: &mut Workspace,
        judge: impl FnOnce(&Tensor) -> R,
    ) -> Result<R, DnnError> {
        let n = self.network.node_count();
        if node_idx >= n {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "resume node index {node_idx} out of range (network has {n} nodes)"
                ),
            });
        }
        if neurons.len() != values.len() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "sparse fault arity mismatch: {} neurons vs {} values",
                    neurons.len(),
                    values.len()
                ),
            });
        }
        if let Some(d) = deadline {
            if fidelity_obs::clock::now() >= d {
                fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                return Err(DnnError::DeadlineExceeded);
            }
        }
        let mut overlay = ws.take_golden();
        if overlay.key.is_none() || overlay.slots.len() != n || overlay.dirty.len() != n {
            ws.put_golden(overlay);
            return Err(DnnError::InvalidConfig {
                message: "delta resume requires an installed golden overlay".into(),
            });
        }

        // Patch the injected node sparsely. Bounding only the patched
        // offsets equals bounding the whole spliced tensor: clean values
        // satisfy |v| ≤ bound by calibration (slack ≥ 1), so the clamp is
        // the identity on them.
        let bound = self.node_bounds.as_ref().map(|b| b[node_idx]);
        {
            let slot = &mut overlay.slots[node_idx];
            let data = slot.data_mut();
            for (&off, &v) in neurons.iter().zip(values) {
                data[off] = match bound {
                    Some(b) => clamp_to_bound(v, b),
                    None => v,
                };
            }
            // Only offsets whose bits really changed diverge: a patch that
            // rewrites golden bits (or none at all) leaves the node clean.
            let (data, gold) = (slot.data(), trace.node_outputs[node_idx].data());
            overlay.dirty[node_idx] = sparse_region(
                slot.shape(),
                neurons
                    .iter()
                    .copied()
                    .filter(|&off| data[off].to_bits() != gold[off].to_bits()),
            );
        }

        let metrics = cone_metrics();
        let down = &self.downstream[node_idx];
        let mut failure: Option<DnnError> = None;
        for idx in node_idx + 1..n {
            if down[idx / 64] >> (idx % 64) & 1 == 0 {
                continue; // not downstream of the corruption
            }
            if let Some(d) = deadline {
                if fidelity_obs::clock::now() >= d {
                    fidelity_obs::metrics::counter("dnn.deadline_exceeded").inc();
                    failure = Some(DnnError::DeadlineExceeded);
                    break;
                }
            }
            let node = &self.network.nodes[idx];

            // Union of the regions in which this node's sources diverge
            // from golden. All-clean sources mean the fault was masked
            // upstream (or its window fell off the grid): the node is clean.
            let mut src_dirty: Option<Region> = None;
            for src in &node.sources {
                if let Source::Node(j) = src {
                    if let Some(r) = overlay.dirty[*j] {
                        src_dirty = Some(union_region(src_dirty, r));
                    }
                }
            }
            let Some(src_dirty) = src_dirty else {
                continue;
            };

            // Forward image of the dirty input region, when the layer has
            // spatial locality; `All` otherwise.
            let out_region = match src_dirty {
                Region::All => Region::All,
                Region::Window { h, w } => {
                    let mut shape_buf: [&[usize]; 8] = [&[]; 8];
                    let shape_vec: Vec<&[usize]>;
                    let shape_of = |src: &Source| -> &[usize] {
                        match src {
                            Source::Input(i) => trace.inputs[*i].shape(),
                            Source::Node(j) => trace.node_outputs[*j].shape(),
                        }
                    };
                    let shapes: &[&[usize]] = if node.sources.len() <= shape_buf.len() {
                        for (k, src) in node.sources.iter().enumerate() {
                            shape_buf[k] = shape_of(src);
                        }
                        &shape_buf[..node.sources.len()]
                    } else {
                        shape_vec = node.sources.iter().map(shape_of).collect();
                        &shape_vec
                    };
                    match node.layer.region_map(shapes, h, w) {
                        Some((oh, ow)) => Region::Window { h: oh, w: ow },
                        None => Region::All,
                    }
                }
            };
            let out_region = match out_region {
                Region::Window { h, w } if h.0 >= h.1 || w.0 >= w.1 => {
                    continue; // window fell off the grid: provably clean
                }
                // Pointwise, token-wise and bookkeeping layers recompute the
                // full-width row band: one contiguous slice per channel
                // plane (or one per band of token rows), where a narrow
                // window is one short slice per row. Conv and pool keep
                // exact windows, since their work is per output. This is
                // the one place a token-wise layer's window gets its width:
                // its `region_map` answers every column.
                Region::Window { h, .. }
                    if !matches!(node.layer.kind(), LayerKind::Conv | LayerKind::Pool) =>
                {
                    let out_w = plane_dims(trace.node_outputs[idx].shape()).map(|d| d[3]);
                    Region::Window {
                        h,
                        w: (0, out_w.unwrap_or(usize::MAX)),
                    }
                }
                r => r,
            };

            // Topological order guarantees every source index < idx, so the
            // split cleanly separates inputs from the output slot.
            let (head, tail) = overlay.slots.split_at_mut(idx);
            let out_t = &mut tail[0];
            let resolve = |src: &Source| -> &Tensor {
                match src {
                    Source::Input(i) => &trace.inputs[*i],
                    Source::Node(j) => &head[*j],
                }
            };
            let mut ref_buf: [&Tensor; 8] = [&trace.output; 8];
            let ref_vec: Vec<&Tensor>;
            let in_refs: &[&Tensor] = if node.sources.len() <= ref_buf.len() {
                for (k, src) in node.sources.iter().enumerate() {
                    ref_buf[k] = resolve(src);
                }
                &ref_buf[..node.sources.len()]
            } else {
                ref_vec = node.sources.iter().map(resolve).collect();
                &ref_vec
            };

            // The rows to settle: the window's, or all of them after a full
            // recompute.
            let rows = match recompute(node.layer.as_ref(), in_refs, out_region, out_t, ws) {
                Ok(rows) => rows,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            if rows.is_none() {
                metrics.dense_fallback.inc();
            }
            // Quantize, clamp and diff the recomputed rows in one pass: the
            // node diverges exactly where its bits differ from golden, and
            // where none do, the fault is masked and the walk ends here.
            let dirty = settle(
                out_t,
                &trace.node_outputs[idx],
                rows,
                (!self.on_grid(idx)).then_some(self.node_codecs[idx]),
                self.node_bound(idx),
                ws.settle_mask(),
            );
            if dirty.is_none() {
                metrics.masked.inc();
            }
            overlay.dirty[idx] = dirty;
        }

        if let Some(e) = failure {
            repair_overlay(&mut overlay, trace);
            ws.put_golden(overlay);
            return Err(e);
        }

        let verdict = match self.network.output {
            Source::Input(i) => judge(&trace.inputs[i]),
            Source::Node(i) => judge(&overlay.slots[i]),
        };
        repair_overlay(&mut overlay, trace);
        ws.put_golden(overlay);
        Ok(verdict)
    }

    /// Whether node `dependent` transitively consumes node `of`'s output
    /// (from the precomputed downstream bitsets).
    pub fn depends_on(&self, dependent: usize, of: usize) -> bool {
        self.downstream
            .get(of)
            .is_some_and(|d| d[dependent / 64] >> (dependent % 64) & 1 == 1)
    }

    /// Number of nodes that must be recomputed when node `idx` is corrupted.
    pub fn downstream_count(&self, idx: usize) -> usize {
        self.downstream[idx]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The MAC geometry of node `idx` given the input shapes recorded in
    /// `trace`, when the node is a MAC layer.
    pub fn mac_spec(&self, idx: usize, trace: &Trace) -> Option<MacSpec> {
        let node = &self.network.nodes[idx];
        let shapes: Vec<&[usize]> = node
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => trace.inputs[*i].shape(),
                Source::Node(i) => trace.node_outputs[*i].shape(),
            })
            .collect();
        node.layer.mac_spec(&shapes)
    }

    /// Node `idx` as a [`MacNode`], the entry point of fault recomputation
    /// ([`MacNode::recompute`]): its MAC geometry given the input shapes
    /// recorded in `trace`, its operands (the first input; the layer's own
    /// weights, or for matmul the second input), and the layer's packed
    /// weight panel when it owns one. `None` when the node is not a MAC
    /// layer.
    pub fn mac_node<'t>(&'t self, idx: usize, trace: &'t Trace) -> Option<MacNode<'t>> {
        // `mac_spec` is `None` unless the node has its first input (and,
        // for matmul, its second).
        let spec = self.mac_spec(idx, trace)?;
        let (weight, panel) = match self.network.layer(idx).mac_weight() {
            Some((w, panel)) => (w, Some(panel)),
            None => (self.node_input_at(idx, 1, trace), None),
        };
        let operands = Operands {
            input: self.node_input_at(idx, 0, trace),
            weight,
        };
        Some(MacNode::new(spec, operands, panel))
    }

    /// The codecs of node `idx`'s input tensors (graph-input or producing
    /// node codecs, in input order).
    pub fn node_input_codecs(&self, idx: usize) -> Vec<ValueCodec> {
        self.network.nodes[idx]
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => self.input_codecs[*i],
                Source::Node(i) => self.node_codecs[*i],
            })
            .collect()
    }

    /// The input tensors of node `idx` as recorded in `trace`.
    pub fn node_inputs<'t>(&self, idx: usize, trace: &'t Trace) -> Vec<&'t Tensor> {
        self.network.nodes[idx]
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => &trace.inputs[*i],
                Source::Node(i) => &trace.node_outputs[*i],
            })
            .collect()
    }

    /// Number of input tensors node `idx` consumes.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn node_source_count(&self, idx: usize) -> usize {
        self.network.nodes[idx].sources.len()
    }

    /// The `k`-th input tensor of node `idx` as recorded in `trace` — the
    /// allocation-free counterpart of [`Engine::node_inputs`] for hot loops.
    ///
    /// # Panics
    ///
    /// Panics when `idx` or `k` is out of range.
    pub fn node_input_at<'t>(&self, idx: usize, k: usize, trace: &'t Trace) -> &'t Tensor {
        match self.network.nodes[idx].sources[k] {
            Source::Input(i) => &trace.inputs[i],
            Source::Node(i) => &trace.node_outputs[i],
        }
    }

    /// The codec of the `k`-th input tensor of node `idx` — the
    /// allocation-free counterpart of [`Engine::node_input_codecs`].
    ///
    /// # Panics
    ///
    /// Panics when `idx` or `k` is out of range.
    pub fn node_input_codec_at(&self, idx: usize, k: usize) -> ValueCodec {
        match self.network.nodes[idx].sources[k] {
            Source::Input(i) => self.input_codecs[i],
            Source::Node(i) => self.node_codecs[i],
        }
    }

    fn run(&self, inputs: &[Tensor]) -> Result<(Tensor, Trace), DnnError> {
        let mut ws = Workspace::new();
        run(
            &self.network,
            inputs,
            Some(&self.input_codecs),
            Some(&self.node_codecs),
            self.node_bounds.as_deref(),
            &mut ws,
        )
    }
}

/// The result of a pooled resume: the network output, either borrowed from
/// the clean trace (the corruption never reached it) or owned (recomputed).
#[derive(Debug)]
pub enum ResumedOutput<'t> {
    /// The output was unaffected by the corruption; this borrows the clean
    /// trace's tensor without copying.
    Borrowed(&'t Tensor),
    /// The output was recomputed (its buffer came from the workspace pool;
    /// hand it back via [`Workspace::recycle`] when done).
    Owned(Tensor),
}

impl ResumedOutput<'_> {
    /// The output tensor.
    pub fn tensor(&self) -> &Tensor {
        match self {
            ResumedOutput::Borrowed(t) => t,
            ResumedOutput::Owned(t) => t,
        }
    }

    /// Converts to an owned tensor, cloning when borrowed.
    pub fn into_owned(self) -> Tensor {
        match self {
            ResumedOutput::Borrowed(t) => t.clone(),
            ResumedOutput::Owned(t) => t,
        }
    }

    /// Returns the output's buffers to `ws` when owned (no-op when
    /// borrowed) — the steady-state epilogue of an injection.
    pub fn recycle_into(self, ws: &mut Workspace) {
        if let ResumedOutput::Owned(t) = self {
            ws.recycle(t);
        }
    }
}

/// Builds the transitive-dependents bitset for every node: walking nodes in
/// reverse topological order, each consumer folds its own downstream set
/// into its producers'.
fn build_downstream(network: &Network) -> Vec<Vec<u64>> {
    let n = network.nodes.len();
    let words = n.div_ceil(64);
    let mut down = vec![vec![0u64; words]; n];
    for j in (0..n).rev() {
        for src in &network.nodes[j].sources {
            if let Source::Node(i) = src {
                // Topological order guarantees i < j, so the split is safe.
                let (head, tail) = down.split_at_mut(j);
                let di = &mut head[*i];
                for (a, b) in di.iter_mut().zip(tail[0].iter()) {
                    *a |= *b;
                }
                di[j / 64] |= 1 << (j % 64);
            }
        }
    }
    down
}

/// Recomputes one node of the delta walk into its overlay slot `out` over
/// `region`: the layer's window kernel on the window, or over the whole
/// output, in place, when the window has no view (or the region is
/// [`Region::All`]). Only a layer with no window kernel runs its
/// [`Layer::forward`], whose output replaces the slot's tensor. Returns the
/// rows written when only a window's were, `None` after a full recompute.
fn recompute(
    layer: &dyn Layer,
    inputs: &[&Tensor],
    region: Region,
    out: &mut Tensor,
    ws: &mut Workspace,
) -> Result<Option<(usize, usize)>, DnnError> {
    if let Region::Window { h, .. } = region {
        if layer.forward_region(inputs, region, out, ws)? {
            return Ok(Some(h));
        }
    }
    if !layer.forward_region(inputs, Region::All, out, ws)? {
        let raw = layer.forward(inputs, ws)?;
        ws.recycle(std::mem::replace(out, raw));
    }
    Ok(None)
}

/// Clamps a value to `[-bound, bound]`; non-finite values saturate to the
/// bound (a magnitude comparator on the exponent field catches Inf/NaN).
fn clamp_to_bound(v: f32, bound: f32) -> f32 {
    if !v.is_finite() {
        return if v.is_sign_negative() { -bound } else { bound };
    }
    v.clamp(-bound, bound)
}

/// Whether `node`, fed by sources on the given codecs, emits values already
/// on `codec`'s grid, so its quantize pass is skipped: the layer only moves
/// or selects values ([`Layer::values_preserved`]) and every source carries
/// `codec`. Callers skip only unbounded, since a bounding clamp can move
/// values off the grid.
///
/// The skip is not only a speed-up. On the integer grids a fault can write
/// the code −qmax−1 (INT8 `0x80`), which the symmetric clamp of
/// [`ValueCodec::quantize`] would move to −qmax; a skipped node carries it
/// on unchanged. Always quantizing would change INT8/INT16 results.
fn on_grid(
    node: &Node,
    input_codecs: &[ValueCodec],
    node_codecs: &[ValueCodec],
    codec: ValueCodec,
) -> bool {
    node.layer.values_preserved()
        && node.sources.iter().all(|src| match src {
            Source::Input(i) => input_codecs[*i] == codec,
            Source::Node(j) => node_codecs[*j] == codec,
        })
}

/// Core executor shared by calibration (no codecs) and engine runs.
fn run(
    network: &Network,
    inputs: &[Tensor],
    input_codecs: Option<&[ValueCodec]>,
    node_codecs: Option<&[ValueCodec]>,
    bounds: Option<&[f32]>,
    ws: &mut Workspace,
) -> Result<(Tensor, Trace), DnnError> {
    if inputs.len() != network.input_names.len() {
        return Err(DnnError::ArityMismatch {
            layer: network.name.clone(),
            expected: network.input_names.len(),
            actual: inputs.len(),
        });
    }

    let q_inputs: Vec<Tensor> = inputs
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut q = t.clone();
            if let Some(c) = input_codecs {
                c[i].quantize_slice(q.data_mut());
            }
            q
        })
        .collect();

    let mut outputs: Vec<Tensor> = Vec::with_capacity(network.nodes.len());
    for (idx, node) in network.nodes.iter().enumerate() {
        let in_refs: Vec<&Tensor> = node
            .sources
            .iter()
            .map(|src| match src {
                Source::Input(i) => &q_inputs[*i],
                Source::Node(i) => &outputs[*i],
            })
            .collect();
        let mut raw = node.layer.forward(&in_refs, ws)?;
        if let (Some(ic), Some(nc)) = (input_codecs, node_codecs) {
            if bounds.is_some() || !on_grid(node, ic, nc, nc[idx]) {
                nc[idx].quantize_slice(raw.data_mut());
            }
        }
        if let Some(b) = bounds {
            let bound = b[idx];
            raw.map_inplace(|v| clamp_to_bound(v, bound));
        }
        outputs.push(raw);
    }

    let out = match network.output {
        Source::Input(i) => q_inputs[i].clone(),
        Source::Node(i) => outputs[i].clone(),
    };
    let trace = Trace {
        inputs: q_inputs,
        node_outputs: outputs,
        output: out.clone(),
    };
    Ok((out, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationKind, Add, Dense};

    /// The dense resume on a fresh workspace, as an owned tensor.
    fn resume_owned(engine: &Engine, trace: &Trace, node: usize, replacement: Tensor) -> Tensor {
        engine
            .resume(trace, node, replacement, None, &mut Workspace::new())
            .unwrap()
            .into_owned()
    }

    fn two_layer_net() -> Network {
        let w1 = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let w2 = Tensor::from_vec(vec![2, 2], vec![2.0, 0.0, 0.0, 2.0]).unwrap();
        NetworkBuilder::new("t")
            .input("x")
            .layer(Dense::new("fc1", w1).unwrap(), &["x"])
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["fc1"])
            .unwrap()
            .layer(Dense::new("fc2", w2).unwrap(), &["relu"])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn forward_chains_layers() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, -3.0]).unwrap();
        let y = engine.forward(&[x]).unwrap();
        assert_eq!(y.data(), &[2.0, 0.0]);
    }

    #[test]
    fn builder_rejects_bad_wiring() {
        let w = Tensor::zeros(vec![2, 2]);
        assert!(matches!(
            NetworkBuilder::new("t")
                .input("x")
                .layer(Dense::new("fc", w.clone()).unwrap(), &["nope"]),
            Err(DnnError::UnknownName { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new("t")
                .input("x")
                .layer(Dense::new("x", w.clone()).unwrap(), &["x"]),
            Err(DnnError::DuplicateName { .. })
        ));
        assert!(matches!(
            NetworkBuilder::new("t")
                .input("x")
                .layer(Add::new("add"), &["x"]),
            Err(DnnError::ArityMismatch { .. })
        ));
        assert!(NetworkBuilder::new("t").input("x").build().is_err());
    }

    #[test]
    fn resume_matches_full_run_with_replacement() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let trace = engine.trace(&[x]).unwrap();

        // Corrupt fc1's output and resume.
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[0] = 100.0;
        let y = resume_owned(&engine, &trace, 0, corrupted);
        assert_eq!(y.data(), &[200.0, 4.0]);
        // Clean trace is untouched.
        assert_eq!(trace.output.data(), &[2.0, 4.0]);
    }

    #[test]
    fn resume_skips_untouched_branches() {
        // Diamond: x -> a; x -> b; add(a, b). Corrupting `a` must keep `b`
        // from the base trace (same values).
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let net = NetworkBuilder::new("d")
            .input("x")
            .layer(Dense::new("a", w.clone()).unwrap(), &["x"])
            .unwrap()
            .layer(Dense::new("b", w).unwrap(), &["x"])
            .unwrap()
            .layer(Add::new("add"), &["a", "b"])
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![3.0, 4.0]).unwrap();
        let trace = engine.trace(&[x]).unwrap();
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[1] = -4.0;
        let y = resume_owned(&engine, &trace, 0, corrupted);
        assert_eq!(y.data(), &[6.0, 0.0]);
    }

    #[test]
    fn int8_quantization_bounds_error() {
        let net = two_layer_net();
        let x = Tensor::from_vec(vec![1, 2], vec![0.5, -0.25]).unwrap();
        let engine = Engine::new(net, Precision::Int8, &[vec![x.clone()]]).unwrap();
        let y = engine.forward(&[x]).unwrap();
        // Identity->relu->2x with small values: quantization error is bounded
        // by a few grid steps.
        assert!((y.data()[0] - 1.0).abs() < 0.05);
        assert_eq!(y.data()[1], 0.0);
    }

    #[test]
    fn fp16_quantization_rounds_outputs() {
        let net = two_layer_net();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![0.1, 0.2]).unwrap();
        let y = engine.forward(&[x]).unwrap();
        for &v in y.data() {
            assert_eq!(crate::f16::round_to_f16(v), v);
        }
    }

    /// Backs the value-preserving quantize skip: every traced node output —
    /// including those of skipped layers (ReLU, max-pool, concat, flatten) —
    /// must already sit on its codec's grid, i.e. re-quantization is a
    /// bitwise no-op. Runs both precisions the executors skip under.
    ///
    /// Fault-free values only: a fault can write the INT8 code `0x80`,
    /// which quantizing clamps (`on_grid_skip_carries_int8_code_0x80`).
    #[test]
    fn trace_outputs_are_quantize_idempotent() {
        use crate::layers::{Concat, Conv2d, Flatten, Pool2d, PoolKind};

        let net = || {
            let conv_w = crate::init::uniform_tensor(11, vec![4, 2, 3, 3], 0.6);
            let fc_w = crate::init::uniform_tensor(12, vec![3, 32], 0.6);
            NetworkBuilder::new("grid")
                .input("x")
                .layer(
                    Conv2d::new("conv", conv_w).unwrap().with_padding(1, 1),
                    &["x"],
                )
                .unwrap()
                .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
                .unwrap()
                .layer(
                    Pool2d::new("pool", PoolKind::Max, 2).with_stride(2),
                    &["relu"],
                )
                .unwrap()
                .layer(Concat::new("cat", 1), &["pool", "pool"])
                .unwrap()
                .layer(Flatten::new("flat"), &["cat"])
                .unwrap()
                .layer(Dense::new("fc", fc_w).unwrap(), &["flat"])
                .unwrap()
                .build()
                .unwrap()
        };
        let x = crate::init::uniform_tensor(13, vec![1, 2, 4, 4], 1.0);
        for precision in [Precision::Fp16, Precision::Int8] {
            let engine = Engine::new(net(), precision, &[vec![x.clone()]]).unwrap();
            let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
            for idx in 0..engine.network().node_count() {
                let codec = engine.node_codec(idx);
                for (k, &v) in trace.node_outputs[idx].data().iter().enumerate() {
                    assert_eq!(
                        codec.quantize(v).to_bits(),
                        v.to_bits(),
                        "{precision:?} node {idx} elem {k} off-grid"
                    );
                }
            }
        }
    }

    /// A fault that writes INT8 code `0x80` (−128, outside the symmetric
    /// clamp) at a conv output reaches the dense layer unchanged through
    /// flatten, whose quantize pass the on-grid skip omits. Quantizing it
    /// would clamp the value to −127 and change the result.
    #[test]
    fn on_grid_skip_carries_int8_code_0x80() {
        use crate::layers::{Conv2d, Flatten};

        let conv_w = crate::init::uniform_tensor(11, vec![2, 1, 3, 3], 0.6);
        let fc_w = crate::init::uniform_tensor(12, vec![3, 32], 0.6);
        let net = NetworkBuilder::new("code80")
            .input("x")
            .layer(
                Conv2d::new("conv", conv_w).unwrap().with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Flatten::new("flat"), &["conv"])
            .unwrap()
            .layer(Dense::new("fc", fc_w).unwrap(), &["flat"])
            .unwrap()
            .build()
            .unwrap();
        let x = crate::init::uniform_tensor(13, vec![1, 1, 4, 4], 1.0);
        let engine = Engine::new(net, Precision::Int8, &[vec![x.clone()]]).unwrap();
        assert_eq!(engine.node_codec(0), engine.node_codec(1));
        let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
        let codec = engine.node_codec(0);

        let at = |node: usize, v: f32| {
            let mut t = trace.node_outputs[node].clone();
            t.data_mut()[0] = v;
            resume_owned(&engine, &trace, node, t)
        };
        let from_conv = at(0, codec.decode(0x80));
        assert_eq!(from_conv, at(1, codec.decode(0x80)));
        assert_ne!(from_conv, at(1, codec.quantize(codec.decode(0x80))));
    }

    #[test]
    fn range_bounding_clamps_corrupted_values() {
        let mut engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        engine
            .enable_range_bounding(std::slice::from_ref(&x), 2.0)
            .unwrap();
        // Clean behaviour unchanged.
        let trace = engine.trace(&[x]).unwrap();
        assert_eq!(trace.output.data(), &[2.0, 4.0]);
        // A huge injected value is clamped at the corrupted layer
        // (fc1's clean max-abs is 2, slack 2 → bound 4).
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[0] = 1e9;
        let y = resume_owned(&engine, &trace, 0, corrupted.clone());
        assert_eq!(y.data(), &[8.0, 4.0]); // 4 (clamped) × 2
                                           // NaN saturates to the bound instead of propagating.
        corrupted.data_mut()[0] = f32::NAN;
        let y = resume_owned(&engine, &trace, 0, corrupted);
        assert_eq!(y.data(), &[8.0, 4.0]);
        // Disabled bounding lets the corruption through again.
        engine.disable_range_bounding();
        let trace = engine
            .trace(&[Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap()])
            .unwrap();
        let mut corrupted = trace.node_outputs[0].clone();
        corrupted.data_mut()[0] = 1e9;
        let y = resume_owned(&engine, &trace, 0, corrupted);
        assert_eq!(y.data()[0], 2e9);
    }

    #[test]
    fn range_bounding_rejects_sub_unit_slack() {
        let mut engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        assert!(engine
            .enable_range_bounding(std::slice::from_ref(&x), 0.5)
            .is_err());
        assert!(engine.enable_range_bounding(&[x], f32::NAN).is_err());
    }

    #[test]
    fn named_output_selects_intermediate() {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let net = NetworkBuilder::new("t")
            .input("x")
            .layer(Dense::new("fc1", w.clone()).unwrap(), &["x"])
            .unwrap()
            .layer(Dense::new("fc2", w).unwrap(), &["fc1"])
            .unwrap()
            .output("fc1")
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![5.0, 6.0]).unwrap();
        assert_eq!(engine.forward(&[x]).unwrap().data(), &[5.0, 6.0]);
    }

    /// Deterministic pseudo-random fill for delta-path fixtures.
    fn lcg_fill(seed: &mut u64, shape: Vec<usize>) -> Tensor {
        let len = shape.iter().product();
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits to a small signed range with a fractional part.
            let v = ((*seed >> 40) as i64 - (1 << 23)) as f32 / (1 << 21) as f32;
            data.push(v);
        }
        Tensor::from_vec(shape, data).unwrap()
    }

    /// A little inception-style rank-4 network exercising every region-aware
    /// layer (conv, pool, activation, concat, bias-add, folded batch-norm,
    /// scale) plus a region-less tail (global-avg-pools → concat → dense)
    /// that forces the delta walk through its `All` fallback, with a
    /// second global-avg-pool on the stem as an independent source of the
    /// tail's concat.
    fn branchy_conv_net(seed: u64) -> Network {
        use crate::layers::{
            BiasAdd, Concat, Conv2d, GlobalAvgPool, Pool2d, PoolKind, Scale, ScaleShift,
        };
        let mut s = seed;
        NetworkBuilder::new("branchy")
            .input("x")
            .layer(
                Conv2d::new("stem", lcg_fill(&mut s, vec![4, 2, 3, 3]))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["stem"])
            .unwrap()
            .layer(
                Conv2d::new("b0", lcg_fill(&mut s, vec![2, 4, 1, 1])).unwrap(),
                &["relu"],
            )
            .unwrap()
            .layer(
                Pool2d::new("b1p", PoolKind::Max, 3)
                    .with_stride(1)
                    .with_padding(1),
                &["relu"],
            )
            .unwrap()
            .layer(
                Conv2d::new("b1c", lcg_fill(&mut s, vec![2, 4, 1, 1])).unwrap(),
                &["b1p"],
            )
            .unwrap()
            .layer(Concat::new("cat", 1), &["b0", "b1c"])
            .unwrap()
            .layer(
                BiasAdd::new("bias", lcg_fill(&mut s, vec![4])).unwrap(),
                &["cat"],
            )
            .unwrap()
            .layer(
                ScaleShift::new("bn", lcg_fill(&mut s, vec![4]), lcg_fill(&mut s, vec![4]))
                    .unwrap(),
                &["bias"],
            )
            .unwrap()
            .layer(Scale::new("scale", 0.75), &["bn"])
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["scale"])
            .unwrap()
            .layer(GlobalAvgPool::new("stem_gap"), &["relu"])
            .unwrap()
            .layer(Concat::new("gaps", 1), &["gap", "stem_gap"])
            .unwrap()
            .layer(
                Dense::new("head", lcg_fill(&mut s, vec![3, 8])).unwrap(),
                &["gaps"],
            )
            .unwrap()
            .build()
            .unwrap()
    }

    /// Bit image with NaN payloads canonicalized: NaN *positions* are part
    /// of the bitwise contract, NaN *payloads* are compiler-location
    /// dependent (see the `resume_delta` docs) and must compare equal.
    fn bits_of(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.shape().to_vec(),
            t.data()
                .iter()
                .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
                .collect(),
        )
    }

    /// The delta path must be byte-identical to the dense `resume`
    /// oracle for every injection node, patch shape, precision, and
    /// range-bounding mode — and must leave the overlay repaired to golden
    /// bits afterwards.
    #[test]
    fn resume_delta_matches_resume_bitwise() {
        let x = {
            let mut s = 0xD00D_u64;
            lcg_fill(&mut s, vec![1, 2, 6, 6])
        };
        for precision in [
            Precision::Fp32,
            Precision::Fp16,
            Precision::Int8,
            Precision::Int16,
        ] {
            for bounded in [false, true] {
                let mut engine =
                    Engine::new(branchy_conv_net(7), precision, &[vec![x.clone()]]).unwrap();
                if bounded {
                    engine
                        .enable_range_bounding(std::slice::from_ref(&x), 1.5)
                        .unwrap();
                }
                let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
                let n = engine.network().node_count();
                let mut ws = Workspace::new();
                ws.install_golden(golden_key(&trace), &trace.node_outputs);

                // A patch the ReLU after the stem fully masks: every stem
                // output that is already negative made more negative still.
                let stem = engine.network().node_index("stem").unwrap();
                let negative: Vec<usize> = (trace.node_outputs[stem].data().iter())
                    .enumerate()
                    .filter(|(_, v)| **v < 0.0)
                    .map(|(off, _)| off)
                    .collect();
                assert!(!negative.is_empty(), "fixture has no negative stem output");
                let relu_masked = (negative.clone(), vec![-8.0; negative.len()]);
                let masked = cone_metrics().masked.get();
                let verdict = engine
                    .resume_delta(
                        &trace,
                        stem,
                        &relu_masked.0,
                        &relu_masked.1,
                        None,
                        &mut ws,
                        bits_of,
                    )
                    .unwrap();
                assert_eq!(
                    verdict,
                    bits_of(&trace.output),
                    "judge must see golden bits"
                );
                assert!(cone_metrics().masked.get() > masked, "masking not counted");

                for node in 0..n {
                    let len = trace.node_outputs[node].len();
                    let mut patches: Vec<(Vec<usize>, Vec<f32>)> = vec![
                        (vec![0], vec![64.0]),
                        (vec![len - 1], vec![-1.0e30]),
                        (
                            vec![0, len / 2, len - 1],
                            vec![f32::NAN, f32::INFINITY, 3.5],
                        ),
                    ];
                    if node == stem {
                        patches.push(relu_masked.clone());
                    }
                    for (neurons, values) in patches {
                        let context = format!("precision {precision:?}, bounded {bounded}");
                        assert_delta_matches_dense(
                            &engine, &trace, &mut ws, node, &neurons, &values, &context,
                        );
                    }
                }
            }
        }
    }

    /// Evaluates one sparse fault through `resume_delta` and through the
    /// dense `resume` on a clone, and asserts that the two outputs agree
    /// bit for bit and that the overlay is bit-golden again afterwards,
    /// with an empty worklist.
    fn assert_delta_matches_dense(
        engine: &Engine,
        trace: &Trace,
        ws: &mut Workspace,
        node: usize,
        neurons: &[usize],
        values: &[f32],
        context: &str,
    ) {
        let delta = engine
            .resume_delta(trace, node, neurons, values, None, ws, bits_of)
            .unwrap();
        let mut repl = trace.node_outputs[node].clone();
        for (&off, &v) in neurons.iter().zip(values) {
            repl.data_mut()[off] = v;
        }
        let dense = resume_owned(engine, trace, node, repl);
        assert_eq!(
            delta,
            bits_of(&dense),
            "delta != dense at node {node} ({context}), fault {neurons:?} = {values:?}"
        );
        let overlay = ws.take_golden();
        assert_eq!(overlay.key, Some(golden_key(trace)));
        for (slot, gold) in overlay.slots.iter().zip(&trace.node_outputs) {
            assert_eq!(bits_of(slot), bits_of(gold), "overlay not repaired");
        }
        assert!(overlay.dirty.iter().all(Option::is_none));
        ws.put_golden(overlay);
    }

    /// A one-block attention encoder over `[tokens, features]` rows with
    /// every token-wise layer the delta walk windows by rows (dense, scale,
    /// softmax, feature concat, add, layer norm, ReLU) and both MatMul
    /// forms, which mix tokens and so recompute in full.
    fn attention_net(seed: u64) -> Network {
        use crate::layers::{Concat, LayerNorm, MatMul, Scale, Softmax};
        let (d, d_head, d_ffn) = (8, 4, 12);
        let mut s = seed;
        let mut b = NetworkBuilder::new("attention").input("x");
        let mut heads = Vec::new();
        for h in 0..2 {
            let name = |part: &str| format!("h{h}_{part}");
            for part in ["q", "k", "v"] {
                let w = lcg_fill(&mut s, vec![d_head, d]);
                b = b.layer(Dense::new(name(part), w).unwrap(), &["x"]).unwrap();
            }
            b = b
                .layer(
                    MatMul::transposed(name("scores")),
                    &[&name("q"), &name("k")],
                )
                .unwrap()
                .layer(Scale::new(name("scaled"), 0.5), &[&name("scores")])
                .unwrap()
                .layer(Softmax::new(name("attn")), &[&name("scaled")])
                .unwrap()
                .layer(MatMul::new(name("ctx")), &[&name("attn"), &name("v")])
                .unwrap();
            heads.push(name("ctx"));
        }
        let heads: Vec<&str> = heads.iter().map(String::as_str).collect();
        let norm = |s: &mut u64, name: &str| {
            let gamma = lcg_fill(s, vec![d]).map(|v| 1.0 + v / 4.0);
            LayerNorm::new(name, gamma, lcg_fill(s, vec![d])).unwrap()
        };
        b.layer(Concat::new("heads", 1), &heads)
            .unwrap()
            .layer(
                Dense::new("proj", lcg_fill(&mut s, vec![d, d])).unwrap(),
                &["heads"],
            )
            .unwrap()
            .layer(Add::new("res"), &["proj", "x"])
            .unwrap()
            .layer(norm(&mut s, "ln"), &["res"])
            .unwrap()
            .layer(
                Dense::new("ffn1", lcg_fill(&mut s, vec![d_ffn, d])).unwrap(),
                &["ln"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["ffn1"])
            .unwrap()
            .layer(
                Dense::new("ffn2", lcg_fill(&mut s, vec![d, d_ffn])).unwrap(),
                &["relu"],
            )
            .unwrap()
            .layer(Add::new("ffn_res"), &["ffn2", "ln"])
            .unwrap()
            .layer(norm(&mut s, "ffn_ln"), &["ffn_res"])
            .unwrap()
            .build()
            .unwrap()
    }

    /// The delta walk over rank-2 token rows is byte-identical to the dense
    /// `resume` on an attention block, under random sparse faults at every
    /// node — NaN, ±∞, ±0, subnormals, huge and near-golden values — in
    /// FP16, and in INT8 with and without range bounding.
    #[test]
    fn resume_delta_matches_resume_bitwise_on_token_rows() {
        use crate::init::SplitMix64;
        let x = {
            let mut s = 0x70CE_u64;
            lcg_fill(&mut s, vec![7, 8])
        };
        let mut rng = SplitMix64::new(0xA77E);
        for (precision, bounded) in [
            (Precision::Fp16, false),
            (Precision::Int8, true),
            (Precision::Int8, false),
        ] {
            let mut engine = Engine::new(attention_net(3), precision, &[vec![x.clone()]]).unwrap();
            if bounded {
                engine
                    .enable_range_bounding(std::slice::from_ref(&x), 1.5)
                    .unwrap();
            }
            let trace = engine.trace(std::slice::from_ref(&x)).unwrap();
            let mut ws = Workspace::new();
            ws.install_golden(golden_key(&trace), &trace.node_outputs);
            for node in 0..engine.network().node_count() {
                // Every layer but the two MatMuls has a row window here.
                let layer = engine.network().layer(node);
                let inputs = engine.node_inputs(node, &trace);
                let shapes: Vec<&[usize]> = inputs.iter().map(|t| t.shape()).collect();
                assert_eq!(
                    layer.region_map(&shapes, (0, 1), (0, 1)).is_some(),
                    layer.kind() != LayerKind::MatMul,
                    "{}",
                    layer.name()
                );
                let gold = trace.node_outputs[node].data();
                for _ in 0..24 {
                    let faults = 1 + rng.next_below(3) as usize;
                    let mut neurons = Vec::new();
                    let mut values = Vec::new();
                    for _ in 0..faults {
                        let off = rng.next_below(gold.len() as u64) as usize;
                        if neurons.contains(&off) {
                            continue;
                        }
                        let g = gold[off];
                        neurons.push(off);
                        values.push(match rng.next_below(10) {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            2 => f32::NEG_INFINITY,
                            3 => 0.0,
                            4 => -0.0,
                            5 => f32::MIN_POSITIVE / 3.0,
                            6 => -1.0e30,
                            7 => g + g.abs() * 1e-6,
                            8 => -g,
                            _ => g * 4.0 + 1.0,
                        });
                    }
                    let context = format!("precision {precision:?}, bounded {bounded}");
                    assert_delta_matches_dense(
                        &engine, &trace, &mut ws, node, &neurons, &values, &context,
                    );
                }
            }
        }
    }

    #[test]
    fn resume_delta_requires_installed_overlay() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let trace = engine.trace(&[x]).unwrap();
        let mut ws = Workspace::new();
        let r = engine.resume_delta(&trace, 0, &[0], &[9.0], None, &mut ws, |_| ());
        assert!(matches!(r, Err(DnnError::InvalidConfig { .. })));
        // Arity mismatch between neurons and values is rejected up front.
        ws.install_golden(golden_key(&trace), &trace.node_outputs);
        let r = engine.resume_delta(&trace, 0, &[0, 1], &[9.0], None, &mut ws, |_| ());
        assert!(matches!(r, Err(DnnError::InvalidConfig { .. })));
    }

    #[test]
    fn golden_key_is_trace_instance_identity() {
        let engine = Engine::new(two_layer_net(), Precision::Fp32, &[]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let t1 = engine.trace(std::slice::from_ref(&x)).unwrap();
        let t2 = engine.trace(std::slice::from_ref(&x)).unwrap();
        assert_eq!(golden_key(&t1), golden_key(&t1), "key must be stable");
        // Equal values, different buffers: different identity.
        assert_ne!(golden_key(&t1), golden_key(&t2));
    }

    #[test]
    fn sparse_and_union_region_geometry() {
        // Bounding box over scattered rank-4 offsets.
        let r = sparse_region(&[1, 2, 4, 5], [7, 13]);
        // 7 -> (row 1, col 2); 13 -> (row 2, col 3).
        assert_eq!(
            r,
            Some(Region::Window {
                h: (1, 3),
                w: (2, 4)
            })
        );
        // Rank 2 is one plane of token rows × feature columns: 3 -> (row
        // 0, col 3); 27 -> (row 2, col 7).
        assert_eq!(
            sparse_region(&[4, 10], [3]),
            Some(Region::Window {
                h: (0, 1),
                w: (3, 4)
            })
        );
        assert_eq!(
            sparse_region(&[4, 10], [27, 3]),
            Some(Region::Window {
                h: (0, 3),
                w: (3, 8)
            })
        );
        // Other ranks have no window.
        assert_eq!(sparse_region(&[2, 3, 10], [3]), Some(Region::All));
        assert_eq!(sparse_region(&[10], [3]), Some(Region::All));
        assert_eq!(sparse_region(&[1, 1, 4, 4], []), None);
        assert_eq!(sparse_region(&[4, 10], []), None);

        let w1 = Region::Window {
            h: (0, 2),
            w: (3, 4),
        };
        let w2 = Region::Window {
            h: (1, 3),
            w: (0, 1),
        };
        assert_eq!(
            union_region(Some(w1), w2),
            Region::Window {
                h: (0, 3),
                w: (0, 4)
            }
        );
        assert_eq!(union_region(None, w1), w1);
        assert_eq!(union_region(Some(Region::All), w2), Region::All);
        assert_eq!(union_region(Some(w1), Region::All), Region::All);
    }

    /// Flat index ranges of the window `h × w` of a rank-4 tensor (or a
    /// rank-2 one, as one plane), one per (plane, row) and clipped to the
    /// shape: the row-by-row walk the settle reference keeps.
    fn window_row_ranges(
        shape: &[usize],
        (h0, h1): (usize, usize),
        (w0, w1): (usize, usize),
    ) -> Vec<(usize, usize)> {
        let [n, c, hh, ww] = plane_dims(shape).expect("rank 2 or 4");
        let planes = n * c;
        let (h0, h1, w0, w1) = (h0.min(hh), h1.min(hh), w0.min(ww), w1.min(ww));
        let mut out = Vec::new();
        if h0 < h1 && w0 < w1 {
            for plane in 0..planes {
                for r in h0..h1 {
                    let row = (plane * hh + r) * ww;
                    out.push((row + w0, row + w1));
                }
            }
        }
        out
    }

    /// Whether two equal-length slices differ in any bit.
    fn bits_differ(a: &[f32], b: &[f32]) -> bool {
        a.iter().zip(b).any(|(p, q)| p.to_bits() != q.to_bits())
    }

    /// The exact divergence of `cur` from `gold` within `within`, row by
    /// row: the bounding box (rank 4) of the differing elements, the
    /// full-width band of the rows that hold them (rank 2), `Region::All`
    /// for other ranks when any bit differs, `None` when every bit matches.
    fn diff_region(cur: &Tensor, gold: &Tensor, within: Region) -> Option<Region> {
        let (cur, gold_d) = (cur.data(), gold.data());
        let shape = gold.shape();
        let Some([_, _, hh, ww]) = plane_dims(shape) else {
            return bits_differ(cur, gold_d).then_some(Region::All);
        };
        let (h, w) = match within {
            Region::All => ((0, hh), (0, ww)),
            Region::Window { h, w } => (h, w),
        };
        let (mut h0, mut h1, mut w0, mut w1) = (usize::MAX, 0usize, usize::MAX, 0usize);
        for (a, b) in window_row_ranges(shape, h, w) {
            if !bits_differ(&cur[a..b], &gold_d[a..b]) {
                continue;
            }
            let differs = |i: &usize| cur[*i].to_bits() != gold_d[*i].to_bits();
            let first = (a..b).find(differs).unwrap_or(a);
            let last = (first..b).rfind(differs).unwrap_or(first);
            let r = (a / ww) % hh;
            h0 = h0.min(r);
            h1 = h1.max(r + 1);
            w0 = w0.min(first % ww);
            w1 = w1.max(last % ww + 1);
        }
        if shape.len() == 2 {
            (w0, w1) = (0, ww);
        }
        (h0 < h1).then_some(Region::Window {
            h: (h0, h1),
            w: (w0, w1),
        })
    }

    /// The three passes [`settle`] replaced, kept as its reference:
    /// quantize the window row by row, clamp it row by row, then diff it
    /// against golden.
    fn settle_reference(
        cur: &mut Tensor,
        gold: &Tensor,
        within: Region,
        quant: Option<ValueCodec>,
        bound: Option<f32>,
    ) -> Option<Region> {
        let shape = gold.shape().to_vec();
        let ranges = match within {
            Region::Window { h, w } if plane_dims(&shape).is_some() => {
                window_row_ranges(&shape, h, w)
            }
            _ => vec![(0, cur.len())],
        };
        let data = cur.data_mut();
        if let Some(codec) = quant {
            for &(a, b) in &ranges {
                codec.quantize_slice(&mut data[a..b]);
            }
        }
        if let Some(bound) = bound {
            for &(a, b) in &ranges {
                for v in &mut data[a..b] {
                    *v = clamp_to_bound(*v, bound);
                }
            }
        }
        diff_region(cur, gold, within)
    }

    /// One random settle case: a golden tensor already settled on the
    /// codec's grid and within the bound, a window over it (single element,
    /// full width, clipped past the edge, empty or arbitrary) whose
    /// elements are salted with raw values — NaN, ±∞, ±0, subnormals, values
    /// that round back to golden, and golden bits — and the codec and bound
    /// to settle with. Returns `(cur, gold, window, quant, bound)`.
    fn settle_case(seed: u64) -> (Tensor, Tensor, Region, Option<ValueCodec>, Option<f32>) {
        use crate::init::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: usize| rng.next_below(n as u64) as usize;
        let shape: Vec<usize> = match below(8) {
            // Rank 2 settles token rows; rank 3 in one flat pass.
            0 => vec![1 + below(17), 1 + below(200)],
            1 => vec![1 + below(3), 1 + below(9), 1 + below(70)],
            // A band far longer than any fixed-size mask buffer.
            2 => vec![1, 1 + below(3), 33 + below(32), 33 + below(32)],
            _ => {
                let planes = 1 + below(40);
                let batch = if planes % 2 == 0 { 1 + below(2) } else { 1 };
                vec![batch, planes / batch, 1 + below(17), 1 + below(17)]
            }
        };
        let precision = [
            Precision::Fp32,
            Precision::Fp16,
            Precision::Int8,
            Precision::Int16,
        ][below(4)];
        let quant = (below(5) != 0).then(|| {
            let max_abs = 0.5 + 8.0 * (below(1000) as f32 / 1000.0);
            ValueCodec::new(precision, calibrate_scale(precision, max_abs))
        });
        let len: usize = shape.iter().product();
        let mut gold: Vec<f32> = (0..len)
            .map(|_| (below(20_001) as f32 - 10_000.0) / 1_000.0)
            .collect();
        if let Some(codec) = quant {
            codec.quantize_slice(&mut gold);
        }
        let max_abs = gold.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let bound = (below(2) == 0).then(|| max_abs.max(1e-3) * (1.0 + below(100) as f32 / 100.0));

        let window = if let Some([_, _, hh, ww]) = plane_dims(&shape) {
            let (r, c) = (below(hh), below(ww));
            match below(6) {
                0 => Region::Window {
                    h: (r, r + 1),
                    w: (c, c + 1),
                },
                1 => Region::Window {
                    h: (r, r + 1 + below(hh - r)),
                    w: (0, ww),
                },
                2 => Region::Window {
                    h: (r, hh + 1 + below(3)),
                    w: (c, ww + 1 + below(3)),
                },
                3 => Region::Window {
                    h: (r, r),
                    w: (c, c + 1 + below(ww - c)),
                },
                4 => Region::All,
                _ => Region::Window {
                    h: (r, r + 1 + below(hh - r)),
                    w: (c, c + 1 + below(ww - c)),
                },
            }
        } else {
            Region::All
        };
        let inside: Vec<usize> = match window {
            Region::All => (0..len).collect(),
            Region::Window { h, w } => window_row_ranges(&shape, h, w)
                .into_iter()
                .flat_map(|(a, b)| a..b)
                .collect(),
        };
        let mut cur = gold.clone();
        let salt_rate = 1 + below(4);
        for off in inside {
            if below(salt_rate) != 0 {
                continue; // keep golden bits
            }
            cur[off] = match below(12) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f32::MIN_POSITIVE / (2 + below(1000)) as f32,
                6 => -f32::MIN_POSITIVE / 3.0,
                // Rounds back to golden on every reduced grid.
                7 => gold[off] + gold[off].abs() * 1e-6,
                8 => gold[off] * (below(2000) as f32 / 100.0),
                _ => (below(2_000_001) as f32 - 1_000_000.0) / 1_000.0,
            };
        }
        (
            Tensor::from_vec(shape.clone(), cur).unwrap(),
            Tensor::from_vec(shape, gold).unwrap(),
            window,
            quant,
            bound,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(768))]

        /// The one settle pass over the row band equals quantize, clamp and
        /// diff over the window row by row: bit for bit on the tensor, and
        /// exactly on the returned dirty region.
        #[test]
        fn settle_matches_row_by_row_reference(seed in 0u64..u64::MAX) {
            let (cur, gold, window, quant, bound) = settle_case(seed);
            let mut want = cur.clone();
            let want_region = settle_reference(&mut want, &gold, window, quant, bound);
            let mut got = cur;
            let rows = match window {
                Region::Window { h, .. } => Some(h),
                Region::All => None,
            };
            let mut mask = Vec::new();
            let got_region = settle(&mut got, &gold, rows, quant, bound, &mut mask);
            proptest::prop_assert_eq!(
                got_region,
                want_region,
                "shape {:?} window {:?} quant {:?} bound {:?}",
                gold.shape(),
                window,
                quant,
                bound
            );
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert!(
                bits(&got) == bits(&want),
                "tensor bits differ: shape {:?} window {:?} quant {:?} bound {:?}",
                gold.shape(),
                window,
                quant,
                bound
            );
        }
    }

    /// `for_each_window_row` covers exactly the window's elements, in
    /// order, whether it emits one range per row or, for a full-width
    /// window, one band per plane.
    #[test]
    fn window_rows_cover_the_window_exactly() {
        let shape = [2, 3, 5, 4];
        for h in [(0, 5), (1, 3), (2, 2), (4, 9)] {
            for w in [(0, 4), (0, 9), (1, 3), (3, 3)] {
                let mut got = Vec::new();
                for_each_window_row(&shape, h, w, |a, b| got.extend(a..b));
                let want: Vec<usize> = window_row_ranges(&shape, h, w)
                    .into_iter()
                    .flat_map(|(a, b)| a..b)
                    .collect();
                assert_eq!(got, want, "h {h:?} w {w:?}");
            }
        }
    }
}
