//! Layer implementations and the [`Layer`] trait.
//!
//! MAC layers (convolution, fully-connected, matrix multiplication) expose a
//! [`MacSpec`] so the fault-injection engine can map operand elements to
//! output neurons and recompute individual neurons with substituted faulty
//! values.

mod activation;
mod conv;
mod dense;
mod elementwise;
mod embedding;
mod norm;
mod pool;
mod recurrent;
mod shape_ops;

pub use activation::{Activation, ActivationKind, Softmax};
pub use conv::Conv2d;
pub use dense::{Dense, MatMul};
pub use elementwise::{Add, BiasAdd, Concat, Mul, Scale};
pub use embedding::Embedding;
pub use norm::{LayerNorm, ScaleShift};
pub use pool::{GlobalAvgPool, Pool2d, PoolKind};
pub use recurrent::Lstm;
pub use shape_ops::{Flatten, Reshape, Slice, Transpose2d};

use crate::error::DnnError;
use crate::macspec::{LanePanel, MacSpec};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::{Region, Workspace};

/// Broad family of a layer, used by the resilience framework to decide which
/// software fault models apply and by the performance model to cost layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerKind {
    /// 2-D convolution (MAC layer).
    Conv,
    /// Fully-connected (MAC layer).
    Dense,
    /// Matrix multiplication (MAC layer).
    MatMul,
    /// Bias addition.
    Bias,
    /// Pointwise non-linearity.
    Activation,
    /// Softmax.
    Softmax,
    /// Spatial pooling.
    Pool,
    /// Normalization (batch-norm fold, layer-norm).
    Norm,
    /// Element-wise arithmetic / concatenation.
    Elementwise,
    /// Embedding lookup.
    Embedding,
    /// Recurrent cell.
    Recurrent,
    /// Pure data-movement (reshape, flatten, slice, transpose).
    Shape,
}

impl LayerKind {
    /// Whether the layer family performs multiply-accumulate computation on
    /// the accelerator's MAC array (the layers of Table II).
    pub fn is_mac(self) -> bool {
        matches!(self, LayerKind::Conv | LayerKind::Dense | LayerKind::MatMul)
    }
}

/// A network layer.
///
/// Layers are immutable during inference; weights can be quantized once via
/// [`Layer::quantize_weights`] when an engine is prepared for a reduced
/// precision.
pub trait Layer: Send + Sync {
    /// Unique layer name within its network.
    fn name(&self) -> &str;

    /// Layer family.
    fn kind(&self) -> LayerKind;

    /// Number of input tensors the layer consumes, or `None` when variadic.
    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    /// The layer's weight tensors (empty for weightless layers).
    fn weights(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Runs the layer, drawing the output tensor and any temporaries from
    /// `ws` so hot loops (campaign injections) never touch the global
    /// allocator in steady state. Pooling never affects values — outputs are
    /// bit-identical to an allocating run.
    ///
    /// A layer with a window kernel ([`Layer::forward_region`]) has no
    /// forward of its own: `forward` checks arity and shapes, draws the
    /// output from `ws` and runs the kernel over [`Region::All`]. So a
    /// window can never compute a value the full forward would not.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError`] when input shapes are incompatible with the
    /// layer's configuration.
    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError>;

    /// Runs the layer with a throwaway workspace — the convenient form for
    /// one-off calls and tests, where allocation cost is irrelevant.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::forward`].
    fn forward_alloc(&self, inputs: &[&Tensor]) -> Result<Tensor, DnnError> {
        let mut ws = Workspace::new();
        self.forward(inputs, &mut ws)
    }

    /// MAC geometry for this layer given its input shapes, when the layer is
    /// a MAC layer.
    fn mac_spec(&self, input_shapes: &[&[usize]]) -> Option<MacSpec> {
        let _ = input_shapes;
        None
    }

    /// The weight operand of a MAC layer that owns its weights (conv,
    /// dense), with the panel the layer packed it into for the lane kernel.
    /// `None` (the default) for non-MAC layers and for matmul, whose second
    /// operand is an activation.
    fn mac_weight(&self) -> Option<(&Tensor, &LanePanel)> {
        None
    }

    /// Whether every output element is bitwise one of the input elements or
    /// `+0.0` (for any inputs and shapes). For such layers re-quantization is
    /// a no-op whenever the inputs already lie on the consumer codec's grid:
    /// grids are closed under round-to-grid, and `+0.0` quantizes to itself
    /// under every codec. The engine uses this to skip the per-element
    /// quantize pass on data-movement and selection layers (concat, reshape,
    /// max-pool, ReLU) when producer and consumer codecs are equal. One
    /// faulty value is off its grid: the integer code −qmax−1 (INT8 `0x80`),
    /// which quantizing would clamp and the skip carries on unchanged, so
    /// the skip also fixes INT8/INT16 results.
    ///
    /// Only return `true` when the property holds for *all* inputs, including
    /// non-finite values: a max-pool window of NaNs yields `-inf`, which is
    /// on the binary16 grid, and integer grids cannot contain non-finite
    /// inputs in the first place.
    fn values_preserved(&self) -> bool {
        false
    }

    /// Rounds the layer's weights onto the codec's representable grid.
    ///
    /// Engines call this once when preparing a reduced-precision deployment,
    /// mirroring post-training quantization of a trained model.
    fn quantize_weights(&mut self, codec: &ValueCodec) {
        let _ = codec;
    }

    /// Number of multiply-accumulate operations for the given inputs
    /// (0 for non-MAC layers).
    fn macs(&self, input_shapes: &[&[usize]]) -> u64 {
        self.mac_spec(input_shapes).map_or(0, |s| s.macs())
    }

    /// Maps a spatial window of the layer's inputs to the window of outputs
    /// that can depend on it, for layers whose dataflow is local in rows.
    /// `h`/`w` are half-open `[lo, hi)` row/column ranges shared by every
    /// input (multi-input layers that support regions have equal row
    /// counts, and equal spatial dims on rank 4, across inputs). On a
    /// rank-4 NCHW tensor they index its spatial rows and columns; on a
    /// rank-2 `[tokens, features]` tensor, viewed as one plane, its token
    /// rows and feature columns. Pointwise layers map a window to itself;
    /// layers whose outputs read a whole token row (dense, layer norm,
    /// softmax, concat on features) map rows `h` to the same rows and every
    /// column, `(0, usize::MAX)`, which window consumers clamp to the
    /// output's width. The delta walk widens every window but a conv's or
    /// a pool's to full-width rows, so it reads only the rows of such a
    /// window.
    ///
    /// The input window the delta resume path passes in is exact: the
    /// bounding box of the elements whose bits differ from golden (see
    /// [`crate::graph::Engine::resume_delta`]). The returned window must
    /// cover every output that reads any element of it; the walk then
    /// narrows it again to the outputs whose bits actually changed.
    ///
    /// `None` (the default) means "no spatial locality": a changed input
    /// window may affect the whole output, and the delta resume path falls
    /// back to a full recompute of this layer (counted by the
    /// `dnn.cone.dense_fallback` metric).
    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        let _ = (input_shapes, h, w);
        None
    }

    /// The layer's window kernel: computes the output elements in `region`
    /// into `out`, which must have the output's shape and may hold any
    /// values, and leaves every other element untouched.
    ///
    /// [`Region::All`] writes every element: it is the layer's forward, run
    /// in place. [`Region::Window`] writes the window `h × w` (all batches
    /// and channels of a rank-4 output; the rows × columns of a rank-2 one),
    /// where a layer whose [`Layer::region_map`] answers full rows writes
    /// every column of the rows `h`.
    ///
    /// Returns `Ok(false)`, without writing, when the layer has no window
    /// kernel (the default), or when `region` is a window and the inputs'
    /// shapes have no window view for the layer; the caller then runs the
    /// kernel over [`Region::All`], or [`Layer::forward`] when there is no
    /// kernel at all. Since a layer's `forward` is this kernel over the
    /// whole output, a window holds exactly the bytes a forward places at
    /// the same offsets: the delta walk relies on that when it compares a
    /// window bit for bit against golden.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::forward`], plus
    /// [`DnnError::ShapeMismatch`] when `out` does not have the output's
    /// shape.
    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = (inputs, region, out, ws);
        Ok(false)
    }
}

/// The `forward` of a layer with a window kernel: its
/// [`Layer::forward_region`] over the whole of a `dims`-shaped output drawn
/// from `ws`.
pub(crate) fn forward_whole(
    layer: &impl Layer,
    inputs: &[&Tensor],
    dims: &[usize],
    ws: &mut Workspace,
) -> Result<Tensor, DnnError> {
    let mut out = ws.zeros(dims);
    let ran = layer.forward_region(inputs, Region::All, &mut out, ws)?;
    assert!(ran, "a window kernel runs over the whole output");
    Ok(out)
}

/// Checks that a window kernel's `out` has the output's shape `dims`.
#[inline]
pub(crate) fn check_out(
    context: &'static str,
    out: &Tensor,
    dims: &[usize],
) -> Result<(), DnnError> {
    if out.shape() != dims {
        return Err(DnnError::ShapeMismatch {
            context,
            expected: format!("{dims:?} output"),
            actual: format!("{:?}", out.shape()),
        });
    }
    Ok(())
}

/// The column range of a window that spans every column of its rows, for
/// [`Layer::region_map`]s whose outputs read whole rows; consumers clamp it
/// to the tensor's width.
pub(crate) const ALL_COLUMNS: (usize, usize) = (0, usize::MAX);

/// The `[batch, channels, rows, cols]` view the delta walk windows a
/// tensor through: a rank-4 NCHW tensor as it is, a rank-2
/// `[tokens, features]` tensor as one plane `[1, 1, tokens, features]`, and
/// `None` for every other rank (no window: the walk treats it whole).
pub(crate) fn plane_dims(shape: &[usize]) -> Option<[usize; 4]> {
    match *shape {
        [n, c, h, w] => Some([n, c, h, w]),
        [h, w] => Some([1, 1, h, w]),
        _ => None,
    }
}

/// Calls `f(start, end)` with the flat index range of each spatial row
/// segment in the window `h × w` of a rank-4 NCHW or rank-2 tensor (see
/// [`plane_dims`]), for every batch and channel. Ranges are clamped to the
/// shape, and an empty window calls `f` zero times. A window spanning full
/// rows is one contiguous band per channel plane, so it is emitted as one
/// range per plane.
///
/// # Panics
///
/// On a tensor of any other rank: it has no window view, and writing
/// nothing would leave stale bits behind.
pub(crate) fn for_each_window_row(
    shape: &[usize],
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
    mut f: impl FnMut(usize, usize),
) {
    let [n, c, hh, ww] = plane_dims(shape).expect("window view needs rank 2 or 4");
    let planes = n * c;
    let (h0, h1) = (h0.min(hh), h1.min(hh));
    let (w0, w1) = (w0.min(ww), w1.min(ww));
    if h0 >= h1 || w0 >= w1 {
        return;
    }
    for plane in 0..planes {
        let base = plane * hh * ww;
        if w1 - w0 == ww {
            f(base + h0 * ww, base + h1 * ww);
            continue;
        }
        for r in h0..h1 {
            let row = base + r * ww;
            f(row + w0, row + w1);
        }
    }
}

/// Calls `f(start, end)` for the flat index ranges of `region` in a tensor
/// of `shape`: the whole tensor as one range for [`Region::All`], any rank;
/// a window's row segments as [`for_each_window_row`] emits them. Returns
/// `false`, calling `f` zero times, for a window on a tensor with no window
/// view.
pub(crate) fn for_each_region_row(
    shape: &[usize],
    region: Region,
    mut f: impl FnMut(usize, usize),
) -> bool {
    match region {
        Region::All => f(0, shape.iter().product()),
        Region::Window { .. } if plane_dims(shape).is_none() => return false,
        Region::Window { h, w } => for_each_window_row(shape, h, w, f),
    }
    true
}

/// The window kernel of the per-channel layers (BiasAdd, ScaleShift):
/// `f(x, i)` for each element `x` of `region`, where `i` is the element's
/// channel on a rank-4 NCHW tensor and its last-dimension feature on the
/// `flat_ranks`, which have no window view here (whole output only), each
/// over `params` channels or features. Named errors use `context`.
pub(crate) fn per_channel_region(
    context: &'static str,
    (params, flat_ranks): (usize, &[usize]),
    x: &Tensor,
    region: Region,
    out: &mut Tensor,
    f: impl Fn(f32, usize) -> f32,
) -> Result<bool, DnnError> {
    let mismatch = |expected: String, actual: String| DnnError::ShapeMismatch {
        context,
        expected,
        actual,
    };
    let shape = x.shape();
    let (dim, what) = match shape.len() {
        4 => (1, "channels"),
        r if flat_ranks.contains(&r) => (r - 1, "features"),
        r => {
            let ranks: Vec<String> = flat_ranks.iter().map(usize::to_string).collect();
            let expected = format!("rank {} or 4 input", ranks.join(", "));
            return Err(mismatch(expected, format!("rank {r}")));
        }
    };
    if shape[dim] != params {
        return Err(mismatch(
            format!("{params} {what}"),
            format!("{}", shape[dim]),
        ));
    }
    check_out(context, out, shape)?;
    let (src, dst) = (x.data(), out.data_mut());
    if let [_, c, hh, ww] = *shape {
        let (h, w) = region.extent();
        for_each_window_row(shape, h, w, |a, b| {
            let ch = (a / (hh * ww)) % c;
            for (d, s) in dst[a..b].iter_mut().zip(&src[a..b]) {
                *d = f(*s, ch);
            }
        });
        return Ok(true);
    }
    if region != Region::All {
        return Ok(false);
    }
    for (d_row, s_row) in dst.chunks_exact_mut(params).zip(src.chunks_exact(params)) {
        for (i, (d, s)) in d_row.iter_mut().zip(s_row).enumerate() {
            *d = f(*s, i);
        }
    }
    Ok(true)
}

pub(crate) fn check_arity(layer: &str, expected: usize, actual: usize) -> Result<(), DnnError> {
    if expected != actual {
        return Err(DnnError::ArityMismatch {
            layer: layer.to_owned(),
            expected,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_kinds() {
        assert!(LayerKind::Conv.is_mac());
        assert!(LayerKind::Dense.is_mac());
        assert!(LayerKind::MatMul.is_mac());
        assert!(!LayerKind::Pool.is_mac());
        assert!(!LayerKind::Bias.is_mac());
    }

    /// Every layer with a window kernel, on rank-4 and rank-2 inputs and on
    /// shapes with no window view: the kernel run in place over stale bytes
    /// equals `forward`, and a window, for random windows including
    /// clipped (past the edge) and empty ones, holds the whole-output run's
    /// bits while every byte outside it keeps a sentinel. A shape with no
    /// window view refuses a window and writes nothing.
    #[test]
    fn every_window_matches_the_whole_output() {
        use crate::init::{uniform_tensor, SplitMix64};
        let u = |seed, shape: &[usize]| uniform_tensor(seed, shape.to_vec(), 2.0);
        let leaky = || Box::new(Activation::new("leaky", ActivationKind::LeakyRelu(0.1)));
        let norm = || Box::new(LayerNorm::new("ln", u(30, &[4]), u(31, &[4])).unwrap());
        let bn = || Box::new(ScaleShift::new("bn", u(32, &[3]), u(33, &[3])).unwrap());
        let bias = || Box::new(BiasAdd::new("bias", u(34, &[3])).unwrap());
        let cases: Vec<(Box<dyn Layer>, Vec<Tensor>)> = vec![
            (
                Box::new(
                    Conv2d::new("conv", u(1, &[10, 3, 3, 3]))
                        .unwrap()
                        .with_stride(2, 1)
                        .with_padding(1, 1),
                ),
                vec![u(2, &[2, 3, 7, 6])],
            ),
            (
                Box::new(
                    Conv2d::new("dw", u(3, &[3, 1, 3, 3]))
                        .unwrap()
                        .with_groups(3)
                        .with_padding(1, 1),
                ),
                vec![u(4, &[1, 3, 6, 5])],
            ),
            (
                Box::new(Dense::new("fc", u(5, &[9, 6])).unwrap()),
                vec![u(6, &[7, 6])],
            ),
            (
                Box::new(
                    Pool2d::new("max", PoolKind::Max, 3)
                        .with_stride(2)
                        .with_padding(1),
                ),
                vec![u(7, &[2, 3, 7, 6])],
            ),
            (
                Box::new(Pool2d::new("avg", PoolKind::Avg, 2)),
                vec![u(8, &[1, 2, 6, 7])],
            ),
            (leaky(), vec![u(9, &[2, 3, 5, 4])]),
            (leaky(), vec![u(10, &[5, 4])]),
            (leaky(), vec![u(11, &[2, 3, 4])]),
            (Box::new(Softmax::new("sm")), vec![u(12, &[2, 3, 5, 4])]),
            (Box::new(Softmax::new("sm")), vec![u(13, &[5, 4])]),
            (Box::new(Softmax::new("sm")), vec![u(14, &[2, 3, 4])]),
            (norm(), vec![u(15, &[1, 2, 5, 4])]),
            (norm(), vec![u(16, &[5, 4])]),
            (norm(), vec![u(17, &[2, 3, 4])]),
            (bn(), vec![u(18, &[2, 3, 5, 4])]),
            (bn(), vec![u(19, &[5, 3])]),
            (bias(), vec![u(20, &[2, 3, 5, 4])]),
            (bias(), vec![u(21, &[5, 3])]),
            (bias(), vec![u(22, &[2, 5, 3])]),
            (
                Box::new(Add::new("add")),
                vec![u(23, &[2, 3, 5, 4]), u(24, &[2, 3, 5, 4])],
            ),
            (
                Box::new(Add::new("add")),
                vec![u(25, &[2, 5, 3]), u(26, &[2, 5, 3])],
            ),
            (
                Box::new(Mul::new("mul")),
                vec![u(27, &[5, 4]), u(28, &[5, 4])],
            ),
            (
                Box::new(Scale::new("scale", 0.3)),
                vec![u(29, &[2, 3, 5, 4])],
            ),
            (Box::new(Scale::new("scale", 0.3)), vec![u(35, &[5, 4])]),
            (
                Box::new(Concat::new("cat", 1)),
                vec![u(36, &[2, 1, 5, 4]), u(37, &[2, 3, 5, 4])],
            ),
            (
                Box::new(Concat::new("cat", 1)),
                vec![u(38, &[5, 2]), u(39, &[5, 3])],
            ),
        ];
        let sentinel = f32::from_bits(0x7FC0_1234);
        let mut rng = SplitMix64::new(40);
        let mut ws = Workspace::new();
        for (layer, inputs) in &cases {
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let what = format!("{} on {:?}", layer.name(), inputs[0].shape());
            let full = layer.forward(&refs, &mut ws).unwrap();
            let mut out = Tensor::full(full.shape().to_vec(), sentinel);
            assert!(layer
                .forward_region(&refs, Region::All, &mut out, &mut ws)
                .unwrap());
            for (off, (got, want)) in out.data().iter().zip(full.data()).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{what}, whole, elem {off}");
            }
            // Window geometry: which outputs a window writes, or `None`
            // when these shapes have no window view.
            let shapes: Vec<&[usize]> = inputs.iter().map(Tensor::shape).collect();
            let rows_only = layer
                .region_map(&shapes, (0, 1), (0, 1))
                .map(|(_, w)| w == ALL_COLUMNS);
            let [_, _, hh, ww] = plane_dims(full.shape()).unwrap_or([1, 1, 1, 1]);
            for _ in 0..100 {
                let mut pick = |n: usize| {
                    let lo = rng.next_below(n as u64 + 2) as usize;
                    (lo, lo + rng.next_below(n as u64 + 2) as usize)
                };
                let (h, w) = (pick(hh), pick(ww));
                let mut out = Tensor::full(full.shape().to_vec(), sentinel);
                let window = Region::Window { h, w };
                let ran = layer
                    .forward_region(&refs, window, &mut out, &mut ws)
                    .unwrap();
                assert_eq!(ran, rows_only.is_some(), "{what}");
                let w = if rows_only == Some(true) {
                    ALL_COLUMNS
                } else {
                    w
                };
                for (off, (got, want)) in out.data().iter().zip(full.data()).enumerate() {
                    let (r, col) = ((off / ww) % hh, off % ww);
                    let inside = ran && h.0 <= r && r < h.1 && w.0 <= col && col < w.1;
                    let expect = if inside { *want } else { sentinel };
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "{what}, window {h:?}×{w:?}, elem {off}"
                    );
                }
            }
        }
    }
}
