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
use crate::workspace::Workspace;

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

    /// Recomputes only the output elements in the window `h × w` (all
    /// batches and channels of a rank-4 output; the rows × columns of a
    /// rank-2 one), writing them into `out` and leaving every other element
    /// untouched. A layer whose [`Layer::region_map`] answers full rows
    /// writes every column of the rows `h`. Returns `Ok(false)` — without
    /// writing — when the layer does not support windowed recomputation;
    /// the caller then falls back to a full [`Layer::forward`].
    ///
    /// Implementations must produce values byte-identical to what
    /// [`Layer::forward`] would place at the same offsets: the walk compares
    /// the window bit for bit against golden to find where the fault still
    /// diverges, so any drift would widen the cone, or hide it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Layer::forward`].
    fn forward_region(
        &self,
        inputs: &[&Tensor],
        h: (usize, usize),
        w: (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = (inputs, h, w, out, ws);
        Ok(false)
    }
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
}
