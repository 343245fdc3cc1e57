//! Geometry of multiply-accumulate layers (Conv / FC / MatMul).
//!
//! Fault injection needs three questions answered about a MAC layer
//! (Accelerator Properties 2–3 of the paper):
//!
//! 1. which output neurons consume a given input or weight value,
//! 2. in what value does an output neuron result when one operand element is
//!    substituted with a faulty value, and
//! 3. what is the canonical computation order of output neurons.
//!
//! [`MacSpec`] answers all three with the exact accumulation order also used
//! by the register-level simulator (`fidelity-rtl`), which is what makes
//! software fault models bit-exact against the golden reference.
//!
//! Every packed kernel here is byte-for-byte identical to the scalar
//! [`MacSpec::compute_at`] oracle: terms per output neuron in ascending
//! kernel-step order, padding steps genuinely skipped. The lane kernels
//! vectorize *across* independent output neurons, which cannot change any
//! neuron's accumulation order.
//!
//! # NaN payloads
//!
//! *Which* outputs are NaN is fully deterministic, but a NaN's payload bits
//! are the single part of IEEE-754 arithmetic the compiler may legally vary
//! between code locations (float add/mul commute in LLVM, and x86 NaN
//! propagation picks the surviving payload by operand order). Differential
//! comparisons must therefore treat all NaNs as equal; every campaign
//! statistic (outcomes, masking bits, checkpoint bytes) is already
//! NaN-payload-insensitive.

use core::array::from_fn;

use crate::error::DnnError;
use crate::tensor::Tensor;

/// Which operand of a MAC layer a substitution applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// The activation operand (first input).
    Input,
    /// The weight / second operand.
    Weight,
}

/// A single-element override of one MAC operand: "element `offset` of the
/// `kind` operand has value `value` instead of its stored value".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Substitution {
    /// Operand the faulty value lives in.
    pub kind: OperandKind,
    /// Flat offset of the element within that operand tensor.
    pub offset: usize,
    /// The faulty value.
    pub value: f32,
}

/// A validated transient accumulator bit flip: IEEE-754 f32 bit `bit` of
/// the running accumulator is flipped just before the term of kernel step
/// `flip_before_step` is accumulated (a step count of `kernel_steps()` or
/// more flips after the final term).
///
/// Construction rejects out-of-range bit indices, so downstream code never
/// has to clamp silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccFlip {
    flip_before_step: usize,
    bit: u32,
}

impl AccFlip {
    /// Validates and builds an accumulator flip.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] when `bit` is not a valid f32 bit
    /// index (`0..=31`). The flip step needs no validation: any value at or
    /// past `kernel_steps()` means "flip after the final term".
    pub fn new(flip_before_step: usize, bit: u32) -> Result<AccFlip, DnnError> {
        if bit >= 32 {
            return Err(DnnError::InvalidConfig {
                message: format!("accumulator flip bit {bit} out of range for f32 (0..=31)"),
            });
        }
        Ok(AccFlip {
            flip_before_step,
            bit,
        })
    }

    /// Kernel step before which the flip is applied.
    pub fn flip_before_step(&self) -> usize {
        self.flip_before_step
    }

    /// The flipped f32 bit index (`0..=31`).
    pub fn bit(&self) -> u32 {
        self.bit
    }
}

/// The two operand tensors of a MAC layer.
#[derive(Clone, Copy, Debug)]
pub struct Operands<'a> {
    /// Activation operand.
    pub input: &'a Tensor,
    /// Weight operand (for MatMul, the second activation).
    pub weight: &'a Tensor,
}

impl<'a> Operands<'a> {
    fn fetch(&self, kind: OperandKind, offset: usize, subst: Option<&Substitution>) -> f32 {
        if let Some(s) = subst {
            if s.kind == kind && s.offset == offset {
                return s.value;
            }
        }
        match kind {
            OperandKind::Input => self.input.data()[offset],
            OperandKind::Weight => self.weight.data()[offset],
        }
    }
}

/// A MAC node of a deployed network, ready for fault recomputation: its
/// geometry, its two operands as recorded in a trace, and, for conv and
/// dense layers, the panel the layer packed its weights into. Built by
/// [`crate::graph::Engine::mac_node`].
#[derive(Clone, Debug)]
pub struct MacNode<'a> {
    /// The node's MAC geometry.
    pub spec: MacSpec,
    /// The node's operands.
    pub operands: Operands<'a>,
    /// `operands.weight` packed for the lane kernel, when the layer owns
    /// its weights.
    panel: Option<&'a LanePanel>,
}

impl<'a> MacNode<'a> {
    pub(crate) fn new(spec: MacSpec, operands: Operands<'a>, panel: Option<&'a LanePanel>) -> Self {
        MacNode {
            spec,
            operands,
            panel,
        }
    }

    /// Recomputes every neuron of `window` with `subst` applied, into `out`
    /// in position-major order: the neuron at the window's `i`-th position
    /// and channel `c` lands at `out[i · channels + c − first channel]`.
    ///
    /// Every value is bit-identical to [`MacSpec::compute_at`] with the
    /// same substitution. Conv layers with more than one output channel per
    /// group and dense layers run the lane micro-kernel over the layer's
    /// own packed panel, through the driver their forwards take: conv
    /// positions in tiles of up to 4 that share a valid tap range, dense
    /// rows in tiles of up to 4, and only the lane blocks that overlap the
    /// window's channels run. An input substitution is applied as a tile
    /// gathers its inputs; a weight substitution replaces one lane of one
    /// step's weight vector. Each lane still adds its neuron's non-gated
    /// terms in ascending kernel-step order. No operand is copied and no
    /// panel is packed. Depthwise conv and matmul (whose `B` is an
    /// activation, with no panel) evaluate [`MacSpec::compute_at`] per
    /// neuron.
    ///
    /// # Panics
    ///
    /// Panics if the window is not one of this node's (positions or
    /// channels out of range).
    pub fn recompute(&self, subst: &Substitution, window: &UseWindow, out: &mut Vec<f32>) {
        out.clear();
        out.resize(window.len(), 0.0);
        if window.is_empty() {
            return;
        }
        let x = self.operands.input.data();
        let (c0, c1) = window.channels;
        match (&self.spec, self.panel) {
            (MacSpec::Conv(c), Some(panel)) if c.group_out_c() > 1 => {
                c.check_panel(panel);
                let put = |i: usize, oc: usize, row: &[f32]| {
                    out[i * (c1 - c0) + oc - c0..][..row.len()].copy_from_slice(row);
                };
                // A position's id is its index in the window.
                let id = |i, _| i;
                let tiler = &mut ConvTiler::default();
                conv_lanes(c, x, panel, window, Some(subst), tiler, id, put);
            }
            (MacSpec::Dense(d), Some(panel)) => {
                assert_eq!(
                    panel.geometry,
                    (d.out_features, 1, d.in_features),
                    "dense panel packed for a different geometry"
                );
                // A dense window's planes are its rows, consecutive.
                let r0 = window.plane0 + window.span.0;
                let rows = (r0, window.plane0 + window.span.1);
                let put = |r: usize, j: usize, row: &[f32]| {
                    out[(r - r0) * (c1 - c0) + j - c0..][..row.len()].copy_from_slice(row);
                };
                rows_lanes(x, panel, rows, d.batch, (c0, c1), Some(subst), put);
            }
            _ => {
                for (v, off) in out.iter_mut().zip(window.neurons()) {
                    *v = self.spec.compute_at(&self.operands, off, Some(subst));
                }
            }
        }
    }
}

/// Geometry of a 2-D convolution (NCHW input, OIHW weight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// (vertical, horizontal) stride.
    pub stride: (usize, usize),
    /// (vertical, horizontal) zero padding.
    pub padding: (usize, usize),
    /// (vertical, horizontal) dilation.
    pub dilation: (usize, usize),
    /// Channel groups (`in_c` for depthwise).
    pub groups: usize,
}

impl ConvSpec {
    /// Output height.
    pub fn out_h(&self) -> usize {
        conv_out_dim(
            self.in_h,
            self.kh,
            self.stride.0,
            self.padding.0,
            self.dilation.0,
        )
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        conv_out_dim(
            self.in_w,
            self.kw,
            self.stride.1,
            self.padding.1,
            self.dilation.1,
        )
    }

    /// Input channels per group.
    pub fn group_in_c(&self) -> usize {
        self.in_c / self.groups
    }

    /// Output channels per group.
    pub fn group_out_c(&self) -> usize {
        self.out_c / self.groups
    }
}

/// The output rows (or columns) of a conv/pool dimension whose receptive
/// field intersects the input rows `[lo, hi)` — the forward image of an
/// input window, used by the delta resume path to narrow recomputation.
/// Exact for the geometry (every returned output can touch the window, and
/// no output outside the range can).
pub fn conv_out_window(
    (lo, hi): (usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
    out_dim: usize,
) -> (usize, usize) {
    if lo >= hi || out_dim == 0 {
        return (0, 0);
    }
    // Output `o` reads input rows `o·stride − pad ..= o·stride − pad + reach`.
    let reach = dilation * (k - 1);
    let out_lo = if lo + pad > reach {
        (lo + pad - reach).div_ceil(stride)
    } else {
        0
    };
    let out_hi = ((hi - 1 + pad) / stride + 1).min(out_dim);
    (out_lo.min(out_hi), out_hi)
}

/// Output spatial size of a convolution/pooling dimension.
pub fn conv_out_dim(inp: usize, k: usize, stride: usize, pad: usize, dilation: usize) -> usize {
    let eff_k = dilation * (k - 1) + 1;
    let padded = inp + 2 * pad;
    if padded < eff_k {
        0
    } else {
        (padded - eff_k) / stride + 1
    }
}

/// Geometry of a fully-connected layer (`[batch, in] × [out, in]ᵀ`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseSpec {
    /// Batch size.
    pub batch: usize,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

/// Geometry of a (optionally batched) matrix multiplication `A·B`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatMulSpec {
    /// Leading batch dimension (1 for plain 2-D matmul).
    pub batch: usize,
    /// Rows of `A` / the output.
    pub m: usize,
    /// Contraction length.
    pub k: usize,
    /// Columns of `B` / the output.
    pub n: usize,
    /// When true, `B` is stored `[n, k]` and used transposed.
    pub transpose_b: bool,
}

/// Geometry of one of the three MAC layer families of Table II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MacSpec {
    /// Convolution.
    Conv(ConvSpec),
    /// Fully-connected.
    Dense(DenseSpec),
    /// Matrix multiplication.
    MatMul(MatMulSpec),
}

impl MacSpec {
    /// Shape of the output tensor.
    pub fn out_shape(&self) -> Vec<usize> {
        match self {
            MacSpec::Conv(c) => vec![c.batch, c.out_c, c.out_h(), c.out_w()],
            MacSpec::Dense(d) => vec![d.batch, d.out_features],
            MacSpec::MatMul(m) => {
                if m.batch == 1 {
                    vec![m.m, m.n]
                } else {
                    vec![m.batch, m.m, m.n]
                }
            }
        }
    }

    /// Total number of output neurons.
    pub fn out_len(&self) -> usize {
        self.out_shape().iter().product()
    }

    /// Number of multiply-accumulate operations performed by the layer.
    pub fn macs(&self) -> u64 {
        match self {
            MacSpec::Conv(c) => {
                (c.batch * c.out_c * c.out_h() * c.out_w() * c.group_in_c() * c.kh * c.kw) as u64
            }
            MacSpec::Dense(d) => (d.batch * d.out_features * d.in_features) as u64,
            MacSpec::MatMul(m) => (m.batch * m.m * m.n * m.k) as u64,
        }
    }

    /// Number of output "positions": batch·oh·ow for conv, batch for dense,
    /// batch·rows for matmul. Together with [`MacSpec::channel_count`] this
    /// is the position/channel coordinate system accelerator dataflows
    /// schedule over (positions stream temporally, channels map to parallel
    /// MAC lanes).
    pub fn position_count(&self) -> usize {
        match self {
            MacSpec::Conv(c) => c.batch * c.out_h() * c.out_w(),
            MacSpec::Dense(d) => d.batch,
            MacSpec::MatMul(m) => m.batch * m.m,
        }
    }

    /// Number of output "channels": out_c for conv, features for dense,
    /// columns for matmul.
    pub fn channel_count(&self) -> usize {
        match self {
            MacSpec::Conv(c) => c.out_c,
            MacSpec::Dense(d) => d.out_features,
            MacSpec::MatMul(m) => m.n,
        }
    }

    /// Flat output offset of the neuron at (position, channel).
    pub fn offset_of(&self, position: usize, channel: usize) -> usize {
        match self {
            MacSpec::Conv(c) => {
                let hw = c.out_h() * c.out_w();
                let b = position / hw;
                let pos = position % hw;
                (b * c.out_c + channel) * hw + pos
            }
            MacSpec::Dense(d) => position * d.out_features + channel,
            MacSpec::MatMul(m) => position * m.n + channel,
        }
    }

    /// Inverse of [`MacSpec::offset_of`].
    pub fn coords_of(&self, out_offset: usize) -> (usize, usize) {
        match self {
            MacSpec::Conv(c) => {
                let hw = c.out_h() * c.out_w();
                let b = out_offset / (c.out_c * hw);
                let rem = out_offset % (c.out_c * hw);
                let channel = rem / hw;
                (b * hw + rem % hw, channel)
            }
            MacSpec::Dense(d) => (out_offset / d.out_features, out_offset % d.out_features),
            MacSpec::MatMul(m) => (out_offset / m.n, out_offset % m.n),
        }
    }

    /// Number of kernel/contraction steps per output neuron (including
    /// padding-gated steps for conv).
    pub fn kernel_steps(&self) -> usize {
        match self {
            MacSpec::Conv(c) => c.group_in_c() * c.kh * c.kw,
            MacSpec::Dense(d) => d.in_features,
            MacSpec::MatMul(m) => m.k,
        }
    }

    /// Computes one output neuron with a transient accumulator bit flip
    /// ([`AccFlip`]) applied just before the term of its kernel step is
    /// accumulated.
    ///
    /// Accumulation order is identical to [`MacSpec::compute_at`] and to the
    /// register-level simulator, so the result is bit-exact against a
    /// hardware accumulator flip.
    pub fn compute_at_acc_flip(
        &self,
        operands: &Operands<'_>,
        out_offset: usize,
        flip: AccFlip,
    ) -> f32 {
        self.accumulate(operands, out_offset, None, Some(flip))
    }

    /// The one definition of the per-neuron accumulation loop. Every other
    /// evaluator — [`MacSpec::compute_at`], [`MacSpec::compute_at_acc_flip`],
    /// and (by bit-equality tests) the packed [`MacSpec::forward_into`]
    /// kernels — reduces to this term order: gated (padding) steps are
    /// genuinely skipped, never accumulated as `+0.0`, and terms are added
    /// in ascending kernel-step order.
    ///
    /// The neuron's coordinates are decoded once; conv then walks
    /// ic → kh → kw over the padding-valid kernel rows and columns only.
    fn accumulate(
        &self,
        operands: &Operands<'_>,
        out_offset: usize,
        subst: Option<&Substitution>,
        flip: Option<AccFlip>,
    ) -> f32 {
        let mut acc = Accumulator { acc: 0.0, flip };
        let mut term = |step: usize, in_off: usize, w_off: usize| {
            let x = operands.fetch(OperandKind::Input, in_off, subst);
            let w = operands.fetch(OperandKind::Weight, w_off, subst);
            acc.add(step, x * w);
        };
        match self {
            MacSpec::Conv(c) => conv_terms(c, out_offset, term),
            MacSpec::Dense(d) => {
                let x_base = (out_offset / d.out_features) * d.in_features;
                let w_base = (out_offset % d.out_features) * d.in_features;
                for step in 0..d.in_features {
                    term(step, x_base + step, w_base + step);
                }
            }
            MacSpec::MatMul(m) => {
                let per_batch = m.m * m.n;
                let g = out_offset / per_batch;
                let rem = out_offset % per_batch;
                let (r, cc) = (rem / m.n, rem % m.n);
                let a_base = (g * m.m + r) * m.k;
                let (b_base, b_step) = if m.transpose_b {
                    ((g * m.n + cc) * m.k, 1)
                } else {
                    (g * m.k * m.n + cc, m.n)
                };
                for step in 0..m.k {
                    term(step, a_base + step, b_base + step * b_step);
                }
            }
        }
        acc.finish()
    }

    /// Computes the whole output tensor into `out` (flat row-major) with a
    /// temporary [`KernelScratch`]. Hot paths should prefer
    /// [`MacSpec::forward_into_scratch`] with a reused scratch so the panel
    /// and accumulator buffers are not reallocated per call.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.out_len()`.
    pub fn forward_into(&self, operands: &Operands<'_>, out: &mut [f32]) {
        let mut scratch = KernelScratch::default();
        self.forward_into_scratch(operands, out, &mut scratch);
    }

    /// Computes the whole output tensor into `out` (flat row-major) using
    /// vectorized kernels. Conv, dense and matmul run one register-blocked
    /// lane kernel: the second operand is packed into `scratch` with a
    /// block of 8 or 16 outputs per kernel step contiguous (conv output
    /// channels, dense output features, matmul output columns), and those
    /// outputs are the SIMD lanes. Each tile of up to 4 positions holds its
    /// accumulators in registers across every term, broadcasting one input
    /// per position against one packed weight vector. A conv tile is up to
    /// 4 output positions sharing a valid tap range; a dense or matmul tile
    /// is up to 4 rows. Conv groups with a single output channel
    /// (depthwise) run one accumulator per output column instead.
    ///
    /// The second operand is packed on every call: one pass over it, where
    /// the kernel makes one per tile of positions. `Conv2d` and `Dense`
    /// layers pack their weights once, when the weights change, and skip
    /// it; `MatMul`, whose `B` is an activation, packs here on every call.
    ///
    /// The accumulation order per neuron is byte-for-byte identical to
    /// [`MacSpec::compute_at`] — gated padding terms are skipped outright
    /// (never accumulated as `+0.0`, which would perturb signed zeros and
    /// non-finite values) and terms are added in ascending kernel-step order
    /// — so layer forwards and per-neuron fault recomputation never diverge.
    /// Tests assert bit-equality per neuron.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.out_len()`.
    pub fn forward_into_scratch(
        &self,
        operands: &Operands<'_>,
        out: &mut [f32],
        scratch: &mut KernelScratch,
    ) {
        assert_eq!(out.len(), self.out_len(), "output buffer size mismatch");
        let x = operands.input.data();
        let w = operands.weight.data();
        match self {
            MacSpec::Conv(c) => {
                conv_forward_window(c, operands, out, scratch, (0, usize::MAX), (0, usize::MAX));
            }
            MacSpec::Dense(d) => {
                let mut panel = std::mem::take(&mut scratch.panel);
                panel.pack_rows(w, d.out_features, 1, d.in_features);
                d.forward_packed(x, &panel, out);
                scratch.panel = panel;
            }
            MacSpec::MatMul(m) => {
                let mut panel = std::mem::take(&mut scratch.panel);
                if m.transpose_b {
                    panel.pack_rows(w, m.batch * m.n, m.batch, m.k);
                } else {
                    panel.pack_cols(w, m.batch, m.k, m.n);
                }
                rows_forward(x, &panel, out, m.batch, m.m);
                scratch.panel = panel;
            }
        }
    }

    /// Computes only the output elements whose spatial coordinates fall in
    /// `h = [h0, h1)` × `w = [w0, w1)` (all batches and channels), leaving
    /// every other element of `out` untouched. Returns `false` — without
    /// writing anything — when this spec has no spatial output (dense,
    /// matmul); callers then fall back to a full forward.
    ///
    /// Within the window the values are byte-identical to
    /// [`MacSpec::forward_into_scratch`]: same packed kernel, same per-neuron
    /// ascending-step accumulation order, merely restricted to a sub-range
    /// of output rows/columns.
    pub fn forward_region_into_scratch(
        &self,
        operands: &Operands<'_>,
        out: &mut [f32],
        scratch: &mut KernelScratch,
        h: (usize, usize),
        w_win: (usize, usize),
    ) -> bool {
        match self {
            MacSpec::Conv(c) => {
                assert_eq!(out.len(), self.out_len(), "output buffer size mismatch");
                conv_forward_window(c, operands, out, scratch, h, w_win);
                true
            }
            _ => false,
        }
    }

    /// Computes the value of one output neuron (identified by flat offset
    /// into the output tensor) from the operands, applying an optional
    /// single-element substitution.
    ///
    /// The accumulation order is fixed (channel-major, then kernel row, then
    /// kernel column for conv; contraction index for dense/matmul) and is
    /// shared with the register-level simulator.
    pub fn compute_at(
        &self,
        operands: &Operands<'_>,
        out_offset: usize,
        subst: Option<&Substitution>,
    ) -> f32 {
        self.accumulate(operands, out_offset, subst, None)
    }

    /// The neurons that consume the weight-operand element at
    /// `weight_offset`, as a [`UseWindow`].
    ///
    /// This realizes the "before on-chip memory" weight rows of Table II:
    /// conv → every position of the element's output channel, FC → one
    /// neuron per batch row, matmul → the output column of its batch.
    pub fn weight_window(&self, weight_offset: usize) -> UseWindow {
        match self {
            MacSpec::Conv(c) => {
                let oc = weight_offset / (c.group_in_c() * c.kh * c.kw);
                let (oh, ow) = (c.out_h(), c.out_w());
                let (rows, cols) = (Axis::all(oh), Axis::all(ow));
                UseWindow::conv(c, (oh, ow), (0, c.batch), rows, cols, (oc, oc + 1))
            }
            MacSpec::Dense(d) => {
                let o = weight_offset / d.in_features;
                UseWindow::rows((0, d.batch), (o, o + 1), d.out_features)
            }
            MacSpec::MatMul(mm) => {
                // B is [batch, k, n] or [batch, n, k] when transposed.
                let per_batch = mm.k * mm.n;
                let g = weight_offset / per_batch;
                let rem = weight_offset % per_batch;
                let n0 = if mm.transpose_b {
                    rem / mm.k
                } else {
                    rem % mm.n
                };
                UseWindow::rows((g * mm.m, (g + 1) * mm.m), (n0, n0 + 1), mm.n)
            }
        }
    }

    /// The neurons that consume the input-operand element at
    /// `input_offset`, as a [`UseWindow`]: for conv, the output rows and
    /// columns whose taps read its `(ih, iw)` under stride, padding and
    /// dilation, in its batch image, × its group's output channels; for FC
    /// and matmul, its row × every output.
    pub fn input_window(&self, input_offset: usize) -> UseWindow {
        match self {
            MacSpec::Conv(c) => {
                let plane = c.in_h * c.in_w;
                let b = input_offset / (c.in_c * plane);
                let ic = (input_offset / plane) % c.in_c;
                let (ih, iw) = ((input_offset % plane) / c.in_w, input_offset % c.in_w);
                let (oh, ow) = (c.out_h(), c.out_w());
                let rows = Axis::readers(ih, c.kh, c.stride.0, c.padding.0, c.dilation.0, oh);
                let cols = Axis::readers(iw, c.kw, c.stride.1, c.padding.1, c.dilation.1, ow);
                let goc = c.group_out_c();
                let group = ic / c.group_in_c();
                let channels = (group * goc, (group + 1) * goc);
                UseWindow::conv(c, (oh, ow), (b, b + 1), rows, cols, channels)
            }
            MacSpec::Dense(d) => {
                let b = input_offset / d.in_features;
                UseWindow::rows((b, b + 1), (0, d.out_features), d.out_features)
            }
            MacSpec::MatMul(mm) => {
                let row = input_offset / mm.k;
                UseWindow::rows((row, row + 1), (0, mm.n), mm.n)
            }
        }
    }

    /// Flat output offsets of every neuron that consumes the weight-operand
    /// element at `weight_offset`, ascending: [`MacSpec::weight_window`]
    /// expanded.
    pub fn neurons_using_weight(&self, weight_offset: usize) -> Vec<usize> {
        self.weight_window(weight_offset).ascending_offsets()
    }

    /// Flat output offsets of every neuron that consumes the input-operand
    /// element at `input_offset`, ascending: [`MacSpec::input_window`]
    /// expanded.
    pub fn neurons_using_input(&self, input_offset: usize) -> Vec<usize> {
        self.input_window(input_offset).ascending_offsets()
    }
}

/// An arithmetic progression of output coordinates, `first + k·step` for
/// `k` in `0..len`, ascending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Axis {
    first: usize,
    step: usize,
    len: usize,
}

impl Axis {
    /// Every coordinate `0..len`.
    fn all(len: usize) -> Axis {
        Axis::range((0, len))
    }

    /// Every coordinate in `[lo, hi)`.
    fn range((lo, hi): (usize, usize)) -> Axis {
        Axis {
            first: lo,
            step: 1,
            len: hi - lo,
        }
    }

    fn at(&self, k: usize) -> usize {
        self.first + k * self.step
    }

    /// The output coordinates below `out_dim` one of whose `taps` kernel
    /// taps reads input coordinate `i`: `o` with `o·stride − pad +
    /// k·dilation = i` for some tap `k`. The taps that satisfy it form a
    /// progression (a congruence mod `stride` cut to an interval), so the
    /// coordinates they give do too; ascending `o` is descending `k`.
    fn readers(
        i: usize,
        taps: usize,
        stride: usize,
        pad: usize,
        dilation: usize,
        out_dim: usize,
    ) -> Axis {
        let mut axis = Axis {
            first: 0,
            step: 1,
            len: 0,
        };
        for k in (0..taps).rev() {
            let Some(t) = (i + pad).checked_sub(k * dilation) else {
                continue;
            };
            if t % stride != 0 || t / stride >= out_dim {
                continue;
            }
            let o = t / stride;
            match axis.len {
                0 => axis.first = o,
                1 => axis.step = o - axis.first,
                _ => debug_assert_eq!(o, axis.at(axis.len), "readers form a progression"),
            }
            axis.len += 1;
        }
        axis
    }
}

/// The output neurons of a MAC layer that read one operand element, or a
/// selection of them: a set of output positions × a range of output
/// channels, in closed form (no per-neuron scan).
///
/// Positions are enumerated in computation order: planes (conv batch
/// images; for dense and matmul, rows, each a plane of one position),
/// then output rows, then output columns. A window holds the positions
/// with enumeration index in `span` and the channels in `channels`.
/// [`UseWindow::select`] narrows both, which is how a dataflow reuse
/// window is cut out of an element's use set. The window knows the output
/// tensor's strides, so it expands to flat offsets without a division per
/// neuron.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UseWindow {
    /// First plane.
    plane0: usize,
    rows: Axis,
    cols: Axis,
    /// Output strides of a plane, a channel and an output row.
    strides: (usize, usize, usize),
    /// Selected enumeration indices `[lo, hi)`.
    span: (usize, usize),
    /// Selected channels `[lo, hi)`.
    channels: (usize, usize),
}

impl UseWindow {
    /// The conv positions `planes × rows × cols`, × `channels`, of an
    /// output `oh × ow` per channel plane.
    fn conv(
        c: &ConvSpec,
        (oh, ow): (usize, usize),
        planes: (usize, usize),
        rows: Axis,
        cols: Axis,
        channels: (usize, usize),
    ) -> UseWindow {
        UseWindow {
            plane0: planes.0,
            rows,
            cols,
            strides: (c.out_c * oh * ow, oh * ow, ow),
            span: (0, (planes.1 - planes.0) * rows.len * cols.len),
            channels,
        }
    }

    /// The dense or matmul rows `[lo, hi)` of an output with `n` channels
    /// per row, × `channels`.
    fn rows((lo, hi): (usize, usize), channels: (usize, usize), n: usize) -> UseWindow {
        UseWindow {
            plane0: lo,
            rows: Axis::all(1),
            cols: Axis::all(1),
            strides: (n, 1, 0),
            span: (0, hi - lo),
            channels,
        }
    }

    /// Number of selected positions.
    pub fn positions(&self) -> usize {
        self.span.1 - self.span.0
    }

    /// The selected channels, `[lo, hi)`.
    pub fn channels(&self) -> (usize, usize) {
        self.channels
    }

    /// Number of neurons: positions × channels.
    pub fn len(&self) -> usize {
        self.positions() * (self.channels.1 - self.channels.0)
    }

    /// Whether the window holds no neuron (an element no output reads).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sub-window of selected positions `[p0, p1)` (indices into this
    /// window's positions) × channels `[c0, c1)` (absolute, inside this
    /// window's channels).
    ///
    /// # Panics
    ///
    /// Panics if either range is not inside this window.
    pub fn select(&self, (p0, p1): (usize, usize), (c0, c1): (usize, usize)) -> UseWindow {
        assert!(
            p0 <= p1 && p1 <= self.positions(),
            "positions outside the window"
        );
        assert!(
            self.channels.0 <= c0 && c0 <= c1 && c1 <= self.channels.1,
            "channels outside the window"
        );
        UseWindow {
            span: (self.span.0 + p0, self.span.0 + p1),
            channels: (c0, c1),
            ..*self
        }
    }

    /// The selected positions in order, as `(plane, output row, output
    /// column)`: divisions find the first, counters step to the rest.
    fn coords(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let (nr, nc) = (self.rows.len.max(1), self.cols.len.max(1));
        let at = self.span.0 % (nr * nc);
        let mut next = (self.plane0 + self.span.0 / (nr * nc), at / nc, at % nc);
        (0..self.positions()).map(move |_| {
            let (plane, r, c) = next;
            next = match (c + 1 < nc, r + 1 < nr) {
                (true, _) => (plane, r, c + 1),
                (false, true) => (plane, r + 1, 0),
                (false, false) => (plane + 1, 0, 0),
            };
            (plane, self.rows.at(r), self.cols.at(c))
        })
    }

    /// The flat output offset of position `(plane, row, col)` at channel 0.
    fn base(&self, (plane, row, col): (usize, usize, usize)) -> usize {
        plane * self.strides.0 + row * self.strides.2 + col
    }

    /// The flat output offsets of the window's neurons in position-major
    /// order: every channel of the first position, then of the next. This
    /// is the order [`MacNode::recompute`] fills.
    pub fn neurons(&self) -> impl Iterator<Item = usize> + '_ {
        let (c0, c1) = self.channels;
        self.coords().flat_map(move |at| {
            let base = self.base(at);
            (c0..c1).map(move |c| base + c * self.strides.1)
        })
    }

    /// Calls `f(offset, i)` for every neuron in ascending flat offset
    /// order, where `i` is the neuron's index in position-major order
    /// ([`UseWindow::neurons`]).
    ///
    /// A conv output is `[batch, channel, position in plane]`, so offsets
    /// ascend plane by plane, channel by channel; a dense or matmul output
    /// is `[row, channel]`, and each row is a plane of one position.
    pub fn for_each_ascending(&self, mut f: impl FnMut(usize, usize)) {
        let (c0, c1) = self.channels;
        // One plane's positions at a time: (offset at channel 0, index).
        let mut plane: Vec<(usize, usize)> = Vec::new();
        let mut emit = |plane: &mut Vec<(usize, usize)>| {
            for c in c0..c1 {
                for &(base, i) in plane.iter() {
                    f(base + c * self.strides.1, i * (c1 - c0) + c - c0);
                }
            }
            plane.clear();
        };
        let mut current = None;
        for (i, at) in self.coords().enumerate() {
            if current != Some(at.0) {
                emit(&mut plane);
                current = Some(at.0);
            }
            plane.push((self.base(at), i));
        }
        emit(&mut plane);
    }

    /// The flat output offsets of the window's neurons, ascending.
    pub fn ascending_offsets(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each_ascending(|off, _| v.push(off));
        v
    }
}

/// Reusable scratch buffers for the [`MacSpec::forward_into_scratch`]
/// kernels.
///
/// Contents are transient — every kernel invocation fully re-derives what it
/// reads — so one scratch can be reused across layers and specs of any
/// shape. Reuse only saves the allocations.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// The second operand of the current raw-operand call or matmul,
    /// packed on every call, since such a call cannot know whether its
    /// weights changed and a matmul's `B` is an activation. `Conv2d` and
    /// `Dense` layers own their panels and pack them only when their
    /// weights change.
    panel: LanePanel,
    /// The conv driver's row and column runs, tap lists and tiles.
    tiler: ConvTiler,
    /// One accumulator per output column (depthwise conv).
    acc: Vec<f32>,
    /// Per-`kw` valid `[lo, hi)` output-column ranges (depthwise conv).
    ranges: Vec<(usize, usize)>,
}

impl KernelScratch {
    /// A scratch with empty buffers; they grow on first use.
    pub fn new() -> Self {
        KernelScratch::default()
    }
}

/// Outputs per block of the lane kernel, the SIMD lanes of its
/// accumulators: 16 (two 8-lane or one 16-lane register) where a group has
/// more than 8 outputs, else 8 — 8- and 4-channel conv groups ran 1.2–1.3×
/// faster on 8 lanes than on a mostly padded 16.
fn lanes_for(group_outs: usize) -> usize {
    if group_outs > 8 {
        16
    } else {
        8
    }
}

/// Positions per tile of the lane kernel (conv output positions, dense and
/// matmul rows): each packed weight vector is loaded once per tile and used
/// by every position in it.
const TILE: usize = 4;

/// The second operand of a MAC layer packed for the lane kernel,
/// `[group][block][step][lane]`: each group's outputs (conv output
/// channels, dense output features, matmul output columns) in blocks of
/// 16 lanes (8 where a group has at most 8 outputs), a block holding the
/// weights of one kernel step contiguously, so the kernel loads one vector
/// per step. Lanes past a
/// group's last output are zero and their accumulators are discarded,
/// never written out.
///
/// Conv groups with a single output channel (depthwise) are not packed;
/// their kernel reads the OIHW weights directly.
///
/// `Conv2d` and `Dense` layers own one and expose it through
/// [`crate::layers::Layer::mac_weight`], so fault recomputation runs over
/// the same packed weights as the layer's forward.
#[derive(Clone, Debug, Default)]
pub struct LanePanel {
    data: Vec<f32>,
    /// `(outputs, groups, kernel steps)` the panel was packed for.
    geometry: (usize, usize, usize),
}

impl LanePanel {
    /// Empties the panel for `(outputs, groups, kernel steps)` and sizes it
    /// with zero lanes; returns the `(lanes, blocks per group)` to fill, or
    /// `None` when there is nothing to pack.
    fn reset(&mut self, (outs, groups, steps): (usize, usize, usize)) -> Option<(usize, usize)> {
        self.geometry = (outs, groups, steps);
        self.data.clear();
        let goc = outs / groups.max(1);
        // A `Conv2d` may hold groups that do not divide its output
        // channels; its forward rejects them before any kernel runs.
        if goc == 0 || goc * groups != outs || steps == 0 {
            return None;
        }
        let lanes = lanes_for(goc);
        let blocks = goc.div_ceil(lanes);
        self.data.resize(groups * blocks * steps * lanes, 0.0);
        Some((lanes, blocks))
    }

    /// Packs weights stored one row of `steps` values per output
    /// (`[outs, steps]`: OIHW conv weights, a dense weight, a transposed
    /// matmul's `B`), the outputs in `groups` equal groups.
    pub(crate) fn pack_rows(&mut self, weight: &[f32], outs: usize, groups: usize, steps: usize) {
        let Some((lanes, blocks)) = self.reset((outs, groups, steps)) else {
            return;
        };
        let goc = outs / groups;
        for (o, row) in weight.chunks_exact(steps).enumerate() {
            let (group, j) = (o / goc, o % goc);
            let block =
                &mut self.data[(group * blocks + j / lanes) * steps * lanes..][..steps * lanes];
            for (step, &v) in block.chunks_exact_mut(lanes).zip(row) {
                step[j % lanes] = v;
            }
        }
    }

    /// Packs a matmul's untransposed `B`, stored `[groups, steps, outs per
    /// group]`: each row of a group's outputs copies into its blocks.
    pub(crate) fn pack_cols(&mut self, b: &[f32], groups: usize, steps: usize, goc: usize) {
        let Some((lanes, blocks)) = self.reset((groups * goc, groups, steps)) else {
            return;
        };
        for (row_at, row) in b.chunks_exact(goc).enumerate() {
            let (group, step) = (row_at / steps, row_at % steps);
            for (block, src) in row.chunks(lanes).enumerate() {
                self.data[((group * blocks + block) * steps + step) * lanes..][..src.len()]
                    .copy_from_slice(src);
            }
        }
    }

    /// Packs flat OIHW conv weights (`[out_c, in_c / groups, kh, kw]`) for
    /// `groups` channel groups; depthwise-style groups are left unpacked.
    pub(crate) fn pack_conv(&mut self, weight: &[f32], out_c: usize, groups: usize) {
        let steps = weight.len() / out_c.max(1);
        if out_c <= groups {
            self.geometry = (out_c, groups, steps);
            self.data.clear();
        } else {
            self.pack_rows(weight, out_c, groups, steps);
        }
    }
}

/// Unroll width of the depthwise row kernel: eight independent output
/// accumulators advance together, which breaks the floating-point add
/// latency chain without touching any single neuron's accumulation order.
/// Narrower windows take its per-neuron loop instead.
const LANES: usize = 8;

/// `acc[i] += xs[i] * wv` over equal-length slices, eight outputs per
/// unrolled step. Every `acc[i]` is an independent accumulator, so the
/// result is bit-identical to the scalar loop for any chunking.
#[inline]
fn axpy_lanes(acc: &mut [f32], xs: &[f32], wv: f32) {
    let n = acc.len().min(xs.len());
    let main = n - n % LANES;
    let (a_main, a_tail) = acc[..n].split_at_mut(main);
    let (x_main, x_tail) = xs[..n].split_at(main);
    for (a, xv) in a_main
        .chunks_exact_mut(LANES)
        .zip(x_main.chunks_exact(LANES))
    {
        a[0] += xv[0] * wv;
        a[1] += xv[1] * wv;
        a[2] += xv[2] * wv;
        a[3] += xv[3] * wv;
        a[4] += xv[4] * wv;
        a[5] += xv[5] * wv;
        a[6] += xv[6] * wv;
        a[7] += xv[7] * wv;
    }
    for (a, xv) in a_tail.iter_mut().zip(x_tail) {
        *a += xv * wv;
    }
}

impl ConvSpec {
    /// Computes the output elements whose spatial coordinates fall in
    /// `h = [h0, h1)` × `w = [w0, w1)` (clamped to the output dims; all
    /// batches and channels) from weights already packed into `panel`,
    /// leaving every other element of `out` untouched. `(0, usize::MAX)`
    /// on both axes is the full forward. `dims` is the output's
    /// `(out_h, out_w)`, which the caller has at hand.
    ///
    /// This is the kernel behind [`MacSpec::forward_into_scratch`] and
    /// [`MacSpec::forward_region_into_scratch`], minus the packing: a layer
    /// that owns its weights packs them once and calls this on every
    /// forward. The values are byte-identical to [`MacSpec::compute_at`]; a
    /// window only restricts which positions the kernel visits, so each
    /// neuron in it sees the term sequence of the full forward.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not this spec's output length, or if
    /// `panel` was packed for a different `(out_c, groups, kernel steps)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_window_packed(
        &self,
        operands: &Operands<'_>,
        panel: &LanePanel,
        out: &mut [f32],
        scratch: &mut KernelScratch,
        dims: (usize, usize),
        h: (usize, usize),
        w: (usize, usize),
    ) {
        debug_assert_eq!(dims, (self.out_h(), self.out_w()));
        let (oh_dim, ow_dim) = dims;
        let out_plane = oh_dim * ow_dim;
        assert_eq!(
            out.len(),
            self.batch * self.out_c * out_plane,
            "output buffer size mismatch"
        );
        self.check_panel(panel);
        let h = (h.0.min(oh_dim), h.1.min(oh_dim));
        let w = (w.0.min(ow_dim), w.1.min(ow_dim));
        if h.0 >= h.1 || w.0 >= w.1 {
            return;
        }
        if self.group_out_c() == 1 {
            return conv_depthwise_window(self, operands, out, scratch, dims, h, w);
        }
        let all = (0, self.out_c);
        let (rows, cols) = (Axis::range(h), Axis::range(w));
        let win = UseWindow::conv(self, dims, (0, self.batch), rows, cols, all);
        let x = operands.input.data();
        let put = |a: usize, oc: usize, row: &[f32]| {
            for (k, &v) in row.iter().enumerate() {
                out[(oc + k) * out_plane + a] = v;
            }
        };
        // A position's id is its output offset at channel 0.
        let id = |_, base| base;
        conv_lanes(self, x, panel, &win, None, &mut scratch.tiler, id, put);
    }

    /// Panics unless `panel` was packed for this conv's `(out_c, groups,
    /// kernel steps)`.
    fn check_panel(&self, panel: &LanePanel) {
        assert_eq!(
            panel.geometry,
            (
                self.out_c,
                self.groups,
                self.group_in_c() * self.kh * self.kw
            ),
            "conv panel packed for a different geometry"
        );
    }
}

/// Conv through the lane kernel, packing `operands.weight` into the
/// scratch panel first. See [`MacSpec::forward_into_scratch`] for the
/// bit-identity contract.
fn conv_forward_window(
    c: &ConvSpec,
    operands: &Operands<'_>,
    out: &mut [f32],
    s: &mut KernelScratch,
    h: (usize, usize),
    w: (usize, usize),
) {
    let mut panel = std::mem::take(&mut s.panel);
    panel.pack_conv(operands.weight.data(), c.out_c, c.groups);
    let dims = (c.out_h(), c.out_w());
    c.forward_window_packed(operands, &panel, out, s, dims, h, w);
    s.panel = panel;
}

/// The valid kernel taps of one output coordinate: `[lo, hi)` over the
/// taps whose input coordinate `o·stride − pad + k·dilation` lies in
/// `[0, extent)`.
#[inline]
fn taps_at(
    o: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
    taps: usize,
    extent: usize,
) -> (usize, usize) {
    valid_taps((o * stride) as isize - pad as isize, dilation, taps, extent)
}

/// The conv tiler's buffers. Their contents are transient: each
/// [`conv_lanes`] call clears them first, so one tiler serves convs of any
/// shape, and reuse only saves the allocations.
#[derive(Debug, Default)]
struct ConvTiler {
    /// The window's output rows in runs of equal valid kernel rows.
    rows: Vec<Run>,
    /// The window's output columns in runs of equal valid kernel columns.
    cols: Vec<Run>,
    /// The open tile of each (row run, column run), once a position needs
    /// it.
    open: Vec<Option<Tile>>,
    /// The tiles' tap lists back to back: non-gated `(kernel step, input
    /// offset from the position's first tap)` in ascending step order.
    taps: Vec<(usize, usize)>,
    /// The call's tiles, in the order they filled.
    tiles: Vec<Tile>,
    /// One tile's inputs gathered around an input substitution.
    gathered: Vec<f32>,
}

/// A run of a window's consecutive output rows (or columns) with the same
/// valid kernel rows (columns).
#[derive(Debug)]
struct Run {
    /// Indices `[k0, k1)` along the window's axis.
    at: (usize, usize),
    /// The valid kernel taps along the axis.
    taps: (usize, usize),
    /// The first coordinate's first valid tap, as an input coordinate, and
    /// the input coordinates from one output coordinate's to the next
    /// (both 0 when every tap is gated).
    x: (usize, usize),
}

impl Run {
    /// Appends the runs of `axis`, a progression of output coordinates
    /// along a conv input axis of `extent` with `taps` kernel taps.
    fn push_runs(
        runs: &mut Vec<Run>,
        axis: &Axis,
        (stride, pad, dilation): (usize, usize, usize),
        taps: usize,
        extent: usize,
    ) {
        for k in 0..axis.len {
            let o = axis.at(k);
            let range = taps_at(o, stride, pad, dilation, taps, extent);
            match runs.last_mut() {
                Some(run) if run.taps == range => run.at.1 = k + 1,
                _ => runs.push(Run {
                    at: (k, k + 1),
                    taps: range,
                    x: if range.0 < range.1 {
                        (o * stride + range.0 * dilation - pad, axis.step * stride)
                    } else {
                        (0, 0)
                    },
                }),
            }
        }
    }

    /// The first valid tap of the run's `k`-th coordinate, as an input
    /// coordinate.
    fn x_at(&self, k: usize) -> usize {
        self.x.0 + (k - self.at.0) * self.x.1
    }
}

/// Up to [`TILE`] positions sharing a valid tap range: one tile of the
/// conv driver.
#[derive(Clone, Copy, Debug, Default)]
struct Tile {
    /// The tile's tap list, `[lo, hi)` in [`ConvTiler::taps`].
    taps: (usize, usize),
    n: usize,
    /// Each position's id, handed back to the store.
    at: [usize; TILE],
    /// Each position's first valid tap in group 0's first input channel
    /// of its batch image, as an offset into the input.
    x_at: [usize; TILE],
}

/// The conv driver of the lane kernel, behind the forwards, the forward
/// windows and the fault recomputes of every conv group with more than one
/// output channel. The SIMD lanes are output channels: a block of 8 or 16
/// channels of one group accumulates a tile of up to [`TILE`] positions in
/// registers, across every `(ic, kh, kw)` tap, broadcasting one input per
/// position and loading one packed weight vector per tap.
///
/// The positions are those of `win`, row by row. A position joins the open
/// tile of its valid tap range, wherever it sits, and the tiles run once
/// every position is placed, in the order they filled, the partial ones
/// last. Rows and columns with equal valid kernel ranges come in runs
/// (both ends of a range only move one way as the coordinate grows), found
/// once per call; a position's range is that of its row run and column
/// run, and each range's tap list is built once. So padding taps
/// are skipped for every position of a tile (never added as `+0.0`), and
/// every neuron adds its terms in ascending kernel-step order into its own
/// lane: the bits of [`MacSpec::compute_at`].
///
/// Each tile runs over the lane blocks that overlap the window's channels,
/// in every group they touch. Each block calls `put(id, channel, values)`
/// per position with the position's id, the block's first channel in
/// range and the values of its consecutive channels from there on; a
/// position's id is `id(index in the window, output offset at channel
/// 0)`. `subst`, when given, applies as the tile gathers its inputs (an
/// input substitution) or as one lane of one step's weight vector (a
/// weight substitution).
#[allow(clippy::too_many_arguments)]
fn conv_lanes(
    c: &ConvSpec,
    x: &[f32],
    panel: &LanePanel,
    win: &UseWindow,
    subst: Option<&Substitution>,
    tiler: &mut ConvTiler,
    id: impl Fn(usize, usize) -> usize,
    put: impl FnMut(usize, usize, &[f32]),
) {
    if lanes_for(c.group_out_c()) == 8 {
        conv_lanes_at::<8>(c, x, panel, win, subst, tiler, id, put);
    } else {
        conv_lanes_at::<16>(c, x, panel, win, subst, tiler, id, put);
    }
}

/// [`conv_lanes`] at `OCB` lanes.
#[allow(clippy::too_many_arguments)]
fn conv_lanes_at<const OCB: usize>(
    c: &ConvSpec,
    x: &[f32],
    panel: &LanePanel,
    win: &UseWindow,
    subst: Option<&Substitution>,
    tiler: &mut ConvTiler,
    id: impl Fn(usize, usize) -> usize,
    mut put: impl FnMut(usize, usize, &[f32]),
) {
    let (gic, goc) = (c.group_in_c(), c.group_out_c());
    let (blocks, steps) = (goc.div_ceil(OCB), gic * c.kh * c.kw);
    let plane = c.in_h * c.in_w;
    let (panel, _) = panel.data.as_chunks::<OCB>();
    let x_sub = subst
        .filter(|s| s.kind == OperandKind::Input)
        .map(|s| (s.offset, s.value));
    let ConvTiler {
        rows,
        cols,
        open,
        taps,
        tiles,
        gathered,
    } = tiler;
    rows.clear();
    cols.clear();
    taps.clear();
    tiles.clear();
    Run::push_runs(
        rows,
        &win.rows,
        (c.stride.0, c.padding.0, c.dilation.0),
        c.kh,
        c.in_h,
    );
    Run::push_runs(
        cols,
        &win.cols,
        (c.stride.1, c.padding.1, c.dilation.1),
        c.kw,
        c.in_w,
    );
    open.clear();
    open.resize(rows.len() * cols.len(), None);

    // Row by row: the first and last rows may be partial.
    let (nc, (s0, s1)) = (win.cols.len, win.span);
    let per_plane = win.rows.len * nc;
    let mut i = s0;
    while i < s1 {
        let (b, at) = (win.plane0 + i / per_plane, i % per_plane);
        let (r, k0, k1) = (at / nc, at % nc, nc.min(at % nc + s1 - i));
        let rr = rows.iter().position(|run| r < run.at.1).unwrap_or(0);
        let row = &rows[rr];
        let x_row = b * c.in_c * plane + row.x_at(r) * c.in_w;
        let base = b * win.strides.0 + win.rows.at(r) * win.strides.2;
        for (cr, col) in cols.iter().enumerate() {
            let (lo, hi) = (col.at.0.max(k0), col.at.1.min(k1));
            if lo >= hi {
                continue;
            }
            let t = open[rr * cols.len() + cr].get_or_insert_with(|| {
                let start = taps.len();
                push_taps(c, row.taps, col.taps, taps);
                Tile {
                    taps: (start, taps.len()),
                    ..Tile::default()
                }
            });
            for k in lo..hi {
                t.at[t.n] = id(i - s0 + k - k0, base + win.cols.at(k));
                t.x_at[t.n] = x_row + col.x_at(k);
                t.n += 1;
                if t.n == TILE {
                    tiles.push(*t);
                    t.n = 0;
                }
            }
        }
        i += k1 - k0;
    }
    tiles.extend(open.iter().flatten().filter(|t| t.n > 0));

    let (c0, c1) = win.channels;
    let groups = c0 / goc..c1.div_ceil(goc);
    for t in tiles.iter() {
        let (at, x_at) = (&t.at[..t.n], &t.x_at[..t.n]);
        let tl = &taps[t.taps.0..t.taps.1];
        for group in groups.clone() {
            let (first, gbase) = (group * goc, group * gic * plane);
            let lanes = (c0.max(first) - first, c1.min(first + goc) - first);
            let gpanel = &panel[group * blocks * steps..][..blocks * steps];
            let patch = subst.and_then(|s| LanePatch::of(s, (first, goc), steps, OCB));
            let xg = &x[gbase..];
            // An input substitution inside some position's slab of the
            // group's input channels.
            let sub = x_sub
                .and_then(|(e, v)| Some((e.checked_sub(gbase)?, v)))
                .filter(|&(e, _)| x_at.iter().any(|&xa| (xa..xa + gic * plane).contains(&e)));
            match sub {
                Some((e, v)) => {
                    // Each position's taps gathered, the faulty value in
                    // place of the element it substitutes.
                    gathered.clear();
                    for &xa in x_at {
                        gathered.extend(tl.iter().map(|&(_, off)| {
                            if xa + off == e {
                                v
                            } else {
                                xg[xa + off]
                            }
                        }));
                    }
                    let nt = tl.len();
                    let terms = tl.iter().enumerate().map(|(k, &(step, _))| (step, k));
                    let xs = |p: usize| &gathered[p * nt..][..nt];
                    run_tile(
                        at,
                        xs,
                        terms,
                        gpanel,
                        steps,
                        (first, lanes),
                        patch,
                        &mut put,
                    );
                }
                None => {
                    let xs = |p: usize| &xg[x_at[p]..];
                    let terms = tl.iter().copied();
                    run_tile(
                        at,
                        xs,
                        terms,
                        gpanel,
                        steps,
                        (first, lanes),
                        patch,
                        &mut put,
                    );
                }
            }
        }
    }
}

/// Appends the non-gated taps of valid kernel rows `kh` and columns `kw`
/// in ascending kernel-step order, as (step, input offset from the
/// position's first tap).
fn push_taps(c: &ConvSpec, kh: (usize, usize), kw: (usize, usize), taps: &mut Vec<(usize, usize)>) {
    let plane = c.in_h * c.in_w;
    for ic in 0..c.group_in_c() {
        for kh_i in kh.0..kh.1 {
            let row = ic * plane + (kh_i - kh.0) * c.dilation.0 * c.in_w;
            let step = (ic * c.kh + kh_i) * c.kw;
            for kw_i in kw.0..kw.1 {
                taps.push((step + kw_i, row + (kw_i - kw.0) * c.dilation.1));
            }
        }
    }
}

/// Adds the terms `(step, off)` of a tile to the running accumulators
/// `acc`: position `p` reads `xs[p][off]` against weight vector
/// `wts[step]`. A tile's terms may come in several runs, each over its own
/// weights, as long as the runs keep ascending kernel-step order.
#[inline(always)]
fn lane_acc<const P: usize, const OCB: usize>(
    acc: &mut [[f32; OCB]; P],
    xs: [&[f32]; P],
    terms: impl Iterator<Item = (usize, usize)>,
    wts: &[[f32; OCB]],
) {
    for (step, off) in terms {
        let x: [f32; P] = from_fn(|p| xs[p][off]);
        // Lanes outermost: LLVM then vectorizes across lanes (one weight
        // vector, one broadcast input per position), not across positions.
        for (l, &w) in wts[step].iter().enumerate() {
            for (acc_p, &xv) in acc.iter_mut().zip(&x) {
                acc_p[l] += xv * w;
            }
        }
    }
}

impl DenseSpec {
    /// The full forward from weights already packed into `panel` (by
    /// [`LanePanel::pack_rows`] as `[out_features, in_features]`, one
    /// group): the kernel behind [`MacSpec::forward_into_scratch`] minus the
    /// packing, which a `Dense` layer does once per weight change.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` do not fit this spec, or if `panel` was packed
    /// for a different geometry.
    pub(crate) fn forward_packed(&self, x: &[f32], panel: &LanePanel, out: &mut [f32]) {
        assert_eq!(
            panel.geometry,
            (self.out_features, 1, self.in_features),
            "dense panel packed for a different geometry"
        );
        rows_forward(x, panel, out, 1, self.batch);
    }
}

/// Dense and matmul forwards through the row driver: for each of the
/// panel's groups, `rows` rows of `x` (each one kernel step per value)
/// times the group's packed outputs. Row `r` of group `g` reads
/// `x[(g·rows + r)·k..]` and writes `out[(g·rows + r)·n..][..n]`, for `k`
/// steps and `n` outputs per group.
fn rows_forward(x: &[f32], panel: &LanePanel, out: &mut [f32], groups: usize, rows: usize) {
    let (outs, panel_groups, k) = panel.geometry;
    assert_eq!(
        panel_groups, groups,
        "panel packed for a different geometry"
    );
    let n = outs / groups.max(1);
    assert_eq!(x.len(), groups * rows * k, "input size mismatch");
    assert_eq!(out.len(), groups * rows * n, "output buffer size mismatch");
    let put = |r: usize, j: usize, row: &[f32]| {
        out[r * n + j..][..row.len()].copy_from_slice(row);
    };
    rows_lanes(x, panel, (0, groups * rows), rows, (0, n), None, put);
}

/// The row driver of the lane kernel, behind the dense and matmul forwards
/// and the dense fault recompute: rows `[r0, r1)` of `x`, row `r` holding
/// `x[r·k..][..k]` (one value per kernel step) and belonging to panel
/// group `r / group_rows`. Rows go in tiles of up to [`TILE`] consecutive
/// rows of one group, each over the lane blocks of its group that overlap
/// the group's outputs `lanes`. Each block calls `put(row, j, values)` per
/// row with the block's first output `j` in `lanes` and the row's values
/// of its consecutive outputs from `j` on.
///
/// `subst`, when given, applies as a faulty copy of the one row an input
/// substitution lands in, or as one lane of one step's weight vector (a
/// weight substitution).
fn rows_lanes(
    x: &[f32],
    panel: &LanePanel,
    rows: (usize, usize),
    group_rows: usize,
    lanes: (usize, usize),
    subst: Option<&Substitution>,
    put: impl FnMut(usize, usize, &[f32]),
) {
    let (outs, groups, _) = panel.geometry;
    if lanes_for(outs / groups.max(1)) == 8 {
        rows_lanes_at::<8>(x, panel, rows, group_rows, lanes, subst, put);
    } else {
        rows_lanes_at::<16>(x, panel, rows, group_rows, lanes, subst, put);
    }
}

/// [`rows_lanes`] at `OCB` lanes.
fn rows_lanes_at<const OCB: usize>(
    x: &[f32],
    panel: &LanePanel,
    (r0, r1): (usize, usize),
    group_rows: usize,
    lanes: (usize, usize),
    subst: Option<&Substitution>,
    mut put: impl FnMut(usize, usize, &[f32]),
) {
    let (outs, groups, k) = panel.geometry;
    let n = outs / groups.max(1);
    let blocks = n.div_ceil(OCB);
    let (panel, _) = panel.data.as_chunks::<OCB>();
    let mut faulty_row = Vec::new();
    let sub_row = subst.filter(|s| s.kind == OperandKind::Input).map(|s| {
        let r = s.offset / k;
        faulty_row.extend_from_slice(&x[r * k..][..k]);
        faulty_row[s.offset % k] = s.value;
        r
    });
    let mut r = r0;
    while r < r1 {
        let group = r / group_rows;
        let end = r1.min(r + TILE).min((group + 1) * group_rows);
        let at: [usize; TILE] = from_fn(|p| r + p);
        let xs = |p: usize| {
            if sub_row == Some(r + p) {
                &faulty_row[..]
            } else {
                &x[(r + p) * k..][..k]
            }
        };
        let gpanel = &panel[group * blocks * k..][..blocks * k];
        let patch = subst.and_then(|s| LanePatch::of(s, (group * n, n), k, OCB));
        // Row terms: step `s` reads value `s` of the row.
        let terms = (0..k).map(|s| (s, s));
        run_tile(
            &at[..end - r],
            xs,
            terms,
            gpanel,
            k,
            (0, lanes),
            patch,
            &mut put,
        );
        r = end;
    }
}

/// A weight substitution as the lane kernel sees it: lane `lane` of lane
/// block `block` holds `value` instead of its packed weight at kernel step
/// `step`.
#[derive(Clone, Copy, Debug)]
struct LanePatch {
    block: usize,
    lane: usize,
    step: usize,
    value: f32,
}

impl LanePatch {
    /// The patch for `subst` on a panel group of `outs` outputs starting at
    /// output `first`, `steps` kernel steps each, in blocks of `ocb` lanes;
    /// `None` for an input substitution or a weight outside the group.
    fn of(
        subst: &Substitution,
        (first, outs): (usize, usize),
        steps: usize,
        ocb: usize,
    ) -> Option<Self> {
        let o = subst.offset / steps;
        (subst.kind == OperandKind::Weight && (first..first + outs).contains(&o)).then(|| {
            LanePatch {
                block: (o - first) / ocb,
                lane: (o - first) % ocb,
                step: subst.offset % steps,
                value: subst.value,
            }
        })
    }
}

/// Runs one tile of positions with ids `at` (1 to `TILE` of them),
/// position `p` reading its inputs from `xs(p)`, over the lane blocks of
/// `panel` (each `steps` packed weight vectors) that overlap outputs
/// `[j0, j1)` of `lanes = (first, (j0, j1))`, with `patch` applied when it
/// is given. Each block calls `put(at[p], first + j, values)` for each
/// position `p`, where `j` is the block's first output in range and
/// `values` holds the position's outputs from `j` on, cut to the range.
/// The conv driver and the row
/// driver go through here.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_tile<'x, const OCB: usize>(
    at: &[usize],
    xs: impl Fn(usize) -> &'x [f32],
    terms: impl Iterator<Item = (usize, usize)> + Clone,
    panel: &[[f32; OCB]],
    steps: usize,
    lanes: (usize, (usize, usize)),
    patch: Option<LanePatch>,
    put: impl FnMut(usize, usize, &[f32]),
) {
    match at.len() {
        1 => tile_blocks::<1, OCB>(at, from_fn(xs), terms, panel, steps, lanes, patch, put),
        2 => tile_blocks::<2, OCB>(at, from_fn(xs), terms, panel, steps, lanes, patch, put),
        3 => tile_blocks::<3, OCB>(at, from_fn(xs), terms, panel, steps, lanes, patch, put),
        _ => tile_blocks::<TILE, OCB>(at, from_fn(xs), terms, panel, steps, lanes, patch, put),
    }
}

/// [`run_tile`] at `P` positions. A block holding `patch` splits the terms
/// around the patched step: the steps before it over the packed weights,
/// that one step over its weight vector with one lane replaced, the steps
/// after it over the packed weights again.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_blocks<const P: usize, const OCB: usize>(
    at: &[usize],
    xs: [&[f32]; P],
    terms: impl Iterator<Item = (usize, usize)> + Clone,
    panel: &[[f32; OCB]],
    steps: usize,
    (first, (j0, j1)): (usize, (usize, usize)),
    patch: Option<LanePatch>,
    mut put: impl FnMut(usize, usize, &[f32]),
) {
    for block in j0 / OCB..j1.div_ceil(OCB) {
        let wts = &panel[block * steps..][..steps];
        // Each arm owns its accumulators, so LLVM keeps the unpatched
        // arm's in registers.
        let acc = match patch.filter(|pt| pt.block == block) {
            None => {
                let mut acc = [[0.0f32; OCB]; P];
                lane_acc(&mut acc, xs, terms.clone(), wts);
                acc
            }
            Some(pt) => {
                let mut acc = [[0.0f32; OCB]; P];
                let before = terms.clone().take_while(|&(s, _)| s < pt.step);
                lane_acc(&mut acc, xs, before, wts);
                if let Some((_, off)) = terms.clone().find(|&(s, _)| s == pt.step) {
                    let mut w = wts[pt.step];
                    w[pt.lane] = pt.value;
                    lane_acc(&mut acc, xs, core::iter::once((0, off)), &[w]);
                }
                let after = terms.clone().skip_while(|&(s, _)| s <= pt.step);
                lane_acc(&mut acc, xs, after, wts);
                acc
            }
        };
        let (lo, hi) = (
            j0.max(block * OCB) - block * OCB,
            j1.min((block + 1) * OCB) - block * OCB,
        );
        for (&id, a) in at.iter().zip(&acc) {
            put(id, first + block * OCB + lo, &a[lo..hi]);
        }
    }
}

/// Conv kernel for groups with a single output channel (depthwise): no
/// packing, no lane blocks. Windows of at least [`LANES`] columns run one
/// accumulator per output column over contiguous input row segments;
/// narrower ones accumulate each neuron's valid taps directly. Either way
/// every neuron adds its non-gated terms in ascending kernel-step order.
fn conv_depthwise_window(
    c: &ConvSpec,
    operands: &Operands<'_>,
    out: &mut [f32],
    s: &mut KernelScratch,
    (oh_dim, ow_dim): (usize, usize),
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
) {
    let (x, w) = (operands.input.data(), operands.weight.data());
    let gic = c.group_in_c();
    let (s0, s1) = c.stride;
    let (p0, p1) = c.padding;
    let (d0, d1) = c.dilation;
    let steps = gic * c.kh * c.kw;

    // Valid output columns for each kernel column, hoisted out of every
    // loop below: `iw = ow·s1 + kw·d1 − p1` must land in `[0, in_w)`, and
    // because `iw` is monotone in `ow` the valid set is one contiguous
    // range. Columns outside [w0, w1) are neither accumulated nor written.
    let KernelScratch { acc, ranges, .. } = s;
    ranges.clear();
    for kw_i in 0..c.kw {
        let shift = kw_i * d1;
        let lo = if shift >= p1 {
            0
        } else {
            (p1 - shift).div_ceil(s1)
        };
        let hi = if c.in_w + p1 <= shift {
            0
        } else {
            ((c.in_w + p1 - shift - 1) / s1 + 1).min(ow_dim)
        };
        let (lo, hi) = (lo.max(w0), hi.min(w1));
        ranges.push((lo.min(hi), hi));
    }
    acc.clear();
    acc.resize(ow_dim, 0.0);
    let acc = &mut acc[..ow_dim];
    let narrow = w1 - w0 < LANES;

    for b in 0..c.batch {
        for oc in 0..c.out_c {
            let ic_base = oc * gic;
            let w_oc = &w[oc * steps..][..steps];
            for oh in h0..h1 {
                let (kh_lo, kh_hi) = taps_at(oh, s0, p0, d0, c.kh, c.in_h);
                let out_row = &mut out[((b * c.out_c + oc) * oh_dim + oh) * ow_dim..][..ow_dim];
                if narrow {
                    for (ow, o) in out_row.iter_mut().enumerate().take(w1).skip(w0) {
                        let (kw_lo, kw_hi) = taps_at(ow, s1, p1, d1, c.kw, c.in_w);
                        let mut a = 0.0f32;
                        for ic in 0..gic {
                            let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
                            for kh_i in kh_lo..kh_hi {
                                let in_row = (in_plane + oh * s0 + kh_i * d0 - p0) * c.in_w;
                                let w_row = (ic * c.kh + kh_i) * c.kw;
                                for kw_i in kw_lo..kw_hi {
                                    a += x[in_row + ow * s1 + kw_i * d1 - p1] * w_oc[w_row + kw_i];
                                }
                            }
                        }
                        *o = a;
                    }
                    continue;
                }
                acc.fill(0.0);
                for ic in 0..gic {
                    let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
                    for kh_i in kh_lo..kh_hi {
                        let w_row = (ic * c.kh + kh_i) * c.kw;
                        let in_row = (in_plane + oh * s0 + kh_i * d0 - p0) * c.in_w;
                        for (kw_i, &(lo, hi)) in ranges.iter().enumerate() {
                            if lo >= hi {
                                continue;
                            }
                            let wv = w_oc[w_row + kw_i];
                            let src_start = in_row + lo * s1 + kw_i * d1 - p1;
                            if s1 == 1 {
                                axpy_lanes(
                                    &mut acc[lo..hi],
                                    &x[src_start..src_start + (hi - lo)],
                                    wv,
                                );
                            } else {
                                for (a, xv) in acc[lo..hi]
                                    .iter_mut()
                                    .zip(x[src_start..].iter().step_by(s1))
                                {
                                    *a += xv * wv;
                                }
                            }
                        }
                    }
                }
                out_row[w0..w1].copy_from_slice(&acc[w0..w1]);
            }
        }
    }
}

/// A running accumulator with an optional pending [`AccFlip`].
///
/// The flip lands just before the first term of a step at or after
/// `flip_before_step`, or after the last term when there is none. Gated
/// steps add nothing, so this equals flipping exactly at
/// `flip_before_step` of the step-indexed loop.
struct Accumulator {
    acc: f32,
    flip: Option<AccFlip>,
}

impl Accumulator {
    #[inline]
    fn add(&mut self, step: usize, term: f32) {
        if let Some(f) = self.flip {
            if step >= f.flip_before_step {
                self.acc = f32::from_bits(self.acc.to_bits() ^ (1 << f.bit));
                self.flip = None;
            }
        }
        self.acc += term;
    }

    fn finish(self) -> f32 {
        match self.flip {
            Some(f) => f32::from_bits(self.acc.to_bits() ^ (1 << f.bit)),
            None => self.acc,
        }
    }
}

/// The `[lo, hi)` kernel taps `k` whose input coordinate
/// `origin + k·dilation` lies in `[0, extent)` — contiguous, since the
/// coordinate grows with `k`.
fn valid_taps(origin: isize, dilation: usize, taps: usize, extent: usize) -> (usize, usize) {
    let d = dilation as isize;
    let lo = if origin >= 0 {
        0
    } else {
        (-origin + d - 1) / d
    };
    let room = extent as isize - origin;
    let hi = if room <= 0 { 0 } else { (room + d - 1) / d };
    let hi = (hi as usize).min(taps);
    ((lo as usize).min(hi), hi)
}

/// Calls `term(step, in_off, w_off)` for every non-gated kernel step of one
/// conv output neuron, in ascending step order (ic, then kh, then kw — the
/// order the register-level simulator sequences).
#[inline]
fn conv_terms(c: &ConvSpec, out_offset: usize, mut term: impl FnMut(usize, usize, usize)) {
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let hw = oh_dim * ow_dim;
    let b = out_offset / (c.out_c * hw);
    let rem = out_offset % (c.out_c * hw);
    let oc = rem / hw;
    let (oh, ow) = ((rem % hw) / ow_dim, rem % ow_dim);
    let gic = c.group_in_c();
    let ic_base = (oc / c.group_out_c()) * gic;
    let h_org = (oh * c.stride.0) as isize - c.padding.0 as isize;
    let w_org = (ow * c.stride.1) as isize - c.padding.1 as isize;
    let (kh_lo, kh_hi) = valid_taps(h_org, c.dilation.0, c.kh, c.in_h);
    let (kw_lo, kw_hi) = valid_taps(w_org, c.dilation.1, c.kw, c.in_w);
    for ic in 0..gic {
        let in_plane = (b * c.in_c + ic_base + ic) * c.in_h;
        let w_plane = (oc * gic + ic) * c.kh;
        for kh_i in kh_lo..kh_hi {
            let ih = (h_org + (kh_i * c.dilation.0) as isize) as usize;
            let in_row = (in_plane + ih) * c.in_w;
            let w_row = (w_plane + kh_i) * c.kw;
            let step_row = (ic * c.kh + kh_i) * c.kw;
            for kw_i in kw_lo..kw_hi {
                let iw = (w_org + (kw_i * c.dilation.1) as isize) as usize;
                term(step_row + kw_i, in_row + iw, w_row + kw_i);
            }
        }
    }
}

/// The step-indexed reference for [`conv_terms`]: the (input, weight)
/// offsets of kernel step `step` of one output neuron, or `None` when the
/// step is gated (padding).
#[cfg(test)]
fn conv_term_offsets(c: &ConvSpec, out_offset: usize, step: usize) -> Option<(usize, usize)> {
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let hw = oh_dim * ow_dim;
    let b = out_offset / (c.out_c * hw);
    let rem = out_offset % (c.out_c * hw);
    let oc = rem / hw;
    let oh = (rem % hw) / ow_dim;
    let ow = rem % ow_dim;

    let gic = c.group_in_c();
    let group = oc / c.group_out_c();
    let ic_base = group * gic;

    // Step decomposition: channel-major, then kernel row, then kernel column
    // — the same order the register-level simulator sequences.
    let kw_i = step % c.kw;
    let kh_i = (step / c.kw) % c.kh;
    let ic = step / (c.kw * c.kh);
    if ic >= gic {
        return None;
    }

    let ih = (oh * c.stride.0 + kh_i * c.dilation.0) as isize - c.padding.0 as isize;
    if ih < 0 || ih as usize >= c.in_h {
        return None;
    }
    let iw = (ow * c.stride.1 + kw_i * c.dilation.1) as isize - c.padding.1 as isize;
    if iw < 0 || iw as usize >= c.in_w {
        return None;
    }
    let in_off = ((b * c.in_c + ic_base + ic) * c.in_h + ih as usize) * c.in_w + iw as usize;
    let w_off = ((oc * gic + ic) * c.kh + kh_i) * c.kw + kw_i;
    Some((in_off, w_off))
}

/// The O(out_len) scan [`MacSpec::input_window`] replaced: every conv
/// output neuron tested for whether its receptive field covers the element.
#[cfg(test)]
fn conv_neurons_using_input(c: &ConvSpec, input_offset: usize) -> Vec<usize> {
    let chw = c.in_c * c.in_h * c.in_w;
    let b = input_offset / chw;
    let rem = input_offset % chw;
    let ic = rem / (c.in_h * c.in_w);
    let ih = (rem % (c.in_h * c.in_w)) / c.in_w;
    let iw = rem % c.in_w;

    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
    let gic = c.group_in_c();
    let goc = c.group_out_c();
    let group = ic / gic;

    let mut out = Vec::new();
    // Iterate output neurons in computation order and keep those whose
    // receptive field covers (ih, iw). Output channels restricted to the
    // input channel's group.
    for oc in group * goc..(group + 1) * goc {
        for oh in 0..oh_dim {
            for ow in 0..ow_dim {
                if conv_uses(c, oh, ow, ih, iw) {
                    out.push(((b * c.out_c + oc) * oh_dim + oh) * ow_dim + ow);
                }
            }
        }
    }
    out
}

#[cfg(test)]
fn conv_uses(c: &ConvSpec, oh: usize, ow: usize, ih: usize, iw: usize) -> bool {
    let h0 = oh * c.stride.0;
    let w0 = ow * c.stride.1;
    let ihp = ih + c.padding.0;
    let iwp = iw + c.padding.1;
    if ihp < h0 || iwp < w0 {
        return false;
    }
    let dh = ihp - h0;
    let dw = iwp - w0;
    dh.is_multiple_of(c.dilation.0)
        && dw.is_multiple_of(c.dilation.1)
        && dh / c.dilation.0 < c.kh
        && dw / c.dilation.1 < c.kw
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    fn small_conv() -> ConvSpec {
        ConvSpec {
            batch: 1,
            in_c: 2,
            in_h: 4,
            in_w: 4,
            out_c: 3,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
            groups: 1,
        }
    }

    #[test]
    fn conv_out_dims() {
        let c = small_conv();
        assert_eq!(c.out_h(), 4);
        assert_eq!(c.out_w(), 4);
        assert_eq!(conv_out_dim(5, 3, 2, 0, 1), 2);
        assert_eq!(conv_out_dim(2, 3, 1, 0, 1), 0); // kernel larger than input
    }

    #[test]
    fn conv_compute_matches_manual() {
        let c = ConvSpec {
            batch: 1,
            in_c: 1,
            in_h: 3,
            in_w: 3,
            out_c: 1,
            kh: 2,
            kw: 2,
            stride: (1, 1),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 1,
        };
        let input =
            Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let spec = MacSpec::Conv(c);
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        // Output (0,0): 1*1 + 5*1 = 6. Output (1,1): 5 + 9 = 14.
        assert_eq!(spec.compute_at(&ops, 0, None), 6.0);
        assert_eq!(spec.compute_at(&ops, 3, None), 14.0);
    }

    #[test]
    fn conv_substitution_changes_only_users() {
        let spec = MacSpec::Conv(small_conv());
        let input = Tensor::full(vec![1, 2, 4, 4], 1.0);
        let weight = Tensor::full(vec![3, 2, 3, 3], 0.5);
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        let subst = Substitution {
            kind: OperandKind::Weight,
            offset: 0, // oc=0, ic=0, kh=0, kw=0
            value: 100.0,
        };
        let users = spec.neurons_using_weight(0);
        // Weight 0 belongs to output channel 0: all 16 neurons of channel 0.
        assert_eq!(users.len(), 16);
        for off in 0..spec.out_len() {
            let clean = spec.compute_at(&ops, off, None);
            let faulty = spec.compute_at(&ops, off, Some(&subst));
            if users.contains(&off) {
                // Corner/edge neurons may not touch kernel position (0,0) due
                // to padding, so only assert the non-affected direction below
                // for non-users; users may or may not change.
                if faulty != clean {
                    assert!(faulty > clean);
                }
            } else {
                assert_eq!(clean, faulty, "non-user neuron {off} changed");
            }
        }
    }

    #[test]
    fn conv_neurons_using_input_respects_receptive_field() {
        let c = ConvSpec {
            batch: 1,
            in_c: 1,
            in_h: 4,
            in_w: 4,
            out_c: 2,
            kh: 2,
            kw: 2,
            stride: (2, 2),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 1,
        };
        let spec = MacSpec::Conv(c);
        // Input (0,0,1,1) is used only by output position (0,0) — stride 2,
        // no overlap — in both output channels.
        let off = 4 + 1;
        let users = spec.neurons_using_input(off);
        assert_eq!(users, vec![0, 4]);
    }

    #[test]
    fn depthwise_conv_groups_limit_users() {
        let c = ConvSpec {
            batch: 1,
            in_c: 4,
            in_h: 2,
            in_w: 2,
            out_c: 4,
            kh: 1,
            kw: 1,
            stride: (1, 1),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 4,
        };
        let spec = MacSpec::Conv(c);
        // Input channel 2 only feeds output channel 2.
        let off = 2 * 4; // (c=2, h=0, w=0)
        let users = spec.neurons_using_input(off);
        assert_eq!(users, vec![2 * 4]);
    }

    #[test]
    fn dense_users() {
        let d = DenseSpec {
            batch: 2,
            in_features: 3,
            out_features: 4,
        };
        let spec = MacSpec::Dense(d);
        // Weight (o=1, i=2) → one neuron per batch.
        assert_eq!(spec.neurons_using_weight(3 + 2), vec![1, 5]);
        // Input (b=1, i=0) → all 4 neurons of batch 1.
        assert_eq!(spec.neurons_using_input(3), vec![4, 5, 6, 7]);
    }

    #[test]
    fn dense_compute() {
        let d = DenseSpec {
            batch: 1,
            in_features: 2,
            out_features: 2,
        };
        let input = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let weight = Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let spec = MacSpec::Dense(d);
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        assert_eq!(spec.compute_at(&ops, 0, None), 11.0);
        assert_eq!(spec.compute_at(&ops, 1, None), 17.0);
    }

    #[test]
    fn matmul_users_row_and_column() {
        let m = MatMulSpec {
            batch: 1,
            m: 2,
            k: 3,
            n: 4,
            transpose_b: false,
        };
        let spec = MacSpec::MatMul(m);
        // A element (m=1, k=0) → output row 1.
        assert_eq!(spec.neurons_using_input(3), vec![4, 5, 6, 7]);
        // B element (k=0, n=2) → output column 2.
        assert_eq!(spec.neurons_using_weight(2), vec![2, 6]);
    }

    #[test]
    fn matmul_transposed_b() {
        let m = MatMulSpec {
            batch: 1,
            m: 2,
            k: 2,
            n: 2,
            transpose_b: true,
        };
        let spec = MacSpec::MatMul(m.clone());
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap(); // stored [n, k]
        let ops = Operands {
            input: &a,
            weight: &b,
        };
        // out[0][0] = 1*5 + 2*6 = 17; out[0][1] = 1*7 + 2*8 = 23.
        assert_eq!(spec.compute_at(&ops, 0, None), 17.0);
        assert_eq!(spec.compute_at(&ops, 1, None), 23.0);
        // B element (n=1, k=0) at flat offset 2 → output column 1.
        assert_eq!(spec.neurons_using_weight(2), vec![1, 3]);
    }

    #[test]
    fn forward_into_matches_compute_at_bitwise() {
        use crate::init::uniform_tensor;
        // Exercise padding, stride, dilation and groups.
        let specs = vec![
            MacSpec::Conv(small_conv()),
            MacSpec::Conv(ConvSpec {
                batch: 2,
                in_c: 4,
                in_h: 7,
                in_w: 5,
                out_c: 6,
                kh: 3,
                kw: 2,
                stride: (2, 1),
                padding: (1, 0),
                dilation: (1, 2),
                groups: 2,
            }),
            MacSpec::Dense(DenseSpec {
                batch: 3,
                in_features: 11,
                out_features: 5,
            }),
            MacSpec::MatMul(MatMulSpec {
                batch: 2,
                m: 4,
                k: 6,
                n: 3,
                transpose_b: false,
            }),
            MacSpec::MatMul(MatMulSpec {
                batch: 1,
                m: 5,
                k: 4,
                n: 7,
                transpose_b: true,
            }),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let (in_shape, w_shape) = match &spec {
                MacSpec::Conv(c) => (
                    vec![c.batch, c.in_c, c.in_h, c.in_w],
                    vec![c.out_c, c.group_in_c(), c.kh, c.kw],
                ),
                MacSpec::Dense(d) => (
                    vec![d.batch, d.in_features],
                    vec![d.out_features, d.in_features],
                ),
                MacSpec::MatMul(m) => {
                    let b = if m.transpose_b {
                        vec![m.batch, m.n, m.k]
                    } else {
                        vec![m.batch, m.k, m.n]
                    };
                    (vec![m.batch, m.m, m.k], b)
                }
            };
            let input = uniform_tensor(i as u64, in_shape, 1.0);
            let weight = uniform_tensor(i as u64 ^ 99, w_shape, 1.0);
            let ops = Operands {
                input: &input,
                weight: &weight,
            };
            let mut fused = vec![0.0f32; spec.out_len()];
            spec.forward_into(&ops, &mut fused);
            for (off, fused_value) in fused.iter().enumerate() {
                let per_neuron = spec.compute_at(&ops, off, None);
                assert_eq!(
                    per_neuron.to_bits(),
                    fused_value.to_bits(),
                    "spec {i}, neuron {off}"
                );
            }
        }
    }

    #[test]
    fn acc_flip_rejects_out_of_range_bit() {
        assert!(AccFlip::new(0, 31).is_ok());
        assert!(AccFlip::new(usize::MAX, 0).is_ok());
        for bad in [32u32, 33, 64, u32::MAX] {
            let err = AccFlip::new(3, bad).expect_err("bit out of range must be rejected");
            assert!(
                matches!(err, DnnError::InvalidConfig { .. }),
                "expected InvalidConfig, got {err:?}"
            );
        }
    }

    #[test]
    fn acc_flip_matches_manual_flip_positions() {
        let spec = MacSpec::Dense(DenseSpec {
            batch: 1,
            in_features: 3,
            out_features: 1,
        });
        let input = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let weight = Tensor::from_vec(vec![1, 3], vec![4.0, 5.0, 6.0]).unwrap();
        let ops = Operands {
            input: &input,
            weight: &weight,
        };
        // Flip bit 1 before step 1: acc = 4 → flip → then + 10 + 18.
        let flipped = f32::from_bits(4.0f32.to_bits() ^ 0b10);
        let want = flipped + 10.0 + 18.0;
        let got = spec.compute_at_acc_flip(&ops, 0, AccFlip::new(1, 1).unwrap());
        assert_eq!(got.to_bits(), want.to_bits());
        // Flip past the last step: flip the clean result.
        let clean = spec.compute_at(&ops, 0, None);
        let got = spec.compute_at_acc_flip(&ops, 0, AccFlip::new(99, 7).unwrap());
        assert_eq!(
            got.to_bits(),
            f32::from_bits(clean.to_bits() ^ (1 << 7)).to_bits()
        );
    }

    #[test]
    fn forward_into_scratch_reuse_is_bit_identical() {
        use crate::init::uniform_tensor;
        // One scratch reused across different specs must give the same bits
        // as a fresh scratch per call.
        let specs = [
            MacSpec::Conv(small_conv()),
            MacSpec::Dense(DenseSpec {
                batch: 2,
                in_features: 9,
                out_features: 4,
            }),
            MacSpec::MatMul(MatMulSpec {
                batch: 2,
                m: 3,
                k: 5,
                n: 4,
                transpose_b: false,
            }),
        ];
        let mut reused = KernelScratch::new();
        for (i, spec) in specs.iter().enumerate() {
            let (in_shape, w_shape) = match spec {
                MacSpec::Conv(c) => (
                    vec![c.batch, c.in_c, c.in_h, c.in_w],
                    vec![c.out_c, c.group_in_c(), c.kh, c.kw],
                ),
                MacSpec::Dense(d) => (
                    vec![d.batch, d.in_features],
                    vec![d.out_features, d.in_features],
                ),
                MacSpec::MatMul(m) => (vec![m.batch, m.m, m.k], vec![m.batch, m.k, m.n]),
            };
            let input = uniform_tensor(7 + i as u64, in_shape, 1.0);
            let weight = uniform_tensor(13 + i as u64, w_shape, 1.0);
            let ops = Operands {
                input: &input,
                weight: &weight,
            };
            let mut fresh = vec![0.0f32; spec.out_len()];
            spec.forward_into(&ops, &mut fresh);
            let mut pooled = vec![0.0f32; spec.out_len()];
            spec.forward_into_scratch(&ops, &mut pooled, &mut reused);
            for (off, (a, b)) in fresh.iter().zip(&pooled).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "spec {i}, neuron {off}");
            }
        }
    }

    /// The step-indexed loop [`MacSpec::accumulate`] replaced: every kernel
    /// step decoded from the flat step index, the flip applied exactly at
    /// `flip_before_step` whether or not that step is gated.
    fn reference_accumulate(
        c: &ConvSpec,
        operands: &Operands<'_>,
        out_offset: usize,
        subst: Option<&Substitution>,
        flip: Option<AccFlip>,
    ) -> f32 {
        let flip_at = |acc: f32, f: AccFlip| f32::from_bits(acc.to_bits() ^ (1 << f.bit));
        let mut acc = 0.0f32;
        let mut flipped = false;
        for step in 0..c.group_in_c() * c.kh * c.kw {
            if let Some(f) = flip.filter(|f| f.flip_before_step == step) {
                acc = flip_at(acc, f);
                flipped = true;
            }
            if let Some((in_off, w_off)) = conv_term_offsets(c, out_offset, step) {
                let x = operands.fetch(OperandKind::Input, in_off, subst);
                let w = operands.fetch(OperandKind::Weight, w_off, subst);
                acc += x * w;
            }
        }
        match flip {
            Some(f) if !flipped => flip_at(acc, f),
            _ => acc,
        }
    }

    /// A random conv geometry: batch 1–2, grouped or depthwise, stride and
    /// dilation 1–3, padding up to 4 (wider than a small kernel reaches, so
    /// some neurons have every step gated). `None` when it has no output.
    fn random_conv(rng: &mut crate::init::SplitMix64) -> Option<ConvSpec> {
        let mut pick = |lo: usize, hi: usize| lo + rng.next_below((hi - lo + 1) as u64) as usize;
        let groups = pick(1, 3);
        let depthwise = pick(0, 2) == 0;
        let gic = if depthwise { 1 } else { pick(1, 3) };
        let goc = pick(1, 2);
        let c = ConvSpec {
            batch: pick(1, 2),
            in_c: groups * gic,
            in_h: pick(1, 6),
            in_w: pick(1, 6),
            out_c: groups * goc,
            kh: pick(1, 3),
            kw: pick(1, 3),
            stride: (pick(1, 3), pick(1, 3)),
            padding: (pick(0, 4), pick(0, 4)),
            dilation: (pick(1, 3), pick(1, 3)),
            groups,
        };
        (c.out_h() > 0 && c.out_w() > 0).then_some(c)
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The decoded-once conv loop equals the step-indexed reference bit
        /// for bit, with no substitution, an input or a weight substitution,
        /// and an accumulator flip at every step `0..=kernel_steps`
        /// (gated steps included).
        #[test]
        fn conv_accumulate_matches_step_indexed_reference(seed in 0u64..u64::MAX) {
            use crate::init::{uniform_tensor, SplitMix64};
            let mut rng = SplitMix64::new(seed);
            let Some(c) = random_conv(&mut rng) else {
                return Ok(());
            };
            let spec = MacSpec::Conv(c.clone());
            let input = uniform_tensor(seed ^ 1, vec![c.batch, c.in_c, c.in_h, c.in_w], 2.0);
            let weight = uniform_tensor(seed ^ 2, vec![c.out_c, c.group_in_c(), c.kh, c.kw], 2.0);
            let ops = Operands { input: &input, weight: &weight };
            let value = rng.next_symmetric(100.0);
            let substs = [
                None,
                Some(Substitution {
                    kind: OperandKind::Input,
                    offset: rng.next_below(input.len() as u64) as usize,
                    value,
                }),
                Some(Substitution {
                    kind: OperandKind::Weight,
                    offset: rng.next_below(weight.len() as u64) as usize,
                    value,
                }),
            ];
            let steps = spec.kernel_steps();
            for subst in substs.iter().map(Option::as_ref) {
                for off in 0..spec.out_len() {
                    let want = reference_accumulate(&c, &ops, off, subst, None);
                    let got = spec.accumulate(&ops, off, subst, None);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} neuron {}", c, off);
                }
                for _ in 0..4 {
                    let off = rng.next_below(spec.out_len() as u64) as usize;
                    let bit = rng.next_below(32) as u32;
                    for step in 0..=steps {
                        let flip = AccFlip::new(step, bit).unwrap();
                        let want = reference_accumulate(&c, &ops, off, subst, Some(flip));
                        let got = spec.accumulate(&ops, off, subst, Some(flip));
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{:?} neuron {} flip {:?}",
                            c,
                            off,
                            flip
                        );
                    }
                }
            }
        }
    }

    /// The users of one operand element by scan, the reference for the
    /// closed-form [`UseWindow`]s: conv inputs by [`conv_uses`] over every
    /// output neuron; conv weights as their whole output channel; dense and
    /// matmul elements as every neuron one of whose terms reads the element
    /// (a NaN substituted there makes the neuron NaN, operands being
    /// finite).
    fn scan_users(spec: &MacSpec, ops: &Operands<'_>, kind: OperandKind, off: usize) -> Vec<usize> {
        match (spec, kind) {
            (MacSpec::Conv(c), OperandKind::Input) => conv_neurons_using_input(c, off),
            (MacSpec::Conv(c), OperandKind::Weight) => (0..spec.out_len())
                .filter(|&o| spec.coords_of(o).1 == off / (c.group_in_c() * c.kh * c.kw))
                .collect(),
            _ => {
                let nan = Substitution {
                    kind,
                    offset: off,
                    value: f32::NAN,
                };
                (0..spec.out_len())
                    .filter(|&o| spec.compute_at(ops, o, Some(&nan)).is_nan())
                    .collect()
            }
        }
    }

    /// Random operands for `spec`: `(input, weight)` tensors with finite
    /// values.
    fn random_operands(spec: &MacSpec, seed: u64) -> (Tensor, Tensor) {
        use crate::init::uniform_tensor;
        let (in_shape, w_shape) = match spec {
            MacSpec::Conv(c) => (
                vec![c.batch, c.in_c, c.in_h, c.in_w],
                vec![c.out_c, c.group_in_c(), c.kh, c.kw],
            ),
            MacSpec::Dense(d) => (
                vec![d.batch, d.in_features],
                vec![d.out_features, d.in_features],
            ),
            MacSpec::MatMul(m) if m.transpose_b => {
                (vec![m.batch, m.m, m.k], vec![m.batch, m.n, m.k])
            }
            MacSpec::MatMul(m) => (vec![m.batch, m.m, m.k], vec![m.batch, m.k, m.n]),
        };
        (
            uniform_tensor(seed ^ 1, in_shape, 2.0),
            uniform_tensor(seed ^ 2, w_shape, 2.0),
        )
    }

    /// A random dense layer or matmul (either form), batch and sizes small.
    fn random_rows_spec(rng: &mut crate::init::SplitMix64) -> MacSpec {
        let mut pick = |lo: usize, hi: usize| lo + rng.next_below((hi - lo + 1) as u64) as usize;
        match pick(0, 2) {
            0 => MacSpec::Dense(DenseSpec {
                batch: pick(1, 6),
                in_features: pick(1, 12),
                out_features: pick(1, 40),
            }),
            form => MacSpec::MatMul(MatMulSpec {
                batch: pick(1, 2),
                m: pick(1, 5),
                k: pick(1, 6),
                n: pick(1, 20),
                transpose_b: form == 2,
            }),
        }
    }

    /// A random conv whose groups have 1 (depthwise) to 20 output channels,
    /// so both lane widths (8 and 16) and several lane blocks occur.
    fn random_lane_conv(rng: &mut crate::init::SplitMix64) -> Option<ConvSpec> {
        let mut pick = |lo: usize, hi: usize| lo + rng.next_below((hi - lo + 1) as u64) as usize;
        let groups = pick(1, 2);
        let (gic, goc) = (pick(1, 3), pick(1, 20));
        let c = ConvSpec {
            batch: pick(1, 2),
            in_c: groups * gic,
            in_h: pick(1, 7),
            in_w: pick(1, 7),
            out_c: groups * goc,
            kh: pick(1, 3),
            kw: pick(1, 3),
            stride: (pick(1, 3), pick(1, 2)),
            padding: (pick(0, 3), pick(0, 3)),
            dilation: (pick(1, 2), pick(1, 2)),
            groups,
        };
        (c.out_h() > 0 && c.out_w() > 0).then_some(c)
    }

    /// The special values a flipped bit can produce, and a plain one.
    const FAULTY_VALUES: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
        f32::MAX,
        -f32::MAX,
        3.5,
    ];

    /// An operand element next to the padding: a border input element or an
    /// edge kernel tap (gated for the border output positions), when `spec`
    /// is a conv; any element otherwise.
    fn edge_element(
        spec: &MacSpec,
        kind: OperandKind,
        len: usize,
        rng: &mut crate::init::SplitMix64,
    ) -> usize {
        let off = rng.next_below(len as u64) as usize;
        let MacSpec::Conv(c) = spec else {
            return off;
        };
        let (h, w) = match kind {
            OperandKind::Input => (c.in_h, c.in_w),
            OperandKind::Weight => (c.kh, c.kw),
        };
        // Move the element to row 0 or the last row, keeping its column.
        let row = if rng.next_below(2) == 0 { 0 } else { h - 1 };
        let plane = off / (h * w);
        (plane * h + row) * w + off % w
    }

    #[test]
    fn use_windows_match_a_hand_computed_stride_and_dilation_case() {
        // in 7, k 3, stride 2, pad 1, dilation 2: output o reads rows
        // 2o − 1, 2o + 1, 2o + 3. Row 3 is read by o = 2 (tap 0), o = 1
        // (tap 1) and o = 0 (tap 2).
        let rows = Axis::readers(3, 3, 2, 1, 2, 4);
        assert_eq!((rows.first, rows.step, rows.len), (0, 1, 3));
        // Row 0 is padding-adjacent: no output reads it at an odd offset.
        assert_eq!(Axis::readers(0, 3, 2, 1, 2, 4).len, 0);
        // Stride 3, dilation 3: taps 2, 1, 0 give outputs 0, 1, 2.
        let rows = Axis::readers(6, 3, 3, 0, 3, 4);
        assert_eq!((rows.first, rows.step, rows.len), (0, 1, 3));
        // Stride 3, dilation 2: only taps 3 and 0 land on a stride
        // multiple, so the readers step by 2.
        let rows = Axis::readers(8, 5, 3, 1, 2, 9);
        assert_eq!((rows.first, rows.step, rows.len), (1, 2, 2));
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// [`MacSpec::input_window`] and [`MacSpec::weight_window`] expand
        /// to exactly the scanned use sets, in ascending order, for every
        /// element of random convs (strided, padded, dilated, grouped,
        /// depthwise, batch 2), dense layers and both matmul forms.
        #[test]
        fn use_windows_expand_to_the_scan(seed in 0u64..u64::MAX) {
            use crate::init::SplitMix64;
            let mut rng = SplitMix64::new(seed);
            let spec = match rng.next_below(3) {
                0 => random_rows_spec(&mut rng),
                _ => match random_conv(&mut rng) {
                    Some(c) => MacSpec::Conv(c),
                    None => return Ok(()),
                },
            };
            let (input, weight) = random_operands(&spec, seed);
            let ops = Operands { input: &input, weight: &weight };
            for (kind, len) in [(OperandKind::Input, input.len()), (OperandKind::Weight, weight.len())] {
                for off in 0..len {
                    let window = match kind {
                        OperandKind::Input => spec.input_window(off),
                        OperandKind::Weight => spec.weight_window(off),
                    };
                    let want = scan_users(&spec, &ops, kind, off);
                    prop_assert_eq!(window.ascending_offsets(), want.clone(), "{:?} {:?} {}", spec, kind, off);
                    prop_assert_eq!(window.is_empty(), want.is_empty());
                    // Position-major: each position's channels in order,
                    // and the ascending walk's indices name the same
                    // neurons.
                    let major: Vec<usize> = window.neurons().collect();
                    let (c0, c1) = window.channels();
                    for (i, &o) in major.iter().enumerate() {
                        let (p, c) = spec.coords_of(o);
                        prop_assert_eq!(c, c0 + i % (c1 - c0));
                        prop_assert_eq!(p, spec.coords_of(major[i - i % (c1 - c0)]).0);
                    }
                    let mut seen = vec![false; window.len()];
                    window.for_each_ascending(|o, i| {
                        assert_eq!(o, major[i]);
                        assert!(!std::mem::replace(&mut seen[i], true));
                    });
                    prop_assert!(seen.iter().all(|&s| s));
                }
            }
        }

        /// [`MacNode::recompute`] equals [`MacSpec::compute_at`] with the
        /// same substitution on every neuron of a window cut from a use
        /// set: input and weight substitutions of special values, on
        /// elements next to the padding or anywhere; position ranges that
        /// cross rows and mix tap ranges; channel ranges that cut lane
        /// blocks of 8 and 16 lanes. NaN payloads aside, bit for bit.
        #[test]
        fn packed_recompute_matches_compute_at(seed in 0u64..u64::MAX) {
            use crate::init::SplitMix64;
            let mut rng = SplitMix64::new(seed);
            let spec = match rng.next_below(3) {
                0 => random_rows_spec(&mut rng),
                _ => match random_lane_conv(&mut rng) {
                    Some(c) => MacSpec::Conv(c),
                    None => return Ok(()),
                },
            };
            let (input, weight) = random_operands(&spec, seed);
            let ops = Operands { input: &input, weight: &weight };
            let mut panel = LanePanel::default();
            let panel = match &spec {
                MacSpec::Conv(c) => {
                    panel.pack_conv(weight.data(), c.out_c, c.groups);
                    Some(&panel)
                }
                MacSpec::Dense(d) => {
                    panel.pack_rows(weight.data(), d.out_features, 1, d.in_features);
                    Some(&panel)
                }
                MacSpec::MatMul(_) => None,
            };
            let node = MacNode::new(spec.clone(), ops, panel);
            let bits = |v: f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
            let mut out = Vec::new();
            for (k, kind) in [OperandKind::Input, OperandKind::Weight].into_iter().cycle().take(12).enumerate() {
                let len = match kind {
                    OperandKind::Input => input.len(),
                    OperandKind::Weight => weight.len(),
                };
                let offset = if k % 4 < 2 {
                    edge_element(&spec, kind, len, &mut rng)
                } else {
                    rng.next_below(len as u64) as usize
                };
                let subst = Substitution {
                    kind,
                    offset,
                    value: FAULTY_VALUES[rng.next_below(FAULTY_VALUES.len() as u64) as usize],
                };
                let uses = match kind {
                    OperandKind::Input => spec.input_window(offset),
                    OperandKind::Weight => spec.weight_window(offset),
                };
                if uses.is_empty() {
                    continue;
                }
                // The whole use set, then a random cut of it.
                let n = uses.positions();
                let (c0, c1) = uses.channels();
                let p0 = rng.next_below(n as u64) as usize;
                let p1 = p0 + 1 + rng.next_below((n - p0) as u64) as usize;
                let q0 = c0 + rng.next_below((c1 - c0) as u64) as usize;
                let q1 = q0 + 1 + rng.next_below((c1 - q0) as u64) as usize;
                for window in [uses, uses.select((p0, p1), (q0, q1))] {
                    node.recompute(&subst, &window, &mut out);
                    prop_assert_eq!(out.len(), window.len());
                    for (&v, off) in out.iter().zip(window.neurons()) {
                        let want = spec.compute_at(&ops, off, Some(&subst));
                        prop_assert_eq!(
                            bits(v),
                            bits(want),
                            "{:?} {:?} neuron {}: {} != {}",
                            spec, subst, off, v, want
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn macs_counts() {
        let spec = MacSpec::Conv(small_conv());
        assert_eq!(spec.macs(), (3 * 4 * 4 * 2 * 3 * 3) as u64);
        let d = MacSpec::Dense(DenseSpec {
            batch: 2,
            in_features: 10,
            out_features: 5,
        });
        assert_eq!(d.macs(), 100);
    }
}
