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

    /// Flat output offsets of every neuron that consumes the weight-operand
    /// element at `weight_offset`, in canonical computation order.
    ///
    /// This realizes the "before on-chip memory" weight rows of Table II:
    /// conv → the whole output channel, FC → one neuron per batch, matmul →
    /// the output column.
    pub fn neurons_using_weight(&self, weight_offset: usize) -> Vec<usize> {
        match self {
            MacSpec::Conv(c) => {
                let w_per_oc = c.group_in_c() * c.kh * c.kw;
                let oc = weight_offset / w_per_oc;
                let (oh, ow) = (c.out_h(), c.out_w());
                let mut v = Vec::with_capacity(c.batch * oh * ow);
                for b in 0..c.batch {
                    let base = (b * c.out_c + oc) * oh * ow;
                    v.extend(base..base + oh * ow);
                }
                v
            }
            MacSpec::Dense(d) => {
                let o = weight_offset / d.in_features;
                (0..d.batch).map(|b| b * d.out_features + o).collect()
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
                let base = g * mm.m * mm.n;
                (0..mm.m).map(|r| base + r * mm.n + n0).collect()
            }
        }
    }

    /// Flat output offsets of every neuron that consumes the input-operand
    /// element at `input_offset`, in canonical computation order.
    pub fn neurons_using_input(&self, input_offset: usize) -> Vec<usize> {
        match self {
            MacSpec::Conv(c) => conv_neurons_using_input(c, input_offset),
            MacSpec::Dense(d) => {
                let b = input_offset / d.in_features;
                let base = b * d.out_features;
                (base..base + d.out_features).collect()
            }
            MacSpec::MatMul(mm) => {
                let per_batch = mm.m * mm.k;
                let g = input_offset / per_batch;
                let rem = input_offset % per_batch;
                let m0 = rem / mm.k;
                let base = g * mm.m * mm.n + m0 * mm.n;
                (base..base + mm.n).collect()
            }
        }
    }
}

/// Reusable scratch buffers for the [`MacSpec::forward_into_scratch`]
/// kernels: the second operand packed for the lane kernel (re-packed on
/// every call, since a raw-operand call cannot know whether its weights
/// changed, and a matmul's `B` is an activation), the conv tiles and tap
/// lists, and the row accumulator and per-`kw` column ranges of the
/// depthwise kernel.
///
/// Contents are transient — every kernel invocation fully re-derives what it
/// reads — so one scratch can be reused across layers and specs of any
/// shape. Reuse only saves the allocations.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// The second operand of the current raw-operand call or matmul,
    /// packed on every call. `Conv2d` and `Dense` layers own their panels
    /// and pack them only when their weights change.
    panel: LanePanel,
    /// One accumulator per output column (depthwise conv).
    acc: Vec<f32>,
    /// Per-`kw` valid `[lo, hi)` output-column ranges (depthwise).
    ranges: Vec<(usize, usize)>,
    /// The window's column tiles (conv lane kernel).
    tiles: Vec<Tile>,
    /// One tile's non-gated `(kernel step, input offset)` taps (conv lane
    /// kernel).
    taps: Vec<(usize, usize)>,
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
/// [`lanes_for`] lanes, a block holding the weights of one kernel step
/// contiguously, so the kernel loads one vector per step. Lanes past a
/// group's last output are zero and their accumulators are discarded,
/// never written out.
///
/// Conv groups with a single output channel (depthwise) are not packed;
/// their kernel reads the OIHW weights directly.
#[derive(Clone, Debug, Default)]
pub(crate) struct LanePanel {
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
    /// on both axes is the full forward.
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
    pub(crate) fn forward_window_packed(
        &self,
        operands: &Operands<'_>,
        panel: &LanePanel,
        out: &mut [f32],
        scratch: &mut KernelScratch,
        h: (usize, usize),
        w: (usize, usize),
    ) {
        assert_eq!(
            out.len(),
            self.batch * self.out_c * self.out_h() * self.out_w(),
            "output buffer size mismatch"
        );
        assert_eq!(
            panel.geometry,
            (
                self.out_c,
                self.groups,
                self.group_in_c() * self.kh * self.kw
            ),
            "conv panel packed for a different geometry"
        );
        let (oh_dim, ow_dim) = (self.out_h(), self.out_w());
        let h = (h.0.min(oh_dim), h.1.min(oh_dim));
        let w = (w.0.min(ow_dim), w.1.min(ow_dim));
        if h.0 >= h.1 || w.0 >= w.1 {
            return;
        }
        let (x, weight) = (operands.input.data(), operands.weight.data());
        if self.group_out_c() == 1 {
            conv_depthwise_window(self, x, weight, out, scratch, h, w);
        } else if lanes_for(self.group_out_c()) == 8 {
            conv_lanes::<8>(self, x, &panel.data, out, scratch, h, w);
        } else {
            conv_lanes::<16>(self, x, &panel.data, out, scratch, h, w);
        }
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
    c.forward_window_packed(operands, &panel, out, s, h, w);
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

/// The conv lane kernel (every group with more than one output channel).
/// The SIMD lanes are output channels: a block of `OCB` channels of one
/// group accumulates a tile of up to `TILE` output positions in a
/// `[[f32; OCB]; P]` register array, across every `(ic, kh, kw)` tap,
/// broadcasting one input per position and loading one packed weight
/// vector per tap. The positions of a tile share their valid tap range, so
/// padding taps are skipped for all of them (never added as `+0.0`), and
/// every neuron adds its terms in ascending kernel-step order into its own
/// lane: the bits of [`MacSpec::compute_at`].
fn conv_lanes<const OCB: usize>(
    c: &ConvSpec,
    x: &[f32],
    panel: &[f32],
    out: &mut [f32],
    s: &mut KernelScratch,
    h: (usize, usize),
    w: (usize, usize),
) {
    let (gic, goc) = (c.group_in_c(), c.group_out_c());
    let blocks = goc.div_ceil(OCB);
    let steps = gic * c.kh * c.kw;
    let plane = c.in_h * c.in_w;
    let out_plane = c.out_h() * c.out_w();
    let (panel, _) = panel.as_chunks::<OCB>();
    let KernelScratch { tiles, taps, .. } = s;
    conv_tiles(c, h, w, tiles);

    let mut taps_for = None;
    for t in tiles.iter() {
        // The tile's non-gated taps in ascending kernel-step order, as
        // (step, input offset from the position's first tap): rebuilt only
        // when the valid tap range changes.
        if taps_for != Some((t.kh, t.kw)) {
            taps_for = Some((t.kh, t.kw));
            taps.clear();
            for ic in 0..gic {
                for kh_i in t.kh.0..t.kh.1 {
                    let row = ic * plane + (kh_i - t.kh.0) * c.dilation.0 * c.in_w;
                    let step = (ic * c.kh + kh_i) * c.kw;
                    for kw_i in t.kw.0..t.kw.1 {
                        taps.push((step + kw_i, row + (kw_i - t.kw.0) * c.dilation.1));
                    }
                }
            }
        }
        for b in 0..c.batch {
            for group in 0..c.groups {
                let xg = &x[(b * c.in_c + group * gic) * plane..][..gic * plane];
                for block in 0..blocks {
                    let wts = &panel[(group * blocks + block) * steps..][..steps];
                    // Lane `l` of position `p` is output channel `oc0 + l`
                    // at `out_at[p]`; padded lanes are dropped.
                    let oc0 = group * goc + block * OCB;
                    let lanes = OCB.min(goc - block * OCB);
                    let dst = &mut out[(b * c.out_c + oc0) * out_plane..];
                    let mut store = |acc: &[[f32; OCB]]| {
                        for l in 0..lanes {
                            for (&at, a) in t.out_at.iter().zip(acc) {
                                dst[l * out_plane + at] = a[l];
                            }
                        }
                    };
                    let terms = taps.iter().copied();
                    let xs = |p: usize| &xg[t.x_at[p]..];
                    match t.n {
                        1 => store(&lane_tile::<1, OCB>(from_fn(xs), terms, wts)),
                        2 => store(&lane_tile::<2, OCB>(from_fn(xs), terms, wts)),
                        3 => store(&lane_tile::<3, OCB>(from_fn(xs), terms, wts)),
                        _ => store(&lane_tile::<TILE, OCB>(from_fn(xs), terms, wts)),
                    }
                }
            }
        }
    }
}

/// Up to `TILE` output positions sharing their valid kernel rows `kh` and
/// columns `kw`: one tile of the lane kernel.
#[derive(Debug)]
struct Tile {
    kh: (usize, usize),
    kw: (usize, usize),
    n: usize,
    /// Each position's offset within an output channel plane.
    out_at: [usize; TILE],
    /// Each position's first valid tap within an input channel plane.
    x_at: [usize; TILE],
}

/// Splits the output window `h × w` into tiles, grouped by valid tap range
/// so that each range's tap list is built once. Rows with equal valid
/// kernel rows are contiguous (both ends of the range only move one way
/// as the row grows), and so are columns; each (row run × column run)
/// block is tiled in row-major order.
fn conv_tiles(
    c: &ConvSpec,
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
    tiles: &mut Vec<Tile>,
) {
    let row_taps = |oh| taps_at(oh, c.stride.0, c.padding.0, c.dilation.0, c.kh, c.in_h);
    let col_taps = |ow| taps_at(ow, c.stride.1, c.padding.1, c.dilation.1, c.kw, c.in_w);
    tiles.clear();
    for (kh, r0, r1) in tap_runs(h0, h1, row_taps) {
        for (kw, q0, q1) in tap_runs(w0, w1, col_taps) {
            for oh in r0..r1 {
                for ow in q0..q1 {
                    // The position's first valid tap; unused (and never
                    // formed) when every tap is gated.
                    let x_at = if kh.0 < kh.1 && kw.0 < kw.1 {
                        (oh * c.stride.0 + kh.0 * c.dilation.0 - c.padding.0) * c.in_w
                            + ow * c.stride.1
                            + kw.0 * c.dilation.1
                            - c.padding.1
                    } else {
                        0
                    };
                    let out_at = oh * c.out_w() + ow;
                    match tiles.last_mut() {
                        Some(t) if t.kh == kh && t.kw == kw && t.n < TILE => {
                            t.out_at[t.n] = out_at;
                            t.x_at[t.n] = x_at;
                            t.n += 1;
                        }
                        _ => tiles.push(Tile {
                            kh,
                            kw,
                            n: 1,
                            out_at: [out_at; TILE],
                            x_at: [x_at; TILE],
                        }),
                    }
                }
            }
        }
    }
}

/// The maximal runs `(taps, start, end)` of consecutive coordinates in
/// `[lo, hi)` whose valid tap ranges `at(o)` are equal.
fn tap_runs(
    lo: usize,
    hi: usize,
    at: impl Fn(usize) -> (usize, usize),
) -> impl Iterator<Item = ((usize, usize), usize, usize)> {
    let mut o = lo;
    core::iter::from_fn(move || {
        if o >= hi {
            return None;
        }
        let (start, taps) = (o, at(o));
        o += 1;
        while o < hi && at(o) == taps {
            o += 1;
        }
        Some((taps, start, o))
    })
}

/// The register-blocked micro-kernel of every non-depthwise MAC layer: `P`
/// positions × `OCB` outputs over one block's packed weights `wts`.
/// Position `p` reads term `(step, off)` at `xs[p][off]`; the terms come in
/// ascending kernel-step order, gated ones left out, so each lane adds
/// exactly the terms of [`MacSpec::compute_at`] in its order.
#[inline(always)]
fn lane_tile<const P: usize, const OCB: usize>(
    xs: [&[f32]; P],
    terms: impl Iterator<Item = (usize, usize)>,
    wts: &[[f32; OCB]],
) -> [[f32; OCB]; P] {
    let mut acc = [[0.0f32; OCB]; P];
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
    acc
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

/// Dense and matmul through the lane kernel: for each of the panel's
/// groups, `rows` rows of `x` (each one kernel step per value) times the
/// group's packed outputs. Row `r` of group `g` reads `x[(g·rows + r)·k..]`
/// and writes `out[(g·rows + r)·n..][..n]`, for `k` steps and `n` outputs
/// per group. Rows go in tiles of [`TILE`], the last holding the 1–3 left
/// over.
fn rows_forward(x: &[f32], panel: &LanePanel, out: &mut [f32], groups: usize, rows: usize) {
    let (outs, panel_groups, k) = panel.geometry;
    assert_eq!(
        panel_groups, groups,
        "panel packed for a different geometry"
    );
    let n = outs / groups.max(1);
    assert_eq!(x.len(), groups * rows * k, "input size mismatch");
    assert_eq!(out.len(), groups * rows * n, "output buffer size mismatch");
    if lanes_for(n) == 8 {
        rows_lanes::<8>(x, &panel.data, out, (groups, rows, k, n));
    } else {
        rows_lanes::<16>(x, &panel.data, out, (groups, rows, k, n));
    }
}

/// [`rows_forward`] at `OCB` lanes.
fn rows_lanes<const OCB: usize>(
    x: &[f32],
    panel: &[f32],
    out: &mut [f32],
    (groups, rows, k, n): (usize, usize, usize, usize),
) {
    let blocks = n.div_ceil(OCB);
    let (panel, _) = panel.as_chunks::<OCB>();
    for group in 0..groups {
        for r0 in (group * rows..(group + 1) * rows).step_by(TILE) {
            let tile = TILE.min((group + 1) * rows - r0);
            for block in 0..blocks {
                let wts = &panel[(group * blocks + block) * k..][..k];
                // Lane `l` of row `p` is output `block·OCB + l` of row
                // `r0 + p`; padded lanes are dropped.
                let (o0, lanes) = (block * OCB, OCB.min(n - block * OCB));
                let mut store = |acc: &[[f32; OCB]]| {
                    for (p, a) in acc.iter().enumerate() {
                        out[(r0 + p) * n + o0..][..lanes].copy_from_slice(&a[..lanes]);
                    }
                };
                // Row terms: step `s` reads value `s` of the row.
                let terms = (0..k).map(|s| (s, s));
                let xs = |p: usize| &x[(r0 + p) * k..][..k];
                match tile {
                    1 => store(&lane_tile::<1, OCB>(from_fn(xs), terms, wts)),
                    2 => store(&lane_tile::<2, OCB>(from_fn(xs), terms, wts)),
                    3 => store(&lane_tile::<3, OCB>(from_fn(xs), terms, wts)),
                    _ => store(&lane_tile::<TILE, OCB>(from_fn(xs), terms, wts)),
                }
            }
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
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    s: &mut KernelScratch,
    (h0, h1): (usize, usize),
    (w0, w1): (usize, usize),
) {
    let (oh_dim, ow_dim) = (c.out_h(), c.out_w());
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
    use proptest::{prop_assert_eq, proptest};

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
