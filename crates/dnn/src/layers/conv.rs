//! 2-D convolution.

use crate::error::DnnError;
use crate::layers::{check_arity, check_out, forward_whole, Layer, LayerKind};
use crate::macspec::{conv_out_window, ConvSpec, LanePanel, MacSpec, Operands};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::{Region, Workspace};

/// A 2-D convolution over NCHW input with OIHW weights.
///
/// The forward pass runs the conv lane kernel of [`crate::macspec`] over a
/// weight panel the layer packs once, in [`Conv2d::new`],
/// [`Conv2d::with_groups`] and [`Layer::quantize_weights`] (the only places
/// its weights or their grouping change), never per forward. Its per-neuron
/// accumulation order is bit-identical to [`MacSpec::compute_at`], so the
/// fault-injection engine's per-neuron recomputation never diverges from
/// normal inference.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::layers::{Conv2d, Layer};
/// use fidelity_dnn::tensor::Tensor;
///
/// # fn main() -> Result<(), fidelity_dnn::error::DnnError> {
/// let weight = Tensor::full(vec![1, 1, 3, 3], 1.0 / 9.0);
/// let conv = Conv2d::new("blur", weight)?.with_padding(1, 1);
/// let input = Tensor::full(vec![1, 1, 8, 8], 1.0);
/// let out = conv.forward_alloc(&[&input])?;
/// assert_eq!(out.shape(), &[1, 1, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    weight: Tensor,
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
    groups: usize,
    /// `weight` packed for the conv lane kernel, for `groups`.
    panel: LanePanel,
}

impl Conv2d {
    /// Creates a stride-1, unpadded, undilated, ungrouped convolution.
    ///
    /// `weight` must be rank 4 (`[out_c, in_c/groups, kh, kw]`).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a non-rank-4 or empty weight.
    pub fn new(name: impl Into<String>, weight: Tensor) -> Result<Self, DnnError> {
        if weight.rank() != 4 || weight.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "conv weight must be non-empty rank 4, got shape {:?}",
                    weight.shape()
                ),
            });
        }
        let mut conv = Conv2d {
            name: name.into(),
            weight,
            stride: (1, 1),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 1,
            panel: LanePanel::default(),
        };
        conv.pack();
        Ok(conv)
    }

    /// Sets the stride.
    pub fn with_stride(mut self, sh: usize, sw: usize) -> Self {
        assert!(sh > 0 && sw > 0, "stride must be positive");
        self.stride = (sh, sw);
        self
    }

    /// Sets zero padding.
    pub fn with_padding(mut self, ph: usize, pw: usize) -> Self {
        self.padding = (ph, pw);
        self
    }

    /// Sets dilation.
    pub fn with_dilation(mut self, dh: usize, dw: usize) -> Self {
        assert!(dh > 0 && dw > 0, "dilation must be positive");
        self.dilation = (dh, dw);
        self
    }

    /// Sets channel groups (`in_c` for depthwise convolution).
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        self.groups = groups;
        self.pack();
        self
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Packs the weights for the conv lane kernel; called wherever the
    /// weights or their grouping change.
    fn pack(&mut self) {
        self.panel
            .pack_conv(self.weight.data(), self.out_channels(), self.groups);
    }

    fn spec_for(&self, input_shape: &[usize]) -> Result<ConvSpec, DnnError> {
        if input_shape.len() != 4 {
            return Err(DnnError::ShapeMismatch {
                context: "Conv2d::forward",
                expected: "rank-4 NCHW input".into(),
                actual: format!("{input_shape:?}"),
            });
        }
        let w = self.weight.shape();
        let expected_in_c = w[1] * self.groups;
        if input_shape[1] != expected_in_c {
            return Err(DnnError::ShapeMismatch {
                context: "Conv2d::forward",
                expected: format!("{expected_in_c} input channels"),
                actual: format!("{} input channels", input_shape[1]),
            });
        }
        if !w[0].is_multiple_of(self.groups) {
            return Err(DnnError::InvalidConfig {
                message: format!("out_c {} not divisible by groups {}", w[0], self.groups),
            });
        }
        Ok(ConvSpec {
            batch: input_shape[0],
            in_c: input_shape[1],
            in_h: input_shape[2],
            in_w: input_shape[3],
            out_c: w[0],
            kh: w[2],
            kw: w[3],
            stride: self.stride,
            padding: self.padding,
            dilation: self.dilation,
            groups: self.groups,
        })
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    fn mac_weight(&self) -> Option<(&Tensor, &LanePanel)> {
        Some((&self.weight, &self.panel))
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let c = self.spec_for(inputs[0].shape())?;
        forward_whole(self, inputs, &[c.batch, c.out_c, c.out_h(), c.out_w()], ws)
    }

    fn mac_spec(&self, input_shapes: &[&[usize]]) -> Option<MacSpec> {
        input_shapes
            .first()
            .and_then(|s| self.spec_for(s).ok())
            .map(MacSpec::Conv)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        let c = self.spec_for(input_shapes.first()?).ok()?;
        Some((
            conv_out_window(h, c.kh, c.stride.0, c.padding.0, c.dilation.0, c.out_h()),
            conv_out_window(w, c.kw, c.stride.1, c.padding.1, c.dilation.1, c.out_w()),
        ))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let c = self.spec_for(inputs[0].shape())?;
        let dims = [c.batch, c.out_c, c.out_h(), c.out_w()];
        check_out("Conv2d::forward_region", out, &dims)?;
        let (h, w) = region.extent();
        let ops = Operands {
            input: inputs[0],
            weight: &self.weight,
        };
        c.forward_window_packed(&ops, &self.panel, out.data_mut(), ws.kernel_scratch(), h, w);
        Ok(true)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.weight.data_mut());
        self.pack();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform_tensor;
    use crate::precision::Precision;

    /// Runs `forward` and a one-row `forward_region` of `conv` on `input`
    /// and checks every neuron they write against `compute_at` over the
    /// layer's current weights, bit for bit. Returns the forward's output.
    fn assert_matches_compute_at(conv: &Conv2d, input: &Tensor) -> Tensor {
        let out = conv.forward_alloc(&[input]).unwrap();
        let spec = conv.mac_spec(&[input.shape()]).unwrap();
        let ops = Operands {
            input,
            weight: conv.weights()[0],
        };
        for (off, v) in out.data().iter().enumerate() {
            let want = spec.compute_at(&ops, off, None);
            assert_eq!(v.to_bits(), want.to_bits(), "forward, neuron {off}");
        }
        let mut region = Tensor::zeros(out.shape().to_vec());
        let (oh, ow) = (out.shape()[2], out.shape()[3]);
        let mut ws = Workspace::default();
        let row = (1, 2);
        let window = Region::Window { h: row, w: (0, ow) };
        assert!(conv
            .forward_region(&[input], window, &mut region, &mut ws)
            .unwrap());
        for (off, v) in region.data().iter().enumerate() {
            if (off / ow) % oh == row.0 {
                let want = spec.compute_at(&ops, off, None);
                assert_eq!(v.to_bits(), want.to_bits(), "region, neuron {off}");
            }
        }
        out
    }

    #[test]
    fn quantize_weights_repacks_the_panel() {
        let w = uniform_tensor(3, vec![12, 3, 3, 3], 1.0);
        let mut conv = Conv2d::new("q", w).unwrap().with_padding(1, 1);
        let input = uniform_tensor(4, vec![1, 3, 6, 6], 1.0);
        let before = assert_matches_compute_at(&conv, &input);
        conv.quantize_weights(&ValueCodec::new(Precision::Int8, 0.25));
        let after = assert_matches_compute_at(&conv, &input);
        assert_ne!(
            before.data(),
            after.data(),
            "quantizing must move the output"
        );
    }

    #[test]
    fn with_groups_after_new_repacks_the_panel() {
        let w = uniform_tensor(5, vec![12, 2, 3, 3], 1.0);
        let conv = Conv2d::new("g", w).unwrap().with_padding(1, 1);
        assert_matches_compute_at(&conv, &uniform_tensor(6, vec![1, 2, 5, 5], 1.0));
        let grouped = conv.clone().with_groups(3);
        assert_matches_compute_at(&grouped, &uniform_tensor(7, vec![1, 6, 5, 5], 1.0));
        let depthwise = conv.with_groups(12);
        assert_matches_compute_at(&depthwise, &uniform_tensor(8, vec![1, 24, 5, 5], 1.0));
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut w = Tensor::zeros(vec![1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0);
        let conv = Conv2d::new("id", w).unwrap().with_padding(1, 1);
        let input = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = conv.forward_alloc(&[&input]).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn stride_downsamples() {
        let w = Tensor::full(vec![1, 1, 2, 2], 0.25);
        let conv = Conv2d::new("avg", w).unwrap().with_stride(2, 2);
        let input = Tensor::full(vec![1, 1, 4, 4], 4.0);
        let out = conv.forward_alloc(&[&input]).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert!(out.data().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let conv = Conv2d::new("c", Tensor::zeros(vec![2, 3, 1, 1])).unwrap();
        let input = Tensor::zeros(vec![1, 4, 2, 2]);
        assert!(conv.forward_alloc(&[&input]).is_err());
    }

    #[test]
    fn rejects_bad_weight_rank() {
        assert!(Conv2d::new("c", Tensor::zeros(vec![2, 3, 1])).is_err());
    }

    #[test]
    fn depthwise_forward() {
        // 2 channels, each with its own 1x1 kernel scaling by channel index+1.
        let w = Tensor::from_vec(vec![2, 1, 1, 1], vec![1.0, 2.0]).unwrap();
        let conv = Conv2d::new("dw", w).unwrap().with_groups(2);
        let input = Tensor::full(vec![1, 2, 2, 2], 3.0);
        let out = conv.forward_alloc(&[&input]).unwrap();
        assert_eq!(out.at4(0, 0, 0, 0), 3.0);
        assert_eq!(out.at4(0, 1, 1, 1), 6.0);
    }

    #[test]
    fn quantize_weights_moves_onto_grid() {
        let w = Tensor::from_vec(vec![1, 1, 1, 1], vec![0.3]).unwrap();
        let mut conv = Conv2d::new("q", w).unwrap();
        conv.quantize_weights(&ValueCodec::new(Precision::Int8, 0.25));
        assert_eq!(conv.weights()[0].data()[0], 0.25);
    }
}
