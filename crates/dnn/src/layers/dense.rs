//! Fully-connected and matrix-multiplication layers.

use crate::error::DnnError;
use crate::layers::{check_arity, Layer, LayerKind, ALL_COLUMNS};
use crate::macspec::{DenseSpec, LanePanel, MacSpec, MatMulSpec, Operands};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A fully-connected layer: `output[b][o] = Σ_i weight[o][i] · input[b][i]`.
///
/// The forward pass runs the lane kernel of [`crate::macspec`] over a
/// weight panel the layer packs once, in [`Dense::new`] and
/// [`Layer::quantize_weights`] (the only places its weights change), never
/// per forward. Its per-neuron accumulation order is bit-identical to
/// [`MacSpec::compute_at`].
///
/// # Examples
///
/// ```
/// use fidelity_dnn::layers::{Dense, Layer};
/// use fidelity_dnn::tensor::Tensor;
///
/// # fn main() -> Result<(), fidelity_dnn::error::DnnError> {
/// let w = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0])?;
/// let fc = Dense::new("fc", w)?;
/// let x = Tensor::from_vec(vec![1, 3], vec![7.0, 8.0, 9.0])?;
/// assert_eq!(fc.forward_alloc(&[&x])?.data(), &[7.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    weight: Tensor,
    /// `weight` packed for the lane kernel.
    panel: LanePanel,
}

impl Dense {
    /// Creates a fully-connected layer from a `[out_features, in_features]`
    /// weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a non-rank-2 or empty weight.
    pub fn new(name: impl Into<String>, weight: Tensor) -> Result<Self, DnnError> {
        if weight.rank() != 2 || weight.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "dense weight must be non-empty rank 2, got shape {:?}",
                    weight.shape()
                ),
            });
        }
        let mut dense = Dense {
            name: name.into(),
            weight,
            panel: LanePanel::default(),
        };
        dense.pack();
        Ok(dense)
    }

    /// Packs the weights for the lane kernel; called wherever they change.
    fn pack(&mut self) {
        let w = self.weight.shape();
        self.panel.pack_rows(self.weight.data(), w[0], 1, w[1]);
    }

    fn spec_for(&self, input_shape: &[usize]) -> Result<DenseSpec, DnnError> {
        if input_shape.len() != 2 {
            return Err(DnnError::ShapeMismatch {
                context: "Dense::forward",
                expected: "rank-2 [batch, features] input".into(),
                actual: format!("{input_shape:?}"),
            });
        }
        let w = self.weight.shape();
        if input_shape[1] != w[1] {
            return Err(DnnError::ShapeMismatch {
                context: "Dense::forward",
                expected: format!("{} input features", w[1]),
                actual: format!("{}", input_shape[1]),
            });
        }
        Ok(DenseSpec {
            batch: input_shape[0],
            in_features: w[1],
            out_features: w[0],
        })
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dense
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    fn mac_weight(&self) -> Option<(&Tensor, &LanePanel)> {
        Some((&self.weight, &self.panel))
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let d = self.spec_for(inputs[0].shape())?;
        let dims = [d.batch, d.out_features];
        let mut out = ws.zeros(&dims);
        d.forward_packed(inputs[0].data(), &self.panel, out.data_mut());
        Ok(out)
    }

    fn mac_spec(&self, input_shapes: &[&[usize]]) -> Option<MacSpec> {
        input_shapes
            .first()
            .and_then(|s| self.spec_for(s).ok())
            .map(MacSpec::Dense)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.weight.data_mut());
        self.pack();
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        // Every output of a row reads the whole row and nothing else.
        let _ = w;
        self.spec_for(input_shapes.first()?).ok()?;
        Some((h, ALL_COLUMNS))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        (h0, h1): (usize, usize),
        w: (usize, usize),
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = (w, ws);
        check_arity(&self.name, 1, inputs.len())?;
        let d = self.spec_for(inputs[0].shape())?;
        if out.shape() != [d.batch, d.out_features] {
            return Ok(false);
        }
        // The band's rows as a batch of their own: a row's outputs do not
        // depend on which rows share its tile, so they keep their bits.
        let (h0, h1) = (h0.min(d.batch), h1.min(d.batch));
        if h0 >= h1 {
            return Ok(true);
        }
        let (k, n) = (d.in_features, d.out_features);
        let band = DenseSpec {
            batch: h1 - h0,
            ..d
        };
        let x = &inputs[0].data()[h0 * k..h1 * k];
        band.forward_packed(x, &self.panel, &mut out.data_mut()[h0 * n..h1 * n]);
        Ok(true)
    }
}

/// A two-input matrix multiplication `A·B` (or `A·Bᵀ`), the attention
/// primitive of Transformer workloads.
///
/// Accepts rank-2 operands, or rank-3 operands with equal leading batch
/// dimensions.
#[derive(Debug, Clone)]
pub struct MatMul {
    name: String,
    transpose_b: bool,
}

impl MatMul {
    /// Creates `A·B`.
    pub fn new(name: impl Into<String>) -> Self {
        MatMul {
            name: name.into(),
            transpose_b: false,
        }
    }

    /// Creates `A·Bᵀ` (scores = `Q·Kᵀ` in attention).
    pub fn transposed(name: impl Into<String>) -> Self {
        MatMul {
            name: name.into(),
            transpose_b: true,
        }
    }

    fn spec_for(&self, a: &[usize], b: &[usize]) -> Result<MatMulSpec, DnnError> {
        let mismatch = |actual: String| DnnError::ShapeMismatch {
            context: "MatMul::forward",
            expected: "compatible matmul operands".into(),
            actual,
        };
        let (batch, m, ka) = match a.len() {
            2 => (1, a[0], a[1]),
            3 => (a[0], a[1], a[2]),
            _ => return Err(mismatch(format!("A rank {}", a.len()))),
        };
        let (bb, d0, d1) = match b.len() {
            2 => (1, b[0], b[1]),
            3 => (b[0], b[1], b[2]),
            _ => return Err(mismatch(format!("B rank {}", b.len()))),
        };
        if bb != batch {
            return Err(mismatch(format!("batch {batch} vs {bb}")));
        }
        let (kb, n) = if self.transpose_b { (d1, d0) } else { (d0, d1) };
        if ka != kb {
            return Err(mismatch(format!("contraction {ka} vs {kb}")));
        }
        Ok(MatMulSpec {
            batch,
            m,
            k: ka,
            n,
            transpose_b: self.transpose_b,
        })
    }
}

impl Layer for MatMul {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::MatMul
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 2, inputs.len())?;
        let m = self.spec_for(inputs[0].shape(), inputs[1].shape())?;
        let dims3 = [m.batch, m.m, m.n];
        let dims: &[usize] = if m.batch == 1 {
            &dims3[1..]
        } else {
            &dims3[..]
        };
        let spec = MacSpec::MatMul(m);
        let ops = Operands {
            input: inputs[0],
            weight: inputs[1],
        };
        let mut out = ws.zeros(dims);
        spec.forward_into_scratch(&ops, out.data_mut(), ws.kernel_scratch());
        Ok(out)
    }

    fn mac_spec(&self, input_shapes: &[&[usize]]) -> Option<MacSpec> {
        if input_shapes.len() != 2 {
            return None;
        }
        self.spec_for(input_shapes[0], input_shapes[1])
            .ok()
            .map(MacSpec::MatMul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform_tensor;
    use crate::precision::Precision;

    /// Runs `forward` of `fc` on `input` and checks every neuron against
    /// `compute_at` over the layer's current weights, bit for bit. Returns
    /// the output.
    fn assert_matches_compute_at(fc: &Dense, input: &Tensor) -> Tensor {
        let out = fc.forward_alloc(&[input]).unwrap();
        let spec = fc.mac_spec(&[input.shape()]).unwrap();
        let ops = Operands {
            input,
            weight: fc.weights()[0],
        };
        for (off, v) in out.data().iter().enumerate() {
            let want = spec.compute_at(&ops, off, None);
            assert_eq!(v.to_bits(), want.to_bits(), "neuron {off}");
        }
        out
    }

    #[test]
    fn quantize_weights_repacks_the_panel() {
        // 7 rows: one full 4-row tile and a leftover of 3; 24 outputs: a
        // full and a padded 16-lane block.
        let mut fc = Dense::new("q", uniform_tensor(3, vec![24, 11], 1.0)).unwrap();
        let input = uniform_tensor(4, vec![7, 11], 1.0);
        let before = assert_matches_compute_at(&fc, &input);
        fc.quantize_weights(&ValueCodec::new(Precision::Fp16, 1.0));
        let fp16 = assert_matches_compute_at(&fc, &input);
        assert_ne!(before.data(), fp16.data(), "FP16 must move the output");
        fc.quantize_weights(&ValueCodec::new(Precision::Int8, 0.25));
        let int8 = assert_matches_compute_at(&fc, &input);
        assert_ne!(fp16.data(), int8.data(), "INT8 must move the output");
    }

    #[test]
    fn dense_matches_manual() {
        let w = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let fc = Dense::new("fc", w).unwrap();
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, 1.0, 2.0, 0.0]).unwrap();
        let y = fc.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[3.0, 7.0, 2.0, 6.0]);
    }

    #[test]
    fn dense_rejects_feature_mismatch() {
        let fc = Dense::new("fc", Tensor::zeros(vec![2, 3])).unwrap();
        assert!(fc.forward_alloc(&[&Tensor::zeros(vec![1, 4])]).is_err());
    }

    #[test]
    fn matmul_2d() {
        let mm = MatMul::new("mm");
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let y = mm.forward_alloc(&[&a, &b]).unwrap();
        assert_eq!(y.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched() {
        let mm = MatMul::new("mm");
        let a = Tensor::from_vec(vec![2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2, 1], vec![1.0, 1.0, 2.0, 2.0]).unwrap();
        let y = mm.forward_alloc(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &[2, 1, 1]);
        assert_eq!(y.data(), &[3.0, 14.0]);
    }

    #[test]
    fn matmul_transposed_matches_plain() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let bt = Tensor::from_vec(vec![2, 2], vec![5.0, 7.0, 6.0, 8.0]).unwrap();
        let plain = MatMul::new("p").forward_alloc(&[&a, &b]).unwrap();
        let trans = MatMul::transposed("t").forward_alloc(&[&a, &bt]).unwrap();
        assert_eq!(plain.data(), trans.data());
    }

    #[test]
    fn matmul_handles_empty_dimensions() {
        // (batch, m, k, n), each with one dimension 0; k = 0 sums no term.
        for (batch, m, k, n) in [(0, 2, 3, 4), (2, 0, 3, 4), (2, 3, 0, 4), (2, 3, 4, 0)] {
            for mm in [MatMul::new("p"), MatMul::transposed("t")] {
                let b = if mm.transpose_b {
                    [batch, n, k]
                } else {
                    [batch, k, n]
                };
                let a = Tensor::full(vec![batch, m, k], 1.0);
                let y = mm
                    .forward_alloc(&[&a, &Tensor::full(b.to_vec(), 1.0)])
                    .unwrap();
                assert_eq!(y.shape(), &[batch, m, n]);
                assert!(y.data().iter().all(|v| v.to_bits() == 0), "{:?}", y.data());
            }
        }
    }

    #[test]
    fn matmul_rejects_contraction_mismatch() {
        let mm = MatMul::new("mm");
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        assert!(mm.forward_alloc(&[&a, &b]).is_err());
    }
}
