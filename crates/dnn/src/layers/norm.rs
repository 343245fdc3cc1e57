//! Normalization layers.

use crate::error::DnnError;
use crate::layers::{
    check_arity, check_out, for_each_region_row, forward_whole, per_channel_region, plane_dims,
    Layer, LayerKind, ALL_COLUMNS,
};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::{Region, Workspace};

/// Per-channel affine transform `y = gamma·x + beta`, i.e. an inference-time
/// (folded) batch normalization.
#[derive(Debug, Clone)]
pub struct ScaleShift {
    name: String,
    gamma: Tensor,
    beta: Tensor,
}

impl ScaleShift {
    /// Creates a folded batch-norm from per-channel `gamma` and `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless both are rank 1 and equal
    /// length.
    pub fn new(name: impl Into<String>, gamma: Tensor, beta: Tensor) -> Result<Self, DnnError> {
        if gamma.rank() != 1 || beta.rank() != 1 || gamma.len() != beta.len() || gamma.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "scale/shift must be equal-length rank-1, got {:?} and {:?}",
                    gamma.shape(),
                    beta.shape()
                ),
            });
        }
        Ok(ScaleShift {
            name: name.into(),
            gamma,
            beta,
        })
    }
}

impl Layer for ScaleShift {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        forward_whole(self, inputs, inputs[0].shape(), ws)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.gamma.data_mut());
        codec.quantize_slice(self.beta.data_mut());
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        (input_shapes.first()?.len() == 4).then_some((h, w))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let (gamma, beta) = (self.gamma.data(), self.beta.data());
        let params = (gamma.len(), &[2][..]);
        per_channel_region("ScaleShift::forward", params, x, region, out, |s, i| {
            gamma[i] * s + beta[i]
        })
    }
}

/// Layer normalization over the last dimension (Transformer blocks).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm with learned per-feature `gamma`/`beta`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] unless both are rank 1 and equal
    /// length.
    pub fn new(name: impl Into<String>, gamma: Tensor, beta: Tensor) -> Result<Self, DnnError> {
        if gamma.rank() != 1 || beta.rank() != 1 || gamma.len() != beta.len() || gamma.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "layernorm params must be equal-length rank-1, got {:?} and {:?}",
                    gamma.shape(),
                    beta.shape()
                ),
            });
        }
        Ok(LayerNorm {
            name: name.into(),
            gamma,
            beta,
            eps: 1e-5,
        })
    }

    /// Normalizes one row of `gamma.len()` features in place.
    fn normalize_row(&self, row: &mut [f32]) {
        let last = row.len();
        let mean: f32 = row.iter().sum::<f32>() / last as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let denom = (var + self.eps).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = self.gamma.data()[i] * ((*v - mean) / denom) + self.beta.data()[i];
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Norm
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        forward_whole(self, inputs, inputs[0].shape(), ws)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.gamma.data_mut());
        codec.quantize_slice(self.beta.data_mut());
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        // Each row is normalized on its own, so a dirty element dirties
        // exactly its row.
        let _ = w;
        let [_, _, _, cols] = plane_dims(input_shapes.first()?)?;
        (cols == self.gamma.len()).then_some((h, ALL_COLUMNS))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 1, inputs.len())?;
        let x = inputs[0];
        let cols = *x.shape().last().unwrap_or(&0);
        if cols != self.gamma.len() {
            return Err(DnnError::ShapeMismatch {
                context: "LayerNorm::forward",
                expected: format!("last dim {}", self.gamma.len()),
                actual: format!("{cols}"),
            });
        }
        check_out("LayerNorm::forward_region", out, x.shape())?;
        let src = x.data();
        let dst = out.data_mut();
        let rows = region.full_rows();
        Ok(for_each_region_row(x.shape(), rows, |a, b| {
            dst[a..b].copy_from_slice(&src[a..b]);
            for row in dst[a..b].chunks_exact_mut(cols) {
                self.normalize_row(row);
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shift_4d() {
        let ss = ScaleShift::new(
            "bn",
            Tensor::from_slice(&[2.0, 0.5]),
            Tensor::from_slice(&[1.0, 0.0]),
        )
        .unwrap();
        let x = Tensor::full(vec![1, 2, 1, 1], 4.0);
        let y = ss.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.at4(0, 0, 0, 0), 9.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
    }

    #[test]
    fn scale_shift_validates() {
        assert!(ScaleShift::new(
            "bn",
            Tensor::from_slice(&[1.0]),
            Tensor::from_slice(&[1.0, 2.0])
        )
        .is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let d = 8;
        let ln = LayerNorm::new("ln", Tensor::full(vec![d], 1.0), Tensor::zeros(vec![d])).unwrap();
        let x = Tensor::from_vec(vec![1, d], (0..d).map(|v| v as f32).collect()).unwrap();
        let y = ln.forward_alloc(&[&x]).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / d as f32;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / d as f32;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_wrong_width() {
        let ln = LayerNorm::new(
            "ln",
            Tensor::from_slice(&[1.0, 1.0]),
            Tensor::from_slice(&[0.0, 0.0]),
        )
        .unwrap();
        assert!(ln.forward_alloc(&[&Tensor::zeros(vec![1, 3])]).is_err());
    }
}
