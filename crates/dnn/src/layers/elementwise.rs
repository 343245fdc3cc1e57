//! Element-wise arithmetic, bias addition, and concatenation.

use crate::error::DnnError;
use crate::layers::{
    check_arity, check_out, for_each_region_row, forward_whole, per_channel_region, plane_dims,
    Layer, LayerKind, ALL_COLUMNS,
};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::{Region, Workspace};

/// Bias addition.
///
/// For rank-4 inputs the bias is per channel (`[c]`); for rank 2/3 it is per
/// last-dimension feature.
///
/// # Examples
///
/// ```
/// use fidelity_dnn::layers::{BiasAdd, Layer};
/// use fidelity_dnn::tensor::Tensor;
///
/// # fn main() -> Result<(), fidelity_dnn::error::DnnError> {
/// let bias = BiasAdd::new("b", Tensor::from_slice(&[1.0, -1.0]))?;
/// let x = Tensor::from_vec(vec![1, 2], vec![10.0, 10.0])?;
/// assert_eq!(bias.forward_alloc(&[&x])?.data(), &[11.0, 9.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BiasAdd {
    name: String,
    bias: Tensor,
}

impl BiasAdd {
    /// Creates a bias layer from a rank-1 bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a non-rank-1 or empty bias.
    pub fn new(name: impl Into<String>, bias: Tensor) -> Result<Self, DnnError> {
        if bias.rank() != 1 || bias.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!("bias must be non-empty rank 1, got {:?}", bias.shape()),
            });
        }
        Ok(BiasAdd {
            name: name.into(),
            bias,
        })
    }
}

impl Layer for BiasAdd {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Bias
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.bias]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        forward_whole(self, inputs, inputs[0].shape(), ws)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.bias.data_mut());
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
        let bias = self.bias.data();
        let params = (bias.len(), &[2, 3][..]);
        per_channel_region("BiasAdd::forward", params, x, region, out, |s, i| {
            s + bias[i]
        })
    }
}

/// Element-wise addition of two equal-shaped tensors (residual connections).
#[derive(Debug, Clone)]
pub struct Add {
    name: String,
}

impl Add {
    /// Creates an addition layer.
    pub fn new(name: impl Into<String>) -> Self {
        Add { name: name.into() }
    }
}

impl Layer for Add {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 2, inputs.len())?;
        forward_whole(self, inputs, inputs[0].shape(), ws)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        plane_dims(input_shapes.first()?).map(|_| (h, w))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 2, inputs.len())?;
        binary_region(inputs, region, out, "Add::forward", |a, b| a + b)
    }
}

/// Element-wise multiplication of two equal-shaped tensors (LSTM gating).
#[derive(Debug, Clone)]
pub struct Mul {
    name: String,
}

impl Mul {
    /// Creates a multiplication layer.
    pub fn new(name: impl Into<String>) -> Self {
        Mul { name: name.into() }
    }
}

impl Layer for Mul {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 2, inputs.len())?;
        forward_whole(self, inputs, inputs[0].shape(), ws)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        plane_dims(input_shapes.first()?).map(|_| (h, w))
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        check_arity(&self.name, 2, inputs.len())?;
        binary_region(inputs, region, out, "Mul::forward", |a, b| a * b)
    }
}

/// The window kernel of the binary element-wise layers: `f(a, b)` over
/// `region` of two equal-shaped operands.
fn binary_region(
    inputs: &[&Tensor],
    region: Region,
    out: &mut Tensor,
    context: &'static str,
    f: impl Fn(f32, f32) -> f32,
) -> Result<bool, DnnError> {
    let (a, b) = (inputs[0], inputs[1]);
    if a.shape() != b.shape() {
        return Err(DnnError::ShapeMismatch {
            context,
            expected: format!("{:?}", a.shape()),
            actual: format!("{:?}", b.shape()),
        });
    }
    check_out(context, out, a.shape())?;
    let (ad, bd) = (a.data(), b.data());
    let dst = out.data_mut();
    Ok(for_each_region_row(a.shape(), region, |lo, hi| {
        for i in lo..hi {
            dst[i] = f(ad[i], bd[i]);
        }
    }))
}

/// Multiplication by a compile-time constant (attention `1/√d` scaling).
#[derive(Debug, Clone)]
pub struct Scale {
    name: String,
    factor: f32,
}

impl Scale {
    /// Creates a constant-scale layer.
    pub fn new(name: impl Into<String>, factor: f32) -> Self {
        Scale {
            name: name.into(),
            factor,
        }
    }
}

impl Layer for Scale {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        forward_whole(self, inputs, inputs[0].shape(), ws)
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        plane_dims(input_shapes.first()?).map(|_| (h, w))
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
        check_out("Scale::forward_region", out, x.shape())?;
        let src = x.data();
        let dst = out.data_mut();
        Ok(for_each_region_row(x.shape(), region, |a, b| {
            for (d, s) in dst[a..b].iter_mut().zip(&src[a..b]) {
                *d = s * self.factor;
            }
        }))
    }
}

/// Concatenation along axis 1: the channels of NCHW tensors (inception
/// modules) or the features of `[tokens, features]` rows (attention heads).
#[derive(Debug, Clone)]
pub struct Concat {
    name: String,
    axis: usize,
}

impl Concat {
    /// Creates a concatenation layer along `axis`. Only axis 1 runs: its
    /// forward rejects every other axis by name.
    pub fn new(name: impl Into<String>, axis: usize) -> Self {
        Concat {
            name: name.into(),
            axis,
        }
    }

    /// The output shape, in the first `rank` entries of the array: the one
    /// shape check of the forward and the window kernel. Rank-2 and rank-4
    /// inputs joined on axis 1 pass; every other axis and rank is rejected
    /// by name.
    fn out_dims(&self, inputs: &[&Tensor]) -> Result<([usize; 4], usize), DnnError> {
        let Some(first) = inputs.first() else {
            return Err(DnnError::ArityMismatch {
                layer: self.name.clone(),
                expected: 1,
                actual: 0,
            });
        };
        let rank = first.rank();
        if self.axis != 1 || !matches!(rank, 2 | 4) {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "concat joins axis 1 of rank-2 or rank-4 inputs, got axis {} of rank {rank}",
                    self.axis
                ),
            });
        }
        let mut dims = [0; 4];
        dims[..rank].copy_from_slice(first.shape());
        for t in &inputs[1..] {
            if t.rank() != rank {
                return Err(DnnError::ShapeMismatch {
                    context: "Concat::forward",
                    expected: format!("rank {rank}"),
                    actual: format!("rank {}", t.rank()),
                });
            }
            for (d, (&a, &b)) in dims.iter().zip(t.shape()).enumerate() {
                if d != 1 && a != b {
                    return Err(DnnError::ShapeMismatch {
                        context: "Concat::forward",
                        expected: format!("dim {d} = {a}"),
                        actual: format!("{b}"),
                    });
                }
            }
            dims[1] += t.shape()[1];
        }
        Ok((dims, rank))
    }
}

impl Layer for Concat {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Elementwise
    }

    fn arity(&self) -> Option<usize> {
        None // variadic
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        let (dims, rank) = self.out_dims(inputs)?;
        forward_whole(self, inputs, &dims[..rank], ws)
    }

    fn values_preserved(&self) -> bool {
        true // pure data movement
    }

    fn region_map(
        &self,
        input_shapes: &[&[usize]],
        h: (usize, usize),
        w: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        // Channel concat of NCHW tensors preserves spatial coordinates, so
        // the output window is the input window; feature concat of token
        // rows keeps each row a row, across every input's features.
        match (self.axis, input_shapes.first()?.len()) {
            (1, 4) => Some((h, w)),
            (1, 2) => Some((h, ALL_COLUMNS)),
            _ => None,
        }
    }

    fn forward_region(
        &self,
        inputs: &[&Tensor],
        region: Region,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) -> Result<bool, DnnError> {
        let _ = ws;
        let (dims, rank) = self.out_dims(inputs)?;
        check_out("Concat::forward_region", out, &dims[..rank])?;
        let (h, w) = region.extent();
        if let [rows, total] = *out.shape() {
            concat_feature_rows(
                inputs,
                (h.0.min(rows), h.1.min(rows)),
                total,
                out.data_mut(),
            );
            return Ok(true);
        }
        let [bb, total_c, hh, ww] = *out.shape() else {
            unreachable!("out_shape admits rank 2 or 4");
        };
        let (h0, h1) = (h.0.min(hh), h.1.min(hh));
        let (w0, w1) = (w.0.min(ww), w.1.min(ww));
        if h0 >= h1 || w0 >= w1 {
            return Ok(true); // empty window: nothing to move
        }
        // A full-width window is one contiguous band per channel plane.
        let (rows, span) = if w1 - w0 == ww {
            (h0..h0 + 1, (h1 - h0) * ww)
        } else {
            (h0..h1, w1 - w0)
        };
        let od = out.data_mut();
        let mut c_off = 0usize;
        for t in inputs {
            let tc = t.shape()[1];
            let td = t.data();
            for n in 0..bb {
                for ch in 0..tc {
                    let src_plane = (n * tc + ch) * hh * ww;
                    let dst_plane = (n * total_c + c_off + ch) * hh * ww;
                    for r in rows.clone() {
                        let s = src_plane + r * ww + w0;
                        let d = dst_plane + r * ww + w0;
                        od[d..d + span].copy_from_slice(&td[s..s + span]);
                    }
                }
            }
            c_off += tc;
        }
        Ok(true)
    }
}

/// Feature concat of rank-2 `[tokens, features]` inputs: rows `h0..h1` of
/// each input, copied side by side into the same rows of `out`, `total`
/// features wide.
fn concat_feature_rows(
    inputs: &[&Tensor],
    (h0, h1): (usize, usize),
    total: usize,
    out: &mut [f32],
) {
    for r in h0..h1 {
        let mut dst = &mut out[r * total..(r + 1) * total];
        for t in inputs {
            let f = t.shape()[1];
            let (head, rest) = dst.split_at_mut(f);
            head.copy_from_slice(&t.data()[r * f..(r + 1) * f]);
            dst = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_add_4d_per_channel() {
        let bias = BiasAdd::new("b", Tensor::from_slice(&[1.0, 2.0])).unwrap();
        let x = Tensor::zeros(vec![1, 2, 2, 2]);
        let y = bias.forward_alloc(&[&x]).unwrap();
        assert_eq!(y.at4(0, 0, 1, 1), 1.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
    }

    #[test]
    fn bias_add_rejects_mismatch() {
        let bias = BiasAdd::new("b", Tensor::from_slice(&[1.0, 2.0])).unwrap();
        assert!(bias
            .forward_alloc(&[&Tensor::zeros(vec![1, 3, 2, 2])])
            .is_err());
        assert!(bias.forward_alloc(&[&Tensor::zeros(vec![1, 3])]).is_err());
    }

    #[test]
    fn add_and_mul() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(
            Add::new("a").forward_alloc(&[&a, &b]).unwrap().data(),
            &[4.0, 6.0]
        );
        assert_eq!(
            Mul::new("m").forward_alloc(&[&a, &b]).unwrap().data(),
            &[3.0, 8.0]
        );
        let c = Tensor::from_slice(&[1.0]);
        assert!(Add::new("a").forward_alloc(&[&a, &c]).is_err());
    }

    #[test]
    fn concat_channels() {
        let a = Tensor::full(vec![1, 1, 2, 2], 1.0);
        let b = Tensor::full(vec![1, 2, 2, 2], 2.0);
        let y = Concat::new("c", 1).forward_alloc(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &[1, 3, 2, 2]);
        assert_eq!(y.at4(0, 0, 0, 0), 1.0);
        assert_eq!(y.at4(0, 1, 0, 0), 2.0);
        assert_eq!(y.at4(0, 2, 1, 1), 2.0);
    }

    #[test]
    fn concat_last_axis() {
        let a = Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = Concat::new("c", 1).forward_alloc(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_validates() {
        let a = Tensor::zeros(vec![1, 2]);
        let b = Tensor::zeros(vec![2, 2]);
        assert!(Concat::new("c", 1).forward_alloc(&[&a, &b]).is_err());
        assert!(Concat::new("c", 5).forward_alloc(&[&a]).is_err());
        assert!(Concat::new("c", 0).forward_alloc(&[]).is_err());
    }

    #[test]
    fn scale_scales() {
        let s = Scale::new("s", 0.5);
        let x = Tensor::from_slice(&[4.0]);
        assert_eq!(s.forward_alloc(&[&x]).unwrap().data(), &[2.0]);
    }
}
