//! Token embedding lookup.

use crate::error::DnnError;
use crate::layers::{check_arity, Layer, LayerKind};
use crate::precision::ValueCodec;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Embedding lookup: a rank-1 tensor of (rounded) token ids becomes a
/// `[seq, dim]` matrix of embedding rows.
///
/// Out-of-vocabulary ids clamp to the last row, mirroring an `<unk>` bucket.
#[derive(Debug, Clone)]
pub struct Embedding {
    name: String,
    table: Tensor,
}

impl Embedding {
    /// Creates an embedding from a `[vocab, dim]` table.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] for a non-rank-2 or empty table.
    pub fn new(name: impl Into<String>, table: Tensor) -> Result<Self, DnnError> {
        if table.rank() != 2 || table.is_empty() {
            return Err(DnnError::InvalidConfig {
                message: format!(
                    "embedding table must be non-empty rank 2, got {:?}",
                    table.shape()
                ),
            });
        }
        Ok(Embedding {
            name: name.into(),
            table,
        })
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.shape()[0]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.shape()[1]
    }
}

impl Layer for Embedding {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Embedding
    }

    fn weights(&self) -> Vec<&Tensor> {
        vec![&self.table]
    }

    fn forward(&self, inputs: &[&Tensor], ws: &mut Workspace) -> Result<Tensor, DnnError> {
        check_arity(&self.name, 1, inputs.len())?;
        let ids = inputs[0];
        if ids.rank() != 1 {
            return Err(DnnError::ShapeMismatch {
                context: "Embedding::forward",
                expected: "rank-1 id tensor".into(),
                actual: format!("{:?}", ids.shape()),
            });
        }
        let (vocab, dim) = (self.vocab(), self.dim());
        let mut out = ws.zeros(&[ids.len(), dim]);
        for (t, &idf) in ids.data().iter().enumerate() {
            let id = if idf.is_finite() && idf >= 0.0 {
                (idf.round() as usize).min(vocab - 1)
            } else {
                vocab - 1
            };
            let row = &self.table.data()[id * dim..(id + 1) * dim];
            out.data_mut()[t * dim..(t + 1) * dim].copy_from_slice(row);
        }
        Ok(out)
    }

    fn quantize_weights(&mut self, codec: &ValueCodec) {
        codec.quantize_slice(self.table.data_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_rows() {
        let table = Tensor::from_vec(vec![3, 2], vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1]).unwrap();
        let emb = Embedding::new("e", table).unwrap();
        let ids = Tensor::from_slice(&[2.0, 0.0]);
        let y = emb.forward_alloc(&[&ids]).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[2.0, 2.1, 0.0, 0.1]);
    }

    #[test]
    fn oov_clamps() {
        let table = Tensor::from_vec(vec![2, 1], vec![5.0, 7.0]).unwrap();
        let emb = Embedding::new("e", table).unwrap();
        let ids = Tensor::from_slice(&[99.0, -3.0, f32::NAN]);
        let y = emb.forward_alloc(&[&ids]).unwrap();
        assert_eq!(y.data(), &[7.0, 7.0, 7.0]);
    }
}
