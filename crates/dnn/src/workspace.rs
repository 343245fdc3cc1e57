//! Scratch workspace: a shape-agnostic tensor/buffer pool that makes
//! steady-state fault injection allocation-free.
//!
//! Every [`crate::layers::Layer::forward`] call and every pooled
//! [`crate::graph::Engine`] resume draws its output tensors, temporary
//! buffers, and packing panels from a [`Workspace`] instead of the global
//! allocator. Buffers are recycled after use, so after a short warm-up the
//! pool serves every request from previously-freed memory — the
//! [`Workspace::hits`] / [`Workspace::misses`] counters make that measurable
//! (and are the zero-allocation acceptance metric for the perf benches,
//! since `unsafe_code` is forbidden workspace-wide and a counting global
//! allocator is therefore off the table).
//!
//! Pooling is invisible to results by construction: a pooled zero tensor is
//! `clear`ed and `resize`d to `+0.0` (bit-identical to a fresh
//! [`Tensor::zeros`]), and pooled copies are fully overwritten before use.
//! The pool only changes *where* memory comes from, never a single value.

use std::collections::BTreeMap;

use crate::macspec::KernelScratch;
use crate::tensor::Tensor;

/// The part of one node's output the delta resume path has modified
/// relative to the golden trace: either the whole tensor, or — for rank-4
/// NCHW outputs — every batch and channel of the spatial window
/// `rows [h0, h1) × cols [w0, w1)`, or — for rank-2 `[tokens, features]`
/// outputs, viewed as one plane — the token rows `[h0, h1)` × the feature
/// columns `[w0, w1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The entire output may differ.
    All,
    /// Only the window differs (all batches / channels of a rank-4
    /// tensor; rows × columns of a rank-2 one).
    Window {
        /// `[h0, h1)` output rows.
        h: (usize, usize),
        /// `[w0, w1)` output columns.
        w: (usize, usize),
    },
}

/// A per-worker private copy of one golden trace's node outputs, patched in
/// place by the delta resume path and repaired back to golden after every
/// injection.
///
/// The overlay belongs to a [`Workspace`] and is loaned out with
/// [`Workspace::take_golden`] / returned with [`Workspace::put_golden`] (the
/// same `mem::take` discipline as the resume slots). If an injection panics
/// while the overlay is out, it is simply lost: the workspace then reports
/// no golden key and the caller falls back to the full resume path, so a
/// torn overlay can never leak stale values into results.
#[derive(Debug, Default)]
pub struct GoldenOverlay {
    /// Key of the trace the slots mirror ([`crate::graph::golden_key`]);
    /// `None` while uninstalled or loaned out.
    pub(crate) key: Option<u64>,
    /// One bit-exact copy of each node output of the golden trace.
    pub(crate) slots: Vec<Tensor>,
    /// Per-node region currently diverging from golden (repair worklist).
    pub(crate) dirty: Vec<Option<Region>>,
}

/// A reusable pool of `f32` buffers, shape vectors, and kernel scratch.
///
/// Not thread-safe by design: parallel campaign runners hold one workspace
/// per worker (worker state never affects values, only allocation reuse).
#[derive(Debug, Default)]
pub struct Workspace {
    /// Free `f32` buffers, keyed by capacity; lookup is best-fit (smallest
    /// capacity that can hold the request).
    pool: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Free shape vectors.
    shapes: Vec<Vec<usize>>,
    /// Per-node output slots loaned to the pooled resume path.
    slots: Vec<Option<Tensor>>,
    /// Packing/accumulator scratch for the MAC kernels.
    scratch: KernelScratch,
    /// Golden snapshot + per-injection scratch overlay for the delta path.
    golden: GoldenOverlay,
    /// The settle pass's band-sized divergence mask (see
    /// [`crate::graph::Engine::resume_delta`]); grows to the largest band
    /// seen and is reused.
    settle_mask: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Workspace {
    /// An empty workspace; buffers accumulate through recycling.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Pops the smallest pooled buffer with capacity ≥ `len`, if any.
    fn grab(&mut self, len: usize) -> Option<Vec<f32>> {
        for (_, bucket) in self.pool.range_mut(len..) {
            if let Some(buf) = bucket.pop() {
                self.hits += 1;
                return Some(buf);
            }
        }
        self.misses += 1;
        None
    }

    /// A zero-filled buffer of exactly `len` elements, pooled when possible.
    /// Bit-identical to `vec![0.0; len]`.
    pub fn take_buf(&mut self, len: usize) -> Vec<f32> {
        match self.grab(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0f32; len],
        }
    }

    /// A buffer holding a copy of `values`, pooled when possible.
    pub fn take_copy(&mut self, values: &[f32]) -> Vec<f32> {
        match self.grab(values.len()) {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(values);
                buf
            }
            None => values.to_vec(),
        }
    }

    /// Returns a buffer to the pool.
    pub fn recycle_buf(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.pool.entry(buf.capacity()).or_default().push(buf);
    }

    /// A shape vector with the given dimensions, pooled when possible.
    fn take_shape(&mut self, dims: &[usize]) -> Vec<usize> {
        let mut s = self.shapes.pop().unwrap_or_default();
        s.clear();
        s.extend_from_slice(dims);
        s
    }

    /// A pooled `Vec<usize>` initialized to `dims`, for layers that compute
    /// an output shape before materializing the tensor. Return it with
    /// [`Workspace::recycle_shape`].
    pub fn shape_vec(&mut self, dims: &[usize]) -> Vec<usize> {
        self.take_shape(dims)
    }

    /// Returns a shape vector to the pool.
    pub fn recycle_shape(&mut self, s: Vec<usize>) {
        self.shapes.push(s);
    }

    /// A zero tensor of the given shape, pooled when possible. Bit-identical
    /// to [`Tensor::zeros`].
    pub fn zeros(&mut self, dims: &[usize]) -> Tensor {
        let len = dims.iter().product();
        let shape = self.take_shape(dims);
        let buf = self.take_buf(len);
        Tensor::from_parts(shape, buf)
    }

    /// A copy of `t`, pooled when possible. Bit-identical to `t.clone()`.
    pub fn clone_of(&mut self, t: &Tensor) -> Tensor {
        let shape = self.take_shape(t.shape());
        let buf = self.take_copy(t.data());
        Tensor::from_parts(shape, buf)
    }

    /// A copy of `t` carrying shape `dims` (same element count), pooled when
    /// possible. The allocation-free counterpart of [`Tensor::reshaped`].
    ///
    /// # Panics
    ///
    /// Panics when the element counts differ (same contract as
    /// [`Tensor::from_parts`]).
    pub fn reshaped(&mut self, t: &Tensor, dims: &[usize]) -> Tensor {
        let shape = self.take_shape(dims);
        let buf = self.take_copy(t.data());
        Tensor::from_parts(shape, buf)
    }

    /// Returns a tensor's buffers to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        let (shape, data) = t.into_parts();
        self.shapes.push(shape);
        self.recycle_buf(data);
    }

    /// The MAC-kernel scratch (packing panel, accumulator row, ranges).
    pub fn kernel_scratch(&mut self) -> &mut KernelScratch {
        &mut self.scratch
    }

    /// Loans out the per-node slot vector, cleared and sized to `n`. The
    /// caller must hand it back via [`Workspace::put_slots`] (tensors still
    /// inside are recycled then).
    pub fn take_slots(&mut self, n: usize) -> Vec<Option<Tensor>> {
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots.resize_with(n, || None);
        slots
    }

    /// Returns the slot vector, recycling any tensors left inside.
    pub fn put_slots(&mut self, mut slots: Vec<Option<Tensor>>) {
        for slot in &mut slots {
            if let Some(t) = slot.take() {
                self.recycle(t);
            }
        }
        self.slots = slots;
    }

    /// The settle pass's mask buffer, left for the caller to size.
    pub(crate) fn settle_mask(&mut self) -> &mut Vec<u32> {
        &mut self.settle_mask
    }

    /// Installs a golden snapshot: a bit-exact pooled copy of each tensor in
    /// `outputs`, keyed by `key` (see [`crate::graph::golden_key`]). Any
    /// previously installed snapshot is recycled first.
    pub fn install_golden(&mut self, key: u64, outputs: &[Tensor]) {
        self.flush_golden();
        let mut golden = std::mem::take(&mut self.golden);
        golden.slots.reserve(outputs.len());
        for t in outputs {
            golden.slots.push(self.clone_of(t));
        }
        golden.dirty.clear();
        golden.dirty.resize(outputs.len(), None);
        golden.key = Some(key);
        self.golden = golden;
    }

    /// Key of the installed golden snapshot, or `None` when no snapshot is
    /// installed (or it is currently loaned out / was lost to a panic).
    pub fn golden_key(&self) -> Option<u64> {
        self.golden.key
    }

    /// Recycles the golden snapshot's buffers back into the pool.
    pub fn flush_golden(&mut self) {
        let mut golden = std::mem::take(&mut self.golden);
        for t in golden.slots.drain(..) {
            self.recycle(t);
        }
        golden.dirty.clear();
        self.golden = golden;
    }

    /// Loans out the golden overlay (the workspace reports no golden key
    /// until it is returned via [`Workspace::put_golden`]).
    pub fn take_golden(&mut self) -> GoldenOverlay {
        std::mem::take(&mut self.golden)
    }

    /// Returns a loaned golden overlay.
    pub fn put_golden(&mut self, golden: GoldenOverlay) {
        let old = std::mem::replace(&mut self.golden, golden);
        for t in old.slots {
            self.recycle(t);
        }
    }

    /// Buffer requests served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Buffer requests that fell through to the allocator.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of buffer requests served from the pool (1.0 when no
    /// requests were made — an empty history allocated nothing).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets the hit/miss counters (pooled buffers are kept).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_bit_identical_to_fresh() {
        let mut ws = Workspace::new();
        let a = ws.zeros(&[2, 3]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.data(), Tensor::zeros(vec![2, 3]).data());
        // Dirty the buffer, recycle, take again: still all +0.0 bits.
        let mut a = a;
        a.data_mut().fill(f32::NAN);
        ws.recycle(a);
        let b = ws.zeros(&[6]);
        for v in b.data() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn pool_reuses_buffers_best_fit() {
        let mut ws = Workspace::new();
        let big = ws.zeros(&[16]);
        let small = ws.zeros(&[4]);
        ws.recycle(big);
        ws.recycle(small);
        ws.reset_counters();
        // A request for 3 elements should reuse the 4-capacity buffer.
        let t = ws.zeros(&[3]);
        assert_eq!(ws.hits(), 1);
        assert_eq!(ws.misses(), 0);
        ws.recycle(t);
        // A request for 32 cannot be served.
        let t = ws.zeros(&[32]);
        assert_eq!(ws.misses(), 1);
        ws.recycle(t);
        // Steady state: the 32-capacity buffer now serves repeats.
        ws.reset_counters();
        for _ in 0..10 {
            let t = ws.zeros(&[32]);
            ws.recycle(t);
        }
        assert_eq!(ws.hits(), 10);
        assert_eq!(ws.misses(), 0);
        assert!(ws.hit_rate() >= 1.0 - f64::EPSILON);
    }

    #[test]
    fn clone_of_copies_values() {
        let mut ws = Workspace::new();
        let src = Tensor::from_vec(vec![2, 2], vec![1.0, -2.0, 3.5, f32::INFINITY]).unwrap();
        let c = ws.clone_of(&src);
        assert_eq!(c.shape(), src.shape());
        for (a, b) in c.data().iter().zip(src.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn slots_round_trip_and_recycle_contents() {
        let mut ws = Workspace::new();
        let mut slots = ws.take_slots(3);
        slots[1] = Some(ws.zeros(&[8]));
        ws.put_slots(slots);
        ws.reset_counters();
        // The tensor left in the slot was recycled into the pool.
        let t = ws.zeros(&[8]);
        assert_eq!(ws.hits(), 1);
        ws.recycle(t);
        let slots = ws.take_slots(5);
        assert_eq!(slots.len(), 5);
        assert!(slots.iter().all(Option::is_none));
        ws.put_slots(slots);
    }
}
