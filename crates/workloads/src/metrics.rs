//! Application-level correctness metrics (Table IV of the paper).
//!
//! * classification → top-1 label match (provided by `fidelity-core`),
//! * translation → BLEU-score difference thresholds (10% / 20%),
//! * object detection → detection-score difference thresholds (10% / 20%).
//!
//! The fault-free output plays the role of the reference, exactly as the
//! paper compares each faulty run's score against the fault-free score.

use fidelity_core::outcome::CorrectnessMetric;
use fidelity_dnn::tensor::Tensor;

/// Greedy per-position decode of a `[seq, vocab]` logit matrix into token
/// ids: each row's largest non-NaN logit in [`f32::total_cmp`] order (so
/// −0 < +0), the last of equal maxima, and token 0 for a row with none.
pub fn decode_tokens(logits: &Tensor) -> Vec<usize> {
    let mut tokens = vec![0; seq_len(logits)];
    decode_into(logits, &mut tokens);
    tokens
}

/// Rows of a rank-2 logit matrix; 0 for any other rank.
fn seq_len(logits: &Tensor) -> usize {
    if logits.rank() == 2 {
        logits.shape()[0]
    } else {
        0
    }
}

/// [`decode_tokens`] into `tokens`, which holds [`seq_len`] ids.
fn decode_into(logits: &Tensor, tokens: &mut [usize]) {
    if tokens.is_empty() {
        return;
    }
    let vocab = logits.shape()[1];
    for (t, token) in tokens.iter_mut().enumerate() {
        *token = argmax(&logits.data()[t * vocab..][..vocab]);
    }
}

/// The index [`decode_tokens`] picks in one row, as one max-reduction that
/// vectorizes: each logit becomes a signed integer key that orders like
/// [`f32::total_cmp`], in the high half of an `i64` whose low half is its
/// index, so the largest word is the largest key and, among equal keys,
/// the last index (rows are far shorter than the 2³² indices the low half
/// holds). A NaN takes the key `i32::MIN`, which no other value has, so it
/// never wins and a row of NaNs keeps token 0.
fn argmax(row: &[f32]) -> usize {
    let best = row
        .iter()
        .zip(0u32..)
        .map(|(&v, i)| {
            // `total_cmp`'s key: negative values have their magnitude bits
            // flipped, so the signed order of keys is the total order.
            let bits = v.to_bits() as i32;
            let key = bits ^ (((bits >> 31) as u32) >> 1) as i32;
            let key = if v.is_nan() { i32::MIN } else { key };
            (i64::from(key) << 32) | i64::from(i)
        })
        .max()
        .unwrap_or(i64::MIN);
    if (best >> 32) as i32 == i32::MIN {
        0
    } else {
        (best & 0xFFFF_FFFF) as usize
    }
}

/// BLEU-4 with uniform n-gram weights and brevity penalty, computed from
/// scratch. Zero-count n-gram precisions are floored at a small epsilon so a
/// single missing 4-gram does not zero the whole score (mild smoothing, in
/// the spirit of sentence-level BLEU).
pub fn bleu4(reference: &[usize], hypothesis: &[usize]) -> f64 {
    if reference.is_empty() || hypothesis.is_empty() {
        return if reference == hypothesis { 1.0 } else { 0.0 };
    }
    const EPS: f64 = 1e-7;
    let matched = clipped_matches(reference, hypothesis);
    let mut log_sum = 0.0;
    for (n, &m) in (1..=4usize).zip(&matched) {
        // Order-n precision: clipped matches over the hypothesis's n-grams.
        let p = if hypothesis.len() < n {
            0.0
        } else {
            m as f64 / (hypothesis.len() - n + 1) as f64
        };
        log_sum += p.max(EPS).ln() / 4.0;
    }
    let bp = if hypothesis.len() >= reference.len() {
        1.0
    } else {
        (1.0 - reference.len() as f64 / hypothesis.len() as f64).exp()
    };
    (bp * log_sum.exp()).clamp(0.0, 1.0)
}

/// Clipped n-gram matches of orders 1 to 4, without counting n-grams in
/// tables: `Σ_g min(count_hyp(g), count_ref(g))` over the distinct n-grams
/// `g` of the hypothesis, for each `n`.
///
/// The common run of the hypothesis at `i` and a sequence at `j` (how many
/// tokens agree from there on, capped at 4) says at once for which orders
/// the n-grams starting there are equal. Counting runs against every
/// reference position gives each order's reference count of the n-gram at
/// `i`; counting them against the earlier hypothesis positions gives how
/// many equal n-grams came before it. The occurrence at `i` is matched when
/// fewer came before it than the reference holds, which over a group of
/// equal n-grams sums to the clipped count.
fn clipped_matches(reference: &[usize], hypothesis: &[usize]) -> [usize; 4] {
    let run = |a: &[usize], b: &[usize]| {
        let mut n = 0;
        while n < 4 && n < a.len() && n < b.len() && a[n] == b[n] {
            n += 1;
        }
        n
    };
    let mut matched = [0usize; 4];
    for i in 0..hypothesis.len() {
        let gram = &hypothesis[i..];
        let mut in_ref = [0usize; 4];
        for j in 0..reference.len() {
            for count in &mut in_ref[..run(gram, &reference[j..])] {
                *count += 1;
            }
        }
        if in_ref[0] == 0 {
            continue; // no order can match: the token is not in the reference
        }
        let mut before = [0usize; 4];
        for k in 0..i {
            for count in &mut before[..run(gram, &hypothesis[k..])] {
                *count += 1;
            }
        }
        for ((m, &r), &b) in matched.iter_mut().zip(&in_ref).zip(&before) {
            *m += usize::from(b < r);
        }
    }
    matched
}

/// Translation metric: the faulty output is correct when its BLEU score
/// against the fault-free decode drops by at most `threshold` (the paper's
/// <10% / <20% BLEU-score difference).
#[derive(Debug, Clone, Copy)]
pub struct BleuThreshold {
    threshold: f64,
    name: &'static str,
}

impl BleuThreshold {
    /// The 10%-difference variant.
    pub fn ten_percent() -> Self {
        BleuThreshold {
            threshold: 0.10,
            name: "<10% BLEU difference",
        }
    }

    /// The 20%-difference variant.
    pub fn twenty_percent() -> Self {
        BleuThreshold {
            threshold: 0.20,
            name: "<20% BLEU difference",
        }
    }
}

impl CorrectnessMetric for BleuThreshold {
    fn name(&self) -> &str {
        self.name
    }

    fn is_correct(&self, golden: &Tensor, observed: &Tensor) -> bool {
        // Both decodes share one buffer.
        let mut tokens = vec![0; seq_len(golden) + seq_len(observed)];
        let (reference, hypothesis) = tokens.split_at_mut(seq_len(golden));
        decode_into(golden, reference);
        decode_into(observed, hypothesis);
        // Identical decodes of length ≥ 4 score exactly 1: every n-gram
        // precision is 1, ln 1 = 0, exp 0 = 1 and there is no brevity
        // penalty. Shorter ones take the full path, where a missing n-gram
        // order floors its precision.
        if reference == hypothesis && reference.len() >= 4 {
            return true;
        }
        // Fault-free score is BLEU(ref, ref) = 1; the difference is 1 − BLEU.
        1.0 - bleu4(reference, hypothesis) <= self.threshold
    }
}

/// One decoded detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Box centre x (grid units).
    pub x: f32,
    /// Box centre y (grid units).
    pub y: f32,
    /// Box width.
    pub w: f32,
    /// Box height.
    pub h: f32,
    /// Objectness score (post-sigmoid).
    pub objectness: f32,
    /// Class label.
    pub class: usize,
}

/// Decodes a Yolo-style detection grid `[1, 5+C, S, S]` into boxes with
/// objectness above `threshold`.
pub fn decode_detections(grid: &Tensor, threshold: f32) -> Vec<Detection> {
    if grid.rank() != 4 || grid.shape()[1] < 6 {
        return Vec::new();
    }
    let (ch, s_h, s_w) = (grid.shape()[1], grid.shape()[2], grid.shape()[3]);
    let classes = ch - 5;
    let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
    let mut out = Vec::new();
    for gy in 0..s_h {
        for gx in 0..s_w {
            let at = |c: usize| grid.at4(0, c, gy, gx);
            let obj = sigmoid(at(4));
            // Negated comparison is deliberate: NaN objectness is rejected.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(obj > threshold) {
                continue;
            }
            let class = (0..classes)
                .map(|c| at(5 + c))
                .enumerate()
                .filter(|(_, v)| !v.is_nan())
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(i, _)| i);
            out.push(Detection {
                x: gx as f32 + sigmoid(at(0)),
                y: gy as f32 + sigmoid(at(1)),
                w: at(2).clamp(-10.0, 4.0).exp(),
                h: at(3).clamp(-10.0, 4.0).exp(),
                objectness: obj,
                class,
            });
        }
    }
    out
}

/// Intersection-over-union of two detections' boxes.
pub fn iou(a: &Detection, b: &Detection) -> f32 {
    let (ax0, ax1) = (a.x - a.w / 2.0, a.x + a.w / 2.0);
    let (ay0, ay1) = (a.y - a.h / 2.0, a.y + a.h / 2.0);
    let (bx0, bx1) = (b.x - b.w / 2.0, b.x + b.w / 2.0);
    let (by0, by1) = (b.y - b.h / 2.0, b.y + b.h / 2.0);
    let iw = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
    let ih = (ay1.min(by1) - ay0.max(by0)).max(0.0);
    let inter = iw * ih;
    let union = a.w * a.h + b.w * b.h - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Detection agreement score between a faulty run's detections and the
/// fault-free detections: F1 of greedy IoU ≥ 0.5 same-class matching.
///
/// The paper scores Yolo outputs with a precision metric relative to the
/// fault-free run; F1 additionally penalizes dropped detections, which a
/// pure precision score would miss (documented substitution).
pub fn detection_score(golden: &[Detection], observed: &[Detection]) -> f64 {
    if golden.is_empty() && observed.is_empty() {
        return 1.0;
    }
    if golden.is_empty() || observed.is_empty() {
        return 0.0;
    }
    let mut used = vec![false; golden.len()];
    let mut matched = 0usize;
    for det in observed {
        let best = golden
            .iter()
            .enumerate()
            .filter(|(i, g)| !used[*i] && g.class == det.class && iou(g, det) >= 0.5)
            .max_by(|a, b| iou(a.1, det).total_cmp(&iou(b.1, det)));
        if let Some((i, _)) = best {
            used[i] = true;
            matched += 1;
        }
    }
    let precision = matched as f64 / observed.len() as f64;
    let recall = matched as f64 / golden.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// Detection metric: correct when the detection score drops by at most
/// `threshold` relative to the fault-free run.
#[derive(Debug, Clone, Copy)]
pub struct DetectionThreshold {
    threshold: f64,
    objectness: f32,
    name: &'static str,
}

impl DetectionThreshold {
    /// The 10%-difference variant.
    pub fn ten_percent() -> Self {
        DetectionThreshold {
            threshold: 0.10,
            objectness: 0.5,
            name: "<10% detection-score difference",
        }
    }

    /// The 20%-difference variant.
    pub fn twenty_percent() -> Self {
        DetectionThreshold {
            threshold: 0.20,
            objectness: 0.5,
            name: "<20% detection-score difference",
        }
    }
}

impl CorrectnessMetric for DetectionThreshold {
    fn name(&self) -> &str {
        self.name
    }

    fn is_correct(&self, golden: &Tensor, observed: &Tensor) -> bool {
        let g = decode_detections(golden, self.objectness);
        let o = decode_detections(observed, self.objectness);
        1.0 - detection_score(&g, &o) <= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_dnn::init::SplitMix64;

    /// The decode [`decode_tokens`] replaced, kept as its reference:
    /// `max_by(total_cmp)` over each row's non-NaN logits.
    fn decode_reference(logits: &Tensor) -> Vec<usize> {
        if logits.rank() != 2 {
            return Vec::new();
        }
        let (seq, vocab) = (logits.shape()[0], logits.shape()[1]);
        (0..seq)
            .map(|t| {
                let row = &logits.data()[t * vocab..(t + 1) * vocab];
                row.iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_nan())
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| i)
            })
            .collect()
    }

    /// The BLEU-4 [`bleu4`] replaced, kept as its reference: n-gram count
    /// tables in hash maps.
    fn bleu4_reference(reference: &[usize], hypothesis: &[usize]) -> f64 {
        if reference.is_empty() || hypothesis.is_empty() {
            return if reference == hypothesis { 1.0 } else { 0.0 };
        }
        const EPS: f64 = 1e-7;
        let mut log_sum = 0.0;
        for n in 1..=4usize {
            let p = ngram_precision_reference(reference, hypothesis, n).max(EPS);
            log_sum += p.ln() / 4.0;
        }
        let bp = if hypothesis.len() >= reference.len() {
            1.0
        } else {
            (1.0 - reference.len() as f64 / hypothesis.len() as f64).exp()
        };
        (bp * log_sum.exp()).clamp(0.0, 1.0)
    }

    fn ngram_precision_reference(reference: &[usize], hypothesis: &[usize], n: usize) -> f64 {
        if hypothesis.len() < n {
            return 0.0;
        }
        let count = |s: &[usize]| {
            let mut map = std::collections::HashMap::new();
            for w in s.windows(n) {
                *map.entry(w.to_vec()).or_insert(0usize) += 1;
            }
            map
        };
        let ref_counts = count(reference);
        let hyp_counts = count(hypothesis);
        let total: usize = hyp_counts.values().sum();
        let matched: usize = hyp_counts
            .iter()
            .map(|(g, c)| (*c).min(ref_counts.get(g).copied().unwrap_or(0)))
            .sum();
        matched as f64 / total as f64
    }

    /// Random token sequence of length 0–20 over a vocabulary of 1–6, so
    /// that n-grams repeat and lengths below 4 occur.
    fn token_case(rng: &mut SplitMix64, vocab: u64) -> Vec<usize> {
        let len = rng.next_below(21);
        (0..len).map(|_| rng.next_below(vocab) as usize).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        /// The run-table BLEU gives the hash-map BLEU's f64 bits, on
        /// unrelated sequences and on hypotheses edited from the
        /// reference.
        #[test]
        fn bleu4_matches_hash_map_reference(seed in 0u64..u64::MAX) {
            let mut rng = SplitMix64::new(seed);
            let vocab = 1 + rng.next_below(6);
            let reference = token_case(&mut rng, vocab);
            let mut hypothesis = token_case(&mut rng, vocab);
            if rng.next_below(2) == 0 {
                hypothesis = reference.clone();
                for _ in 0..rng.next_below(4) {
                    if !hypothesis.is_empty() {
                        let t = rng.next_below(hypothesis.len() as u64) as usize;
                        hypothesis[t] = rng.next_below(vocab) as usize;
                    }
                }
            }
            for (r, h) in [(&reference, &hypothesis), (&hypothesis, &reference)] {
                proptest::prop_assert_eq!(
                    bleu4(r, h).to_bits(),
                    bleu4_reference(r, h).to_bits(),
                    "{:?} vs {:?}",
                    r,
                    h
                );
            }
        }

        /// The integer-key decode picks `max_by(total_cmp)`'s token on rows
        /// of NaN, ±0, ±∞, subnormals and ties.
        #[test]
        fn decode_matches_max_by_reference(seed in 0u64..u64::MAX) {
            let mut rng = SplitMix64::new(seed);
            let (seq, vocab) = (rng.next_below(5) as usize, rng.next_below(9) as usize);
            let pool = [
                f32::NAN,
                -f32::NAN,
                f32::from_bits(0xFFFF_FFFF),
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                f32::MIN_POSITIVE / 4.0,
                -f32::MIN_POSITIVE / 4.0,
                f32::MAX,
                f32::MIN,
                1.0,
                -1.0,
                0.5,
            ];
            let data: Vec<f32> = (0..seq * vocab)
                .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
                .collect();
            let logits = Tensor::from_vec(vec![seq, vocab], data).unwrap();
            proptest::prop_assert_eq!(decode_tokens(&logits), decode_reference(&logits));
        }
    }

    #[test]
    fn bleu_identity_is_one() {
        let s = vec![1, 2, 3, 4, 5, 6];
        assert!((bleu4(&s, &s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bleu_decreases_with_corruption() {
        let reference = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let one_wrong = vec![1, 2, 3, 9, 5, 6, 7, 8];
        let all_wrong = vec![9, 9, 9, 9, 9, 9, 9, 9];
        let b1 = bleu4(&reference, &one_wrong);
        let b2 = bleu4(&reference, &all_wrong);
        assert!(b1 < 1.0 && b1 > b2);
        assert!(b2 < 0.01);
    }

    #[test]
    fn bleu_brevity_penalty() {
        let reference = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let truncated = vec![1, 2, 3, 4];
        assert!(bleu4(&reference, &truncated) < bleu4(&reference, &reference));
    }

    #[test]
    fn bleu_empty_edge_cases() {
        assert_eq!(bleu4(&[], &[]), 1.0);
        assert_eq!(bleu4(&[1], &[]), 0.0);
    }

    #[test]
    fn decode_tokens_argmax_per_row() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.0, 0.0, 0.2, 0.7]).unwrap();
        assert_eq!(decode_tokens(&logits), vec![1, 2]);
    }

    #[test]
    fn bleu_threshold_metric() {
        let golden = Tensor::from_vec(
            vec![6, 2],
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        )
        .unwrap();
        let m10 = BleuThreshold::ten_percent();
        assert!(m10.is_correct(&golden, &golden));
        // Corrupt half the rows.
        let mut bad = golden.clone();
        for t in 0..3 {
            bad.set2(t * 2, 0, 0.0);
            bad.set2(t * 2, 1, 1.0);
        }
        assert!(!m10.is_correct(&golden, &bad));
        // The 20% metric is at least as permissive as the 10% one.
        let m20 = BleuThreshold::twenty_percent();
        if m10.is_correct(&golden, &bad) {
            assert!(m20.is_correct(&golden, &bad));
        }
    }

    /// The identical-decode fast path in `BleuThreshold::is_correct` gives
    /// the verdict of the full BLEU computation, on identical and random
    /// decodes of every length from 0 to 12.
    #[test]
    fn bleu_fast_path_matches_full_verdict() {
        let vocab = 3;
        let logits = |tokens: &[usize]| {
            let mut data = vec![0.0; tokens.len() * vocab];
            for (t, &tok) in tokens.iter().enumerate() {
                data[t * vocab + tok] = 1.0;
            }
            Tensor::from_vec(vec![tokens.len(), vocab], data).unwrap()
        };
        let mut rng = fidelity_dnn::init::SplitMix64::new(0xB1E0);
        for metric in [
            BleuThreshold::ten_percent(),
            BleuThreshold::twenty_percent(),
        ] {
            for len in 0..=12 {
                for _ in 0..50 {
                    let reference: Vec<usize> = (0..len)
                        .map(|_| rng.next_below(vocab as u64) as usize)
                        .collect();
                    let mut hypothesis = reference.clone();
                    if len > 0 && rng.next_below(2) == 0 {
                        let t = rng.next_below(len as u64) as usize;
                        hypothesis[t] = rng.next_below(vocab as u64) as usize;
                    }
                    for hyp in [&reference, &hypothesis] {
                        let full = 1.0 - bleu4(&reference, hyp) <= metric.threshold;
                        assert_eq!(
                            metric.is_correct(&logits(&reference), &logits(hyp)),
                            full,
                            "{reference:?} vs {hyp:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let d = Detection {
            x: 1.0,
            y: 1.0,
            w: 2.0,
            h: 2.0,
            objectness: 0.9,
            class: 0,
        };
        assert!((iou(&d, &d) - 1.0).abs() < 1e-6);
        let far = Detection { x: 10.0, ..d };
        assert_eq!(iou(&d, &far), 0.0);
    }

    #[test]
    fn detection_score_cases() {
        let d = Detection {
            x: 1.0,
            y: 1.0,
            w: 2.0,
            h: 2.0,
            objectness: 0.9,
            class: 1,
        };
        assert_eq!(detection_score(&[], &[]), 1.0);
        assert_eq!(detection_score(&[d], &[]), 0.0);
        assert!((detection_score(&[d], &[d]) - 1.0).abs() < 1e-9);
        // Wrong class never matches.
        let wrong = Detection { class: 2, ..d };
        assert_eq!(detection_score(&[d], &[wrong]), 0.0);
    }

    #[test]
    fn decode_detections_thresholds_objectness() {
        // Grid 1x9x1x1: one cell, 4 classes.
        let mut grid = Tensor::zeros(vec![1, 9, 1, 1]);
        grid.set4(0, 4, 0, 0, 3.0); // sigmoid(3) ≈ 0.95 > 0.5
        grid.set4(0, 7, 0, 0, 2.0); // class 2 wins
        let dets = decode_detections(&grid, 0.5);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].class, 2);
        grid.set4(0, 4, 0, 0, -3.0);
        assert!(decode_detections(&grid, 0.5).is_empty());
    }

    #[test]
    fn nan_objectness_is_not_a_detection() {
        let mut grid = Tensor::zeros(vec![1, 9, 1, 1]);
        grid.set4(0, 4, 0, 0, f32::NAN);
        assert!(decode_detections(&grid, 0.5).is_empty());
    }
}
