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
/// ids.
pub fn decode_tokens(logits: &Tensor) -> Vec<usize> {
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

/// BLEU-4 with uniform n-gram weights and brevity penalty, computed from
/// scratch. Zero-count n-gram precisions are floored at a small epsilon so a
/// single missing 4-gram does not zero the whole score (mild smoothing, in
/// the spirit of sentence-level BLEU).
pub fn bleu4(reference: &[usize], hypothesis: &[usize]) -> f64 {
    if reference.is_empty() || hypothesis.is_empty() {
        return if reference == hypothesis { 1.0 } else { 0.0 };
    }
    const EPS: f64 = 1e-7;
    let mut log_sum = 0.0;
    for n in 1..=4usize {
        let p = ngram_precision(reference, hypothesis, n).max(EPS);
        log_sum += p.ln() / 4.0;
    }
    let bp = if hypothesis.len() >= reference.len() {
        1.0
    } else {
        (1.0 - reference.len() as f64 / hypothesis.len() as f64).exp()
    };
    (bp * log_sum.exp()).clamp(0.0, 1.0)
}

fn ngram_precision(reference: &[usize], hypothesis: &[usize], n: usize) -> f64 {
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
        let reference = decode_tokens(golden);
        let hypothesis = decode_tokens(observed);
        // Identical decodes of length ≥ 4 score exactly 1: every n-gram
        // precision is 1, ln 1 = 0, exp 0 = 1 and there is no brevity
        // penalty. Shorter ones take the full path, where a missing n-gram
        // order floors its precision.
        if reference == hypothesis && reference.len() >= 4 {
            return true;
        }
        // Fault-free score is BLEU(ref, ref) = 1; the difference is 1 − BLEU.
        1.0 - bleu4(&reference, &hypothesis) <= self.threshold
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
