//! Order statistics and the regression verdict of `--compare`.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            median: median_sorted(&v),
            q1,
            q3,
            min,
            max,
            n: v.len(),
        })
    }

    /// Distance between the quartiles as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted data, by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method), so spreads
/// printed here match the ones a reader recomputes from the raw values.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let ld = v.len();
    if ld < 2 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Outcome of comparing one metric between a base and a candidate set of
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound, with spreads within it.
    Regressed,
    /// A spread exceeds the bound, so the difference cannot be resolved.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when better).
pub fn worsening(base: f64, candidate: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better {
        candidate - base
    } else {
        base - candidate
    };
    if base == 0.0 {
        delta
    } else {
        delta / base.abs()
    }
}

/// The verdict for one (workload, metric) pair. When either side's quartile
/// spread exceeds `bound` the difference is unresolved, unless every
/// candidate run reads better than every base run.
pub fn verdict(base: &[f64], candidate: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (Some(a), Some(b)) = (Summary::of(base), Summary::of(candidate)) else {
        return Verdict::Unresolved;
    };
    if a.spread().max(b.spread()) > bound {
        let all_better = if lower_is_better {
            b.max < a.min
        } else {
            b.min > a.max
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a.median, b.median, lower_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn single_sample_and_empty_input() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max, s.n),
            (4.0, 4.0, 4.0, 4.0, 4.0, 1)
        );
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]).unwrap();
        assert_eq!(s.median, 10.0);
        assert!((s.spread() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound.
        assert_eq!(
            verdict(&base, &[10.2, 10.3, 10.1, 10.2, 10.25], 0.05, true),
            Verdict::Ok
        );
        // Steady and worse by more than the bound.
        assert_eq!(
            verdict(&base, &[11.0, 11.1, 10.9, 11.0, 11.05], 0.05, true),
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            verdict(&base, &[11.0, 11.1, 10.9, 11.0, 11.05], 0.05, false),
            Verdict::Ok
        );
        // Too noisy to tell.
        assert_eq!(
            verdict(&base, &[8.0, 12.0, 10.0, 14.0, 9.0], 0.05, true),
            Verdict::Unresolved
        );
        // Noisy, but every candidate run beats every base run.
        assert_eq!(
            verdict(&base, &[5.0, 7.0, 6.0, 8.0, 9.0], 0.05, true),
            Verdict::Ok
        );
        // A missing side cannot be judged.
        assert_eq!(verdict(&base, &[], 0.05, true), Verdict::Unresolved);
    }
}
