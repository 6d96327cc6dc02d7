//! The benchmark's own statistics: medians and quartiles, the tail
//! percentile rule, and the failure bases behind `fail_ratio`.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the figures the benchmark prints agree with
/// the acceptance check that reads them.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest of `candidates` (percentiles, descending) that leaves
/// at least ten of `n` samples strictly beyond it, or `None` when even
/// the lowest does not.
#[must_use]
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().find(|&p| beyond(n, p) >= 10)
}

/// Samples ranked above the nearest-rank `p`-th percentile of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

/// A tail latency reported under the "ten samples beyond" rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when the sample allows it).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The highest of p99, p95, p90, p75 and p50 that has ten samples
/// beyond it; with fewer than 20 samples, the maximum.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    match highest_reportable(n, &[99.0, 95.0, 90.0, 75.0, 50.0]) {
        Some(p) => Tail { percentile: p, value: percentile(values, p), samples: n },
        None => Tail {
            percentile: 100.0,
            value: values.iter().copied().fold(0.0, f64::max),
            samples: n,
        },
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    v
}

/// The bases of `fail_ratio`: every way a request can fail, counted
/// against the requests attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Benign requests sent.
    pub benign_sent: u64,
    /// Benign requests served.
    pub benign_served: u64,
    /// Attack requests sent.
    pub attacks_sent: u64,
    /// Attack requests detected.
    pub attacks_detected: u64,
    /// Requests turned away at admission.
    pub rejected: u64,
    /// Requests that never got an answer.
    pub lost: u64,
    /// Requests quarantined as poison.
    pub quarantined: u64,
}

impl Outcomes {
    /// Requests attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.benign_sent + self.attacks_sent
    }

    /// Benign requests not served plus attacks not detected. A
    /// rejected, lost or quarantined request is never served or
    /// detected, so it is already counted here once.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.benign_sent.saturating_sub(self.benign_served)
            + self.attacks_sent.saturating_sub(self.attacks_detected)
    }

    /// `failed / attempted` (0 when nothing was attempted).
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / attempted as f64
        }
    }

    /// Adds another set of counts.
    pub fn absorb(&mut self, o: Outcomes) {
        self.benign_sent += o.benign_sent;
        self.benign_served += o.benign_served;
        self.attacks_sent += o.attacks_sent;
        self.attacks_detected += o.attacks_detected;
        self.rejected += o.rejected;
        self.lost += o.lost;
        self.quarantined += o.quarantined;
    }

    /// The bases, printed next to the ratio.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} failed of {} attempted (benign {}/{} served, attacks {}/{} detected, \
             rejected {}, lost {}, quarantined {})",
            self.failed(),
            self.attempted(),
            self.benign_served,
            self.benign_sent,
            self.attacks_detected,
            self.attacks_sent,
            self.rejected,
            self.lost,
            self.quarantined
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_reportable(1000, &[99.0, 95.0]), Some(99.0));
        assert_eq!(highest_reportable(999, &[99.0, 95.0]), Some(95.0));
        assert_eq!(highest_reportable(100, &[99.0, 95.0, 90.0]), Some(90.0));
        assert_eq!(highest_reportable(15, &[99.0, 50.0]), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_reportable_percentile() {
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 1980.0, 2000));
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.percentile, t.value), (100.0, 9.0));
    }

    #[test]
    fn fail_ratio_counts_every_failure_once() {
        let o = Outcomes {
            benign_sent: 90,
            benign_served: 85,
            attacks_sent: 10,
            attacks_detected: 9,
            rejected: 3,
            lost: 1,
            quarantined: 1,
        };
        // 5 benign missing (3 rejected, 1 lost, 1 quarantined) and one
        // attack missed: 6 of 100.
        assert_eq!(o.attempted(), 100);
        assert_eq!(o.failed(), 6);
        assert!((o.fail_ratio() - 0.06).abs() < 1e-12);
        let mut sum = Outcomes::default();
        sum.absorb(o);
        sum.absorb(o);
        assert_eq!((sum.attempted(), sum.failed()), (200, 12));
        assert_eq!(Outcomes::default().fail_ratio(), 0.0);
    }
}
