//! The harness's own arithmetic: medians, quartiles, percentiles and the
//! rule that picks which tail percentile a sample can support.

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) — the
/// definition the acceptance driver applies to ten runs. A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile (`pct` in 0..=100) of an unsorted sample.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
fn rank(n: usize, pct: f64) -> usize {
    // The small slack keeps 99.9 % of 10 000 at rank 9990 despite the
    // binary rounding of 99.9.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Share of a sample [`quiet_mean`] averages: its fastest quarter.
pub const QUIET_SHARE: f64 = 0.25;

/// Mean of the fastest quarter of an unsorted sample of times (of the
/// fastest one when there are fewer than four): the operations that
/// neither queued behind another nor met the host at a bad moment. Used
/// where the slow three quarters say more about how the arrivals bunched
/// than about the program (the open loop's job shapes); everywhere else
/// the median repeats better (`README.md`, "Noise").
pub fn quiet_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quiet mean of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let keep = ((v.len() as f64 * QUIET_SHARE).ceil() as usize).clamp(1, v.len());
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// The typical operation of a mix of kinds: `typical` of each kind's
/// values, weighted by the kind's share of the operations. `samples`
/// pairs a kind with a value; `None` when a kind with a share has no
/// sample.
pub fn share_weighted(
    samples: &[(usize, f64)],
    shares: &[usize],
    typical: fn(&[f64]) -> f64,
) -> Option<f64> {
    let mut total = 0.0;
    for (kind, &share) in shares.iter().enumerate().filter(|(_, &share)| share > 0) {
        let values: Vec<f64> =
            samples.iter().filter(|(k, _)| *k == kind).map(|&(_, v)| v).collect();
        if values.is_empty() {
            return None;
        }
        total += share as f64 * typical(&values);
    }
    Some(total / shares.iter().sum::<usize>() as f64)
}

/// Percentiles a report may quote, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least ten samples beyond it in a sample of `n`; the median when even
/// p75 is too thin. Quoting a higher percentile would report one or two
/// outliers, not a tail.
pub fn supported_tail(n: usize) -> f64 {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&pct| n > 0 && n - rank(n, pct) >= 10)
        .unwrap_or(PERCENTILE_LADDER[0])
}

/// Sample count, median and quartiles of one metric, as printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        Summary { n: values.len(), q1, median: median(values), q3 }
    }

    /// A value that is not a sample statistic (a count, a ratio of
    /// totals): `n` records how many operations it was taken over.
    pub fn scalar(value: f64, n: usize) -> Summary {
        Summary { n, q1: value, median: value, q3: value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn quiet_mean_is_the_fastest_quarter() {
        // Eight values: the two fastest.
        assert_eq!(quiet_mean(&[8.0, 1.0, 7.0, 3.0, 6.0, 5.0, 4.0, 2.0]), 1.5);
        // Nine values: a quarter is 2.25, so three.
        assert_eq!(quiet_mean(&[9.0, 8.0, 1.0, 7.0, 3.0, 6.0, 5.0, 4.0, 2.0]), 2.0);
        // Fewer than four: the fastest one.
        assert_eq!(quiet_mean(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(quiet_mean(&[5.0]), 5.0);
        // What the host adds to the slow three quarters moves nothing ...
        let calm = [10.0, 10.0, 11.0, 11.0, 12.0, 12.0, 13.0, 13.0];
        let disturbed = [10.0, 10.0, 11.0, 31.0, 12.0, 52.0, 13.0, 93.0];
        assert_eq!(quiet_mean(&calm), quiet_mean(&disturbed));
        // ... and a program a tenth slower reads a tenth slower.
        let slower: Vec<f64> = calm.iter().map(|v| v * 1.1).collect();
        assert!((quiet_mean(&slower) / quiet_mean(&calm) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn mix_weighs_each_kind_by_its_share() {
        // Kind 0 (share 3): median 2. Kind 1 (share 1): median 10, and its
        // outlier moves nothing.
        let samples = [(0, 1.0), (1, 10.0), (0, 2.0), (0, 3.0), (1, 9.0), (1, 1000.0)];
        assert_eq!(share_weighted(&samples, &[3, 1], median), Some((3.0 * 2.0 + 10.0) / 4.0));
        assert_eq!(share_weighted(&samples, &[3, 1, 0], median), Some(4.0));
        assert_eq!(share_weighted(&samples, &[3, 1, 2], median), None);
        // Fastest of each kind: 1 and 9.
        assert_eq!(share_weighted(&samples, &[3, 1], quiet_mean), Some((3.0 + 9.0) / 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 25 passes: p75 leaves 6 beyond, so only the median stands.
        assert_eq!(supported_tail(25), 50.0);
        // 40 passes: p75 has exactly 10 beyond, p90 only 4.
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(39), 50.0);
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(99), 75.0);
        // 1000 jobs: p99 has exactly 10 beyond.
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 90.0);
        // 10 000 jobs: p99.9 has exactly 10 beyond.
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(0), 50.0);
        assert_eq!(supported_tail(5), 50.0);
    }

    #[test]
    fn summary_of_sample_and_scalar() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.median), (5, 3.0));
        assert!(s.q1 < s.median && s.median < s.q3);
        assert_eq!(Summary::scalar(2.5, 40), Summary { n: 40, q1: 2.5, median: 2.5, q3: 2.5 });
    }
}
