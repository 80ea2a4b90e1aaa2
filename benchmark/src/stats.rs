//! Sample statistics and the metric-name rule.
//!
//! Every timing the benchmark reports is a median or a tail percentile
//! that the sample can support: the tail is the highest percentile, up to
//! the one asked for, that still has at least [`TAIL_BEYOND`] samples
//! strictly beyond it. A tail is always reported with its percentile and
//! its sample count, so a reader can tell a p99 from a p90 forced by a
//! small sample.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two when the count is even);
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// A tail percentile as the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Sample count (over every set for [`median_tail`]).
    pub count: usize,
    /// Sample sets the value is the median over (1 for [`tail`]).
    pub sets: usize,
}

/// The highest percentile not above `want` (in percent) that has at
/// least [`TAIL_BEYOND`] samples strictly beyond it, by nearest rank.
/// `None` when the sample is too small to put any sample below the
/// last ten.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest index whose cumulative share reaches
    // `want`, then pulled down until ten samples lie beyond it.
    let want_rank = ((want / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = want_rank.min(n - TAIL_BEYOND);
    Some(Tail { pct: 100.0 * rank as f64 / n as f64, value: sorted[rank - 1], count: n, sets: 1 })
}

/// [`tail`] of every sample set (one set per timed pass), combined as
/// the median over the sets, so one disturbed pass cannot move the
/// result. The reported percentile is the lowest any set supported.
/// `None` when any set is too small.
pub fn median_tail(sets: &[Vec<f64>], want: f64) -> Option<Tail> {
    let tails: Option<Vec<Tail>> = sets.iter().map(|s| tail(s, want)).collect();
    let tails = tails.filter(|t| !t.is_empty())?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        pct: tails.iter().map(|t| t.pct).fold(f64::INFINITY, f64::min),
        value: median(&values)?,
        count: tails.iter().map(|t| t.count).sum(),
        sets: tails.len(),
    })
}

/// The quarter of `items` with the least host steal per wall second,
/// but at least `min` of them (or all there are), calmest first.
pub fn calmest<T>(items: &[T], min: usize, steal_share: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut calm: Vec<&T> = items.iter().collect();
    calm.sort_by(|a, b| steal_share(a).total_cmp(&steal_share(b)));
    calm.truncate((items.len() / 4).max(min));
    calm
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_reaches_the_asked_percentile_on_a_large_sample() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.count, 1000);
        assert!((t.pct - 99.0).abs() < 1e-9);
        assert_eq!(t.value, 990.0);
        // Exactly ten samples lie beyond the reported one.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_is_pulled_down_until_ten_samples_lie_beyond() {
        let t = tail(&ramp(100), 99.0).unwrap();
        assert!((t.pct - 90.0).abs() < 1e-9);
        assert_eq!(t.value, 90.0);
        assert_eq!(ramp(100).iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10), 99.0), None);
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.count, 11);
    }

    #[test]
    fn tail_below_the_cap_is_the_plain_percentile() {
        let t = tail(&ramp(1000), 50.0).unwrap();
        assert!((t.pct - 50.0).abs() < 1e-9);
        assert_eq!(t.value, 500.0);
    }

    #[test]
    fn median_tail_takes_the_median_over_sets() {
        let sets = vec![ramp(100), ramp(100).iter().map(|v| v * 2.0).collect(), ramp(1000)];
        let t = median_tail(&sets, 99.0).unwrap();
        assert_eq!((t.sets, t.count), (3, 1200));
        assert!((t.pct - 90.0).abs() < 1e-9);
        // Per-set tails 90, 180 and 990: the median is 180.
        assert_eq!(t.value, 180.0);
        assert_eq!(median_tail(&[ramp(100), ramp(5)], 99.0), None);
        assert_eq!(median_tail(&[], 99.0), None);
    }

    #[test]
    fn calmest_keeps_the_least_stolen_quarter_but_at_least_min() {
        let steal: Vec<f64> = (0..12).map(|i| ((i * 5) % 12) as f64).collect();
        let calm = calmest(&steal, 2, |&s| s);
        assert_eq!(calm, [&0.0, &1.0, &2.0]);
        assert_eq!(calmest(&steal, 5, |&s| s).len(), 5);
        assert_eq!(calmest(&steal[..2], 3, |&s| s), [&0.0, &5.0]);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in ["setup_s", "wire.codec_ns.token", "p99", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "-x", "has space", "slash/no", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
