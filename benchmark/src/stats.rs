//! Order statistics for timing samples: medians, percentiles, and the
//! rule that a percentile is only reported when at least ten samples lie
//! beyond it.

/// Percentiles a [`Summary`] may report as its tail, lowest first.
pub const LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts in place and returns the `p`-th percentile (`0 < p <= 100`) by
/// the nearest-rank rule: the smallest sample with at least `p` percent
/// of the samples at or below it. Panics on an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    samples[rank(samples.len(), p).clamp(1, samples.len()) - 1]
}

/// Samples at or below percentile `p` of `n`: `ceil(p * n / 100)`, with
/// the product's rounding error (99.9 is not a binary fraction) removed.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Median by the same rule as [`percentile`].
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n.saturating_sub(rank(n, p)) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| supports(n, p))
}

/// Median, sample count and the highest supported tail of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (sorted in place). Panics on an empty slice.
    pub fn of(samples: &mut [f64]) -> Summary {
        let p50 = median(samples);
        let tail = highest_supported(samples.len()).map(|p| (p, percentile(samples, p)));
        Summary {
            n: samples.len(),
            p50,
            tail,
        }
    }
}

/// FNV-1a over the bit patterns of `values`: equal checksums on two runs
/// of one seed show the same arithmetic was performed.
pub fn checksum_f32(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(percentile(&mut v, 99.9), 100.0);
        assert_eq!(percentile(&mut [3.0], 75.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: ceil(89.1) = 90 at or below p90 leaves 9 beyond.
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert_eq!(highest_supported(12), None);
        assert_eq!(highest_supported(39), None);
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.p50, s.tail), (1000, 500.0, Some((99.0, 990.0))));
        assert_eq!(Summary::of(&mut [2.0, 1.0, 3.0]).tail, None);
    }

    #[test]
    fn checksum_sees_every_bit() {
        let a = checksum_f32([1.0, 2.0]);
        assert_eq!(a, checksum_f32([1.0, 2.0]));
        assert_ne!(a, checksum_f32([2.0, 1.0]));
        assert_ne!(checksum_f32([0.0]), checksum_f32([-0.0]));
    }
}
