//! Order statistics, the tail-percentile rule, and the seeded permutation
//! the harness orders each pass with.

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending `sorted`,
/// and the 1-based rank it sits at. Empty input gives `(0.0, 0)`.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted[rank - 1], rank)
}

/// Median of `values` (nearest rank below the middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).0
}

/// The percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// A latency tail: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// Applies the tail rule to ascending `sorted`. With fewer samples than
/// any rung allows, falls back to the median and reports how few lie
/// beyond it.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let at = |pct: f64| {
        let (value, rank) = percentile(sorted, pct);
        Tail {
            pct,
            value,
            beyond: n - rank,
            samples: n,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(50.0))
}

/// Geometric mean of positive `values` (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `0..n` in the order pass `pass` of a run with `seed` visits it: a
/// Fisher–Yates shuffle driven by splitmix64, so the same seed gives the
/// same order on every host.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = cusync_sim::splitmix64(seed ^ cusync_sim::splitmix64(pass));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = cusync_sim::splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        let t = tail(&ramp(1000));
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 is rank 990 with nine beyond, so p90 (rank 900).
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 900.0, 99));
        // 100 samples: p90 is rank 90, ten beyond.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.beyond), (90.0, 10));
        // 99 samples: p90 rank 90 leaves nine, so p50 (rank 50, 49 beyond).
        let t = tail(&ramp(99));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 50.0, 49));
        // Too few for any rung: the median, with its true count beyond.
        let t = tail(&ramp(5));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 3.0, 2));
    }

    #[test]
    fn every_reported_tail_has_ten_beyond_once_twenty_samples_exist() {
        for n in 20..3000 {
            let t = tail(&ramp(n));
            assert!(t.beyond >= 10, "n={n}: {t:?}");
            // And no higher rung would also qualify.
            for &p in TAIL_LADDER.iter().filter(|&&p| p > t.pct) {
                assert!(n - percentile(&ramp(n), p).1 < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(50, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, pass_order(50, 7, 0));
        assert_ne!(a, pass_order(50, 7, 1));
        assert_ne!(a, pass_order(50, 8, 0));
    }
}
