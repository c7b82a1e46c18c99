//! Order statistics shared by every workload.

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 if empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The tail percentile for a per-rep sample count of `nominal`: the
/// highest ladder step leaving at least 10 samples beyond it, with a
/// quarter of margin so seed-to-seed variation in the op mix cannot
/// drop below 10. Fixed per workload, so every run reports the same
/// percentile.
pub fn tail_pct(nominal: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .find(|p| nominal as f64 * (1.0 - p / 100.0) >= 12.5)
        .unwrap_or(50.0)
}

/// Median of `v` (mean of the middle pair when even); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly above the `p` nearest-rank position.
    fn beyond(n: usize, p: f64) -> usize {
        n - ((p / 100.0) * n as f64).ceil() as usize
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_pct(200), 90.0);
        assert_eq!(tail_pct(4000), 99.5);
        for n in [50, 200, 300, 1000, 8000] {
            assert!(beyond(n, tail_pct(n)) >= 10, "n={n}");
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
