//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile used, e.g. 99.0.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Percentiles a tail may be reported at, highest first. p99.9 is left
/// out: on a shared host the slowest 0.1% of sub-millisecond requests
/// are hypervisor preemptions, which moved it threefold between
/// identical runs.
const TAIL_PCTS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest of p99/p95/p90/p75 that still has at least ten samples
/// beyond it; the median itself when the sample is too small for any.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    for pct in TAIL_PCTS {
        let rank = rank(pct, n);
        if n - rank >= 10 {
            return Tail {
                pct,
                value: s[rank - 1],
                n,
                beyond: n - rank,
            };
        }
    }
    Tail {
        pct: 50.0,
        value: median(xs),
        n,
        beyond: n / 2,
    }
}

/// Nearest-rank position (1-based) of percentile `pct` among `n`.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
        let xs: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 99.0, "never beyond p99");
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(
            (t.pct, t.value),
            (50.0, 6.5),
            "small samples report the median"
        );
    }
}
