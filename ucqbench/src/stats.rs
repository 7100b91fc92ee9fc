//! Order statistics over latency samples.

/// Sorts in place (total order; samples are finite durations).
fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// The median of unsorted samples (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The interquartile mean of unsorted samples: the mean of the middle
/// half (all of them below four samples).
pub fn iq_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    assert!(!s.is_empty(), "mean of no samples");
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank quantile `q ∈ [0, 1]` of unsorted samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    assert!(!s.is_empty(), "quantile of no samples");
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples per tail window. A window's tail is its p95: the highest
/// percentile with ten samples beyond it. On a shared host a higher
/// percentile tracks other tenants' stalls more than this program.
pub const TAIL_WINDOW: usize = 200;

/// A tail latency and what it was taken over.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    /// Windows of [`TAIL_WINDOW`] samples the value is the median of (1 for
    /// a run shorter than one window).
    pub windows: usize,
}

/// The highest percentile of `v` with at least ten samples beyond it, and
/// that percentile. With fewer than eleven samples there is none; the
/// minimum is returned.
fn ten_beyond(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    assert!(!s.is_empty(), "tail of no samples");
    let k = s.len().saturating_sub(11);
    (s[k], 100.0 * (k + 1) as f64 / s.len() as f64)
}

/// The tail of samples in arrival order. A run of at least one window
/// reports the median over its consecutive whole windows of each window's
/// p95, so a host stall that hits a few windows does not decide the
/// figure; a shorter run reports its own highest percentile with ten
/// samples beyond it.
pub fn tail(v: &[f64]) -> Tail {
    if v.len() < TAIL_WINDOW {
        let (value, percentile) = ten_beyond(v);
        return Tail {
            value,
            percentile,
            samples: v.len(),
            windows: 1,
        };
    }
    let per_window: Vec<f64> = v
        .chunks_exact(TAIL_WINDOW)
        .map(|w| ten_beyond(w).0)
        .collect();
    Tail {
        value: median(&per_window),
        percentile: ten_beyond(&v[..TAIL_WINDOW]).1,
        samples: v.len(),
        windows: per_window.len(),
    }
}

/// Least-squares slope of `ln y` over `ln x`.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iq_mean(&[100.0, 2.0, 1.0, 3.0, 4.0, 0.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        let t = tail(&v);
        assert_eq!((t.value, t.samples), (90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // Five windows whose p95s are 190, 390, ... 990.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.value, t.percentile, t.windows), (590.0, 95.0, 5));
        let line: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&x| (x, 3.0 * x)).collect();
        assert!((log_log_slope(&line) - 1.0).abs() < 1e-12);
    }
}
