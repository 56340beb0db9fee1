//! Order statistics. `quartiles` follows Python's
//! `statistics.quantiles(values, n=4)` (exclusive method), so spreads
//! computed here match the ones the benchmark driver computes.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)`; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 1, "quartiles of no values");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // 1-based position k(n+1)/4 with the rank clamped to the data; like
        // Python, the line through the two ranks is followed past them.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median (0 for one value).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
