//! Order statistics with the tail rule: a percentile is reported only
//! when at least ten samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples`, with the number of
/// samples behind it; `Err` when fewer than [`TAIL_SAMPLES`] lie beyond.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + TAIL_SAMPLES {
        return Err(format!(
            "p{} needs {} samples beyond it; {} samples leave {}",
            q * 100.0,
            TAIL_SAMPLES,
            n,
            n.saturating_sub(rank)
        ));
    }
    Ok(v[rank - 1])
}

/// Median (the 50th percentile, tail rule included).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.5)
}

/// Median of a handful of values (no tail rule: used for repeated
/// set-up timings, not for a latency distribution).
pub fn small_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9).unwrap(), 90.0);
        assert!(percentile(&v, 0.99).is_err(), "one sample beyond p99");
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99).unwrap(), 990.0);
        assert_eq!(median(&w).unwrap(), 500.0);
        assert_eq!(small_median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
