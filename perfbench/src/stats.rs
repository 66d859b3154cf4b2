//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Harrell–Davis estimate of the `q`-quantile: a Beta-weighted mean of
/// every order statistic. At the few dozen samples a run of Figure-2
/// solves yields, a tail quantile read off one or two order statistics
/// jumps with whichever solves landed there; the weighted mean does not.
/// NaN for an empty sample.
pub fn harrell_davis(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut prev = 0.0;
    let mut est = 0.0;
    for (i, x) in s.iter().enumerate() {
        let cdf = inc_beta((i + 1) as f64 / n, a, b);
        est += (cdf - prev) * x;
        prev = cdf;
    }
    est
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`, by the
/// continued fraction of Numerical Recipes §6.4.
fn inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a - 1.0 + 2.0 * m) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 1.0 + 2.0 * m));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Median over `samples` of `f`'s mean per-call time in seconds, each
/// sample timing enough back-to-back calls to span at least
/// `min_sample_s` — short calls are timed in batches so the clock's
/// resolution does not dominate.
pub fn batched_median_s(samples: usize, min_sample_s: f64, mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((min_sample_s / one).ceil() as usize).clamp(1, 1 << 24);
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(2, 3) = 1 − (1 − x)³(1 + 3x).
        for x in [0.1f64, 0.3, 0.6, 0.9] {
            let exact = 1.0 - (1.0 - x).powi(3) * (1.0 + 3.0 * x);
            assert!((inc_beta(x, 2.0, 3.0) - exact).abs() < 1e-12, "x = {x}");
        }
        assert!((inc_beta(0.5, 7.3, 7.3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_is_a_weighted_quantile() {
        assert_eq!(harrell_davis(&[2.5], 0.9), 2.5);
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!(
            (harrell_davis(&v, 0.5) - 5.0).abs() < 1e-9,
            "symmetric median"
        );
        let p90 = harrell_davis(&v, 0.9);
        assert!(p90 > 7.5 && p90 < 9.0, "p90 = {p90}");
        assert!(harrell_davis(&[], 0.9).is_nan());
    }
}
