//! Distribution samplers built on `rand`'s uniform source.
//!
//! The dependency budget deliberately excludes `rand_distr`; Poisson and
//! exponential sampling are a few lines each and implementing them in-tree
//! keeps the workload generator auditable.

use rand::RngExt;

/// Samples `Poisson(lambda)` by Knuth's product method, splitting large
/// `lambda` to avoid `exp(-lambda)` underflow (valid because a Poisson of
/// sum-parameter is the sum of independent Poissons).
///
/// # Panics
/// If `lambda` is negative or non-finite.
pub fn poisson<R: RngExt + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "need lambda >= 0, got {lambda}"
    );
    // lint: allow(float_cmp) — exact zero short-circuit, not a tolerance decision
    if lambda == 0.0 {
        return 0;
    }
    let mut remaining = lambda;
    let mut total = 0u64;
    const CHUNK: f64 = 30.0;
    while remaining > CHUNK {
        total += poisson_knuth(rng, CHUNK);
        remaining -= CHUNK;
    }
    total + poisson_knuth(rng, remaining)
}

fn poisson_knuth<R: RngExt + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    let limit = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0_f64;
    loop {
        p *= rng.random::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// Samples `Exponential(rate)` by inversion (mean `1 / rate`).
///
/// # Panics
/// If `rate <= 0` or non-finite.
pub fn exponential<R: RngExt + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "need rate > 0, got {rate}");
    let u: f64 = rng.random::<f64>();
    // u in [0,1); 1-u in (0,1] avoids ln(0).
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(42);
        for &lambda in &[0.5, 3.0, 12.0, 75.0] {
            let n = 20_000;
            let samples: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            let tol = 5.0 * (lambda / n as f64).sqrt() + 0.05;
            assert!((mean - lambda).abs() < tol, "lambda={lambda}: mean {mean}");
            // Poisson variance = lambda.
            assert!(
                (var - lambda).abs() < 6.0 * tol * lambda.max(1.0).sqrt(),
                "lambda={lambda}: var {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let rate = 0.25;
        let n = 50_000;
        let mean = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn exponential_nonnegative() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(exponential(&mut rng, 2.0) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "lambda >= 0")]
    fn poisson_negative_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        poisson(&mut rng, -1.0);
    }

    #[test]
    #[should_panic(expected = "rate > 0")]
    fn exponential_zero_rate_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..32).map(|_| poisson(&mut rng, 4.0)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..32).map(|_| poisson(&mut rng, 4.0)).collect()
        };
        assert_eq!(a, b);
    }
}
