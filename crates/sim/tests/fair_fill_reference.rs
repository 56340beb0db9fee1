//! Differential test for [`fair_fill`]: the progressive filling that
//! rescans every active flow and every edge in every round is kept here as
//! a reference, and the library's rounds over the live edges must write
//! the same `rates` and `residual`, bit for bit. The problems cover both
//! ways the library keeps its edge weight sums: subtracting frozen weights
//! (integral weights, exact sums) and re-summing (fractional weights, or
//! integral ones whose sums pass 2^53 and round).

use coflow_net::{EdgeId, Path};
use coflow_sim::fluid::fair_fill;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Weighted progressive filling over all `active` flows and all edges per
/// round, with a fresh weight-sum vector each round.
fn fair_fill_reference(
    paths: &[Path],
    active: &[usize],
    weights: Option<&[f64]>,
    rates: &mut [f64],
    residual: &mut [f64],
) {
    let nf = rates.len();
    let w = |f: usize| weights.map(|w| w[f]).unwrap_or(1.0);
    let mut frozen = vec![true; nf];
    for &f in active {
        frozen[f] = w(f) <= 0.0;
    }
    loop {
        let mut wsum = vec![0.0_f64; residual.len()];
        let mut any = false;
        for &f in active {
            if frozen[f] {
                continue;
            }
            any = true;
            for e in paths[f].edges.iter() {
                wsum[e.index()] += w(f);
            }
        }
        if !any {
            break;
        }
        let mut delta = f64::INFINITY;
        for (e, &s) in wsum.iter().enumerate() {
            if s > 0.0 {
                delta = delta.min(residual[e] / s);
            }
        }
        if !delta.is_finite() {
            break;
        }
        if delta <= 1e-12 {
            delta = delta.max(0.0);
        }
        for (e, &s) in wsum.iter().enumerate() {
            if s > 0.0 {
                residual[e] -= delta * s;
            }
        }
        let mut progressed = false;
        for &f in active {
            if frozen[f] {
                continue;
            }
            rates[f] += delta * w(f);
            if paths[f].edges.iter().any(|e| residual[e.index()] <= 1e-9) {
                frozen[f] = true;
                progressed = true;
            }
        }
        if !progressed && delta <= 1e-12 {
            for &f in active {
                frozen[f] = true;
            }
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A random fill problem: paths that may be empty, repeat an edge or be
/// shared by several flows; a shuffled subset of the flows active; weights
/// of the given kind: 0 mixed (possibly 0 or fractional), 1 integral, 2
/// integral with sums past 2^53; residuals that may start saturated; rates
/// that may already hold a value.
#[allow(
    clippy::type_complexity,
    reason = "the five parallel vectors are the fill's own arguments"
)]
fn problem(seed: u64, kind: u32) -> (Vec<Path>, Vec<usize>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ne = rng.random_range(1usize..12);
    let nf = rng.random_range(1usize..20);
    let mut paths: Vec<Path> = Vec::with_capacity(nf);
    for f in 0..nf {
        if f > 0 && rng.random_bool(0.25) {
            let shared = paths[rng.random_range(0..f)].clone();
            paths.push(shared);
        } else {
            let len = rng.random_range(0usize..6);
            let edges = (0..len)
                .map(|_| EdgeId(rng.random_range(0..ne as u32)))
                .collect();
            paths.push(Path::new(edges));
        }
    }
    let mut active: Vec<usize> = (0..nf).filter(|_| rng.random_bool(0.8)).collect();
    active.shuffle(&mut rng);
    let weights = (0..nf)
        .map(|_| match (kind, rng.random_range(0..4u32)) {
            // Mixed: zero, unit and fractional weights.
            (0, 0) => 0.0,
            (0, 1) => 1.0,
            (0, _) => rng.random_range(0.05..5.0),
            // `1 + small integer`, as the workload generator draws coflow
            // weights: every weight sum is an exact integer.
            (1, _) => f64::from(1 + rng.random_range(1..6u32)),
            // 2^52 among small integers: sums pass 2^53 and round.
            (_, 0 | 1) => 4_503_599_627_370_496.0,
            (_, _) => f64::from(1 + rng.random_range(0..6u32)),
        })
        .collect();
    let residual = (0..ne)
        .map(|_| match rng.random_range(0..6u32) {
            0 => 0.0,
            1 => 1e-10,
            2 => 1e-9,
            3 => 1.0,
            _ => rng.random_range(0.01..3.0),
        })
        .collect();
    let rates = (0..nf)
        .map(|_| {
            if rng.random_bool(0.2) {
                rng.random_range(0.0..1.0)
            } else {
                0.0
            }
        })
        .collect();
    (paths, active, weights, residual, rates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fair_fill_matches_the_all_flows_reference_bit_for_bit(seed in 0u64..u64::MAX) {
        for kind in 0..3 {
            let (paths, active, weights, residual, rates) = problem(seed, kind);
            for w in [None, Some(&weights[..])] {
                let (mut rates_new, mut residual_new) = (rates.clone(), residual.clone());
                let (mut rates_ref, mut residual_ref) = (rates.clone(), residual.clone());
                fair_fill(&paths, &active, w, &mut rates_new, &mut residual_new);
                fair_fill_reference(&paths, &active, w, &mut rates_ref, &mut residual_ref);
                prop_assert_eq!(bits(&rates_new), bits(&rates_ref));
                prop_assert_eq!(bits(&residual_new), bits(&residual_ref));
            }
        }
    }
}
