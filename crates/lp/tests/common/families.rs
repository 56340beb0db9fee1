//! The fixed LP families whose pivot counts `pinned_counts.rs` pins. The
//! `coflow-lp` unit tests include this file too (by `#[path]`), to audit
//! the pivot loop's duals on the same LPs; the including module provides
//! `Cmp` and `Model`.

use super::{Cmp, Model};

/// A degenerate transportation LP: `n x n` assignment-like structure with
/// equality supplies and slack-bearing demand caps. Dual-degenerate enough
/// to exercise candidate-list churn, Bland fallbacks, and refill scans.
pub fn transport(n: usize) -> Model {
    let mut m = Model::new();
    let mut vars = vec![vec![]; n];
    for (i, row) in vars.iter_mut().enumerate() {
        for j in 0..n {
            row.push(m.add_nonneg(((i * 7 + j * 13) % 10) as f64 + 1.0, format!("x{i}_{j}")));
        }
    }
    let total: f64 = (0..n).map(|i| 1.0 + (i % 3) as f64).sum();
    for (i, row) in vars.iter().enumerate() {
        let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_row(Cmp::Eq, 1.0 + (i % 3) as f64, &terms);
    }
    for j in 0..n {
        let terms: Vec<_> = vars.iter().map(|row| (row[j], 1.0)).collect();
        m.add_row(Cmp::Le, total / n as f64 + 1.0, &terms);
    }
    m
}

/// A small mixed-row LP family parameterized by a seed: bounded variables,
/// all three row senses, deterministic pseudo-random data.
pub fn mixed(seed: u64, n: usize, rows: usize) -> Model {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut m = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|j| {
            m.add_var(
                next() * 10.0 - 5.0,
                0.0,
                0.5 + next() * 5.0,
                format!("x{j}"),
            )
        })
        .collect();
    for r in 0..rows {
        let cmp = match r % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .filter(|(j, _)| (j + r) % 3 != 0)
            .map(|(_, &v)| (v, next() * 6.0 - 3.0))
            .collect();
        let rhs = match cmp {
            Cmp::Ge => -(next() * 2.0),
            _ => next() * 8.0,
        };
        m.add_row(cmp, rhs, &terms);
    }
    m
}

/// A packet-shaped LP after the paper's §3.2 path-choice LP: `packets`
/// packets, each with three candidate paths of 2–4 of 12 edges, and an
/// interval grid `τ_l = 2^l` of `intervals` intervals. Unit variables
/// `x[p][k][l]` (packet `p` finishes on path `k` in interval `l`, from the
/// first interval long enough for the path), one assignment row per packet,
/// one completion row per packet against a weighted completion variable,
/// and the cumulative congestion rows per edge and interval that can bind.
pub fn packet(seed: u64, packets: usize, intervals: usize) -> Model {
    const EDGES: usize = 12;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move |k: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as usize % k
    };
    let tau = |l: usize| (1u64 << l) as f64;
    let mut m = Model::new();
    // (path edges, first interval, variables from there on) per candidate.
    let mut cands = Vec::new();
    for p in 0..packets {
        let mut paths = Vec::new();
        for k in 0..3 {
            let mut edges: Vec<usize> = Vec::new();
            while edges.len() < 2 + next(3) {
                let e = next(EDGES);
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
            let first = (0..intervals)
                .find(|&l| tau(l + 1) >= edges.len() as f64)
                .unwrap_or(intervals);
            let vars: Vec<_> = (first..intervals)
                .map(|l| m.add_unit(0.0, format!("x{p}_{k}_{l}")))
                .collect();
            paths.push((edges, first, vars));
        }
        let weight = 1.0 + next(3) as f64;
        let c = m.add_var(weight, 2.0, f64::INFINITY, format!("c{p}"));
        let terms: Vec<_> = paths
            .iter()
            .flat_map(|(_, _, vars)| vars.iter().map(|&v| (v, 1.0)))
            .collect();
        m.add_row(Cmp::Eq, 1.0, &terms);
        let mut terms: Vec<_> = paths
            .iter()
            .flat_map(|(_, first, vars)| (*first..).zip(vars).map(|(l, &v)| (v, tau(l))))
            .collect();
        terms.push((c, -1.0));
        m.add_row(Cmp::Le, 0.0, &terms);
        cands.push(paths);
    }
    for l in 0..intervals {
        for e in 0..EDGES {
            let terms: Vec<_> = cands
                .iter()
                .flatten()
                .filter(|(edges, _, _)| edges.contains(&e))
                .flat_map(|(_, first, vars)| vars.iter().take((l + 1).saturating_sub(*first)))
                .map(|&v| (v, 1.0))
                .collect();
            if terms.len() as f64 > tau(l + 1) {
                m.add_row(Cmp::Le, tau(l + 1), &terms);
            }
        }
    }
    m
}
