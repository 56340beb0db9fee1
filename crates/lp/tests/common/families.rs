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
