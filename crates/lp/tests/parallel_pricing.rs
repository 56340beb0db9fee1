//! Thread-count invariance of the parallel pricing scan, and the pinned
//! pivot counts of the one pricing rule.
//!
//! The candidate-list refill scan cuts large windows into fixed contiguous
//! sections, one scoped worker per section, and merges the per-section
//! bounded top lists under a total order on the candidate values. That
//! merge is partition-invariant (every global top-`K` element is in its
//! own section's top-`K`), so the pivot sequence — and therefore every
//! solver output — must be byte-identical at any `SolverOptions::threads`.
//! These tests pin that contract: not "close objectives", but identical
//! iteration counts, identical pricing counters, bit-identical objectives
//! and primal values, and equal bases.

use coflow_lp::{Basis, Cmp, Model, Solution, SolverOptions};

/// A degenerate transportation LP: `n x n` assignment-like structure with
/// equality supplies and slack-bearing demand caps. Dual-degenerate enough
/// to exercise candidate-list churn, Bland fallbacks, and refill scans.
fn transport(n: usize) -> Model {
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
fn mixed(seed: u64, n: usize, rows: usize) -> Model {
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

/// A sparse transportation LP with enough rows (`2n >= 1024`) that one
/// refill window (`~4m` columns) reaches the parallel-scan threshold: `n`
/// sources with `deg` outgoing arcs each, equality supplies, capped sinks.
fn sparse_transport(n: usize, deg: usize) -> Model {
    let mut m = Model::new();
    let mut into: Vec<Vec<_>> = vec![vec![]; n];
    for i in 0..n {
        let arcs: Vec<_> = (0..deg)
            .map(|t| {
                let j = (i * 5 + t * 37) % n;
                let v = m.add_nonneg(((i * 7 + t * 13) % 10) as f64 + 1.0, format!("x{i}_{t}"));
                into[j].push((v, 1.0));
                (v, 1.0)
            })
            .collect();
        m.add_row(Cmp::Eq, 1.0 + (i % 3) as f64, &arcs);
    }
    for terms in into.iter().filter(|t| !t.is_empty()) {
        m.add_row(Cmp::Le, 3.0 * terms.len() as f64, terms);
    }
    m
}

fn solve(m: &Model, threads: usize) -> (Solution, Basis) {
    let opts = SolverOptions {
        verify: false,
        threads,
        ..Default::default()
    };
    m.solve_with_basis(&opts).expect("LP must solve")
}

/// Asserts byte-identical solver outputs (not approximate agreement).
fn assert_identical(label: &str, a: &(Solution, Basis), b: &(Solution, Basis), threads: usize) {
    let ctx = format!("{label}: threads={threads} vs 1");
    assert_eq!(
        a.0.objective.to_bits(),
        b.0.objective.to_bits(),
        "{ctx}: objective bits differ"
    );
    assert_eq!(a.0.stats.iterations, b.0.stats.iterations, "{ctx}: pivots");
    assert_eq!(
        a.0.stats.pricing_full_scans, b.0.stats.pricing_full_scans,
        "{ctx}: full scans"
    );
    assert_eq!(
        a.0.stats.pricing_list_hits, b.0.stats.pricing_list_hits,
        "{ctx}: list hits"
    );
    assert_eq!(a.0.values.len(), b.0.values.len(), "{ctx}: value count");
    for (j, (x, y)) in a.0.values.iter().zip(&b.0.values).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: value {j} bits differ");
    }
    assert_eq!(a.1, b.1, "{ctx}: bases differ");
}

/// Identical pivot sequence and outputs at 1/2/4/8 threads on a
/// degenerate transport LP (heavy list churn + refills).
#[test]
fn pricing_thread_invariant_on_transport() {
    let m = transport(24);
    let base = solve(&m, 1);
    assert!(base.0.stats.pricing_list_hits > 0, "list must serve pivots");
    assert_eq!(base.0.stats.threads, 1);
    for threads in [2, 4, 8] {
        let sol = solve(&m, threads);
        assert_eq!(sol.0.stats.threads, threads, "threads stat must record");
        assert_identical("transport", &sol, &base, threads);
    }
}

/// Thread invariance across a family of mixed-row LPs (bounded variables,
/// all row senses).
#[test]
fn pricing_thread_invariant_on_mixed_lps() {
    for seed in 0..12u64 {
        let m = mixed(seed, 40, 18);
        let base = solve(&m, 1);
        for threads in [2, 4, 8] {
            let sol = solve(&m, threads);
            assert_identical(&format!("mixed[{seed}]"), &sol, &base, threads);
        }
    }
}

/// An LP large enough (`4m >= 4096` columns per refill window) that the
/// scan is genuinely cut into multiple worker sections: the sectioned
/// merge must reproduce the serial scan bit-for-bit.
#[test]
fn sectioned_refill_scan_matches_serial() {
    let m = sparse_transport(512, 8); // 1024 rows: windows of 4096 columns
    let base = solve(&m, 1);
    assert!(base.0.stats.rows >= 1024, "sections must engage");
    for threads in [2, 4, 8] {
        let sol = solve(&m, threads);
        assert_identical("sparse-transport", &sol, &base, threads);
    }
}

/// The refactor guard of the PR that made candidate-list devex the only
/// pricing rule: `(pivots, phase-1 pivots, refactorizations, objective
/// bits)` recorded at the parent commit with its (then optional)
/// candidate pricing mode selected, at 1 and at 4 threads. Any drift means
/// the pivot sequence changed.
#[test]
fn single_rule_reproduces_candidate_counts() {
    const TRANSPORT_30: (usize, usize, usize, u64) = (271, 147, 4, 0x404e_0000_0000_0000);
    const MIXED: [(usize, usize, usize, u64); 12] = [
        (42, 30, 2, 0xc03a_226a_8f4a_9f9e),
        (60, 16, 3, 0xc050_e9b0_8ad9_521f),
        (45, 29, 2, 0xc03c_249a_40c9_4710),
        (50, 12, 2, 0xc054_a811_8a84_05d9),
        (43, 17, 2, 0xc04e_bcf3_0eef_b740),
        (45, 11, 2, 0xc04a_ef72_87d0_1051),
        (26, 12, 2, 0xc037_31fd_d0d1_5460),
        (29, 13, 2, 0xc006_74aa_8c34_54c4),
        (52, 14, 2, 0xc04d_1a7c_04e4_27ca),
        (44, 14, 2, 0xc04c_3b49_aac9_2073),
        (61, 15, 3, 0xc04d_f7da_4534_3890),
        (54, 13, 2, 0xc044_fb72_510b_35f6),
    ];
    let counts = |m: &Model, threads: usize| {
        let s = solve(m, threads).0;
        (
            s.stats.iterations,
            s.stats.phase1_iterations,
            s.stats.refactorizations,
            s.objective.to_bits(),
        )
    };
    for threads in [1, 4] {
        assert_eq!(
            counts(&transport(30), threads),
            TRANSPORT_30,
            "transport(30), threads={threads}"
        );
        for (seed, want) in MIXED.iter().enumerate() {
            assert_eq!(
                counts(&mixed(seed as u64, 40, 18), threads),
                *want,
                "mixed[{seed}], threads={threads}"
            );
        }
    }
}

/// Under the logical clock the rendered trace depends only on the
/// *sequence* of recording calls, and the pivot sequence is already
/// thread-invariant (the tests above), so the whole JSONL trace — spans,
/// accumulators, counters, histograms — must be byte-identical at any
/// thread count.
#[test]
fn logical_clock_traces_byte_identical_across_threads() {
    let trace_at = |threads: usize| {
        let m = transport(24);
        let mut chain = coflow_lp::WarmChain::new();
        chain.obs().set_mode(coflow_obs::ClockMode::Logical);
        let opts = SolverOptions {
            verify: false,
            threads,
            ..Default::default()
        };
        chain.solve(&m, &opts).expect("LP must solve");
        chain.take_trace().render_jsonl()
    };
    let base = trace_at(1);
    assert!(!base.is_empty(), "trace must not be empty");
    for threads in [2, 4] {
        let t = trace_at(threads);
        assert_eq!(t, base, "threads={threads}: trace bytes differ from serial");
    }
}
