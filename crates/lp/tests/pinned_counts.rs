//! Pinned pivot counts of the one pricing rule: `(pivots, phase-1 pivots,
//! refactorizations, objective bits)` of fixed LPs. The pivot sequence is
//! a pure function of the model, so any drift in these tuples means the
//! sequence changed — not "close objectives", but the same pivots.

use coflow_lp::{Cmp, Model, Solution, SolverOptions};

#[path = "common/families.rs"]
mod families;
use families::{mixed, packet, transport};

/// A sparse transportation LP with enough rows (`2n >= 1024`) that one
/// refill window (`~4m` columns) is 4096 columns wide: `n` sources with
/// `deg` outgoing arcs each, equality supplies, capped sinks.
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

fn solve(m: &Model) -> Solution {
    let opts = SolverOptions {
        verify: false,
        ..Default::default()
    };
    m.solve_with(&opts).expect("LP must solve")
}

fn counts(m: &Model) -> (usize, usize, usize, u64) {
    let s = solve(m);
    assert!(
        s.stats.pricing_list_hits > 0,
        "the candidate list must serve pivots"
    );
    (
        s.stats.iterations,
        s.stats.phase1_iterations,
        s.stats.refactorizations,
        s.objective.to_bits(),
    )
}

/// The only LP here whose refill windows are 4096 columns wide, so the
/// widest scans a pricing change would touch are pinned too.
#[test]
fn wide_window_transport_reproduces_counts() {
    let m = sparse_transport(512, 8); // 1024 rows: windows of 4096 columns
    assert_eq!(m.num_rows(), 1024, "windows must be 4096 columns wide");
    assert_eq!(counts(&m), (972, 512, 10, 0x4093_2c00_0000_0000));
}

/// The refactor guard of the change that made candidate-list devex the
/// only pricing rule: `(pivots, phase-1 pivots, refactorizations,
/// objective bits)` recorded with the then optional candidate pricing mode
/// selected. Any drift means the pivot sequence changed. `transport(30)`
/// moved from `(271, 147, 4)` when the pivot loop began to update the
/// duals instead of re-solving them (its objective bits did not).
#[test]
fn single_rule_reproduces_candidate_counts() {
    const TRANSPORT_30: (usize, usize, usize, u64) = (268, 152, 4, 0x404e_0000_0000_0000);
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
    assert_eq!(counts(&transport(30)), TRANSPORT_30, "transport(30)");
    for (seed, want) in MIXED.iter().enumerate() {
        assert_eq!(counts(&mixed(seed as u64, 40, 18)), *want, "mixed[{seed}]");
    }
}

/// A packet-shaped LP (the §3.2 path-choice structure), pinned like the
/// families above. Most of its basis changes update the maintained
/// reduced costs row-wise.
#[test]
fn packet_lp_reproduces_counts() {
    assert_eq!(
        counts(&packet(3, 24, 5)),
        (188, 111, 8, 0x4057_0000_0000_0000)
    );
}
