//! Failure-injection tests for the feasibility checkers: take a known-good
//! schedule produced by the pipeline and verify that every class of
//! corruption is caught. A checker that accepts everything would make all
//! the other tests meaningless, so this file is the test of the tests.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail fast on known-good fixtures"
)]

use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};
use coflow_core::schedule::{Segment, Violation};
use proptest::prelude::*;

fn good_run() -> (Instance, coflow::sim::fluid::SimOutcome) {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 3,
            width: 3,
            size_mean: 3.0,
            seed: 99,
            ..Default::default()
        },
    );
    let bcfg = BaselineConfig::default();
    let s = baselines::route_only(&inst, &bcfg);
    let out = simulate(&inst, &s.paths, &s.order, &SimConfig::default());
    assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    (inst, out)
}

#[test]
fn rate_inflation_caught_as_overcapacity_or_volume() {
    let (inst, out) = good_run();
    let mut bad = out.schedule.clone();
    // Double every rate of flow 0: delivers 2x the demand and may blow
    // the capacity of shared edges.
    for s in bad.flows[0].segments.iter_mut() {
        s.rate *= 2.0;
    }
    let v = bad.check(&inst, 1e-6, 1e-6);
    assert!(!v.is_empty());
    assert!(v.iter().any(|x| matches!(
        x,
        Violation::WrongVolume { flat: 0, .. } | Violation::OverCapacity { .. }
    )));
}

#[test]
fn time_shift_before_release_caught() {
    let (inst, out) = good_run();
    // Find a flow with a positive release.
    let (flat, spec) = inst
        .flows()
        .map(|(_, flat, spec)| (flat, spec.clone()))
        .find(|(_, s)| s.release > 0.1)
        .expect("generator produces positive releases");
    let mut bad = out.schedule.clone();
    let shift = spec.release + 0.05;
    for s in bad.flows[flat].segments.iter_mut() {
        s.start = (s.start - shift).max(0.0);
        s.end = (s.end - shift).max(s.start + 1e-6);
    }
    let v = bad.check(&inst, 1e-6, 1e-2);
    assert!(
        v.iter().any(|x| matches!(
            x,
            Violation::ReleaseViolated { .. } | Violation::WrongVolume { .. }
        )),
        "shifting a flow before its release must be flagged: {v:?}"
    );
}

#[test]
fn path_swap_caught() {
    let (inst, out) = good_run();
    let mut bad = out.schedule.clone();
    // Give flow 0 flow 1's path (wrong endpoints with overwhelming
    // probability on random instances).
    bad.flows[0].path = bad.flows[1].path.clone();
    let spec0 = inst.flow(inst.id_of_flat(0));
    let spec1 = inst.flow(inst.id_of_flat(1));
    if spec0.src != spec1.src || spec0.dst != spec1.dst {
        let v = bad.check(&inst, 1e-6, 1e-6);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::BadPath { flat: 0 })));
    }
}

#[test]
fn overlapping_segments_caught() {
    let (inst, out) = good_run();
    let mut bad = out.schedule.clone();
    let seg = Segment {
        start: 0.0,
        end: 1.0,
        rate: 0.1,
    };
    bad.flows[2].segments.insert(0, seg);
    bad.flows[2].segments.insert(
        0,
        Segment {
            start: 0.5,
            end: 0.7,
            rate: 0.1,
        },
    );
    let v = bad.check(&inst, 1e-1, 1e-6); // generous volume tol: isolate ordering
    assert!(v
        .iter()
        .any(|x| matches!(x, Violation::BadSegments { flat: 2 })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized corruption: scaling any single flow's rates by a factor
    /// far from 1 must always be caught (volume mismatch at minimum).
    #[test]
    fn any_rate_scaling_caught(flat_pick in 0usize..9, factor in prop_oneof![0.1f64..0.7, 1.4f64..3.0]) {
        let (inst, out) = good_run();
        let flat = flat_pick % inst.flow_count();
        let mut bad = out.schedule.clone();
        if bad.flows[flat].segments.is_empty() {
            return Ok(());
        }
        for s in bad.flows[flat].segments.iter_mut() {
            s.rate *= factor;
        }
        let v = bad.check(&inst, 1e-3, 1e9); // only volume checked here
        prop_assert!(
            v.iter().any(|x| matches!(x, Violation::WrongVolume { .. })),
            "scaling rates by {factor} must break delivered volume"
        );
    }

    /// Packet-schedule corruption: delaying one move behind the next one
    /// breaks route contiguity and must be caught.
    #[test]
    fn packet_move_reorder_caught(seed in 0u64..200) {
        let topo = coflow::net::topo::grid(3, 3, 1.0);
        let inst = coflow::workloads::gen::generate_packets(
            &topo,
            &GenConfig { n_coflows: 2, width: 2, seed, ..Default::default() },
        );
        let routes: Vec<_> = inst
            .flows()
            .map(|(_, _, f)| {
                coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap()
            })
            .collect();
        let out = simulate_packets(&inst, &routes, &Priority::identity(inst.flow_count()));
        prop_assert!(out.schedule.check(&inst).is_empty());
        // Corrupt: pick the first packet with >= 2 moves and swap the
        // depart times of its first two moves.
        let mut bad = out.schedule.clone();
        if let Some(p) = bad.packets.iter_mut().find(|p| p.len() >= 2) {
            let (a, b) = (p[0].depart, p[1].depart);
            p[0].depart = b;
            p[1].depart = a;
            let v = bad.check(&inst);
            prop_assert!(!v.is_empty(), "swapped departs must violate ordering");
        }
    }
}

/// Overwrites one field of the last segment of the first flow that has a
/// segment, checks the result and returns that flow's flat index with the
/// violations. A non-finite segment must come back as `BadSegments`, not
/// hang the capacity sweep or pass unnoticed; being last, no later
/// segment's overlap test can catch it instead.
fn check_with_last_segment(edit: impl Fn(&mut Segment)) -> (usize, Vec<Violation>) {
    let (inst, out) = good_run();
    let mut bad = out.schedule.clone();
    let flat = bad
        .flows
        .iter()
        .position(|f| !f.segments.is_empty())
        .expect("the good run schedules some flow");
    let last = bad.flows[flat].segments.len() - 1;
    edit(&mut bad.flows[flat].segments[last]);
    (flat, bad.check(&inst, 1e-6, 1e-6))
}

fn reports_bad_segments(flat: usize, v: &[Violation]) -> bool {
    v.iter()
        .any(|x| matches!(x, Violation::BadSegments { flat: f } if *f == flat))
}

#[test]
fn nan_segment_start_caught() {
    let (flat, v) = check_with_last_segment(|s| s.start = f64::NAN);
    assert!(reports_bad_segments(flat, &v), "{v:?}");
}

#[test]
fn nan_segment_end_caught() {
    let (flat, v) = check_with_last_segment(|s| s.end = f64::NAN);
    assert!(reports_bad_segments(flat, &v), "{v:?}");
}

#[test]
fn nan_segment_rate_caught() {
    let (flat, v) = check_with_last_segment(|s| s.rate = f64::NAN);
    assert!(reports_bad_segments(flat, &v), "{v:?}");
}

#[test]
fn infinite_segment_end_caught() {
    let (flat, v) = check_with_last_segment(|s| s.end = f64::INFINITY);
    assert!(reports_bad_segments(flat, &v), "{v:?}");
}
