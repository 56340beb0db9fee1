//! Differential test for [`CircuitSchedule::check`]: the checker whose
//! capacity test sorts, per edge, every (segment, edge) boundary is kept
//! here as a reference, and the library's single time-ordered sweep must
//! return the same violations — same order, same times, same loads to the
//! bit — on random finite schedules with overloads and ties in time.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail fast on known-good fixtures"
)]

use coflow_core::model::{Coflow, FlowSpec};
use coflow_core::schedule::{CircuitSchedule, FlowSchedule, Segment, Violation};
use coflow_core::Instance;
use coflow_net::{paths, topo, EdgeId, Path};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The checker with a per-edge capacity sweep.
fn check_reference(
    sched: &CircuitSchedule,
    instance: &Instance,
    vol_tol: f64,
    cap_tol: f64,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let g = &instance.graph;
    for (_, flat, spec) in instance.flows() {
        let fs = &sched.flows[flat];
        if spec.size > 1e-12 && !g.is_simple_path(&fs.path, spec.src, spec.dst) {
            v.push(Violation::BadPath { flat });
        }
        let mut prev_end = f64::NEG_INFINITY;
        let mut ok = true;
        for s in &fs.segments {
            if s.end <= s.start || s.rate < -1e-12 || s.start < prev_end - 1e-9 {
                ok = false;
                break;
            }
            prev_end = s.end;
        }
        if !ok {
            v.push(Violation::BadSegments { flat });
            continue;
        }
        if let Some(first) = fs.segments.iter().find(|s| s.rate > 1e-12) {
            if first.start < spec.release - 1e-9 {
                v.push(Violation::ReleaseViolated {
                    flat,
                    start: first.start,
                    release: spec.release,
                });
            }
        }
        let delivered = fs.delivered();
        let scale = 1.0 + spec.size;
        if (delivered - spec.size).abs() / scale > vol_tol {
            v.push(Violation::WrongVolume {
                flat,
                delivered,
                size: spec.size,
            });
        }
    }
    let mut per_edge: Vec<Vec<(f64, f64)>> = vec![Vec::new(); g.edge_count()];
    for fs in &sched.flows {
        for s in &fs.segments {
            if s.rate <= 1e-12 {
                continue;
            }
            for &e in fs.path.edges.iter() {
                per_edge[e.index()].push((s.start, s.rate));
                per_edge[e.index()].push((s.end, -s.rate));
            }
        }
    }
    for (ei, events) in per_edge.iter_mut().enumerate() {
        if events.is_empty() {
            continue;
        }
        let e = EdgeId(ei as u32);
        let cap = g.capacity(e);
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut load = 0.0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            #[allow(
                clippy::float_cmp,
                reason = "exact equality groups events carrying the same stored time"
            )]
            while i < events.len() && events[i].0 == t {
                load += events[i].1;
                i += 1;
            }
            if load > cap * (1.0 + cap_tol) + 1e-9 {
                v.push(Violation::OverCapacity {
                    edge: e,
                    time: t,
                    load,
                    cap,
                });
                break;
            }
        }
    }
    v
}

/// A random finite schedule on a 3×3 grid: shortest, empty or arbitrary
/// (edge-repeating) paths; segment times drawn mostly from a few shared
/// values (±0 included) so boundaries tie across flows; rates large
/// enough to overload edges; now and then a zero-length, reversed or
/// negative-rate segment.
fn problem(seed: u64) -> (Instance, CircuitSchedule, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = topo::grid(3, 3, 1.0);
    let n_coflows = rng.random_range(1usize..8);
    let mut coflows = Vec::with_capacity(n_coflows);
    let mut routes = Vec::new();
    for _ in 0..n_coflows {
        let width = rng.random_range(1usize..6);
        let mut flows = Vec::with_capacity(width);
        for _ in 0..width {
            let src = t.hosts[rng.random_range(0..t.hosts.len())];
            let mut dst = t.hosts[rng.random_range(0..t.hosts.len())];
            while dst == src {
                dst = t.hosts[rng.random_range(0..t.hosts.len())];
            }
            let size = rng.random_range(0.0..3.0);
            let release = if rng.random_bool(0.5) { 0.0 } else { 0.5 };
            flows.push(FlowSpec::new(src, dst, size, release));
            routes.push(match rng.random_range(0..6u32) {
                0 => Path::empty(),
                // Few distinct edges, so they repeat and overlap.
                1 | 2 => Path::new(
                    (0..rng.random_range(1usize..5))
                        .map(|_| EdgeId(rng.random_range(0..4)))
                        .collect(),
                ),
                _ => paths::bfs_shortest_path(&t.graph, src, dst).expect("grid is connected"),
            });
        }
        coflows.push(Coflow::new(1.0, flows));
    }
    let instance = Instance::new(t.graph.clone(), coflows);
    let times = [-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
    let time = |rng: &mut StdRng| {
        if rng.random_bool(0.8) {
            times[rng.random_range(0..times.len())]
        } else {
            rng.random_range(0.0..3.0)
        }
    };
    let flows = routes
        .into_iter()
        .map(|path| {
            let mut segments = Vec::new();
            let mut at = time(&mut rng);
            for _ in 0..rng.random_range(0usize..8) {
                let end = match rng.random_range(0..8u32) {
                    0 => at,
                    1 => at - 0.5,
                    _ => at + time(&mut rng).abs() + 0.25,
                };
                let rate = match rng.random_range(0..8u32) {
                    0 => 0.0,
                    1 => -0.5,
                    2 => 1.0,
                    3 => 0.5,
                    _ => rng.random_range(0.01..1.2),
                };
                segments.push(Segment {
                    start: at,
                    end,
                    rate,
                });
                at = if rng.random_bool(0.7) {
                    end
                } else {
                    time(&mut rng)
                };
            }
            FlowSchedule { path, segments }
        })
        .collect();
    // Large tolerances let loads accumulate over many boundaries before
    // the first report, which exposes the order of the additions.
    let cap_tol = [0.0, 1e-6, 0.1, 1.0, 3.0][rng.random_range(0..5usize)];
    (instance, CircuitSchedule { flows }, cap_tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn check_matches_the_per_edge_reference(seed in 0u64..u64::MAX) {
        let (instance, sched, cap_tol) = problem(seed);
        let new = sched.check(&instance, 1e-6, cap_tol);
        let reference = check_reference(&sched, &instance, 1e-6, cap_tol);
        // Debug output tells -0.0 from 0.0 and prints every float in full.
        prop_assert_eq!(format!("{new:?}"), format!("{reference:?}"));
    }
}

/// The differential test compares capacity reports only if the generator
/// actually overloads edges.
#[test]
fn generated_schedules_overload_edges() {
    let overloaded = (0..200u64)
        .filter(|&seed| {
            let (instance, sched, cap_tol) = problem(seed);
            check_reference(&sched, &instance, 1e-6, cap_tol)
                .iter()
                .any(|x| matches!(x, Violation::OverCapacity { .. }))
        })
        .count();
    assert!(
        overloaded >= 50,
        "{overloaded} of 200 cases overload an edge"
    );
}
