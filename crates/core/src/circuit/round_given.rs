//! α-point rounding for circuit coflows with given paths (§2.1, Rounding).
//!
//! Each connection request is scheduled to run *entirely* inside the `D`-th
//! interval after its α-interval. Within a target interval, every member
//! flow gets a constant bandwidth proportional to its size; if the summed
//! loads exceed an edge capacity the whole interval is *stretched* by the
//! overload factor — this is the same scale-bandwidth/stretch-time step the
//! paper applies after rounding, and it makes the produced schedule feasible
//! **by construction** (the checker in [`crate::schedule`] verifies it in
//! tests). The theory (Eq. 12–14) bounds the stretch by a constant
//! (≈ 17.54 total with `α = 1/2`, `D = 3`, `ε ≈ 0.5436`); we also report
//! the stretch actually incurred.

use crate::circuit::lp_given::CircuitLpSolution;
use crate::model::Instance;
use crate::objective::{metrics, Metrics};
use crate::schedule::{CircuitSchedule, FlowSchedule, Segment};

/// Rounding parameters (defaults are the paper's optimized constants).
#[derive(Clone, Debug)]
pub struct RoundingConfig {
    /// The α of the α-point (paper: 0.5).
    pub alpha: f64,
    /// Displacement `D >= 1` (paper: 3).
    pub displacement: usize,
}

impl Default for RoundingConfig {
    fn default() -> Self {
        Self {
            alpha: crate::PAPER_ALPHA,
            displacement: crate::PAPER_DISPLACEMENT,
        }
    }
}

/// Output of the rounding step.
#[derive(Clone, Debug)]
pub struct RoundedSchedule {
    /// The feasible schedule.
    pub schedule: CircuitSchedule,
    /// α-interval per flow (flat order).
    pub alpha_interval: Vec<usize>,
    /// Target interval (`α-interval + D`) per flow.
    pub target_interval: Vec<usize>,
    /// Largest per-interval stretch factor applied (1.0 = no stretching).
    pub max_stretch: f64,
    /// Objective metrics of the realized schedule.
    pub metrics: Metrics,
}

/// `τ_k` for an arbitrary (possibly beyond-grid) index under growth `1+ε`.
fn tau(eps: f64, k: usize) -> f64 {
    if k == 0 {
        0.0
    } else {
        (1.0 + eps).powi(k as i32 - 1)
    }
}

/// Rounds an LP solution into a feasible [`CircuitSchedule`].
///
/// # Panics
/// If the instance lacks paths, or `cfg.displacement == 0` (displacement
/// `>= 1` is required for release times to be respected: the target window
/// starts at `τ_{h+D} >= τ_{h+1} >= r_f`).
pub fn round_given_paths(
    instance: &Instance,
    lp: &CircuitLpSolution,
    cfg: &RoundingConfig,
) -> RoundedSchedule {
    assert!(instance.has_all_paths());
    assert!(cfg.displacement >= 1, "displacement must be >= 1");
    assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
    let eps = lp.grid.eps;
    let nf = instance.flow_count();

    let mut alpha_interval = vec![0usize; nf];
    let mut target_interval = vec![0usize; nf];
    let mut max_k = 0usize;
    for flat in 0..nf {
        let h = lp.alpha_interval(flat, cfg.alpha);
        alpha_interval[flat] = h;
        target_interval[flat] = h + cfg.displacement;
        max_k = max_k.max(target_interval[flat]);
    }

    // Group flows by target interval.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); max_k + 1];
    for flat in 0..nf {
        groups[target_interval[flat]].push(flat);
    }

    let g = &instance.graph;
    #[expect(
        clippy::unwrap_used,
        reason = "has_all_paths() is asserted at function entry"
    )]
    let mut schedule = CircuitSchedule {
        flows: instance
            .flows()
            .map(|(_, _, spec)| FlowSchedule {
                path: spec.path.clone().unwrap(),
                segments: Vec::new(),
            })
            .collect(),
    };
    let mut max_stretch = 1.0_f64;
    let mut cursor = 0.0_f64;

    let mut edge_load = vec![0.0_f64; g.edge_count()];
    for (k, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let len = tau(eps, k + 1) - tau(eps, k);
        // Edge loads at the nominal per-flow rate σ/len.
        edge_load.fill(0.0);
        for &flat in group {
            let spec = instance.flow(instance.id_of_flat(flat));
            if spec.size <= 0.0 {
                continue;
            }
            let rate = spec.size / len;
            for &e in schedule.flows[flat].path.edges.iter() {
                edge_load[e.index()] += rate;
            }
        }
        let mut stretch = 1.0_f64;
        #[expect(
            clippy::panic,
            reason = "a loaded zero-capacity edge is a malformed instance"
        )]
        for e in g.edges() {
            let cap = g.capacity(e);
            if cap > 0.0 {
                stretch = stretch.max(edge_load[e.index()] / cap);
            } else if edge_load[e.index()] > 0.0 {
                panic!("flow routed through zero-capacity edge {e:?}");
            }
        }
        max_stretch = max_stretch.max(stretch);

        let start = tau(eps, k).max(cursor);
        let duration = len * stretch;
        let end = start + duration;
        for &flat in group {
            let spec = instance.flow(instance.id_of_flat(flat));
            let rate = spec.size / duration;
            debug_assert!(
                start >= spec.release - 1e-9,
                "window starts before release: D >= 1 should prevent this"
            );
            schedule.flows[flat]
                .segments
                .push(Segment { start, end, rate });
        }
        cursor = end;
    }

    let completions = schedule.completion_times(instance);
    let metrics = metrics(instance, &completions);
    RoundedSchedule {
        schedule,
        alpha_interval,
        target_interval,
        max_stretch,
        metrics,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::circuit::lp_given::{solve_given_paths_lp, GivenPathsLpConfig};
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::{paths, topo, NodeId};

    fn solve_and_round(inst: &Instance) -> RoundedSchedule {
        let lp = solve_given_paths_lp(inst, &GivenPathsLpConfig::default()).unwrap();
        round_given_paths(inst, &lp, &RoundingConfig::default())
    }

    fn line_inst(sizes_releases: &[(f64, f64)]) -> Instance {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let coflows = sizes_releases
            .iter()
            .map(|&(s, r)| {
                Coflow::new(
                    1.0,
                    vec![FlowSpec::with_path(NodeId(0), NodeId(1), s, r, p.clone())],
                )
            })
            .collect();
        Instance::new(t.graph, coflows)
    }

    #[test]
    fn rounded_schedule_is_feasible() {
        let inst = line_inst(&[(1.0, 0.0), (2.0, 0.0), (0.5, 1.0)]);
        let r = solve_and_round(&inst);
        let v = r.schedule.check(&inst, 1e-6, 1e-6);
        assert!(v.is_empty(), "violations: {v:?}");
        assert!(r.max_stretch >= 1.0);
    }

    #[test]
    fn single_flow_cost_within_constant_of_lp() {
        let inst = line_inst(&[(1.0, 0.0)]);
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        let r = round_given_paths(&inst, &lp, &RoundingConfig::default());
        assert!(r.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        // Optimal is 1.0; theory bound ~17.54 of LP LB; our construction
        // lands the flow in interval h+3 so completion <= tau(4+1) ~ 5.7.
        assert!(
            r.metrics.weighted_sum <= 17.54,
            "got {}",
            r.metrics.weighted_sum
        );
        assert!(r.metrics.weighted_sum >= 1.0 - 1e-9);
    }

    #[test]
    fn stretch_reported_when_overloaded() {
        // 8 unit flows on one unit edge all with alpha-interval near 0:
        // the LP spreads them, but identical flows may collapse into the
        // same target interval and require stretching; in all cases the
        // schedule stays feasible and stretch is finite.
        let inst = line_inst(&[(1.0, 0.0); 8]);
        let r = solve_and_round(&inst);
        assert!(r.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        assert!(r.max_stretch.is_finite());
    }

    #[test]
    fn respects_release_times() {
        let inst = line_inst(&[(1.0, 7.0)]);
        let r = solve_and_round(&inst);
        assert!(r.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        let c = r.schedule.completion_times(&inst)[0];
        assert!(c >= 7.0, "completion {c} before release");
    }

    #[test]
    fn windows_never_overlap() {
        let inst = line_inst(&[(1.0, 0.0), (4.0, 0.0), (2.0, 2.0), (1.0, 5.0)]);
        let r = solve_and_round(&inst);
        // Collect all distinct windows and check pairwise disjointness
        // (the cursor construction sequentializes them).
        let mut windows: Vec<(f64, f64)> = r
            .schedule
            .flows
            .iter()
            .flat_map(|f| f.segments.iter().map(|s| (s.start, s.end)))
            .collect();
        windows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        windows.dedup();
        for w in windows.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-9, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn alpha_one_uses_full_mass_interval() {
        let inst = line_inst(&[(1.0, 0.0), (1.0, 0.0)]);
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        let r1 = round_given_paths(
            &inst,
            &lp,
            &RoundingConfig {
                alpha: 1.0,
                displacement: 1,
            },
        );
        assert!(r1.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        for flat in 0..2 {
            assert!(r1.alpha_interval[flat] >= lp.alpha_interval(flat, 0.5));
        }
    }

    #[test]
    #[should_panic(expected = "displacement must be >= 1")]
    fn zero_displacement_rejected() {
        let inst = line_inst(&[(1.0, 0.0)]);
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        let _ = round_given_paths(
            &inst,
            &lp,
            &RoundingConfig {
                alpha: 0.5,
                displacement: 0,
            },
        );
    }

    /// End-to-end approximation sanity on a batch of mixed instances:
    /// cost(rounded) / LP-lower-bound stays within the proven constant.
    #[test]
    fn approximation_ratio_within_theory() {
        for (sizes, eps_expect) in [
            (vec![(1.0, 0.0), (2.0, 0.5), (3.0, 1.0)], 17.54),
            (vec![(5.0, 0.0), (1.0, 4.0)], 17.54),
            (vec![(0.5, 0.0), (0.5, 0.0), (0.5, 0.0), (0.5, 0.0)], 17.54),
        ] {
            let inst = line_inst(&sizes);
            let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
            let r = round_given_paths(&inst, &lp, &RoundingConfig::default());
            assert!(r.schedule.check(&inst, 1e-6, 1e-6).is_empty());
            let lb = crate::bounds::circuit_lower_bound(lp.objective, lp.grid.eps);
            if lb > 1e-9 {
                let ratio = r.metrics.weighted_sum / lb;
                assert!(
                    ratio <= eps_expect + 1e-6,
                    "ratio {ratio} exceeds theory bound for {sizes:?}"
                );
            }
        }
    }
}
