//! The heuristics the paper's evaluation compares against (§4.3), plus two
//! standard coflow heuristics from prior work as extensions:
//!
//! * **Baseline** — "flows are routed and ordered randomly".
//! * **Schedule-only** — "flows are routed randomly; ordering is by minimum
//!   completion time which is computed as the ratio of flow size to path
//!   bandwidth".
//! * **Route-only** — "flows are routed for achieving good load balance and
//!   edge utilization; ordering is arbitrary".
//! * **SEBF** (extension; Varys \[8\]) — coflows ordered by smallest
//!   effective bottleneck completion estimate.
//! * **WSJF** (extension) — coflows ordered by total size over weight.
//!
//! All of these produce a routing plus a [`Priority`]; the fluid simulator
//! (`coflow-sim`) executes them identically to the LP-based schedule, which
//! keeps the comparison honest.

use crate::model::Instance;
use crate::order::Priority;
use coflow_net::{paths as netpaths, Path};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Routing plus ordering: the full "scheme" input to the simulator.
#[derive(Clone, Debug)]
pub struct Scheme {
    /// Human-readable name.
    pub name: &'static str,
    /// Path per flow (flat order).
    pub paths: Vec<Path>,
    /// Flow priority order.
    pub order: Priority,
}

/// Candidate-path enumeration budget shared by all baselines (matches the
/// LP's defaults so no scheme gets a richer path set).
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Extra hops over shortest allowed.
    pub path_slack: usize,
    /// Maximum candidates per flow.
    pub max_paths: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            path_slack: 0,
            max_paths: 32,
            seed: 0,
        }
    }
}

fn candidates(instance: &Instance, cfg: &BaselineConfig, flat: usize) -> Vec<Path> {
    let spec = instance.flow(instance.id_of_flat(flat));
    if let Some(p) = &spec.path {
        return vec![p.clone()];
    }
    let ps = netpaths::candidate_paths(
        &instance.graph,
        spec.src,
        spec.dst,
        cfg.path_slack,
        cfg.max_paths,
    );
    assert!(!ps.is_empty(), "flow {flat}: endpoints disconnected");
    ps
}

fn random_paths(instance: &Instance, cfg: &BaselineConfig, rng: &mut StdRng) -> Vec<Path> {
    (0..instance.flow_count())
        .map(|flat| {
            let ps = candidates(instance, cfg, flat);
            ps[rng.random_range(0..ps.len())].clone()
        })
        .collect()
}

/// Random routing, random order.
pub fn baseline_random(instance: &Instance, cfg: &BaselineConfig) -> Scheme {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let paths = random_paths(instance, cfg, &mut rng);
    let mut order: Vec<usize> = (0..instance.flow_count()).collect();
    order.shuffle(&mut rng);
    Scheme {
        name: "Baseline",
        paths,
        order: Priority { order },
    }
}

/// Random routing; order by standalone completion estimate
/// `σ_f / bottleneck(p_f)` ascending (a per-flow SJF that ignores coflow
/// structure — that blindness is exactly what the LP-based scheme exploits).
pub fn schedule_only(instance: &Instance, cfg: &BaselineConfig) -> Scheme {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let paths = random_paths(instance, cfg, &mut rng);
    let g = &instance.graph;
    let order = Priority::by_key(instance.flow_count(), |flat| {
        let spec = instance.flow(instance.id_of_flat(flat));
        let bw = g.path_bottleneck(&paths[flat]);
        if bw > 0.0 {
            spec.size / bw
        } else {
            f64::INFINITY
        }
    });
    Scheme {
        name: "Schedule-only",
        paths,
        order,
    }
}

/// Load-balanced routing (greedy least-loaded path, processing flows in
/// release order); **arbitrary ordering** (§4.3: "ordering is arbitrary"),
/// realized as a seeded random permutation — the same neutral ordering
/// Baseline uses, so the Route-only-vs-Baseline gap isolates the routing
/// contribution and the LP-vs-Route-only gap isolates scheduling.
pub fn route_only(instance: &Instance, cfg: &BaselineConfig) -> Scheme {
    let g = &instance.graph;
    let mut load = vec![0.0_f64; g.edge_count()];
    // Every flat index is visited exactly once below.
    let mut paths = vec![Path::empty(); instance.flow_count()];
    // Process in release order so earlier flows grab capacity first.
    let release_order = Priority::by_key(instance.flow_count(), |flat| {
        instance.flow(instance.id_of_flat(flat)).release
    });
    for &flat in &release_order.order {
        let spec = instance.flow(instance.id_of_flat(flat));
        let ps = candidates(instance, cfg, flat);
        // Cost of a path: worst resulting edge utilization, tie-broken by
        // total utilization. The tie-break matters: every candidate shares
        // the host up/down links, so the max alone cannot distinguish core
        // choices once the uplink dominates.
        let cost = |p: &Path| -> (f64, f64) {
            let mut worst = 0.0_f64;
            let mut total = 0.0_f64;
            for &e in p.edges.iter() {
                let u = (load[e.index()] + spec.size) / g.capacity(e).max(1e-12);
                worst = worst.max(u);
                total += u;
            }
            (worst, total)
        };
        #[expect(
            clippy::unwrap_used,
            reason = "candidates() asserts the path set is non-empty"
        )]
        let best = ps
            .into_iter()
            .min_by(|a, b| {
                let (ka, kb) = (cost(a), cost(b));
                ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
            })
            .unwrap();
        for &e in best.edges.iter() {
            load[e.index()] += spec.size;
        }
        paths[flat] = best;
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x05EE_D0B0);
    let mut order: Vec<usize> = (0..instance.flow_count()).collect();
    order.shuffle(&mut rng);
    Scheme {
        name: "Route-only",
        paths,
        order: Priority { order },
    }
}

/// SEBF (smallest effective bottleneck first, Varys-like): coflows ordered
/// by their bottleneck completion estimate given a routing; flows within a
/// coflow keep index order. Coflow-aware but LP-free.
pub fn sebf(instance: &Instance, paths: &[Path]) -> Scheme {
    let g = &instance.graph;
    let nc = instance.coflow_count();
    let mut edge_demand: Vec<std::collections::BTreeMap<u32, f64>> =
        vec![std::collections::BTreeMap::new(); nc];
    for (id, flat, spec) in instance.flows() {
        for &e in paths[flat].edges.iter() {
            *edge_demand[id.coflow as usize].entry(e.0).or_insert(0.0) += spec.size;
        }
    }
    let gamma: Vec<f64> = edge_demand
        .iter()
        .map(|per_edge| {
            per_edge
                .iter()
                .map(|(&e, &d)| d / g.capacity(coflow_net::EdgeId(e)).max(1e-12))
                .fold(0.0, f64::max)
        })
        .collect();
    let order = Priority::by_key(instance.flow_count(), |flat| {
        let id = instance.id_of_flat(flat);
        (gamma[id.coflow as usize], id.coflow, id.flow)
    });
    Scheme {
        name: "SEBF",
        paths: paths.to_vec(),
        order,
    }
}

/// Weighted shortest job first at coflow granularity: key is
/// `total_size / weight` ascending. Flows within a coflow keep index order.
pub fn wsjf(instance: &Instance, paths: &[Path]) -> Scheme {
    let key: Vec<f64> = instance
        .coflows
        .iter()
        .map(|c| {
            if c.weight > 0.0 {
                c.total_size() / c.weight
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let order = Priority::by_key(instance.flow_count(), |flat| {
        let id = instance.id_of_flat(flat);
        (key[id.coflow as usize], id.coflow, id.flow)
    });
    Scheme {
        name: "WSJF",
        paths: paths.to_vec(),
        order,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::topo;

    fn fat_tree_instance() -> Instance {
        let t = topo::fat_tree(4, 1.0);
        let h = &t.hosts;
        Instance::new(
            t.graph.clone(),
            vec![
                Coflow::new(
                    1.0,
                    vec![
                        FlowSpec::new(h[0], h[15], 4.0, 0.0),
                        FlowSpec::new(h[1], h[14], 2.0, 0.0),
                    ],
                ),
                Coflow::new(3.0, vec![FlowSpec::new(h[2], h[13], 1.0, 0.0)]),
            ],
        )
    }

    #[test]
    fn baseline_produces_valid_paths() {
        let inst = fat_tree_instance();
        let s = baseline_random(&inst, &BaselineConfig::default());
        for (_, flat, spec) in inst.flows() {
            assert!(inst
                .graph
                .is_simple_path(&s.paths[flat], spec.src, spec.dst));
        }
        assert_eq!(s.order.len(), 3);
    }

    #[test]
    fn baseline_deterministic_per_seed() {
        let inst = fat_tree_instance();
        let a = baseline_random(
            &inst,
            &BaselineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let b = baseline_random(
            &inst,
            &BaselineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.order, b.order);
    }

    #[test]
    fn schedule_only_orders_by_standalone_time() {
        let inst = fat_tree_instance();
        let s = schedule_only(&inst, &BaselineConfig::default());
        // Unit capacities: standalone times are just sizes: 4, 2, 1 =>
        // order should be flat indices [2, 1, 0].
        assert_eq!(s.order.order, vec![2, 1, 0]);
    }

    #[test]
    fn route_only_spreads_load() {
        // Many equal flows between the same inter-pod host pair: the greedy
        // balancer must not put them all on one core path.
        let t = topo::fat_tree(4, 1.0);
        let h = &t.hosts;
        let flows: Vec<FlowSpec> = (0..8)
            .map(|_| FlowSpec::new(h[0], h[15], 1.0, 0.0))
            .collect();
        let inst = Instance::new(t.graph.clone(), vec![Coflow::new(1.0, flows)]);
        let s = route_only(&inst, &BaselineConfig::default());
        let distinct: std::collections::BTreeSet<_> =
            s.paths.iter().map(|p| p.edges.clone()).collect();
        assert!(
            distinct.len() >= 2,
            "expected load balancing across core paths"
        );
    }

    #[test]
    fn sebf_orders_coflows_by_bottleneck() {
        let inst = fat_tree_instance();
        let r = route_only(&inst, &BaselineConfig::default());
        let s = sebf(&inst, &r.paths);
        // Coflow 1 (1 unit) has smaller bottleneck than coflow 0 (up to 6
        // units sharing links): coflow 1's flow must come first.
        assert_eq!(s.order.order[0], 2);
    }

    #[test]
    fn wsjf_uses_weight() {
        let inst = fat_tree_instance();
        let r = route_only(&inst, &BaselineConfig::default());
        let s = wsjf(&inst, &r.paths);
        // Keys: coflow0 = 6/1 = 6, coflow1 = 1/3 => coflow1 first.
        assert_eq!(s.order.order[0], 2);
    }

    #[test]
    fn given_paths_respected() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let p = coflow_net::paths::bfs_shortest_path(&t.graph, x, y).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(x, y, 1.0, 0.0, p.clone())],
            )],
        );
        let s = baseline_random(&inst, &BaselineConfig::default());
        assert_eq!(s.paths[0], p, "prescribed path must pass through unchanged");
    }
}
