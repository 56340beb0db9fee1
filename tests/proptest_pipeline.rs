//! Property-based integration tests: random instances through the full
//! pipelines, asserting the invariants the paper's correctness rests on.

use coflow::prelude::*;
use coflow::workloads::gen::{generate, generate_packets, GenConfig};
use proptest::prelude::*;

fn cfg(n: usize, w: usize, seed: u64) -> GenConfig {
    GenConfig {
        n_coflows: n,
        width: w,
        size_mean: 3.0,
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Circuit pipeline invariants on random fat-tree instances:
    /// 1. the rounded schedule is feasible (capacity, release, demand);
    /// 2. the LP lower bound holds for every scheme;
    /// 3. the fluid simulator's realized schedule is feasible;
    /// 4. coflow completions dominate member flow completions.
    #[test]
    fn circuit_invariants(n in 1usize..4, w in 1usize..4, seed in 0u64..1000) {
        let topo = coflow::net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &cfg(n, w, seed));
        prop_assert!(inst.validate().is_empty());

        let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        let lb = lp.base.objective / 2.0;
        let r = round_free_paths(&inst, &lp, &FreeRoundingConfig { seed, ..Default::default() });

        // (1) rounded schedule feasibility.
        let routed = inst.with_paths(&r.paths);
        let rounded = round_given_paths(&routed, &lp.base, &RoundingConfig::default());
        let violations = rounded.schedule.check(&routed, 1e-6, 1e-6);
        prop_assert!(violations.is_empty(), "rounded: {violations:?}");
        prop_assert!(lb <= rounded.metrics.weighted_sum + 1e-6);

        // (3) simulator feasibility + (2) bound.
        let out = simulate(&inst, &r.paths, &lp_order(&inst, &lp.base), &SimConfig::default());
        let violations = out.schedule.check(&routed, 1e-6, 1e-6);
        prop_assert!(violations.is_empty(), "simulated: {violations:?}");
        prop_assert!(lb <= out.metrics.weighted_sum + 1e-6);

        // (4) objective structure.
        for (id, flat, _) in inst.flows() {
            prop_assert!(
                out.flow_completion[flat]
                    <= out.metrics.coflow_completion[id.coflow as usize] + 1e-9
            );
        }
    }

    /// Fluid simulator work conservation: total delivered volume equals
    /// total demand, under both allocation policies and any priority.
    #[test]
    fn simulator_delivers_exact_volume(seed in 0u64..500, fair in proptest::bool::ANY) {
        let topo = coflow::net::topo::triangle();
        let inst = generate(&topo, &cfg(2, 2, seed));
        let routes: Vec<_> = inst
            .flows()
            .map(|(_, _, f)| {
                coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap()
            })
            .collect();
        let policy = if fair { AllocPolicy::MaxMinFair } else { AllocPolicy::GreedyRate };
        let out = simulate(
            &inst,
            &routes,
            &Priority::identity(inst.flow_count()),
            &SimConfig { policy },
        );
        let delivered: f64 = out.schedule.flows.iter().map(|f| f.delivered()).sum();
        prop_assert!((delivered - inst.total_size()).abs() < 1e-5 * (1.0 + inst.total_size()));
        // Completions never precede releases.
        for (_, flat, spec) in inst.flows() {
            prop_assert!(out.flow_completion[flat] >= spec.release - 1e-9);
        }
    }

    /// Packet pipeline invariants on random grid instances.
    #[test]
    fn packet_invariants(seed in 0u64..500) {
        let topo = coflow::net::topo::grid(3, 3, 1.0);
        let inst = generate_packets(&topo, &cfg(2, 2, seed));
        let free = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        prop_assert!(free.schedule.check(&inst).is_empty());
        prop_assert!(free.lp_objective <= free.metrics.weighted_sum + 1e-6);
        // Makespan dominated by total hops (everything serialized).
        let total_hops: f64 = free.paths.iter().map(|p| p.len() as f64).sum();
        prop_assert!(free.metrics.makespan <= inst.max_release().ceil() + total_hops + 1.0);
    }

    /// Orderings are permutations and rank inversion is consistent.
    #[test]
    fn priorities_are_permutations(seed in 0u64..500) {
        let topo = coflow::net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &cfg(3, 3, seed));
        let bcfg = BaselineConfig { seed, ..Default::default() };
        for s in [
            baselines::baseline_random(&inst, &bcfg),
            baselines::schedule_only(&inst, &bcfg),
            baselines::route_only(&inst, &bcfg),
        ] {
            let mut sorted = s.order.order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..inst.flow_count()).collect::<Vec<_>>());
            let ranks = s.order.ranks();
            for (pos, &flat) in s.order.order.iter().enumerate() {
                prop_assert_eq!(ranks[flat], pos);
            }
        }
    }
}
