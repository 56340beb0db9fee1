//! End-to-end integration of the packet-model pipelines (§3), including
//! consistency with the exact time-expanded LP reference.

use coflow::prelude::*;
use coflow::workloads::gen::{generate_packets, GenConfig};
use coflow::workloads::io::{from_json, to_json};

fn packet_cfg(seed: u64) -> GenConfig {
    GenConfig {
        n_coflows: 3,
        width: 2,
        seed,
        arrival_rate: 1.0,
        ..Default::default()
    }
}

#[test]
fn jobshop_and_free_both_feasible_and_bounded() {
    let topo = coflow::net::topo::grid(3, 3, 1.0);
    for seed in 0..3 {
        let inst = generate_packets(&topo, &packet_cfg(seed));
        // §3.1 with shortest paths.
        let routes: Vec<_> = inst
            .flows()
            .map(|(_, _, f)| {
                coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap()
            })
            .collect();
        let routed = inst.with_paths(&routes);
        let given = schedule_given_paths(&routed, &PacketConfig::default()).unwrap();
        assert!(given.schedule.check(&routed).is_empty());
        assert!(given.lp_objective <= given.metrics.weighted_sum + 1e-6);

        // §3.2.
        let free = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        assert!(free.schedule.check(&inst).is_empty());
        assert!(free.lp_objective <= free.metrics.weighted_sum + 1e-6);
    }
}

#[test]
fn exact_time_expanded_lp_lower_bounds_everything() {
    let topo = coflow::net::topo::grid(2, 3, 1.0);
    let inst = generate_packets(
        &topo,
        &GenConfig {
            n_coflows: 2,
            width: 2,
            seed: 9,
            arrival_rate: 0.0,
            jitter_rate: 0.0,
            ..Default::default()
        },
    );
    let horizon = 24;
    let exact = coflow::algo::packet::timexp_lp::packet_lp_lower_bound(
        &inst,
        horizon,
        &coflow::lp::SolverOptions::default(),
    )
    .unwrap();

    // §3.2 pipeline.
    let free = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
    assert!(
        exact <= free.metrics.weighted_sum + 1e-6,
        "exact LP {exact} must lower-bound §3.2 cost {}",
        free.metrics.weighted_sum
    );

    // ASAP execution of any routing is also bounded below.
    let routes: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect();
    let naive = simulate_packets(&inst, &routes, &Priority::identity(inst.flow_count()));
    assert!(naive.schedule.check(&inst).is_empty());
    assert!(exact <= naive.metrics.weighted_sum + 1e-6);
}

#[test]
fn packet_interval_lp_vs_exact_lp() {
    // The interval-indexed relaxation (geometric grid, cumulative
    // congestion) is weaker than the exact time-expanded LP, so its
    // optimum is at most the exact one.
    let topo = coflow::net::topo::line(4, 1.0);
    let mut coflows = Vec::new();
    for i in 0..3 {
        coflows.push(Coflow::new(
            1.0,
            vec![FlowSpec::new(
                coflow::net::NodeId(0),
                coflow::net::NodeId(3),
                1.0,
                i as f64,
            )],
        ));
    }
    let inst = Instance::new(topo.graph.clone(), coflows);
    let routes: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect();
    let routed = inst.with_paths(&routes);
    let given = schedule_given_paths(&routed, &PacketConfig::default()).unwrap();
    let exact = coflow::algo::packet::timexp_lp::packet_lp_lower_bound(
        &inst,
        32,
        &coflow::lp::SolverOptions::default(),
    )
    .unwrap();
    assert!(
        given.lp_objective <= exact + 1e-6,
        "interval LP {} should be weaker than exact LP {exact}",
        given.lp_objective
    );
    // And both sit below the realized schedule.
    assert!(exact <= given.metrics.weighted_sum + 1e-6);
}

#[test]
fn congestion_spreading_beats_hotspot_routing_under_load() {
    // 8 packets corner-to-corner on a 2x2 grid; §3.2's routing must spread
    // them over the two shortest routes while fixed shortest-path routing
    // pushes all through one.
    let topo = coflow::net::topo::grid(2, 2, 1.0);
    let coflows: Vec<Coflow> = (0..8)
        .map(|_| {
            Coflow::new(
                1.0,
                vec![FlowSpec::new(topo.hosts[0], topo.hosts[3], 1.0, 0.0)],
            )
        })
        .collect();
    let inst = Instance::new(topo.graph.clone(), coflows);
    let free = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
    assert!(free.schedule.check(&inst).is_empty());
    let distinct: std::collections::BTreeSet<_> =
        free.paths.iter().map(|p| p.edges.clone()).collect();
    assert!(distinct.len() >= 2, "LP routing failed to spread packets");

    // Fixed single shortest path for everyone.
    let one =
        coflow::net::paths::bfs_shortest_path(&inst.graph, topo.hosts[0], topo.hosts[3]).unwrap();
    let fixed: Vec<_> = (0..8).map(|_| one.clone()).collect();
    let naive = simulate_packets(&inst, &fixed, &Priority::identity(8));
    // ASAP execution of the spread routing:
    let completion = free.schedule.completion_times(&inst);
    let order = Priority::by_key(8, |f| completion[f]);
    let spread = simulate_packets(&inst, &free.paths, &order);
    assert!(
        spread.metrics.weighted_sum < naive.metrics.weighted_sum - 1e-9,
        "spread {} should beat hotspot {}",
        spread.metrics.weighted_sum,
        naive.metrics.weighted_sum
    );
}

/// The packet half of `empty_coflow_completes_at_zero_in_every_circuit_lp`:
/// §3.2, §3.1 and the exact time-expanded LP all finish an empty coflow
/// (`"flows": []`) at time 0 instead of panicking on its `+∞` release.
#[test]
fn empty_coflow_completes_at_zero_in_every_packet_lp() {
    let t = coflow::net::topo::grid(2, 2, 1.0);
    let built = Instance::new(
        t.graph,
        vec![
            Coflow::new(
                1.0,
                vec![
                    FlowSpec::new(t.hosts[0], t.hosts[3], 1.0, 0.0),
                    FlowSpec::new(t.hosts[1], t.hosts[2], 1.0, 1.0),
                ],
            ),
            Coflow::new(1.0, vec![]),
        ],
    );
    let inst = from_json(&to_json(&built).unwrap()).unwrap();
    assert!(inst.coflows[1].flows.is_empty());

    let free = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
    assert!(free.schedule.check(&inst).is_empty());
    assert!(free.metrics.coflow_completion[1].abs() < 1e-9);

    let shortest: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect();
    let routed = inst.with_paths(&shortest);
    let given = schedule_given_paths(&routed, &PacketConfig::default()).unwrap();
    assert!(given.schedule.check(&routed).is_empty());
    assert!(given.metrics.coflow_completion[1].abs() < 1e-9);

    let exact = coflow::algo::packet::timexp_lp::packet_lp_lower_bound(
        &inst,
        8,
        &coflow::lp::SolverOptions::default(),
    )
    .unwrap();
    assert!(exact <= free.metrics.weighted_sum + 1e-6);
}

/// FNV-1a over every chosen path's edge indices, with a separator per path.
fn path_hash(paths: &[coflow::net::Path]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for p in paths {
        for e in p.edges.iter().map(|e| e.0).chain([u32::MAX]) {
            for b in e.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// §3.2 and §3.1 (on shortest paths) on one seeded 4×4-grid packet
/// instance, bit for bit: the LP objective, the realized weighted sum and
/// the chosen paths (13 of the 80 packets leave their shortest path). A change
/// to the packet LP's builder, its α-interval read or its path draw that is
/// meant to keep the pipeline's behaviour keeps all six values.
#[test]
fn packet_pipelines_reproduce_pinned_values() {
    let topo = coflow::net::topo::grid(4, 4, 1.0);
    let inst = generate_packets(
        &topo,
        &GenConfig {
            n_coflows: 10,
            width: 8,
            seed: 11,
            arrival_rate: 0.0,
            ..Default::default()
        },
    );
    let free = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
    assert!(free.schedule.check(&inst).is_empty());
    let shortest: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect();
    let routed = inst.with_paths(&shortest);
    let given = schedule_given_paths(&routed, &PacketConfig::default()).unwrap();
    assert!(given.schedule.check(&routed).is_empty());
    let got = [
        free.lp_objective.to_bits(),
        free.metrics.weighted_sum.to_bits(),
        path_hash(&free.paths),
        given.lp_objective.to_bits(),
        given.metrics.weighted_sum.to_bits(),
        path_hash(&given.paths),
    ];
    assert_eq!(
        got,
        [
            0x4063_2000_0000_0000,
            0x4079_a000_0000_0000,
            0xdad5_d866_2682_df78,
            0x4063_2000_0000_0000,
            0x407f_3000_0000_0000,
            0x5464_de5e_96f0_07e3,
        ]
    );
}
