//! Packet-based coflows (§3): routing *and* scheduling unit packets on a
//! store-and-forward mesh, one packet per edge per step.
//!
//! Demonstrates both §3 variants on a 4x4 grid:
//! * given paths (§3.1): shortest routes, job-shop scheduling;
//! * paths not given (§3.2): the LP picks routes under congestion +
//!   dilation constraints, then blocks are list-scheduled.
//!
//! The §3.2 pipeline should win when shortest-path routing concentrates
//! packets on the mesh diagonal.
//!
//! ```text
//! cargo run --release --example packet_routing
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::print_stdout,
    reason = "an example fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow::prelude::*;

fn main() {
    let topo = coflow::net::topo::grid(4, 4, 1.0);
    // Four broadcast-ish coflows criss-crossing the mesh: corner exchanges
    // whose shortest paths all fight for the central edges.
    let corners = [0usize, 3, 12, 15];
    let mut coflows = Vec::new();
    for (ci, &c) in corners.iter().enumerate() {
        let opposite = corners[(ci + 2) % 4];
        let near = corners[(ci + 1) % 4];
        coflows.push(Coflow::new(
            1.0 + ci as f64,
            vec![
                FlowSpec::new(topo.hosts[c], topo.hosts[opposite], 1.0, 0.0),
                FlowSpec::new(topo.hosts[c], topo.hosts[near], 1.0, (ci % 2) as f64),
                FlowSpec::new(topo.hosts[c], topo.hosts[5 + ci % 2], 1.0, 0.0),
            ],
        ));
    }
    let instance = Instance::new(topo.graph.clone(), coflows);
    assert!(instance.validate().is_empty());
    println!(
        "{} packets in {} coflows on {}\n",
        instance.flow_count(),
        instance.coflow_count(),
        topo.name
    );

    // §3.1: shortest paths given, schedule only.
    let shortest: Vec<_> = instance
        .flows()
        .map(|(_, _, f)| {
            coflow::net::paths::bfs_shortest_path(&instance.graph, f.src, f.dst).unwrap()
        })
        .collect();
    let routed = instance.with_paths(&shortest);
    let given = schedule_given_paths(&routed, &PacketConfig::default()).unwrap();
    assert!(
        given.schedule.check(&routed).is_empty(),
        "§3.1 schedule must be feasible"
    );

    // §3.2: LP routes + schedules.
    let free = route_and_schedule(&instance, &PacketFreeConfig::default()).unwrap();
    assert!(
        free.schedule.check(&instance).is_empty(),
        "§3.2 schedule must be feasible"
    );

    // A naive strawman: shortest paths + arrival-order forwarding.
    let naive = simulate_packets(
        &routed,
        &shortest,
        &Priority::identity(instance.flow_count()),
    );

    // §4.2-style practical execution: take §3.2's routes and completion
    // ordering but forward packets ASAP instead of in geometric blocks
    // (the blocks pay the constant factors that buy the worst-case proof).
    let free_completion = free.schedule.completion_times(&instance);
    let asap_order = Priority::by_key(instance.flow_count(), |flat| free_completion[flat]);
    let asap = simulate_packets(&instance, &free.paths, &asap_order);
    assert!(asap.schedule.check(&instance).is_empty());

    println!(
        "{:<28} {:>9} {:>9} {:>10}",
        "pipeline", "weighted", "avg", "makespan"
    );
    for (name, m) in [
        ("naive shortest+FIFO", &naive.metrics),
        ("§3.1 given paths (job shop)", &given.metrics),
        ("§3.2 routed+scheduled", &free.metrics),
        ("§3.2 routes, ASAP exec", &asap.metrics),
    ] {
        println!(
            "{:<28} {:>9.1} {:>9.2} {:>10.0}",
            name, m.weighted_sum, m.avg_coflow_completion, m.makespan
        );
    }

    // How much did §3.2's routing spread the load off the diagonal?
    let distinct_naive: std::collections::BTreeSet<_> =
        shortest.iter().map(|p| p.edges.clone()).collect();
    let distinct_free: std::collections::BTreeSet<_> =
        free.paths.iter().map(|p| p.edges.clone()).collect();
    println!(
        "\ndistinct routes: shortest-only {} vs LP-routed {}",
        distinct_naive.len(),
        distinct_free.len()
    );
    println!(
        "LP lower bounds: §3.1 {:.1}, §3.2 {:.1}",
        given.lp_objective, free.lp_objective
    );
}
