//! The solver-free online policies pinned bit for bit: `Greedy`,
//! `WeightedFair` and `Fifo` on one seeded fat-tree k=4 trace whose coflow
//! weights run above 1, so the weighted fair fill divides unequal shares.
//! A change to the executor or its fills that is meant to keep what they
//! compute keeps every value below; one that changes the schedules updates
//! them on purpose.

use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};

/// FNV-1a over the bits of every flow's completion time.
fn completion_hash(completion: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for c in completion {
        for b in c.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn solver_free_policies_reproduce_pinned_schedules() {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let instance = generate(
        &topo,
        &GenConfig {
            n_coflows: 20,
            width: 8,
            size_mean: 3.0,
            weight_mean: 2.0,
            arrival_rate: 1.0,
            jitter_rate: 2.0,
            seed: 42,
        },
    );
    assert!(instance.coflows.iter().any(|c| c.weight > 2.0));
    let policies: [(&str, &mut dyn OnlinePolicy); 3] = [
        ("Greedy", &mut Greedy),
        ("WeightedFair", &mut WeightedFair),
        ("Fifo", &mut Fifo),
    ];
    let mut got = Vec::new();
    for (name, policy) in policies {
        let out = run_online(&instance, policy, &EngineConfig::default());
        assert!(
            out.schedule.check(&instance, 1e-6, 1e-6).is_empty(),
            "{name}'s schedule is infeasible"
        );
        got.push((
            name,
            out.metrics.weighted_sum.to_bits(),
            completion_hash(&out.flow_completion),
        ));
    }
    assert_eq!(
        got,
        [
            ("Greedy", 0x40b5_95dc_bc16_641b, 0x8818_947d_b23f_8dc5),
            ("WeightedFair", 0x40c2_aabc_d779_b543, 0xe29d_c9d4_2386_1edc),
            ("Fifo", 0x40b9_c4d9_8715_9810, 0x6281_bb8a_1bc0_2be2),
        ]
    );
}
