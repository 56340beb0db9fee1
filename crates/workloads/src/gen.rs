//! The configurable random instance generator (§4.1).

use crate::rng::{exponential, poisson};
use coflow_core::model::{Coflow, FlowSpec, Instance};
use coflow_net::topo::{random_host_pair, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator parameters. The paper under-specifies its generator ("based on
/// Poisson distributions"); every knob here is explicit and recorded with
/// results.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Number of coflows.
    pub n_coflows: usize,
    /// Flows per coflow ("coflow width" in §4.3).
    pub width: usize,
    /// Mean of the (shifted) Poisson flow size: `size = 1 + Poisson(λ)`.
    pub size_mean: f64,
    /// Mean of the (shifted) Poisson coflow weight: `w = 1 + Poisson(λ)`.
    pub weight_mean: f64,
    /// Coflow arrivals form a Poisson process with this rate (expected
    /// inter-arrival `1/rate`); `0` puts every coflow at time 0.
    pub arrival_rate: f64,
    /// Per-flow release jitter after the coflow arrival: `Exp(rate)`;
    /// `0` releases all flows exactly at the coflow arrival.
    pub jitter_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            n_coflows: 10,
            width: 16,
            size_mean: 4.0,
            weight_mean: 1.0,
            arrival_rate: 0.5,
            jitter_rate: 2.0,
            seed: 0,
        }
    }
}

/// Generates a random circuit-coflow instance on `topo`.
///
/// Sources and destinations are distinct uniform host pairs; sizes and
/// weights are shifted Poisson (never zero); coflow arrivals follow a
/// Poisson process; each flow's release adds exponential jitter to its
/// coflow's arrival (per-flow release times are this paper's
/// generalization, §1.1).
pub fn generate(topo: &Topology, cfg: &GenConfig) -> Instance {
    assert!(topo.host_count() >= 2, "need at least 2 hosts");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut coflows = Vec::with_capacity(cfg.n_coflows);
    let mut arrival = 0.0_f64;
    for _ in 0..cfg.n_coflows {
        if cfg.arrival_rate > 0.0 {
            arrival += exponential(&mut rng, cfg.arrival_rate);
        }
        let weight = 1.0 + poisson(&mut rng, cfg.weight_mean) as f64;
        let flows = (0..cfg.width)
            .map(|_| {
                let (src, dst) = random_host_pair(topo, &mut rng);
                let size = 1.0 + poisson(&mut rng, cfg.size_mean) as f64;
                let release = if cfg.jitter_rate > 0.0 {
                    arrival + exponential(&mut rng, cfg.jitter_rate)
                } else {
                    arrival
                };
                FlowSpec::new(src, dst, size, release)
            })
            .collect();
        coflows.push(Coflow::new(weight, flows));
    }
    Instance::new(topo.graph.clone(), coflows)
}

/// Generates a unit-size (packet) instance on `topo` — same release/weight
/// machinery with all sizes 1, for the §3 experiments.
pub fn generate_packets(topo: &Topology, cfg: &GenConfig) -> Instance {
    let mut inst = generate(topo, cfg);
    for c in inst.coflows.iter_mut() {
        for f in c.flows.iter_mut() {
            f.size = 1.0;
        }
    }
    inst
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_net::topo;

    #[test]
    fn shape_matches_config() {
        let t = topo::fat_tree(4, 1.0);
        let cfg = GenConfig {
            n_coflows: 7,
            width: 5,
            seed: 3,
            ..Default::default()
        };
        let inst = generate(&t, &cfg);
        assert_eq!(inst.coflow_count(), 7);
        assert_eq!(inst.flow_count(), 35);
        assert!(inst.validate().is_empty(), "{:?}", inst.validate());
    }

    #[test]
    fn sizes_weights_at_least_one() {
        let t = topo::fat_tree(4, 1.0);
        let inst = generate(
            &t,
            &GenConfig {
                n_coflows: 20,
                width: 8,
                ..Default::default()
            },
        );
        for c in &inst.coflows {
            assert!(c.weight >= 1.0);
            for f in &c.flows {
                assert!(f.size >= 1.0);
                assert!(f.release >= 0.0);
            }
        }
    }

    #[test]
    fn endpoints_are_hosts() {
        let t = topo::fat_tree(4, 1.0);
        let inst = generate(&t, &GenConfig::default());
        for (_, _, f) in inst.flows() {
            assert!(t.hosts.contains(&f.src));
            assert!(t.hosts.contains(&f.dst));
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let t = topo::star(6, 1.0);
        let a = generate(
            &t,
            &GenConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let b = generate(
            &t,
            &GenConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let c = generate(
            &t,
            &GenConfig {
                seed: 2,
                ..Default::default()
            },
        );
        let key = |i: &Instance| {
            i.flows()
                .map(|(_, _, f)| (f.src.0, f.dst.0, f.size as u64, (f.release * 1e6) as u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn releases_increase_with_arrival_process() {
        let t = topo::star(4, 1.0);
        let inst = generate(
            &t,
            &GenConfig {
                n_coflows: 30,
                width: 2,
                arrival_rate: 1.0,
                jitter_rate: 0.0,
                ..Default::default()
            },
        );
        let arrivals: Vec<f64> = inst.coflows.iter().map(|c| c.earliest_release()).collect();
        let mut sorted = arrivals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(arrivals, sorted, "coflow arrivals must be nondecreasing");
        assert!(*arrivals.last().unwrap() > 0.0);
    }

    #[test]
    fn zero_rates_put_everything_at_zero_release() {
        let t = topo::star(4, 1.0);
        let inst = generate(
            &t,
            &GenConfig {
                arrival_rate: 0.0,
                jitter_rate: 0.0,
                ..Default::default()
            },
        );
        for (_, _, f) in inst.flows() {
            assert_eq!(f.release, 0.0);
        }
    }

    #[test]
    fn packet_variant_unit_sizes() {
        let t = topo::grid(3, 3, 1.0);
        let inst = generate_packets(
            &t,
            &GenConfig {
                n_coflows: 4,
                width: 3,
                ..Default::default()
            },
        );
        for (_, _, f) in inst.flows() {
            assert_eq!(f.size, 1.0);
        }
    }
}
