//! Coflow problem instances (§1.1 of the paper).
//!
//! A *flow* `f_j^i` has a source, a destination, a size `σ`, and — unlike
//! prior work, which releases whole coflows — an individual release time
//! `r_j^i`. A *coflow* `F_i` is a set of flows sharing a weight `ω_i`; it
//! completes when its last flow completes. An [`Instance`] bundles the
//! network and the coflow set and is the input to every algorithm in this
//! crate.

use coflow_net::{Graph, NodeId, Path};

/// Identifies a flow as (coflow index, flow index within the coflow).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId {
    /// Coflow index in [`Instance::coflows`].
    pub coflow: u32,
    /// Flow index within the coflow.
    pub flow: u32,
}

/// A single flow (connection request in the circuit model, packet in the
/// packet model — for packets, `size` is 1 by convention).
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source node `s`.
    pub src: NodeId,
    /// Destination node `d != s`.
    pub dst: NodeId,
    /// Demand `σ >= 0` (data volume for circuits, 1 for packets).
    pub size: f64,
    /// Release time `r >= 0` at which the flow becomes available.
    pub release: f64,
    /// Optional prescribed path (the "paths are given" problem variants).
    pub path: Option<Path>,
}

impl FlowSpec {
    /// A flow without a prescribed path.
    pub fn new(src: NodeId, dst: NodeId, size: f64, release: f64) -> Self {
        Self {
            src,
            dst,
            size,
            release,
            path: None,
        }
    }

    /// A flow with a prescribed path.
    pub fn with_path(src: NodeId, dst: NodeId, size: f64, release: f64, path: Path) -> Self {
        Self {
            src,
            dst,
            size,
            release,
            path: Some(path),
        }
    }
}

/// A coflow: a weighted set of flows sharing a completion-time goal.
#[derive(Clone, Debug)]
pub struct Coflow {
    /// Weight `ω >= 0` in the objective `Σ ω_k C_k`.
    pub weight: f64,
    /// Member flows.
    pub flows: Vec<FlowSpec>,
}

impl Coflow {
    /// Creates a coflow.
    pub fn new(weight: f64, flows: Vec<FlowSpec>) -> Self {
        Self { weight, flows }
    }

    /// Earliest release among member flows (`inf` when empty).
    pub fn earliest_release(&self) -> f64 {
        self.flows
            .iter()
            .map(|f| f.release)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total demand of member flows.
    pub fn total_size(&self) -> f64 {
        self.flows.iter().map(|f| f.size).sum()
    }
}

/// A complete problem instance: network plus coflows.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The capacitated network `G`.
    pub graph: Graph,
    /// The coflow set `\mathcal{F}`.
    pub coflows: Vec<Coflow>,
    /// Flat-index offsets: flow `(i, j)` has flat index `offsets[i] + j`.
    offsets: Vec<usize>,
}

impl Instance {
    /// Builds an instance and its flat index.
    pub fn new(graph: Graph, coflows: Vec<Coflow>) -> Self {
        let mut offsets = Vec::with_capacity(coflows.len() + 1);
        let mut acc = 0usize;
        for c in &coflows {
            offsets.push(acc);
            acc += c.flows.len();
        }
        offsets.push(acc);
        Self {
            graph,
            coflows,
            offsets,
        }
    }

    /// Appends a coflow, extending the flat index (existing flat indices
    /// are unchanged — the append-only growth the online engine's residual
    /// bookkeeping relies on).
    pub fn push_coflow(&mut self, c: Coflow) {
        let total = *self.offsets.last().unwrap_or(&0);
        self.offsets.push(total + c.flows.len());
        self.coflows.push(c);
    }

    /// Removes every coflow (the flat index becomes empty); the graph is
    /// kept. Retains allocated capacity for re-population.
    pub fn clear_coflows(&mut self) {
        self.coflows.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Total number of flows across all coflows.
    pub fn flow_count(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Number of coflows.
    pub fn coflow_count(&self) -> usize {
        self.coflows.len()
    }

    /// Flat index of a flow id (stable, contiguous, coflow-major).
    #[inline]
    pub fn flat_index(&self, id: FlowId) -> usize {
        self.offsets[id.coflow as usize] + id.flow as usize
    }

    /// Inverse of [`Instance::flat_index`].
    pub fn id_of_flat(&self, flat: usize) -> FlowId {
        // offsets is sorted; find the owning coflow.
        let coflow = match self.offsets.binary_search(&flat) {
            Ok(mut i) => {
                // Land on the first coflow whose offset equals `flat` and is
                // non-empty (empty coflows share offsets).
                while i + 1 < self.offsets.len() - 1 && self.offsets[i + 1] == flat {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        FlowId {
            coflow: coflow as u32,
            flow: (flat - self.offsets[coflow]) as u32,
        }
    }

    /// The spec of flow `id`.
    #[inline]
    pub fn flow(&self, id: FlowId) -> &FlowSpec {
        &self.coflows[id.coflow as usize].flows[id.flow as usize]
    }

    /// Iterates `(id, flat index, spec)` over all flows, coflow-major.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, usize, &FlowSpec)> + '_ {
        self.coflows.iter().enumerate().flat_map(move |(i, c)| {
            c.flows.iter().enumerate().map(move |(j, f)| {
                let id = FlowId {
                    coflow: i as u32,
                    flow: j as u32,
                };
                (id, self.flat_index(id), f)
            })
        })
    }

    /// True when every flow has a prescribed path.
    pub fn has_all_paths(&self) -> bool {
        self.flows().all(|(_, _, f)| f.path.is_some())
    }

    /// Largest release time.
    pub fn max_release(&self) -> f64 {
        self.flows().map(|(_, _, f)| f.release).fold(0.0, f64::max)
    }

    /// Total demand of all flows.
    pub fn total_size(&self) -> f64 {
        self.flows().map(|(_, _, f)| f.size).sum()
    }

    /// A safe horizon: every schedule produced by the algorithms in this
    /// crate finishes by `max_release + total_size / min_capacity` (run the
    /// flows one at a time at the bottleneck rate), so interval grids are
    /// built to cover it.
    pub fn horizon(&self) -> f64 {
        let min_cap = self.graph.min_capacity();
        let serial = if min_cap > 0.0 && min_cap.is_finite() {
            self.total_size() / min_cap
        } else {
            self.total_size()
        };
        (self.max_release() + serial).max(1.0)
    }

    /// Structural validation; returns a list of human-readable problems
    /// (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let n = self.graph.node_count();
        for (id, _, f) in self.flows() {
            if f.src.index() >= n || f.dst.index() >= n {
                errs.push(format!("{id:?}: endpoint out of range"));
                continue;
            }
            if f.src == f.dst {
                errs.push(format!("{id:?}: src == dst"));
            }
            // `!(x >= 0)` (rather than `x < 0`) so NaN — which fails every
            // comparison — lands in the same rejection path as negatives.
            if !(f.size >= 0.0 && f.size.is_finite()) {
                errs.push(format!(
                    "{id:?}: bad size {} (must be finite and >= 0)",
                    f.size
                ));
            }
            if !(f.release >= 0.0 && f.release.is_finite()) {
                errs.push(format!(
                    "{id:?}: bad release {} (must be finite and >= 0)",
                    f.release
                ));
            }
            if let Some(p) = &f.path {
                if !self.graph.is_simple_path(p, f.src, f.dst) {
                    errs.push(format!(
                        "{id:?}: prescribed path is not a simple src->dst path"
                    ));
                }
            } else if coflow_net::paths::bfs_shortest_path(&self.graph, f.src, f.dst).is_none() {
                errs.push(format!("{id:?}: destination unreachable"));
            }
        }
        for (i, c) in self.coflows.iter().enumerate() {
            if c.weight < 0.0 || !c.weight.is_finite() {
                errs.push(format!("coflow {i}: bad weight {}", c.weight));
            }
            if c.flows.is_empty() {
                errs.push(format!("coflow {i}: empty"));
            }
        }
        errs
    }

    /// Returns a copy whose flows all carry the given paths.
    pub fn with_paths(&self, paths: &[Path]) -> Instance {
        assert_eq!(paths.len(), self.flow_count());
        let mut out = self.clone();
        for i in 0..out.coflows.len() {
            for j in 0..out.coflows[i].flows.len() {
                let id = FlowId {
                    coflow: i as u32,
                    flow: j as u32,
                };
                let flat = self.flat_index(id);
                out.coflows[i].flows[j].path = Some(paths[flat].clone());
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_net::topo;

    fn tiny() -> Instance {
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(x, y, 2.0, 0.0), FlowSpec::new(z, y, 1.0, 0.0)],
                ),
                Coflow::new(2.0, vec![FlowSpec::new(x, z, 1.0, 0.5)]),
            ],
        )
    }

    #[test]
    fn flat_index_roundtrip() {
        let inst = tiny();
        assert_eq!(inst.flow_count(), 3);
        for (id, flat, _) in inst.flows() {
            assert_eq!(inst.flat_index(id), flat);
            assert_eq!(inst.id_of_flat(flat), id);
        }
    }

    #[test]
    fn flows_iterate_coflow_major() {
        let inst = tiny();
        let flats: Vec<usize> = inst.flows().map(|(_, f, _)| f).collect();
        assert_eq!(flats, vec![0, 1, 2]);
    }

    #[test]
    fn stats() {
        let inst = tiny();
        assert_eq!(inst.coflow_count(), 2);
        assert_eq!(inst.total_size(), 4.0);
        assert_eq!(inst.max_release(), 0.5);
        assert!(inst.horizon() >= 4.5);
        assert_eq!(inst.coflows[0].total_size(), 3.0);
        assert_eq!(inst.coflows[0].earliest_release(), 0.0);
    }

    #[test]
    fn validate_ok() {
        assert!(tiny().validate().is_empty());
    }

    #[test]
    fn validate_catches_bad_flows() {
        let t = topo::triangle();
        let x = t.hosts[0];
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(-1.0, vec![FlowSpec::new(x, x, -2.0, f64::NAN)]),
                Coflow::new(1.0, vec![]),
            ],
        );
        let errs = inst.validate();
        assert!(errs.iter().any(|e| e.contains("src == dst")));
        assert!(errs.iter().any(|e| e.contains("bad size")));
        assert!(errs.iter().any(|e| e.contains("bad release")));
        assert!(errs.iter().any(|e| e.contains("bad weight")));
        assert!(errs.iter().any(|e| e.contains("empty")));
    }

    #[test]
    fn validate_rejects_negative_and_nan_releases() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        for bad in [-1.0, -1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let inst = Instance::new(
                t.graph.clone(),
                vec![Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, bad)])],
            );
            let errs = inst.validate();
            assert!(
                errs.iter().any(|e| e.contains("bad release")),
                "release {bad} must be rejected, got {errs:?}"
            );
        }
        // NaN size takes the same rejection path.
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(1.0, vec![FlowSpec::new(x, y, f64::NAN, 0.0)])],
        );
        assert!(inst.validate().iter().any(|e| e.contains("bad size")));
    }

    #[test]
    fn validate_catches_bad_path() {
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        // Path from x to y but flow claims z -> y.
        let p = coflow_net::paths::bfs_shortest_path(&t.graph, x, y).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(z, y, 1.0, 0.0, p)],
            )],
        );
        assert!(!inst.validate().is_empty());
    }

    #[test]
    fn with_paths_assigns_in_flat_order() {
        let inst = tiny();
        let paths: Vec<Path> = inst
            .flows()
            .map(|(_, _, f)| {
                coflow_net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap()
            })
            .collect();
        let with = inst.with_paths(&paths);
        assert!(with.has_all_paths());
        assert!(with.validate().is_empty());
        assert!(!inst.has_all_paths());
    }

    #[test]
    fn empty_instance() {
        let g = Graph::with_nodes(2);
        let inst = Instance::new(g, vec![]);
        assert_eq!(inst.flow_count(), 0);
        assert_eq!(inst.horizon(), 1.0);
        assert!(inst.validate().is_empty());
    }
}
