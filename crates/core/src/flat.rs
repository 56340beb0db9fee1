//! Flat structure-of-arrays instance storage.
//!
//! [`Instance`] stores coflows as nested `Vec<Coflow>`/`Vec<FlowSpec>` —
//! convenient to build, but the engine's per-event hot loops (rate
//! allocation, completion detection, residual updates) only ever need four
//! scalars per flow (endpoints, size, release) plus the owning coflow, and
//! chasing two levels of pointers per access wrecks locality at
//! datacenter-fabric flow counts. [`FlatInstance`] is the flat view: one
//! contiguous array per field, indexed by the same **stable flat index**
//! the rest of the workspace uses (coflow-major, identical to
//! [`Instance::flat_index`]), with a CSR-style `flow_ptr` grouping flows
//! by coflow. Indices are `u32` — the paper's experiments top out far
//! below 4 billion flows, and halving index width doubles what fits in a
//! cache line.
//!
//! The flat view is *derived* storage behind the existing [`Instance`]
//! API: build it once with [`Instance::flatten`], then read (and, for
//! residual bookkeeping, update sizes) without touching the nested
//! representation. Prescribed paths stay on the nested side — they are
//! variable-length and cold.

use crate::model::{FlowId, Instance};
use coflow_net::NodeId;

/// Structure-of-arrays snapshot of an [`Instance`]'s flows and coflows.
///
/// Flat index = [`Instance::flat_index`]; coflow arrays are indexed by
/// coflow id. See the module docs for why this exists.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatInstance {
    /// Source node per flow.
    src: Vec<u32>,
    /// Destination node per flow.
    dst: Vec<u32>,
    /// Demand per flow.
    size: Vec<f64>,
    /// Release time per flow.
    release: Vec<f64>,
    /// Owning coflow per flow.
    coflow: Vec<u32>,
    /// Weight per coflow.
    weight: Vec<f64>,
    /// CSR offsets: coflow `c` owns flats `flow_ptr[c]..flow_ptr[c+1]`.
    flow_ptr: Vec<u32>,
}

impl FlatInstance {
    /// Builds the flat view of `inst` (coflow-major, matching
    /// [`Instance::flat_index`]).
    pub fn from_instance(inst: &Instance) -> Self {
        let nf = inst.flow_count();
        let nc = inst.coflow_count();
        let mut out = Self {
            src: Vec::with_capacity(nf),
            dst: Vec::with_capacity(nf),
            size: Vec::with_capacity(nf),
            release: Vec::with_capacity(nf),
            coflow: Vec::with_capacity(nf),
            weight: Vec::with_capacity(nc),
            flow_ptr: Vec::with_capacity(nc + 1),
        };
        out.flow_ptr.push(0);
        for (ci, c) in inst.coflows.iter().enumerate() {
            out.weight.push(c.weight);
            for f in &c.flows {
                out.src.push(f.src.index() as u32);
                out.dst.push(f.dst.index() as u32);
                out.size.push(f.size);
                out.release.push(f.release);
                out.coflow.push(ci as u32);
            }
            out.flow_ptr.push(out.src.len() as u32);
        }
        out
    }

    /// Total number of flows.
    #[inline]
    pub fn flow_count(&self) -> usize {
        self.src.len()
    }

    /// Number of coflows.
    #[inline]
    pub fn coflow_count(&self) -> usize {
        self.weight.len()
    }

    /// Source node of flow `flat`.
    #[inline]
    pub fn src(&self, flat: usize) -> NodeId {
        NodeId(self.src[flat])
    }

    /// Destination node of flow `flat`.
    #[inline]
    pub fn dst(&self, flat: usize) -> NodeId {
        NodeId(self.dst[flat])
    }

    /// Demand of flow `flat`.
    #[inline]
    pub fn size(&self, flat: usize) -> f64 {
        self.size[flat]
    }

    /// Release time of flow `flat`.
    #[inline]
    pub fn release(&self, flat: usize) -> f64 {
        self.release[flat]
    }

    /// Owning coflow of flow `flat`.
    #[inline]
    pub fn coflow_of(&self, flat: usize) -> usize {
        self.coflow[flat] as usize
    }

    /// Weight of coflow `c`.
    #[inline]
    pub fn weight(&self, c: usize) -> f64 {
        self.weight[c]
    }

    /// Flat-index range of coflow `c`'s flows.
    #[inline]
    pub fn flows_of(&self, c: usize) -> std::ops::Range<usize> {
        self.flow_ptr[c] as usize..self.flow_ptr[c + 1] as usize
    }

    /// All flow sizes, flat-indexed (e.g. to seed a remaining-size array).
    #[inline]
    pub fn sizes(&self) -> &[f64] {
        &self.size
    }

    /// Flat index of a flow id (same mapping as [`Instance::flat_index`]).
    #[inline]
    pub fn flat_index(&self, id: FlowId) -> usize {
        self.flow_ptr[id.coflow as usize] as usize + id.flow as usize
    }

    /// Total demand across all flows.
    pub fn total_size(&self) -> f64 {
        self.size.iter().sum()
    }
}

impl Instance {
    /// Builds the flat structure-of-arrays view of this instance.
    pub fn flatten(&self) -> FlatInstance {
        FlatInstance::from_instance(self)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec};
    use coflow_net::topo;

    fn tiny() -> Instance {
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(x, y, 2.0, 0.0), FlowSpec::new(z, y, 1.0, 0.5)],
                ),
                Coflow::new(2.0, vec![FlowSpec::new(x, z, 4.0, 2.5)]),
            ],
        )
    }

    #[test]
    fn mirrors_instance_field_by_field() {
        let inst = tiny();
        let flat = inst.flatten();
        assert_eq!(flat.flow_count(), inst.flow_count());
        assert_eq!(flat.coflow_count(), inst.coflow_count());
        for (id, f, spec) in inst.flows() {
            assert_eq!(flat.flat_index(id), f);
            assert_eq!(flat.src(f), spec.src);
            assert_eq!(flat.dst(f), spec.dst);
            assert_eq!(flat.size(f), spec.size);
            assert_eq!(flat.release(f), spec.release);
            assert_eq!(flat.coflow_of(f), id.coflow as usize);
        }
        for c in 0..inst.coflow_count() {
            assert_eq!(flat.weight(c), inst.coflows[c].weight);
            assert_eq!(flat.flows_of(c).len(), inst.coflows[c].flows.len());
        }
        assert_eq!(flat.total_size(), inst.total_size());
        assert_eq!(flat.sizes().len(), 3);
    }

    #[test]
    fn empty_coflows_keep_csr_consistent() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![]),
                Coflow::new(2.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(3.0, vec![]),
            ],
        );
        let flat = inst.flatten();
        assert_eq!(flat.flow_count(), 1);
        assert_eq!(flat.coflow_count(), 3);
        assert!(flat.flows_of(0).is_empty());
        assert_eq!(flat.flows_of(1), 0..1);
        assert!(flat.flows_of(2).is_empty());
        assert_eq!(flat.coflow_of(0), 1);
    }
}
