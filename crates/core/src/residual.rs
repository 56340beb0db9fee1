//! Residual-instance construction for online re-optimization.
//!
//! The online engine (`coflow-engine`) re-solves the paper's LPs at every
//! epoch boundary on the *residual* instance: the coflows that have arrived
//! so far, with each flow carrying its **remaining** size and a release
//! shifted to the epoch's local clock. Completed flows are kept but
//! *frozen* at size 0 rather than dropped — this preserves flat indices
//! (and therefore LP variable/row names like `x{flat}:{l}`) across epochs,
//! which is what lets one [`coflow_lp::WarmChain`] thread consecutive
//! re-solves: the next epoch's model keeps every surviving variable's name,
//! so the previous optimal basis maps onto it.
//!
//! Coflows are emitted in **admission order** (the order the engine first
//! saw them), not original index order, for the same reason: admission only
//! appends, so residual flat indices are stable for the lifetime of a flow.
//!
//! Because admission is append-only, consecutive epochs differ only in the
//! *values* carried by the residual (remaining sizes, shifted releases,
//! newly committed paths) plus a suffix of newly admitted coflows — so a
//! persistent [`ResidualState`] updates the previous epoch's residual **in
//! place** instead of materializing a new instance per epoch. The one-shot
//! [`residual_instance`] remains as the stateless entry point (one update
//! on a fresh state).

use crate::flat::FlatInstance;
use crate::model::{Coflow, FlowSpec, Instance};
use coflow_net::Path;

/// A residual view of an in-progress instance at some time `now`.
#[derive(Clone, Debug)]
pub struct Residual {
    /// The residual instance on the engine's local clock (`now` ↦ 0):
    /// admitted coflows in admission order; remaining sizes; completed
    /// flows frozen at size 0; releases `max(r − now, 0)`; chosen paths
    /// prescribed where already committed.
    pub instance: Instance,
    /// Original coflow index of each residual coflow.
    pub coflow_map: Vec<usize>,
    /// Original flat flow index of each residual flat index.
    pub flat_map: Vec<usize>,
}

/// Persistent residual bookkeeping for an epoch loop.
///
/// Owns one [`Residual`] and re-uses it across epochs: flows already in
/// the residual get their size/release/path fields overwritten in place,
/// and only newly admitted coflows append storage. On the steady-state
/// path (no new admissions) an update allocates nothing.
#[derive(Clone, Debug)]
pub struct ResidualState {
    res: Residual,
    /// Flat view of the *original* instance: source of unshifted releases
    /// (and an O(1) duplicate-admission check via `seen`).
    orig: FlatInstance,
    seen: Vec<bool>,
}

impl ResidualState {
    /// Empty residual bookkeeping for `original` (no coflows admitted).
    pub fn new(original: &Instance) -> Self {
        let mut instance = original.clone();
        instance.clear_coflows();
        Self {
            res: Residual {
                instance,
                coflow_map: Vec::new(),
                flat_map: Vec::new(),
            },
            orig: original.flatten(),
            seen: vec![false; original.coflow_count()],
        }
    }

    /// The residual as of the last [`ResidualState::update`].
    pub fn residual(&self) -> &Residual {
        &self.res
    }

    /// Consumes the state, yielding the residual.
    fn into_residual(self) -> Residual {
        self.res
    }

    /// Brings the residual up to time `now`.
    ///
    /// * `admitted` — original coflow indices in admission order; must
    ///   extend the previous call's list (append-only). A non-extending
    ///   list falls back to a full rebuild.
    /// * `remaining` — remaining size per **original** flat index (≤ 0
    ///   means the flow completed and is frozen at size 0);
    /// * `paths` — the path each flow has committed to, per original flat
    ///   index (`None` = not routed yet; the LP stays free to choose).
    ///   A flow's committed path never changes, so paths already copied
    ///   into the residual are kept as-is.
    ///
    /// # Panics
    /// If `remaining`/`paths` lengths disagree with the instance or an
    /// admitted index repeats or is out of range.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn update(
        &mut self,
        original: &Instance,
        now: f64,
        admitted: &[usize],
        remaining: &[f64],
        paths: &[Option<Path>],
    ) -> &Residual {
        let nf = self.orig.flow_count();
        assert_eq!(remaining.len(), nf, "remaining must be flat-indexed");
        assert_eq!(paths.len(), nf, "paths must be flat-indexed");

        // Admission must extend the previous list; anything else (only
        // possible through direct API use, never from the engine) rebuilds.
        let extends = admitted.len() >= self.res.coflow_map.len()
            && self
                .res
                .coflow_map
                .iter()
                .zip(admitted)
                .all(|(a, b)| a == b);
        if !extends {
            self.res.instance.clear_coflows();
            self.res.coflow_map.clear();
            self.res.flat_map.clear();
            for s in self.seen.iter_mut() {
                *s = false;
            }
        }

        let Residual {
            instance,
            coflow_map,
            flat_map,
        } = &mut self.res;

        // In-place refresh of coflows already in the residual.
        let mut rflat = 0usize;
        for cf in instance.coflows.iter_mut() {
            for f in cf.flows.iter_mut() {
                let oflat = flat_map[rflat];
                f.size = remaining[oflat].max(0.0);
                f.release = (self.orig.release(oflat) - now).max(0.0);
                if f.path.is_none() {
                    if let Some(p) = &paths[oflat] {
                        f.path = Some(p.clone());
                    }
                }
                rflat += 1;
            }
        }

        // Append newly admitted coflows.
        for &ci in &admitted[coflow_map.len()..] {
            assert!(
                !std::mem::replace(&mut self.seen[ci], true),
                "coflow {ci} admitted twice"
            );
            let orig = &original.coflows[ci];
            let base = self.orig.flows_of(ci).start;
            let mut flows = Vec::with_capacity(orig.flows.len());
            for (j, f) in orig.flows.iter().enumerate() {
                let flat = base + j;
                flat_map.push(flat);
                flows.push(FlowSpec {
                    src: f.src,
                    dst: f.dst,
                    size: remaining[flat].max(0.0),
                    release: (f.release - now).max(0.0),
                    path: paths[flat].clone(),
                });
            }
            instance.push_coflow(Coflow::new(orig.weight, flows));
            coflow_map.push(ci);
        }

        &self.res
    }
}

/// Builds the residual instance at time `now` (stateless one-shot; see
/// [`ResidualState`] for the in-place epoch-loop variant and the meaning
/// of each argument).
///
/// # Panics
/// If `remaining`/`paths` lengths disagree with the instance or an
/// admitted index repeats or is out of range.
pub fn residual_instance(
    original: &Instance,
    now: f64,
    admitted: &[usize],
    remaining: &[f64],
    paths: &[Option<Path>],
) -> Residual {
    let mut st = ResidualState::new(original);
    st.update(original, now, admitted, remaining, paths);
    st.into_residual()
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_net::{topo, NodeId};

    fn two_coflows() -> Instance {
        let t = topo::line(3, 1.0);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    1.0,
                    vec![
                        FlowSpec::new(NodeId(0), NodeId(1), 2.0, 0.0),
                        FlowSpec::new(NodeId(1), NodeId(2), 3.0, 1.0),
                    ],
                ),
                Coflow::new(2.0, vec![FlowSpec::new(NodeId(0), NodeId(2), 4.0, 2.5)]),
            ],
        )
    }

    #[test]
    fn full_admission_at_time_zero_is_identity() {
        let inst = two_coflows();
        let remaining: Vec<f64> = inst.flows().map(|(_, _, f)| f.size).collect();
        let paths = vec![None; inst.flow_count()];
        let r = residual_instance(&inst, 0.0, &[0, 1], &remaining, &paths);
        assert_eq!(r.coflow_map, vec![0, 1]);
        assert_eq!(r.flat_map, vec![0, 1, 2]);
        assert_eq!(r.instance.coflow_count(), 2);
        for ((_, _, a), (_, _, b)) in inst.flows().zip(r.instance.flows()) {
            assert_eq!(a.size, b.size);
            assert_eq!(a.release, b.release);
            assert_eq!(a.src, b.src);
        }
        assert_eq!(r.instance.coflows[1].weight, 2.0);
    }

    #[test]
    fn shifts_releases_and_freezes_completed() {
        let inst = two_coflows();
        // At t = 2: flow 0 done, flow 1 half-served, coflow 1 not admitted.
        let remaining = vec![0.0, 1.5, 4.0];
        let paths = vec![None; 3];
        let r = residual_instance(&inst, 2.0, &[0], &remaining, &paths);
        assert_eq!(r.instance.coflow_count(), 1);
        assert_eq!(r.flat_map, vec![0, 1]);
        let flows = &r.instance.coflows[0].flows;
        assert_eq!(flows[0].size, 0.0, "completed flow frozen at zero");
        assert_eq!(flows[0].release, 0.0);
        assert_eq!(flows[1].size, 1.5);
        assert_eq!(flows[1].release, 0.0, "past release clamps to now");
        assert!((r.instance.total_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn admission_order_controls_residual_indices() {
        let inst = two_coflows();
        let remaining = vec![2.0, 3.0, 4.0];
        let paths = vec![None; 3];
        let r = residual_instance(&inst, 0.0, &[1, 0], &remaining, &paths);
        assert_eq!(r.coflow_map, vec![1, 0]);
        assert_eq!(r.flat_map, vec![2, 0, 1]);
        assert_eq!(r.instance.coflows[0].weight, 2.0);
    }

    #[test]
    fn committed_paths_carry_over() {
        let inst = two_coflows();
        let p = coflow_net::paths::bfs_shortest_path(&inst.graph, NodeId(0), NodeId(1)).unwrap();
        let mut paths = vec![None; 3];
        paths[0] = Some(p.clone());
        let remaining = vec![1.0, 3.0, 4.0];
        let r = residual_instance(&inst, 0.5, &[0, 1], &remaining, &paths);
        assert_eq!(r.instance.coflows[0].flows[0].path.as_ref(), Some(&p));
        assert!(r.instance.coflows[0].flows[1].path.is_none());
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn duplicate_admission_rejected() {
        let inst = two_coflows();
        let remaining = vec![2.0, 3.0, 4.0];
        let paths = vec![None; 3];
        let _ = residual_instance(&inst, 0.0, &[0, 0], &remaining, &paths);
    }

    /// A persistent state updated epoch-by-epoch must agree exactly with
    /// a fresh rebuild at every epoch, while growing only on admission.
    #[test]
    fn incremental_updates_match_fresh_rebuilds() {
        let inst = two_coflows();
        let mut st = ResidualState::new(&inst);
        let mut paths = vec![None; 3];

        // Epoch 1: only coflow 0 admitted.
        let remaining = vec![2.0, 3.0, 4.0];
        let a = st.update(&inst, 0.0, &[0], &remaining, &paths);
        let b = residual_instance(&inst, 0.0, &[0], &remaining, &paths);
        assert_eq!(a.flat_map, b.flat_map);
        assert_eq!(a.instance.total_size(), b.instance.total_size());

        // Epoch 2: progress on flow 0, a committed path, coflow 1 admitted.
        let p = coflow_net::paths::bfs_shortest_path(&inst.graph, NodeId(0), NodeId(1)).unwrap();
        paths[0] = Some(p.clone());
        let remaining = vec![0.5, 3.0, 4.0];
        let a = st.update(&inst, 1.5, &[0, 1], &remaining, &paths);
        let b = residual_instance(&inst, 1.5, &[0, 1], &remaining, &paths);
        assert_eq!(a.coflow_map, b.coflow_map);
        assert_eq!(a.flat_map, b.flat_map);
        for ((_, _, x), (_, _, y)) in a.instance.flows().zip(b.instance.flows()) {
            assert_eq!(x.size, y.size);
            assert_eq!(x.release, y.release);
            assert_eq!(x.path, y.path);
        }

        // Epoch 3: steady state (no admissions), flow 0 completes.
        let remaining = vec![0.0, 2.0, 3.5];
        let a = st.update(&inst, 2.0, &[0, 1], &remaining, &paths);
        let b = residual_instance(&inst, 2.0, &[0, 1], &remaining, &paths);
        assert_eq!(a.instance.coflows[0].flows[0].size, 0.0);
        assert_eq!(a.instance.total_size(), b.instance.total_size());
        assert_eq!(
            a.instance.coflows[0].flows[0].path.as_ref(),
            Some(&p),
            "committed path survives in-place refresh"
        );
    }

    /// A non-extending admission list is legal through the public API and
    /// falls back to a full rebuild.
    #[test]
    fn non_extending_admission_rebuilds() {
        let inst = two_coflows();
        let mut st = ResidualState::new(&inst);
        let paths = vec![None; 3];
        let remaining = vec![2.0, 3.0, 4.0];
        st.update(&inst, 0.0, &[0], &remaining, &paths);
        let r = st.update(&inst, 0.0, &[1, 0], &remaining, &paths);
        assert_eq!(r.coflow_map, vec![1, 0]);
        assert_eq!(r.flat_map, vec![2, 0, 1]);
        // The rebuilt residual is indistinguishable from a from-scratch one:
        // reordering must not leak any state from the previous epoch.
        let fresh = residual_instance(&inst, 0.0, &[1, 0], &remaining, &paths);
        assert_eq!(r.coflow_map, fresh.coflow_map);
        assert_eq!(r.flat_map, fresh.flat_map);
        assert_eq!(r.instance.coflows.len(), fresh.instance.coflows.len());
        for ((ia, fa, a), (ib, fb, b)) in r.instance.flows().zip(fresh.instance.flows()) {
            assert_eq!((ia, fa), (ib, fb));
            assert_eq!(a.size, b.size);
            assert_eq!(a.release, b.release);
            assert_eq!(a.path, b.path);
        }
    }
}
