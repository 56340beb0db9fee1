//! Arrival traces: the time-ordered stream of coflow arrivals the engine
//! ingests.
//!
//! The canonical trace of an [`Instance`] releases each coflow at its
//! earliest member-flow release (the generator's Poisson arrival process —
//! `coflow-workloads::gen` — puts exactly that structure on instances).
//! Custom traces allow batching or replaying recorded arrival logs.

use coflow_core::Instance;

/// A time-ordered stream of coflow arrivals.
#[derive(Clone, Debug, Default)]
pub struct ArrivalTrace {
    /// `(arrival time, original coflow index)`, sorted by time then index.
    events: Vec<(f64, usize)>,
}

impl ArrivalTrace {
    /// The canonical trace: each coflow arrives at its earliest flow
    /// release (empty coflows arrive at 0 and complete immediately).
    pub fn from_instance(instance: &Instance) -> Self {
        let events = instance
            .coflows
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let r = c.earliest_release();
                (if r.is_finite() { r } else { 0.0 }, i)
            })
            .collect();
        Self::from_events(events)
    }

    /// A custom trace. Events are sorted by `(time, coflow index)`.
    ///
    /// # Panics
    /// If a time is negative or non-finite, or an index repeats.
    pub fn from_events(mut events: Vec<(f64, usize)>) -> Self {
        #[expect(
            clippy::disallowed_types,
            reason = "duplicate-detection set, never iterated"
        )]
        let mut seen = std::collections::HashSet::new();
        for &(t, i) in &events {
            assert!(t >= 0.0 && t.is_finite(), "bad arrival time {t}");
            assert!(seen.insert(i), "coflow {i} arrives twice");
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self { events }
    }

    /// The sorted events.
    pub fn events(&self) -> &[(f64, usize)] {
        &self.events
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when there are no arrivals.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_core::{Coflow, FlowSpec};
    use coflow_net::{topo, NodeId};

    #[test]
    fn instance_trace_sorted_by_earliest_release() {
        let t = topo::line(3, 1.0);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 5.0)]),
                Coflow::new(
                    1.0,
                    vec![
                        FlowSpec::new(NodeId(0), NodeId(1), 1.0, 3.0),
                        FlowSpec::new(NodeId(1), NodeId(2), 1.0, 9.0),
                    ],
                ),
            ],
        );
        let tr = ArrivalTrace::from_instance(&inst);
        assert_eq!(tr.events(), &[(3.0, 1), (5.0, 0)]);
    }

    #[test]
    fn ties_break_by_index() {
        let tr = ArrivalTrace::from_events(vec![(1.0, 2), (1.0, 0), (0.5, 1)]);
        assert_eq!(tr.events(), &[(0.5, 1), (1.0, 0), (1.0, 2)]);
        assert_eq!(tr.len(), 3);
        assert!(!tr.is_empty());
    }

    #[test]
    #[should_panic(expected = "arrives twice")]
    fn duplicate_coflow_rejected() {
        let _ = ArrivalTrace::from_events(vec![(0.0, 1), (1.0, 1)]);
    }
}
