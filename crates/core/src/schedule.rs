//! Schedule representations and feasibility checkers.
//!
//! Lemma 1 of the paper shows bandwidth functions can be assumed
//! piecewise-constant without loss of generality, so a circuit schedule
//! stores, per flow, a path and a list of constant-rate segments. The
//! checker enforces exactly the constraints of §2: demand delivery (Eq. 2),
//! edge capacities at all times (Eq. 3), and release times.
//!
//! Packet schedules store, per packet, the sequence of (time step, edge)
//! moves; the checker enforces store-and-forward semantics with unit edge
//! capacity per step (§3).

use crate::model::Instance;
use coflow_net::{EdgeId, Path};
use std::fmt;

/// A constant-bandwidth time segment `[start, end) × rate`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Segment start time.
    pub start: f64,
    /// Segment end time (`> start`).
    pub end: f64,
    /// Allocated bandwidth during the segment.
    pub rate: f64,
}

impl Segment {
    /// Volume delivered by this segment.
    pub fn volume(&self) -> f64 {
        (self.end - self.start) * self.rate
    }

    /// True when `start`, `end` and `rate` are all finite numbers.
    fn is_finite(&self) -> bool {
        self.start.is_finite() && self.end.is_finite() && self.rate.is_finite()
    }
}

/// A segment boundary in the checker's capacity sweep: at `time`, `rate`
/// is added to the load of every edge on flow `flat`'s path. A `pulse` is
/// a segment whose start and end are the same key: its rate is added and
/// removed edge by edge, as a per-edge sweep would, even on a path that
/// repeats an edge.
struct Boundary {
    time: f64,
    rate: f64,
    flat: u32,
    pulse: bool,
}

/// Per-flow circuit schedule: a path plus constant-rate segments.
#[derive(Clone, Debug, Default)]
pub struct FlowSchedule {
    /// The routed path.
    pub path: Path,
    /// Rate segments sorted by start, non-overlapping.
    pub segments: Vec<Segment>,
}

impl FlowSchedule {
    /// Total volume delivered.
    pub fn delivered(&self) -> f64 {
        self.segments.iter().map(Segment::volume).sum()
    }

    /// Completion time: earliest time by which `size` has been delivered
    /// (`None` if the schedule never delivers that much).
    pub fn completion(&self, size: f64) -> Option<f64> {
        if size <= 1e-12 {
            return Some(0.0);
        }
        let mut acc = 0.0;
        for s in &self.segments {
            let v = s.volume();
            if acc + v >= size - 1e-9 {
                let need = size - acc;
                let dt = if s.rate > 0.0 { need / s.rate } else { 0.0 };
                return Some(s.start + dt.clamp(0.0, s.end - s.start));
            }
            acc += v;
        }
        None
    }
}

/// A complete circuit schedule, flat-indexed like the instance's flows.
#[derive(Clone, Debug, Default)]
pub struct CircuitSchedule {
    /// Per-flow schedules (flat index order).
    pub flows: Vec<FlowSchedule>,
}

/// A violation found by the feasibility checker.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A flow's path is missing or not a simple src→dst path.
    BadPath {
        /// Flat index of the offending flow.
        flat: usize,
    },
    /// Segments overlap or are unordered for a flow.
    BadSegments {
        /// Flat index of the offending flow.
        flat: usize,
    },
    /// A segment starts before the flow's release time.
    ReleaseViolated {
        /// Flat index of the offending flow.
        flat: usize,
        /// Start time of the offending segment.
        start: f64,
        /// The flow's release time.
        release: f64,
    },
    /// Delivered volume differs from the demand by more than tolerance.
    WrongVolume {
        /// Flat index of the offending flow.
        flat: usize,
        /// Volume the schedule actually delivers.
        delivered: f64,
        /// Volume the flow demands.
        size: f64,
    },
    /// An edge is over capacity at some time.
    OverCapacity {
        /// The overloaded edge.
        edge: EdgeId,
        /// A time at which the overload occurs.
        time: f64,
        /// Aggregate bandwidth scheduled across the edge at `time`.
        load: f64,
        /// The edge's capacity.
        cap: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BadPath { flat } => write!(f, "flow {flat}: bad path"),
            Violation::BadSegments { flat } => write!(f, "flow {flat}: bad segments"),
            Violation::ReleaseViolated {
                flat,
                start,
                release,
            } => {
                write!(f, "flow {flat}: starts {start} before release {release}")
            }
            Violation::WrongVolume {
                flat,
                delivered,
                size,
            } => {
                write!(f, "flow {flat}: delivered {delivered} of {size}")
            }
            Violation::OverCapacity {
                edge,
                time,
                load,
                cap,
            } => {
                write!(f, "edge {edge:?} at t={time}: load {load} > cap {cap}")
            }
        }
    }
}

impl CircuitSchedule {
    /// Per-flow completion times (flat order). Flows that never finish get
    /// `f64::INFINITY`.
    pub fn completion_times(&self, instance: &Instance) -> Vec<f64> {
        let mut out = vec![0.0; instance.flow_count()];
        for (_, flat, spec) in instance.flows() {
            out[flat] = self.flows[flat]
                .completion(spec.size)
                .unwrap_or(f64::INFINITY);
        }
        out
    }

    /// Full feasibility check against `instance`:
    /// paths valid, segments ordered, releases respected, demand delivered
    /// (within `vol_tol` relative), and capacity respected everywhere
    /// (within `cap_tol` relative). Returns all violations found. A segment
    /// with a non-finite start, end or rate is a [`Violation::BadSegments`]
    /// and takes no part in the capacity check.
    ///
    /// Capacity is one sweep over the segment boundaries in time order,
    /// which tests at each boundary time only the edges it touches and
    /// reports the first overload of each edge, in edge order.
    pub fn check(&self, instance: &Instance, vol_tol: f64, cap_tol: f64) -> Vec<Violation> {
        let mut v = Vec::new();
        let g = &instance.graph;
        assert_eq!(self.flows.len(), instance.flow_count());

        for (_, flat, spec) in instance.flows() {
            let fs = &self.flows[flat];
            if spec.size > 1e-12 && !g.is_simple_path(&fs.path, spec.src, spec.dst) {
                v.push(Violation::BadPath { flat });
            }
            let mut prev_end = f64::NEG_INFINITY;
            let mut ok = true;
            for s in &fs.segments {
                if !s.is_finite()
                    || s.end <= s.start
                    || s.rate < -1e-12
                    || s.start < prev_end - 1e-9
                {
                    ok = false;
                    break;
                }
                prev_end = s.end;
            }
            if !ok {
                v.push(Violation::BadSegments { flat });
                continue;
            }
            if let Some(first) = fs.segments.iter().find(|s| s.rate > 1e-12) {
                if first.start < spec.release - 1e-9 {
                    v.push(Violation::ReleaseViolated {
                        flat,
                        start: first.start,
                        release: spec.release,
                    });
                }
            }
            let delivered = fs.delivered();
            let scale = 1.0 + spec.size;
            if (delivered - spec.size).abs() / scale > vol_tol {
                v.push(Violation::WrongVolume {
                    flat,
                    delivered,
                    size: spec.size,
                });
            }
        }

        // Capacity: one time-ordered sweep over segment boundaries. The
        // stable sort keeps, for every edge, the order in which a sweep over
        // that edge's own boundaries would add the same rates.
        let mut bounds: Vec<Boundary> = Vec::new();
        for (flat, fs) in self.flows.iter().enumerate() {
            let flat = flat as u32;
            for s in &fs.segments {
                if !s.is_finite() || s.rate <= 1e-12 {
                    continue;
                }
                // Bitwise equality: a start and end that sort as one key.
                let pulse = s.start.total_cmp(&s.end).is_eq();
                bounds.push(Boundary {
                    time: s.start,
                    rate: s.rate,
                    flat,
                    pulse,
                });
                if !pulse {
                    bounds.push(Boundary {
                        time: s.end,
                        rate: -s.rate,
                        flat,
                        pulse,
                    });
                }
            }
        }
        bounds.sort_by(|a, b| a.time.total_cmp(&b.time));
        let mut load = vec![0.0_f64; g.edge_count()];
        let mut first_over: Vec<Option<(f64, f64)>> = vec![None; g.edge_count()];
        // Edges touched at the current time, each with the time of the
        // first boundary that touched it there.
        let mut touched: Vec<(usize, f64)> = Vec::new();
        let mut i = 0;
        while i < bounds.len() {
            let t = bounds[i].time;
            // Apply all boundaries at identical time together (exact equality:
            // we group boundaries carrying the same stored value, not a tolerance).
            #[allow(clippy::float_cmp)]
            while i < bounds.len() && bounds[i].time == t {
                let b = &bounds[i];
                for &e in self.flows[b.flat as usize].path.edges.iter() {
                    let e = e.index();
                    load[e] += b.rate;
                    if b.pulse {
                        load[e] += -b.rate;
                    }
                    touched.push((e, b.time));
                }
                i += 1;
            }
            for (e, at) in touched.drain(..) {
                let cap = g.capacity(EdgeId(e as u32));
                if first_over[e].is_none() && load[e] > cap * (1.0 + cap_tol) + 1e-9 {
                    first_over[e] = Some((at, load[e]));
                }
            }
        }
        for (e, over) in first_over.into_iter().enumerate() {
            if let Some((time, load)) = over {
                let edge = EdgeId(e as u32);
                v.push(Violation::OverCapacity {
                    edge,
                    time,
                    load,
                    cap: g.capacity(edge),
                });
            }
        }
        v
    }

    /// Latest segment end over all flows.
    pub fn makespan(&self) -> f64 {
        self.flows
            .iter()
            .flat_map(|f| f.segments.iter())
            .map(|s| s.end)
            .fold(0.0, f64::max)
    }
}

/// One move of a packet: it traverses `edge` during step `[depart, depart+1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketMove {
    /// The time step at whose start the packet leaves the edge's tail.
    pub depart: u64,
    /// The traversed edge.
    pub edge: EdgeId,
}

/// A complete packet schedule, flat-indexed like the instance's flows.
#[derive(Clone, Debug, Default)]
pub struct PacketSchedule {
    /// Per-packet move lists.
    pub packets: Vec<Vec<PacketMove>>,
}

/// Packet-schedule violations.
#[derive(Clone, Debug, PartialEq)]
pub enum PacketViolation {
    /// Moves don't form a contiguous src→dst walk in time order.
    BadRoute {
        /// Flat index of the offending packet.
        flat: usize,
    },
    /// First move departs before the packet's (integer-rounded-up) release.
    ReleaseViolated {
        /// Flat index of the offending packet.
        flat: usize,
    },
    /// Two packets cross the same edge in the same step.
    EdgeConflict {
        /// The doubly-used edge.
        edge: EdgeId,
        /// The step at which both packets cross it.
        step: u64,
    },
}

impl PacketSchedule {
    /// Completion time of each packet: `depart + 1` of its last move
    /// (a packet with no moves completes at its release).
    pub fn completion_times(&self, instance: &Instance) -> Vec<f64> {
        let mut out = vec![0.0; instance.flow_count()];
        for (_, flat, spec) in instance.flows() {
            out[flat] = self.packets[flat]
                .last()
                .map(|m| (m.depart + 1) as f64)
                .unwrap_or(spec.release);
        }
        out
    }

    /// Checks store-and-forward semantics (§3): contiguous routes, releases,
    /// strictly increasing departure steps, and at most one packet per edge
    /// per step.
    pub fn check(&self, instance: &Instance) -> Vec<PacketViolation> {
        let mut v = Vec::new();
        let g = &instance.graph;
        assert_eq!(self.packets.len(), instance.flow_count());
        use std::collections::BTreeMap;
        let mut usage: BTreeMap<(u64, u32), usize> = BTreeMap::new();

        for (_, flat, spec) in instance.flows() {
            let moves = &self.packets[flat];
            if moves.is_empty() {
                v.push(PacketViolation::BadRoute { flat });
                continue;
            }
            let release_step = spec.release.ceil() as u64;
            if moves[0].depart < release_step {
                v.push(PacketViolation::ReleaseViolated { flat });
            }
            let mut at = spec.src;
            let mut prev_depart: Option<u64> = None;
            let mut ok = true;
            for m in moves {
                if g.edge_src(m.edge) != at {
                    ok = false;
                    break;
                }
                if let Some(p) = prev_depart {
                    if m.depart <= p {
                        ok = false;
                        break;
                    }
                }
                prev_depart = Some(m.depart);
                at = g.edge_dst(m.edge);
                *usage.entry((m.depart, m.edge.0)).or_insert(0) += 1;
            }
            if !ok || at != spec.dst {
                v.push(PacketViolation::BadRoute { flat });
            }
        }
        // BTreeMap iteration is ordered by (step, edge), so conflicts come out
        // sorted without a post-pass.
        v.extend(
            usage
                .into_iter()
                .filter(|&(_, count)| count > 1)
                .map(|((s, e), _)| PacketViolation::EdgeConflict {
                    edge: EdgeId(e),
                    step: s,
                }),
        );
        v
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::{paths, topo, NodeId};

    fn line_instance() -> Instance {
        let t = topo::line(3, 1.0);
        Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![
                    FlowSpec::new(NodeId(0), NodeId(2), 2.0, 0.0),
                    FlowSpec::new(NodeId(0), NodeId(2), 1.0, 1.0),
                ],
            )],
        )
    }

    fn path02(inst: &Instance) -> Path {
        paths::bfs_shortest_path(&inst.graph, NodeId(0), NodeId(2)).unwrap()
    }

    #[test]
    fn feasible_serial_schedule_passes() {
        let inst = line_instance();
        let p = path02(&inst);
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: p.clone(),
                    segments: vec![Segment {
                        start: 0.0,
                        end: 2.0,
                        rate: 1.0,
                    }],
                },
                FlowSchedule {
                    path: p,
                    segments: vec![Segment {
                        start: 2.0,
                        end: 3.0,
                        rate: 1.0,
                    }],
                },
            ],
        };
        assert!(sched.check(&inst, 1e-6, 1e-6).is_empty());
        let c = sched.completion_times(&inst);
        assert_eq!(c, vec![2.0, 3.0]);
        assert_eq!(sched.makespan(), 3.0);
    }

    #[test]
    fn overcapacity_detected() {
        let inst = line_instance();
        let p = path02(&inst);
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: p.clone(),
                    segments: vec![Segment {
                        start: 0.0,
                        end: 2.0,
                        rate: 1.0,
                    }],
                },
                FlowSchedule {
                    path: p,
                    segments: vec![Segment {
                        start: 1.0,
                        end: 2.0,
                        rate: 1.0,
                    }],
                },
            ],
        };
        let v = sched.check(&inst, 1e-6, 1e-6);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::OverCapacity { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn parallel_half_rate_ok() {
        let inst = line_instance();
        let p = path02(&inst);
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: p.clone(),
                    segments: vec![Segment {
                        start: 1.0,
                        end: 5.0,
                        rate: 0.5,
                    }],
                },
                FlowSchedule {
                    path: p,
                    segments: vec![Segment {
                        start: 1.0,
                        end: 3.0,
                        rate: 0.5,
                    }],
                },
            ],
        };
        assert!(sched.check(&inst, 1e-6, 1e-6).is_empty());
        let c = sched.completion_times(&inst);
        assert_eq!(c, vec![5.0, 3.0]);
    }

    #[test]
    fn release_violation_detected() {
        let inst = line_instance();
        let p = path02(&inst);
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: p.clone(),
                    segments: vec![Segment {
                        start: 0.0,
                        end: 2.0,
                        rate: 1.0,
                    }],
                },
                FlowSchedule {
                    path: p,
                    // released at 1.0 but starts at 0.5 — violation even if
                    // capacity is free... capacity also violated; check both.
                    segments: vec![Segment {
                        start: 0.5,
                        end: 1.5,
                        rate: 1.0,
                    }],
                },
            ],
        };
        let v = sched.check(&inst, 1e-6, 1e-6);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ReleaseViolated { .. })));
    }

    #[test]
    fn wrong_volume_detected() {
        let inst = line_instance();
        let p = path02(&inst);
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: p.clone(),
                    segments: vec![Segment {
                        start: 0.0,
                        end: 1.0,
                        rate: 1.0,
                    }], // only 1 of 2
                },
                FlowSchedule {
                    path: p,
                    segments: vec![Segment {
                        start: 1.0,
                        end: 2.0,
                        rate: 1.0,
                    }],
                },
            ],
        };
        let v = sched.check(&inst, 1e-6, 1e-6);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WrongVolume { flat: 0, .. })));
    }

    #[test]
    fn bad_segments_detected() {
        let inst = line_instance();
        let p = path02(&inst);
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: p.clone(),
                    segments: vec![
                        Segment {
                            start: 1.0,
                            end: 2.0,
                            rate: 1.0,
                        },
                        Segment {
                            start: 0.0,
                            end: 1.5,
                            rate: 1.0,
                        }, // overlap + unordered
                    ],
                },
                FlowSchedule {
                    path: p,
                    segments: vec![Segment {
                        start: 2.0,
                        end: 3.0,
                        rate: 1.0,
                    }],
                },
            ],
        };
        let v = sched.check(&inst, 1e-6, 1e-6);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::BadSegments { flat: 0 })));
    }

    #[test]
    fn bad_path_detected() {
        let inst = line_instance();
        let sched = CircuitSchedule {
            flows: vec![
                FlowSchedule {
                    path: Path::empty(), // not a src->dst path
                    segments: vec![Segment {
                        start: 0.0,
                        end: 2.0,
                        rate: 1.0,
                    }],
                },
                FlowSchedule {
                    path: path02(&inst),
                    segments: vec![Segment {
                        start: 2.0,
                        end: 3.0,
                        rate: 1.0,
                    }],
                },
            ],
        };
        let v = sched.check(&inst, 1e-6, 1e-6);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::BadPath { flat: 0 })));
    }

    #[test]
    fn completion_interpolates_within_segment() {
        let fs = FlowSchedule {
            path: Path::empty(),
            segments: vec![Segment {
                start: 1.0,
                end: 5.0,
                rate: 0.5,
            }],
        };
        // size 1 delivered after 2 time units at rate 0.5 => t = 3.
        assert!((fs.completion(1.0).unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(fs.completion(3.0), None); // only 2.0 deliverable
        assert_eq!(fs.completion(0.0), Some(0.0));
    }

    // ---- packet schedules ----

    fn packet_instance() -> Instance {
        let t = topo::line(3, 1.0);
        Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![
                    FlowSpec::new(NodeId(0), NodeId(2), 1.0, 0.0),
                    FlowSpec::new(NodeId(1), NodeId(2), 1.0, 0.0),
                ],
            )],
        )
    }

    #[test]
    fn packet_schedule_valid() {
        let inst = packet_instance();
        let e01 = inst.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e12 = inst.graph.find_edge(NodeId(1), NodeId(2)).unwrap();
        let sched = PacketSchedule {
            packets: vec![
                vec![
                    PacketMove {
                        depart: 0,
                        edge: e01,
                    },
                    PacketMove {
                        depart: 2,
                        edge: e12,
                    },
                ],
                vec![PacketMove {
                    depart: 0,
                    edge: e12,
                }],
            ],
        };
        assert!(sched.check(&inst).is_empty());
        let c = sched.completion_times(&inst);
        assert_eq!(c, vec![3.0, 1.0]);
    }

    #[test]
    fn packet_edge_conflict_detected() {
        let inst = packet_instance();
        let e01 = inst.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e12 = inst.graph.find_edge(NodeId(1), NodeId(2)).unwrap();
        let sched = PacketSchedule {
            packets: vec![
                vec![
                    PacketMove {
                        depart: 0,
                        edge: e01,
                    },
                    PacketMove {
                        depart: 1,
                        edge: e12,
                    },
                ],
                vec![PacketMove {
                    depart: 1,
                    edge: e12,
                }], // same edge, same step
            ],
        };
        let v = sched.check(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, PacketViolation::EdgeConflict { .. })));
    }

    #[test]
    fn packet_bad_route_detected() {
        let inst = packet_instance();
        let e12 = inst.graph.find_edge(NodeId(1), NodeId(2)).unwrap();
        let sched = PacketSchedule {
            packets: vec![
                vec![PacketMove {
                    depart: 0,
                    edge: e12,
                }], // starts at node 1, packet is at 0
                vec![PacketMove {
                    depart: 1,
                    edge: e12,
                }],
            ],
        };
        let v = sched.check(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, PacketViolation::BadRoute { flat: 0 })));
    }

    #[test]
    fn packet_nondecreasing_times_enforced() {
        let inst = packet_instance();
        let e01 = inst.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e12 = inst.graph.find_edge(NodeId(1), NodeId(2)).unwrap();
        let sched = PacketSchedule {
            packets: vec![
                // second move departs at the same step it arrives: illegal
                // (store-and-forward: one edge per step, arrival at depart+1)
                vec![
                    PacketMove {
                        depart: 0,
                        edge: e01,
                    },
                    PacketMove {
                        depart: 0,
                        edge: e12,
                    },
                ],
                vec![PacketMove {
                    depart: 3,
                    edge: e12,
                }],
            ],
        };
        let v = sched.check(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, PacketViolation::BadRoute { flat: 0 })));
    }

    #[test]
    fn packet_release_violation() {
        let t = topo::line(2, 1.0);
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 2.5)],
            )],
        );
        let e01 = inst.graph.find_edge(NodeId(0), NodeId(1)).unwrap();
        let sched = PacketSchedule {
            packets: vec![vec![PacketMove {
                depart: 2,
                edge: e01,
            }]],
        };
        let v = sched.check(&inst);
        assert!(v
            .iter()
            .any(|x| matches!(x, PacketViolation::ReleaseViolated { flat: 0 })));
        let ok = PacketSchedule {
            packets: vec![vec![PacketMove {
                depart: 3,
                edge: e01,
            }]],
        };
        assert!(ok.check(&inst).is_empty());
    }
}
