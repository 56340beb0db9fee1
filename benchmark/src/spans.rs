//! The benchmark's own span list: one span per layer boundary, recorded
//! around calls into the crates' public functions. (`coflow_obs::SpanName`
//! is a closed enum, so harness spans cannot live in a `Recorder`.)
//!
//! Spans are kept in memory and written as JSONL when the workload ends.
//! A span's self time is its duration minus its children's.

use std::io::Write as _;
use std::time::Instant;

pub struct Span {
    /// Named after the per-layer metric the span feeds.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Spans of one op share this id.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Root span of one op.
pub const OP: &str = "op";

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next op: later spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`; with spans off it only runs `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx as usize].end_ns = end;
        out
    }

    /// Sum of the durations of all spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Share of the op root spans' time not covered by their direct
    /// children: what the layer spans fail to attribute.
    pub fn unattributed_share(&self) -> f64 {
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            if s.name == OP {
                root_ns += s.dur_ns();
            } else if s.parent.is_some_and(|p| self.spans[p as usize].name == OP) {
                child_ns += s.dur_ns();
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            1.0 - child_ns as f64 / root_ns as f64
        }
    }

    /// Writes one JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `self_ns`, `parent` (line index or null) and `op`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.dur_ns().saturating_sub(child_ns[i]),
                parent,
                s.op
            )?;
        }
        w.flush()
    }
}
