//! Instance snapshots: JSON (de)serialization for reproducibility.
//!
//! The experiment harness records the exact instances behind every reported
//! number. The build environment has no crates.io access, so instead of
//! `serde_json` this module hand-rolls the one format it needs: a small
//! JSON value type, a recursive-descent parser, and the instance snapshot
//! schema below. Floats are printed with Rust's shortest round-trip
//! formatting, so `to_json` → `from_json` reproduces every `f64` bit for
//! bit.
//!
//! ```json
//! {
//!   "nodes": [null, null, ...],
//!   "edges": [[src, dst, cap], ...],
//!   "coflows": [
//!     {"weight": w,
//!      "flows": [{"src": s, "dst": d, "size": x, "release": r,
//!                 "path": [e0, e1] | null}, ...]},
//!     ...
//!   ]
//! }
//! ```
//!
//! Nodes are anonymous, so `"nodes"` holds one `null` per node; a string
//! there (a node label, as older snapshots wrote) is accepted and ignored.

use coflow_core::model::{Coflow, FlowSpec, Instance};
use coflow_net::{EdgeId, Graph, NodeId, Path as NetPath};
use std::fmt;
use std::path::Path;

/// What went wrong, coarsely: callers that only want to distinguish
/// resource-limit rejections (hostile or corrupt input) from ordinary
/// malformed documents can match on this instead of the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JsonErrorKind {
    /// Syntax or schema violation (the common case).
    #[default]
    Malformed,
    /// Input exceeds [`MAX_INPUT_BYTES`]; parsing never started.
    TooLarge,
    /// Nesting exceeds [`MAX_DEPTH`]; parsing stopped at the ceiling.
    TooDeep,
}

/// Error produced by [`from_json`] / [`to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description, with byte offset for parse errors.
    pub message: String,
    /// Coarse classification (see [`JsonErrorKind`]).
    pub kind: JsonErrorKind,
}

impl JsonError {
    fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            kind: JsonErrorKind::Malformed,
        }
    }

    fn limit(kind: JsonErrorKind, message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            kind,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serializes an instance to pretty JSON.
pub fn to_json(instance: &Instance) -> Result<String, JsonError> {
    // JSON has no representation for non-finite numbers; {:?} would emit
    // `inf`/`NaN` text that this module's own parser rejects on load.
    for (i, c) in instance.coflows.iter().enumerate() {
        if !c.weight.is_finite() {
            return Err(JsonError::new(format!(
                "coflow {i}: non-finite weight {}",
                c.weight
            )));
        }
        for (j, f) in c.flows.iter().enumerate() {
            if !f.size.is_finite() || !f.release.is_finite() {
                return Err(JsonError::new(format!(
                    "coflow {i} flow {j}: non-finite size {} or release {}",
                    f.size, f.release
                )));
            }
        }
    }
    let g = &instance.graph;
    let mut s = String::with_capacity(4096);
    s.push_str("{\n  \"nodes\": [");
    for i in 0..g.node_count() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str("null");
    }
    s.push_str("],\n  \"edges\": [\n");
    for (i, e) in g.edges().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let (src, dst) = g.endpoints(e);
        s.push_str(&format!("    [{}, {}, {:?}]", src.0, dst.0, g.capacity(e)));
    }
    s.push_str("\n  ],\n  \"coflows\": [\n");
    for (i, c) in instance.coflows.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&format!("    {{\"weight\": {:?}, \"flows\": [\n", c.weight));
        for (j, f) in c.flows.iter().enumerate() {
            if j > 0 {
                s.push_str(",\n");
            }
            s.push_str(&format!(
                "      {{\"src\": {}, \"dst\": {}, \"size\": {:?}, \"release\": {:?}, \"path\": ",
                f.src.0, f.dst.0, f.size, f.release
            ));
            match &f.path {
                None => s.push_str("null"),
                Some(p) => {
                    s.push('[');
                    for (k, e) in p.edges.iter().enumerate() {
                        if k > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&e.0.to_string());
                    }
                    s.push(']');
                }
            }
            s.push('}');
        }
        s.push_str("\n    ]}");
    }
    s.push_str("\n  ]\n}\n");
    Ok(s)
}

/// Parses an instance from JSON produced by [`to_json`].
pub fn from_json(s: &str) -> Result<Instance, JsonError> {
    let value = parse_json(s)?;
    let obj = value.as_object("top level")?;

    let mut graph = Graph::new();
    for (i, n) in obj
        .get("nodes", "top level")?
        .as_array("nodes")?
        .iter()
        .enumerate()
    {
        match n {
            Value::Null | Value::Str(_) => {
                graph.add_node();
            }
            _ => {
                return Err(JsonError::new(format!(
                    "nodes[{i}]: expected string or null"
                )))
            }
        }
    }
    let n_nodes = graph.node_count();
    for (i, e) in obj
        .get("edges", "top level")?
        .as_array("edges")?
        .iter()
        .enumerate()
    {
        let t = e.as_array(&format!("edges[{i}]"))?;
        if t.len() != 3 {
            return Err(JsonError::new(format!(
                "edges[{i}]: expected [src, dst, cap]"
            )));
        }
        let src = t[0].as_index(&format!("edges[{i}].src"), n_nodes)?;
        let dst = t[1].as_index(&format!("edges[{i}].dst"), n_nodes)?;
        let cap = t[2].as_f64(&format!("edges[{i}].cap"))?;
        if !(cap >= 0.0 && cap.is_finite()) {
            return Err(JsonError::new(format!("edges[{i}]: bad capacity {cap}")));
        }
        graph.add_edge(NodeId(src as u32), NodeId(dst as u32), cap);
    }
    let n_edges = graph.edge_count();

    let mut coflows = Vec::new();
    for (i, c) in obj
        .get("coflows", "top level")?
        .as_array("coflows")?
        .iter()
        .enumerate()
    {
        let ctx = format!("coflows[{i}]");
        let cobj = c.as_object(&ctx)?;
        let weight = cobj.get("weight", &ctx)?.as_f64(&format!("{ctx}.weight"))?;
        if !(weight >= 0.0 && weight.is_finite()) {
            return Err(JsonError::new(format!(
                "{ctx}: weight must be finite and >= 0, got {weight}"
            )));
        }
        let mut flows = Vec::new();
        for (j, f) in cobj
            .get("flows", &ctx)?
            .as_array(&format!("{ctx}.flows"))?
            .iter()
            .enumerate()
        {
            let fctx = format!("{ctx}.flows[{j}]");
            let fobj = f.as_object(&fctx)?;
            let src = fobj
                .get("src", &fctx)?
                .as_index(&format!("{fctx}.src"), n_nodes)?;
            let dst = fobj
                .get("dst", &fctx)?
                .as_index(&format!("{fctx}.dst"), n_nodes)?;
            let size = fobj.get("size", &fctx)?.as_f64(&format!("{fctx}.size"))?;
            let release = fobj
                .get("release", &fctx)?
                .as_f64(&format!("{fctx}.release"))?;
            // NaN fails every comparison, so `!(x >= 0)` catches NaN,
            // negatives, and (via is_finite) overflow literals like 1e999.
            if !(size >= 0.0 && size.is_finite()) {
                return Err(JsonError::new(format!(
                    "{fctx}: size must be finite and >= 0, got {size}"
                )));
            }
            if !(release >= 0.0 && release.is_finite()) {
                return Err(JsonError::new(format!(
                    "{fctx}: release must be finite and >= 0, got {release}"
                )));
            }
            let mut spec = FlowSpec::new(NodeId(src as u32), NodeId(dst as u32), size, release);
            match fobj.get("path", &fctx)? {
                Value::Null => {}
                p => {
                    let edges = p
                        .as_array(&format!("{fctx}.path"))?
                        .iter()
                        .enumerate()
                        .map(|(k, e)| {
                            e.as_index(&format!("{fctx}.path[{k}]"), n_edges)
                                .map(|x| EdgeId(x as u32))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    spec.path = Some(NetPath::new(edges));
                }
            }
            flows.push(spec);
        }
        coflows.push(Coflow::new(weight, flows));
    }
    Ok(Instance::new(graph, coflows))
}

/// Writes a trace snapshot as JSONL (one JSON object per line), creating
/// parent directories as needed. The bytes are exactly
/// [`coflow_obs::Trace::render_jsonl`] — the canonical serialization, so
/// logical-clock traces written here byte-diff clean across runs.
pub fn write_trace(path: &Path, trace: &coflow_obs::Trace) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.render_jsonl())
}

/// Reads a JSONL trace file back as one [`Value`] per line (blank lines
/// skipped). Consumers dispatch on each object's `"type"` field; see the
/// `trace_view` tool for the main reader.
pub fn read_trace_lines(path: &Path) -> std::io::Result<Vec<Value>> {
    let s = std::fs::read_to_string(path)?;
    s.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).map_err(std::io::Error::other))
        .collect()
}

// ---------------------------------------------------------------------------
// Minimal JSON value, parser, and string writer.
// ---------------------------------------------------------------------------

/// A JSON value.
///
/// Public so other packages (`trace_view`, the `benchmark/` result files)
/// build, render and parse machine-readable artifacts through the one
/// hand-rolled JSON implementation instead of each formatting strings by
/// hand. Construct
/// values directly (`Value::Obj(vec![("k".into(), Value::Num(1.0))])`),
/// render with [`Value::render`], parse with [`parse_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always an `f64`; non-finite values cannot be rendered).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs (insertion order preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Renders to a pretty-printed JSON string (2-space indent). Floats use
    /// Rust's shortest round-trip formatting, so [`parse_json`] ∘ `render`
    /// is the identity on every finite `f64`.
    ///
    /// # Panics
    /// On non-finite numbers (JSON cannot represent them; callers validate
    /// before building the tree, as [`to_json`] does for instances).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, level: usize) {
        let pad = |out: &mut String, l: usize| {
            for _ in 0..l {
                out.push_str("  ");
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                assert!(x.is_finite(), "JSON cannot represent {x}");
                out.push_str(&format!("{x:?}"));
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Scalar-only arrays stay on one line.
                if items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)))
                {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.write(out, level);
                    }
                    out.push(']');
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, level + 1);
                    v.write(out, level + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, level);
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, level + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write(out, level + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, level);
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object value (`None` for non-objects).
    pub fn lookup(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Value {
    fn as_array(&self, ctx: &str) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(v) => Ok(v),
            _ => Err(JsonError::new(format!("{ctx}: expected array"))),
        }
    }

    fn as_object(&self, ctx: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Obj(_) => Ok(self),
            _ => Err(JsonError::new(format!("{ctx}: expected object"))),
        }
    }

    fn get(&self, key: &str, ctx: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("{ctx}: missing key \"{key}\""))),
            _ => Err(JsonError::new(format!("{ctx}: expected object"))),
        }
    }

    fn as_f64(&self, ctx: &str) -> Result<f64, JsonError> {
        match self {
            Value::Num(x) => Ok(*x),
            _ => Err(JsonError::new(format!("{ctx}: expected number"))),
        }
    }

    /// A non-negative integer strictly below `bound`.
    fn as_index(&self, ctx: &str, bound: usize) -> Result<usize, JsonError> {
        let x = self.as_f64(ctx)?;
        // lint: allow(float_cmp) — fract() == 0.0 is the exact integrality test
        if x < 0.0 || x.fract() != 0.0 || !x.is_finite() {
            return Err(JsonError::new(format!(
                "{ctx}: expected a non-negative integer, got {x}"
            )));
        }
        let i = x as usize;
        if i >= bound {
            return Err(JsonError::new(format!(
                "{ctx}: index {i} out of range (< {bound})"
            )));
        }
        Ok(i)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Nesting ceiling: snapshot files are 3 levels deep, so any input past
/// this is garbage — better a `JsonError` than recursing to stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Input-size ceiling (bytes). The largest committed artifacts are a few
/// megabytes; a document past this is a corrupt or hostile file, rejected
/// up front ([`JsonErrorKind::TooLarge`]) before the parser allocates a
/// value tree proportional to it.
pub const MAX_INPUT_BYTES: usize = 64 << 20;

/// Parses a JSON document into a [`Value`] tree.
pub fn parse_json(s: &str) -> Result<Value, JsonError> {
    if s.len() > MAX_INPUT_BYTES {
        return Err(JsonError::limit(
            JsonErrorKind::TooLarge,
            format!(
                "input is {} bytes, over the {MAX_INPUT_BYTES}-byte limit",
                s.len()
            ),
        ));
    }
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::limit(
                JsonErrorKind::TooDeep,
                format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos),
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'{')?;
        self.descend()?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect_byte(b':')?;
            pairs.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by to_json;
                            // reject rather than silently corrupt.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we consumed.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("bad UTF-8"))?;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use coflow_net::topo;

    #[test]
    fn json_roundtrip_preserves_instance() {
        let t = topo::fat_tree(4, 1.0);
        let inst = generate(
            &t,
            &GenConfig {
                n_coflows: 3,
                width: 4,
                ..Default::default()
            },
        );
        let json = to_json(&inst).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.coflow_count(), inst.coflow_count());
        assert_eq!(back.flow_count(), inst.flow_count());
        assert_eq!(back.graph.edge_count(), inst.graph.edge_count());
        for ((_, _, a), (_, _, b)) in inst.flows().zip(back.flows()) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.size, b.size);
            // Shortest round-trip float formatting is exact.
            assert_eq!(a.release, b.release);
        }
        assert!(back.validate().is_empty());
    }

    #[test]
    fn roundtrip_preserves_paths_and_capacities() {
        let t = topo::triangle();
        let p = coflow_net::paths::bfs_shortest_path(&t.graph, t.hosts[0], t.hosts[1]).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                2.5,
                vec![FlowSpec::with_path(
                    t.hosts[0],
                    t.hosts[1],
                    3.0,
                    0.25,
                    p.clone(),
                )],
            )],
        );
        let back = from_json(&to_json(&inst).unwrap()).unwrap();
        assert_eq!(back.coflows[0].weight, 2.5);
        assert_eq!(back.coflows[0].flows[0].path.as_ref(), Some(&p));
        for e in inst.graph.edges() {
            assert_eq!(back.graph.capacity(e), inst.graph.capacity(e));
            assert_eq!(back.graph.endpoints(e), inst.graph.endpoints(e));
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(from_json("{not json").is_err());
        assert!(from_json("").is_err());
        assert!(from_json("{}").is_err(), "missing keys must be reported");
        assert!(from_json("{\"nodes\": [], \"edges\": [[0, 0, 1.0]], \"coflows\": []}").is_err());
    }

    #[test]
    fn deep_nesting_rejected_not_stack_overflow() {
        let bomb = "[".repeat(100_000);
        let err = from_json(&bomb).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert!(err.message.contains("nesting deeper than"), "{err}");
        // Exactly at the ceiling still parses (as unbalanced input, but
        // the depth guard itself must not fire one level early).
        let at_limit = "[".repeat(MAX_DEPTH);
        assert_eq!(
            from_json(&at_limit).unwrap_err().kind,
            JsonErrorKind::Malformed
        );
    }

    #[test]
    fn oversized_input_rejected_before_parsing() {
        let huge = "x".repeat(MAX_INPUT_BYTES + 1);
        let err = from_json(&huge).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooLarge);
        assert!(err.message.contains("byte limit"), "{err}");
        // Ordinary malformed input keeps the default kind.
        assert_eq!(
            from_json("{not json").unwrap_err().kind,
            JsonErrorKind::Malformed
        );
    }

    #[test]
    fn non_finite_values_rejected_at_save_time() {
        let t = topo::triangle();
        let flow = |size: f64, release: f64| FlowSpec::new(t.hosts[0], t.hosts[1], size, release);
        let bad_weight = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(f64::INFINITY, vec![flow(1.0, 0.0)])],
        );
        assert!(to_json(&bad_weight)
            .unwrap_err()
            .message
            .contains("non-finite weight"));
        let bad_size = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(1.0, vec![flow(f64::NAN, 0.0)])],
        );
        assert!(to_json(&bad_size).is_err());
        let bad_release = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(1.0, vec![flow(1.0, f64::INFINITY)])],
        );
        assert!(to_json(&bad_release).is_err());
    }

    #[test]
    fn negative_or_nonfinite_scalars_rejected_at_load_time() {
        let doc = |size: &str, release: &str, weight: &str| {
            format!(
                concat!(
                    "{{\"nodes\": [null, null], \"edges\": [[0, 1, 1.0]], \"coflows\": [",
                    "{{\"weight\": {}, \"flows\": [{{\"src\": 0, \"dst\": 1, ",
                    "\"size\": {}, \"release\": {}, \"path\": null}}]}}]}}"
                ),
                weight, size, release
            )
        };
        assert!(from_json(&doc("1.0", "0.0", "1.0")).is_ok());
        let err = from_json(&doc("1.0", "-0.5", "1.0")).unwrap_err();
        assert!(err.message.contains("release must be finite"), "{err}");
        let err = from_json(&doc("1.0", "1e999", "1.0")).unwrap_err();
        assert!(err.message.contains("release must be finite"), "{err}");
        let err = from_json(&doc("-2.0", "0.0", "1.0")).unwrap_err();
        assert!(err.message.contains("size must be finite"), "{err}");
        let err = from_json(&doc("1.0", "0.0", "-1.0")).unwrap_err();
        assert!(err.message.contains("weight must be finite"), "{err}");
    }

    #[test]
    fn value_render_parse_roundtrip() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("online/\"smoke\"".into())),
            ("pivots".into(), Value::Num(42.0)),
            ("warm".into(), Value::Bool(true)),
            (
                "rates".into(),
                Value::Arr(vec![Value::Num(0.25), Value::Num(0.5)]),
            ),
            ("empty".into(), Value::Arr(vec![])),
            ("nothing".into(), Value::Null),
        ]);
        let back = parse_json(&v.render()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.lookup("pivots"), Some(&Value::Num(42.0)));
        assert_eq!(back.lookup("missing"), None);
    }

    #[test]
    fn trace_file_roundtrips_line_by_line() {
        let mut rec = coflow_obs::Recorder::new();
        rec.set_mode(coflow_obs::ClockMode::Logical);
        rec.enter(coflow_obs::SpanName::Solve);
        rec.enter(coflow_obs::SpanName::Phase2);
        rec.exit();
        rec.exit();
        let trace = rec.drain();
        let dir = std::env::temp_dir().join("coflow-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("trace.jsonl");
        write_trace(&p, &trace).unwrap();
        let lines = read_trace_lines(&p).unwrap();
        assert_eq!(
            lines[0].lookup("type"),
            Some(&Value::Str("meta".into())),
            "first line must be the meta record"
        );
        assert_eq!(
            lines[0].lookup("clock"),
            Some(&Value::Str("logical".into()))
        );
        let spans = lines
            .iter()
            .filter(|l| l.lookup("type") == Some(&Value::Str("span".into())))
            .count();
        assert_eq!(spans, 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn special_strings_roundtrip() {
        let weird = Value::Str("weird \"label\"\nwith\tescapes\\and-unicode-\u{3b1}".into());
        assert_eq!(
            parse_json(&weird.render()).unwrap(),
            weird,
            "escaped string must survive the round trip"
        );
        // A snapshot with node labels still loads, its nodes anonymous.
        let labeled = r#"{"nodes": ["host-0", null], "edges": [[0, 1, 1.0]], "coflows": []}"#;
        let back = from_json(labeled).unwrap();
        assert_eq!(back.graph.node_count(), 2);
        assert_eq!(back.graph.endpoints(EdgeId(0)), (NodeId(0), NodeId(1)));
        assert!(to_json(&back).unwrap().contains("\"nodes\": [null, null]"));
    }
}
