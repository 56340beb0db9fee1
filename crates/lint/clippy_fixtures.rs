//! Seeded violations of the lint policy that clippy enforces
//! (`[workspace.lints]` in the root `Cargo.toml`, lists in `clippy.toml`).
//!
//! Each seeded item carries `#[expect(clippy::<lint>, reason = "fixture")]`:
//! if clippy stops rejecting it, `unfulfilled_lint_expectations` fails
//! `cargo clippy --workspace --all-targets -- -D warnings`. The `fine_*`
//! items carry no attribute, so a false positive fails the same run.
//! Nothing here is called.

#![allow(dead_code, reason = "fixtures are linted, never called")]

// No panics in library code: the method and macro forms. The path forms
// (`.map(Option::unwrap)`) are coflow-lint's `no_panic`.

#[expect(clippy::unwrap_used, reason = "fixture")]
fn seeded_unwrap(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

#[expect(clippy::expect_used, reason = "fixture")]
fn seeded_expect(xs: &[u32]) -> u32 {
    *xs.get(1).expect("second element")
}

#[expect(clippy::panic, reason = "fixture")]
fn seeded_panic() {
    panic!("zero first element");
}

#[expect(clippy::unreachable, reason = "fixture")]
fn seeded_unreachable() -> u32 {
    unreachable!()
}

fn fine_no_panic(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap_or(0).saturating_add(1)
}

// No console output from library code.

#[expect(clippy::print_stdout, reason = "fixture")]
fn seeded_println(x: u32) {
    println!("x = {x}");
}

#[expect(clippy::print_stderr, reason = "fixture")]
fn seeded_eprintln() {
    eprintln!("warning");
}

#[expect(clippy::dbg_macro, reason = "fixture")]
fn seeded_dbg(x: u32) -> u32 {
    dbg!(x)
}

fn fine_format(x: u32) -> String {
    format!("x = {x}")
}

// Hash-ordered collections: every use, not just imports.

#[expect(clippy::disallowed_types, reason = "fixture")]
use std::collections::HashMap;
#[expect(clippy::disallowed_types, reason = "fixture")]
use std::collections::HashSet;

#[expect(clippy::disallowed_types, reason = "fixture")]
fn seeded_hash_params(m: &HashMap<u32, u32>, s: &HashSet<u32>) -> usize {
    m.len() + s.len()
}

fn fine_btree(m: &std::collections::BTreeMap<u32, u32>) -> usize {
    m.len()
}

// Wall clocks: timing goes through a `coflow_obs::Recorder`.

#[expect(clippy::disallowed_types, reason = "fixture")]
use std::time::Instant;

#[expect(clippy::disallowed_types, reason = "fixture")]
fn seeded_stopwatch() -> f64 {
    Instant::now().elapsed().as_secs_f64()
}

#[expect(clippy::disallowed_types, reason = "fixture")]
fn seeded_system_clock() -> bool {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .is_ok()
}

fn fine_duration(d: std::time::Duration) -> u128 {
    d.as_millis()
}

// Allocation in hot functions, which carry the `deny`.

#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn seeded_hot(xs: &[u32]) -> u32 {
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let scratch: Vec<u32> = Vec::new();
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
    #[expect(clippy::disallowed_macros, reason = "fixture")]
    let ring = vec![0u32; xs.len()];
    #[expect(clippy::disallowed_methods, reason = "fixture")]
    let boxed = Box::new(7u32);
    scratch.len() as u32 + doubled.len() as u32 + ring[0] + *boxed
}

fn fine_cold(xs: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    out.extend(xs.iter().map(|x| x + 1));
    out
}

#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn fine_hot(xs: &[u32], buf: &mut Vec<u32>) -> u32 {
    buf.clear();
    buf.extend_from_slice(xs);
    let mut out = Vec::with_capacity(xs.len());
    out.extend_from_slice(buf);
    out.iter().sum()
}

// Float variables, which coflow-lint's text rule cannot see.

#[expect(clippy::float_cmp, reason = "fixture")]
fn seeded_float_vars(x: f64, y: f64) -> bool {
    x == y
}

// A waiver without a reason.

#[expect(clippy::allow_attributes_without_reason, reason = "fixture")]
fn seeded_bare_waiver(xs: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used)]
    let last = xs.last().unwrap();
    *last
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_fail_fast_and_print() {
        let v = [1u32].first().copied();
        assert_eq!(v.unwrap(), 1);
        println!("test output is fine");
    }
}
