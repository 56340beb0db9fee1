// lint-fixture-expect: no_panic=1
// Declared `mod live;` by the same parent: library code, linted as such.

fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
