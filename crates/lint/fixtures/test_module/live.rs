// lint-fixture-expect: float_cmp=1
// Declared `mod live;` by the same parent: library code, linted as such.

fn is_origin(x: f64) -> bool {
    x == 0.0
}
