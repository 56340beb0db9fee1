// lint-fixture-expect:
// Declared `#[cfg(test)] mod audit;` by its parent: test code throughout,
// so nothing here is reported.

fn fresh(xs: Vec<Option<f64>>) -> bool {
    let first: Vec<f64> = xs.into_iter().map(Option::unwrap).collect();
    first[0] == 0.0
}
