// lint-fixture-expect:
// Declared `#[cfg(test)] mod audit;` by its parent: test code throughout,
// so nothing here is reported.

fn fresh(xs: &[f64]) -> f64 {
    let first = xs.first().unwrap();
    println!("{first}");
    assert!(*first == 0.0);
    *first
}
