// lint-fixture-expect: no_panic=6
// Seeded L1 violations: panicking constructs in library code.

fn seeded(xs: &[u32]) -> u32 {
    let first = xs.first().unwrap();
    let second = xs.get(1).expect("second element");
    if *first == 0 {
        panic!("zero first element");
    }
    match second {
        0 => unreachable!(),
        v => *v,
    }
}

fn seeded_paths(xs: Vec<Option<u32>>, ys: Vec<Result<u32, ()>>) -> u32 {
    // Path-form unwraps panic just the same.
    let a: Vec<u32> = xs.into_iter().map(Option::unwrap).collect();
    let b: Vec<u32> = ys.into_iter().map(Result::unwrap).collect();
    a.len() as u32 + b.len() as u32
}

fn fine(xs: &[u32]) -> u32 {
    // These must NOT be flagged: non-panicking variants and test code.
    xs.first().copied().unwrap_or(0).saturating_add(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1); // tests are exempt from L1
    }
}
