// lint-fixture-expect: no_panic=2
// Seeded path-form unwraps, which clippy's `unwrap_used` and `expect_used`
// do not see (the method and macro forms are clippy's fixtures).

fn seeded_paths(xs: Vec<Option<u32>>, ys: Vec<Result<u32, ()>>) -> u32 {
    let a: Vec<u32> = xs.into_iter().map(Option::unwrap).collect();
    let b: Vec<u32> = ys.into_iter().map(Result::unwrap).collect();
    a.len() as u32 + b.len() as u32
}

fn fine(xs: Vec<Option<u32>>) -> usize {
    // Non-panicking paths and look-alike types must NOT be flagged.
    xs.into_iter().map(Option::unwrap_or_default).count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let v = vec![Some(1u32)];
        assert_eq!(v.into_iter().map(Option::unwrap).sum::<u32>(), 1);
    }
}
