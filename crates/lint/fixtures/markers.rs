// lint-fixture-expect: bad_marker=2, float_cmp=1
// Marker behavior: a justified marker waives its site; a bare marker is
// itself a violation and waives nothing; a marker for a rule clippy
// enforces (`#[expect]` waives those) is a violation too.

fn waived(x: f64) -> bool {
    // lint: allow(float_cmp) — exact zero short-circuit, not a tolerance decision
    x == 0.0
}

fn not_waived(x: f64) -> bool {
    // lint: allow(float_cmp)
    x == 1.0
}

// lint: allow(no_print) — clippy's print_stdout, waived by #[expect]
fn moved() {}
