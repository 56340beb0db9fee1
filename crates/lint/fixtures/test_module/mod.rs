// lint-fixture-expect:
// A parent module: `audit` is declared test-only without a body, so its
// file is test code throughout; `live` is library code.

mod live;

#[cfg(test)]
mod audit;
