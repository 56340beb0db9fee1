//! Scoped-thread worker pools (std-only) shared by the solver, the
//! column-generation call sites, and the bench harness.
//!
//! Two execution shapes with very different determinism contracts:
//!
//! * [`for_each_section`] — a **deterministic static partition**: the
//!   index range `0..n` is cut into `workers` fixed contiguous sections
//!   and worker `w` always processes section `w` into its own output
//!   slot. The section boundaries depend only on `(n, workers)`, never
//!   on timing, so a caller whose per-section result is reduced with a
//!   partition-independent merge (e.g. an exact top-K by a total order)
//!   gets byte-identical results at any worker count. This is what the
//!   simplex pricing scan and the colgen oracle fan-out use.
//! * [`run_parallel`] / [`run_parallel_with`] — an order-preserving
//!   parallel map over items with **work-stealing** assignment: fast for
//!   imbalanced items, but the item-to-worker mapping is
//!   timing-dependent, so per-worker state must not affect results (see
//!   the warning on [`run_parallel_with`]).
//!
//! Threads are spawned per call via [`std::thread::scope`] — no pool is
//! kept alive between calls. Callers amortize the spawn cost by keeping
//! per-call work coarse (the pricing scan only goes parallel when the
//! column range is large enough; the oracle fan-out batches a whole
//! pricing round).

use std::ops::Range;

/// Cuts `0..n` into `workers` contiguous sections and runs
/// `f(worker, section_range, &mut slots[worker])` for each, in parallel.
///
/// `slots` must hold at least `workers` elements; slot `w` receives
/// section `w`'s output. Sections are `ceil(n / workers)` wide (the last
/// may be short or empty), so the partition is a pure function of
/// `(n, workers)`. With `workers == 1` (or `n == 0`) everything runs
/// inline on the caller's thread — the serial path is the same code.
///
/// Determinism: the partition is timing-independent, but *different*
/// worker counts produce different section boundaries — a caller that
/// must be reproducible across thread counts needs a merge that is
/// invariant to how the range was cut (see the module docs).
// lint: hot
pub fn for_each_section<T: Send>(
    workers: usize,
    n: usize,
    slots: &mut [T],
    f: impl Fn(usize, Range<usize>, &mut T) + Sync,
) {
    let workers = workers.max(1).min(slots.len().max(1));
    assert!(slots.len() >= workers, "need one output slot per worker");
    let chunk = n.div_ceil(workers).max(1);
    if workers == 1 || n <= chunk {
        if let Some(slot) = slots.first_mut() {
            f(0, 0..n, slot);
        }
        return;
    }
    // lint: allow(no_panic) — workers >= 2 here, so slots is non-empty
    let (first, rest) = slots.split_first_mut().expect("checked: slots non-empty");
    std::thread::scope(|scope| {
        for (i, slot) in rest.iter_mut().take(workers - 1).enumerate() {
            let w = i + 1;
            let lo = (w * chunk).min(n);
            let hi = ((w + 1) * chunk).min(n);
            let f = &f;
            scope.spawn(move || f(w, lo..hi, slot));
        }
        // Section 0 runs on the calling thread: one spawn fewer, and the
        // serial (workers == 1) path above exercises the same closure.
        f(0, 0..chunk.min(n), first);
    });
}

/// Simple scoped-thread parallel map preserving input order.
pub fn run_parallel<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    run_parallel_with(items, threads, || (), |(), i, item| f(i, item))
}

/// [`run_parallel`] with per-worker state: `init` runs once on each worker
/// thread and the resulting state is threaded through every item that
/// worker processes. General utility for caches or scratch buffers whose
/// contents must not affect results: work-stealing makes the
/// item-to-worker assignment timing-dependent, so anything
/// result-affecting (a warm chain — an accepted warm basis can change the
/// optimal vertex) must be threaded through a deterministic static
/// partition instead ([`for_each_section`]).
pub fn run_parallel_with<T: Sync, R: Send, S>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1);
    let n = items.len();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        out.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&mut state, i, &items[i]);
                    // lint: allow(no_panic) — propagate a worker panic to the caller
                    **slots[i].lock().expect("worker panicked holding slot lock") = Some(r);
                }
            });
        }
    });
    out.into_iter()
        // lint: allow(no_panic) — a dead worker is a pool bug, not a data error
        .map(|o| o.expect("worker died before filling slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_cover_range_exactly_once() {
        for n in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 4, 8] {
                let mut slots: Vec<Vec<usize>> = vec![Vec::new(); workers];
                for_each_section(workers, n, &mut slots, |_, range, out| {
                    out.extend(range);
                });
                let mut seen: Vec<usize> = slots.concat();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn sections_are_contiguous_and_ordered() {
        let mut slots: Vec<Option<Range<usize>>> = vec![None; 4];
        for_each_section(4, 10, &mut slots, |_, range, out| *out = Some(range));
        let got: Vec<Range<usize>> = slots.into_iter().flatten().collect();
        assert_eq!(got, vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = run_parallel(&items, 4, |_, &x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_with_threads_state_through_workers() {
        let items: Vec<usize> = (0..50).collect();
        let got = run_parallel_with(
            &items,
            3,
            || 0usize,
            |calls, _, &x| {
                *calls += 1;
                x + 1
            },
        );
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
    }
}
