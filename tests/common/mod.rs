//! Helpers shared by the integration tests.

pub mod edge_lp;

use coflow::algo::circuit::lp_free::FreeLpSolution;
use coflow::algo::IntervalGrid;
use coflow::lp::{ColGenStats, WarmChain};
use coflow::prelude::*;

/// Column generation on a cold chain and a fresh pool.
pub fn colgen(inst: &Instance, cfg: &FreePathsLpConfig) -> (FreeLpSolution, ColGenStats) {
    let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
    solve_free_paths_lp_colgen_on_grid(inst, cfg, grid, &mut WarmChain::new(), &mut PathPool::new())
        .expect("generated instances are connected")
}
