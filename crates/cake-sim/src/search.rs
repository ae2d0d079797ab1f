//! Exhaustive design-space search over block shapes — the expensive
//! procedure CAKE's closed-form shaping replaces.
//!
//! The paper's introduction: "the computation schedule is found through a
//! grid search of the parameter space, which becomes computationally
//! intractable for large systems... CAKE achieves superior performance by
//! directly using theoretically optimal CB-partitioned blocks in tiling
//! and scheduling, obviating the need for extensive design search."
//!
//! This module makes that claim testable: [`grid_search`] evaluates every
//! `(mc, nc)` blocking in a candidate grid through the timing engine and
//! returns the best; tests then verify that [`resolve_cake_shape`]'s
//! closed-form choice performs within a few percent of the exhaustive
//! optimum at a vanishing fraction of the cost (a handful of arithmetic
//! operations vs hundreds of simulations — or, on real hardware, hundreds
//! of profiled runs).

use cake_core::shape::CbBlockShape;
use crate::config::CpuConfig;
use crate::engine::{resolve_cake_shape, simulate_cake_with_shape, SimParams};

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The candidate CB block shape.
    pub shape: CbBlockShape,
    /// Simulated wall time, seconds.
    pub seconds: f64,
    /// Simulated throughput, GFLOP/s.
    pub gflops: f64,
    /// Average DRAM bandwidth, GB/s.
    pub dram_bw_gbs: f64,
    /// Whether the shape satisfies the Section 4.3 LRU rule for this CPU.
    pub fits_llc: bool,
}

/// Result of a grid search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Every evaluated point (in evaluation order).
    pub points: Vec<DesignPoint>,
    /// Index of the fastest *feasible* (LLC-fitting) point.
    pub best: usize,
}

impl SearchResult {
    /// The winning design point.
    pub fn best_point(&self) -> &DesignPoint {
        &self.points[self.best]
    }

    /// Number of simulations the search spent.
    pub fn evaluations(&self) -> usize {
        self.points.len()
    }
}

/// Candidate grid: `mc` in multiples of `mr` up to the L2 bound, `nc` in
/// multiples of `nr` from `p * nr` (alpha >= 1 needs at least one strip
/// width per core) up to an LLC-scale cap.
pub fn candidate_grid(cpu: &CpuConfig, p: usize, steps: usize) -> Vec<(usize, usize)> {
    assert!(steps >= 2);
    let s_l2 = cpu.l2_bytes / 4;
    let mc_max = (((s_l2 / 2) as f64).sqrt() as usize / cpu.mr).max(1) * cpu.mr;
    let s_llc = cpu.llc_bytes / 4;
    let nc_cap = (s_llc / mc_max.max(1)).max(cpu.nr).max(p * cpu.nr);

    let mut grid = Vec::new();
    for i in 1..=steps {
        let mc = (mc_max * i / steps / cpu.mr).max(1) * cpu.mr;
        for j in 1..=steps {
            let nc = (nc_cap * j / steps / cpu.nr).max(1) * cpu.nr;
            grid.push((mc, nc));
        }
    }
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// Evaluate every candidate `(mc, nc)` blocking for an `n^3` f32 problem on
/// `p` cores of `cpu`; `kc = mc` (square A panels, as both CAKE and GOTO
/// require).
pub fn grid_search(cpu: &CpuConfig, n: usize, p: usize, steps: usize) -> SearchResult {
    let sp = SimParams::square(n, p);
    let mut points = Vec::new();
    let mut best: Option<usize> = None;
    for (mc, nc) in candidate_grid(cpu, p, steps) {
        let shape = CbBlockShape::fixed(p, mc, mc, nc);
        let rep = simulate_cake_with_shape(cpu, &sp, &shape);
        let fits = shape.fits_llc_lru(cpu.llc_bytes, sp.elem_bytes);
        let idx = points.len();
        points.push(DesignPoint {
            shape,
            seconds: rep.seconds,
            gflops: rep.gflops,
            dram_bw_gbs: rep.avg_dram_bw_gbs,
            fits_llc: fits,
        });
        if fits {
            let better = match best {
                None => true,
                Some(b) => rep.seconds < points[b].seconds,
            };
            if better {
                best = Some(idx);
            }
        }
    }
    SearchResult {
        best: best.expect("candidate grid contained no feasible shape"),
        points,
    }
}

/// Evaluate the closed-form CAKE shape on the same problem, for comparison
/// against [`grid_search`].
pub fn analytic_point(cpu: &CpuConfig, n: usize, p: usize) -> DesignPoint {
    let sp = SimParams::square(n, p);
    let shape = resolve_cake_shape(cpu, &sp);
    let rep = simulate_cake_with_shape(cpu, &sp, &shape);
    DesignPoint {
        shape,
        seconds: rep.seconds,
        gflops: rep.gflops,
        dram_bw_gbs: rep.avg_dram_bw_gbs,
        fits_llc: shape.fits_llc_lru(cpu.llc_bytes, sp.elem_bytes),
    }
}

/// Rank of the closed-form shape against a search result: `(rank, field)`
/// where `rank` is 1-based among *feasible* points ordered by simulated
/// seconds (the analytic point inserted into the field), and `field` is the
/// number of feasible candidates. Rank 1 means the closed form beat every
/// searched design.
pub fn analytic_rank(res: &SearchResult, analytic: &DesignPoint) -> (usize, usize) {
    let feasible: Vec<f64> =
        res.points.iter().filter(|p| p.fits_llc).map(|p| p.seconds).collect();
    let faster = feasible.iter().filter(|s| **s < analytic.seconds).count();
    (faster + 1, feasible.len())
}

/// Position of the closed-form shape in the searched performance spread:
/// `(analytic - best) / (worst - best)` over feasible points, in `[0, 1]`
/// (0 = matches the exhaustive optimum, 1 = as slow as the worst feasible
/// design). This is the robust "top decile" metric: ordinal rank is
/// meaningless in the flat basin around the optimum, where dozens of
/// near-identical blockings differ by fractions of a percent.
pub fn performance_position(res: &SearchResult, analytic: &DesignPoint) -> f64 {
    let feasible: Vec<f64> =
        res.points.iter().filter(|p| p.fits_llc).map(|p| p.seconds).collect();
    let best = feasible.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = feasible.iter().copied().fold(0.0_f64, f64::max);
    if worst <= best {
        return 0.0;
    }
    ((analytic.seconds - best) / (worst - best)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_contains_only_kernel_aligned_shapes() {
        let cpu = CpuConfig::intel_i9_10900k();
        let grid = candidate_grid(&cpu, 4, 5);
        assert!(grid.len() >= 10);
        for (mc, nc) in grid {
            assert_eq!(mc % cpu.mr, 0);
            assert_eq!(nc % cpu.nr, 0);
        }
    }

    #[test]
    fn search_finds_a_feasible_optimum() {
        let cpu = CpuConfig::intel_i9_10900k();
        let res = grid_search(&cpu, 2304, 4, 4);
        let best = res.best_point();
        assert!(best.fits_llc);
        for p in &res.points {
            if p.fits_llc {
                assert!(best.seconds <= p.seconds + 1e-12);
            }
        }
    }

    #[test]
    fn analytic_shape_is_near_searched_optimum_intel() {
        // The paper's headline claim: no design search needed. The
        // closed-form shape must be within 10% of a 6x6-grid exhaustive
        // search on the Intel config.
        let cpu = CpuConfig::intel_i9_10900k();
        for p in [2usize, 8] {
            let searched = grid_search(&cpu, 4608, p, 6);
            let analytic = analytic_point(&cpu, 4608, p);
            let ratio = analytic.seconds / searched.best_point().seconds;
            assert!(
                ratio <= 1.10,
                "p={p}: analytic {:.4}s vs searched {:.4}s (x{ratio:.3}, shape {} vs {})",
                analytic.seconds,
                searched.best_point().seconds,
                analytic.shape,
                searched.best_point().shape,
            );
            // And it does so ~36x cheaper in evaluations.
            assert!(searched.evaluations() >= 30);
        }
    }

    #[test]
    fn analytic_shape_is_near_searched_optimum_arm() {
        // Same claim on the bandwidth-starved machine, where the search
        // space actually matters (bad shapes are DRAM-bound).
        let cpu = CpuConfig::arm_cortex_a53();
        let searched = grid_search(&cpu, 1500, 4, 6);
        let analytic = analytic_point(&cpu, 1500, 4);
        let ratio = analytic.seconds / searched.best_point().seconds;
        assert!(ratio <= 1.15, "ratio {ratio:.3}");
    }

    #[test]
    fn search_exposes_bad_designs() {
        // The spread between best and worst feasible design must be real —
        // otherwise "no search needed" would be vacuous.
        let cpu = CpuConfig::arm_cortex_a53();
        let res = grid_search(&cpu, 1500, 4, 6);
        let feasible: Vec<&DesignPoint> = res.points.iter().filter(|p| p.fits_llc).collect();
        let best = res.best_point().seconds;
        let worst = feasible.iter().map(|p| p.seconds).fold(0.0, f64::max);
        assert!(
            worst / best > 1.2,
            "design space too flat: best {best:.4}, worst {worst:.4}"
        );
    }

    #[test]
    fn infeasible_shapes_are_flagged_not_selected() {
        let cpu = CpuConfig::arm_cortex_a53();
        let res = grid_search(&cpu, 1000, 4, 5);
        assert!(res.points.iter().any(|p| !p.fits_llc), "grid should cover infeasible region");
        assert!(res.best_point().fits_llc);
    }
    #[test]
    fn exhaustive_search_ranks_closed_form_shape_in_top_decile() {
        // Regression gate for the "no design search" claim on the new
        // event engine: over a dense exhaustive grid, the closed-form
        // shape must rank within the top decile of feasible designs on
        // both a compute-bound and a bandwidth-starved machine.
        for (cpu, n, p) in [
            (CpuConfig::intel_i9_10900k(), 4608, 8),
            (CpuConfig::arm_cortex_a53(), 3000, 4),
        ] {
            let res = grid_search(&cpu, n, p, 12);
            let analytic = analytic_point(&cpu, n, p);
            let pos = performance_position(&res, &analytic);
            let (rank, field) = analytic_rank(&res, &analytic);
            assert!(
                pos <= 0.10,
                "{}: closed form at {:.1}% of the searched spread (rank {rank}/{field})",
                cpu.name,
                pos * 100.0
            );
            // And anything that does nose it out is within a couple percent
            // — the basin around the optimum, not a genuinely better design.
            let best = res.best_point().seconds;
            assert!(
                analytic.seconds <= best * 1.05,
                "{}: analytic {:.4}s vs searched best {best:.4}s",
                cpu.name,
                analytic.seconds
            );
        }
    }
}
