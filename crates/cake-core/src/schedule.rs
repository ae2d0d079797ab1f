//! K-first block scheduling with surface sharing (paper Section 2.2,
//! Algorithm 2).
//!
//! The `M x K x N` computation space is partitioned into a grid of
//! `Mb x Kb x Nb` CB blocks. Blocks are executed sequentially; to minimize
//! DRAM IO, consecutive blocks must *share an IO surface* (be adjacent in
//! the grid):
//!
//! * the innermost loop runs along **K** so the partial-C surface — the
//!   largest and the only one whose spill costs double IO — is reused until
//!   its reduction completes;
//! * the middle loop runs along **M** (when `N >= M`) so the B surface is
//!   reused across M-steps;
//! * the outer loop runs along **N**. When `M > N` the outer two loops swap
//!   so the larger A surface is reused before B.
//!
//! Every loop is *boustrophedon* (snake): its direction flips each time the
//! enclosing loop advances. Algorithm 2 in the paper expresses the flip via
//! the parity of the enclosing indices, which is equivalent to the
//! formulation here (parity of the number of completed inner traversals)
//! when the grid extents are even, and remains adjacency-correct for odd
//! extents as well.

/// Index of one CB block within the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockCoord {
    /// M-dimension block index.
    pub m: usize,
    /// K-dimension (reduction) block index.
    pub k: usize,
    /// N-dimension block index.
    pub n: usize,
}

/// The extents of the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGrid {
    /// Number of blocks along M.
    pub mb: usize,
    /// Number of blocks along K.
    pub kb: usize,
    /// Number of blocks along N.
    pub nb: usize,
}

impl BlockGrid {
    /// Grid covering an `m x k x n` problem with the given block extents
    /// (ceiling division; edge blocks are partial).
    pub fn for_problem(m: usize, k: usize, n: usize, bm: usize, bk: usize, bn: usize) -> Self {
        Self {
            mb: cake_matrix::block_count(m, bm),
            kb: cake_matrix::block_count(k, bk),
            nb: cake_matrix::block_count(n, bn),
        }
    }

    /// Total number of blocks.
    pub fn len(&self) -> usize {
        self.mb * self.kb * self.nb
    }

    /// `true` when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which of the outer two loops runs outermost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterLoop {
    /// `for n { for m { for k } } }` — reuses B across M-steps; optimal
    /// when `N >= M` (B surface at least as large as A).
    NOuter,
    /// `for m { for n { for k } } }` — reuses A across N-steps; optimal
    /// when `M > N`.
    MOuter,
}

/// An IO surface of a block (paper Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// Input surface from matrix A (`m x k` face).
    A,
    /// Input surface from matrix B (`k x n` face).
    B,
    /// Result surface of C (`m x n` face), partial until the K run ends.
    C,
}

/// The K-first snake schedule: an iterator over [`BlockCoord`]s in
/// execution order. `Copy` on purpose: each executor worker grabs a
/// private copy with a plain assignment, so replaying the schedule
/// never touches the heap or a shared cache line.
#[derive(Debug, Clone, Copy)]
pub struct KFirstSchedule {
    grid: BlockGrid,
    outer: OuterLoop,
    /// `true` => plain nested loops starting at index 0 every time (the
    /// paper's counter-example with `O(M*N + N)` missed reuses), used for
    /// the ablation bench.
    snake: bool,
    pos: usize,
}

impl KFirstSchedule {
    /// Snake schedule with the outer loop chosen from the problem shape
    /// (`N >= M` => N outer), as prescribed in Section 2.2.
    pub fn new(grid: BlockGrid, m: usize, n: usize) -> Self {
        let outer = if n >= m { OuterLoop::NOuter } else { OuterLoop::MOuter };
        Self::with_outer(grid, outer)
    }

    /// Snake schedule with an explicit outer loop.
    pub fn with_outer(grid: BlockGrid, outer: OuterLoop) -> Self {
        Self {
            grid,
            outer,
            snake: true,
            pos: 0,
        }
    }

    /// Non-snaking variant (always traverses each dimension from index 0).
    /// Same block set, no direction flipping — loses inter-block A/B reuse
    /// at loop boundaries. For ablation only.
    pub fn without_snaking(grid: BlockGrid, outer: OuterLoop) -> Self {
        Self {
            grid,
            outer,
            snake: false,
            pos: 0,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> BlockGrid {
        self.grid
    }

    /// Outer-loop choice.
    pub fn outer(&self) -> OuterLoop {
        self.outer
    }

    /// Total number of blocks in the schedule.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// `true` when the schedule contains no blocks.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Block at linear position `idx` (0-based) in execution order.
    pub fn coord_at(&self, idx: usize) -> BlockCoord {
        debug_assert!(idx < self.len());
        let (outer_ext, mid_ext, inner_ext) = match self.outer {
            OuterLoop::NOuter => (self.grid.nb, self.grid.mb, self.grid.kb),
            OuterLoop::MOuter => (self.grid.mb, self.grid.nb, self.grid.kb),
        };
        debug_assert!(outer_ext * mid_ext * inner_ext == self.len());

        let o = idx / (mid_ext * inner_ext);
        let rem = idx % (mid_ext * inner_ext);
        let mid_step = rem / inner_ext;
        let inner_step = rem % inner_ext;

        let (mid, inner) = if self.snake {
            // Middle loop snakes on outer parity; inner loop snakes on the
            // parity of the total number of completed (outer, mid) pairs.
            let mid = if o.is_multiple_of(2) { mid_step } else { mid_ext - 1 - mid_step };
            let pair = o * mid_ext + mid_step;
            let inner = if pair.is_multiple_of(2) {
                inner_step
            } else {
                inner_ext - 1 - inner_step
            };
            (mid, inner)
        } else {
            (mid_step, inner_step)
        };

        match self.outer {
            OuterLoop::NOuter => BlockCoord { m: mid, k: inner, n: o },
            OuterLoop::MOuter => BlockCoord { m: o, k: inner, n: mid },
        }
    }
}

impl Iterator for KFirstSchedule {
    type Item = BlockCoord;

    fn next(&mut self) -> Option<BlockCoord> {
        // NB: call through the grid explicitly — on `&mut self`, plain
        // `self.len()` resolves to `ExactSizeIterator::len`, which already
        // subtracts `pos`.
        if self.pos >= self.grid.len() {
            return None;
        }
        let c = self.coord_at(self.pos);
        self.pos += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.grid.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for KFirstSchedule {}

/// The surfaces two consecutively executed blocks share.
///
/// Blocks share A when they agree in `(m, k)`, B when they agree in
/// `(k, n)`, and C when they agree in `(m, n)`. Adjacent snake-schedule
/// blocks always share exactly one surface; non-adjacent blocks share none.
pub fn shared_surfaces(prev: BlockCoord, next: BlockCoord) -> Vec<Surface> {
    let mut out = Vec::with_capacity(1);
    if prev.m == next.m && prev.k == next.k {
        out.push(Surface::A);
    }
    if prev.k == next.k && prev.n == next.n {
        out.push(Surface::B);
    }
    if prev.m == next.m && prev.n == next.n {
        out.push(Surface::C);
    }
    out
}

/// 2D worker grid `(pm, pn)` for partitioning one CB block across `p`
/// workers: `pm` row groups times `pn` column groups, with `pm * pn == p`.
///
/// `pm` is the **largest divisor of `p` that is at most `m_tiles`** (the
/// block's row-tile count), so:
///
/// * when `m_tiles >= p` the grid degenerates to `(p, 1)` — the classic
///   balanced M-strip partition, unchanged from the 1D executor;
/// * when `m_tiles < p` (small-m blocks that used to idle `p - m_tiles`
///   workers) the surplus parallelism folds into the N dimension, each of
///   the `pn` column groups taking a contiguous sliver range via
///   [`split_range`](cake_kernels::pack::split_range).
///
/// `m_tiles == 0` is treated as 1 so empty blocks still yield a valid
/// (degenerate) grid.
pub fn worker_grid(p: usize, m_tiles: usize) -> (usize, usize) {
    // audit: cold grid-shaping precondition, once per GEMM call
    assert!(p > 0, "worker grid needs at least one worker");
    let cap = m_tiles.max(1);
    let mut pm = 1;
    for d in 1..=p {
        if p.is_multiple_of(d) && d <= cap && d > pm {
            pm = d;
        }
    }
    (pm, p / pm)
}

#[cfg(test)]
mod worker_grid_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degenerates_to_m_strips_when_tiles_suffice() {
        for p in 1..=8 {
            assert_eq!(worker_grid(p, p), (p, 1));
            assert_eq!(worker_grid(p, p + 3), (p, 1));
        }
    }

    #[test]
    fn folds_surplus_workers_into_n() {
        assert_eq!(worker_grid(4, 2), (2, 2));
        assert_eq!(worker_grid(4, 1), (1, 4));
        assert_eq!(worker_grid(8, 3), (2, 4), "largest divisor of 8 <= 3 is 2");
        assert_eq!(worker_grid(6, 3), (3, 2));
        assert_eq!(worker_grid(5, 3), (1, 5), "prime p has no middle divisor");
        assert_eq!(worker_grid(1, 0), (1, 1));
        assert_eq!(worker_grid(3, 0), (1, 3), "empty block still grids");
    }

    proptest! {
        #[test]
        fn grid_is_exact_and_maximal(p in 1usize..33, m_tiles in 0usize..40) {
            let (pm, pn) = worker_grid(p, m_tiles);
            prop_assert_eq!(pm * pn, p, "grid must use every worker");
            prop_assert!(pm <= m_tiles.max(1), "row groups never exceed row tiles");
            // Maximality: no larger divisor of p fits under the tile count.
            for d in (pm + 1)..=m_tiles.max(1).min(p) {
                prop_assert!(!p.is_multiple_of(d), "pm = {} not maximal, {} fits", pm, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn grid(mb: usize, kb: usize, nb: usize) -> BlockGrid {
        BlockGrid { mb, kb, nb }
    }

    #[test]
    fn covers_every_block_exactly_once() {
        let g = grid(3, 4, 5);
        let seen: HashSet<BlockCoord> = KFirstSchedule::with_outer(g, OuterLoop::NOuter).collect();
        assert_eq!(seen.len(), 60);
        for m in 0..3 {
            for k in 0..4 {
                for n in 0..5 {
                    assert!(seen.contains(&BlockCoord { m, k, n }));
                }
            }
        }
    }

    #[test]
    fn k_runs_first() {
        // First Kb blocks of an N-outer schedule must share (m=0, n=0) and
        // sweep k = 0..Kb.
        let sched: Vec<_> = KFirstSchedule::with_outer(grid(2, 3, 2), OuterLoop::NOuter).collect();
        for (i, c) in sched.iter().take(3).enumerate() {
            assert_eq!((c.m, c.n), (0, 0));
            assert_eq!(c.k, i);
        }
        // Next block advances m, keeping n and (snaked) k.
        assert_eq!(sched[3].m, 1);
        assert_eq!(sched[3].n, 0);
        assert_eq!(sched[3].k, 2, "k must stay at the far end (snake)");
    }

    #[test]
    fn consecutive_blocks_are_grid_adjacent() {
        for (mb, kb, nb) in [(1, 1, 1), (2, 2, 2), (3, 4, 5), (5, 1, 3), (1, 7, 2)] {
            for outer in [OuterLoop::NOuter, OuterLoop::MOuter] {
                let sched: Vec<_> = KFirstSchedule::with_outer(grid(mb, kb, nb), outer).collect();
                for w in sched.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let dm = a.m.abs_diff(b.m);
                    let dk = a.k.abs_diff(b.k);
                    let dn = a.n.abs_diff(b.n);
                    assert_eq!(
                        dm + dk + dn,
                        1,
                        "blocks {a:?} -> {b:?} not adjacent (grid {mb}x{kb}x{nb}, {outer:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn adjacent_blocks_share_exactly_one_surface() {
        let sched: Vec<_> = KFirstSchedule::with_outer(grid(3, 3, 3), OuterLoop::NOuter).collect();
        for w in sched.windows(2) {
            let shared = shared_surfaces(w[0], w[1]);
            assert_eq!(shared.len(), 1, "{:?} -> {:?} share {shared:?}", w[0], w[1]);
        }
    }

    #[test]
    fn k_steps_share_c_m_steps_share_b_n_steps_share_a() {
        let sched: Vec<_> = KFirstSchedule::with_outer(grid(2, 2, 2), OuterLoop::NOuter).collect();
        for w in sched.windows(2) {
            let s = shared_surfaces(w[0], w[1])[0];
            if w[0].k != w[1].k {
                assert_eq!(s, Surface::C);
            } else if w[0].m != w[1].m {
                assert_eq!(s, Surface::B);
            } else {
                assert_eq!(s, Surface::A);
            }
        }
    }

    #[test]
    fn non_snaking_loses_adjacency() {
        let sched: Vec<_> =
            KFirstSchedule::without_snaking(grid(2, 3, 2), OuterLoop::NOuter).collect();
        // At the first m advance (index 2 -> 3), k jumps from 2 back to 0:
        // not adjacent, no shared surface with the paper's reuse rules.
        let jump = shared_surfaces(sched[2], sched[3]);
        assert!(jump.is_empty(), "expected no sharing, got {jump:?}");
    }

    #[test]
    fn outer_loop_selection_follows_shape() {
        let g = grid(2, 2, 2);
        assert_eq!(KFirstSchedule::new(g, 100, 200).outer(), OuterLoop::NOuter);
        assert_eq!(KFirstSchedule::new(g, 200, 100).outer(), OuterLoop::MOuter);
        // Tie goes to N-outer (N >= M).
        assert_eq!(KFirstSchedule::new(g, 100, 100).outer(), OuterLoop::NOuter);
    }

    #[test]
    fn grid_for_problem_uses_ceiling_division() {
        let g = BlockGrid::for_problem(100, 50, 70, 30, 30, 30);
        assert_eq!((g.mb, g.kb, g.nb), (4, 2, 3));
        assert_eq!(g.len(), 24);
    }

    #[test]
    fn empty_grid_yields_nothing() {
        let g = BlockGrid::for_problem(0, 10, 10, 4, 4, 4);
        assert!(g.is_empty());
        assert_eq!(KFirstSchedule::new(g, 0, 10).count(), 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let mut s = KFirstSchedule::with_outer(grid(2, 3, 4), OuterLoop::NOuter);
        assert_eq!(s.size_hint(), (24, Some(24)));
        s.next();
        assert_eq!(s.size_hint(), (23, Some(23)));
        assert_eq!(s.len(), 24);
    }

    proptest! {
        #[test]
        fn snake_adjacency_holds_for_arbitrary_grids(
            mb in 1usize..8, kb in 1usize..8, nb in 1usize..8,
            m_outer in any::<bool>(),
        ) {
            let outer = if m_outer { OuterLoop::MOuter } else { OuterLoop::NOuter };
            let sched: Vec<_> = KFirstSchedule::with_outer(grid(mb, kb, nb), outer).collect();
            prop_assert_eq!(sched.len(), mb * kb * nb);
            let unique: HashSet<_> = sched.iter().copied().collect();
            prop_assert_eq!(unique.len(), sched.len());
            for w in sched.windows(2) {
                let d = w[0].m.abs_diff(w[1].m) + w[0].k.abs_diff(w[1].k) + w[0].n.abs_diff(w[1].n);
                prop_assert_eq!(d, 1);
            }
        }

        #[test]
        fn coord_at_matches_iteration(mb in 1usize..6, kb in 1usize..6, nb in 1usize..6) {
            let s = KFirstSchedule::with_outer(grid(mb, kb, nb), OuterLoop::NOuter);
            let by_index: Vec<_> = (0..s.len()).map(|i| s.coord_at(i)).collect();
            let by_iter: Vec<_> = s.collect();
            prop_assert_eq!(by_index, by_iter);
        }
    }
}


/// One dimension of the block grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Row-block dimension.
    M,
    /// Reduction-block dimension.
    K,
    /// Column-block dimension.
    N,
}

/// A boustrophedon schedule with an arbitrary loop order — the
/// generalization of [`KFirstSchedule`] used by the reuse-priority
/// ablation.
///
/// The innermost dimension decides which surface is reused on every step:
/// inner `K` reuses the partial-C surface (the paper's choice), inner `M`
/// reuses B, inner `N` reuses A. K-first is optimal exactly when the
/// C-sharing saving (`2 * bm * bn`, partials spill twice) dominates the
/// A- or B-sharing saving — which holds for the paper's wide CB blocks
/// but *reverses* for tall-K blocks (`bk > 2 * max(bm, bn)`), a crossover
/// the tests pin down.
#[derive(Debug, Clone)]
pub struct SnakeSchedule {
    grid: BlockGrid,
    /// Loop order, outermost first.
    order: [Dim; 3],
    pos: usize,
}

impl SnakeSchedule {
    /// Schedule with the given loop order (outermost first).
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of {M, K, N}.
    pub fn new(grid: BlockGrid, order: [Dim; 3]) -> Self {
        let mut seen = [false; 3];
        for d in order {
            let i = d as usize;
            assert!(!seen[i], "loop order must be a permutation, got {order:?}");
            seen[i] = true;
        }
        Self { grid, order, pos: 0 }
    }

    fn ext(&self, d: Dim) -> usize {
        match d {
            Dim::M => self.grid.mb,
            Dim::K => self.grid.kb,
            Dim::N => self.grid.nb,
        }
    }

    /// Total number of blocks.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// `true` when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Block at linear position `idx` in execution order.
    pub fn coord_at(&self, idx: usize) -> BlockCoord {
        debug_assert!(idx < self.len());
        let (oe, me, ie) =
            // audit: checked constant indices into the [Dim; 3] loop order
            (self.ext(self.order[0]), self.ext(self.order[1]), self.ext(self.order[2]));
        debug_assert_eq!(oe * me * ie, self.len());
        let o = idx / (me * ie);
        let rem = idx % (me * ie);
        let mid_step = rem / ie;
        let inner_step = rem % ie;

        let mid = if o.is_multiple_of(2) { mid_step } else { me - 1 - mid_step };
        let pair = o * me + mid_step;
        let inner = if pair.is_multiple_of(2) { inner_step } else { ie - 1 - inner_step };

        let mut c = BlockCoord { m: 0, k: 0, n: 0 };
        // audit: checked constant indices into the [Dim; 3] loop order
        for (d, v) in [(self.order[0], o), (self.order[1], mid), (self.order[2], inner)] {
            match d {
                Dim::M => c.m = v,
                Dim::K => c.k = v,
                Dim::N => c.n = v,
            }
        }
        c
    }
}

impl Iterator for SnakeSchedule {
    type Item = BlockCoord;

    fn next(&mut self) -> Option<BlockCoord> {
        if self.pos >= self.grid.len() {
            return None;
        }
        let c = self.coord_at(self.pos);
        self.pos += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.grid.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SnakeSchedule {}

#[cfg(test)]
mod general_tests {
    use super::*;
    use crate::traffic::{dram_traffic, CResidency, TrafficParams};
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn kfirst_is_the_nmk_special_case() {
        let grid = BlockGrid { mb: 3, kb: 4, nb: 2 };
        let a: Vec<_> = KFirstSchedule::with_outer(grid, OuterLoop::NOuter).collect();
        let b: Vec<_> = SnakeSchedule::new(grid, [Dim::N, Dim::M, Dim::K]).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn repeated_dims_rejected() {
        let _ = SnakeSchedule::new(BlockGrid { mb: 1, kb: 1, nb: 1 }, [Dim::M, Dim::M, Dim::K]);
    }

    #[test]
    fn kfirst_wins_for_wide_blocks() {
        // Paper-shaped blocks (bm = bn >> bk is not required; cubic is
        // enough): sharing C (worth 2*bm*bn) beats sharing A or B.
        let tp = TrafficParams { m: 128, k: 128, n: 128, bm: 32, bk: 32, bn: 32 };
        let grid = BlockGrid::for_problem(tp.m, tp.k, tp.n, tp.bm, tp.bk, tp.bn);
        let k_inner = dram_traffic(
            SnakeSchedule::new(grid, [Dim::N, Dim::M, Dim::K]), tp, CResidency::HoldInLlc);
        let n_inner = dram_traffic(
            SnakeSchedule::new(grid, [Dim::K, Dim::M, Dim::N]), tp, CResidency::HoldInLlc);
        let m_inner = dram_traffic(
            SnakeSchedule::new(grid, [Dim::K, Dim::N, Dim::M]), tp, CResidency::HoldInLlc);
        assert!(k_inner.total() < n_inner.total());
        assert!(k_inner.total() < m_inner.total());
    }

    #[test]
    fn reuse_priority_crossover_for_tall_k_blocks() {
        // Tall-K blocks: bk = 64 >> bm = bn = 8. Sharing A per step saves
        // bm*bk = 512 while sharing C saves only 2*bm*bn = 128: the
        // N-inner (A-reusing) order must beat the paper's K-first.
        let tp = TrafficParams { m: 32, k: 256, n: 32, bm: 8, bk: 64, bn: 8 };
        let grid = BlockGrid::for_problem(tp.m, tp.k, tp.n, tp.bm, tp.bk, tp.bn);
        let k_inner = dram_traffic(
            SnakeSchedule::new(grid, [Dim::N, Dim::M, Dim::K]), tp, CResidency::HoldInLlc);
        let n_inner = dram_traffic(
            SnakeSchedule::new(grid, [Dim::K, Dim::M, Dim::N]), tp, CResidency::HoldInLlc);
        assert!(
            n_inner.total() < k_inner.total(),
            "A-reusing order should win for tall-K blocks: n_inner {} vs k_inner {}",
            n_inner.total(),
            k_inner.total()
        );
    }

    proptest! {
        #[test]
        fn all_orders_cover_once_and_stay_adjacent(
            mb in 1usize..6, kb in 1usize..6, nb in 1usize..6,
            perm in 0usize..6,
        ) {
            let orders = [
                [Dim::M, Dim::K, Dim::N], [Dim::M, Dim::N, Dim::K],
                [Dim::K, Dim::M, Dim::N], [Dim::K, Dim::N, Dim::M],
                [Dim::N, Dim::M, Dim::K], [Dim::N, Dim::K, Dim::M],
            ];
            let grid = BlockGrid { mb, kb, nb };
            let sched: Vec<_> = SnakeSchedule::new(grid, orders[perm]).collect();
            prop_assert_eq!(sched.len(), grid.len());
            let unique: HashSet<_> = sched.iter().copied().collect();
            prop_assert_eq!(unique.len(), sched.len());
            for w in sched.windows(2) {
                let d = w[0].m.abs_diff(w[1].m) + w[0].k.abs_diff(w[1].k) + w[0].n.abs_diff(w[1].n);
                prop_assert_eq!(d, 1);
            }
        }
    }
}
