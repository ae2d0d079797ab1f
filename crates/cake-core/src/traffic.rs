//! Exact DRAM traffic accounting for block schedules.
//!
//! Walks a block schedule and counts external-memory element transfers
//! under the paper's reuse rules:
//!
//! * An **A surface** is fetched unless the previous block had the same
//!   `(m, k)` coordinates (the LLC keeps the previous block's inputs —
//!   that is what the factor 2 in the Section 4.3 sizing rule buys).
//! * A **B surface** is fetched unless the previous block had the same
//!   `(k, n)`.
//! * The **C surface** policy is configurable:
//!   - [`CResidency::HoldInLlc`] (CAKE): the partial panel for the current
//!     `(m, n)` stays in local memory. Leaving an `(m, n)` before its
//!     reduction completes spills it (write now + read on return); a
//!     completed panel is written exactly once. The K-first schedule never
//!     spills.
//!   - [`CResidency::StreamToDram`] (GOTO-style): every block visit reads
//!     the partial panel from DRAM (except the first visit) and writes it
//!     back (paper Section 4.1: partial results of C are streamed to DRAM).
//!
//! Edge blocks at the matrix boundary are accounted with their true
//! (smaller) surface sizes.

use std::collections::HashMap;

use crate::panel::{PanelAction, PanelCache};
use crate::schedule::{BlockCoord, BlockGrid, KFirstSchedule};

/// Problem and block extents needed to size surfaces.
#[derive(Debug, Clone, Copy)]
pub struct TrafficParams {
    /// Full problem extents.
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Column extent.
    pub n: usize,
    /// Block extent along M.
    pub bm: usize,
    /// Block extent along K.
    pub bk: usize,
    /// Block extent along N.
    pub bn: usize,
}

impl TrafficParams {
    fn m_len(&self, mi: usize) -> usize {
        self.bm.min(self.m - mi * self.bm)
    }
    fn k_len(&self, ki: usize) -> usize {
        self.bk.min(self.k - ki * self.bk)
    }
    fn n_len(&self, ni: usize) -> usize {
        self.bn.min(self.n - ni * self.bn)
    }
    fn kb(&self) -> usize {
        if self.k == 0 { 0 } else { self.k.div_ceil(self.bk) }
    }
}

/// What happens to partial C panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CResidency {
    /// Partial panels held in local memory until complete (CAKE).
    HoldInLlc,
    /// Partial panels streamed to/from DRAM every visit (GOTO).
    StreamToDram,
}

/// DRAM traffic tally, in elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Elements of A fetched from DRAM.
    pub a_loads: u64,
    /// Elements of B fetched from DRAM.
    pub b_loads: u64,
    /// Elements of completed C written to DRAM (exactly `M * N` when the
    /// whole product is computed).
    pub c_final_writes: u64,
    /// Elements of *partial* C written to DRAM (spills / streaming).
    pub c_partial_writes: u64,
    /// Elements of partial C read back from DRAM.
    pub c_partial_reads: u64,
}

impl Traffic {
    /// Total elements moved between DRAM and local memory.
    pub fn total(&self) -> u64 {
        self.a_loads + self.b_loads + self.c_final_writes + self.c_partial_writes + self.c_partial_reads
    }

    /// Total bytes for a uniform element size (`T::Acc = T` dtypes).
    pub fn total_bytes(&self, elem_bytes: usize) -> u64 {
        self.total() * elem_bytes as u64
    }

    /// Operand (A + B) bytes at the given element size.
    pub fn input_bytes(&self, elem_bytes: usize) -> u64 {
        (self.a_loads + self.b_loads) * elem_bytes as u64
    }

    /// Total bytes with distinct operand and accumulator element sizes:
    /// A/B surfaces move at `elem_bytes`, every C surface at `acc_bytes` —
    /// the narrow-dtype tier streams i8/bf16 inputs but i32/f32 outputs.
    pub fn total_bytes_split(&self, elem_bytes: usize, acc_bytes: usize) -> u64 {
        self.input_bytes(elem_bytes) + self.c_total() * acc_bytes as u64
    }

    /// Typed-byte total for dtype `T`: operands at `size_of::<T>()`, C at
    /// `size_of::<T::Acc>()`. Equals [`Traffic::total_bytes`] whenever
    /// `T::Acc = T`.
    pub fn total_bytes_for<T: cake_matrix::Dtype>(&self) -> u64 {
        self.total_bytes_split(std::mem::size_of::<T>(), std::mem::size_of::<T::Acc>())
    }

    /// All C-related traffic.
    pub fn c_total(&self) -> u64 {
        self.c_final_writes + self.c_partial_writes + self.c_partial_reads
    }
}

/// Walk `schedule` and tally DRAM traffic under the given C policy.
pub fn dram_traffic(
    schedule: impl IntoIterator<Item = BlockCoord>,
    params: TrafficParams,
    c_policy: CResidency,
) -> Traffic {
    let mut t = Traffic::default();
    let kb = params.kb();
    // Remaining K-blocks per (m, n) panel; missing entry = untouched.
    let mut remaining: HashMap<(usize, usize), usize> = HashMap::new();
    let mut prev: Option<BlockCoord> = None;

    for c in schedule {
        let (ml, kl, nl) = (params.m_len(c.m), params.k_len(c.k), params.n_len(c.n));
        let a_size = (ml * kl) as u64;
        let b_size = (kl * nl) as u64;
        let c_size = (ml * nl) as u64;

        let share_a = prev.is_some_and(|p| p.m == c.m && p.k == c.k);
        let share_b = prev.is_some_and(|p| p.k == c.k && p.n == c.n);
        if !share_a {
            t.a_loads += a_size;
        }
        if !share_b {
            t.b_loads += b_size;
        }

        let key = (c.m, c.n);
        let entry = remaining.entry(key).or_insert(kb);
        let first_visit = *entry == kb;

        match c_policy {
            CResidency::HoldInLlc => {
                let resident = prev.is_some_and(|p| p.m == c.m && p.n == c.n);
                if !first_visit && !resident {
                    // Returning to a previously spilled partial panel.
                    t.c_partial_reads += c_size;
                }
                *entry -= 1;
                if *entry == 0 {
                    t.c_final_writes += c_size;
                    remaining.remove(&key);
                } else {
                    // Peek: if the next block leaves this (m, n), we will
                    // spill. We can't peek an iterator generically, so spill
                    // accounting is deferred: handled when the *next* block
                    // arrives (see below).
                }
            }
            CResidency::StreamToDram => {
                if !first_visit {
                    t.c_partial_reads += c_size;
                }
                *entry -= 1;
                if *entry == 0 {
                    t.c_final_writes += c_size;
                    remaining.remove(&key);
                } else {
                    t.c_partial_writes += c_size;
                }
            }
        }

        // Deferred spill for HoldInLlc: when we moved away from `prev`'s
        // (m, n) while it was still incomplete, that panel was written out.
        if c_policy == CResidency::HoldInLlc {
            if let Some(p) = prev {
                let moved_away = p.m != c.m || p.n != c.n;
                if moved_away {
                    if let Some(_rem) = remaining.get(&(p.m, p.n)) {
                        let spilled = (params.m_len(p.m) * params.n_len(p.n)) as u64;
                        t.c_partial_writes += spilled;
                    }
                }
            }
        }

        prev = Some(c);
    }

    // A trailing incomplete panel (possible only for truncated schedules)
    // is spilled at the end.
    if c_policy == CResidency::HoldInLlc {
        if let Some(p) = prev {
            if remaining.contains_key(&(p.m, p.n)) {
                t.c_partial_writes += (params.m_len(p.m) * params.n_len(p.n)) as u64;
            }
        }
    }

    t
}

/// [`dram_traffic`], but with B loads served by the executor's actual
/// panel ring instead of the adjacent-block share rule alone.
///
/// The pipelined executor keeps a ring of `ring_depth` B panels managed as
/// an LRU cache of `(k, n)` surfaces ([`PanelCache`] — the *same* state
/// machine replayed here), so at a snake reversal it often re-reads a
/// surface the adjacency rule would count as a fresh DRAM fetch. B loads
/// from this function therefore never exceed [`dram_traffic`]'s, and they
/// equal the executor's measured [`crate::ExecStats::b_elems_loaded`]
/// exactly (when built with the `traffic-counters` feature). A and C
/// accounting is identical to [`dram_traffic`]: the executor's A strips
/// are single-buffered per worker and C accumulates in place.
///
/// # Panics
/// Panics when `ring_depth < 2` — the executor's ring never has fewer
/// than two panels ([`crate::panel::ring_depth`]), and the LRU eviction
/// rule needs a victim distinct from the live panel.
pub fn dram_traffic_with_panel_ring(
    schedule: impl IntoIterator<Item = BlockCoord>,
    params: TrafficParams,
    c_policy: CResidency,
    ring_depth: usize,
) -> Traffic {
    assert!(ring_depth >= 2, "panel ring needs at least 2 panels");
    let coords: Vec<BlockCoord> = schedule.into_iter().collect();
    let mut t = dram_traffic(coords.iter().copied(), params, c_policy);

    // Re-derive B loads by replaying the executor's LRU panel ring: a
    // pack (miss) fetches the surface, Keep/Rotate serve it from the ring.
    t.b_loads = 0;
    let mut cache: Option<PanelCache> = None;
    for c in &coords {
        let want = (c.k, c.n);
        let b_size = (params.k_len(c.k) * params.n_len(c.n)) as u64;
        match cache.as_mut() {
            None => {
                let mut pc = PanelCache::new(ring_depth);
                pc.seed(want);
                cache = Some(pc);
                t.b_loads += b_size; // prologue pack of block 0
            }
            Some(pc) => {
                if let PanelAction::Pack(_) = pc.advance(want) {
                    t.b_loads += b_size;
                }
            }
        }
    }
    t
}

/// [`dram_traffic_with_panel_ring`] over the K-first schedule of the
/// grid `params` describes, under the benchmark's older signature.
///
/// Kept only because the repository benchmark's `model_loads`
/// (`perfbench/src/gemm.rs`) still calls it with a shape's
/// [`ko_blocks`](crate::shape::CbBlockShape::ko_blocks) and
/// [`no_blocks`](crate::shape::CbBlockShape::no_blocks), which are always
/// 0. Remove it with those fields at the next benchmark revision.
///
/// # Panics
/// Panics when either extent is non-zero (there is no outer tiling) or
/// when `ring_depth < 2`.
pub fn two_level_traffic_with_panel_ring(
    params: TrafficParams,
    ko_blocks: usize,
    no_blocks: usize,
    c_policy: CResidency,
    ring_depth: usize,
) -> Traffic {
    assert!(ko_blocks == 0 && no_blocks == 0, "outer (two-level) tiling is not supported");
    let TrafficParams { m, k, n, bm, bk, bn } = params;
    let schedule = KFirstSchedule::new(BlockGrid::for_problem(m, k, n, bm, bk, bn), m, n);
    dram_traffic_with_panel_ring(schedule, params, c_policy, ring_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{shared_surfaces, OuterLoop, Surface};

    fn params(m: usize, k: usize, n: usize, b: usize) -> TrafficParams {
        TrafficParams { m, k, n, bm: b, bk: b, bn: b }
    }

    fn kfirst(p: TrafficParams) -> KFirstSchedule {
        let grid = BlockGrid::for_problem(p.m, p.k, p.n, p.bm, p.bk, p.bn);
        KFirstSchedule::new(grid, p.m, p.n)
    }

    #[test]
    fn kfirst_schedule_never_spills_partials() {
        let p = params(8, 12, 16, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        assert_eq!(t.c_partial_writes, 0);
        assert_eq!(t.c_partial_reads, 0);
        assert_eq!(t.c_final_writes, (8 * 16) as u64);
    }

    #[test]
    fn c_final_writes_equal_output_size_regardless_of_policy() {
        let p = params(10, 9, 7, 4); // deliberately non-divisible
        for policy in [CResidency::HoldInLlc, CResidency::StreamToDram] {
            let t = dram_traffic(kfirst(p), p, policy);
            assert_eq!(t.c_final_writes, 70, "{policy:?}");
        }
    }

    #[test]
    fn streaming_pays_partial_round_trips() {
        let p = params(8, 12, 8, 4); // kb = 3
        let hold = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        let stream = dram_traffic(kfirst(p), p, CResidency::StreamToDram);
        assert!(stream.total() > hold.total());
        // Each (m, n) panel: kb-1 partial writes and kb-1 partial reads.
        let panels = 2 * 2; // (8/4) * (8/4)
        let per_panel = (4 * 4) as u64;
        assert_eq!(stream.c_partial_writes, panels as u64 * 2 * per_panel);
        assert_eq!(stream.c_partial_reads, panels as u64 * 2 * per_panel);
    }

    #[test]
    fn snake_reuse_reduces_input_loads() {
        let p = params(16, 16, 16, 4);
        let grid = BlockGrid::for_problem(16, 16, 16, 4, 4, 4);
        let snake = dram_traffic(
            KFirstSchedule::with_outer(grid, OuterLoop::NOuter),
            p,
            CResidency::HoldInLlc,
        );
        let naive = dram_traffic(
            KFirstSchedule::without_snaking(grid, OuterLoop::NOuter),
            p,
            CResidency::HoldInLlc,
        );
        // Snaking reuses one A or B surface at every loop boundary; the
        // non-snaking order must fetch strictly more input data and spill
        // partial C panels when it jumps back to k=0... (it does not jump in
        // (m,n) mid-run for K-inner loops, so only inputs differ here).
        assert!(naive.a_loads + naive.b_loads > snake.a_loads + snake.b_loads);
    }

    #[test]
    fn b_reused_across_m_steps() {
        // One K block, so the schedule is a pure (n, m) sweep: B loaded
        // once per n column, A loaded for every block.
        let p = params(12, 4, 12, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        assert_eq!(t.b_loads, (4 * 12) as u64); // 3 n-blocks x (4x4) each
        // A is fetched for every block except the two n-boundary snake
        // transitions, where (m, k) is unchanged: 9 - 2 = 7 fetches.
        assert_eq!(t.a_loads, (7 * 16) as u64);
    }

    #[test]
    fn edge_blocks_use_true_sizes() {
        // 5x5x5 with block 4: edge blocks are 1 wide.
        let p = params(5, 5, 5, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        assert_eq!(t.c_final_writes, 25);
        // Total A data is at most once per (m,k,n) triple: 4 m-blocks... and
        // at minimum the full matrix once.
        assert!(t.a_loads >= 25);
    }

    #[test]
    fn worst_case_schedule_spills_every_panel_switch() {
        // A K-outer schedule (k, m, n ordering) revisits each (m, n) panel
        // kb times with departures in between: HoldInLlc must spill.
        let p = params(8, 8, 8, 4);
        let mut order = Vec::new();
        for k in 0..2 {
            for m in 0..2 {
                for n in 0..2 {
                    order.push(BlockCoord { m, k, n });
                }
            }
        }
        let t = dram_traffic(order, p, CResidency::HoldInLlc);
        // Every panel is left once while incomplete: 4 panels spilled and
        // read back once each.
        assert_eq!(t.c_partial_writes, 4 * 16);
        assert_eq!(t.c_partial_reads, 4 * 16);
        assert_eq!(t.c_final_writes, 64);
    }

    #[test]
    fn empty_schedule_moves_nothing() {
        let p = params(0, 4, 4, 4);
        let t = dram_traffic(std::iter::empty(), p, CResidency::HoldInLlc);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn totals_add_up() {
        let p = params(8, 8, 8, 4);
        let t = dram_traffic(kfirst(p), p, CResidency::StreamToDram);
        assert_eq!(
            t.total(),
            t.a_loads + t.b_loads + t.c_total()
        );
        assert_eq!(t.total_bytes(4), t.total() * 4);
    }

    #[test]
    fn int8_operand_bytes_are_exactly_one_quarter_of_f32() {
        use std::mem::size_of;
        let p = params(64, 48, 56, 16);
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        // Same schedule, same element counts: the predicted operand bytes
        // scale exactly with the element size, so int8 is one quarter of
        // f32 — u64-exact, no rounding anywhere.
        assert_eq!(t.input_bytes(size_of::<i8>()) * 4, t.input_bytes(size_of::<f32>()));
        // The C surfaces stay accumulator-width: i8 widens to i32 (4 B),
        // bf16 to f32 (4 B), so only the input side narrows.
        assert_eq!(t.total_bytes_for::<i8>(), t.input_bytes(1) + t.c_total() * 4);
        assert_eq!(
            t.total_bytes_for::<cake_matrix::Bf16>(),
            t.input_bytes(2) + t.c_total() * 4
        );
        // Uniform dtypes collapse to the legacy uniform-size total.
        assert_eq!(t.total_bytes_for::<f32>(), t.total_bytes(4));
        assert_eq!(t.total_bytes_for::<f64>(), t.total_bytes(8));
    }

    // ----- edge-block regressions (m/k/n not divisible by bm/bk/bn) -----

    #[test]
    fn non_divisible_extents_tally_exact_edge_sizes() {
        // 5x3x5 with 4x4x4 blocks: grid 2x1x2, kb = 1, N-outer snake
        // (m0,n0) (m1,n0) (m1,n1) (m0,n1). Edge blocks are 1 wide/tall.
        let p = TrafficParams { m: 5, k: 3, n: 5, bm: 4, bk: 4, bn: 4 };
        let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        // B: loaded once per n stripe (shared across the m step):
        // 3*4 + 3*1 elements.
        assert_eq!(t.b_loads, 15);
        // A: every block except the n-boundary share (m1 stays):
        // 4*3 + 1*3 + 0 + 4*3.
        assert_eq!(t.a_loads, 27);
        assert_eq!(t.c_final_writes, 25);
        assert_eq!(t.c_partial_writes + t.c_partial_reads, 0);
    }

    #[test]
    fn non_divisible_full_input_coverage_lower_bound() {
        // Whatever the sharing pattern, each input element is fetched at
        // least once and C completes exactly once per element.
        for (m, k, n, b) in [(10, 9, 7, 4), (7, 7, 7, 3), (13, 5, 11, 8)] {
            let p = params(m, k, n, b);
            let t = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
            assert!(t.a_loads >= (m * k) as u64, "{m}x{k}x{n}/{b}");
            assert!(t.b_loads >= (k * n) as u64, "{m}x{k}x{n}/{b}");
            assert_eq!(t.c_final_writes, (m * n) as u64, "{m}x{k}x{n}/{b}");
        }
    }

    #[test]
    fn single_block_grid_loads_everything_exactly_once() {
        // mb = kb = nb = 1: one block, no transitions, no reuse to find.
        let p = params(5, 6, 7, 8);
        let grid = BlockGrid::for_problem(5, 6, 7, 8, 8, 8);
        assert_eq!((grid.mb, grid.kb, grid.nb), (1, 1, 1));
        for policy in [CResidency::HoldInLlc, CResidency::StreamToDram] {
            let t = dram_traffic(kfirst(p), p, policy);
            assert_eq!(t.a_loads, 30, "{policy:?}");
            assert_eq!(t.b_loads, 42, "{policy:?}");
            assert_eq!(t.c_final_writes, 35, "{policy:?}");
            assert_eq!(t.c_partial_writes + t.c_partial_reads, 0, "{policy:?}");
        }
    }

    #[test]
    fn shared_surfaces_on_single_block_schedule_does_not_panic() {
        // A 1-block schedule has an empty transition window; iterating
        // adjacent pairs must be a no-op, and a degenerate self-pair must
        // not panic either (it reports all three surfaces shared).
        let sched: Vec<BlockCoord> =
            KFirstSchedule::new(BlockGrid::for_problem(4, 4, 4, 8, 8, 8), 4, 4).collect();
        assert_eq!(sched.len(), 1);
        for w in sched.windows(2) {
            let _ = shared_surfaces(w[0], w[1]); // never reached
        }
        let all = shared_surfaces(sched[0], sched[0]);
        assert_eq!(all, vec![Surface::A, Surface::B, Surface::C]);
    }

    // ----- ring-aware B accounting (the executor's panel ring) -----

    #[test]
    fn ring_b_loads_never_exceed_adjacency_b_loads() {
        for (m, k, n, b) in [(16, 16, 16, 4), (10, 9, 7, 4), (32, 48, 32, 16)] {
            let p = params(m, k, n, b);
            for depth in 2..=4 {
                let adj = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
                let ring =
                    dram_traffic_with_panel_ring(kfirst(p), p, CResidency::HoldInLlc, depth);
                assert!(ring.b_loads <= adj.b_loads, "{m}x{k}x{n}/{b} depth {depth}");
                // A and C accounting is untouched by the ring.
                assert_eq!(ring.a_loads, adj.a_loads);
                assert_eq!(ring.c_final_writes, adj.c_final_writes);
                assert_eq!(ring.c_partial_writes, adj.c_partial_writes);
                assert_eq!(ring.c_partial_reads, adj.c_partial_reads);
            }
        }
    }

    #[test]
    fn deep_ring_packs_each_b_surface_exactly_once() {
        // Ring at least as deep as the k-block count: every revisit hits,
        // so B DRAM traffic collapses to one fetch per element of B per n
        // stripe sweep = exactly k*n elements.
        let p = params(32, 48, 32, 16); // kb = 3 <= depth 3
        let t = dram_traffic_with_panel_ring(kfirst(p), p, CResidency::HoldInLlc, 3);
        assert_eq!(t.b_loads, (48 * 32) as u64);
    }

    #[test]
    fn shallow_ring_repays_at_snake_reversals_only() {
        // kb = 3 with only 2 panels: some reversal surfaces were already
        // evicted, so a shallow ring saves less than a kb-deep one but
        // still at least matches plain adjacency sharing.
        let p = params(32, 48, 32, 16);
        let adj = dram_traffic(kfirst(p), p, CResidency::HoldInLlc);
        let shallow = dram_traffic_with_panel_ring(kfirst(p), p, CResidency::HoldInLlc, 2);
        let deep = dram_traffic_with_panel_ring(kfirst(p), p, CResidency::HoldInLlc, 3);
        assert!(deep.b_loads < shallow.b_loads);
        assert!(shallow.b_loads <= adj.b_loads);
    }

    #[test]
    #[should_panic(expected = "at least 2 panels")]
    fn ring_depth_below_two_is_rejected() {
        let p = params(8, 8, 8, 4);
        let _ = dram_traffic_with_panel_ring(kfirst(p), p, CResidency::HoldInLlc, 1);
    }

    #[test]
    fn ring_on_empty_schedule_moves_nothing() {
        let p = params(0, 4, 4, 4);
        let t = dram_traffic_with_panel_ring(
            std::iter::empty(),
            p,
            CResidency::HoldInLlc,
            2,
        );
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn two_level_wrapper_is_the_one_level_ring_model() {
        for p in [params(16, 16, 16, 4), params(10, 9, 7, 4), params(20, 8, 12, 4)] {
            let one = dram_traffic_with_panel_ring(kfirst(p), p, CResidency::HoldInLlc, 3);
            assert_eq!(two_level_traffic_with_panel_ring(p, 0, 0, CResidency::HoldInLlc, 3), one);
        }
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn two_level_wrapper_rejects_outer_tiles() {
        let p = params(16, 16, 16, 4);
        let _ = two_level_traffic_with_panel_ring(p, 2, 0, CResidency::HoldInLlc, 2);
    }
}
