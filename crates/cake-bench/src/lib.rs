//! Experiment harness for the CAKE paper's evaluation.
//!
//! One binary per table/figure (see `src/bin/`); this library holds the
//! figure runners so they are unit-testable and reusable:
//!
//! | Target    | Paper artifact | Content |
//! |-----------|----------------|---------|
//! | `table2`  | Table 2        | CPU configurations |
//! | `fig7`    | Figure 7a/7b   | stalls / cache + DRAM accesses, CAKE vs vendor |
//! | `fig8`    | Figure 8a–d    | relative-throughput contours over (M, K) |
//! | `fig9`    | Figure 9a/9b   | speedup vs cores, square matrices |
//! | `fig10`   | Figure 10a–c   | Intel: DRAM BW / throughput / internal BW |
//! | `fig11`   | Figure 11a–c   | ARM: same three panels |
//! | `fig12`   | Figure 12a–c   | AMD: same three panels |
//! | `sweep`   | (native)       | real-machine CAKE vs GOTO vs naive timing |
//!
//! Each runner returns typed rows; binaries print an aligned table and
//! write `results/<name>.csv`. [`scaling`] holds the multicore p-sweep
//! (Figure 13's strong-scaling measurement plus the counter-invariance
//! gate) shared by `bench_snapshot` and `cakectl gemm --threads`.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod figures;
pub mod harness;
pub mod output;
pub mod scaling;
