//! CSV and aligned-table output helpers for the figure binaries — and the
//! documented schema of the checked-in `BENCH_gemm.json` snapshot that
//! `bench_snapshot` emits.
//!
//! # `BENCH_gemm.json` schema
//!
//! Top-level fields:
//!
//! - `benchmark`, `threads`, `iters` — provenance: the binary name, the
//!   `--p` the single-threaded shape rows ran at, and best-of iteration
//!   count.
//! - `host` — where the numbers came from, so a snapshot regenerated on a
//!   different machine is self-describing:
//!   - `cores`: cores available to the process when the run started
//!     (`cake_core::topology::available_cores`).
//!   - `scale_gate`: outcome of the same-host scaling sanity check
//!     (`cake_bench::scaling::scaling_sane`). `"ok: checked on N core(s)"`
//!     when the host had real headroom, or an explicit
//!     `"skipped: host has N core(s), ..."` — a 1-core host cannot
//!     demonstrate a multicore win and the snapshot says so rather than
//!     passing vacuously.
//! - `gemm` — per-shape rows: CAKE vs GOTO vs naive GFLOP/s, post-warmup
//!   allocations, pack fraction, overlap efficiency, block/barrier counts.
//!   Each row also records `kernel`: the microkernel name the dispatcher
//!   selected for that run (e.g. `"avx512_f32_14x32"`), so a snapshot is
//!   attributable to a tier even when regenerated on a different host.
//! - `kernel_tiers` — per-shape A/B sweep over every tier *available on
//!   this host* (`cake_kernels::available_tiers()`), single-threaded on a
//!   fixed block grid. Each point carries `tier` (`"portable"`, `"avx2"`,
//!   `"avx512"`), `kernel` (the concrete microkernel name), its `mr`/`nr`
//!   tile shape, `cake_gflops`, and the `a_elems`/`b_elems`/`c_elems`
//!   pack counters — which must be identical across tiers (the run aborts
//!   otherwise): packing traffic depends on the block grid, never on the
//!   microkernel tile. This section is how the snapshot documents the
//!   prefetch/vector-width gain (or explicit parity) between tiers.
//! - `dtypes` — per-shape narrow-dtype sweep: one single-threaded GEMM per
//!   supported dtype (`"f32"`, `"f64"`, `"bf16"`, `"int8"`) on a fixed
//!   block grid, each through its own best-tier kernel. Each point carries:
//!   - `dtype`: operand dtype name as reported by `Dtype::NAME`,
//!   - `kernel`: the per-dtype microkernel the ladder dispatched (e.g.
//!     `"avx512_vnni_i8_16x16"`),
//!   - `elem_bytes` / `acc_bytes`: operand and accumulator widths — the
//!     narrow tier's whole point is `elem_bytes` shrinking while the
//!     accumulator stays wide (i8→i32, bf16→f32),
//!   - `gops`: best-of-iters throughput in GOP/s, counting `2mkn` ops for
//!     every dtype so the column directly shows the narrow-dtype speedup
//!     over the f32 row,
//!   - `allocs_after_warmup`: workspace allocations summed over the timed
//!     iterations — must be 0 for every dtype (the zero-alloc warm-path
//!     guarantee is dtype-independent; the run aborts otherwise),
//!   - `a_elems` / `b_elems` / `c_elems`: pack-element counters, identical
//!     across dtypes by construction (element movement is a property of
//!     the block schedule, never of the element width; the run aborts on
//!     divergence — only the *byte* traffic, `elems * elem_bytes`,
//!     shrinks with the dtype).
//! - `scaling` — per-shape strong-scaling sweeps over a fixed block grid.
//!   Each point carries:
//!   - `p`: requested worker count (drives block shape and the model),
//!   - `effective_p`: workers actually spawned after the topology clamp
//!     (`min(p, cores)`) — a speedup of ~1.0 with `effective_p = 1` is a
//!     clamped run, not a scaling regression,
//!   - `barrier_mode`: `"spin"` or `"park"` as selected by
//!     `BarrierMode::auto(p, cores)`,
//!   - `kernel`: the microkernel name used at this `p` (same dispatcher
//!     as the gemm rows; recorded per point because a regenerated
//!     snapshot may mix hosts),
//!   - `cake_gflops`, `speedup`, `efficiency` (speedup over the first
//!     point and `speedup / p`),
//!   - `a_elems` / `b_elems` / `c_elems`: measured pack-element counters,
//!     identical across `p` by construction (the run aborts otherwise),
//!   - `barrier_wait_ns_max` / `barrier_wait_ns_sum`, `imbalance`.
//! - `sim` — simulated p-sweeps from the discrete-event engine
//!   (`cake_sim::engine`), one entry per Table-2 CPU. Unlike every other
//!   section these numbers involve no wall clock: they are bit-identical
//!   on any host, so a diff in this section always means the simulator or
//!   the shaping changed, never the machine. Each entry carries `cpu`
//!   (the Table-2 name), `n` (the square problem side), and `points`:
//!   - `p`: simulated core count,
//!   - `cake_gflops` / `goto_gflops`: simulated throughput of each
//!     schedule (Figures 9b/10b/11b/12b),
//!   - `cake_dram_gbs` / `goto_dram_gbs`: average DRAM bandwidth — CAKE's
//!     column stays flat in `p` (Eq. 4) while GOTO's grows until the
//!     machine's usable bandwidth caps it (Figures 10a/11a/12a),
//!   - `cake_dram_bytes` / `goto_dram_bytes`: exact traffic counters
//!     (u64; equal to the `cake_core::traffic` closed-form tally),
//!   - `events`: discrete events processed for the two runs combined.
//! - `dnn_forward` — tiny CNN forward pass: cold vs warm seconds, warm
//!   GFLOP/s, warm allocations.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Directory results are written to (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CAKE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Write `header` + `rows` to `results/<name>.csv`; returns the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(path)
}

/// Render rows of equal arity as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        assert_eq!(r.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>w$}", w = *w));
        }
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Format a float with 2 decimals (table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Check if `--flag` is present in the process args.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Value of `--key value` in the process args.
pub fn arg_value(key: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("cake_test_{}", std::process::id()));
        std::env::set_var("CAKE_RESULTS_DIR", &dir);
        let path = write_csv("unit", "a,b", &["1,2".to_string()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
        std::env::remove_var("CAKE_RESULTS_DIR");
    }

    #[test]
    fn results_dir_honors_env() {
        std::env::set_var("CAKE_RESULTS_DIR", "/tmp/xyz");
        assert_eq!(results_dir(), PathBuf::from("/tmp/xyz"));
        std::env::remove_var("CAKE_RESULTS_DIR");
    }
}

/// Render one or more named series as an ASCII line chart (the terminal
/// stand-in for the paper's plots). Each series is a list of `(x, y)`
/// points; x values are assumed shared/ordered.
pub fn ascii_chart(title: &str, series: &[(&str, Vec<(f64, f64)>)], height: usize) -> String {
    const MARKS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, pts)| pts.iter().copied()).collect();
    if all.is_empty() || height < 2 {
        out.push_str("(no data)\n");
        return out;
    }
    let (xmin, xmax) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| (lo.min(p.0), hi.max(p.0)));
    let (ymin, ymax) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| (lo.min(p.1), hi.max(p.1)));
    let yspan = (ymax - ymin).max(1e-12);
    let xspan = (xmax - xmin).max(1e-12);
    let width = 64usize;

    let mut canvas = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in pts {
            let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row;
            canvas[r][col.min(width - 1)] = mark;
        }
    }
    for (r, line) in canvas.iter().enumerate() {
        let label = if r == 0 {
            format!("{ymax:>10.2} |")
        } else if r == height - 1 {
            format!("{ymin:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>11}+{}\n", "", "-".repeat(width)));
    out.push_str(&format!("{:>12}{:<.1}{:>width$.1}\n", "", xmin, xmax, width = width - 3));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", MARKS[i % MARKS.len()], name))
        .collect();
    out.push_str(&format!("{:>12}{}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod chart_tests {
    use super::ascii_chart;

    #[test]
    fn chart_renders_all_series() {
        let s1: Vec<(f64, f64)> = (1..=10).map(|p| (p as f64, p as f64 * 2.0)).collect();
        let s2: Vec<(f64, f64)> = (1..=10).map(|p| (p as f64, 5.0)).collect();
        let chart = ascii_chart("test", &[("grows", s1), ("flat", s2)], 10);
        assert!(chart.contains("test"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("grows"));
        assert!(chart.contains("flat"));
        // y-axis labels present.
        assert!(chart.contains("20.00"));
    }

    #[test]
    fn empty_series_is_graceful() {
        let chart = ascii_chart("empty", &[("none", vec![])], 8);
        assert!(chart.contains("no data"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 3.0)).collect();
        let chart = ascii_chart("const", &[("c", s)], 5);
        assert!(chart.contains('*'));
    }
}
