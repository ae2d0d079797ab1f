//! `bench_snapshot` — fixed-shape performance snapshot, checked into the
//! repo root as `BENCH_gemm.json`.
//!
//! Runs CAKE (pipelined executor), the GOTO baseline, and the naive
//! reference at a few fixed GEMM shapes plus a small CNN forward pass, and
//! records GFLOP/s, post-warmup allocation counts, the dispatched kernel
//! tier per entry, and the pipeline's measured pack fraction. A
//! `kernel_tiers` section benchmarks every kernel tier the host supports
//! (one single-threaded GEMM per tier per shape on a fixed block grid; the
//! run aborts if the traffic counters differ across tiers — they count
//! live elements, a schedule property). A `scaling` section then sweeps
//! `p in {1, 2, 4, 8}` over each shape on a fixed block grid (see
//! `cake_bench::scaling`), recording speedup over `p = 1`, scaling
//! efficiency, the post-clamp `effective_p` and barrier mode per point,
//! and the measured pack-element counters — which must be identical at
//! every `p` (the run aborts if they diverge). A `host` block records the
//! machine's core count and the same-host scaling-gate outcome
//! (`scaling_sane`: with `cores >= 2p` headroom, `p > 1` must beat the
//! baseline; on hosts without headroom the gate records an explicit skip
//! instead of a vacuous pass). A `sim` section records discrete-event
//! simulated p-sweeps (CAKE vs GOTO throughput and DRAM bandwidth) on the
//! three Table-2 CPUs — the Figure 9-12 series as tracked data, identical
//! on every host because no wall clock is involved. Full field-by-field
//! schema docs live in `cake_bench::output`. Intended to run via `ci.sh`
//! so the snapshot tracks the executor's health over time.
//!
//! ```text
//! bench_snapshot [--iters I] [--p P] [--out PATH]
//! ```

use std::time::Instant;

use cake_bench::output::arg_value;
use cake_bench::scaling::{
    counters_invariant, dtype_counters_invariant, kernel_counters_invariant, scaling_sane,
    sweep_dtypes, sweep_kernels, sweep_shape, DtypePoint, KernelPoint, ScalePoint,
};
use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::topology;
use cake_dnn::im2col::ConvGeom;
use cake_dnn::layers::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU};
use cake_dnn::network::Sequential;
use cake_dnn::tensor::Tensor;
use cake_goto::api::{goto_gemm, GotoConfig};
use cake_goto::naive::naive_gemm;
use cake_matrix::{init, Matrix};
use cake_sim::config::CpuConfig;
use cake_sim::engine::{simulate_cake, simulate_goto, SimParams};

/// Best-of-`iters` wall time for `f`, in seconds.
fn time_best<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One timed call, folded into a running best.
fn time_once<F: FnMut()>(best: &mut f64, mut f: F) {
    let t0 = Instant::now();
    f();
    *best = best.min(t0.elapsed().as_secs_f64());
}

fn gflops(m: usize, k: usize, n: usize, seconds: f64) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64 / seconds / 1e9
}

/// Minimal JSON emission — the container has no serde, and the snapshot
/// schema is flat enough that hand-rolling stays honest.
struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::from("{\n"))
    }
    fn field(&mut self, indent: usize, key: &str, value: &str, last: bool) {
        self.0.push_str(&" ".repeat(indent));
        self.0.push_str(&format!("\"{key}\": {value}"));
        self.0.push_str(if last { "\n" } else { ",\n" });
    }
    fn finish(mut self) -> String {
        self.0.push_str("}\n");
        self.0
    }
}

fn f3(x: f64) -> String {
    format!("{x:.3}")
}

struct ShapeResult {
    m: usize,
    k: usize,
    n: usize,
    cake_gflops: f64,
    goto_gflops: f64,
    naive_gflops: f64,
    allocs_after_warmup: usize,
    pack_fraction: f64,
    blocks: usize,
    barriers: usize,
    kernel: &'static str,
}

fn bench_shape(ctx: &CakeGemm, p: usize, m: usize, k: usize, n: usize, iters: usize) -> ShapeResult {
    let a = init::random::<f32>(m, k, 1);
    let b = init::random::<f32>(k, n, 2);

    let goto_cfg = GotoConfig::with_threads(p);
    let mut c = Matrix::<f32>::zeros(m, n);
    let mut cg = Matrix::<f32>::zeros(m, n);
    ctx.gemm(&a, &b, &mut c); // warmup: pool + workspace sized
    goto_gemm(&a, &b, &mut cg, &goto_cfg); // warmup

    // Interleave the contenders round-robin so clock drift (shared
    // machines, turbo decay) hits both equally instead of biasing
    // whichever phase ran while the core was fast.
    let mut warm_allocs = 0;
    let (mut cake_s, mut goto_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        time_once(&mut cake_s, || {
            warm_allocs += ctx.gemm_with_stats(&a, &b, &mut c).allocations;
        });
        time_once(&mut goto_s, || goto_gemm(&a, &b, &mut cg, &goto_cfg));
    }
    let stats = ctx.last_stats();

    let mut cn = Matrix::<f32>::zeros(m, n);
    let naive_s = time_best(iters.min(2), || naive_gemm(&a, &b, &mut cn));

    ShapeResult {
        m,
        k,
        n,
        cake_gflops: gflops(m, k, n, cake_s),
        goto_gflops: gflops(m, k, n, goto_s),
        naive_gflops: gflops(m, k, n, naive_s),
        allocs_after_warmup: warm_allocs,
        pack_fraction: stats.pack_fraction(),
        blocks: stats.blocks,
        barriers: stats.barriers,
        kernel: stats.kernel,
    }
}

fn tiny_net(p: usize) -> Sequential {
    Sequential::new(CakeConfig::with_threads(p))
        .push(Conv2d::random("conv1", 3, 16, ConvGeom::same(3), 1))
        .push(ReLU)
        .push(MaxPool2d)
        .push(Conv2d::random("conv2", 16, 32, ConvGeom::same(3), 2))
        .push(ReLU)
        .push(GlobalAvgPool)
        .push(Linear::random("fc", 32, 10, 3))
}

fn main() {
    let iters = arg_value("--iters").and_then(|v| v.parse().ok()).unwrap_or(3).max(1);
    let p: usize = arg_value("--p").and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_gemm.json".into());

    let ctx = CakeGemm::new(CakeConfig::with_threads(p));
    let shapes = [(256usize, 256usize, 256usize), (384, 256, 512), (512, 512, 512)];
    let results: Vec<ShapeResult> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let r = bench_shape(&ctx, p, m, k, n, iters);
            println!(
                "{m}x{k}x{n}: cake {:.2} GF/s  goto {:.2} GF/s  naive {:.2} GF/s  \
                 (pack {:.1}%, {} allocs warm)",
                r.cake_gflops,
                r.goto_gflops,
                r.naive_gflops,
                r.pack_fraction * 100.0,
                r.allocs_after_warmup
            );
            r
        })
        .collect();

    // Kernel-tier sweep per shape: one single-threaded GEMM per tier the
    // host supports, fixed block grid, so the per-tier GFLOP/s are directly
    // comparable and the counters must match exactly.
    let kernel_tiers: Vec<(usize, usize, usize, Vec<KernelPoint>)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let points = sweep_kernels(m, k, n, iters);
            for pt in &points {
                println!(
                    "{m}x{k}x{n} tier {} ({}, {}x{}): {:.2} GF/s",
                    pt.tier.name(),
                    pt.kernel,
                    pt.mr,
                    pt.nr,
                    pt.gflops
                );
            }
            if let Err(msg) = kernel_counters_invariant(&points) {
                eprintln!("kernel-tier sweep {m}x{k}x{n}: {msg}");
                std::process::exit(1);
            }
            (m, k, n, points)
        })
        .collect();

    // Dtype sweep per shape: one single-threaded GEMM per supported dtype
    // (f32/f64/bf16/int8) on a fixed block grid, each through its own
    // best-tier kernel. Element counters must match across dtypes, and
    // every dtype's timed iterations must run allocation-free.
    let dtypes: Vec<(usize, usize, usize, Vec<DtypePoint>)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let points = sweep_dtypes(m, k, n, iters);
            for pt in &points {
                println!(
                    "{m}x{k}x{n} dtype {} ({}): {:.2} GOP/s ({} allocs warm)",
                    pt.dtype, pt.kernel, pt.gops, pt.allocs_after_warmup
                );
            }
            if let Err(msg) = dtype_counters_invariant(&points) {
                eprintln!("dtype sweep {m}x{k}x{n}: {msg}");
                std::process::exit(1);
            }
            (m, k, n, points)
        })
        .collect();

    // Multicore p-sweep per shape: fixed block grid, so the element
    // counters are comparable (and must be equal) across p.
    const SWEEP_P: [usize; 4] = [1, 2, 4, 8];
    let cores = topology::available_cores();
    let scaling: Vec<(usize, usize, usize, Vec<ScalePoint>)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let points = sweep_shape(m, k, n, &SWEEP_P, iters, false);
            for pt in &points {
                println!(
                    "{m}x{k}x{n} p={} (eff {}, {}): {:.2} GF/s  speedup {:.2}x  \
                     efficiency {:.2}  imbalance {:.2}",
                    pt.p,
                    pt.effective_p,
                    pt.barrier_mode,
                    pt.gflops,
                    pt.speedup,
                    pt.efficiency,
                    pt.imbalance
                );
            }
            if let Err(msg) = counters_invariant(&points) {
                eprintln!("scaling sweep {m}x{k}x{n}: {msg}");
                std::process::exit(1);
            }
            if let Err(msg) = scaling_sane(&points, cores) {
                eprintln!("scaling sweep {m}x{k}x{n}: {msg}");
                std::process::exit(1);
            }
            (m, k, n, points)
        })
        .collect();
    // Honest gate record: a 1-core host passes `scaling_sane` vacuously,
    // so the snapshot says so instead of claiming a multicore win.
    let scale_gate = if cores < 2 {
        format!("skipped: host has {cores} core(s), no multicore headroom")
    } else {
        format!("ok: checked on {cores} core(s)")
    };
    println!("scaling gate: {scale_gate}");

    // CNN forward pass: cold (sizes every layer's workspace) then warm.
    let net = tiny_net(p);
    let input = Tensor::from_matrix(init::random::<f32>(3, 32 * 32, 9), 32, 32);
    let flops = net.total_flops(3, 32, 32);
    let t0 = Instant::now();
    let _ = net.forward(&input);
    let cold_s = t0.elapsed().as_secs_f64();
    let mut warm_allocs = 0u64;
    let warm_s = time_best(iters, || {
        let (_, reports) = net.forward(&input);
        warm_allocs += reports.iter().map(|r| r.gemm.allocations as u64).sum::<u64>();
    });
    println!(
        "dnn forward (32x32x3, {flops} flops): cold {:.3} ms, warm {:.3} ms ({} allocs warm)",
        cold_s * 1e3,
        warm_s * 1e3,
        warm_allocs
    );

    let mut j = Json::new();
    j.field(2, "benchmark", "\"bench_snapshot\"", false);
    j.field(2, "threads", &p.to_string(), false);
    j.field(2, "iters", &iters.to_string(), false);
    j.field(
        2,
        "host",
        &format!("{{\"cores\": {cores}, \"scale_gate\": \"{scale_gate}\"}}"),
        false,
    );
    let mut rows = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        rows.push_str(&format!(
            "    {{\"m\": {}, \"k\": {}, \"n\": {}, \"kernel\": \"{}\", \"cake_gflops\": {}, \
             \"goto_gflops\": {}, \
             \"naive_gflops\": {}, \"allocs_after_warmup\": {}, \"pack_fraction\": {}, \
             \"blocks\": {}, \"barriers\": {}}}{}\n",
            r.m,
            r.k,
            r.n,
            r.kernel,
            f3(r.cake_gflops),
            f3(r.goto_gflops),
            f3(r.naive_gflops),
            r.allocs_after_warmup,
            f3(r.pack_fraction),
            r.blocks,
            r.barriers,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    rows.push_str("  ]");
    j.field(2, "gemm", &rows, false);
    let mut kt = String::from("[\n");
    for (si, (m, k, n, points)) in kernel_tiers.iter().enumerate() {
        kt.push_str(&format!("    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"tiers\": [\n"));
        for (i, pt) in points.iter().enumerate() {
            kt.push_str(&format!(
                "      {{\"tier\": \"{}\", \"kernel\": \"{}\", \"mr\": {}, \"nr\": {}, \
                 \"cake_gflops\": {}, \"a_elems\": {}, \"b_elems\": {}, \"c_elems\": {}}}{}\n",
                pt.tier.name(),
                pt.kernel,
                pt.mr,
                pt.nr,
                f3(pt.gflops),
                pt.a_elems,
                pt.b_elems,
                pt.c_elems,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        kt.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 == kernel_tiers.len() { "" } else { "," }
        ));
    }
    kt.push_str("  ]");
    j.field(2, "kernel_tiers", &kt, false);
    let mut dt = String::from("[\n");
    for (si, (m, k, n, points)) in dtypes.iter().enumerate() {
        dt.push_str(&format!("    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"dtypes\": [\n"));
        for (i, pt) in points.iter().enumerate() {
            dt.push_str(&format!(
                "      {{\"dtype\": \"{}\", \"kernel\": \"{}\", \"elem_bytes\": {}, \
                 \"acc_bytes\": {}, \"gops\": {}, \"allocs_after_warmup\": {}, \
                 \"a_elems\": {}, \"b_elems\": {}, \"c_elems\": {}}}{}\n",
                pt.dtype,
                pt.kernel,
                pt.elem_bytes,
                pt.acc_bytes,
                f3(pt.gops),
                pt.allocs_after_warmup,
                pt.a_elems,
                pt.b_elems,
                pt.c_elems,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        dt.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 == dtypes.len() { "" } else { "," }
        ));
    }
    dt.push_str("  ]");
    j.field(2, "dtypes", &dt, false);
    let mut sc = String::from("[\n");
    for (si, (m, k, n, points)) in scaling.iter().enumerate() {
        sc.push_str(&format!("    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"points\": [\n"));
        for (i, pt) in points.iter().enumerate() {
            sc.push_str(&format!(
                "      {{\"p\": {}, \"effective_p\": {}, \"barrier_mode\": \"{}\", \
                 \"kernel\": \"{}\", \
                 \"cake_gflops\": {}, \"speedup\": {}, \"efficiency\": {}, \
                 \"a_elems\": {}, \"b_elems\": {}, \"c_elems\": {}, \
                 \"barrier_wait_ns_max\": {}, \"barrier_wait_ns_sum\": {}, \"imbalance\": {}}}{}\n",
                pt.p,
                pt.effective_p,
                pt.barrier_mode,
                pt.kernel,
                f3(pt.gflops),
                f3(pt.speedup),
                f3(pt.efficiency),
                pt.a_elems,
                pt.b_elems,
                pt.c_elems,
                pt.barrier_wait_ns_max,
                pt.barrier_wait_ns_sum,
                f3(pt.imbalance),
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        sc.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 == scaling.len() { "" } else { "," }
        ));
    }
    sc.push_str("  ]");
    j.field(2, "scaling", &sc, false);
    // Simulated p-sweeps on the three Table-2 CPUs (discrete-event
    // engine, no wall-clock involved): the Figure 9-12 series as data,
    // tracked over time like the measured sections. Schema docs in
    // `cake_bench::output`.
    let mut sim = String::from("[\n");
    let sim_cpus = CpuConfig::table2();
    for (ci, cpu) in sim_cpus.iter().enumerate() {
        let n = match cpu.cores {
            0..=4 => 3000,
            5..=10 => 4608,
            _ => 9216,
        };
        let ps: Vec<usize> =
            [1, cpu.cores / 4, cpu.cores / 2, cpu.cores].iter().copied().filter(|p| *p >= 1).collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        sim.push_str(&format!(
            "    {{\"cpu\": \"{}\", \"n\": {n}, \"points\": [\n",
            cpu.name
        ));
        for (i, &sp_p) in ps.iter().enumerate() {
            let sp = SimParams::square(n, sp_p);
            let c = simulate_cake(cpu, &sp);
            let g = simulate_goto(cpu, &sp);
            sim.push_str(&format!(
                "      {{\"p\": {sp_p}, \"cake_gflops\": {}, \"cake_dram_gbs\": {}, \
                 \"goto_gflops\": {}, \"goto_dram_gbs\": {}, \"cake_dram_bytes\": {}, \
                 \"goto_dram_bytes\": {}, \"events\": {}}}{}\n",
                f3(c.gflops),
                f3(c.avg_dram_bw_gbs),
                f3(g.gflops),
                f3(g.avg_dram_bw_gbs),
                c.dram_bytes,
                g.dram_bytes,
                c.events + g.events,
                if i + 1 == ps.len() { "" } else { "," }
            ));
        }
        sim.push_str(&format!(
            "    ]}}{}\n",
            if ci + 1 == sim_cpus.len() { "" } else { "," }
        ));
    }
    sim.push_str("  ]");
    j.field(2, "sim", &sim, false);
    j.field(
        2,
        "dnn_forward",
        &format!(
            "{{\"input\": \"3x32x32\", \"flops\": {flops}, \"cold_seconds\": {:.6}, \
             \"warm_seconds\": {:.6}, \"gflops_warm\": {}, \"allocs_warm\": {warm_allocs}}}",
            cold_s,
            warm_s,
            f3(flops as f64 / warm_s / 1e9)
        ),
        true,
    );
    std::fs::write(&out, j.finish()).expect("write snapshot");
    println!("wrote {out}");
}
