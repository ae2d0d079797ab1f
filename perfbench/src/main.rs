//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <gemm_f32_square|gemm_dtype_mix|dnn_forward>
//!           --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` (the timed run) measures the end-to-end metrics: one caller
//! thread runs a closed loop of checked requests, alternating blocks at
//! `p` = all cores (default `CakeConfig`) with blocks at `p = 1`.
//! `--trace 1` (the traced run) measures the per-layer metrics from spans
//! around calls into each layer, checks every GEMM's element counters
//! against the traffic model, and reports the tracing overhead. It needs
//! the `traced` feature, which turns on cake-core's traffic counters.
//! `--setup-rep <r>` makes the process one cold set-up (set-up `r` of the
//! workload) that prints its time and verdict; the runs start the
//! executable again with it for `setup_s`.
//!
//! Human-readable lines go first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A run
//! record (every request's latency, kernel and barrier mode) and, for the
//! traced run, the spans are written under `.bench_out/`.

mod bench;
mod dnn;
mod gemm;
mod host;
mod probes;
mod report;
mod rng;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cake_core::api::CakeConfig;
use cake_kernels::select::KernelSelect;
use cake_matrix::Bf16;

use bench::{Call, Outcome, Runner, Workload};
use gemm::{resolved_shape, Dt};
use report::{json_num, json_str, metric, Metric};
use stats::median;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <gemm_f32_square|gemm_dtype_mix|dnn_forward> --seed <n> [--seconds <s>] [--trace <0|1>]";
/// Cold set-ups per timed run, each in a fresh process and spread over the
/// run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Untimed requests per side before the timed phase.
const WARMUP: usize = 2;
/// Longest block of same-side requests.
const BLOCK: Duration = Duration::from_millis(500);
/// Seconds per phase of `gemm_dtype_mix` (one GEMM list per phase).
const MIX_PHASE_SECS: f64 = 1.25;
const OUT_DIR: &str = ".bench_out";

/// The timed run's result line, in order. BENCHMARK.json's `end_to_end`
/// names exactly these; `latency_tail_ms` and `error_rate` are printed and
/// recorded but not gated (see NOTES.md).
const END_TO_END: [&str; 5] = [
    "throughput_gops",
    "throughput_gops_p1",
    "latency_p50_ms",
    "setup_s",
    "peak_rss_mib",
];

const EXECUTOR: [&str; 10] = [
    "executor.pack_ms_max",
    "executor.compute_ms_max",
    "executor.barrier_wait_ms_max",
    "executor.pack_frac",
    "executor.barrier_wait_frac",
    "executor.compute_imbalance",
    "executor.unaccounted_ms",
    "executor.blocks",
    "executor.b_panel_hits",
    "executor.allocs_warm",
];

/// The traced run's result line, in order. BENCHMARK.json's `per_layer`
/// names exactly these.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = Dt::ALL
        .iter()
        .map(|dt| format!("ukernel.gops.{}", dt.name()))
        .collect();
    for dt in Dt::ALL {
        names.push(format!("pack.a_gbs.{}", dt.name()));
        names.push(format!("pack.b_gbs.{}", dt.name()));
    }
    names.extend(EXECUTOR.iter().map(|s| s.to_string()));
    names.extend(
        [
            "pool.broadcast_us",
            "traffic.ext_mib_per_request",
            "traffic.ops_per_byte",
            "goto.gops",
            "dnn.im2col_ms",
            "dnn.gemm_ms",
            "dnn.conv_other_ms",
            "dnn.elementwise_ms",
            "dnn.gemm_frac",
        ]
        .map(String::from),
    );
    names.extend(dnn::LABELS.iter().map(|l| format!("dnn.layer_ms.{l}")));
    names.push("trace.overhead_frac".to_string());
    names
}

fn result_names(trace: bool) -> Vec<String> {
    if trace {
        per_layer_names()
    } else {
        END_TO_END.map(String::from).to_vec()
    }
}

/// The metrics named by `names`, in that order; `Err` names one the run did
/// not measure.
fn declared(metrics: &[Metric], names: &[String]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|n| {
            metrics
                .iter()
                .find(|m| &m.name == n)
                .cloned()
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process is one cold set-up of a timed run.
    setup_rep: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut setup_rep = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?),
            "--seconds" => {
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {v}"))?
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}")),
                }
            }
            "--setup-rep" => {
                setup_rep = Some(v.parse().map_err(|_| format!("bad --setup-rep {v}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_rep,
    })
}

/// Phases of `gemm_dtype_mix` in a run of `seconds`.
fn phases(seconds: f64) -> usize {
    ((seconds / MIX_PHASE_SECS).round() as usize).max(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace && !cfg!(feature = "traced") {
        eprintln!(
            "perfbench: --trace 1 needs a build with the `traced` feature (traffic counters)"
        );
        std::process::exit(2);
    }
    if let Some(rep) = args.setup_rep {
        let (secs, res) = bench::cold_setup(args.workload, args.seed, rep, phases(args.seconds));
        match res {
            Ok(()) => println!("setup_s {secs} ok"),
            Err(e) => println!("setup_s {secs} failed: {e}"),
        }
        std::process::exit(0);
    }
    std::process::exit(run(&args));
}

/// Cold set-up `rep`, run first thing in a fresh process of this
/// executable: its seconds, or why it failed.
fn cold_setup_process(args: &Args, rep: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up {rep}: no executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--setup-rep", &rep.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up {rep}: could not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up {rep}: exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut words = text.lines().last().unwrap_or("").splitn(3, ' ');
    match (
        words.next(),
        words.next().map(str::parse::<f64>),
        words.next(),
    ) {
        (Some("setup_s"), Some(Ok(secs)), Some("ok")) => Ok(secs),
        (Some("setup_s"), Some(Ok(_)), Some(verdict)) => Err(format!("set-up {rep}: {verdict}")),
        _ => Err(format!("set-up {rep}: unreadable output {text:?}")),
    }
}

/// Requests attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    requests: Vec<String>,
}

impl Tally {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Count a request and keep its line for the run record.
    fn record(&mut self, phase: &str, p: usize, o: &Outcome) {
        self.attempted += 1;
        if let Some(e) = &o.err {
            self.fail(e.clone());
        }
        let (kernels, modes) = dispatch(&o.calls);
        self.requests.push(format!(
            "{{\"phase\": {}, \"p\": {p}, \"ms\": {}, \"ops\": {}, \"ok\": {}, \"kernel\": {}, \"barrier_mode\": {}}}",
            json_str(phase),
            json_num(o.secs * 1e3),
            o.ops,
            o.err.is_none(),
            json_str(&kernels),
            json_str(&modes)
        ));
    }
}

/// A request's dispatched kernels and barrier modes, each distinct name
/// once, `+`-joined.
fn dispatch(calls: &[Call]) -> (String, String) {
    let mut kernels: Vec<&str> = calls.iter().map(|c| c.stats.kernel).collect();
    let mut modes: Vec<&str> = calls
        .iter()
        .map(|c| c.stats.barrier_mode.as_str())
        .collect();
    for v in [&mut kernels, &mut modes] {
        v.sort_unstable();
        v.dedup();
    }
    (kernels.join("+"), modes.join("+"))
}

fn run(args: &Args) -> i32 {
    let nproc = host::nproc();
    let fingerprint = host::fingerprint();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} p={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &fingerprint {
        println!("host.{k}: {v}");
    }

    let mut tally = Tally::default();
    // Set-up 0 checks the whole output; the timed run spreads the other
    // set-ups over its measured time, the traced run needs none of them.
    tally.attempted += 1;
    let setup0 = cold_setup_process(args, 0).map_err(|e| tally.fail(e)).ok();
    let mut runner = bench::build(args.workload, args.seed, phases(args.seconds));
    for (dt, m, k, n) in runner.shapes() {
        println!("gemm: {} {m}x{k}x{n}", dt.name());
    }
    for side in [0, 1] {
        for _ in 0..WARMUP {
            let o = runner.request(side);
            tally.record("warmup", side_p(side), &o);
        }
    }

    let (metrics, mut ok) = if args.trace {
        traced_run(args, runner.as_mut(), &mut tally)
    } else {
        (
            timed_run(args, runner.as_mut(), &mut tally, SETUP_REPS, setup0),
            true,
        )
    };
    let result = match declared(&metrics, &result_names(args.trace)) {
        Ok(r) => r,
        Err(e) => {
            if ok {
                println!("FAILED: {e}");
            }
            ok = false;
            metrics.clone()
        }
    };

    for e in &tally.errors {
        println!("FAILED: {e}");
    }
    let correct = tally.failed == 0 && ok;
    write_record(args, &fingerprint, &metrics, &tally, correct);
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &result)
    );
    let _ = std::io::stdout().flush();
    if ok {
        0
    } else {
        1
    }
}

/// Workers on side 0 (all cores) or side 1 (one).
fn side_p(side: usize) -> usize {
    if side == 0 {
        host::nproc()
    } else {
        1
    }
}

/// Useful GOP/s over a set of `(seconds, ops)` requests.
fn gops(reqs: &[(f64, u64)]) -> f64 {
    let (secs, ops) = reqs
        .iter()
        .fold((0.0, 0u64), |(s, o), r| (s + r.0, o + r.1));
    ops as f64 / secs / 1e9
}

/// Spend `seconds` over the runner's phases, alternating within each phase
/// between blocks of request kind 0 and kind 1 (each block at least one
/// request; which kind leads alternates by phase). `step` runs one request
/// at the run's progress (0 to 1) and returns the time it spent on work
/// outside the measurement, which the phase clock leaves out, or `None` to
/// stop the run.
fn alternate(
    runner: &mut dyn Runner,
    seconds: f64,
    tally: &mut Tally,
    mut step: impl FnMut(&mut dyn Runner, usize, f64, &mut Tally) -> Option<Duration>,
) {
    let phases = runner.phases();
    let phase_len = Duration::from_secs_f64(seconds / phases as f64);
    let block = BLOCK.min(phase_len / 2);
    for ph in 0..phases {
        for (side, o) in runner.enter_phase(ph) {
            tally.record("warmup", side_p(side), &o);
        }
        let order = if ph % 2 == 0 { [0, 1] } else { [1, 0] };
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let active = |paused: Duration| start.elapsed().saturating_sub(paused);
        while active(paused) < phase_len {
            for kind in order {
                let b0 = active(paused);
                loop {
                    let done = active(paused).as_secs_f64() / phase_len.as_secs_f64();
                    match step(runner, kind, (ph as f64 + done) / phases as f64, tally) {
                        Some(outside) => paused += outside,
                        None => return,
                    }
                    let now = active(paused);
                    if now.saturating_sub(b0) >= block || now >= phase_len {
                        break;
                    }
                }
            }
        }
    }
}

/// Alternate blocks of requests at p = all cores and p = 1 for `seconds`;
/// the end-to-end metrics. Cold set-ups 1 to `setup_reps - 1` run between
/// requests, spread evenly over the run, so that `setup_s` sees the same
/// host as the requests; `setup0` is set-up 0's time.
fn timed_run(
    args: &Args,
    runner: &mut dyn Runner,
    tally: &mut Tally,
    setup_reps: usize,
    setup0: Option<f64>,
) -> Vec<Metric> {
    let nproc = host::nproc();
    let mut lat: [Vec<(f64, u64)>; 2] = [Vec::new(), Vec::new()];
    let mut groups: BTreeMap<(usize, String, String), usize> = BTreeMap::new();
    let mut setup_secs: Vec<f64> = setup0.into_iter().collect();
    let mut next_setup = 1;
    let mut cold_setup = |rep: usize, tally: &mut Tally| {
        tally.attempted += 1;
        match cold_setup_process(args, rep) {
            Ok(secs) => setup_secs.push(secs),
            Err(e) => tally.fail(e),
        }
    };
    alternate(
        runner,
        args.seconds,
        tally,
        |runner, side, progress, tally| {
            let t0 = Instant::now();
            while next_setup < setup_reps && progress * setup_reps as f64 >= next_setup as f64 {
                cold_setup(next_setup, tally);
                next_setup += 1;
            }
            let outside = t0.elapsed();
            let o = runner.request(side);
            tally.record("timed", side_p(side), &o);
            lat[side].push((o.secs, o.ops));
            let (k, b) = dispatch(&o.calls);
            *groups.entry((side_p(side), k, b)).or_default() += 1;
            Some(outside)
        },
    );
    // Set-ups not yet due when the run stopped.
    for rep in next_setup..setup_reps {
        cold_setup(rep, tally);
    }

    let ops_each = lat[0].iter().map(|r| r.1 as f64).sum::<f64>() / lat[0].len() as f64;
    let ms: Vec<f64> = lat[0].iter().map(|r| r.0 * 1e3).collect();
    let tail = stats::tail(&ms);
    let metrics = vec![
        metric("throughput_gops", gops(&lat[0]), "GOP/s"),
        metric("throughput_gops_p1", gops(&lat[1]), "GOP/s"),
        metric("latency_p50_ms", median(&ms), "ms"),
        metric("latency_tail_ms", tail.value, "ms"),
        metric("setup_s", median(&setup_secs), "s"),
        metric("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        metric(
            "error_rate",
            tally.failed as f64 / tally.attempted as f64,
            "ratio",
        ),
    ];
    println!(
        "requests: {} at p={nproc}, {} at p=1, {:.3} GOP each on average, {} phase(s)",
        lat[0].len(),
        lat[1].len(),
        ops_each / 1e9,
        runner.phases()
    );
    for ((p, k, b), n) in &groups {
        println!("dispatch: p={p} kernel={k} barrier_mode={b} requests={n}");
    }
    for m in &metrics {
        println!("metric {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    println!(
        "latency_tail_ms is the p{:.1} latency of {} requests at p={nproc} (10 beyond it); \
         setup_s is the median of {} cold set-ups, each in a fresh process, spread over the run; error_rate is {} failed of {} attempted",
        tail.percentile,
        tail.samples,
        setup_secs.len(),
        tally.failed,
        tally.attempted
    );
    metrics
}

/// Executor figures of one request, from its calls' `ExecStats`.
#[derive(Default)]
struct ExecSample {
    pack_ms_max: f64,
    compute_ms_max: f64,
    wait_ms_max: f64,
    pack_frac: f64,
    wait_frac: f64,
    imbalance: f64,
    unaccounted_ms: f64,
    blocks: f64,
    panel_hits: f64,
    ext_bytes: f64,
    ops: f64,
}

/// Over the calls with a wall time (one per GEMM the request issued).
fn exec_sample(calls: &[Call]) -> ExecSample {
    let mut s = ExecSample::default();
    let (mut pack, mut compute, mut wait, mut worker_wall, mut weighted_max) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for c in calls.iter().filter(|c| c.wall_ns > 0) {
        let st = &c.stats;
        let w = st.workers.max(1) as f64;
        s.pack_ms_max += st.pack_ns_max as f64 / 1e6;
        s.compute_ms_max += st.compute_ns_max as f64 / 1e6;
        s.wait_ms_max += st.barrier_wait_ns_max as f64 / 1e6;
        pack += st.pack_ns as f64;
        compute += st.compute_ns as f64;
        wait += st.barrier_wait_ns as f64;
        worker_wall += w * c.wall_ns as f64;
        weighted_max += w * st.compute_ns_max as f64;
        s.unaccounted_ms +=
            (c.wall_ns as f64 - (st.pack_ns + st.compute_ns + st.barrier_wait_ns) as f64 / w) / 1e6;
        s.blocks += st.blocks as f64;
        s.panel_hits += st.b_panel_hits as f64;
        let (m, k, n) = c.mkn;
        let (eb, ab) = c.dt.bytes();
        // A and B as the counters loaded them; C read once and written once.
        s.ext_bytes +=
            ((st.a_elems_loaded + st.b_elems_loaded) as usize * eb + 2 * m * n * ab) as f64;
        s.ops += 2.0 * (m * k * n) as f64;
    }
    s.pack_frac = pack / (pack + compute);
    s.wait_frac = wait / worker_wall;
    s.imbalance = weighted_max / compute;
    s
}

fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// The largest GEMM of dtype `dt` a request issues, or else its largest GEMM.
fn rep_shape(shapes: &[(Dt, usize, usize, usize)], dt: Dt) -> (usize, usize, usize) {
    let size = |&&(_, m, k, n): &&(Dt, usize, usize, usize)| m * k * n;
    let pick = shapes
        .iter()
        .filter(|s| s.0 == dt)
        .max_by_key(size)
        .or_else(|| shapes.iter().max_by_key(size));
    pick.map(|&(_, m, k, n)| (m, k, n))
        .expect("a workload issues at least one GEMM")
}

/// Kernel and packing probes for one dtype at the workload's block shape.
fn dtype_probes<T: KernelSelect>(
    cfg: &CakeConfig,
    shape: (usize, usize, usize),
    tr: &mut Tracer,
    req: u64,
) -> (usize, f64, f64, f64) {
    let kc = resolved_shape::<T>(cfg, shape.0, shape.1, shape.2).kc;
    let root = tr.begin(format!("probe[{}]", T::NAME), req);
    let ukr = probes::ukernel_gops::<T>(kc, Duration::from_millis(200), tr, req);
    let (pa, pb) = probes::pack_gbs::<T>(cfg, shape, Duration::from_millis(150), tr, req);
    tr.end(root);
    (kc, ukr, pa, pb)
}

/// The traced run: per-layer metrics, the traffic check and the tracing
/// overhead. Returns `false` with the metrics when the counters disagree
/// with the model, which stops the run.
fn traced_run(args: &Args, runner: &mut dyn Runner, tally: &mut Tally) -> (Vec<Metric>, bool) {
    let nproc = host::nproc();
    let cfg = runner.config().clone();
    let mut tr = Tracer::new();
    let mut model = BTreeMap::new();
    let mut traffic_err = None;
    let (mut traced_reqs, mut plain_reqs) = (Vec::new(), Vec::new());
    let (mut samples, mut passes) = (Vec::new(), Vec::new());
    let (mut allocs_warm, mut calls_checked, mut req) = (0u64, 0usize, 0u64);

    // The traced path may hold its own context: warm it first.
    let o = runner.traced(&mut Tracer::new(), u64::MAX);
    tally.record("warmup", nproc, &o);
    // Traced and untraced blocks alternate, both at p = all cores.
    alternate(runner, args.seconds, tally, |runner, kind, _, tally| {
        let traced = kind == 0;
        let mut o = if traced {
            runner.traced(&mut tr, req)
        } else {
            runner.request(0)
        };
        req += 1;
        tally.record(if traced { "traced" } else { "untraced" }, nproc, &o);
        allocs_warm += o
            .calls
            .iter()
            .map(|c| c.stats.allocations as u64)
            .sum::<u64>();
        calls_checked += o.calls.len();
        if let Err(e) = bench::check_traffic(&cfg, &o.calls, &mut model) {
            traffic_err = Some(e);
            return None;
        }
        if traced {
            traced_reqs.push((o.secs, o.ops));
            samples.push(exec_sample(&o.calls));
            passes.extend(o.pass.take());
        } else {
            plain_reqs.push((o.secs, o.ops));
        }
        Some(Duration::ZERO)
    });
    if let Some(e) = &traffic_err {
        println!("TRAFFIC MISMATCH, run stopped: {e}");
        return (Vec::new(), false);
    }
    println!(
        "traffic check: {calls_checked} GEMM calls over {} shapes, A and B element counters == \
         dram_traffic_with_panel_ring exactly",
        model.len()
    );

    // Layer probes, each under its own request id.
    let shapes = runner.shapes();
    let mut m = Vec::new();
    let mut pack = Vec::new();
    for dt in Dt::ALL {
        req += 1;
        let shape = rep_shape(&shapes, dt);
        let (kc, ukr, pa, pb) = match dt {
            Dt::F32 => dtype_probes::<f32>(&cfg, shape, &mut tr, req),
            Dt::F64 => dtype_probes::<f64>(&cfg, shape, &mut tr, req),
            Dt::Bf16 => dtype_probes::<Bf16>(&cfg, shape, &mut tr, req),
            Dt::Int8 => dtype_probes::<i8>(&cfg, shape, &mut tr, req),
        };
        println!(
            "probe {}: kc={kc} from {}x{}x{}",
            dt.name(),
            shape.0,
            shape.1,
            shape.2
        );
        m.push(metric(format!("ukernel.gops.{}", dt.name()), ukr, "GOP/s"));
        pack.push(metric(format!("pack.a_gbs.{}", dt.name()), pa, "GB/s"));
        pack.push(metric(format!("pack.b_gbs.{}", dt.name()), pb, "GB/s"));
    }
    m.extend(pack);

    let e = &samples;
    let exec: [(f64, &'static str); 10] = [
        (median_of(e, |s| s.pack_ms_max), "ms"),
        (median_of(e, |s| s.compute_ms_max), "ms"),
        (median_of(e, |s| s.wait_ms_max), "ms"),
        (median_of(e, |s| s.pack_frac), "fraction"),
        (median_of(e, |s| s.wait_frac), "fraction"),
        (median_of(e, |s| s.imbalance), "ratio"),
        (median_of(e, |s| s.unaccounted_ms), "ms"),
        (median_of(e, |s| s.blocks), "count"),
        (median_of(e, |s| s.panel_hits), "count"),
        (allocs_warm as f64, "count"),
    ];
    m.extend(
        EXECUTOR
            .iter()
            .zip(exec)
            .map(|(name, (v, unit))| metric(*name, v, unit)),
    );

    req += 1;
    let root = tr.begin("probe[pool]", req);
    let bcast = probes::broadcast_us(nproc, Duration::from_millis(200), &mut tr, req);
    tr.end(root);
    m.push(metric("pool.broadcast_us", bcast, "us"));
    m.push(metric(
        "traffic.ext_mib_per_request",
        median_of(e, |s| s.ext_bytes) / (1 << 20) as f64,
        "MiB",
    ));
    m.push(metric(
        "traffic.ops_per_byte",
        median_of(e, |s| s.ops / s.ext_bytes),
        "op/B",
    ));

    req += 1;
    let root = tr.begin("probe[goto]", req);
    let goto = probes::goto_gops(1024, args.seed, Duration::from_millis(500), &mut tr, req);
    tr.end(root);
    tally.attempted += 1;
    let goto = goto.unwrap_or_else(|err| {
        tally.fail(err);
        f64::NAN
    });
    m.push(metric("goto.gops", goto, "GOP/s"));

    // The DNN split: from the workload's own passes, or else from traced
    // passes of the dnn_forward network.
    if passes.is_empty() {
        let mut dnn = bench::build(Workload::DnnForward, args.seed, 1);
        let o = dnn.traced(&mut Tracer::new(), u64::MAX);
        tally.record("warmup", nproc, &o);
        let t0 = Instant::now();
        while passes.len() < 5 || t0.elapsed() < Duration::from_millis(1500) {
            req += 1;
            let mut o = dnn.traced(&mut tr, req);
            tally.record("dnn_probe", nproc, &o);
            passes.extend(o.pass.take());
            if o.err.is_some() {
                break;
            }
        }
    }
    let split = dnn::split(&passes);
    m.extend([
        metric("dnn.im2col_ms", split.im2col_ms, "ms"),
        metric("dnn.gemm_ms", split.gemm_ms, "ms"),
        metric("dnn.conv_other_ms", split.conv_other_ms, "ms"),
        metric("dnn.elementwise_ms", split.elementwise_ms, "ms"),
        metric("dnn.gemm_frac", split.gemm_frac, "fraction"),
    ]);
    for (label, ms) in dnn::LABELS.iter().zip(&split.layer_ms) {
        m.push(metric(format!("dnn.layer_ms.{label}"), *ms, "ms"));
    }

    let (traced_gops, plain_gops) = (gops(&traced_reqs), gops(&plain_reqs));
    m.push(metric(
        "trace.overhead_frac",
        1.0 - traced_gops / plain_gops,
        "fraction",
    ));

    println!("span self time (name, count, total ms, self ms):");
    for (name, count, total_ms, self_ms) in tr.summary() {
        println!("  {name:<52} {count:>6} {total_ms:>12.3} {self_ms:>12.3}");
    }
    println!(
        "traffic.* are computed from element counters (A, B as loaded; C read and written once), not measured bytes"
    );
    println!(
        "tracing overhead: throughput_gops {traced_gops:.3} traced ({} requests) vs {plain_gops:.3} untraced ({} requests)",
        traced_reqs.len(),
        plain_reqs.len()
    );
    for x in &m {
        println!("metric {} = {} {}", x.name, json_num(x.value), x.unit);
    }
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| tr.write_json(&path)) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    (m, true)
}

/// The run record: seed, host fingerprint, metrics and every request's
/// latency, kernel and barrier mode.
fn write_record(
    args: &Args,
    fingerprint: &[(&str, String)],
    metrics: &[Metric],
    tally: &Tally,
    correct: bool,
) {
    let host: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let mets: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"host\": {{{}}}, \"metrics\": {{{}}}, \"requests\": [\n{}\n]}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tally.attempted,
        tally.failed,
        host.join(", "),
        mets.join(", "),
        tally.requests.join(",\n")
    );
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, body)) {
        Ok(()) => println!(
            "run record: {} ({} requests)",
            path.display(),
            tally.requests.len()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s of one top-level list of BENCHMARK.json.
    fn spec_names(spec: &str, key: &str) -> Vec<String> {
        let list = &spec[spec.find(&format!("\"{key}\"")).expect(key)..];
        let list = &list[..list.find(']').expect("end of list")];
        list.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_runs_print() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        assert_eq!(spec_names(&spec, "end_to_end"), result_names(false));
        assert_eq!(spec_names(&spec, "per_layer"), result_names(true));
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec_names(&spec, "workloads"), workloads);
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        let mut names = result_names(false);
        names.extend(result_names(true));
        names.extend(["latency_tail_ms", "error_rate"].map(String::from));
        assert!(names.iter().all(|n| report::valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(!report::valid_name("bad name"));
        assert!(!report::valid_name(".leading_dot"));
    }

    #[test]
    fn timed_run_measures_every_end_to_end_metric() {
        let args = Args {
            workload: Workload::DnnForward,
            seed: 3,
            seconds: 0.3,
            trace: false,
            setup_rep: None,
        };
        let mut runner = bench::build(args.workload, args.seed, 1);
        let mut tally = Tally::default();
        // One set-up, already made: no set-up process is started.
        let metrics = timed_run(&args, runner.as_mut(), &mut tally, 1, Some(0.01));
        let got = declared(&metrics, &result_names(false)).unwrap();
        assert!(got.iter().all(|m| m.value > 0.0), "{got:?}");
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        assert!(declared(&metrics, &["no_such_metric".to_string()]).is_err());
    }

    #[test]
    fn args_parse_and_reject() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload dnn_forward --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.setup_rep),
            (Workload::DnnForward, 7, 3.0, true, None)
        );
        let a = parse_args(&v("--workload gemm_dtype_mix --seed 2 --setup-rep 4")).unwrap();
        assert_eq!(a.setup_rep, Some(4));
        assert!(parse_args(&v("--workload nope --seed 1")).is_err());
        assert!(parse_args(&v("--seed 1")).is_err());
        assert!(parse_args(&v("--workload dnn_forward --seed 1 --trace 2")).is_err());
    }
}
