//! The three workloads as request runners over the library's public API.
//!
//! Each runner holds two contexts built from `CakeConfig`: side 0 is the
//! default config (`p` = all cores), side 1 is `p = 1`, the
//! single-thread baseline whose blocks interleave with side 0's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::ExecStats;
use cake_dnn::Sequential;

use crate::dnn::{self, NetParams};
use crate::gemm::{build_case, dtype_mix_lists, f32_square_specs, model_loads, Case, Dt, GemmSpec};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Entries of each GEMM output recomputed after every request.
const SAMPLES: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GemmF32Square,
    GemmDtypeMix,
    DnnForward,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GemmF32Square,
        Workload::GemmDtypeMix,
        Workload::DnnForward,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GemmF32Square => "gemm_f32_square",
            Workload::GemmDtypeMix => "gemm_dtype_mix",
            Workload::DnnForward => "dnn_forward",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One GEMM call a request made.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub dt: Dt,
    pub mkn: (usize, usize, usize),
    pub stats: ExecStats,
    pub wall_ns: u64,
}

/// One request: its timed duration, its GEMM calls, and what its check found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub secs: f64,
    /// Useful operations the request performed.
    pub ops: u64,
    pub calls: Vec<Call>,
    pub err: Option<String>,
    /// A traced forward pass's per-layer split.
    pub pass: Option<dnn::PassTimes>,
}

pub trait Runner {
    /// Phases of a run. A phase may swap the request's inputs; the run's
    /// time is split evenly over them.
    fn phases(&self) -> usize {
        1
    }
    /// Switch to phase `i`, returning the `(side, outcome)` of each warm
    /// request it ran.
    fn enter_phase(&mut self, _i: usize) -> Vec<(usize, Outcome)> {
        Vec::new()
    }
    /// Every GEMM shape a request issues, over all phases.
    fn shapes(&self) -> Vec<(Dt, usize, usize, usize)>;
    /// The side-0 context's configuration.
    fn config(&self) -> &CakeConfig;
    /// One checked request on `side` (0: all cores, 1: p = 1).
    fn request(&mut self, side: usize) -> Outcome;
    /// One checked side-0 request with a span around each layer call.
    fn traced(&mut self, tr: &mut Tracer, req: u64) -> Outcome;
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Time `f` and turn a panic into a failed request.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, Result<R, String>) {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f)).map_err(|e| format!("panic: {}", panic_message(e)));
    (t0.elapsed().as_secs_f64(), r)
}

pub struct GemmRunner {
    lists: Vec<Vec<GemmSpec>>,
    phase: usize,
    cases: Vec<Box<dyn Case>>,
    ctx: [CakeGemm; 2],
    rng: Rng,
}

impl GemmRunner {
    fn run(&mut self, side: usize, mut tr: Option<(&mut Tracer, u64)>) -> Outcome {
        self.cases.iter_mut().for_each(|c| c.reset());
        let (cases, ctx) = (&mut self.cases, &self.ctx[side]);
        let (secs, res) = timed(|| {
            let root = tr.as_mut().map(|(t, req)| t.begin("request[gemm]", *req));
            let mut calls = Vec::with_capacity(cases.len());
            for c in cases.iter_mut() {
                let s = tr
                    .as_mut()
                    .map(|(t, req)| t.begin("cake-core::CakeGemm::gemm_with_stats", *req));
                let t0 = Instant::now();
                let stats = c.run(ctx);
                let wall_ns = t0.elapsed().as_nanos() as u64;
                if let (Some((t, _)), Some(s)) = (tr.as_mut(), s) {
                    t.end(s);
                }
                let sp = c.spec();
                calls.push(Call {
                    dt: sp.dt,
                    mkn: (sp.m, sp.k, sp.n),
                    stats,
                    wall_ns,
                });
            }
            if let (Some((t, _)), Some(r)) = (tr.as_mut(), root) {
                t.end(r);
            }
            calls
        });
        let ops = self.cases.iter().map(|c| c.spec().ops()).sum();
        let mut out = Outcome {
            secs,
            ops,
            ..Outcome::default()
        };
        match res {
            Ok(calls) => {
                out.calls = calls;
                out.err = self
                    .cases
                    .iter()
                    .find_map(|c| c.check_sample(&mut self.rng, SAMPLES).err());
            }
            Err(e) => out.err = Some(e),
        }
        out
    }
}

impl Runner for GemmRunner {
    fn phases(&self) -> usize {
        self.lists.len()
    }

    fn enter_phase(&mut self, i: usize) -> Vec<(usize, Outcome)> {
        if i == self.phase {
            return Vec::new();
        }
        self.phase = i;
        self.cases.clear();
        self.cases = self.lists[i].iter().copied().map(build_case).collect();
        vec![(0, self.run(0, None)), (1, self.run(1, None))]
    }

    fn shapes(&self) -> Vec<(Dt, usize, usize, usize)> {
        let mut s: Vec<_> = self
            .lists
            .iter()
            .flatten()
            .map(|c| (c.dt, c.m, c.k, c.n))
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    fn config(&self) -> &CakeConfig {
        self.ctx[0].config()
    }

    fn request(&mut self, side: usize) -> Outcome {
        self.run(side, None)
    }

    fn traced(&mut self, tr: &mut Tracer, req: u64) -> Outcome {
        self.run(0, Some((tr, req)))
    }
}

pub struct DnnRunner {
    params: NetParams,
    want: Vec<f64>,
    nets: [Sequential; 2],
    cfg: CakeConfig,
    ops: u64,
    /// The same network as separate layers over their own default
    /// context, for the traced run's per-layer spans.
    parts: Option<(dnn::Layers, CakeGemm)>,
}

impl Runner for DnnRunner {
    fn shapes(&self) -> Vec<(Dt, usize, usize, usize)> {
        dnn::gemm_shapes()
            .into_iter()
            .map(|(_, m, k, n)| (Dt::F32, m, k, n))
            .collect()
    }

    fn config(&self) -> &CakeConfig {
        &self.cfg
    }

    fn request(&mut self, side: usize) -> Outcome {
        let net = &self.nets[side];
        let input = &self.params.input;
        let (secs, res) = timed(|| net.forward(input));
        let mut out = Outcome {
            secs,
            ops: self.ops,
            ..Outcome::default()
        };
        match res {
            Ok((logits, reports)) => {
                let shapes = dnn::gemm_shapes();
                out.calls = reports
                    .iter()
                    .filter(|r| !r.gemm.kernel.is_empty())
                    .zip(&shapes)
                    .map(|(r, &(_, m, k, n))| Call {
                        dt: Dt::F32,
                        mkn: (m, k, n),
                        stats: r.gemm,
                        wall_ns: (r.seconds * 1e9) as u64,
                    })
                    .collect();
                out.err = dnn::check_logits(&logits, &self.want).err();
            }
            Err(e) => out.err = Some(e),
        }
        out
    }

    fn traced(&mut self, tr: &mut Tracer, req: u64) -> Outcome {
        let (layers, ctx) = self.parts.get_or_insert_with(|| {
            (
                dnn::layers(self.params.clone()),
                CakeGemm::new(self.cfg.clone()),
            )
        });
        let params = &self.params;
        let (_, res) = timed(|| dnn::traced_pass(layers, params, ctx, tr, req));
        let mut out = Outcome {
            ops: self.ops,
            ..Outcome::default()
        };
        match res {
            Ok(Ok((logits, times))) => {
                out.secs = times.forward_ms / 1e3;
                let shapes = dnn::gemm_shapes();
                // The forward pass's calls first (their counters are checked
                // too), then the replay's, which carry wall times.
                let fwd =
                    times
                        .forward_stats
                        .iter()
                        .zip(&shapes)
                        .map(|(&(_, st), &(_, m, k, n))| Call {
                            dt: Dt::F32,
                            mkn: (m, k, n),
                            stats: st,
                            wall_ns: 0,
                        });
                let rep =
                    times
                        .replay_stats
                        .iter()
                        .zip(&shapes)
                        .map(|(&(_, st, ns), &(_, m, k, n))| Call {
                            dt: Dt::F32,
                            mkn: (m, k, n),
                            stats: st,
                            wall_ns: ns,
                        });
                out.calls = fwd.chain(rep).collect();
                out.err = dnn::check_logits(&logits, &self.want).err();
                out.pass = Some(times);
            }
            Ok(Err(e)) | Err(e) => out.err = Some(e),
        }
        out
    }
}

/// The workload's runner, built untimed: its first requests warm it.
pub fn build(w: Workload, seed: u64, phases: usize) -> Box<dyn Runner> {
    match w {
        Workload::DnnForward => {
            let params = dnn::params(seed);
            let want = dnn::reference_logits(&params);
            let ops = dnn::sequential(params.clone(), CakeConfig::with_threads(1)).total_flops(
                dnn::IN_CH,
                dnn::IN_HW,
                dnn::IN_HW,
            );
            let nets = [
                dnn::sequential(params.clone(), CakeConfig::default()),
                dnn::sequential(params.clone(), CakeConfig::with_threads(1)),
            ];
            Box::new(DnnRunner {
                params,
                want,
                nets,
                cfg: CakeConfig::default(),
                ops,
                parts: None,
            })
        }
        _ => {
            let lists = gemm_lists(w, seed, phases);
            let cases = lists[0].iter().copied().map(build_case).collect();
            Box::new(GemmRunner {
                lists,
                phase: 0,
                cases,
                ctx: [
                    CakeGemm::new(CakeConfig::default()),
                    CakeGemm::new(CakeConfig::with_threads(1)),
                ],
                rng: Rng::new(seed ^ 0x5341_4D50_4C45_0000),
            })
        }
    }
}

fn gemm_lists(w: Workload, seed: u64, phases: usize) -> Vec<Vec<GemmSpec>> {
    match w {
        Workload::GemmDtypeMix => dtype_mix_lists(seed, phases),
        _ => vec![f32_square_specs(seed)],
    }
}

/// One cold set-up, meant to run first thing in a fresh process: build the
/// context (or network) and complete its first request, with the default
/// config. Returns the seconds that took and what the output check found.
/// Input generation and the check are outside the timed interval. Set-up
/// `rep` of `gemm_dtype_mix` runs the phase list `rep mod phases`, so the
/// median over set-ups covers the lists; set-up 0 checks the whole output
/// against the naive reference, the others a seeded sample of it.
pub fn cold_setup(w: Workload, seed: u64, rep: usize, phases: usize) -> (f64, Result<(), String>) {
    let mut rng = Rng::new(seed ^ 0x5345_5455_5000_0000 ^ rep as u64);
    if w == Workload::DnnForward {
        let params = dnn::params(seed);
        let want = dnn::reference_logits(&params);
        let input = &params.input;
        let (secs, res) = timed(|| {
            let net = dnn::sequential(params.clone(), CakeConfig::default());
            net.forward(input).0
        });
        return (
            secs,
            res.and_then(|logits| dnn::check_logits(&logits, &want)),
        );
    }
    let lists = gemm_lists(w, seed, phases);
    let mut cases: Vec<Box<dyn Case>> = lists[rep % lists.len()]
        .iter()
        .copied()
        .map(build_case)
        .collect();
    let (secs, res) = timed(|| {
        let ctx = CakeGemm::new(CakeConfig::default());
        cases.iter_mut().for_each(|c| {
            c.run(&ctx);
        });
    });
    let checked = res.and_then(|()| {
        cases.iter().try_for_each(|c| {
            if rep == 0 {
                c.check_full()
            } else {
                c.check_sample(&mut rng, SAMPLES)
            }
        })
    });
    (secs, checked)
}

/// Each call's A/B element counters against the traffic model, one model
/// evaluation per distinct shape. `Err` names the first mismatch.
pub fn check_traffic(
    cfg: &CakeConfig,
    calls: &[Call],
    cache: &mut std::collections::BTreeMap<(Dt, usize, usize, usize), (u64, u64)>,
) -> Result<(), String> {
    for c in calls {
        let (m, k, n) = c.mkn;
        let want = *cache.entry((c.dt, m, k, n)).or_insert_with(|| match c.dt {
            Dt::F32 => model_loads::<f32>(cfg, m, k, n),
            Dt::F64 => model_loads::<f64>(cfg, m, k, n),
            Dt::Bf16 => model_loads::<cake_matrix::Bf16>(cfg, m, k, n),
            Dt::Int8 => model_loads::<i8>(cfg, m, k, n),
        });
        let got = (c.stats.a_elems_loaded, c.stats.b_elems_loaded);
        if got != want {
            return Err(format!(
                "{} {m}x{k}x{n}: executor loaded (A, B) = {got:?} elements, \
                 dram_traffic_with_panel_ring gives {want:?}",
                c.dt.name()
            ));
        }
    }
    Ok(())
}
