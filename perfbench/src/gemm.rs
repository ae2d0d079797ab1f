//! GEMM request inputs, the output checks, and the traffic model each
//! GEMM call is reconciled against in the traced run.

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::ExecStats;
use cake_core::panel::ring_depth;
use cake_core::shape::CbBlockShape;
use cake_core::traffic::{two_level_traffic_with_panel_ring, CResidency, TrafficParams};
use cake_goto::naive::naive_gemm_views_acc;
use cake_kernels::select::KernelSelect;
use cake_matrix::compare::gemm_tolerance;
use cake_matrix::{init, Bf16, Dtype, Element, Layout, Matrix};

use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dt {
    F32,
    F64,
    Bf16,
    Int8,
}

impl Dt {
    pub const ALL: [Dt; 4] = [Dt::F32, Dt::F64, Dt::Bf16, Dt::Int8];

    pub fn name(self) -> &'static str {
        match self {
            Dt::F32 => "f32",
            Dt::F64 => "f64",
            Dt::Bf16 => "bf16",
            Dt::Int8 => "int8",
        }
    }

    /// Operand and accumulator widths in bytes.
    pub fn bytes(self) -> (usize, usize) {
        match self {
            Dt::F32 => (4, 4),
            Dt::F64 => (8, 8),
            Dt::Bf16 => (2, 4),
            Dt::Int8 => (1, 4),
        }
    }
}

/// One GEMM of a request: dtype, extents, shape class and input seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSpec {
    pub dt: Dt,
    pub class: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub seed: u64,
}

impl GemmSpec {
    /// Useful operations, `2 * M * K * N` for every dtype.
    pub fn ops(&self) -> u64 {
        2 * (self.m * self.k * self.n) as u64
    }
}

/// `gemm_f32_square`: one f32 1024x1024x1024 GEMM per request.
pub fn f32_square_specs(seed: u64) -> Vec<GemmSpec> {
    let mut rng = Rng::new(seed ^ 0x5155_4152_4500_0000);
    vec![GemmSpec {
        dt: Dt::F32,
        class: "square",
        m: 1024,
        k: 1024,
        n: 1024,
        seed: rng.next_u64(),
    }]
}

/// `gemm_dtype_mix`: one list of 12 GEMMs per phase of the run. Each list
/// holds four GEMMs of each of bf16, int8 and f64 -- one square
/// (512-1024), two conv-like short-K (M 32-128, K in {27, 288, 576},
/// N 1024-4096) and one tall-skinny (M 2048-4096, K and N 64-256) -- in
/// seeded order.
///
/// Every extent is stratified over the phases: each range is cut into
/// `phases` equal strata and each phase draws from a different one, in
/// seeded order. A run that visits every phase covers every range evenly,
/// so its figures do not hinge on which sizes one seed happens to draw.
pub fn dtype_mix_lists(seed: u64, phases: usize) -> Vec<Vec<GemmSpec>> {
    let mut rng = Rng::new(seed ^ 0x4D49_5800_0000_0000);
    let strata = |rng: &mut Rng| -> Vec<f64> {
        let mut order: Vec<usize> = (0..phases).collect();
        rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|s| (s as f64 + rng.unit()) / phases as f64)
            .collect()
    };
    let pick = |u: f64, lo: usize, hi: usize| (lo + ((hi - lo + 1) as f64 * u) as usize).min(hi);
    let mirror = |u: &[f64]| -> Vec<f64> { u.iter().map(|x| 1.0 - x).collect() };
    let mut lists = vec![Vec::with_capacity(12); phases];
    let mut bf16_square = Vec::new();
    for dt in [Dt::Bf16, Dt::Int8, Dt::F64] {
        let mut first_conv: Option<[Vec<f64>; 3]> = None;
        for class in ["square", "conv", "conv", "tall"] {
            let mut u = [strata(&mut rng), strata(&mut rng), strata(&mut rng)];
            // Antithetic pairs keep the lists' total work close to one
            // another: f64's square mirrors bf16's (the two slow dtypes),
            // and a dtype's second conv-like GEMM mirrors its first in M and N.
            match (class, dt) {
                ("square", Dt::Bf16) => bf16_square = u[0].clone(),
                ("square", Dt::F64) => u[0] = mirror(&bf16_square),
                ("conv", _) => match first_conv.take() {
                    Some(c) => (u[0], u[2]) = (mirror(&c[0]), mirror(&c[2])),
                    None => first_conv = Some(u.clone()),
                },
                _ => {}
            }
            for (ph, list) in lists.iter_mut().enumerate() {
                let (m, k, n) = match class {
                    "square" => {
                        let s = pick(u[0][ph], 512, 1024);
                        (s, s, s)
                    }
                    "conv" => (
                        pick(u[0][ph], 32, 128),
                        [27, 288, 576][pick(u[1][ph], 0, 2)],
                        pick(u[2][ph], 1024, 4096),
                    ),
                    _ => (
                        pick(u[0][ph], 2048, 4096),
                        pick(u[1][ph], 64, 256),
                        pick(u[2][ph], 64, 256),
                    ),
                };
                list.push(GemmSpec {
                    dt,
                    class,
                    m,
                    k,
                    n,
                    seed: rng.next_u64(),
                });
            }
        }
    }
    for list in &mut lists {
        rng.shuffle(list);
    }
    lists
}

/// A GEMM's operands and output, type-erased over the dtype.
pub trait Case {
    fn spec(&self) -> &GemmSpec;
    /// `C = 0`: `gemm` accumulates, so every request starts from zero.
    fn reset(&mut self);
    fn run(&mut self, ctx: &CakeGemm) -> ExecStats;
    /// Recompute `samples` seeded entries of `C` with an f64 dot product.
    fn check_sample(&self, rng: &mut Rng, samples: usize) -> Result<(), String>;
    /// Compare all of `C` with the naive reference GEMM.
    fn check_full(&self) -> Result<(), String>;
    /// Overwrite one output entry (for testing the checks).
    #[cfg(test)]
    fn corrupt(&mut self, i: usize, j: usize);
}

pub struct GemmCase<T: KernelSelect> {
    spec: GemmSpec,
    a: Matrix<T>,
    b: Matrix<T>,
    c: Matrix<T::Acc>,
}

impl<T: KernelSelect> GemmCase<T> {
    pub fn new(spec: GemmSpec, a: Matrix<T>, b: Matrix<T>) -> Self {
        let c = Matrix::zeros(spec.m, spec.n);
        Self { spec, a, b, c }
    }
}

impl<T: KernelSelect> Case for GemmCase<T> {
    fn spec(&self) -> &GemmSpec {
        &self.spec
    }

    fn reset(&mut self) {
        self.c.fill(<T::Acc as Element>::ZERO);
    }

    fn run(&mut self, ctx: &CakeGemm) -> ExecStats {
        ctx.gemm_with_stats(&self.a, &self.b, &mut self.c)
    }

    fn check_sample(&self, rng: &mut Rng, samples: usize) -> Result<(), String> {
        for _ in 0..samples {
            let (i, j) = (rng.below(self.spec.m), rng.below(self.spec.n));
            check_entry(&self.a, &self.b, &self.c, i, j)?;
        }
        Ok(())
    }

    fn check_full(&self) -> Result<(), String> {
        let (m, k, n) = (self.spec.m, self.spec.k, self.spec.n);
        // Column-major B only speeds the reference's inner loop up; the
        // values are the same.
        let b = self.b.to_layout(Layout::ColMajor);
        let mut want = Matrix::<T::Acc>::zeros(m, n);
        naive_gemm_views_acc(&self.a.view(), &b.view(), &mut want.view_mut());
        let tol = gemm_tolerance::<T::Acc>(k);
        if cake_matrix::approx_eq(&self.c, &want, tol) {
            Ok(())
        } else {
            Err(format!(
                "{} {m}x{k}x{n}: C differs from naive_gemm (max abs diff {:.3e}, tol {tol:.1e})",
                T::NAME,
                cake_matrix::max_abs_diff(&self.c, &want)
            ))
        }
    }

    #[cfg(test)]
    fn corrupt(&mut self, i: usize, j: usize) {
        let v = self.c.get(i, j).to_f64();
        self.c
            .set(i, j, <T::Acc as Element>::from_f64(v + 1.0 + v.abs()));
    }
}

/// `C[i][j]` against its f64 recomputation. The bound scales with K and
/// with `sum |a_ik * b_kj|` (the forward-error bound of a K-long sum);
/// int8 accumulates exactly, so its bound is 0.
pub fn check_entry<T: Dtype>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &Matrix<T::Acc>,
    i: usize,
    j: usize,
) -> Result<(), String> {
    let k = a.cols();
    let (mut dot, mut mag) = (0.0f64, 0.0f64);
    for kk in 0..k {
        let p = a.get(i, kk).widen().to_f64() * b.get(kk, j).widen().to_f64();
        dot += p;
        mag += p.abs();
    }
    let got = c.get(i, j).to_f64();
    let bound = gemm_tolerance::<T::Acc>(k) * mag;
    // Written so that a NaN fails.
    if (got - dot).abs() <= bound {
        Ok(())
    } else {
        Err(format!(
            "{} C[{i}][{j}] = {got} but the f64 dot product is {dot} (bound {bound:.3e}, K={k})",
            T::NAME
        ))
    }
}

/// The CB block shape `CakeGemm::gemm_with_stats` resolves for a call.
pub fn resolved_shape<T: KernelSelect>(
    cfg: &CakeConfig,
    m: usize,
    k: usize,
    n: usize,
) -> CbBlockShape {
    let ukr = cfg.selected_kernel::<T>();
    cfg.resolve_shape(
        m,
        k,
        n,
        ukr.mr(),
        ukr.nr(),
        T::BYTES,
        (ukr.mr() * ukr.nr()) as f64,
    )
}

/// A and B elements loaded by one call: the traffic model the executor's
/// counters reconcile with, over the call's resolved block shape.
pub fn model_loads<T: KernelSelect>(cfg: &CakeConfig, m: usize, k: usize, n: usize) -> (u64, u64) {
    let shape = resolved_shape::<T>(cfg, m, k, n);
    let params = TrafficParams {
        m,
        k,
        n,
        bm: shape.m_block(),
        bk: shape.k_block(),
        bn: shape.n_block(),
    };
    let kb = cake_matrix::block_count(k, params.bk);
    let t = two_level_traffic_with_panel_ring(
        params,
        shape.ko_blocks,
        shape.no_blocks,
        CResidency::HoldInLlc,
        ring_depth(kb),
    );
    (t.a_loads, t.b_loads)
}

fn case_of<T: KernelSelect>(
    spec: GemmSpec,
    gen: impl Fn(usize, usize, u64) -> Matrix<T>,
) -> Box<dyn Case> {
    let mut rng = Rng::new(spec.seed);
    let a = gen(spec.m, spec.k, rng.next_u64());
    let b = gen(spec.k, spec.n, rng.next_u64());
    Box::new(GemmCase::<T>::new(spec, a, b))
}

/// Generate a spec's inputs: floats uniform in `[-1, 1)`, int8 over its
/// full range.
pub fn build_case(spec: GemmSpec) -> Box<dyn Case> {
    match spec.dt {
        Dt::F32 => case_of::<f32>(spec, init::random),
        Dt::F64 => case_of::<f64>(spec, init::random),
        Dt::Bf16 => case_of::<Bf16>(spec, init::random),
        Dt::Int8 => case_of::<i8>(spec, init::random_i8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dt: Dt) -> GemmSpec {
        GemmSpec {
            dt,
            class: "test",
            m: 37,
            k: 29,
            n: 41,
            seed: 5,
        }
    }

    #[test]
    fn same_seed_same_lists_other_seed_different() {
        assert_eq!(dtype_mix_lists(1, 16), dtype_mix_lists(1, 16));
        assert_ne!(dtype_mix_lists(1, 16), dtype_mix_lists(2, 16));
        assert_eq!(f32_square_specs(3), f32_square_specs(3));
        assert_ne!(f32_square_specs(3)[0].seed, f32_square_specs(4)[0].seed);
    }

    #[test]
    fn dtype_mix_follows_its_recipe() {
        for seed in 0..10 {
            let lists = dtype_mix_lists(seed, 8);
            assert_eq!(lists.len(), 8);
            for specs in &lists {
                assert_eq!(specs.len(), 12);
                for dt in [Dt::Bf16, Dt::Int8, Dt::F64] {
                    let of: Vec<_> = specs.iter().filter(|s| s.dt == dt).collect();
                    assert_eq!(of.len(), 4);
                    assert_eq!(of.iter().filter(|s| s.class == "conv").count(), 2);
                }
                for s in specs {
                    match s.class {
                        "square" => {
                            assert!(s.m == s.k && s.k == s.n && (512..=1024).contains(&s.m))
                        }
                        "conv" => {
                            assert!((32..=128).contains(&s.m) && (1024..=4096).contains(&s.n));
                            assert!([27, 288, 576].contains(&s.k));
                        }
                        _ => assert!((2048..=4096).contains(&s.m) && (64..=256).contains(&s.k)),
                    }
                }
            }
            // Stratified: the phases' square sizes fall one per eighth of
            // 512..=1024, for every dtype.
            for dt in [Dt::Bf16, Dt::Int8, Dt::F64] {
                let mut strata: Vec<usize> = lists
                    .iter()
                    .map(|l| {
                        l.iter()
                            .find(|s| s.dt == dt && s.class == "square")
                            .expect("one square")
                            .m
                    })
                    .map(|m| (m - 512) * 8 / 513)
                    .collect();
                strata.sort_unstable();
                assert_eq!(strata, (0..8).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_different() {
        let case = |seed| {
            let spec = GemmSpec {
                seed,
                ..small(Dt::Bf16)
            };
            let mut rng = Rng::new(spec.seed);
            init::random::<Bf16>(spec.m, spec.k, rng.next_u64())
        };
        assert_eq!(case(9).as_slice(), case(9).as_slice());
        assert_ne!(case(9).as_slice(), case(10).as_slice());
    }

    #[test]
    fn checks_pass_on_a_real_gemm_and_catch_a_corrupted_entry() {
        let ctx = CakeGemm::new(CakeConfig::with_threads(1));
        for dt in Dt::ALL {
            let mut case = build_case(small(dt));
            case.reset();
            case.run(&ctx);
            case.check_full().unwrap();
            case.check_sample(&mut Rng::new(1), 64).unwrap();

            // Corrupt the first entry the seeded sample will visit.
            let mut probe = Rng::new(2);
            let (i, j) = (probe.below(37), probe.below(41));
            case.corrupt(i, j);
            assert!(
                case.check_sample(&mut Rng::new(2), 1).is_err(),
                "{dt:?} sample check"
            );
            assert!(case.check_full().is_err(), "{dt:?} full check");
        }
    }
}
