//! Layer probes of the traced run: calls into one layer's public function
//! in a loop, each batch of calls under one span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cake_core::api::CakeConfig;
use cake_core::pool::ThreadPool;
use cake_goto::{goto_gemm, GotoConfig};
use cake_kernels::pack::{pack_a, pack_b, packed_a_size, packed_b_size};
use cake_kernels::select::{best_kernel, KernelSelect};
use cake_matrix::{init, Element, Matrix};

use crate::gemm::{check_entry, resolved_shape};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;

/// Run `batch` until `budget` has passed (and at least five times); the
/// median of its per-batch rates.
fn sample(budget: Duration, mut batch: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 5 || start.elapsed() < budget {
        rates.push(batch());
    }
    median(&rates)
}

/// `best_kernel::<T>()` on one packed A sliver and one packed B sliver
/// (L1/L2-resident) at reduction depth `kc`, in GOP/s.
pub fn ukernel_gops<T: KernelSelect>(
    kc: usize,
    budget: Duration,
    tr: &mut Tracer,
    req: u64,
) -> f64 {
    const CALLS: usize = 256;
    let ukr = best_kernel::<T>();
    let (mr, nr) = (ukr.mr(), ukr.nr());
    let a = init::random_ints::<T>(mr, kc, 1);
    let b = init::random_ints::<T>(kc, nr, 2);
    let mut pa = vec![T::ZERO; packed_a_size(mr, kc, mr)];
    let mut pb = vec![T::ZERO; packed_b_size(kc, nr, nr)];
    pack_a(&a.view(), &mut pa, mr);
    pack_b(&b.view(), &mut pb, nr);
    let mut c = vec![<T::Acc as Element>::ZERO; mr * nr];
    let name = format!("cake-kernels::Ukr::call[{}]", T::NAME);
    sample(budget, || {
        // Zeroed per batch, so int8 sums stay far from i32 overflow.
        c.fill(<T::Acc as Element>::ZERO);
        let s = tr.begin(name.as_str(), req);
        let t0 = Instant::now();
        for _ in 0..CALLS {
            // SAFETY: pa and pb are full packed slivers of depth kc, and c
            // is a dense mr x nr tile (rsc = nr, csc = 1) aliasing neither.
            unsafe {
                ukr.call(
                    kc,
                    black_box(pa.as_ptr()),
                    black_box(pb.as_ptr()),
                    c.as_mut_ptr(),
                    nr,
                    1,
                )
            };
        }
        black_box(&mut c);
        let secs = t0.elapsed().as_secs_f64();
        tr.end(s);
        (2 * mr * nr * kc * CALLS) as f64 / secs / 1e9
    })
}

/// `pack_a` on an `mc x kc` view and `pack_b` on a `kc x nc` view, with
/// the block extents `resolve_shape` gives the problem `m x k x n`; GB/s of
/// source elements read.
pub fn pack_gbs<T: KernelSelect>(
    cfg: &CakeConfig,
    (m, k, n): (usize, usize, usize),
    budget: Duration,
    tr: &mut Tracer,
    req: u64,
) -> (f64, f64) {
    let ukr = cfg.selected_kernel::<T>();
    let shape = resolved_shape::<T>(cfg, m, k, n);
    let (mc, kc, nc) = (shape.mc.min(m), shape.kc.min(k), shape.nc.min(n));
    let a = init::random_ints::<T>(mc, kc, 3);
    let b = init::random_ints::<T>(kc, nc, 4);
    let mut pa = vec![T::ZERO; packed_a_size(mc, kc, ukr.mr())];
    let mut pb = vec![T::ZERO; packed_b_size(kc, nc, ukr.nr())];
    let mut one = |name: String, elems: usize, pack: &mut dyn FnMut()| {
        // Enough calls per batch to read about 4 MiB.
        let calls = (4 << 20) / (elems * T::BYTES) + 1;
        sample(budget, || {
            let s = tr.begin(name.as_str(), req);
            let t0 = Instant::now();
            for _ in 0..calls {
                pack();
            }
            let secs = t0.elapsed().as_secs_f64();
            tr.end(s);
            (elems * T::BYTES * calls) as f64 / secs / 1e9
        })
    };
    let ga = one(
        format!("cake-kernels::pack_a[{}]", T::NAME),
        mc * kc,
        &mut || {
            pack_a(black_box(&a.view()), &mut pa, ukr.mr());
            black_box(&mut pa);
        },
    );
    let gb = one(
        format!("cake-kernels::pack_b[{}]", T::NAME),
        kc * nc,
        &mut || {
            pack_b(black_box(&b.view()), &mut pb, ukr.nr());
            black_box(&mut pb);
        },
    );
    (ga, gb)
}

/// Round trip of an empty `ThreadPool::broadcast` over `workers`, in µs.
pub fn broadcast_us(workers: usize, budget: Duration, tr: &mut Tracer, req: u64) -> f64 {
    const CALLS: usize = 64;
    let pool = ThreadPool::new(workers);
    for _ in 0..CALLS {
        pool.broadcast(|w| {
            black_box(w);
        });
    }
    sample(budget, || {
        let s = tr.begin("cake-core::ThreadPool::broadcast", req);
        let t0 = Instant::now();
        for _ in 0..CALLS {
            pool.broadcast(|w| {
                black_box(w);
            });
        }
        let secs = t0.elapsed().as_secs_f64();
        tr.end(s);
        secs * 1e6 / CALLS as f64
    })
}

/// `goto_gemm` (default config, all cores) on f32 `n x n x n`, GOP/s;
/// every result is sample-checked.
pub fn goto_gops(
    n: usize,
    seed: u64,
    budget: Duration,
    tr: &mut Tracer,
    req: u64,
) -> Result<f64, String> {
    let mut rng = Rng::new(seed);
    let a = init::random::<f32>(n, n, rng.next_u64());
    let b = init::random::<f32>(n, n, rng.next_u64());
    let mut c = Matrix::<f32>::zeros(n, n);
    let cfg = GotoConfig::default();
    let mut err = None;
    let gops = sample(budget, || {
        c.fill(0.0);
        let s = tr.begin("cake-goto::goto_gemm", req);
        let t0 = Instant::now();
        goto_gemm(&a, &b, &mut c, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        tr.end(s);
        for _ in 0..16 {
            if let Err(e) = check_entry(&a, &b, &c, rng.below(n), rng.below(n)) {
                err.get_or_insert(format!("goto_gemm: {e}"));
            }
        }
        2.0 * (n * n * n) as f64 / secs / 1e9
    });
    err.map_or(Ok(gops), Err)
}
