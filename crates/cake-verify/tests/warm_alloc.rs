//! Runtime cross-check of `cake-audit`'s static alloc-freedom pass.
//!
//! The static pass proves, by call-graph traversal from the
//! `// audit: warm` roots, that no reachable line allocates. Its known
//! holes are name-based: `std` internals that allocate without a
//! deny-listed token, and function-pointer dispatch (`Ukr::call`). This
//! test closes them at runtime: a counting `#[global_allocator]` wraps the
//! system allocator, and after two warmup iterations (workspace growth is
//! declared cold) a steady-state `execute_with_stats_in` call must perform
//! **zero** fresh allocations — for all four dtypes, on a shape with edge
//! tails in every dimension.
//!
//! The claim is made for the `p = 1` inline pool: a size-1 [`ThreadPool`]
//! runs the job on the caller thread with no cross-thread channel traffic
//! (multi-worker pools heap-allocate one channel node per broadcast, which
//! is pool bookkeeping, not GEMM warm-path work). That is also why the
//! tally is per thread: it counts the calling thread's allocations only,
//! so tests running in parallel on sibling threads never leak into each
//! other's deltas.
//!
//! The allocator also records each thread's largest single allocation,
//! which bounds a warm DNN forward pass: it allocates no feature map at
//! all — the conv layers write their im2col patches into the context's
//! staging buffer, and every conv, ReLU and pool output reuses a buffer
//! the previous pass recycled — only small bookkeeping (the per-layer
//! reports, the logits).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cake_core::api::CakeConfig;
use cake_core::executor::execute_with_stats_in;
use cake_core::pool::ThreadPool;
use cake_core::shape::CbBlockShape;
use cake_core::workspace::GemmWorkspace;
use cake_kernels::select::{portable_kernel, KernelSelect};
use cake_dnn::im2col::ConvGeom;
use cake_dnn::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU, Sequential, Tensor};
use cake_matrix::{init, Bf16, Matrix};

/// Counts every allocation path (`alloc`, `alloc_zeroed`, `realloc`)
/// through the global allocator, per thread, and records the thread's
/// largest single request; frees are not counted — the property under
/// test is "no fresh allocation", not "no traffic".
struct CountingAlloc;

thread_local! {
    /// This thread's allocation count. Const-initialised with a drop-free
    /// type, so reading it never allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// This thread's largest single allocation in bytes since the last
    /// [`reset_largest`].
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Bump the calling thread's tally for a `bytes`-byte request. `try_with`
/// keeps the allocator from panicking if a thread allocates while its TLS
/// is being torn down.
fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

/// Start a fresh largest-allocation record on the calling thread.
fn reset_largest() {
    LARGEST.with(|m| m.set(0));
}

/// The calling thread's largest single allocation since [`reset_largest`].
fn largest() -> usize {
    LARGEST.with(Cell::get)
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed by one steady-state executor call for dtype `T`.
fn steady_state_allocs<T: KernelSelect>(a: Matrix<T>, b: Matrix<T>) -> u64 {
    let (m, n) = (a.rows(), b.cols());
    // mc/kc/nc chosen so every dimension has a partial edge block AND a
    // partial register tile — the paths most likely to hide an allocation.
    let shape = CbBlockShape::fixed(1, 40, 24, 56);
    let pool = ThreadPool::new(1);
    let ukr = portable_kernel::<T>();
    let mut ws = GemmWorkspace::new();
    let mut c = Matrix::<T::Acc>::zeros(m, n);

    // Two warmup calls: the first grows the workspace (declared
    // `// audit: cold`), the second confirms the shape is steady.
    for _ in 0..2 {
        execute_with_stats_in(&a.view(), &b.view(), &mut c.view_mut(), &shape, &ukr, &pool, &mut ws);
    }

    let before = allocs();
    let stats = execute_with_stats_in(
        &a.view(),
        &b.view(),
        &mut c.view_mut(),
        &shape,
        &ukr,
        &pool,
        &mut ws,
    );
    let delta = allocs() - before;
    assert_eq!(stats.allocations, 0, "workspace must be steady after warmup");
    delta
}

const M: usize = 93;
const K: usize = 61;
const N: usize = 87;

#[test]
fn warm_path_performs_zero_allocations_f32() {
    let delta =
        steady_state_allocs::<f32>(init::random(M, K, 21), init::random(K, N, 22));
    assert_eq!(delta, 0, "f32 steady-state GEMM allocated {delta} time(s)");
}

#[test]
fn warm_path_performs_zero_allocations_f64() {
    let delta =
        steady_state_allocs::<f64>(init::random(M, K, 23), init::random(K, N, 24));
    assert_eq!(delta, 0, "f64 steady-state GEMM allocated {delta} time(s)");
}

#[test]
fn warm_path_performs_zero_allocations_i8() {
    let delta =
        steady_state_allocs::<i8>(init::random_i8(M, K, 25), init::random_i8(K, N, 26));
    assert_eq!(delta, 0, "i8 steady-state GEMM allocated {delta} time(s)");
}

#[test]
fn warm_path_performs_zero_allocations_bf16() {
    let delta =
        steady_state_allocs::<Bf16>(init::random(M, K, 27), init::random(K, N, 28));
    assert_eq!(delta, 0, "bf16 steady-state GEMM allocated {delta} time(s)");
}

/// A warm p = 1 forward pass of the `examples/dnn_inference.rs` network
/// allocates nothing as large as its smallest feature map: no im2col
/// patch matrix (the conv layers fill the context's staging buffer) and
/// no layer output (each comes back from the previous pass through
/// `CakeGemm::recycle`).
#[test]
fn warm_dnn_forward_allocates_no_feature_map() {
    let net = Sequential::new(CakeConfig::with_threads(1))
        .push(Conv2d::random("conv1a", 3, 32, ConvGeom::same(3), 1))
        .push(ReLU)
        .push(Conv2d::random("conv1b", 32, 32, ConvGeom::same(3), 2))
        .push(ReLU)
        .push(MaxPool2d)
        .push(Conv2d::random("conv2a", 32, 64, ConvGeom::same(3), 3))
        .push(ReLU)
        .push(Conv2d::random("conv2b", 64, 64, ConvGeom::same(3), 4))
        .push(ReLU)
        .push(MaxPool2d)
        .push(Conv2d::random("conv3", 64, 128, ConvGeom::same(3), 5))
        .push(ReLU)
        .push(GlobalAvgPool)
        .push(Linear::random("fc", 128, 10, 6));
    let input = Tensor::from_matrix(init::random::<f32>(3, 32 * 32, 42), 32, 32);
    let smallest_map = net
        .shapes(3, 32, 32)
        .iter()
        .filter(|&&(_, h, w)| h * w > 1)
        .map(|&(c, h, w)| c * h * w * std::mem::size_of::<f32>())
        .min()
        .expect("the network has feature maps");

    let (cold, _) = net.forward(&input);
    reset_largest();
    let (warm, _) = net.forward(&input);
    let peak = largest();
    assert_eq!(cold.as_matrix().as_slice(), warm.as_matrix().as_slice());
    assert!(peak > 0, "the warm pass allocates its reports");
    assert!(
        peak < smallest_map,
        "warm forward pass allocated {peak} B at once; smallest feature map is {smallest_map} B"
    );
}

/// The counter itself must observe ordinary allocations — otherwise the
/// four zero-assertions above would pass vacuously.
#[test]
fn counting_allocator_observes_allocations() {
    let before = allocs();
    let v: Vec<u64> = Vec::with_capacity(64);
    let after = allocs();
    drop(v);
    assert!(after > before, "Vec::with_capacity(64) must hit the global allocator");
    reset_largest();
    let v: Vec<u64> = Vec::with_capacity(100);
    drop(v);
    assert_eq!(largest(), 800, "the largest-allocation record sees the request size");
}
