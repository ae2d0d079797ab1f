//! Tile-level GEMM microkernels for the CAKE reproduction.
//!
//! The paper implements CAKE on top of the BLIS kernel library: a single
//! register-blocked *microkernel* multiplies an `mr x kc` packed sliver of
//! `A` by a `kc x nr` packed sliver of `B`, accumulating into an `mr x nr`
//! tile of `C` held in SIMD registers (paper Figure 5e / 6e). Everything
//! above the microkernel — blocking, scheduling, packing order — is what
//! distinguishes CAKE from GOTO; the kernel itself is shared.
//!
//! This crate provides:
//!
//! * [`ukernel`] — the kernel contract ([`Ukr`]) and portable
//!   auto-vectorizing implementations for several `mr x nr` shapes.
//! * [`avx2`] — hand-written AVX2+FMA kernels (f32 `6x16`, f64 `4x8`,
//!   the classic Haswell register blocking) selected at runtime.
//! * [`avx512`] — hand-written AVX-512F kernels (f32 `14x32`, f64 `8x16`)
//!   blocked for the 32-register zmm file, the top dispatch tier.
//! * [`pack`] — packing of operand panels into the kernel's micro-panel
//!   format (BLIS-compatible: `A` slivers k-major `mr` wide, `B` slivers
//!   k-major `nr` wide), with zero-padding of edge slivers.
//! * [`edge`] — safe execution of partial tiles via a scratch buffer.
//! * [`select`] — runtime kernel dispatch per element type: a tier ladder
//!   (avx512 → avx2 → portable) with a `CAKE_KERNEL` env override that caps
//!   the tier for A/B experiments.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod edge;
pub mod pack;
pub mod select;
pub mod ukernel;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

pub use select::{available_tiers, best_kernel, portable_kernel, tier_kernel, KernelTier};
pub use ukernel::Ukr;
