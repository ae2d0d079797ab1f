//! im2col lowering: convolution as matrix multiplication.
//!
//! A convolution of a `C_in x H x W` input with `C_out` kernels of size
//! `C_in x KH x KW` (stride `s`, zero padding `p`) equals the GEMM
//!
//! ```text
//! W (C_out x C_in*KH*KW)  x  patches (C_in*KH*KW x OH*OW)  =  Y (C_out x OH*OW)
//! ```
//!
//! which is the per-layer MM the paper's intro refers to. [`im2col_into`]
//! writes the patch matrix into a caller's buffer (the conv layer passes
//! its GEMM context's reused staging buffer), [`im2col`] into a fresh
//! matrix; [`direct_conv`] is the quadruple-loop reference the tests
//! verify the GEMM path against.

use cake_matrix::{Element, Matrix};

use crate::tensor::Tensor;

/// Convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
}

impl ConvGeom {
    /// Square-kernel geometry.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self { kh: k, kw: k, stride, pad }
    }

    /// `k x k` kernel, stride 1, "same" padding (odd `k`).
    pub fn same(k: usize) -> Self {
        assert!(k % 2 == 1, "'same' padding requires an odd kernel");
        Self::square(k, 1, k / 2)
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics if the kernel does not fit the padded input.
    pub fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(self.stride > 0, "stride must be positive");
        let ph = h + 2 * self.pad;
        let pw = w + 2 * self.pad;
        assert!(ph >= self.kh && pw >= self.kw, "kernel larger than padded input");
        ((ph - self.kh) / self.stride + 1, (pw - self.kw) / self.stride + 1)
    }
}

/// Build the `(C_in*KH*KW) x (OH*OW)` patch matrix for `input`: a fresh
/// matrix filled by [`im2col_into`].
pub fn im2col<T: Element>(input: &Tensor<T>, geom: &ConvGeom) -> Matrix<T> {
    let (oh, ow) = geom.out_dims(input.height(), input.width());
    let mut patches = Matrix::zeros(input.channels() * geom.kh * geom.kw, oh * ow);
    im2col_into(input, geom, patches.as_mut_slice());
    patches
}

/// Write the `(C_in*KH*KW) x (OH*OW)` patch matrix for `input`, row-major,
/// into `dst`. Every element is written, the zero padding included, so a
/// dirty reused buffer is safe.
///
/// Patch row `(c, dy, dx)` holds, for each output row `oy`, one run of
/// input row `oy*stride + dy - pad`: zeros where the run hangs over the
/// padding, and the in-bounds part copied with `copy_from_slice` (a
/// strided gather when `stride > 1`).
///
/// # Panics
/// Panics if `dst.len()` is not the patch matrix's element count.
pub fn im2col_into<T: Element>(input: &Tensor<T>, geom: &ConvGeom, dst: &mut [T]) {
    let (cin, h, w) = (input.channels(), input.height(), input.width());
    let (oh, ow) = geom.out_dims(h, w);
    let (s, pad) = (geom.stride, geom.pad);
    assert_eq!(
        dst.len(),
        cin * geom.kh * geom.kw * oh * ow,
        "im2col destination must hold C_in*KH*KW x OH*OW elements"
    );
    let src = input.as_matrix().as_slice();
    let mut rows = dst.chunks_exact_mut(oh * ow);
    for c in 0..cin {
        let plane = &src[c * h * w..(c + 1) * h * w];
        for dy in 0..geom.kh {
            for dx in 0..geom.kw {
                let row = rows.next().expect("one patch row per (c, dy, dx)");
                // Output columns whose input column `ox*s + dx - pad` lies
                // in `0..w`: `lo..hi`, clamped to `0..ow`.
                let lo = pad.saturating_sub(dx).div_ceil(s).min(ow);
                let hi = (w + pad).saturating_sub(dx).div_ceil(s).clamp(lo, ow);
                for (oy, out) in row.chunks_exact_mut(ow).enumerate() {
                    let iy = (oy * s + dy).wrapping_sub(pad);
                    if iy >= h {
                        out.fill(T::ZERO);
                        continue;
                    }
                    out[..lo].fill(T::ZERO);
                    out[hi..].fill(T::ZERO);
                    if lo < hi {
                        let line = &plane[iy * w..(iy + 1) * w];
                        let ix0 = lo * s + dx - pad;
                        if s == 1 {
                            out[lo..hi].copy_from_slice(&line[ix0..ix0 + (hi - lo)]);
                        } else {
                            let taps = line[ix0..].iter().step_by(s);
                            for (o, &v) in out[lo..hi].iter_mut().zip(taps) {
                                *o = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Direct (quadruple-loop) convolution reference:
/// `weights` is `C_out x (C_in*KH*KW)` in the same row layout as
/// [`im2col`] rows; returns the `C_out x OH x OW` output.
pub fn direct_conv<T: Element>(
    input: &Tensor<T>,
    weights: &Matrix<T>,
    geom: &ConvGeom,
) -> Tensor<T> {
    let (cin, h, w) = (input.channels(), input.height(), input.width());
    assert_eq!(
        weights.cols(),
        cin * geom.kh * geom.kw,
        "weight columns must equal C_in*KH*KW"
    );
    let (oh, ow) = geom.out_dims(h, w);
    let cout = weights.rows();
    let mut out = Tensor::zeros(cout, oh, ow);
    for co in 0..cout {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f64;
                for c in 0..cin {
                    for dy in 0..geom.kh {
                        for dx in 0..geom.kw {
                            let iy = (oy * geom.stride + dy) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + dx) as isize - geom.pad as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let wv = weights.get(co, c * geom.kh * geom.kw + dy * geom.kw + dx);
                            acc += wv.to_f64()
                                * input.get(c, iy as usize, ix as usize).to_f64();
                        }
                    }
                }
                out.set(co, oy, ox, T::from_f64(acc));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_matrix::init;
    use proptest::prelude::*;

    fn gemm_conv(input: &Tensor<f32>, weights: &Matrix<f32>, geom: &ConvGeom) -> Tensor<f32> {
        let patches = im2col(input, geom);
        let (oh, ow) = geom.out_dims(input.height(), input.width());
        let mut y = Matrix::<f32>::zeros(weights.rows(), oh * ow);
        cake_core::api::cake_sgemm(
            weights,
            &patches,
            &mut y,
            &cake_core::api::CakeConfig::with_threads(1),
        );
        Tensor::from_matrix(y, oh, ow)
    }

    /// The per-element formula `im2col` used to be: every patch element
    /// computed from its `(row, col)` index. The oracle for the row-copy
    /// lowering, compared with `==`.
    fn im2col_by_element(input: &Tensor<f32>, geom: &ConvGeom) -> Matrix<f32> {
        let (h, w) = (input.height(), input.width());
        let (oh, ow) = geom.out_dims(h, w);
        let rows = input.channels() * geom.kh * geom.kw;
        Matrix::from_fn(rows, oh * ow, |r, col| {
            let c = r / (geom.kh * geom.kw);
            let dy = (r / geom.kw) % geom.kh;
            let dx = r % geom.kw;
            let oy = col / ow;
            let ox = col % ow;
            let iy = (oy * geom.stride + dy) as isize - geom.pad as isize;
            let ix = (ox * geom.stride + dx) as isize - geom.pad as isize;
            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                0.0
            } else {
                input.get(c, iy as usize, ix as usize)
            }
        })
    }

    #[test]
    fn row_copy_im2col_equals_per_element_formula() {
        // Distinct non-zero values, so a misplaced copy or a missing zero
        // cannot match by accident.
        let mut cases = 0;
        for (h, w) in [(7, 5), (4, 9), (6, 6), (1, 8)] {
            let input =
                Tensor::<f32>::from_fn(2, h, w, |c, y, x| (100 * c + 10 * y + x) as f32 + 0.5);
            for k in [1usize, 3, 5] {
                for stride in 1..=3 {
                    for pad in 0..=k {
                        let geom = ConvGeom::square(k, stride, pad);
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let want = im2col_by_element(&input, &geom);
                        let got = im2col(&input, &geom);
                        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                        assert!(
                            got.as_slice() == want.as_slice(),
                            "{h}x{w} input, k={k} stride={stride} pad={pad}"
                        );
                        // A reused buffer full of NaN: every element,
                        // the padding included, is rewritten.
                        let mut dirty = vec![f32::NAN; want.as_slice().len()];
                        im2col_into(&input, &geom, &mut dirty);
                        assert!(
                            dirty.as_slice() == want.as_slice(),
                            "dirty buffer: {h}x{w} input, k={k} stride={stride} pad={pad}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 100, "only {cases} geometries exercised");
    }

    #[test]
    fn non_square_kernel_matches_per_element_formula() {
        let input =
            Tensor::<f32>::from_fn(3, 6, 11, |c, y, x| (c * 66 + y * 11 + x) as f32 - 40.0);
        for (kh, kw, stride, pad) in [(1, 3, 1, 1), (3, 1, 2, 0), (2, 5, 3, 2)] {
            let geom = ConvGeom { kh, kw, stride, pad };
            let want = im2col_by_element(&input, &geom);
            let mut dirty = vec![f32::NAN; want.as_slice().len()];
            im2col_into(&input, &geom, &mut dirty);
            assert!(dirty.as_slice() == want.as_slice(), "{kh}x{kw} stride={stride} pad={pad}");
        }
    }

    #[test]
    #[should_panic(expected = "im2col destination")]
    fn im2col_into_rejects_wrong_length() {
        let input = Tensor::<f32>::zeros(1, 4, 4);
        let mut dst = vec![0.0f32; 15];
        im2col_into(&input, &ConvGeom::same(3), &mut dst);
    }

    #[test]
    fn out_dims_follow_formula() {
        assert_eq!(ConvGeom::same(3).out_dims(8, 8), (8, 8));
        assert_eq!(ConvGeom::square(3, 1, 0).out_dims(8, 8), (6, 6));
        assert_eq!(ConvGeom::square(2, 2, 0).out_dims(8, 8), (4, 4));
        assert_eq!(ConvGeom::square(3, 2, 1).out_dims(7, 7), (4, 4));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel, identity weights: conv == input.
        let input = Tensor::<f32>::from_fn(3, 4, 4, |c, y, x| (c * 16 + y * 4 + x) as f32);
        let weights = init::eye::<f32>(3, 3);
        let geom = ConvGeom::square(1, 1, 0);
        let out = gemm_conv(&input, &weights, &geom);
        for c in 0..3 {
            for y in 0..4 {
                for x in 0..4 {
                    assert_eq!(out.get(c, y, x), input.get(c, y, x));
                }
            }
        }
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        let input = Tensor::<f32>::from_fn(3, 9, 7, |c, y, x| ((c + 2 * y + 3 * x) % 5) as f32 - 2.0);
        let geom = ConvGeom::same(3);
        let weights = init::random::<f32>(8, 3 * 9, 42);
        let fast = gemm_conv(&input, &weights, &geom);
        let slow = direct_conv(&input, &weights, &geom);
        cake_matrix::compare::assert_gemm_eq(fast.as_matrix(), slow.as_matrix(), 27);
    }

    #[test]
    fn strided_and_padded_variants_match() {
        let input = Tensor::<f32>::from_fn(2, 8, 8, |c, y, x| ((c * y) as f32 - x as f32) * 0.1);
        for geom in [
            ConvGeom::square(3, 2, 1),
            ConvGeom::square(5, 1, 2),
            ConvGeom::square(2, 2, 0),
            ConvGeom::square(1, 3, 0),
        ] {
            let weights = init::random::<f32>(4, 2 * geom.kh * geom.kw, 7);
            let fast = gemm_conv(&input, &weights, &geom);
            let slow = direct_conv(&input, &weights, &geom);
            cake_matrix::compare::assert_gemm_eq(
                fast.as_matrix(),
                slow.as_matrix(),
                2 * geom.kh * geom.kw,
            );
        }
    }

    #[test]
    fn padding_region_is_zero() {
        // All-ones input and all-ones 3x3 kernel: corner outputs see only
        // 4 of 9 taps.
        let input = Tensor::<f32>::from_fn(1, 4, 4, |_, _, _| 1.0);
        let weights = init::ones::<f32>(1, 9);
        let out = gemm_conv(&input, &weights, &ConvGeom::same(3));
        assert_eq!(out.get(0, 0, 0), 4.0);
        assert_eq!(out.get(0, 0, 1), 6.0);
        assert_eq!(out.get(0, 1, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "larger than padded")]
    fn oversized_kernel_rejected() {
        let _ = ConvGeom::square(9, 1, 0).out_dims(4, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn conv_equivalence_random(
            cin in 1usize..4,
            cout in 1usize..5,
            h in 3usize..9,
            w in 3usize..9,
            k in prop::sample::select(vec![1usize, 3]),
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            let geom = ConvGeom::square(k, stride, k / 2);
            let input = Tensor::from_matrix(init::random::<f32>(cin, h * w, seed), h, w);
            let weights = init::random::<f32>(cout, cin * k * k, seed + 1);
            let fast = gemm_conv(&input, &weights, &geom);
            let slow = direct_conv(&input, &weights, &geom);
            let tol = cake_matrix::compare::gemm_tolerance::<f32>(cin * k * k);
            prop_assert!(cake_matrix::approx_eq(fast.as_matrix(), slow.as_matrix(), tol));
        }
    }
}
