//! Network layers, all GEMMs routed through a shared CAKE context.
//!
//! Because every [`Conv2d`] and [`Linear`] GEMM goes through the same
//! [`CakeGemm`] context, they share its persistent [`GemmWorkspace`]
//! (packed-A strips, the B panel ring, and the staging buffer the layers
//! write their `B` operand into — im2col patches or flattened features):
//! after the first forward pass has sized the workspace for the largest
//! layer, subsequent passes run the pipelined executor with **zero** heap
//! allocations inside the GEMM — see `LayerReport::gemm` for the
//! per-layer evidence.
//!
//! Both GEMM layers start `C` as the bias broadcast over each output row,
//! so the GEMM's `C += A * B` adds the bias for free.
//!
//! Every built-in layer takes its output from
//! [`CakeGemm::scratch_matrix`] and writes all of it: a spent matrix of
//! the same extents when [`Sequential`](crate::Sequential) has recycled
//! one, so a warm forward pass neither allocates nor frees an activation
//! buffer, and takes no page faults for one.
//!
//! [`GemmWorkspace`]: cake_core::workspace::GemmWorkspace

use cake_core::api::CakeGemm;
use cake_matrix::Matrix;

use crate::im2col::{im2col_into, ConvGeom};
use crate::tensor::Tensor;

/// A forward-pass layer over f32 feature maps.
pub trait Layer {
    /// Layer name for reporting.
    fn name(&self) -> &str;

    /// Output shape `(c, h, w)` for an input shape.
    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize);

    /// Forward pass; `ctx` provides the GEMM engine.
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor;

    /// FLOPs for an input shape (0 for elementwise layers by convention).
    fn flops(&self, c: usize, h: usize, w: usize) -> u64;
}

/// 2D convolution via im2col + CAKE GEMM.
pub struct Conv2d {
    name: String,
    weights: Matrix<f32>,
    bias: Vec<f32>,
    geom: ConvGeom,
    in_ch: usize,
    out_ch: usize,
}

impl Conv2d {
    /// Build a conv layer; `weights` is `out_ch x (in_ch*kh*kw)`.
    ///
    /// # Panics
    /// Panics if the weight shape does not match the geometry.
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        weights: Matrix<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(weights.rows(), out_ch, "weight rows must equal out_ch");
        assert_eq!(
            weights.cols(),
            in_ch * geom.kh * geom.kw,
            "weight cols must equal in_ch*kh*kw"
        );
        assert!(bias.is_empty() || bias.len() == out_ch, "bias length mismatch");
        Self {
            name: name.into(),
            weights,
            bias,
            geom,
            in_ch,
            out_ch,
        }
    }

    /// Random-weight conv layer (for benchmarks and examples).
    pub fn random(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        seed: u64,
    ) -> Self {
        let fan_in = (in_ch * geom.kh * geom.kw) as f64;
        let scale = (2.0 / fan_in).sqrt(); // He initialization
        let w = cake_matrix::init::random::<f32>(out_ch, in_ch * geom.kh * geom.kw, seed);
        let w = Matrix::from_fn(w.rows(), w.cols(), |i, j| w.get(i, j) * scale as f32);
        Self::new(name, in_ch, out_ch, geom, w, vec![0.0; out_ch])
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        assert_eq!(c, self.in_ch, "{}: channel mismatch", self.name);
        let (oh, ow) = self.geom.out_dims(h, w);
        (self.out_ch, oh, ow)
    }

    // audit: warm
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        assert_eq!(input.channels(), self.in_ch, "{}: channel mismatch", self.name);
        let (oh, ow) = self.geom.out_dims(input.height(), input.width());
        let mut y = bias_init(ctx, self.out_ch, oh * ow, &self.bias);
        ctx.gemm_staged(
            &self.weights,
            self.weights.cols(),
            oh * ow,
            |patches| im2col_into(input, &self.geom, patches),
            &mut y,
        );
        Tensor::from_matrix(y, oh, ow)
    }

    fn flops(&self, _c: usize, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.geom.out_dims(h, w);
        2 * (self.out_ch * self.in_ch * self.geom.kh * self.geom.kw * oh * ow) as u64
    }
}

/// A GEMM layer's output accumulator: `rows x cols`, each row `i` set to
/// `bias[i]` (all zero for an empty bias), so the GEMM's `C += A * B`
/// leaves `A * B + bias`. `bias` is empty or `rows` long.
fn bias_init(ctx: &CakeGemm, rows: usize, cols: usize, bias: &[f32]) -> Matrix<f32> {
    let mut y = ctx.scratch_matrix(rows, cols);
    if bias.is_empty() {
        y.as_mut_slice().fill(0.0);
    } else if cols > 0 {
        for (row, &b) in y.as_mut_slice().chunks_exact_mut(cols).zip(bias) {
            row.fill(b);
        }
    }
    y
}

/// Elementwise rectified linear unit.
pub struct ReLU;

impl Layer for ReLU {
    fn name(&self) -> &str {
        "relu"
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        (c, h, w)
    }

    /// `v < 0.0` selects the zero, so NaN and `-0.0` pass through as they
    /// are (a `v.max(0.0)` would flush NaN to 0).
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        let src = input.as_matrix();
        let mut out = ctx.scratch_matrix(src.rows(), src.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(src.as_slice()) {
            *o = if v < 0.0 { 0.0 } else { v };
        }
        Tensor::from_matrix(out, input.height(), input.width())
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        0
    }
}

/// 2x2 max pooling with stride 2 (floor semantics).
pub struct MaxPool2d;

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool2"
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        (c, h / 2, w / 2)
    }

    /// Each window folds `NEG_INFINITY` with `f32::max` over its taps in
    /// row order — `(0,0), (0,1), (1,0), (1,1)` — reading two input row
    /// slices per output row. An odd trailing row or column is dropped.
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        let (c, h, w) = (input.channels(), input.height(), input.width());
        let (oh, ow) = (h / 2, w / 2);
        let mut out = ctx.scratch_matrix(c, oh * ow);
        if oh * ow == 0 {
            return Tensor::from_matrix(out, oh, ow);
        }
        let src = input.as_matrix().as_slice();
        for (ch, plane) in out.as_mut_slice().chunks_exact_mut(oh * ow).enumerate() {
            for (y, orow) in plane.chunks_exact_mut(ow).enumerate() {
                let top = &src[(ch * h + 2 * y) * w..][..2 * ow];
                let bot = &src[(ch * h + 2 * y + 1) * w..][..2 * ow];
                let windows = top.chunks_exact(2).zip(bot.chunks_exact(2));
                for (o, (t, b)) in orow.iter_mut().zip(windows) {
                    *o = f32::NEG_INFINITY.max(t[0]).max(t[1]).max(b[0]).max(b[1]);
                }
            }
        }
        Tensor::from_matrix(out, oh, ow)
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        0
    }
}

/// Global average pooling: `c x h x w -> c x 1 x 1`.
pub struct GlobalAvgPool;

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        "gap"
    }

    fn out_shape(&self, c: usize, _h: usize, _w: usize) -> (usize, usize, usize) {
        (c, 1, 1)
    }

    /// Each channel's mean, summed in f64 in row order from `0.0`.
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        let hw = input.height() * input.width();
        let src = input.as_matrix().as_slice();
        let mut out = ctx.scratch_matrix(input.channels(), 1);
        for (ch, o) in out.as_mut_slice().iter_mut().enumerate() {
            let s = src[ch * hw..][..hw].iter().fold(0.0f64, |s, &v| s + f64::from(v));
            *o = (s / hw as f64) as f32;
        }
        Tensor::from_matrix(out, 1, 1)
    }

    fn flops(&self, c: usize, h: usize, w: usize) -> u64 {
        (c * h * w) as u64
    }
}

/// Fully connected layer on flattened features (expects `c x 1 x 1` input
/// or flattens larger maps channel-major).
pub struct Linear {
    name: String,
    weights: Matrix<f32>,
    bias: Vec<f32>,
}

impl Linear {
    /// `weights` is `out_features x in_features`.
    pub fn new(name: impl Into<String>, weights: Matrix<f32>, bias: Vec<f32>) -> Self {
        assert!(bias.is_empty() || bias.len() == weights.rows(), "bias length mismatch");
        Self {
            name: name.into(),
            weights,
            bias,
        }
    }

    /// Random-weight linear layer.
    pub fn random(name: impl Into<String>, in_features: usize, out_features: usize, seed: u64) -> Self {
        let w = cake_matrix::init::random::<f32>(out_features, in_features, seed);
        Self::new(name, w, vec![0.0; out_features])
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        assert_eq!(c * h * w, self.weights.cols(), "{}: feature count mismatch", self.name);
        (self.weights.rows(), 1, 1)
    }

    // audit: warm
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        // The channel-major `c x (h*w)` storage is already the flattened
        // feature column.
        let x = input.as_matrix().as_slice();
        assert_eq!(x.len(), self.weights.cols(), "{}: feature count mismatch", self.name);
        let mut y = bias_init(ctx, self.weights.rows(), 1, &self.bias);
        ctx.gemm_staged(&self.weights, x.len(), 1, |col| col.copy_from_slice(x), &mut y);
        Tensor::from_matrix(y, 1, 1)
    }

    fn flops(&self, _c: usize, _h: usize, _w: usize) -> u64 {
        2 * (self.weights.rows() * self.weights.cols()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cake_core::api::CakeConfig;
    use cake_matrix::init;

    fn ctx() -> CakeGemm {
        CakeGemm::new(CakeConfig::with_threads(1))
    }

    #[test]
    fn conv_forward_matches_direct() {
        let layer = Conv2d::random("c", 3, 6, ConvGeom::same(3), 1);
        let input = Tensor::from_matrix(init::random::<f32>(3, 8 * 8, 2), 8, 8);
        let out = layer.forward(&ctx(), &input);
        let direct = crate::im2col::direct_conv(&input, &layer.weights, &layer.geom);
        cake_matrix::compare::assert_gemm_eq(out.as_matrix(), direct.as_matrix(), 27);
        assert_eq!(layer.out_shape(3, 8, 8), (6, 8, 8));
    }

    #[test]
    fn conv_bias_adds_per_channel() {
        let geom = ConvGeom::square(1, 1, 0);
        let weights = init::eye::<f32>(2, 2);
        let layer = Conv2d::new("b", 2, 2, geom, weights, vec![10.0, 20.0]);
        let input = Tensor::from_fn(2, 2, 2, |c, _, _| c as f32);
        let out = layer.forward(&ctx(), &input);
        assert_eq!(out.get(0, 0, 0), 10.0);
        assert_eq!(out.get(1, 1, 1), 21.0);
    }

    /// `direct_conv` plus a per-channel bias: the reference for a biased
    /// conv layer.
    fn direct_conv_bias(input: &Tensor, layer: &Conv2d) -> Matrix<f32> {
        let y = crate::im2col::direct_conv(input, &layer.weights, &layer.geom).into_matrix();
        let n = y.cols();
        Matrix::from_fn(y.rows(), n, |co, i| {
            y.get(co, i) + layer.bias.get(co).copied().unwrap_or(0.0)
        })
    }

    #[test]
    fn conv_bias_matches_direct_conv_plus_bias() {
        for (geom, bias) in [
            (ConvGeom::same(3), (0..5).map(|c| c as f32 * 0.75 - 1.5).collect()),
            (ConvGeom::square(3, 2, 1), vec![-2.0, 0.5, 3.0, 0.0, 1.25]),
            (ConvGeom::same(3), Vec::new()),
        ] {
            let w = init::random::<f32>(5, 3 * geom.kh * geom.kw, 3);
            let layer = Conv2d::new("b", 3, 5, geom, w, bias);
            let input = Tensor::from_matrix(init::random::<f32>(3, 9 * 7, 4), 9, 7);
            let out = layer.forward(&ctx(), &input);
            let want = direct_conv_bias(&input, &layer);
            let tol = cake_matrix::compare::gemm_tolerance::<f32>(layer.weights.cols());
            assert!(
                cake_matrix::approx_eq(out.as_matrix(), &want, tol),
                "{geom:?}, bias {:?}",
                layer.bias
            );
        }
    }

    #[test]
    fn staging_reuse_across_shapes_matches_fresh_contexts() {
        // One context through large -> small -> large conv shapes: the
        // staging buffer is reused dirty, grown once, never re-zeroed.
        let shared = ctx();
        let cases = [
            (Conv2d::random("big", 4, 8, ConvGeom::same(3), 1), 4, 20, 18),
            (Conv2d::random("small", 2, 3, ConvGeom::square(5, 2, 2), 2), 2, 7, 5),
            (Conv2d::random("one", 6, 4, ConvGeom::square(1, 1, 0), 3), 6, 3, 3),
            (Conv2d::random("big2", 4, 8, ConvGeom::square(3, 1, 0), 4), 4, 21, 17),
        ];
        for (seed, (layer, c, h, w)) in cases.iter().enumerate() {
            let x = init::random::<f32>(*c, h * w, 10 + seed as u64);
            let input = Tensor::from_matrix(x, *h, *w);
            let reused = layer.forward(&shared, &input);
            let fresh = layer.forward(&ctx(), &input);
            assert!(
                reused.as_matrix().as_slice() == fresh.as_matrix().as_slice(),
                "{} differs after staging reuse",
                layer.name
            );
        }
    }

    #[test]
    fn relu_keeps_nan_and_negative_zero() {
        let vals = [f32::NAN, -0.0, 0.0, -1.5, 2.5, f32::NEG_INFINITY, f32::INFINITY, -f32::NAN];
        let input = Tensor::from_fn(1, 1, vals.len(), |_, _, x| vals[x]);
        let out = ReLU.forward(&ctx(), &input);
        let want = vals.map(|v| if v < 0.0 { 0.0 } else { v });
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out.as_matrix().as_slice()), bits(&want));
        assert!(out.get(0, 0, 0).is_nan(), "NaN must pass through, not flush to 0");
        assert!(out.get(0, 0, 1).is_sign_negative(), "-0.0 must pass through");
    }

    #[test]
    fn maxpool_bit_identical_to_element_fold() {
        // The fold `MaxPool2d` used to run per output element.
        let fold = |input: &Tensor| {
            let (c, h, w) = (input.channels(), input.height(), input.width());
            Tensor::from_fn(c, h / 2, w / 2, |ch, y, x| {
                let mut m = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        m = m.max(input.get(ch, 2 * y + dy, 2 * x + dx));
                    }
                }
                m
            })
        };
        let odd = Tensor::from_matrix(init::random::<f32>(3, 5 * 7, 5), 5, 7);
        // Every ordered 2x2 window over these values, one window per
        // output column: NaN taps, and `-0.0`/`0.0` ties whose winner
        // depends on the fold order.
        let specials = [f32::NAN, -0.0, 0.0, -1.0, 1.0];
        let n = specials.len();
        let tap = |win: usize, t: usize| specials[win / n.pow(t as u32) % n];
        let all = Tensor::from_fn(1, 2, 2 * n.pow(4), |_, y, x| tap(x / 2, 2 * y + x % 2));
        for input in [odd, all] {
            let got = MaxPool2d.forward(&ctx(), &input);
            let want = fold(&input);
            let bits = |t: &Tensor| {
                t.as_matrix().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!((got.height(), got.width()), (want.height(), want.width()));
            assert_eq!(bits(&got), bits(&want), "{input:?}");
        }
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| if (y + x) % 2 == 0 { -1.0 } else { 2.0 });
        let out = ReLU.forward(&ctx(), &input);
        assert_eq!(out.get(0, 0, 0), 0.0);
        assert_eq!(out.get(0, 0, 1), 2.0);
    }

    #[test]
    fn maxpool_takes_window_max() {
        let input = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let out = MaxPool2d.forward(&ctx(), &input);
        assert_eq!(out.height(), 2);
        assert_eq!(out.get(0, 0, 0), 5.0);
        assert_eq!(out.get(0, 1, 1), 15.0);
    }

    #[test]
    fn gap_averages() {
        let input = Tensor::from_fn(2, 2, 2, |c, y, x| (c * 4 + y * 2 + x) as f32);
        let out = GlobalAvgPool.forward(&ctx(), &input);
        assert_eq!(out.get(0, 0, 0), 1.5);
        assert_eq!(out.get(1, 0, 0), 5.5);
    }

    #[test]
    fn layers_overwrite_a_recycled_output_in_full() {
        // Each built-in layer, on a context holding a NaN-filled spare of
        // its output extents, must match the same layer on a fresh
        // context bit for bit: the dirty buffer is reused and every
        // element rewritten.
        let bits = |t: &Tensor| {
            t.as_matrix().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let input = Tensor::from_matrix(init::random::<f32>(4, 5 * 7, 8), 5, 7);
        let unbiased = init::random::<f32>(2, 4, 2);
        let layers: [Box<dyn Layer>; 6] = [
            Box::new(Conv2d::random("c", 4, 3, ConvGeom::same(3), 1)),
            Box::new(Conv2d::new("nb", 4, 2, ConvGeom::square(1, 1, 0), unbiased, Vec::new())),
            Box::new(ReLU),
            Box::new(MaxPool2d),
            Box::new(GlobalAvgPool),
            Box::new(Linear::random("fc", 4 * 5 * 7, 6, 3)),
        ];
        for layer in &layers {
            let want = layer.forward(&ctx(), &input);
            let dirty = ctx();
            let rows = want.channels();
            let cols = want.height() * want.width();
            dirty.recycle(Matrix::from_fn(rows, cols, |_, _| f32::NAN));
            let got = layer.forward(&dirty, &input);
            assert_eq!(bits(&got), bits(&want), "{}", layer.name());
        }
    }

    #[test]
    fn linear_matches_manual_product() {
        let w = init::sequential::<f32>(2, 3);
        let layer = Linear::new("fc", w, vec![1.0, -1.0]);
        let input = Tensor::from_fn(3, 1, 1, |c, _, _| (c + 1) as f32);
        let out = layer.forward(&ctx(), &input);
        // row0: 0*1+1*2+2*3 = 8 + 1 = 9; row1: 3+8+15 = 26 - 1 = 25.
        assert_eq!(out.get(0, 0, 0), 9.0);
        assert_eq!(out.get(1, 0, 0), 25.0);
    }

    #[test]
    fn flops_formulas() {
        let conv = Conv2d::random("c", 3, 8, ConvGeom::same(3), 1);
        assert_eq!(conv.flops(3, 10, 10), 2 * 8 * 27 * 100);
        let lin = Linear::random("l", 16, 4, 2);
        assert_eq!(lin.flops(16, 1, 1), 2 * 4 * 16);
        assert_eq!(ReLU.flops(8, 8, 8), 0);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channels() {
        let layer = Conv2d::random("c", 3, 4, ConvGeom::same(3), 1);
        let input = Tensor::<f32>::zeros(2, 4, 4);
        let _ = layer.forward(&ctx(), &input);
    }
}
