//! `dnn_forward`: the VGG-style network of `examples/dnn_inference.rs`
//! (five 3x3 conv layers and one linear layer) on a seeded 3x64x64 input,
//! its f64 reference forward pass, and the traced per-layer pass.

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::ExecStats;
use cake_dnn::im2col::{im2col, ConvGeom};
use cake_dnn::{Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2d, ReLU, Sequential, Tensor};
use cake_matrix::compare::gemm_tolerance;
use cake_matrix::{init, Matrix};

use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;

pub const IN_CH: usize = 3;
pub const IN_HW: usize = 64;

/// Layer labels in network order; the per-layer metrics are named by them.
pub const LABELS: [&str; 14] = [
    "conv1a", "relu1a", "conv1b", "relu1b", "pool1", "conv2a", "relu2a", "conv2b", "relu2b",
    "pool2", "conv3", "relu3", "gap", "fc",
];

const CONVS: [(&str, usize, usize); 5] = [
    ("conv1a", 3, 32),
    ("conv1b", 32, 32),
    ("conv2a", 32, 64),
    ("conv2b", 64, 64),
    ("conv3", 64, 128),
];

#[derive(Clone)]
pub struct ConvParams {
    pub label: &'static str,
    pub in_ch: usize,
    pub out_ch: usize,
    pub w: Matrix<f32>,
    pub bias: Vec<f32>,
}

/// Seeded weights and input: everything the network is built from.
#[derive(Clone)]
pub struct NetParams {
    pub convs: Vec<ConvParams>,
    pub fc_w: Matrix<f32>,
    pub fc_b: Vec<f32>,
    pub input: Tensor,
}

fn bias(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.below(2001) as f32 - 1000.0) * 1e-4)
        .collect()
}

pub fn params(seed: u64) -> NetParams {
    let mut rng = Rng::new(seed ^ 0x444E_4E00_0000_0000);
    let convs = CONVS
        .iter()
        .map(|&(label, in_ch, out_ch)| {
            // He initialisation, as `Conv2d::random` does.
            let fan_in = in_ch * 9;
            let scale = (2.0 / fan_in as f64).sqrt() as f32;
            let w = init::random::<f32>(out_ch, fan_in, rng.next_u64());
            let w = Matrix::from_fn(out_ch, fan_in, |i, j| w.get(i, j) * scale);
            ConvParams {
                label,
                in_ch,
                out_ch,
                w,
                bias: bias(&mut rng, out_ch),
            }
        })
        .collect();
    let fc_w = init::random::<f32>(10, 128, rng.next_u64());
    let fc_b = bias(&mut rng, 10);
    let input = Tensor::from_matrix(
        init::random::<f32>(IN_CH, IN_HW * IN_HW, rng.next_u64()),
        IN_HW,
        IN_HW,
    );
    NetParams {
        convs,
        fc_w,
        fc_b,
        input,
    }
}

/// Layers in network order, each with its label.
pub type Layers = Vec<(&'static str, Box<dyn Layer>)>;

/// The network's layers, built from its parameters.
pub fn layers(p: NetParams) -> Layers {
    let mut convs = p.convs.into_iter().map(|c| {
        let label = c.label;
        let layer = Conv2d::new(label, c.in_ch, c.out_ch, ConvGeom::same(3), c.w, c.bias);
        (label, Box::new(layer) as Box<dyn Layer>)
    });
    let mut conv = || convs.next().expect("five conv layers");
    vec![
        conv(),
        ("relu1a", Box::new(ReLU)),
        conv(),
        ("relu1b", Box::new(ReLU)),
        ("pool1", Box::new(MaxPool2d)),
        conv(),
        ("relu2a", Box::new(ReLU)),
        conv(),
        ("relu2b", Box::new(ReLU)),
        ("pool2", Box::new(MaxPool2d)),
        conv(),
        ("relu3", Box::new(ReLU)),
        ("gap", Box::new(GlobalAvgPool)),
        ("fc", Box::new(Linear::new("fc", p.fc_w, p.fc_b))),
    ]
}

/// The network as a user builds it: one `Sequential` over one context.
pub fn sequential(p: NetParams, cfg: CakeConfig) -> Sequential {
    layers(p)
        .into_iter()
        .fold(Sequential::new(cfg), |net, (_, l)| net.push(BoxedLayer(l)))
}

/// `Sequential::push` takes a concrete layer; this forwards to a boxed one.
struct BoxedLayer(Box<dyn Layer>);

impl Layer for BoxedLayer {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn out_shape(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        self.0.out_shape(c, h, w)
    }
    fn forward(&self, ctx: &CakeGemm, input: &Tensor) -> Tensor {
        self.0.forward(ctx, input)
    }
    fn flops(&self, c: usize, h: usize, w: usize) -> u64 {
        self.0.flops(c, h, w)
    }
}

/// The GEMMs one forward pass issues, as `(label, M, K, N)`.
pub fn gemm_shapes() -> Vec<(&'static str, usize, usize, usize)> {
    let mut hw = IN_HW;
    let mut out = Vec::new();
    for &(label, in_ch, out_ch) in &CONVS {
        out.push((label, out_ch, in_ch * 9, hw * hw));
        if label.ends_with('b') {
            hw /= 2;
        }
    }
    out.push(("fc", 10, 128, 1));
    out
}

/// Channel-major `c x h x w` feature map in f64.
struct Map {
    c: usize,
    h: usize,
    w: usize,
    v: Vec<f64>,
}

impl Map {
    fn at(&self, c: usize, y: isize, x: isize) -> f64 {
        if y < 0 || x < 0 || y as usize >= self.h || x as usize >= self.w {
            0.0
        } else {
            self.v[(c * self.h + y as usize) * self.w + x as usize]
        }
    }
}

fn ref_conv(x: &Map, cp: &ConvParams) -> Map {
    let (h, w) = (x.h, x.w);
    let mut v = vec![0.0; cp.out_ch * h * w];
    for co in 0..cp.out_ch {
        for y in 0..h {
            for xx in 0..w {
                let mut s = f64::from(cp.bias[co]);
                for ci in 0..cp.in_ch {
                    for dy in 0..3 {
                        for dx in 0..3 {
                            let wt = f64::from(cp.w.get(co, ci * 9 + dy * 3 + dx));
                            s += wt * x.at(ci, (y + dy) as isize - 1, (xx + dx) as isize - 1);
                        }
                    }
                }
                v[(co * h + y) * w + xx] = s;
            }
        }
    }
    Map {
        c: cp.out_ch,
        h,
        w,
        v,
    }
}

fn ref_relu(mut x: Map) -> Map {
    x.v.iter_mut().for_each(|v| *v = v.max(0.0));
    x
}

fn ref_pool(x: &Map) -> Map {
    let (h, w) = (x.h / 2, x.w / 2);
    let mut v = Vec::with_capacity(x.c * h * w);
    for c in 0..x.c {
        for y in 0..h {
            for xx in 0..w {
                let at = |dy: usize, dx: usize| x.v[(c * x.h + 2 * y + dy) * x.w + 2 * xx + dx];
                v.push(at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)));
            }
        }
    }
    Map { c: x.c, h, w, v }
}

/// The forward pass in f64 straight from the weights: direct convolution,
/// no im2col and no GEMM library. Returns the ten logits.
pub fn reference_logits(p: &NetParams) -> Vec<f64> {
    let t = &p.input;
    let mut x = Map {
        c: t.channels(),
        h: t.height(),
        w: t.width(),
        v: t.as_matrix()
            .as_slice()
            .iter()
            .map(|&v| f64::from(v))
            .collect(),
    };
    for cp in &p.convs {
        x = ref_relu(ref_conv(&x, cp));
        if cp.label.ends_with('b') {
            x = ref_pool(&x);
        }
    }
    let area = (x.h * x.w) as f64;
    let feat: Vec<f64> =
        x.v.chunks(x.h * x.w)
            .map(|ch| ch.iter().sum::<f64>() / area)
            .collect();
    (0..p.fc_w.rows())
        .map(|o| {
            f64::from(p.fc_b[o])
                + (0..feat.len())
                    .map(|i| f64::from(p.fc_w.get(o, i)) * feat[i])
                    .sum::<f64>()
        })
        .collect()
}

/// Logits against the reference. The bound is relative to the logits'
/// magnitude: float error compounds over six layers, a corrupted value
/// does not hide under it.
pub fn check_logits(got: &Tensor, want: &[f64]) -> Result<(), String> {
    let got: Vec<f64> = got
        .as_matrix()
        .as_slice()
        .iter()
        .map(|&v| f64::from(v))
        .collect();
    if got.len() != want.len() {
        return Err(format!("{} logits, expected {}", got.len(), want.len()));
    }
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let tol = 1e-3 * scale;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > tol || g.is_nan() {
            return Err(format!(
                "logit {i} = {g}, reference {w} (tolerance {tol:.3e})"
            ));
        }
    }
    Ok(())
}

/// What one traced forward pass measured. The per-layer vectors are in
/// network order; `im2col_ms` and `gemm_ms` are 0 for layers without one.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// `Layer::forward` wall time in ms.
    pub layer_ms: Vec<f64>,
    /// The replay's `im2col` time in ms.
    pub im2col_ms: Vec<f64>,
    /// The replay's `CakeGemm::gemm_with_stats` time in ms.
    pub gemm_ms: Vec<f64>,
    /// Wall time of the forward pass alone (the request), in ms.
    pub forward_ms: f64,
    /// One record per GEMM: the forward pass's call, then the replay's
    /// call with its wall time in ns.
    pub forward_stats: Vec<(&'static str, ExecStats)>,
    pub replay_stats: Vec<(&'static str, ExecStats, u64)>,
}

/// Where the forward pass spends its time, from the median of each
/// layer's figures over many passes (medians keep a noisy pass from
/// making a difference negative).
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    pub im2col_ms: f64,
    pub gemm_ms: f64,
    /// Conv layers' `Layer::forward` time outside im2col and GEMM (output
    /// allocation, bias loop, output wrap): per conv layer, median layer
    /// time minus median im2col and median GEMM time.
    pub conv_other_ms: f64,
    /// ReLU, max-pool and global average pool.
    pub elementwise_ms: f64,
    /// GEMM time over the sum of the layers' times.
    pub gemm_frac: f64,
    /// Median `Layer::forward` time per layer, in network order.
    pub layer_ms: Vec<f64>,
}

pub fn split(passes: &[PassTimes]) -> Split {
    let per_layer = |f: &dyn Fn(&PassTimes) -> &[f64]| -> Vec<f64> {
        (0..LABELS.len())
            .map(|i| median(&passes.iter().map(|p| f(p)[i]).collect::<Vec<_>>()))
            .collect()
    };
    let layer_ms = per_layer(&|p| &p.layer_ms);
    let im2col = per_layer(&|p| &p.im2col_ms);
    let gemm = per_layer(&|p| &p.gemm_ms);
    let (mut conv_other_ms, mut elementwise_ms) = (0.0, 0.0);
    for (i, label) in LABELS.iter().enumerate() {
        if label.starts_with("conv") {
            conv_other_ms += layer_ms[i] - im2col[i] - gemm[i];
        } else if *label != "fc" {
            elementwise_ms += layer_ms[i];
        }
    }
    let gemm_ms: f64 = gemm.iter().sum();
    Split {
        im2col_ms: im2col.iter().sum(),
        gemm_ms,
        conv_other_ms,
        elementwise_ms,
        gemm_frac: gemm_ms / layer_ms.iter().sum::<f64>(),
        layer_ms,
    }
}

/// One forward pass through `Layer::forward` with a span per layer, then
/// a replay of each GEMM layer through its public parts on the same
/// inputs, as `Conv2d::forward` / `Linear::forward` run them: `im2col` (or
/// flatten), `CakeGemm::gemm_with_stats`, bias loop, output wrap. The
/// replay runs outside the request span, gives the im2col and GEMM
/// times, and must reproduce the layer's output.
pub fn traced_pass(
    layers: &[(&'static str, Box<dyn Layer>)],
    p: &NetParams,
    ctx: &CakeGemm,
    tr: &mut Tracer,
    req: u64,
) -> Result<(Tensor, PassTimes), String> {
    let mut times = PassTimes {
        im2col_ms: vec![0.0; layers.len()],
        gemm_ms: vec![0.0; layers.len()],
        ..PassTimes::default()
    };
    let mut inputs = Vec::with_capacity(layers.len());
    let root = tr.begin("request[dnn_forward]", req);
    let mut x = p.input.clone();
    for (label, layer) in layers {
        let _ = ctx.take_stats();
        let s = tr.begin(format!("cake-dnn::Layer::forward[{label}]"), req);
        let y = layer.forward(ctx, &x);
        tr.end(s);
        let st = ctx.take_stats();
        if !st.kernel.is_empty() {
            times.forward_stats.push((label, st));
        }
        times.layer_ms.push(tr.spans()[s].ns() as f64 / 1e6);
        inputs.push(std::mem::replace(&mut x, y));
    }
    tr.end(root);
    times.forward_ms = tr.spans()[root].ns() as f64 / 1e6;

    let replay = tr.begin("replay[dnn_forward]", req);
    let mut convs = p.convs.iter();
    for (li, (label, _)) in layers.iter().enumerate() {
        let is_conv = label.starts_with("conv");
        if !(is_conv || *label == "fc") {
            continue;
        }
        let layer_span = tr.begin(format!("replay[{label}]"), req);
        let (w, bias, patches) = if is_conv {
            let cp = convs.next().expect("conv params in layer order");
            let s = tr.begin(format!("cake-dnn::im2col[{label}]"), req);
            let patches = im2col(&inputs[li], &ConvGeom::same(3));
            tr.end(s);
            times.im2col_ms[li] = tr.spans()[s].ns() as f64 / 1e6;
            (&cp.w, &cp.bias, patches)
        } else {
            (&p.fc_w, &p.fc_b, inputs[li].flatten())
        };
        let mut y = Matrix::<f32>::zeros(w.rows(), patches.cols());
        let s = tr.begin(
            format!("cake-core::CakeGemm::gemm_with_stats[{label}]"),
            req,
        );
        let st = ctx.gemm_with_stats(w, &patches, &mut y);
        tr.end(s);
        let gemm_ns = tr.spans()[s].ns();
        times.replay_stats.push((label, st, gemm_ns));
        times.gemm_ms[li] = gemm_ns as f64 / 1e6;
        for (i, b) in bias.iter().enumerate() {
            for j in 0..y.cols() {
                y.set(i, j, y.get(i, j) + b);
            }
        }
        // A 3x3 same-padded conv keeps the map's extent; the linear layer
        // outputs a c x 1 x 1 map.
        let (h, wd) = if is_conv {
            (inputs[li].height(), inputs[li].width())
        } else {
            (1, 1)
        };
        let y = Tensor::from_matrix(y, h, wd);
        tr.end(layer_span);
        let out = if li + 1 < inputs.len() {
            &inputs[li + 1]
        } else {
            &x
        };
        if !cake_matrix::approx_eq(
            y.as_matrix(),
            out.as_matrix(),
            gemm_tolerance::<f32>(w.cols()),
        ) {
            return Err(format!(
                "{label}: im2col + GEMM replay differs from Layer::forward"
            ));
        }
    }
    tr.end(replay);
    Ok((x, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_network_other_seed_different() {
        let (a, b, c) = (params(4), params(4), params(5));
        assert_eq!(
            a.input.as_matrix().as_slice(),
            b.input.as_matrix().as_slice()
        );
        assert_eq!(a.convs[2].w.as_slice(), b.convs[2].w.as_slice());
        assert_ne!(
            a.input.as_matrix().as_slice(),
            c.input.as_matrix().as_slice()
        );
        assert_ne!(a.convs[2].w.as_slice(), c.convs[2].w.as_slice());
    }

    #[test]
    fn network_matches_reference_and_labels() {
        let p = params(1);
        let net = sequential(p.clone(), CakeConfig::with_threads(1));
        assert_eq!(net.len(), LABELS.len());
        let want = reference_logits(&p);
        let (got, reports) = net.forward(&p.input);
        check_logits(&got, &want).unwrap();
        assert_eq!(
            reports.iter().filter(|r| r.gemm.blocks > 0).count(),
            gemm_shapes().len()
        );

        let mut bad = got.clone();
        bad.set(3, 0, 0, bad.get(3, 0, 0) + 0.5);
        assert!(check_logits(&bad, &want).is_err());
    }

    #[test]
    fn traced_pass_replays_every_gemm_layer() {
        let p = params(2);
        let ls = layers(p.clone());
        assert!(ls.iter().map(|(l, _)| *l).eq(LABELS));
        let ctx = CakeGemm::new(CakeConfig::with_threads(1));
        let mut tr = Tracer::new();
        let (out, times) = traced_pass(&ls, &p, &ctx, &mut tr, 0).unwrap();
        check_logits(&out, &reference_logits(&p)).unwrap();
        assert_eq!(times.layer_ms.len(), LABELS.len());
        assert_eq!(times.replay_stats.len(), gemm_shapes().len());
        assert_eq!(times.forward_stats.len(), gemm_shapes().len());
        let gemm_layers = times.gemm_ms.iter().filter(|&&ms| ms > 0.0).count();
        assert_eq!(gemm_layers, gemm_shapes().len());
    }

    #[test]
    fn split_takes_per_layer_medians() {
        let n = LABELS.len();
        let pass = |scale: f64| {
            let mut t = PassTimes {
                layer_ms: vec![scale; n],
                im2col_ms: vec![0.0; n],
                gemm_ms: vec![0.0; n],
                ..PassTimes::default()
            };
            for (i, label) in LABELS.iter().enumerate() {
                if label.starts_with("conv") {
                    t.layer_ms[i] = 10.0 * scale;
                    t.im2col_ms[i] = 5.0 * scale;
                    t.gemm_ms[i] = 4.0 * scale;
                } else if *label == "fc" {
                    t.gemm_ms[i] = 0.5 * scale;
                }
            }
            t
        };
        // The outlier pass (x100) moves no median.
        let s = split(&[pass(1.0), pass(1.0), pass(100.0)]);
        assert_eq!(s.im2col_ms, 25.0);
        assert_eq!(s.gemm_ms, 20.5);
        assert_eq!(s.conv_other_ms, 5.0);
        // Eight elementwise layers at 1 ms each; fc's layer time is 1 ms.
        assert_eq!(s.elementwise_ms, 8.0);
        assert_eq!(s.gemm_frac, 20.5 / 59.0);
        assert_eq!(s.layer_ms.len(), n);
    }
}
