//! Sequential networks with per-layer accounting.

use std::time::Instant;

use cake_core::api::{CakeConfig, CakeGemm};
use cake_core::executor::ExecStats;

use crate::layers::Layer;
use crate::tensor::Tensor;

/// Per-layer forward-pass record.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Output shape `(c, h, w)`.
    pub out_shape: (usize, usize, usize),
    /// FLOPs performed.
    pub flops: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Stats of the layer's GEMM call (the last one, for layers that issue
    /// several); all-zero for GEMM-free layers like pooling and ReLU. After
    /// the first forward pass `gemm.allocations` is 0 for every layer — the
    /// context's workspace is warm.
    pub gemm: ExecStats,
}

/// A feed-forward stack of layers sharing one CAKE GEMM context.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    ctx: CakeGemm,
}

impl Sequential {
    /// Empty network with a given GEMM configuration.
    pub fn new(cfg: CakeConfig) -> Self {
        Self {
            layers: Vec::new(),
            ctx: CakeGemm::new(cfg),
        }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Propagate an input shape through every layer; validates layer
    /// compatibility without running any arithmetic.
    ///
    /// # Panics
    /// Panics (inside the offending layer) on shape mismatch.
    pub fn shapes(&self, mut c: usize, mut h: usize, mut w: usize) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (nc, nh, nw) = layer.out_shape(c, h, w);
            out.push((nc, nh, nw));
            (c, h, w) = (nc, nh, nw);
        }
        out
    }

    /// Total FLOPs for an input shape.
    pub fn total_flops(&self, mut c: usize, mut h: usize, mut w: usize) -> u64 {
        let mut total = 0;
        for layer in &self.layers {
            total += layer.flops(c, h, w);
            (c, h, w) = layer.out_shape(c, h, w);
        }
        total
    }

    /// Run the forward pass, returning the output and per-layer reports.
    ///
    /// Each layer's output goes back to the context
    /// ([`CakeGemm::recycle`]) once the next layer has read it, and the
    /// built-in layers take their outputs from there, so after the first
    /// pass the activations reuse the same buffers every pass.
    pub fn forward(&self, input: &Tensor) -> (Tensor, Vec<LayerReport>) {
        let mut out: Option<Tensor> = None;
        let mut reports = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let x = out.as_ref().unwrap_or(input);
            let (c, h, w) = (x.channels(), x.height(), x.width());
            let flops = layer.flops(c, h, w);
            let _ = self.ctx.take_stats(); // attribute GEMMs to this layer
            let t0 = Instant::now();
            let y = layer.forward(&self.ctx, x);
            reports.push(LayerReport {
                name: layer.name().to_string(),
                out_shape: (y.channels(), y.height(), y.width()),
                flops,
                seconds: t0.elapsed().as_secs_f64(),
                gemm: self.ctx.take_stats(),
            });
            if let Some(spent) = out.replace(y) {
                self.ctx.recycle(spent.into_matrix());
            }
        }
        (out.unwrap_or_else(|| input.clone()), reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::ConvGeom;
    use crate::layers::{Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU};

    fn tiny_net() -> Sequential {
        Sequential::new(CakeConfig::with_threads(1))
            .push(Conv2d::random("conv1", 3, 8, ConvGeom::same(3), 1))
            .push(ReLU)
            .push(MaxPool2d)
            .push(Conv2d::random("conv2", 8, 16, ConvGeom::same(3), 2))
            .push(ReLU)
            .push(GlobalAvgPool)
            .push(Linear::random("fc", 16, 10, 3))
    }

    #[test]
    fn shapes_propagate() {
        let net = tiny_net();
        let shapes = net.shapes(3, 16, 16);
        assert_eq!(shapes[0], (8, 16, 16)); // conv1
        assert_eq!(shapes[2], (8, 8, 8)); // maxpool
        assert_eq!(shapes[3], (16, 8, 8)); // conv2
        assert_eq!(shapes[5], (16, 1, 1)); // gap
        assert_eq!(shapes[6], (10, 1, 1)); // fc
    }

    #[test]
    fn forward_produces_logits_and_reports() {
        let net = tiny_net();
        let input = Tensor::from_matrix(cake_matrix::init::random::<f32>(3, 256, 9), 16, 16);
        let (out, reports) = net.forward(&input);
        assert_eq!((out.channels(), out.height(), out.width()), (10, 1, 1));
        assert_eq!(reports.len(), 7);
        assert!(out.as_matrix().as_slice().iter().all(|x| x.is_finite()));
        // Conv layers dominate FLOPs.
        let conv_flops: u64 = reports
            .iter()
            .filter(|r| r.name.starts_with("conv"))
            .map(|r| r.flops)
            .sum();
        assert!(conv_flops > 9 * reports.iter().map(|r| r.flops).sum::<u64>() / 10);
    }

    #[test]
    fn total_flops_matches_reports() {
        let net = tiny_net();
        let input = Tensor::<f32>::zeros(3, 16, 16);
        let (_, reports) = net.forward(&input);
        let total: u64 = reports.iter().map(|r| r.flops).sum();
        assert_eq!(total, net.total_flops(3, 16, 16));
        assert!(total > 0);
    }

    #[test]
    fn forward_is_deterministic() {
        let net = tiny_net();
        let input = Tensor::from_matrix(cake_matrix::init::random::<f32>(3, 256, 10), 16, 16);
        let (a, _) = net.forward(&input);
        let (b, _) = net.forward(&input);
        assert_eq!(a.as_matrix().as_slice(), b.as_matrix().as_slice());
    }

    #[test]
    fn layer_reports_attribute_gemm_stats() {
        let net = tiny_net();
        let input = Tensor::from_matrix(cake_matrix::init::random::<f32>(3, 256, 11), 16, 16);
        let (_, cold) = net.forward(&input);
        for r in &cold {
            if r.name.starts_with("conv") || r.name == "fc" {
                assert!(r.gemm.blocks > 0, "{} ran a GEMM", r.name);
            } else {
                assert_eq!(r.gemm, cake_core::ExecStats::default(), "{}", r.name);
            }
        }
        // First pass sizes the shared workspace; a second pass over the same
        // shapes must be allocation-free in every layer.
        assert!(cold.iter().any(|r| r.gemm.allocations > 0));
        let (_, warm) = net.forward(&input);
        for r in &warm {
            assert_eq!(r.gemm.allocations, 0, "layer {} allocated when warm", r.name);
        }
    }

    #[test]
    fn empty_network_is_identity() {
        let net = Sequential::new(CakeConfig::with_threads(1));
        assert!(net.is_empty());
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as f32);
        let (out, reports) = net.forward(&input);
        assert!(reports.is_empty());
        assert_eq!(out.get(0, 1, 1), 2.0);
    }
}
