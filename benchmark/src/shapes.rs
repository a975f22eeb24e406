//! The convolution sites of a U-Net, derived from its `UNetConfig` alone.
//!
//! The per-layer `nn.*` metrics time `nn::ops` at exactly the shapes the
//! model runs them at; this module is where those shapes (and the exact
//! work counts: MACs, im2col bytes, parameters) come from. The derivation
//! is cross-checked against `UNet::parameter_count` at run time, so a model
//! change that this file does not follow fails the benchmark instead of
//! silently timing the wrong shapes.

use seaice_nn::ops::conv2d::Conv2dShape;
use seaice_unet::{UNetConfig, UpMode};

/// One convolution of the network at a given input size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSite {
    pub shape: Conv2dShape,
    /// Side of the (square) feature map the convolution reads.
    pub side: usize,
}

impl ConvSite {
    fn new(in_c: usize, out_c: usize, kernel: usize, side: usize) -> Self {
        ConvSite {
            shape: Conv2dShape {
                in_channels: in_c,
                out_channels: out_c,
                kernel,
                stride: 1,
                pad: kernel / 2,
            },
            side,
        }
    }

    /// Rows of the im2col patch matrix (= columns of the filter bank).
    pub fn patch_rows(&self) -> usize {
        self.shape.in_channels * self.shape.kernel * self.shape.kernel
    }

    /// Output positions per image ("same" convolutions keep the side).
    pub fn positions(&self) -> usize {
        self.side * self.side
    }

    /// Multiply-accumulates of one forward pass over one image.
    pub fn macs(&self) -> u64 {
        (self.shape.out_channels * self.patch_rows() * self.positions()) as u64
    }

    /// Weights plus biases.
    pub fn params(&self) -> usize {
        self.shape.out_channels * self.patch_rows() + self.shape.out_channels
    }

    /// Bytes of the f32 patch matrix im2col materialises for one image.
    pub fn im2col_bytes(&self) -> u64 {
        (self.patch_rows() * self.positions() * 4) as u64
    }
}

/// Every convolution a forward pass of `cfg` executes on a `side`² tile, in
/// execution order.
///
/// # Panics
/// Panics for `UpMode::Transposed` (no workload uses it) or a `side` the
/// architecture cannot take.
pub fn conv_sites(cfg: &UNetConfig, side: usize) -> Vec<ConvSite> {
    assert_eq!(
        cfg.up_mode,
        UpMode::UpsampleConv,
        "shape derivation covers the upsample+conv decoder only"
    );
    cfg.assert_input_side(side);
    let mut sites = Vec::with_capacity(cfg.conv_layer_count());
    let mut in_c = cfg.in_channels;
    for level in 0..cfg.depth {
        let out_c = cfg.filters_at(level);
        let s = side >> level;
        sites.push(ConvSite::new(in_c, out_c, 3, s));
        sites.push(ConvSite::new(out_c, out_c, 3, s));
        in_c = out_c;
    }
    let bottleneck_c = cfg.filters_at(cfg.depth);
    let s = side >> cfg.depth;
    sites.push(ConvSite::new(in_c, bottleneck_c, 3, s));
    sites.push(ConvSite::new(bottleneck_c, bottleneck_c, 3, s));
    let mut cur_c = bottleneck_c;
    for level in (0..cfg.depth).rev() {
        let out_c = cfg.filters_at(level);
        let s = side >> level;
        // Upsample, 3×3 conv, then the double conv over [skip ‖ up].
        sites.push(ConvSite::new(cur_c, out_c, 3, s));
        sites.push(ConvSite::new(2 * out_c, out_c, 3, s));
        sites.push(ConvSite::new(out_c, out_c, 3, s));
        cur_c = out_c;
    }
    sites.push(ConvSite::new(cur_c, cfg.num_classes, 1, side));
    sites
}

pub fn total_params(sites: &[ConvSite]) -> usize {
    sites.iter().map(ConvSite::params).sum()
}

pub fn forward_macs(sites: &[ConvSite]) -> u64 {
    sites.iter().map(ConvSite::macs).sum()
}

pub fn im2col_bytes(sites: &[ConvSite]) -> u64 {
    sites.iter().map(ConvSite::im2col_bytes).sum()
}

/// Backward MACs of one optimiser step over `batch` images: every
/// convolution computes `dW = gy·colsᵀ` and `dcols = Wᵀ·gy`, each as many
/// MACs as its forward product.
pub fn backward_macs_per_step(sites: &[ConvSite], batch: usize) -> u64 {
    2 * forward_macs(sites) * batch as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_unet::UNet;

    fn cpu_small() -> UNetConfig {
        UNetConfig {
            dropout: 0.0,
            ..UNetConfig::cpu_small()
        }
    }

    #[test]
    fn cpu_small_has_thirteen_sites_matching_the_model() {
        let cfg = cpu_small();
        let sites = conv_sites(&cfg, 64);
        assert_eq!(sites.len(), 13);
        assert_eq!(sites.len(), cfg.conv_layer_count());
        assert_eq!(total_params(&sites), UNet::new(cfg).parameter_count());
    }

    #[test]
    fn derivation_follows_depth_and_width() {
        for (depth, base) in [(1usize, 4usize), (1, 8), (3, 8)] {
            let cfg = UNetConfig {
                depth,
                base_filters: base,
                dropout: 0.0,
                ..UNetConfig::paper()
            };
            let sites = conv_sites(&cfg, 1 << depth);
            assert_eq!(sites.len(), cfg.conv_layer_count());
            assert_eq!(total_params(&sites), UNet::new(cfg).parameter_count());
        }
    }

    #[test]
    fn first_and_last_sites_and_mac_arithmetic() {
        let sites = conv_sites(&cpu_small(), 64);
        let first = sites[0];
        assert_eq!((first.shape.in_channels, first.shape.out_channels), (3, 8));
        assert_eq!(
            (first.shape.kernel, first.shape.pad, first.side),
            (3, 1, 64)
        );
        assert_eq!(first.macs(), 8 * 27 * 64 * 64);
        assert_eq!(first.im2col_bytes(), 27 * 64 * 64 * 4);
        let head = sites[12];
        assert_eq!((head.shape.kernel, head.shape.pad), (1, 0));
        assert_eq!(head.macs(), 3 * 8 * 64 * 64);
        // Bottleneck runs at a quarter of the side.
        assert_eq!(sites[4].side, 16);
        assert_eq!(backward_macs_per_step(&sites, 8), 16 * forward_macs(&sites));
    }
}
