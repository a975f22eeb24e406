//! U-Net architecture configuration.

/// How the expansion path doubles spatial resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpMode {
    /// Nearest-neighbour upsample followed by a 3×3 channel-halving
    /// convolution (the common artifact-free variant; the default).
    UpsampleConv,
    /// True 2×2 stride-2 transposed convolution — the paper's literal
    /// "2x2 convolution (up-convolution)".
    Transposed,
}

/// Architecture hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UNetConfig {
    /// Input channels (3 for Sentinel-2 RGB).
    pub in_channels: usize,
    /// Output classes (3: thick ice, thin ice, open water).
    pub num_classes: usize,
    /// Number of down-sampling steps (the paper uses 5).
    pub depth: usize,
    /// Filters of the first encoder block; each step doubles them.
    pub base_filters: usize,
    /// Dropout rate between the convolutions of each block (paper sweeps
    /// 0.1–0.3).
    pub dropout: f32,
    /// Weight-initialization / dropout seed.
    pub seed: u64,
    /// Up-sampling variant of the expansion path.
    pub up_mode: UpMode,
}

impl UNetConfig {
    /// The published architecture: 5 down-sampling steps, bottleneck, 5
    /// up-sampling steps — 28 convolutional layers for 256×256 inputs.
    pub fn paper() -> Self {
        Self {
            in_channels: 3,
            num_classes: 3,
            depth: 5,
            base_filters: 16,
            dropout: 0.2,
            seed: 2019,
            up_mode: UpMode::UpsampleConv,
        }
    }

    /// A reduced configuration for CPU-scale experiments and tests: same
    /// architecture family, two down-sampling steps, narrow filters.
    pub fn cpu_small() -> Self {
        Self {
            depth: 2,
            base_filters: 8,
            ..Self::paper()
        }
    }

    /// Total convolutional layers of the resulting network:
    /// `2·depth` (contracting) + 2 (bottleneck) + `3·depth` (expanding:
    /// up-convolution + double convolution per step) + 1 (final 1×1).
    pub fn conv_layer_count(&self) -> usize {
        2 * self.depth + 2 + 3 * self.depth + 1
    }

    /// Minimum input side the network accepts (must survive `depth`
    /// halvings evenly).
    pub fn min_input_side(&self) -> usize {
        1 << self.depth
    }

    /// Validates an input side length.
    ///
    /// # Panics
    /// Panics if the side is not divisible by `2^depth`; use
    /// [`check_input_side`](Self::check_input_side) to handle the
    /// mismatch instead.
    pub fn assert_input_side(&self, side: usize) {
        if let Err(e) = self.check_input_side(side) {
            // seaice-lint: allow(panic-in-library) reason="documented panicking assertion (# Panics above); check_input_side is the fallible path for dynamic side lengths"
            panic!("{e}");
        }
    }

    /// Fallible [`assert_input_side`](Self::assert_input_side): reports
    /// why a side length is incompatible instead of panicking.
    ///
    /// # Errors
    /// A description of the divisibility requirement the side violates.
    pub fn check_input_side(&self, side: usize) -> Result<(), String> {
        if side > 0 && side.is_multiple_of(self.min_input_side()) {
            Ok(())
        } else {
            Err(format!(
                "input side {side} must be a positive multiple of {} (depth {} network)",
                self.min_input_side(),
                self.depth
            ))
        }
    }

    /// Filter count of encoder level `i` (0-based).
    pub fn filters_at(&self, level: usize) -> usize {
        self.base_filters << level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_has_28_conv_layers() {
        // "Our model has a total of 28 convolutional layers, including
        // five downsampling steps, one bottleneck step, and five
        // upsampling steps."
        assert_eq!(UNetConfig::paper().conv_layer_count(), 28);
    }

    #[test]
    fn paper_accepts_256_inputs() {
        let cfg = UNetConfig::paper();
        cfg.assert_input_side(256);
        assert_eq!(cfg.min_input_side(), 32);
    }

    #[test]
    #[should_panic(expected = "must be a positive multiple")]
    fn indivisible_input_panics() {
        UNetConfig::paper().assert_input_side(100);
    }

    #[test]
    fn filters_double_per_level() {
        let cfg = UNetConfig::paper();
        assert_eq!(cfg.filters_at(0), 16);
        assert_eq!(cfg.filters_at(1), 32);
        assert_eq!(cfg.filters_at(4), 256);
    }

    #[test]
    fn up_mode_does_not_change_layer_count() {
        let a = UNetConfig {
            up_mode: UpMode::Transposed,
            ..UNetConfig::paper()
        };
        assert_eq!(a.conv_layer_count(), UNetConfig::paper().conv_layer_count());
    }

    #[test]
    fn cpu_small_is_shallower() {
        let cfg = UNetConfig::cpu_small();
        assert!(cfg.depth < UNetConfig::paper().depth);
        assert_eq!(cfg.conv_layer_count(), 13);
        cfg.assert_input_side(64);
    }
}
