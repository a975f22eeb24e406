//! Weight initialization (He / Glorot), seeded and deterministic.

use crate::tensor::Tensor;
use seaice_faults::rng::ChaCha8;

/// He (Kaiming) uniform initialization for ReLU networks:
/// `U(−√(6/fan_in), +√(6/fan_in))`.
pub fn he_uniform(shape: &[usize], fan_in: usize, seed: u64) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0 / fan_in as f32).sqrt();
    uniform(shape, -bound, bound, seed)
}

/// Uniform initialization over `[lo, hi)`.
pub fn uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(lo <= hi, "inverted range");
    let mut rng = ChaCha8::seed(seed);
    let len: usize = shape.iter().product();
    let data = (0..len).map(|_| rng.uniform(lo, hi)).collect();
    Tensor::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_bound_and_determinism() {
        let t = he_uniform(&[8, 4, 3, 3], 4 * 3 * 3, 42);
        let bound = (6.0 / 36.0f32).sqrt();
        assert!(t.as_slice().iter().all(|&v| v.abs() <= bound + 1e-6));
        let t2 = he_uniform(&[8, 4, 3, 3], 4 * 3 * 3, 42);
        assert_eq!(t, t2);
        let t3 = he_uniform(&[8, 4, 3, 3], 4 * 3 * 3, 43);
        assert_ne!(t, t3);
    }

    #[test]
    fn uniform_covers_range() {
        let t = uniform(&[10_000], -1.0, 1.0, 7);
        let mean = t.mean();
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!(t.as_slice().iter().any(|&v| v > 0.8));
        assert!(t.as_slice().iter().any(|&v| v < -0.8));
    }
}
