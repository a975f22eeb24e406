//! Inverted dropout (the paper regularizes its U-Net with dropout rates
//! of 0.1–0.3 between convolutional layers).

use crate::ops::planes::Planes;
use seaice_faults::rng::ChaCha8;

/// One dropout site's draws for one training step, applied to a batch one
/// image's planes at a time: each element is kept as `v · scale`
/// (`scale = 1 / (1 − p)`) when its draw from a [`ChaCha8`] seeded with
/// `seed` is `≥ p`, and zeroed otherwise, one `f32` draw per element in
/// `(channel, row, column)` order. Each [`apply`](Self::apply) continues the
/// stream, so a batch's images applied in order draw what one pass of
/// dropout over the whole `[n, c, h, w]` tensor draws.
pub struct DropoutStream {
    rng: ChaCha8,
    p: f32,
}

impl DropoutStream {
    /// A stream at drop probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        let rng = ChaCha8::seed(seed);
        Self { rng, p }
    }

    /// Drops the interior of `planes` in place.
    pub fn apply(&mut self, planes: &mut Planes) {
        let ((c, h, _), scale) = (planes.dims(), 1.0 / (1.0 - self.p));
        for i in 0..c * h {
            for v in planes.row_mut(i / h, i % h) {
                let keep = self.rng.unit_f32() >= self.p;
                *v = if keep { *v * scale } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Forward inverted dropout over a whole tensor: the oracle of
    /// [`DropoutStream`]. Returns the output and the keep mask.
    ///
    /// `p = 0` returns the input unchanged with an all-ones mask.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub(crate) fn dropout(x: &Tensor, p: f32, seed: u64) -> (Tensor, Vec<bool>) {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        if p == 0.0 {
            return (x.clone(), vec![true; x.len()]);
        }
        let mut rng = ChaCha8::seed(seed);
        let scale = 1.0 / (1.0 - p);
        let mut mask = vec![false; x.len()];
        let data = x
            .as_slice()
            .iter()
            .zip(mask.iter_mut())
            .map(|(&v, keep)| {
                *keep = rng.unit_f32() >= p;
                if *keep {
                    v * scale
                } else {
                    0.0
                }
            })
            .collect();
        (Tensor::from_vec(x.shape(), data), mask)
    }

    /// Backward dropout: gradients pass only through kept elements, scaled by
    /// the same `1/(1-p)` — the oracle of a masked `Sink`'s scaled store.
    ///
    /// # Panics
    /// Panics on mask/gradient length mismatch or invalid `p`.
    pub(crate) fn dropout_backward(grad_out: &Tensor, mask: &[bool], p: f32) -> Tensor {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        assert_eq!(grad_out.len(), mask.len(), "dropout mask length mismatch");
        let scale = 1.0 / (1.0 - p);
        let data = grad_out
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, &keep)| if keep { g * scale } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), data)
    }

    #[test]
    fn zero_rate_is_identity() {
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let (y, mask) = dropout(&x, 0.0, 1);
        assert_eq!(y, x);
        assert!(mask.iter().all(|&k| k));
    }

    #[test]
    fn expected_value_is_preserved() {
        let x = Tensor::full(&[10_000], 1.0);
        let (y, _) = dropout(&x, 0.3, 42);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean}");
    }

    #[test]
    fn dropped_fraction_tracks_rate() {
        let x = Tensor::full(&[10_000], 1.0);
        let (_, mask) = dropout(&x, 0.25, 7);
        let kept = mask.iter().filter(|&&k| k).count() as f64 / mask.len() as f64;
        assert!((kept - 0.75).abs() < 0.03, "kept fraction {kept}");
    }

    #[test]
    fn deterministic_under_seed() {
        let x = Tensor::full(&[100], 1.0);
        let (a, ma) = dropout(&x, 0.5, 9);
        let (b, mb) = dropout(&x, 0.5, 9);
        assert_eq!(a, b);
        assert_eq!(ma, mb);
    }

    /// The stream applied image after image draws the whole batch's mask
    /// and stores its values, bit for bit.
    #[test]
    fn a_stream_over_the_images_equals_dropout_over_the_batch() {
        let (n, dims) = (3, (2, 5, 7));
        let x = crate::init::uniform(&[n, 2, 5, 7], -1.0, 1.0, 4);
        let (want, _) = dropout(&x, 0.3, 99);
        let mut stream = DropoutStream::new(0.3, 99);
        for b in 0..n {
            let mut planes = Planes::new(dims, 1);
            planes.fill(x.batch_item(b));
            stream.apply(&mut planes);
            let got = planes.interior();
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(want.batch_item(b)), "image {b}");
        }
    }

    #[test]
    fn backward_respects_mask_and_scale() {
        let x = Tensor::full(&[8], 1.0);
        let (y, mask) = dropout(&x, 0.5, 3);
        let g = Tensor::full(&[8], 1.0);
        let gx = dropout_backward(&g, &mask, 0.5);
        // Gradient is nonzero exactly where the forward output is nonzero.
        for (gy, gv) in y.as_slice().iter().zip(gx.as_slice()) {
            assert_eq!(*gy != 0.0, *gv != 0.0);
            if *gv != 0.0 {
                assert!((gv - 2.0).abs() < 1e-6);
            }
        }
    }
}
