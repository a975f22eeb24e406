//! Mini-batch assembly with deterministic per-epoch shuffling (the paper
//! "organized the data into batches for the U-Net models using
//! dataloader"). Samples are used as given: there is no augmentation, so
//! every batch, and every training bit, follows from the samples and the
//! shuffle seed alone.

use crate::tensor::Tensor;
use seaice_faults::rng::ChaCha8;

/// One training sample: CHW image data plus a per-pixel class mask.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Image values, `channels · height · width` long, typically in
    /// `[0, 1]`.
    pub image: Vec<f32>,
    /// Per-pixel class indices, `height · width` long.
    pub mask: Vec<u8>,
    /// Channel count.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
}

impl Sample {
    /// True when the buffers match the declared dimensions; the loader
    /// uses it to *skip* corrupt or truncated samples instead of crashing
    /// a run.
    pub fn is_consistent(&self) -> bool {
        self.image.len() == self.channels * self.height * self.width
            && self.mask.len() == self.height * self.width
    }

    /// The `(channels, height, width)` tuple.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }
}

/// A batch ready for the network.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Images, `[n, c, h, w]`.
    pub images: Tensor,
    /// Flattened per-pixel targets, `n · h · w` long.
    pub targets: Vec<u8>,
}

impl Batch {
    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.images.shape()[0]
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Assembles shuffled mini-batches from samples.
pub struct DataLoader {
    samples: Vec<Sample>,
    batch_size: usize,
    shuffle_seed: Option<u64>,
    skipped: usize,
}

impl DataLoader {
    /// Creates a loader. `shuffle_seed: Some(s)` reshuffles every epoch
    /// deterministically; `None` keeps input order.
    ///
    /// Corrupt samples — truncated buffers, or shapes that disagree with
    /// the first consistent sample — are **skipped and counted** (see
    /// [`skipped`](DataLoader::skipped)) rather than crashing the run: a
    /// handful of bad tiles must not kill hours of training.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or no usable sample remains after
    /// skipping.
    pub fn new(samples: Vec<Sample>, batch_size: usize, shuffle_seed: Option<u64>) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let total = samples.len();
        let mut shape: Option<(usize, usize, usize)> = None;
        let samples: Vec<Sample> = samples
            .into_iter()
            .filter(|s| {
                if !s.is_consistent() {
                    return false;
                }
                match shape {
                    None => {
                        shape = Some(s.shape());
                        true
                    }
                    Some(sh) => s.shape() == sh,
                }
            })
            .collect();
        assert!(
            !samples.is_empty(),
            "no usable samples (all corrupt or empty input)"
        );
        let skipped = total - samples.len();
        Self {
            samples,
            batch_size,
            shuffle_seed,
            skipped,
        }
    }

    /// Number of input samples dropped at construction because they were
    /// corrupt (inconsistent buffers) or mismatched the dataset's shape.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the loader holds no samples (cannot occur post-`new`).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of batches per epoch (last partial batch included).
    pub fn batches_per_epoch(&self) -> usize {
        self.samples.len().div_ceil(self.batch_size)
    }

    /// Produces the batches of one epoch. The epoch index feeds the
    /// shuffle seed so successive epochs reorder differently but
    /// reproducibly.
    pub fn epoch(&self, epoch: u64) -> Vec<Batch> {
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        if let Some(seed) = self.shuffle_seed {
            ChaCha8::seed(seed ^ epoch.wrapping_mul(0x9E37_79B9)).shuffle(&mut order);
        }
        let (c, h, w) = (
            self.samples[0].channels,
            self.samples[0].height,
            self.samples[0].width,
        );
        order
            .chunks(self.batch_size)
            .map(|chunk| {
                let n = chunk.len();
                let mut images = Tensor::zeros(&[n, c, h, w]);
                let mut targets = Vec::with_capacity(n * h * w);
                let item = c * h * w;
                for (bi, &si) in chunk.iter().enumerate() {
                    let s = &self.samples[si];
                    images.as_mut_slice()[bi * item..(bi + 1) * item].copy_from_slice(&s.image);
                    targets.extend_from_slice(&s.mask);
                }
                Batch { images, targets }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tag: f32) -> Sample {
        Sample {
            image: (0..12).map(|i| tag + i as f32).collect(),
            mask: (0..4).map(|i| (i % 3) as u8).collect(),
            channels: 3,
            height: 2,
            width: 2,
        }
    }

    #[test]
    fn batches_cover_all_samples() {
        let dl = DataLoader::new((0..10).map(|i| sample(i as f32)).collect(), 3, None);
        assert_eq!(dl.batches_per_epoch(), 4);
        let batches = dl.epoch(0);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(batches[3].len(), 1); // trailing partial batch
    }

    #[test]
    fn unshuffled_order_is_stable() {
        let dl = DataLoader::new((0..4).map(|i| sample(i as f32 * 100.0)).collect(), 2, None);
        let batches = dl.epoch(0);
        assert_eq!(batches[0].images.as_slice()[0], 0.0);
        assert_eq!(batches[1].images.as_slice()[0], 200.0);
    }

    #[test]
    fn shuffle_is_deterministic_per_epoch() {
        let dl = DataLoader::new((0..16).map(|i| sample(i as f32)).collect(), 4, Some(42));
        let a = dl.epoch(0);
        let b = dl.epoch(0);
        assert_eq!(a[0].images, b[0].images);
        let c = dl.epoch(1);
        assert_ne!(a[0].images, c[0].images, "epochs reshuffle");
    }

    #[test]
    fn targets_align_with_images() {
        let dl = DataLoader::new(vec![sample(0.0), sample(50.0)], 2, None);
        let batch = &dl.epoch(0)[0];
        assert_eq!(batch.targets.len(), 2 * 4);
        assert_eq!(&batch.targets[..4], &[0, 1, 2, 0]);
    }

    #[test]
    fn mixed_shapes_are_skipped_and_counted() {
        // Self-consistent but a different shape than the first sample.
        let mut odd = sample(0.0);
        odd.height = 1;
        odd.image.truncate(6);
        odd.mask.truncate(2);
        let dl = DataLoader::new(vec![sample(0.0), odd, sample(1.0)], 2, None);
        assert_eq!(dl.len(), 2);
        assert_eq!(dl.skipped(), 1);
    }

    #[test]
    fn corrupt_samples_are_skipped_and_counted() {
        // Truncated image buffer: internally inconsistent.
        let mut short = sample(9.0);
        short.image.truncate(5);
        // Truncated mask.
        let mut torn = sample(8.0);
        torn.mask.clear();
        let dl = DataLoader::new(vec![short, sample(0.0), torn, sample(1.0)], 2, None);
        assert_eq!(dl.len(), 2);
        assert_eq!(dl.skipped(), 2);
        // Batches come only from the survivors.
        let total: usize = dl.epoch(0).iter().map(|b| b.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "no usable samples")]
    fn all_corrupt_still_panics() {
        let mut bad = sample(0.0);
        bad.image.clear();
        let _ = DataLoader::new(vec![bad], 2, None);
    }
}
