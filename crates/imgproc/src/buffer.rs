//! Interleaved row-major image container, the substrate's equivalent of an
//! OpenCV `Mat`.

/// An 8-bit RGB pixel `[r, g, b]`.
pub type Rgb8 = [u8; 3];

/// A single-channel 8-bit image.
pub type Gray8 = Image<u8>;

/// A single-channel (or multi-channel) `f32` image.
pub type GrayF32 = Image<f32>;

/// A dense, interleaved, row-major image.
///
/// `channels` is a runtime property (1 for masks/grayscale, 3 for RGB/HSV),
/// which keeps the kernel implementations monomorphic over the sample type
/// `T` only. Pixel `(x, y)` channel `c` lives at index
/// `(y * width + x) * channels + c`.
#[derive(Clone, Debug, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    channels: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Image<T> {
    /// Creates a zero/default-initialized image.
    ///
    /// # Panics
    /// Panics if `channels == 0` or if the total sample count overflows.
    pub fn new(width: usize, height: usize, channels: usize) -> Self {
        assert!(channels > 0, "image must have at least one channel");
        let len = width
            .checked_mul(height)
            .and_then(|p| p.checked_mul(channels))
            // seaice-lint: allow(panic-in-library) reason="documented panicking constructor (# Panics above); an overflowing allocation request has no sane recovery and the checked_mul makes it loud instead of UB-adjacent"
            .expect("image dimensions overflow");
        Self {
            width,
            height,
            channels,
            data: vec![T::default(); len],
        }
    }

    /// Wraps an existing sample vector.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height * channels`.
    pub fn from_vec(width: usize, height: usize, channels: usize, data: Vec<T>) -> Self {
        assert!(channels > 0, "image must have at least one channel");
        assert_eq!(
            data.len(),
            width * height * channels,
            "sample vector length does not match dimensions"
        );
        Self {
            width,
            height,
            channels,
            data,
        }
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(
        width: usize,
        height: usize,
        channels: usize,
        mut f: impl FnMut(usize, usize) -> Vec<T>,
    ) -> Self {
        let mut img = Self::new(width, height, channels);
        for y in 0..height {
            for x in 0..width {
                let px = f(x, y);
                debug_assert_eq!(px.len(), channels);
                img.put_pixel(x, y, &px);
            }
        }
        img
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of interleaved channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// `(width, height)`.
    #[inline]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Flat sample slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat sample slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the image, returning the sample vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Samples of one pixel.
    ///
    /// # Panics
    /// Panics (in debug, via indexing in release) when out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> &[T] {
        debug_assert!(x < self.width && y < self.height);
        let i = (y * self.width + x) * self.channels;
        &self.data[i..i + self.channels]
    }

    /// Mutable samples of one pixel.
    #[inline]
    pub fn pixel_mut(&mut self, x: usize, y: usize) -> &mut [T] {
        debug_assert!(x < self.width && y < self.height);
        let i = (y * self.width + x) * self.channels;
        &mut self.data[i..i + self.channels]
    }

    /// Writes all channels of one pixel.
    #[inline]
    pub fn put_pixel(&mut self, x: usize, y: usize, px: &[T]) {
        self.pixel_mut(x, y).copy_from_slice(px);
    }

    /// Single-channel convenience read (channel 0).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.pixel(x, y)[0]
    }

    /// Single-channel convenience write (channel 0).
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        self.pixel_mut(x, y)[0] = v;
    }

    /// One image row as a sample slice (`width * channels` long).
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let stride = self.width * self.channels;
        &self.data[y * stride..(y + 1) * stride]
    }

    /// Mutable image row.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        let stride = self.width * self.channels;
        &mut self.data[y * stride..(y + 1) * stride]
    }

    /// Iterator over `(x, y, pixel)` in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (usize, usize, &[T])> {
        let (w, c) = (self.width, self.channels);
        self.data
            .chunks_exact(c)
            .enumerate()
            .map(move |(i, px)| (i % w, i / w, px))
    }

    /// Sets every pixel to `px`.
    ///
    /// # Panics
    /// Panics if `px.len() != channels`.
    pub fn fill(&mut self, px: &[T]) {
        assert_eq!(px.len(), self.channels);
        for chunk in self.data.chunks_exact_mut(self.channels) {
            chunk.copy_from_slice(px);
        }
    }

    /// Copies a rectangular region into a new image.
    ///
    /// # Panics
    /// Panics if the region exceeds the image bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Self {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop out of bounds"
        );
        let mut out = Self::new(w, h, self.channels);
        for y in 0..h {
            let src = &self.row(y0 + y)[x0 * self.channels..(x0 + w) * self.channels];
            out.row_mut(y).copy_from_slice(src);
        }
        out
    }

    /// Pastes `src` into this image with its top-left corner at `(x0, y0)`.
    ///
    /// # Panics
    /// Panics on channel mismatch or if `src` exceeds the bounds.
    pub fn paste(&mut self, src: &Self, x0: usize, y0: usize) {
        assert_eq!(self.channels, src.channels, "channel mismatch");
        assert!(
            x0 + src.width <= self.width && y0 + src.height <= self.height,
            "paste out of bounds"
        );
        let c = self.channels;
        for y in 0..src.height {
            let dst_row = self.row_mut(y0 + y);
            dst_row[x0 * c..(x0 + src.width) * c].copy_from_slice(src.row(y));
        }
    }

    /// Extracts one channel as a single-channel image.
    ///
    /// # Panics
    /// Panics if `c >= channels`.
    pub fn extract_channel(&self, c: usize) -> Image<T> {
        assert!(c < self.channels);
        let mut out = Image::new(self.width, self.height, 1);
        for (dst, px) in out
            .data
            .iter_mut()
            .zip(self.data.chunks_exact(self.channels))
        {
            *dst = px[c];
        }
        out
    }

    /// Applies `f` to every sample, returning a new image of the same shape.
    pub fn map<U>(&self, f: impl Fn(T) -> U + Sync) -> Image<U>
    where
        T: Sync,
        U: Copy + Default + Send,
    {
        Image {
            width: self.width,
            height: self.height,
            channels: self.channels,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Image<u8> {
    /// Fraction of non-zero samples — handy for mask coverage statistics.
    pub fn nonzero_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nz = self.data.iter().filter(|&&v| v != 0).count();
        nz as f64 / self.data.len() as f64
    }

    /// Converts to `f32` samples scaled to `[0, 1]`.
    pub fn to_f32(&self) -> Image<f32> {
        self.map(|v| v as f32 / 255.0)
    }
}

impl Image<f32> {
    /// Mean of all samples.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.data.iter().map(|&v| v as f64).sum();
        (sum / self.data.len() as f64) as f32
    }
}

/// Ceiling on pooled buffers per sample type; recycling beyond this drops
/// the buffer instead of growing the pool without bound.
const MAX_POOLED: usize = 16;

/// A reusable pool of tile-sized buffers.
///
/// Batch labeling touches thousands of equally sized tiles; allocating
/// (and faulting in) fresh image buffers for every tile dominates the cost
/// of the fused segmentation kernel. A `Scratch` keeps returned buffers
/// alive so the next `take` reuses their capacity instead of hitting the
/// allocator.
///
/// ## Contract
///
/// * `take_image*_for_overwrite` returns an image backed by a buffer of
///   exactly the requested length, reusing a pooled allocation when one
///   with sufficient capacity exists. It is not zero-filled: the samples are
///   whatever its last user left (only growth is zeroed), so the caller
///   writes the image whole before it reads any sample.
/// * `recycle*` donates a buffer back to the pool; the pool keeps at most
///   [`MAX_POOLED`] buffers per sample type and silently drops the rest.
/// * The largest in-repo client, the filtered auto-labeller, has at most
///   six `f32` planes and four `u8` images out at once (the cloud/shadow
///   filter's fields plus the labeller's outputs), so its steady state —
///   every `take` served from the pool — fits well under [`MAX_POOLED`].
/// * A `Scratch` is single-threaded by design; parallel batch drivers give
///   each worker its own (`seaice_exec::par::map_init`, or one per pool
///   thread).
#[derive(Debug, Default)]
pub struct Scratch {
    u8_bufs: Vec<Vec<u8>>,
    f32_bufs: Vec<Vec<f32>>,
}

fn pool_take<T: Copy + Default>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    let mut buf = match pool.iter().position(|b| b.capacity() >= len) {
        Some(i) => pool.swap_remove(i),
        None => Vec::with_capacity(len),
    };
    buf.truncate(len);
    buf.resize(len, T::default());
    buf
}

fn pool_recycle<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
    if buf.capacity() > 0 && pool.len() < MAX_POOLED {
        pool.push(buf);
    }
}

impl Scratch {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `u8` image backed by a pooled buffer, not zero-filled: for an
    /// image the caller overwrites whole.
    pub fn take_image_for_overwrite(&mut self, w: usize, h: usize, c: usize) -> Image<u8> {
        Image::from_vec(w, h, c, pool_take(&mut self.u8_bufs, w * h * c))
    }

    /// [`take_image_for_overwrite`](Self::take_image_for_overwrite) for
    /// `f32` samples.
    pub fn take_image_f32_for_overwrite(&mut self, w: usize, h: usize, c: usize) -> Image<f32> {
        Image::from_vec(w, h, c, pool_take(&mut self.f32_bufs, w * h * c))
    }

    /// Donates a `u8` buffer back to the pool.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        pool_recycle(&mut self.u8_bufs, buf);
    }

    /// Donates an `f32` buffer back to the pool.
    pub fn recycle_f32(&mut self, buf: Vec<f32>) {
        pool_recycle(&mut self.f32_bufs, buf);
    }

    /// Donates a `u8` image's backing buffer back to the pool.
    pub fn recycle_image(&mut self, img: Image<u8>) {
        self.recycle(img.into_vec());
    }

    /// Donates an `f32` image's backing buffer back to the pool.
    pub fn recycle_image_f32(&mut self, img: Image<f32>) {
        self.recycle_f32(img.into_vec());
    }

    /// `(u8 buffers, f32 buffers)` currently pooled.
    pub fn pooled(&self) -> (usize, usize) {
        (self.u8_bufs.len(), self.f32_bufs.len())
    }
}

/// Zips two same-shape images through `f`, producing a third.
///
/// # Panics
/// Panics if shapes differ.
pub fn zip_map<A, B, O>(a: &Image<A>, b: &Image<B>, f: impl Fn(A, B) -> O) -> Image<O>
where
    A: Copy + Default,
    B: Copy + Default,
    O: Copy + Default,
{
    assert_eq!(a.dimensions(), b.dimensions(), "image size mismatch");
    assert_eq!(a.channels(), b.channels(), "image channel mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Image::from_vec(a.width(), a.height(), a.channels(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let img = Image::<u8>::new(4, 3, 2);
        assert_eq!(img.dimensions(), (4, 3));
        assert_eq!(img.channels(), 2);
        assert!(img.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn pixel_roundtrip() {
        let mut img = Image::<u8>::new(5, 5, 3);
        img.put_pixel(2, 3, &[9, 8, 7]);
        assert_eq!(img.pixel(2, 3), &[9, 8, 7]);
        assert_eq!(img.pixel(0, 0), &[0, 0, 0]);
    }

    #[test]
    fn row_layout_is_interleaved() {
        let mut img = Image::<u8>::new(2, 2, 3);
        img.put_pixel(0, 1, &[1, 2, 3]);
        img.put_pixel(1, 1, &[4, 5, 6]);
        assert_eq!(img.row(1), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn crop_then_paste_roundtrip() {
        let mut img = Image::<u8>::new(8, 8, 1);
        for y in 0..8 {
            for x in 0..8 {
                img.set(x, y, (y * 8 + x) as u8);
            }
        }
        let patch = img.crop(2, 3, 4, 2);
        assert_eq!(patch.dimensions(), (4, 2));
        assert_eq!(patch.get(0, 0), img.get(2, 3));
        let mut out = Image::<u8>::new(8, 8, 1);
        out.paste(&patch, 2, 3);
        assert_eq!(out.get(5, 4), img.get(5, 4));
        assert_eq!(out.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "crop out of bounds")]
    fn crop_out_of_bounds_panics() {
        let img = Image::<u8>::new(4, 4, 1);
        let _ = img.crop(2, 2, 4, 4);
    }

    #[test]
    fn extract_channel_picks_interleaved_samples() {
        let img = Image::from_vec(2, 1, 3, vec![1u8, 2, 3, 4, 5, 6]);
        assert_eq!(img.extract_channel(1).as_slice(), &[2, 5]);
    }

    #[test]
    fn from_fn_matches_manual_fill() {
        let img = Image::from_fn(3, 2, 1, |x, y| vec![(x + 10 * y) as u8]);
        assert_eq!(img.get(2, 1), 12);
    }

    #[test]
    fn u8_f32_roundtrip() {
        let img = Image::from_vec(2, 1, 1, vec![0u8, 255]);
        let f = img.to_f32();
        assert!((f.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((f.get(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_fraction_counts_samples() {
        let img = Image::from_vec(4, 1, 1, vec![0u8, 1, 2, 0]);
        assert!((img.nonzero_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zip_map_adds() {
        let a = Image::from_vec(2, 1, 1, vec![1u8, 2]);
        let b = Image::from_vec(2, 1, 1, vec![10u8, 20]);
        let c = zip_map(&a, &b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[11, 22]);
    }

    #[test]
    fn scratch_reuses_recycled_capacity() {
        let mut s = Scratch::new();
        let plane = s.take_image_f32_for_overwrite(16, 16, 1);
        let ptr = plane.as_slice().as_ptr();
        s.recycle_image_f32(plane);
        assert_eq!(s.pooled(), (0, 1));
        // A smaller request reuses the pooled allocation.
        let again = s.take_image_f32_for_overwrite(8, 8, 1);
        assert_eq!(again.as_slice().as_ptr(), ptr);
        assert_eq!(again.as_slice().len(), 64);
        assert_eq!(s.pooled(), (0, 0));
    }

    #[test]
    fn images_taken_for_overwrite_keep_stale_samples_and_zero_growth() {
        let mut s = Scratch::new();
        s.recycle(vec![7u8; 8]);
        let img = s.take_image_for_overwrite(2, 2, 1);
        assert_eq!(img.as_slice(), &[7; 4]);
        s.recycle_image(img);
        // The pooled buffer is 4 long now: growing it zeroes the new part.
        let img = s.take_image_for_overwrite(3, 2, 1);
        assert_eq!(img.as_slice(), &[7, 7, 7, 7, 0, 0]);
        s.recycle_f32(vec![1.5; 4]);
        let plane = s.take_image_f32_for_overwrite(3, 1, 1);
        assert_eq!(plane.as_slice(), &[1.5; 3]);
    }

    #[test]
    fn scratch_allocates_when_nothing_fits() {
        let mut s = Scratch::new();
        s.recycle(vec![0u8; 16]);
        let big = s.take_image_for_overwrite(32, 32, 1);
        assert_eq!(big.as_slice(), &[0; 1024]);
        // The too-small buffer stays pooled for future fits.
        assert_eq!(s.pooled(), (1, 0));
    }

    #[test]
    fn scratch_images_roundtrip() {
        let mut s = Scratch::new();
        let img = s.take_image_for_overwrite(4, 3, 3);
        assert_eq!(img.dimensions(), (4, 3));
        assert!(img.as_slice().iter().all(|&v| v == 0));
        s.recycle_image(img);
        let f = s.take_image_f32_for_overwrite(4, 3, 1);
        assert_eq!(f.as_slice().len(), 12);
        s.recycle_image_f32(f);
        assert_eq!(s.pooled(), (1, 1));
    }

    #[test]
    fn scratch_pool_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..40 {
            s.recycle(vec![0u8; 8]);
        }
        assert_eq!(s.pooled().0, 16);
    }
}
