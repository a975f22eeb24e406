//! The layout the direct kernels read and an inference walk keeps between
//! layers: `c` planes of `h × w` values inside a zero border of `halo`
//! cells, then lane slack. [`Sink`] is where a kernel stores its output: a
//! plain row-major slice, or channels of a [`Planes`] interior, so a
//! convolution can write straight into the next one's padded input.

use std::borrow::Cow;

/// Cells after the last plane: the widest lane load (the 16-lane forward
/// and `dx` tiles) past the last row's end stays in bounds. Lanes past a row's end
/// are computed and dropped.
const SLACK: usize = 16;

/// `c` planes of `h × w` f32s, each inside a zero border of `halo` cells,
/// followed by `SLACK` cells. Writers fill the interior only, so the border a
/// convolution pads with stays zero for the planes' lifetime.
#[derive(Clone, Debug, Default)]
pub struct Planes {
    data: Vec<f32>,
    dims: (usize, usize, usize),
    halo: usize,
}

impl Planes {
    /// Zeroed planes of `dims = (c, h, w)` with a border of `halo`.
    pub fn new(dims: (usize, usize, usize), halo: usize) -> Self {
        let (c, h, w) = dims;
        let data = vec![0.0; c * (h + 2 * halo) * (w + 2 * halo) + SLACK];
        Self { data, dims, halo }
    }

    /// A copy of `src` (`dims` planes, row-major) inside a zero border.
    pub(crate) fn haloed(src: &[f32], dims: (usize, usize, usize), halo: usize) -> Self {
        let mut planes = Self::new(dims, halo);
        planes.fill(src);
        planes
    }

    /// `(c, h, w)` of the interior.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Border cells on every side.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Row stride: plane width plus both borders.
    pub(crate) fn width(&self) -> usize {
        self.dims.2 + 2 * self.halo
    }

    /// Plane stride.
    pub(crate) fn plane(&self) -> usize {
        (self.dims.1 + 2 * self.halo) * self.width()
    }

    /// Every cell, border and slack included.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Interior row `y` of channel `ch`.
    pub fn row(&self, ch: usize, y: usize) -> &[f32] {
        self.view().row(ch, y)
    }

    /// The interior, read through a [`View`].
    pub(crate) fn view(&self) -> View<'_> {
        self.channels(0, self.dims.0)
    }

    /// Channels `ch0..ch0 + c` of the interior (panics past the last).
    pub(crate) fn channels(&self, ch0: usize, c: usize) -> View<'_> {
        let (pc, h, w) = self.dims;
        assert!(ch0 + c <= pc, "channels past the planes");
        View {
            data: &self.data,
            at: self.at(ch0, 0),
            width: self.width(),
            plane: self.plane(),
            dims: (c, h, w),
        }
    }

    /// Interior row `y` of channel `ch`, writable.
    pub fn row_mut(&mut self, ch: usize, y: usize) -> &mut [f32] {
        let at = self.at(ch, y);
        &mut self.data[at..][..self.dims.2]
    }

    fn at(&self, ch: usize, y: usize) -> usize {
        ch * self.plane() + (y + self.halo) * self.width() + self.halo
    }

    /// Copies `src` (`c` planes of `h × w`, row-major) into the interior.
    ///
    /// # Panics
    /// Panics unless `src` holds exactly the interior.
    pub fn fill(&mut self, src: &[f32]) {
        let (c, h, w) = self.dims;
        assert_eq!(src.len(), c * h * w, "planes fill length mismatch");
        for (i, row) in src.chunks_exact(w.max(1)).enumerate() {
            self.row_mut(i / h, i % h).copy_from_slice(row);
        }
    }

    /// The interior, `c` planes of `h × w`, row-major.
    pub fn interior(&self) -> Vec<f32> {
        self.view().plain().into_owned()
    }
}

/// `c` planes of `h × w` wherever they sit: a plain row-major slice or a
/// [`Planes`] interior.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    /// Offset of channel 0, row 0, column 0.
    at: usize,
    width: usize,
    plane: usize,
    dims: (usize, usize, usize),
}

impl<'a> View<'a> {
    /// `data` as `dims = (c, h, w)` row-major planes.
    pub(crate) fn of_slice(data: &'a [f32], dims: (usize, usize, usize)) -> Self {
        let (_, h, w) = dims;
        Self {
            data,
            at: 0,
            width: w,
            plane: h * w,
            dims,
        }
    }

    /// `(c, h, w)`.
    pub(crate) fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Row `y` of channel `ch`.
    #[inline(always)]
    pub(crate) fn row(&self, ch: usize, y: usize) -> &'a [f32] {
        &self.data[self.at + ch * self.plane + y * self.width..][..self.dims.2]
    }

    /// The planes as one row-major slice: borrowed when they already are
    /// one, else gathered.
    pub(crate) fn plain(&self) -> Cow<'a, [f32]> {
        let (c, h, w) = self.dims;
        match self.width == w && self.plane == h * w {
            true => Cow::Borrowed(&self.data[self.at..][..c * h * w]),
            false => (0..c * h)
                .flat_map(|i| self.row(i / h, i % h))
                .copied()
                .collect(),
        }
    }
}

/// Where a kernel stores `c` planes of `h × w`: a plain row-major slice or
/// a run of channels in a [`Planes`] interior, as computed, through ReLU
/// (`v.max(0.0)`, the expression of `ops::relu`), or — a gradient's store —
/// through the mask of a forward value ([`Sink::through_mask`]).
pub struct Sink<'a> {
    data: &'a mut [f32],
    /// Offset of channel 0, row 0, column 0.
    at: usize,
    width: usize,
    plane: usize,
    dims: (usize, usize, usize),
    /// Stores go through ReLU.
    pub(super) relu: bool,
    /// Stores go through this mask (a gradient's, which has no ReLU).
    pub(super) mask: Option<Mask<'a>>,
}

/// A masked [`Sink`]'s store: `v · scale` (`.1`) where the forward planes
/// (`.0`) hold a value `> 0`, and `+0.0` elsewhere.
#[derive(Clone, Copy)]
pub(crate) struct Mask<'a>(View<'a>, f32);

impl Mask<'_> {
    /// Stores `src` into `dst`, the cells of row `y` of channel `ch` from
    /// column `x0` on.
    #[inline(always)]
    pub(crate) fn store<'v>(
        self,
        (ch, y, x0): (usize, usize, usize),
        dst: &mut [f32],
        src: impl IntoIterator<Item = &'v f32>,
    ) {
        let by = &self.0.row(ch, y)[x0..][..dst.len()];
        let cells = dst.iter_mut().zip(src).zip(by);
        cells.for_each(|((d, v), m)| *d = keep_if(*m > 0.0, v * self.1));
    }
}

/// `v` where `keep`, `+0.0` elsewhere: `if keep { v } else { 0.0 }`, bit
/// for bit, as a mask on the bits. The `if` compiles to a jump per cell,
/// which a ReLU mask mispredicts half the time; the mask stays in lanes.
#[inline(always)]
pub(crate) fn keep_if(keep: bool, v: f32) -> f32 {
    f32::from_bits(v.to_bits() & u32::from(keep).wrapping_neg())
}

impl<'a> Sink<'a> {
    /// `out` as `dims = (c, h, w)` row-major planes, stored as computed.
    ///
    /// # Panics
    /// Panics unless `out` holds exactly `c · h · w` values.
    pub fn plain(out: &'a mut [f32], dims: (usize, usize, usize)) -> Self {
        let (c, h, w) = dims;
        assert_eq!(out.len(), c * h * w, "sink length mismatch");
        Self {
            data: out,
            at: 0,
            width: w,
            plane: h * w,
            dims,
            relu: false,
            mask: None,
        }
    }

    /// Channels `ch0..ch0 + c` of `planes`' interior, stored as computed.
    ///
    /// # Panics
    /// Panics when the channels run past the planes.
    pub fn planes(planes: &'a mut Planes, ch0: usize, c: usize) -> Self {
        let (pc, h, w) = planes.dims;
        assert!(ch0 + c <= pc, "sink channels past the planes");
        let (at, width, plane) = (planes.at(ch0, 0), planes.width(), planes.plane());
        Self {
            data: &mut planes.data,
            at,
            width,
            plane,
            dims: (c, h, w),
            relu: false,
            mask: None,
        }
    }

    /// This sink, storing `max(0, v)` for every `v`.
    pub fn through_relu(self) -> Self {
        Self { relu: true, ..self }
    }

    /// This sink, storing a gradient (bias-free) into channel `ch` as
    /// `v · scale` where channel `ch` of the forward planes `by` holds a
    /// value `> 0`, and `+0.0` elsewhere. On planes a ReLU, then dropout
    /// (survivors times `scale ≥ 1`), stored into, that is `relu_backward`
    /// after `dropout_backward`; `scale` 1 (no dropout) multiplies exactly.
    ///
    /// # Panics
    /// Panics unless `by` has this sink's side and at least its channels.
    pub fn through_mask(self, by: &'a Planes, scale: f32) -> Self {
        let ((c, h, w), (bc, bh, bw)) = (self.dims, by.dims());
        assert!(c <= bc && (h, w) == (bh, bw), "mask planes mismatch");
        let mask = Some(Mask(by.view(), scale));
        Self { mask, ..self }
    }

    /// `(c, h, w)` of what this sink takes.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// The `n` cells of row `y` of channel `ch` from column `x0` on.
    #[inline(always)]
    pub(crate) fn cells(&mut self, ch: usize, y: usize, x0: usize, n: usize) -> &mut [f32] {
        &mut self.data[self.at + ch * self.plane + y * self.width + x0..][..n]
    }

    /// Stores `src` (`c` planes of `h × w`, row-major).
    ///
    /// # Panics
    /// Panics unless `src` holds exactly what the sink takes.
    pub fn put(&mut self, src: &[f32]) {
        let (c, h, w) = self.dims;
        assert_eq!(src.len(), c * h * w, "sink put length mismatch");
        for (i, row) in src.chunks_exact(w.max(1)).enumerate() {
            self.put_row(i / h, i % h, row);
        }
    }

    /// Stores `row` as row `y` of channel `ch`.
    pub(crate) fn put_row(&mut self, ch: usize, y: usize, row: &[f32]) {
        let (relu, mask) = (self.relu, self.mask);
        let dst = self.cells(ch, y, 0, row.len());
        match (relu, mask) {
            (_, Some(m)) => m.store((ch, y, 0), dst, row),
            (true, None) => dst.iter_mut().zip(row).for_each(|(d, &v)| *d = v.max(0.0)),
            (false, None) => dst.copy_from_slice(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_writes_the_interior_and_leaves_the_border_zero() {
        let src: Vec<f32> = (1..=12).map(|v| v as f32).collect();
        let planes = Planes::haloed(&src, (2, 2, 3), 1);
        assert_eq!(planes.interior(), src);
        assert_eq!(planes.width(), 5);
        let border: f32 = planes.data().iter().sum::<f32>() - src.iter().sum::<f32>();
        assert_eq!(border, 0.0);
        assert_eq!(planes.row(1, 0), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn a_relu_sink_stores_into_its_channels_only() {
        let mut planes = Planes::new((3, 2, 2), 1);
        Sink::planes(&mut planes, 1, 2)
            .through_relu()
            .put(&[-1.0, 2.0, -0.5, 4.0, 5.0, -6.0, 7.0, 8.0]);
        assert_eq!(
            planes.interior(),
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 4.0, 5.0, 0.0, 7.0, 8.0]
        );
        assert_eq!(planes.data().iter().filter(|v| **v != 0.0).count(), 5);
    }
}
