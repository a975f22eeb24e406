//! The 256-bin histogram Otsu thresholding is computed from.

use crate::buffer::Image;

/// 256-bin histogram of a single-channel 8-bit image.
///
/// # Panics
/// Panics if `src` is not single-channel.
pub fn histogram_u8(src: &Image<u8>) -> [u64; 256] {
    assert_eq!(
        src.channels(),
        1,
        "histogram expects a single-channel image"
    );
    let mut hist = [0u64; 256];
    for &v in src.as_slice() {
        hist[v as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_values() {
        let img = Image::from_vec(4, 1, 1, vec![0u8, 0, 7, 255]);
        let h = histogram_u8(&img);
        assert_eq!(h[0], 2);
        assert_eq!(h[7], 1);
        assert_eq!(h[255], 1);
        assert_eq!(h.iter().sum::<u64>(), 4);
    }
}
