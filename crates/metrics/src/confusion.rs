//! Confusion-matrix accumulation and normalization.
//!
//! Following the paper's convention (§IV-A): "The number of samples
//! predicted in category A over the number of samples in category B is
//! specified as an element of the matrix in row A and column B … each
//! column adds up to a total of 100 %." Rows are predictions, columns are
//! ground truth, and normalization is per column.

use seaice_imgproc::buffer::Image;

/// A dense confusion matrix over `n` classes. `counts[pred][truth]` is the
/// number of samples of true class `truth` predicted as `pred`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `n` classes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one class");
        Self {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.n
    }

    /// Records one sample.
    ///
    /// # Panics
    /// Panics if either class index is out of range.
    #[inline]
    pub fn record(&mut self, pred: usize, truth: usize) {
        assert!(pred < self.n && truth < self.n, "class index out of range");
        self.counts[pred * self.n + truth] += 1;
    }

    /// Accumulates every pixel of a predicted mask against a truth mask.
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range class values.
    pub fn record_masks(&mut self, pred: &Image<u8>, truth: &Image<u8>) {
        assert_eq!(pred.dimensions(), truth.dimensions(), "mask size mismatch");
        assert_eq!(pred.channels(), 1, "pred mask must be single-channel");
        assert_eq!(truth.channels(), 1, "truth mask must be single-channel");
        for (&p, &t) in pred.as_slice().iter().zip(truth.as_slice()) {
            self.record(p as usize, t as usize);
        }
    }

    /// Raw count at `(pred, truth)`.
    pub fn count(&self, pred: usize, truth: usize) -> u64 {
        self.counts[pred * self.n + truth]
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Column (true-class) totals.
    pub fn truth_totals(&self) -> Vec<u64> {
        (0..self.n)
            .map(|t| (0..self.n).map(|p| self.count(p, t)).sum())
            .collect()
    }

    /// Row (predicted-class) totals.
    pub fn pred_totals(&self) -> Vec<u64> {
        (0..self.n)
            .map(|p| (0..self.n).map(|t| self.count(p, t)).sum())
            .collect()
    }

    /// Overall accuracy: diagonal mass over total.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.n).map(|i| self.count(i, i)).sum();
        diag as f64 / total as f64
    }

    /// The paper's Fig. 13 normalization: each column (true class) scaled
    /// to sum to 1. Columns with no samples are all zeros.
    pub fn column_normalized(&self) -> Vec<Vec<f64>> {
        let totals = self.truth_totals();
        (0..self.n)
            .map(|p| {
                (0..self.n)
                    .map(|t| {
                        if totals[t] == 0 {
                            0.0
                        } else {
                            self.count(p, t) as f64 / totals[t] as f64
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Renders the column-normalized matrix as a small text table with
    /// class names, for harness output.
    pub fn to_table(&self, class_names: &[&str]) -> String {
        assert_eq!(class_names.len(), self.n, "class name arity mismatch");
        let norm = self.column_normalized();
        let mut s = String::new();
        s.push_str(&format!("{:>14} |", "pred \\ true"));
        for name in class_names {
            s.push_str(&format!(" {:>11}", name));
        }
        s.push('\n');
        for (p, name) in class_names.iter().enumerate() {
            s.push_str(&format!("{name:>14} |"));
            for cell in norm[p].iter().take(self.n) {
                s.push_str(&format!(" {:>10.2}%", cell * 100.0));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ConfusionMatrix {
        // truth: 0 0 0 1 1 2; pred: 0 0 1 1 1 2
        let mut m = ConfusionMatrix::new(3);
        for (p, t) in [(0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (2, 2)] {
            m.record(p, t);
        }
        m
    }

    #[test]
    fn counts_and_totals() {
        let m = sample_matrix();
        assert_eq!(m.total(), 6);
        assert_eq!(m.count(0, 0), 2);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.truth_totals(), vec![3, 2, 1]);
        assert_eq!(m.pred_totals(), vec![2, 3, 1]);
    }

    #[test]
    fn accuracy_is_diagonal_fraction() {
        let m = sample_matrix();
        assert!((m.accuracy() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_accuracy_is_zero() {
        assert_eq!(ConfusionMatrix::new(3).accuracy(), 0.0);
    }

    #[test]
    fn columns_normalize_to_one() {
        let m = sample_matrix();
        let norm = m.column_normalized();
        for t in 0..3usize {
            let col_sum: f64 = norm.iter().take(3).map(|row| row[t]).sum();
            assert!(
                (col_sum - 1.0).abs() < 1e-12,
                "column {t} sums to {col_sum}"
            );
        }
        assert!((norm[0][0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((norm[1][0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_column_stays_zero() {
        let mut m = ConfusionMatrix::new(3);
        m.record(0, 0);
        let norm = m.column_normalized();
        assert_eq!(norm[0][2], 0.0);
        assert_eq!(norm[2][2], 0.0);
    }

    #[test]
    fn record_masks_accumulates_pixels() {
        let pred = Image::from_vec(3, 1, 1, vec![0u8, 1, 2]);
        let truth = Image::from_vec(3, 1, 1, vec![0u8, 0, 2]);
        let mut m = ConfusionMatrix::new(3);
        m.record_masks(&pred, &truth);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.count(2, 2), 1);
    }

    #[test]
    #[should_panic(expected = "class index out of range")]
    fn out_of_range_class_panics() {
        ConfusionMatrix::new(2).record(2, 0);
    }

    #[test]
    fn table_render_contains_percentages() {
        let m = sample_matrix();
        let table = m.to_table(&["thick", "thin", "water"]);
        assert!(table.contains("thick"));
        assert!(table.contains("66.67%"));
        assert!(table.contains("100.00%"));
    }
}
