//! Accuracy, precision, recall, and F1 derived from a confusion matrix
//! (the Table IV metrics).

use crate::confusion::ConfusionMatrix;

/// Per-class and aggregate classification metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassificationReport {
    /// Overall accuracy.
    pub accuracy: f64,
    /// Per-class precision: `TP / (TP + FP)` (0 when the class was never
    /// predicted).
    pub precision: Vec<f64>,
    /// Per-class recall: `TP / (TP + FN)` (0 when the class never occurs).
    pub recall: Vec<f64>,
    /// Per-class F1: harmonic mean of precision and recall.
    pub f1: Vec<f64>,
    /// Macro-averaged precision (unweighted class mean).
    pub macro_precision: f64,
    /// Macro-averaged recall.
    pub macro_recall: f64,
    /// Macro-averaged F1.
    pub macro_f1: f64,
}

/// Computes the full report from an accumulated confusion matrix.
pub fn classification_report(m: &ConfusionMatrix) -> ClassificationReport {
    let n = m.num_classes();
    let pred_totals = m.pred_totals();
    let truth_totals = m.truth_totals();

    let mut precision = Vec::with_capacity(n);
    let mut recall = Vec::with_capacity(n);
    let mut f1 = Vec::with_capacity(n);
    for c in 0..n {
        let tp = m.count(c, c) as f64;
        let p = if pred_totals[c] == 0 {
            0.0
        } else {
            tp / pred_totals[c] as f64
        };
        let r = if truth_totals[c] == 0 {
            0.0
        } else {
            tp / truth_totals[c] as f64
        };
        let f = if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        };
        precision.push(p);
        recall.push(r);
        f1.push(f);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    ClassificationReport {
        accuracy: m.accuracy(),
        macro_precision: mean(&precision),
        macro_recall: mean(&recall),
        macro_f1: mean(&f1),
        precision,
        recall,
        f1,
    }
}

/// Per-class intersection-over-union (Jaccard index) from a confusion
/// matrix: `IoU_c = TP / (TP + FP + FN)`. Absent classes score 0.
pub fn iou(m: &ConfusionMatrix) -> Vec<f64> {
    let n = m.num_classes();
    let pred_totals = m.pred_totals();
    let truth_totals = m.truth_totals();
    (0..n)
        .map(|c| {
            let tp = m.count(c, c) as f64;
            let union = pred_totals[c] as f64 + truth_totals[c] as f64 - tp;
            if union == 0.0 {
                0.0
            } else {
                tp / union
            }
        })
        .collect()
}

/// Mean IoU over classes (the standard segmentation summary metric).
pub fn mean_iou(m: &ConfusionMatrix) -> f64 {
    let v = iou(m);
    v.iter().sum::<f64>() / v.len() as f64
}

/// Per-class Dice coefficient: `2·TP / (2·TP + FP + FN)` — equivalent to
/// the per-class F1 computed from pixel counts.
pub fn dice(m: &ConfusionMatrix) -> Vec<f64> {
    iou(m)
        .into_iter()
        .map(|j| if j == 0.0 { 0.0 } else { 2.0 * j / (1.0 + j) })
        .collect()
}

impl ClassificationReport {
    /// Renders a compact single-line summary (`acc/P/R/F1` in percent).
    pub fn summary(&self) -> String {
        format!(
            "accuracy {:.2}%  precision {:.2}%  recall {:.2}%  F1 {:.2}%",
            self.accuracy * 100.0,
            self.macro_precision * 100.0,
            self.macro_recall * 100.0,
            self.macro_f1 * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(entries: &[(usize, usize)]) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(3);
        for &(p, t) in entries {
            m.record(p, t);
        }
        m
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let m = matrix(&[(0, 0), (1, 1), (2, 2), (0, 0)]);
        let r = classification_report(&m);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.macro_precision, 1.0);
        assert_eq!(r.macro_recall, 1.0);
        assert_eq!(r.macro_f1, 1.0);
    }

    #[test]
    fn precision_and_recall_differ_correctly() {
        // Class 0: 2 TP, 1 FP (pred 0 truth 1), 1 FN (pred 1 truth 0).
        let m = matrix(&[(0, 0), (0, 0), (0, 1), (1, 0), (2, 2)]);
        let r = classification_report(&m);
        assert!((r.precision[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.recall[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.f1[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absent_class_gets_zero_not_nan() {
        let m = matrix(&[(0, 0), (1, 1)]); // class 2 never appears
        let r = classification_report(&m);
        assert_eq!(r.precision[2], 0.0);
        assert_eq!(r.recall[2], 0.0);
        assert_eq!(r.f1[2], 0.0);
        assert!(r.macro_f1.is_finite());
    }

    #[test]
    fn f1_is_harmonic_mean() {
        // Build precision 1.0, recall 0.5 for class 0:
        // 1 TP, 0 FP, 1 FN.
        let m = matrix(&[(0, 0), (1, 0), (1, 1)]);
        let r = classification_report(&m);
        assert!((r.precision[0] - 1.0).abs() < 1e-12);
        assert!((r.recall[0] - 0.5).abs() < 1e-12);
        assert!((r.f1[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn iou_of_perfect_prediction_is_one() {
        let m = matrix(&[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(iou(&m), vec![1.0, 1.0, 1.0]);
        assert_eq!(mean_iou(&m), 1.0);
        assert_eq!(dice(&m), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn iou_counts_fp_and_fn_in_the_union() {
        // Class 0: TP=2, FP=1 (pred 0 truth 1), FN=1 (pred 1 truth 0).
        let m = matrix(&[(0, 0), (0, 0), (0, 1), (1, 0)]);
        let j = iou(&m);
        assert!((j[0] - 2.0 / 4.0).abs() < 1e-12);
        // Dice = 2J/(1+J).
        let d = dice(&m);
        assert!((d[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn absent_class_iou_is_zero() {
        let m = matrix(&[(0, 0)]);
        assert_eq!(iou(&m)[2], 0.0);
        assert_eq!(dice(&m)[2], 0.0);
        assert!(mean_iou(&m).is_finite());
    }

    #[test]
    fn iou_never_exceeds_recall_or_precision() {
        let m = matrix(&[(0, 0), (0, 0), (0, 1), (1, 0), (2, 2), (1, 1)]);
        let r = classification_report(&m);
        for (c, &j) in iou(&m).iter().enumerate() {
            assert!(j <= r.precision[c] + 1e-12);
            assert!(j <= r.recall[c] + 1e-12);
        }
    }

    #[test]
    fn summary_mentions_all_metrics() {
        let m = matrix(&[(0, 0), (1, 1), (2, 2)]);
        let s = classification_report(&m).summary();
        assert!(s.contains("accuracy 100.00%"));
        assert!(s.contains("F1 100.00%"));
    }
}
