//! Activation functions.

use crate::tensor::Tensor;

/// Element-wise rectified linear unit: `max(0, x)`.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// ReLU gradient: passes `grad_out` where the *input* was positive. The
    /// oracle of a masked `Sink`'s store, which is how training runs it.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn relu_backward(input: &Tensor, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            grad_out.shape(),
            "relu gradient shape mismatch"
        );
        let data = input
            .as_slice()
            .iter()
            .zip(grad_out.as_slice())
            .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
            .collect();
        Tensor::from_vec(input.shape(), data)
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(&[4], vec![-2.0, -0.0, 0.5, 3.0]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn relu_backward_gates_on_input_sign() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 1.0, 2.0]);
        let g = Tensor::full(&[4], 5.0);
        assert_eq!(relu_backward(&x, &g).as_slice(), &[0.0, 0.0, 5.0, 5.0]);
    }
}
