//! Optimizers: SGD (baseline) and Adam (the paper's choice).

use crate::layers::Param;

/// A gradient-descent optimizer updating a set of parameters in place.
pub trait Optimizer {
    /// Applies one update step from each parameter's accumulated gradient,
    /// then leaves the gradients untouched (callers zero them).
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        for (p, vel) in params.iter_mut().zip(&mut self.velocity) {
            assert_eq!(vel.len(), p.value.len(), "parameter shape changed");
            for ((w, &g), v) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice())
                .zip(vel.iter_mut())
            {
                *v = self.momentum * *v - self.lr * g;
                *w += *v;
            }
        }
    }
}

/// Adam (Kingma & Ba 2014), the optimizer the paper trains its U-Net
/// with. Standard bias-corrected first/second moment estimates.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate (paper-typical 1e-3).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            assert_eq!(m.len(), p.value.len(), "parameter shape changed");
            for (((w, &g), mi), vi) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn quadratic_param(x0: f32) -> Param {
        Param {
            value: Tensor::from_vec(&[1], vec![x0]),
            grad: Tensor::zeros(&[1]),
        }
    }

    /// Minimizes f(x) = x² with the given optimizer; returns final |x|.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut p = quadratic_param(5.0);
        for _ in 0..steps {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * x;
            opt.step(&mut [&mut p]);
        }
        p.value.as_slice()[0].abs()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1, 0.0);
        assert!(minimize(&mut sgd, 100) < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::new(0.01, 0.0);
        let mut momo = Sgd::new(0.01, 0.9);
        let slow = minimize(&mut plain, 30);
        let fast = minimize(&mut momo, 30);
        assert!(fast < slow, "momentum {fast} vs plain {slow}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.3);
        assert!(minimize(&mut adam, 200) < 1e-2);
        assert_eq!(adam.steps(), 200);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step ≈ lr·sign(g).
        let mut adam = Adam::new(0.001);
        let mut p = quadratic_param(1.0);
        p.grad.as_mut_slice()[0] = 123.0;
        adam.step(&mut [&mut p]);
        let moved = 1.0 - p.value.as_slice()[0];
        assert!((moved - 0.001).abs() < 1e-5, "first step {moved}");
    }

    #[test]
    fn optimizers_handle_multiple_params() {
        let mut adam = Adam::new(0.1);
        let mut a = quadratic_param(2.0);
        let mut b = quadratic_param(-3.0);
        for _ in 0..300 {
            let (xa, xb) = (a.value.as_slice()[0], b.value.as_slice()[0]);
            a.grad.as_mut_slice()[0] = 2.0 * xa;
            b.grad.as_mut_slice()[0] = 2.0 * xb;
            adam.step(&mut [&mut a, &mut b]);
        }
        assert!(a.value.as_slice()[0].abs() < 0.05);
        assert!(b.value.as_slice()[0].abs() < 0.05);
    }
}
