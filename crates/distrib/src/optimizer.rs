//! `DistributedOptimizer` — the `opt = hvd.DistributedOptimizer(opt)`
//! analog: averages gradients across ranks with ring all-reduce before
//! delegating to the wrapped optimizer.

use crate::group::{CollectiveError, Rank};
use seaice_nn::layers::Param;
use seaice_nn::optim::Optimizer;

/// Wraps an optimizer with gradient synchronization. Every rank must call
/// `step` at the same time with identically shaped parameter lists; after
/// the call all replicas applied the same averaged gradients.
pub struct DistributedOptimizer<'g, O> {
    inner: O,
    rank: &'g Rank,
}

impl<'g, O: Optimizer> DistributedOptimizer<'g, O> {
    /// Wraps `inner` for the given rank endpoint.
    pub fn new(inner: O, rank: &'g Rank) -> Self {
        Self { inner, rank }
    }

    /// Fallible [`step`](Optimizer::step): synchronizes gradients with
    /// the fallible all-reduce and reports a lost peer instead of
    /// panicking. On error no parameter is updated — the replica's
    /// weights still equal the last completed step, so the surviving rank
    /// can unwind and resume from a checkpoint.
    ///
    /// # Errors
    /// [`CollectiveError`] when a peer rank disappeared mid-sync.
    pub fn try_step(&mut self, params: &mut [&mut Param]) -> Result<(), CollectiveError> {
        // Fuse all gradients into one buffer so the ring runs once per
        // step (Horovod batches tensors the same way for bandwidth).
        let total: usize = params.iter().map(|p| p.grad.len()).sum();
        let mut fused = Vec::with_capacity(total);
        for p in params.iter() {
            fused.extend_from_slice(p.grad.as_slice());
        }
        self.rank.try_all_reduce_mean(&mut fused)?;
        let mut offset = 0;
        for p in params.iter_mut() {
            let len = p.grad.len();
            p.grad
                .as_mut_slice()
                .copy_from_slice(&fused[offset..offset + len]);
            offset += len;
        }
        self.inner.step(params);
        Ok(())
    }
}

impl<O: Optimizer> Optimizer for DistributedOptimizer<'_, O> {
    fn step(&mut self, params: &mut [&mut Param]) {
        if let Err(e) = self.try_step(params) {
            // seaice-lint: allow(panic-in-library) reason="the Optimizer trait's step is infallible by signature; try_step is the fallible path, and a collective failure here means a peer already panicked"
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProcessGroup;
    use seaice_nn::optim::Sgd;
    use seaice_nn::Tensor;

    fn param(vals: &[f32]) -> Param {
        Param {
            value: Tensor::from_vec(&[vals.len()], vals.to_vec()),
            grad: Tensor::zeros(&[vals.len()]),
        }
    }

    #[test]
    fn step_applies_rank_averaged_gradients() {
        let ranks = ProcessGroup::new(4);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                std::thread::spawn(move || {
                    let mut p = param(&[1.0, 1.0]);
                    // Rank r's local gradient is r+1; the average is 2.5.
                    p.grad.as_mut_slice().fill(rank.rank() as f32 + 1.0);
                    let mut opt = DistributedOptimizer::new(Sgd::new(1.0, 0.0), &rank);
                    opt.step(&mut [&mut p]);
                    p.value.as_slice().to_vec()
                })
            })
            .collect();
        for h in handles {
            let v = h.join().unwrap();
            // w = 1 − lr · mean(grad) = 1 − 2.5.
            assert!(v.iter().all(|&x| (x - (1.0 - 2.5)).abs() < 1e-6));
        }
    }

    #[test]
    fn replicas_stay_in_lockstep_over_steps() {
        let ranks = ProcessGroup::new(3);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                std::thread::spawn(move || {
                    let mut a = param(&[0.0]);
                    let mut b = param(&[10.0]);
                    let mut opt = DistributedOptimizer::new(Sgd::new(0.1, 0.0), &rank);
                    for step in 0..5 {
                        a.grad.as_mut_slice()[0] = (rank.rank() + step) as f32;
                        b.grad.as_mut_slice()[0] = -((rank.rank() * step) as f32);
                        opt.step(&mut [&mut a, &mut b]);
                    }
                    (a.value.as_slice()[0], b.value.as_slice()[0])
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in &results[1..] {
            assert_eq!(*w, results[0], "replicas diverged");
        }
    }

    #[test]
    fn multi_param_fusion_preserves_boundaries() {
        let ranks = ProcessGroup::new(2);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                std::thread::spawn(move || {
                    let mut a = param(&[0.0; 3]);
                    let mut b = param(&[0.0; 5]);
                    let ra = rank.rank() as f32;
                    a.grad.as_mut_slice().fill(ra);
                    b.grad.as_mut_slice().fill(10.0 + ra);
                    let mut opt = DistributedOptimizer::new(Sgd::new(1.0, 0.0), &rank);
                    opt.step(&mut [&mut a, &mut b]);
                    (a.value.as_slice().to_vec(), b.value.as_slice().to_vec())
                })
            })
            .collect();
        for h in handles {
            let (a, b) = h.join().unwrap();
            assert!(a.iter().all(|&v| (v + 0.5).abs() < 1e-6), "a got {a:?}");
            assert!(b.iter().all(|&v| (v + 10.5).abs() < 1e-6), "b got {b:?}");
        }
    }
}
