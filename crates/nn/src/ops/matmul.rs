//! Dense matrix multiplication with a cache-friendly i-k-j loop order (the
//! inner loop streams rows of `B`), parallel over output rows through
//! `seaice_exec::par` (from 256 rows, on a multi-core host).
//!
//! Since the direct kernels in [`conv2d`](mod@crate::ops::conv2d) these three
//! products are the reference lowering — the bit-exact test oracle and a
//! line of the benchmark's per-layer walk; the library calls them only for
//! the geometries `Conv2dShape::is_direct` excludes.

use crate::tensor::Tensor;
use seaice_exec::par;

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// # Panics
/// Panics unless both inputs are 2-D with matching inner dimension.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (k2, n) = dims2(b);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut c = Tensor::zeros(&[m, n]);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let row_op = |i: usize, c_row: &mut [f32]| {
        for kk in 0..k {
            let aik = a_data[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &b_data[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    };
    par::chunks_mut(c.as_mut_slice(), n, row_op);
    c
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` without materializing the transpose.
///
/// # Panics
/// Panics unless both inputs are 2-D with matching leading dimension.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a);
    let (m2, n) = dims2(b);
    assert_eq!(m, m2, "matmul_at_b leading dimension mismatch");
    let mut c = Tensor::zeros(&[k, n]);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    // C[kk, :] += A[i, kk] * B[i, :] — accumulate row-wise over i.
    // Each output row makes its own pass over i.
    let row_op = |kk: usize, c_row: &mut [f32]| {
        for i in 0..m {
            let a_ik = a_data[i * k + kk];
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b_data[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += a_ik * bv;
            }
        }
    };
    par::chunks_mut(c.as_mut_slice(), n, row_op);
    c
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` without materializing the transpose
/// (`B` is `[k,n]`).
///
/// # Panics
/// Panics unless both inputs are 2-D with matching trailing dimension.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = dims2(a);
    let (k, n2) = dims2(b);
    assert_eq!(n, n2, "matmul_a_bt trailing dimension mismatch");
    let mut c = Tensor::zeros(&[m, k]);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let row_op = |i: usize, c_row: &mut [f32]| {
        let a_row = &a_data[i * n..(i + 1) * n];
        for (kk, cv) in c_row.iter_mut().enumerate() {
            let b_row = &b_data[kk * n..(kk + 1) * n];
            let mut acc = 0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *cv = acc;
        }
    };
    par::chunks_mut(c.as_mut_slice(), k, row_op);
    c
}

fn dims2(t: &Tensor) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "expected a 2-D tensor, got {s:?}");
    (s[0], s[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0f32;
                for kk in 0..k {
                    acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
                }
                c.as_mut_slice()[i * n + j] = acc;
            }
        }
        c
    }

    fn arb(shape: &[usize], seed: u64) -> Tensor {
        crate::init::uniform(shape, -1.0, 1.0, seed)
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matches_naive_on_rectangles() {
        let a = arb(&[7, 13], 1);
        let b = arb(&[13, 5], 2);
        let c = matmul(&a, &b);
        let r = naive(&a, &b);
        for (x, y) in c.as_slice().iter().zip(r.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn parallel_path_matches_naive() {
        // 300 output rows: enough for `par` to fork on a multi-core host.
        let a = arb(&[300, 40], 3);
        let b = arb(&[40, 21], 4);
        let c = matmul(&a, &b);
        let r = naive(&a, &b);
        for (x, y) in c.as_slice().iter().zip(r.as_slice()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = arb(&[6, 4], 5);
        let b = arb(&[6, 7], 6);
        // Explicit Aᵀ.
        let mut at = Tensor::zeros(&[4, 6]);
        for i in 0..6 {
            for j in 0..4 {
                at.as_mut_slice()[j * 6 + i] = a.as_slice()[i * 4 + j];
            }
        }
        let fast = matmul_at_b(&a, &b);
        let slow = matmul(&at, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = arb(&[5, 8], 7);
        let b = arb(&[3, 8], 8);
        let mut bt = Tensor::zeros(&[8, 3]);
        for i in 0..3 {
            for j in 0..8 {
                bt.as_mut_slice()[j * 3 + i] = b.as_slice()[i * 8 + j];
            }
        }
        let fast = matmul_a_bt(&a, &b);
        let slow = matmul(&a, &bt);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = arb(&[4, 4], 9);
        let mut id = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            id.as_mut_slice()[i * 4 + i] = 1.0;
        }
        let c = matmul(&a, &id);
        for (x, y) in c.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
