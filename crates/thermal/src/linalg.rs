//! Minimal dense linear algebra for small thermal networks.
//!
#![allow(clippy::needless_range_loop)] // dense small-matrix kernels index by design
//! Thermal networks in this workspace have a handful of nodes (four dies, a
//! package, a heatsink), so a straightforward Gaussian elimination with
//! partial pivoting is both sufficient and dependency-free.

/// A small dense square matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n x n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    #[cfg(test)]
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    pub(crate) fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    pub(crate) fn add_to(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` if the matrix is (numerically) singular.
    pub(crate) fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot: largest magnitude in this column at or below
            // the diagonal.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| a[r1 * n + col].abs().total_cmp(&a[r2 * n + col].abs()))
                .unwrap_or(col);
            let pivot = a[pivot_row * n + col];
            if pivot.abs() < 1e-30 {
                return None;
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                // Exact zero-skip on purpose: a no-op fast path, while any nonzero
                // factor (however tiny) must still be eliminated for correctness.
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * x[k];
            }
            x[col] = sum / a[col * n + col];
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solves_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // 0x + y = 2; x + 0y = 3 -> needs a row swap.
        let mut m = Matrix::zeros(2);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let mut m = Matrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 2.0);
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }

    proptest! {
        /// For diagonally dominant matrices (which conductance matrices
        /// are), solve() residual is tiny.
        #[test]
        fn prop_residual_small(
            n in 2usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = dimetrodon_sim_core::SimRng::new(seed);
            let mut m = Matrix::zeros(n);
            for i in 0..n {
                let mut off_sum = 0.0;
                for j in 0..n {
                    if i != j {
                        let v = rng.uniform();
                        m.set(i, j, -v);
                        off_sum += v;
                    }
                }
                m.set(i, i, off_sum + rng.uniform_range(0.1, 2.0));
            }
            let b: Vec<f64> = (0..n).map(|_| rng.uniform_range(-10.0, 10.0)).collect();
            let x = m.solve(&b).expect("diagonally dominant => solvable");
            for i in 0..n {
                let mut ax = 0.0;
                for j in 0..n {
                    ax += m.get(i, j) * x[j];
                }
                prop_assert!((ax - b[i]).abs() < 1e-8, "row {} residual {}", i, ax - b[i]);
            }
        }
    }
}
