//! Small dense linear algebra for the MNA solver.
//!
//! Circuit matrices of the Fig. 2 cells are tiny (tens of unknowns), so a
//! dense LU with partial pivoting is both simple and fast.

/// A dense square matrix in row-major order.
#[derive(Debug, Clone)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero-filled `n × n` matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Add `v` to element `(r, c)` — the stamping primitive.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] += v;
    }

    /// Reset all entries to zero (reuse between Newton iterations).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Solve `A x = b` in place via LU with partial pivoting.
    ///
    /// Returns `None` when the matrix is numerically singular.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivot.
            let mut best = col;
            let mut best_abs = a[perm[col] * n + col].abs();
            for r in (col + 1)..n {
                let v = a[perm[r] * n + col].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs < 1e-300 {
                return None;
            }
            perm.swap(col, best);
            let p = perm[col];
            let pivot = a[p * n + col];
            for &rr in &perm[(col + 1)..n] {
                let factor = a[rr * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[rr * n + col] = factor;
                for c in (col + 1)..n {
                    a[rr * n + c] -= factor * a[p * n + c];
                }
            }
        }

        // Forward substitution on the permuted RHS.
        let mut y = vec![0.0f64; n];
        for r in 0..n {
            let mut acc = x[perm[r]];
            for c in 0..r {
                acc -= a[perm[r] * n + c] * y[c];
            }
            y[r] = acc;
        }
        // Back substitution.
        for r in (0..n).rev() {
            let mut acc = y[r];
            for c in (r + 1)..n {
                acc -= a[perm[r] * n + c] * x[c];
            }
            x[r] = acc / a[perm[r] * n + r];
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m.add(i, i, 1.0);
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).expect("identity is regular");
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let mut m = Matrix::zeros(2);
        m.add(0, 0, 2.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 3.0);
        let x = m.solve(&[3.0, 5.0]).expect("regular");
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 7] -> x = [7, 2]
        let mut m = Matrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let x = m.solve(&[2.0, 7.0]).expect("regular with pivoting");
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = Matrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn random_round_trip() {
        // A diagonally dominant random-ish matrix: solve then multiply back.
        let n = 8;
        let mut m = Matrix::zeros(n);
        let mut seed = 12345u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for r in 0..n {
            for c in 0..n {
                m.add(r, c, rnd());
            }
            m.add(r, r, 8.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let x = m.solve(&b).expect("dominant");
        for (r, &b_r) in b.iter().enumerate() {
            let acc: f64 = x.iter().enumerate().map(|(c, x_c)| m.get(r, c) * x_c).sum();
            assert!((acc - b_r).abs() < 1e-9, "row {r}: {acc} vs {b_r}");
        }
    }
}
