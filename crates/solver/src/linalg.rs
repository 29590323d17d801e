//! Small dense matrices and LU solves.
//!
//! The KKT systems produced by the C²-Bound optimizer are tiny (5–7
//! unknowns: `A0, A1, A2, λ, N` plus extensions), so a straightforward
//! row-major dense matrix with partially-pivoted LU is the right tool —
//! no external linear-algebra dependency required.

use crate::{Error, Result};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice of slices.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(Error::DimensionMismatch {
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Set every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Become the `rows × cols` zero matrix, reusing the storage.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(Error::DimensionMismatch {
                expected: self.cols,
                actual: v.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Solve `A x = b` by LU with partial pivoting. `A` must be square.
    ///
    /// Factors a copy of the matrix; `self` is unchanged.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x, &mut Vec::new())?;
        Ok(x)
    }

    /// [`Matrix::solve`] without allocating: `x` holds `b` on entry and
    /// the solution on success, and the factors are built in `lu`, whose
    /// old contents are discarded (a buffer reused across solves of one
    /// size grows once).
    pub(crate) fn solve_in_place(&self, x: &mut [f64], lu: &mut Vec<f64>) -> Result<()> {
        if self.rows != self.cols {
            return Err(Error::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if x.len() != self.rows {
            return Err(Error::DimensionMismatch {
                expected: self.rows,
                actual: x.len(),
            });
        }
        let n = self.rows;
        lu.clear();
        lu.extend_from_slice(&self.data);
        let a = lu.as_mut_slice();
        // Forward elimination with partial pivoting.
        for col in 0..n {
            // Pivot selection.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 || !pivot_val.is_finite() {
                return Err(Error::SingularMatrix);
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor != 0.0 {
                    for c in col..n {
                        a[r * n + c] -= factor * a[col * n + c];
                    }
                    x[r] -= factor * x[col];
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in (col + 1)..n {
                s -= a[col * n + c] * x[c];
            }
            let d = a[col * n + col];
            if d.abs() < 1e-300 {
                return Err(Error::SingularMatrix);
            }
            x[col] = s / d;
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue);
        }
        Ok(())
    }

    /// Infinity norm of the matrix (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let i = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = i.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), Error::SingularMatrix);
    }

    #[test]
    fn residual_is_small_for_random_spd_like_systems() {
        // Deterministic pseudo-random diagonally-dominant systems.
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for n in [3usize, 5, 8] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += n as f64; // diagonal dominance
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.solve(&b).unwrap();
            let ax = a.mul_vec(&x).unwrap();
            let res: f64 = ax
                .iter()
                .zip(&b)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max);
            assert!(res < 1e-10, "n={n} residual {res}");
        }
    }

    #[test]
    fn dimension_mismatches_error() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        let sq = Matrix::identity(2);
        assert!(matches!(
            sq.solve(&[1.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            sq.mul_vec(&[1.0, 2.0, 3.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((norm_inf(&[-7.0, 4.0]) - 7.0).abs() < 1e-12);
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]).unwrap();
        assert!((m.norm_inf() - 3.5).abs() < 1e-12);
    }
}
