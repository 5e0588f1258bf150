//! Dynamically sized dense vectors and matrices with the factorizations
//! needed by the mass-matrix experiments (LDLᵀ, Cholesky).

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A dynamically sized dense vector.
///
/// # Example
/// ```
/// use rbd_spatial::VecN;
/// let v = VecN::from_vec(vec![1.0, 2.0, 2.0]);
/// assert_eq!(v.norm(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VecN {
    data: Vec<f64>,
}

impl VecN {
    /// Zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Wraps an existing `Vec<f64>`.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable slice access.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, rhs: &VecN) -> f64 {
        assert_eq!(self.len(), rhs.len(), "VecN::dot length mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Largest absolute entry (0 for the empty vector, NaN if any entry
    /// is NaN).
    pub fn max_abs(&self) -> f64 {
        crate::max_abs_of(&self.data)
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copies `other` into `self`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn copy_from(&mut self, other: &VecN) {
        assert_eq!(self.len(), other.len(), "VecN::copy_from length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Grows or shrinks to length `n` (new entries zero). A no-op when the
    /// length already matches, so steady-state reuse never reallocates.
    pub fn resize(&mut self, n: usize) {
        self.data.resize(n, 0.0);
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

impl Index<usize> for VecN {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for VecN {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &VecN {
    type Output = VecN;
    fn add(self, r: &VecN) -> VecN {
        assert_eq!(self.len(), r.len());
        VecN::from_vec(self.data.iter().zip(&r.data).map(|(a, b)| a + b).collect())
    }
}

impl Sub for &VecN {
    type Output = VecN;
    fn sub(self, r: &VecN) -> VecN {
        assert_eq!(self.len(), r.len());
        VecN::from_vec(self.data.iter().zip(&r.data).map(|(a, b)| a - b).collect())
    }
}

impl Neg for &VecN {
    type Output = VecN;
    fn neg(self) -> VecN {
        VecN::from_vec(self.data.iter().map(|a| -a).collect())
    }
}

impl Mul<f64> for &VecN {
    type Output = VecN;
    fn mul(self, s: f64) -> VecN {
        VecN::from_vec(self.data.iter().map(|a| a * s).collect())
    }
}

impl AddAssign<&VecN> for VecN {
    fn add_assign(&mut self, r: &VecN) {
        assert_eq!(self.len(), r.len());
        for (a, b) in self.data.iter_mut().zip(&r.data) {
            *a += b;
        }
    }
}

impl fmt::Display for VecN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

/// A dynamically sized dense row-major matrix.
///
/// # Example
/// ```
/// use rbd_spatial::{MatN, VecN};
/// let a = MatN::from_fn(2, 2, |i, j| if i == j { 2.0 } else { 1.0 });
/// let x = a.solve(&VecN::from_vec(vec![3.0, 3.0])).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatN {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl MatN {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transpose.
    pub fn transpose(&self) -> MatN {
        MatN::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_vec(&self, v: &VecN) -> VecN {
        assert_eq!(self.cols, v.len(), "MatN::mul_vec shape mismatch");
        let mut out = VecN::zeros(self.rows);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v.as_slice()).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Matrix-matrix product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_mat(&self, b: &MatN) -> MatN {
        assert_eq!(self.cols, b.rows, "MatN::mul_mat shape mismatch");
        let mut out = MatN::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += a * b[(k, j)];
                }
            }
        }
        out
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copies `other` into `self`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &MatN) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "MatN::copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Reshapes to `rows × cols`, zero-filled. A no-op (beyond the
    /// zeroing-free reuse of the existing buffer) when the shape already
    /// matches, so steady-state reuse never reallocates.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        if (self.rows, self.cols) != (rows, cols) {
            self.rows = rows;
            self.cols = cols;
            self.data.clear();
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Matrix-vector product written into `out` (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_vec_into(&self, v: &VecN, out: &mut VecN) {
        self.mul_slice_into(v.as_slice(), out.as_mut_slice());
    }

    /// Matrix-vector product over plain slices (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_slice_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(self.cols, v.len(), "MatN::mul_slice_into shape mismatch");
        assert_eq!(self.rows, out.len(), "MatN::mul_slice_into output length");
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// Matrix-matrix product written into `out` (no allocation), using the
    /// cache-friendly i-k-j loop order over the row-major storage.
    ///
    /// # Panics
    /// Panics on shape mismatch (`out` must be `self.rows × b.cols`).
    pub fn mul_mat_into(&self, b: &MatN, out: &mut MatN) {
        assert_eq!(self.cols, b.rows, "MatN::mul_mat_into shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, b.cols),
            "MatN::mul_mat_into output shape"
        );
        out.data.fill(0.0);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a * bv;
                }
            }
        }
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed product `out = selfᵀ · b` without materializing
    /// `selfᵀ`: the k-outer loop reads `self` and `b` row-major and
    /// issues one scaled-row accumulation per non-zero of `self`, so it
    /// skips the zeros [`Self::mul_mat_into`] skips after a transpose,
    /// with bit-identical results (same multiply pairs, same k-ascending
    /// summation order).
    ///
    /// # Panics
    /// Panics on shape mismatch (`out` must be `self.cols × b.cols`).
    pub fn tr_mul_mat_into(&self, b: &MatN, out: &mut MatN) {
        assert_eq!(self.rows, b.rows, "MatN::tr_mul_mat_into shape");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, b.cols),
            "MatN::tr_mul_mat_into output shape"
        );
        out.data.fill(0.0);
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
            let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
            for (j, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[j * b.cols..(j + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a * bv;
                }
            }
        }
    }

    /// Transposed matrix-vector product `out = selfᵀ · v` without
    /// materializing `selfᵀ`. Each output is the same `Iterator::sum` over
    /// the same products, in the same order, as [`Self::mul_slice_into`]
    /// after a transpose, so the two agree bit for bit on any toolchain.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn tr_mul_vec_into(&self, v: &VecN, out: &mut VecN) {
        assert_eq!(self.rows, v.len(), "MatN::tr_mul_vec_into shape mismatch");
        assert_eq!(self.cols, out.len(), "MatN::tr_mul_vec_into output length");
        for j in 0..self.cols {
            out[j] = (0..self.rows)
                .map(|k| self.data[k * self.cols + j] * v[k])
                .sum();
        }
    }

    /// Transpose written into `out` (no allocation).
    ///
    /// # Panics
    /// Panics on shape mismatch (`out` must be `self.cols × self.rows`).
    pub fn transpose_into(&self, out: &mut MatN) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "MatN::transpose_into output shape"
        );
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * out.cols + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Maximum absolute entry (NaN if any entry is NaN).
    pub fn max_abs(&self) -> f64 {
        crate::max_abs_of(&self.data)
    }

    /// `true` when square and `‖self - selfᵀ‖∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let d = (self[(i, j)] - self[(j, i)]).abs();
                if d.is_nan() || d > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Copies the upper triangle onto the lower triangle (used by
    /// algorithms that only fill `i ≤ j`).
    pub fn symmetrize_from_upper(&mut self) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = self[(i, j)];
                self[(j, i)] = v;
            }
        }
    }

    /// LDLᵀ factorization of a symmetric matrix. Returns `(L, d)` with unit
    /// lower-triangular `L` and diagonal `d` such that `self = L D Lᵀ`.
    /// Only the lower triangle of `self` is read.
    ///
    /// # Errors
    /// Returns `Err` if a pivot underflows (matrix not positive definite
    /// enough for a stable unpivoted factorization).
    pub fn ldlt(&self) -> Result<(MatN, VecN), FactorizationError> {
        let mut l = MatN::zeros(self.rows, self.cols);
        let mut d = VecN::zeros(self.rows);
        self.ldlt_into(&mut l, &mut d)?;
        Ok((l, d))
    }

    /// [`MatN::ldlt`] writing the factors into caller-provided storage (no
    /// allocation). `l` and `d` are fully overwritten.
    ///
    /// # Errors
    /// Returns `Err` if a pivot underflows.
    ///
    /// # Panics
    /// Panics unless `self`, `l` are square of the same size and `d`
    /// matches.
    pub fn ldlt_into(&self, l: &mut MatN, d: &mut VecN) -> Result<(), FactorizationError> {
        assert_eq!(self.rows, self.cols, "ldlt needs a square matrix");
        let n = self.rows;
        assert_eq!((l.rows, l.cols), (n, n), "ldlt_into L shape");
        assert_eq!(d.len(), n, "ldlt_into d length");
        l.data.fill(0.0);
        for i in 0..n {
            l[(i, i)] = 1.0;
        }
        for j in 0..n {
            let mut dj = self[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.abs() < 1e-12 {
                return Err(FactorizationError::ZeroPivot { index: j });
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(())
    }

    /// Cholesky factorization `self = G Gᵀ` of a symmetric positive-definite
    /// matrix; returns lower-triangular `G`.
    ///
    /// # Errors
    /// Returns `Err` on a non-positive pivot.
    pub fn cholesky(&self) -> Result<MatN, FactorizationError> {
        let (l, d) = self.ldlt()?;
        let n = self.rows;
        let mut g = MatN::zeros(n, n);
        for j in 0..n {
            if d[j] <= 0.0 {
                return Err(FactorizationError::NotPositiveDefinite { index: j });
            }
            let sd = d[j].sqrt();
            for i in j..n {
                g[(i, j)] = l[(i, j)] * sd;
            }
        }
        Ok(g)
    }

    /// Solves `self · x = b` for symmetric positive-definite `self` via
    /// LDLᵀ.
    ///
    /// # Errors
    /// Propagates factorization failure.
    pub fn solve(&self, b: &VecN) -> Result<VecN, FactorizationError> {
        let (l, d) = self.ldlt()?;
        Ok(ldlt_solve(&l, &d, b))
    }

    /// Inverse of a symmetric positive-definite matrix via LDLᵀ.
    ///
    /// # Errors
    /// Propagates factorization failure.
    pub fn inverse_spd(&self) -> Result<MatN, FactorizationError> {
        let mut inv = MatN::zeros(self.rows, self.cols);
        let mut l = MatN::zeros(self.rows, self.cols);
        let mut d = VecN::zeros(self.rows);
        self.inverse_spd_into(&mut inv, &mut l, &mut d)?;
        Ok(inv)
    }

    /// [`MatN::inverse_spd`] into caller-provided storage (no allocation).
    /// `l` and `d` are factorization scratch, fully overwritten.
    ///
    /// # Errors
    /// Propagates factorization failure.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn inverse_spd_into(
        &self,
        out: &mut MatN,
        l: &mut MatN,
        d: &mut VecN,
    ) -> Result<(), FactorizationError> {
        let n = self.rows;
        assert_eq!((out.rows, out.cols), (n, n), "inverse_spd_into out shape");
        self.ldlt_into(l, d)?;
        // Solve L D Lᵀ x = e_j column by column, working directly on the
        // (row-major, hence strided) columns of `out`.
        out.data.fill(0.0);
        for j in 0..n {
            out.data[j * n + j] = 1.0;
            // Forward: L y = e_j (rows < j stay zero).
            for i in (j + 1)..n {
                let mut s = out.data[i * n + j];
                for k in j..i {
                    s -= l.data[i * n + k] * out.data[k * n + j];
                }
                out.data[i * n + j] = s;
            }
            // Diagonal.
            for i in j..n {
                out.data[i * n + j] /= d[i];
            }
            // Backward: Lᵀ z = y.
            for i in (0..n).rev() {
                let mut s = out.data[i * n + j];
                for k in (i + 1)..n {
                    s -= l.data[k * n + i] * out.data[k * n + j];
                }
                out.data[i * n + j] = s;
            }
        }
        Ok(())
    }
}

/// Solves `L D Lᵀ x = b` given the factors.
pub fn ldlt_solve(l: &MatN, d: &VecN, b: &VecN) -> VecN {
    let mut x = b.clone();
    ldlt_solve_in_place(l, d, x.as_mut_slice());
    x
}

/// Solves `L D Lᵀ x = b` in place: `x` holds `b` on entry and the
/// solution on exit (no allocation).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn ldlt_solve_in_place(l: &MatN, d: &VecN, x: &mut [f64]) {
    let n = d.len();
    assert_eq!((l.rows, l.cols), (n, n), "ldlt_solve_in_place L shape");
    assert_eq!(x.len(), n, "ldlt_solve_in_place x length");
    // Forward: L y = b
    for i in 0..n {
        let mut s = x[i];
        for k in 0..i {
            s -= l[(i, k)] * x[k];
        }
        x[i] = s;
    }
    // Diagonal
    for i in 0..n {
        x[i] /= d[i];
    }
    // Backward: Lᵀ z = y
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s;
    }
}

/// Error returned when a factorization cannot proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorizationError {
    /// A pivot was numerically zero at the given elimination index.
    ZeroPivot {
        /// Elimination step at which the pivot vanished.
        index: usize,
    },
    /// A pivot was negative where positive-definiteness was required.
    NotPositiveDefinite {
        /// Elimination step at which the pivot went non-positive.
        index: usize,
    },
}

impl fmt::Display for FactorizationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroPivot { index } => write!(f, "zero pivot at elimination step {index}"),
            Self::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (pivot {index})")
            }
        }
    }
}

impl std::error::Error for FactorizationError {}

impl Index<(usize, usize)> for MatN {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for MatN {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Sub for &MatN {
    type Output = MatN;
    fn sub(self, r: &MatN) -> MatN {
        assert_eq!((self.rows, self.cols), (r.rows, r.cols));
        MatN {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&r.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Add for &MatN {
    type Output = MatN;
    fn add(self, r: &MatN) -> MatN {
        assert_eq!((self.rows, self.cols), (r.rows, r.cols));
        MatN {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&r.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl AddAssign<&MatN> for MatN {
    fn add_assign(&mut self, r: &MatN) {
        assert_eq!((self.rows, self.cols), (r.rows, r.cols));
        for (a, b) in self.data.iter_mut().zip(&r.data) {
            *a += b;
        }
    }
}

impl fmt::Display for MatN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.5}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_sees_nan() {
        // `[0, NaN, 0]`: a fold with `f64::max` drops the NaN and reads 0.
        let row = [0.0, f64::NAN, 0.0];
        assert!(VecN::from_vec(row.to_vec()).max_abs().is_nan());
        assert!(MatN::from_fn(1, 3, |_, j| row[j]).max_abs().is_nan());
        assert!(crate::Vec3::from_slice(&row).max_abs().is_nan());
        let mut v6 = [0.0; 6];
        v6[1] = f64::NAN;
        assert!(crate::MotionVec::from_array(v6).max_abs().is_nan());
        // NaN stays once a larger entry follows; finite input is unchanged.
        assert!(VecN::from_vec(vec![f64::NAN, 5.0]).max_abs().is_nan());
        assert_eq!(VecN::from_vec(vec![0.0, -2.0, 1.0]).max_abs(), 2.0);
        // A NaN off-diagonal entry is not symmetric at any tolerance.
        let mut m3 = crate::Mat3::zero();
        m3[(0, 1)] = f64::NAN;
        assert!(m3.max_abs().is_nan());
        assert!(!m3.is_symmetric(1.0));
        let mut m6 = crate::Mat6::zero();
        m6[(2, 4)] = f64::NAN;
        assert!(m6.max_abs().is_nan());
        assert!(!m6.is_symmetric(1.0));
        let mut mn = MatN::zeros(3, 3);
        mn[(0, 1)] = f64::NAN;
        assert!(!mn.is_symmetric(1.0));
    }

    fn spd(n: usize) -> MatN {
        // A = B Bᵀ + n·I is symmetric positive definite.
        let b = MatN::from_fn(n, n, |i, j| {
            ((i * 7 + j * 3) % 5) as f64 - 2.0 + 0.1 * i as f64
        });
        let mut a = b.mul_mat(&b.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn ldlt_reconstructs() {
        let a = spd(6);
        let (l, d) = a.ldlt().unwrap();
        let mut ld = l.clone();
        for i in 0..6 {
            for j in 0..6 {
                ld[(i, j)] *= d[j];
            }
        }
        let rec = ld.mul_mat(&l.transpose());
        assert!((&rec - &a).max_abs() < 1e-9);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(5);
        let g = a.cholesky().unwrap();
        let rec = g.mul_mat(&g.transpose());
        assert!((&rec - &a).max_abs() < 1e-9);
    }

    #[test]
    fn solve_matches_mul() {
        let a = spd(7);
        let x_true = VecN::from_vec((0..7).map(|i| (i as f64 - 3.0) * 0.5).collect());
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        assert!((&x - &x_true).max_abs() < 1e-9);
    }

    #[test]
    fn inverse_spd_roundtrip() {
        let a = spd(4);
        let inv = a.inverse_spd().unwrap();
        let prod = a.mul_mat(&inv);
        assert!((&prod - &MatN::identity(4)).max_abs() < 1e-9);
    }

    #[test]
    fn singular_matrix_errors() {
        let a = MatN::zeros(3, 3);
        assert!(matches!(
            a.ldlt(),
            Err(FactorizationError::ZeroPivot { index: 0 })
        ));
    }

    #[test]
    fn not_positive_definite_detected() {
        let mut a = MatN::identity(2);
        a[(1, 1)] = -5.0;
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn symmetrize_from_upper_works() {
        let mut a = MatN::zeros(3, 3);
        a[(0, 1)] = 2.0;
        a[(0, 2)] = 3.0;
        a[(1, 2)] = 4.0;
        a.symmetrize_from_upper();
        assert!(a.is_symmetric(0.0));
        assert_eq!(a[(2, 0)], 3.0);
    }

    #[test]
    fn mul_mat_identity() {
        let a = spd(3);
        let p = a.mul_mat(&MatN::identity(3));
        assert!((&p - &a).max_abs() < 1e-15);
    }

    #[test]
    fn vecn_basics() {
        let v = VecN::from_vec(vec![3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.max_abs(), 4.0);
        assert!(!v.is_empty());
        assert_eq!(VecN::zeros(0).max_abs(), 0.0);
    }
}
