//! Dense 6×6 matrices (articulated-body inertias, transform matrices).

use crate::mat3::{mul3, mul3_tn};
use crate::{ForceVec, MotionVec, Xform};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// A dense 6×6 matrix backed by a flat row-major `[f64; 36]`
/// (`m[6·row + col]`).
///
/// The blocks follow the spatial layout: rows/columns 0-2 are angular,
/// 3-5 linear. Articulated-body inertias and the dense form of Plücker
/// transforms are represented with this type.
///
/// # Example
/// ```
/// use rbd_spatial::{Mat6, MotionVec};
/// let i = Mat6::identity();
/// let v = MotionVec::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(i.mul_motion(&v), v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat6 {
    pub(crate) m: [f64; 36],
}

impl Default for Mat6 {
    fn default() -> Self {
        Self::zero()
    }
}

impl Mat6 {
    /// Builds from row-major entries.
    #[inline]
    pub const fn from_rows(rows: [[f64; 6]; 6]) -> Self {
        let mut m = [0.0; 36];
        let mut i = 0;
        while i < 6 {
            let mut j = 0;
            while j < 6 {
                m[6 * i + j] = rows[i][j];
                j += 1;
            }
            i += 1;
        }
        Self { m }
    }

    /// Builds from flat row-major entries (`m[6·row + col]`).
    #[inline(always)]
    pub const fn from_flat(m: [f64; 36]) -> Self {
        Self { m }
    }

    /// Borrows the flat row-major entries.
    #[inline(always)]
    pub const fn as_array(&self) -> &[f64; 36] {
        &self.m
    }

    /// The zero matrix.
    #[inline]
    pub const fn zero() -> Self {
        Self { m: [0.0; 36] }
    }

    /// The identity matrix.
    pub fn identity() -> Self {
        let mut out = Self::zero();
        for i in 0..6 {
            out.m[7 * i] = 1.0;
        }
        out
    }

    /// The motion-vector matrix `[E 0; -E r× E]` of a Plücker transform.
    pub fn from_xform_motion(x: &Xform) -> Self {
        let e = &x.rot.m;
        let erx = mul3(e, &crate::Mat3::skew(x.trans).m);
        let mut out = Self::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[6 * i + j] = e[3 * i + j];
                out.m[6 * (i + 3) + j + 3] = e[3 * i + j];
                out.m[6 * (i + 3) + j] = -erx[3 * i + j];
            }
        }
        out
    }

    /// The dense motion cross operator `crm(v) = [ŵ 0; v̂ ŵ]` of a
    /// motion vector `v = [ω; v]` (`x̂` = 3×3 skew): `crm(v)·m = v × m`.
    /// Reference/validation form of [`MotionVec::cross_motion`].
    pub fn cross_motion(v: &MotionVec) -> Self {
        let wx = crate::Mat3::skew(v.ang());
        let vx = crate::Mat3::skew(v.lin());
        let mut out = Self::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[6 * i + j] = wx[(i, j)];
                out.m[6 * (i + 3) + j] = vx[(i, j)];
                out.m[6 * (i + 3) + j + 3] = wx[(i, j)];
            }
        }
        out
    }

    /// The dense force cross operator `crf(v) = [ŵ v̂; 0 ŵ]` of a motion
    /// vector (`crf(v) = −crm(v)ᵀ`): `crf(v)·f = v ×* f`.
    /// Reference/validation form of [`MotionVec::cross_force`].
    pub fn cross_force(v: &MotionVec) -> Self {
        let wx = crate::Mat3::skew(v.ang());
        let vx = crate::Mat3::skew(v.lin());
        let mut out = Self::zero();
        for i in 0..3 {
            for j in 0..3 {
                out.m[6 * i + j] = wx[(i, j)];
                out.m[6 * i + j + 3] = vx[(i, j)];
                out.m[6 * (i + 3) + j + 3] = wx[(i, j)];
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zero();
        for i in 0..6 {
            for j in 0..6 {
                out.m[6 * j + i] = self.m[6 * i + j];
            }
        }
        out
    }

    /// Matrix × motion vector (inertia application when `self` is an
    /// articulated inertia: the result is a force) — a fully unrolled
    /// 36-term multiply–add chain over the flat backing.
    #[inline(always)]
    pub fn mul_motion_to_force(&self, v: &MotionVec) -> ForceVec {
        let a = v.as_array();
        let mut out = [0.0; 6];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.m[6 * i..6 * i + 6];
            *o = row[0] * a[0]
                + row[1] * a[1]
                + row[2] * a[2]
                + row[3] * a[3]
                + row[4] * a[4]
                + row[5] * a[5];
        }
        ForceVec::from_array(out)
    }

    /// Batched [`Self::mul_motion_to_force`]: `out[k] = self · vs[k]`
    /// (the `U = IA·S` columns of the articulated sweeps), keeping the
    /// matrix hot across the whole batch.
    ///
    /// # Panics
    /// Panics if `out.len() != vs.len()`.
    #[inline]
    pub fn mul_motion_to_force_batch(&self, vs: &[MotionVec], out: &mut [ForceVec]) {
        assert_eq!(vs.len(), out.len(), "mul_motion_to_force_batch length");
        for (o, v) in out.iter_mut().zip(vs) {
            *o = self.mul_motion_to_force(v);
        }
    }

    /// Matrix × motion vector, returning a motion vector (transform
    /// application when `self` is a Plücker motion matrix).
    pub fn mul_motion(&self, v: &MotionVec) -> MotionVec {
        MotionVec::from_array(self.mul_motion_to_force(v).to_array())
    }

    /// Congruence transform `Xᵀ · self · X` used to shift articulated
    /// inertias between frames (`^A I = (^B X_A)ᵀ ^B I ^B X_A`).
    pub fn congruence(&self, x6: &Mat6) -> Self {
        x6.transpose() * (*self * *x6)
    }

    /// Fused `dest += Xᵀ · self · X` with the transform given directly as
    /// a Plücker [`Xform`] — the general form of the accumulation the
    /// leaf-to-root composite/articulated inertia sweeps run
    /// ([`Self::add_congruence_xform_sym`]). Evaluated
    /// analytically on the `[E 0; B E]` block structure (`B = -E r×`):
    /// twelve dense 3×3 products instead of two zero-laden 6×6 products,
    /// with no `Mat6` temporaries. Agrees with
    /// `congruence(&Mat6::from_xform_motion(x))` to rounding error (the
    /// summation order differs).
    pub fn add_congruence_xform(&self, x: &Xform, dest: &mut Mat6) {
        let e = &x.rot.m;
        let b = {
            let mut erx = mul3(e, &crate::Mat3::skew(x.trans).m);
            for v in erx.iter_mut() {
                *v = -*v;
            }
            erx
        };
        // 3×3 blocks of self: [A C; D F].
        let mut a = [0.0; 9];
        let mut c = [0.0; 9];
        let mut d = [0.0; 9];
        let mut f = [0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                a[3 * i + j] = self.m[6 * i + j];
                c[3 * i + j] = self.m[6 * i + j + 3];
                d[3 * i + j] = self.m[6 * (i + 3) + j];
                f[3 * i + j] = self.m[6 * (i + 3) + j + 3];
            }
        }
        // T = self · X.
        let t11 = add9(&mul3(&a, e), &mul3(&c, &b));
        let t12 = mul3(&c, e);
        let t21 = add9(&mul3(&d, e), &mul3(&f, &b));
        let t22 = mul3(&f, e);
        // Y = Xᵀ · T.
        let y11 = add9(&mul3_tn(e, &t11), &mul3_tn(&b, &t21));
        let y12 = add9(&mul3_tn(e, &t12), &mul3_tn(&b, &t22));
        let y21 = mul3_tn(e, &t21);
        let y22 = mul3_tn(e, &t22);
        for i in 0..3 {
            for j in 0..3 {
                dest.m[6 * i + j] += y11[3 * i + j];
                dest.m[6 * i + j + 3] += y12[3 * i + j];
                dest.m[6 * (i + 3) + j] += y21[3 * i + j];
                dest.m[6 * (i + 3) + j + 3] += y22[3 * i + j];
            }
        }
    }

    /// [`Self::add_congruence_xform`] specialised to a **symmetric**
    /// `self` (articulated/composite inertias): the congruence of a
    /// symmetric matrix is symmetric, so the upper-right result block is
    /// produced as the transpose of the lower-left one — nine 3×3
    /// products instead of twelve.
    ///
    /// For an input that is symmetric only up to rounding, the result is
    /// the congruence of its symmetric part to within machine precision
    /// (the asymmetric residual of the upper-right block is discarded).
    pub fn add_congruence_xform_sym(&self, x: &Xform, dest: &mut Mat6) {
        let e = &x.rot.m;
        let b = {
            let mut erx = mul3(e, &crate::Mat3::skew(x.trans).m);
            for v in erx.iter_mut() {
                *v = -*v;
            }
            erx
        };
        // 3×3 blocks of self: [A C; D F] with C = Dᵀ (symmetry).
        let mut a = [0.0; 9];
        let mut c = [0.0; 9];
        let mut d = [0.0; 9];
        let mut f = [0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                a[3 * i + j] = self.m[6 * i + j];
                c[3 * i + j] = self.m[6 * i + j + 3];
                d[3 * i + j] = self.m[6 * (i + 3) + j];
                f[3 * i + j] = self.m[6 * (i + 3) + j + 3];
            }
        }
        let t11 = add9(&mul3(&a, e), &mul3(&c, &b));
        let t21 = add9(&mul3(&d, e), &mul3(&f, &b));
        let t22 = mul3(&f, e);
        let y11 = add9(&mul3_tn(e, &t11), &mul3_tn(&b, &t21));
        let y21 = mul3_tn(e, &t21);
        let y22 = mul3_tn(e, &t22);
        for i in 0..3 {
            for j in 0..3 {
                dest.m[6 * i + j] += y11[3 * i + j];
                dest.m[6 * i + j + 3] += y21[3 * j + i]; // Y12 = Y21ᵀ
                dest.m[6 * (i + 3) + j] += y21[3 * i + j];
                dest.m[6 * (i + 3) + j + 3] += y22[3 * i + j];
            }
        }
    }

    /// Fused rank-`k` update `self -= U · W · Uᵀ` over force-layout
    /// columns `U` with weights `w(a, b)` — the `IA - U D⁻¹ Uᵀ`
    /// articulated-inertia step of ABA/MMinvGen, evaluated in one pass so
    /// the columns stay in registers.
    ///
    /// Weight lookups returning exactly `0.0` are skipped (branch
    /// sparsity of block-diagonal `D⁻¹`).
    #[inline]
    pub fn sub_outer_weighted(&mut self, u: &[ForceVec], w: impl Fn(usize, usize) -> f64) {
        for (a, ua) in u.iter().enumerate() {
            for (b, ub) in u.iter().enumerate() {
                let wab = w(a, b);
                if wab == 0.0 {
                    continue;
                }
                let ua = ua.as_array();
                let ub = ub.as_array();
                for r in 0..6 {
                    for c in 0..6 {
                        self.m[6 * r + c] -= ua[r] * wab * ub[c];
                    }
                }
            }
        }
    }

    /// Maximum absolute entry (NaN if any entry is NaN).
    pub fn max_abs(&self) -> f64 {
        crate::max_abs_of(&self.m)
    }

    /// `true` when `‖self - selfᵀ‖∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (*self - self.transpose()).max_abs() <= tol
    }
}

/// Element-wise sum of two flat 3×3 blocks.
#[inline(always)]
fn add9(a: &[f64; 9], b: &[f64; 9]) -> [f64; 9] {
    let mut out = *a;
    for (o, x) in out.iter_mut().zip(b) {
        *o += x;
    }
    out
}

impl Add for Mat6 {
    type Output = Mat6;
    fn add(self, r: Mat6) -> Mat6 {
        let mut out = self;
        for (o, x) in out.m.iter_mut().zip(&r.m) {
            *o += x;
        }
        out
    }
}

impl AddAssign for Mat6 {
    fn add_assign(&mut self, r: Mat6) {
        for (o, x) in self.m.iter_mut().zip(&r.m) {
            *o += x;
        }
    }
}

impl Sub for Mat6 {
    type Output = Mat6;
    fn sub(self, r: Mat6) -> Mat6 {
        let mut out = self;
        for (o, x) in out.m.iter_mut().zip(&r.m) {
            *o -= x;
        }
        out
    }
}

impl SubAssign for Mat6 {
    fn sub_assign(&mut self, r: Mat6) {
        for (o, x) in self.m.iter_mut().zip(&r.m) {
            *o -= x;
        }
    }
}

impl Mul<f64> for Mat6 {
    type Output = Mat6;
    fn mul(self, s: f64) -> Mat6 {
        let mut out = self;
        for x in out.m.iter_mut() {
            *x *= s;
        }
        out
    }
}

impl Mul<Mat6> for Mat6 {
    type Output = Mat6;
    fn mul(self, rhs: Mat6) -> Mat6 {
        let mut out = Mat6::zero();
        for i in 0..6 {
            for k in 0..6 {
                let a = self.m[6 * i + k];
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.m[6 * k..6 * k + 6];
                let out_row = &mut out.m[6 * i..6 * i + 6];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a * bv;
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat6 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.m[6 * i + j]
    }
}

impl IndexMut<(usize, usize)> for Mat6 {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.m[6 * i + j]
    }
}

impl fmt::Display for Mat6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..6 {
            let row = &self.m[6 * r..6 * r + 6];
            writeln!(
                f,
                "[{:9.4} {:9.4} {:9.4} {:9.4} {:9.4} {:9.4}]",
                row[0], row[1], row[2], row[3], row[4], row[5]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mat3, Vec3};

    #[test]
    fn xform_matrix_matches_apply_motion() {
        let x = Xform::rot_axis(Vec3::new(1.0, 0.3, -0.2).normalized(), 0.9)
            .with_translation(Vec3::new(0.1, 0.4, -0.6));
        let m6 = Mat6::from_xform_motion(&x);
        let v = MotionVec::from_slice(&[0.2, -0.3, 0.8, 1.0, 0.5, -0.1]);
        let lhs = m6.mul_motion(&v);
        let rhs = x.apply_motion(&v);
        assert!((lhs - rhs).max_abs() < 1e-12);
    }

    #[test]
    fn xform_transpose_matches_inv_apply_force() {
        // (^B X_A)ᵀ applied to a force-layout vector equals ^A X_B^* f.
        let x = Xform::new(Mat3::rotation_y(0.4).transpose(), Vec3::new(0.3, -0.2, 0.7));
        let m6 = Mat6::from_xform_motion(&x).transpose();
        let f = ForceVec::from_slice(&[0.1, 0.9, -0.4, 2.0, 0.3, 0.6]);
        let lhs = {
            let fm = MotionVec::new(f.ang(), f.lin());
            let out = m6.mul_motion(&fm);
            ForceVec::new(out.ang(), out.lin())
        };
        let rhs = x.inv_apply_force(&f);
        assert!((lhs - rhs).max_abs() < 1e-12);
    }

    #[test]
    fn congruence_preserves_symmetry() {
        let mut s = Mat6::identity();
        s[(0, 3)] = 0.5;
        s[(3, 0)] = 0.5;
        s[(1, 1)] = 4.0;
        let x =
            Mat6::from_xform_motion(&Xform::rot_z(1.2).with_translation(Vec3::new(0.0, 1.0, 0.5)));
        let t = s.congruence(&x);
        assert!(t.is_symmetric(1e-12));
    }

    #[test]
    fn congruence_xform_matches_dense() {
        let x = Xform::rot_axis(Vec3::new(0.4, -0.2, 0.9).normalized(), 0.77)
            .with_translation(Vec3::new(0.3, -0.8, 0.2));
        // A generic (not even symmetric) matrix: the block evaluation must
        // agree with the dense congruence for arbitrary input.
        let mut s = Mat6::zero();
        for i in 0..6 {
            for j in 0..6 {
                s[(i, j)] = 0.1 * (i * 6 + j) as f64 - 0.7 + if i == j { 3.0 } else { 0.0 };
            }
        }
        let dense = s.congruence(&Mat6::from_xform_motion(&x));
        let mut fast = Mat6::zero();
        s.add_congruence_xform(&x, &mut fast);
        assert!((dense - fast).max_abs() < 1e-12 * (1.0 + dense.max_abs()));

        // The accumulate form adds on top of existing content.
        let mut acc = Mat6::identity();
        s.add_congruence_xform(&x, &mut acc);
        assert!((acc - (fast + Mat6::identity())).max_abs() < 1e-15);
    }

    #[test]
    fn weighted_rank_k_matches_reference_loop() {
        let u = [
            ForceVec::from_slice(&[1.0, 0.5, -0.2, 0.3, 0.0, 2.0]),
            ForceVec::from_slice(&[-0.4, 1.5, 0.2, 0.0, 0.7, -0.3]),
        ];
        let dinv = [[2.0, 0.5], [0.5, 1.2]];
        let mut fast = Mat6::identity();
        fast.sub_outer_weighted(&u, |a, b| dinv[a][b]);
        let mut slow = Mat6::identity();
        for a in 0..2 {
            for b in 0..2 {
                let ua = u[a].to_array();
                let ub = u[b].to_array();
                for r in 0..6 {
                    for c in 0..6 {
                        slow[(r, c)] -= ua[r] * dinv[a][b] * ub[c];
                    }
                }
            }
        }
        assert_eq!(fast.as_array(), slow.as_array());
    }

    #[test]
    fn batched_apply_matches_scalar() {
        let x = Xform::new(Mat3::rotation_x(0.3).transpose(), Vec3::new(1.0, 2.0, 3.0));
        let m6 = Mat6::from_xform_motion(&x);
        let vs: Vec<MotionVec> = (0..5)
            .map(|k| MotionVec::from_slice(&[0.1 * k as f64, -0.2, 0.3, 0.4, 0.5 - k as f64, 0.6]))
            .collect();
        let mut out = vec![ForceVec::zero(); 5];
        m6.mul_motion_to_force_batch(&vs, &mut out);
        for (v, o) in vs.iter().zip(&out) {
            assert_eq!(o.to_array(), m6.mul_motion_to_force(v).to_array());
        }
    }

    #[test]
    fn mul_associates_with_identity() {
        let x = Mat6::from_xform_motion(&Xform::new(
            Mat3::rotation_x(0.3).transpose(),
            Vec3::new(1.0, 2.0, 3.0),
        ));
        let p = x * Mat6::identity();
        assert!((p - x).max_abs() < 1e-15);
    }
}
