//! K-lane structure-of-arrays (SoA) spatial algebra.
//!
//! Every type here packs `K` independent samples **lane-major**: each
//! scalar coordinate of the corresponding scalar type becomes a
//! contiguous `[f64; K]` block, so one op over a lane vector is `K`
//! independent copies of the scalar op over adjacent memory — exactly
//! the shape 2/4-wide f64 SIMD units (and the compiler's
//! autovectorizer) want. A batch of `K` robot states swept in lockstep
//! keeps the whole tree traversal's bookkeeping (indices, branches,
//! shared constants) amortized across lanes while the arithmetic fills
//! the idle vector lanes the scalar kernels leave empty.
//!
//! # Bit-identity contract
//!
//! Each lane kernel performs the **identical floating-point op sequence
//! as its scalar counterpart**, lane by lane: same expression trees,
//! same association order, no FMA contraction, no reordering. Lane `l`
//! of any result is therefore bit-identical to running the scalar
//! kernel on lane `l`'s inputs. The unit tests below pin every kernel
//! against its scalar counterpart with exact (`==`) comparisons, and
//! `rbd_dynamics` pins the full lane sweeps the same way.
//!
//! # Example
//! ```
//! use rbd_spatial::{LaneMotionVec, MotionVec};
//! let a = [MotionVec::from_slice(&[1., 2., 3., 4., 5., 6.]); 4];
//! let lanes: LaneMotionVec<4> = LaneMotionVec::gather(&a);
//! assert_eq!(lanes.extract(2), a[2]);
//! ```

use crate::{ForceVec, InertiaRate, Mat3, MotionVec, SpatialInertia, Vec3, Xform};

/// Default lane width: four f64 samples per sweep (one AVX2 register,
/// two SSE2 registers — and four independent dependency chains for the
/// latency-bound spatial kernels either way).
pub const DEFAULT_LANE_WIDTH: usize = 4;

// ---------------------------------------------------------------------
// Elementwise lane primitives. Multiplication/addition of `[f64; K]`
// blocks, each mirroring one scalar op per lane. Composing these
// reproduces the scalar expression tree exactly (IEEE f64 ops are
// deterministic; lanes never interact).
// ---------------------------------------------------------------------

#[inline(always)]
fn ladd<const K: usize>(a: [f64; K], b: [f64; K]) -> [f64; K] {
    let mut o = a;
    for l in 0..K {
        o[l] += b[l];
    }
    o
}

#[inline(always)]
fn lsub<const K: usize>(a: [f64; K], b: [f64; K]) -> [f64; K] {
    let mut o = a;
    for l in 0..K {
        o[l] -= b[l];
    }
    o
}

#[inline(always)]
fn lmul<const K: usize>(a: [f64; K], b: [f64; K]) -> [f64; K] {
    let mut o = a;
    for l in 0..K {
        o[l] *= b[l];
    }
    o
}

/// Scalar × lane product (`s` broadcast over all lanes).
#[inline(always)]
fn smul<const K: usize>(s: f64, a: [f64; K]) -> [f64; K] {
    let mut o = a;
    for l in 0..K {
        o[l] *= s;
    }
    o
}

#[inline(always)]
fn lneg<const K: usize>(a: [f64; K]) -> [f64; K] {
    let mut o = a;
    for l in 0..K {
        o[l] = -o[l];
    }
    o
}

#[inline(always)]
fn lsplat<const K: usize>(s: f64) -> [f64; K] {
    [s; K]
}

// ---------------------------------------------------------------------
// LaneVec3
// ---------------------------------------------------------------------

/// `K` 3-D vectors, lane-major (`a[coord][lane]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneVec3<const K: usize> {
    a: [[f64; K]; 3],
}

impl<const K: usize> LaneVec3<K> {
    /// All-zero lanes.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self { a: [[0.0; K]; 3] }
    }

    /// Builds from per-coordinate lane blocks.
    #[inline(always)]
    pub const fn from_lanes(a: [[f64; K]; 3]) -> Self {
        Self { a }
    }

    /// The same vector in every lane.
    #[inline(always)]
    pub fn broadcast(v: Vec3) -> Self {
        Self {
            a: [lsplat(v.x()), lsplat(v.y()), lsplat(v.z())],
        }
    }

    /// Packs `K` scalar vectors (lane `l` = `vs[l]`).
    ///
    /// # Panics
    /// Panics if `vs.len() != K`.
    #[inline]
    pub fn gather(vs: &[Vec3]) -> Self {
        assert_eq!(vs.len(), K, "LaneVec3::gather lane count");
        let mut a = [[0.0; K]; 3];
        for (l, v) in vs.iter().enumerate() {
            let c = v.as_array();
            a[0][l] = c[0];
            a[1][l] = c[1];
            a[2][l] = c[2];
        }
        Self { a }
    }

    /// Unpacks lane `l`.
    #[inline(always)]
    pub fn extract(&self, l: usize) -> Vec3 {
        Vec3::new(self.a[0][l], self.a[1][l], self.a[2][l])
    }

    /// Per-coordinate lane blocks.
    #[inline(always)]
    pub const fn lanes(&self) -> &[[f64; K]; 3] {
        &self.a
    }

    /// Lane-wise sum (mirror of `Vec3::add`).
    #[inline(always)]
    pub fn add(&self, r: &Self) -> Self {
        Self {
            a: [
                ladd(self.a[0], r.a[0]),
                ladd(self.a[1], r.a[1]),
                ladd(self.a[2], r.a[2]),
            ],
        }
    }

    /// Lane-wise difference (mirror of `Vec3::sub`).
    #[inline(always)]
    pub fn sub(&self, r: &Self) -> Self {
        Self {
            a: [
                lsub(self.a[0], r.a[0]),
                lsub(self.a[1], r.a[1]),
                lsub(self.a[2], r.a[2]),
            ],
        }
    }

    /// Lane-wise scale by one scalar (mirror of `Vec3 * f64`).
    #[inline(always)]
    pub fn scale(&self, s: f64) -> Self {
        Self {
            a: [smul(s, self.a[0]), smul(s, self.a[1]), smul(s, self.a[2])],
        }
    }

    /// Lane-wise cross product (mirror of `Vec3::cross`):
    /// `(a_y b_z − a_z b_y, a_z b_x − a_x b_z, a_x b_y − a_y b_x)`.
    #[inline(always)]
    pub fn cross(&self, r: &Self) -> Self {
        let [ax, ay, az] = self.a;
        let [bx, by, bz] = r.a;
        Self {
            a: [
                lsub(lmul(ay, bz), lmul(az, by)),
                lsub(lmul(az, bx), lmul(ax, bz)),
                lsub(lmul(ax, by), lmul(ay, bx)),
            ],
        }
    }
}

impl Vec3 {
    /// Broadcast cross product `self × r` with a lane right operand —
    /// same expression as [`Vec3::cross`] per lane.
    #[inline(always)]
    fn cross_lanes<const K: usize>(&self, r: &LaneVec3<K>) -> LaneVec3<K> {
        let [ax, ay, az] = *self.as_array();
        let [bx, by, bz] = r.a;
        LaneVec3 {
            a: [
                lsub(smul(ay, bz), smul(az, by)),
                lsub(smul(az, bx), smul(ax, bz)),
                lsub(smul(ax, by), smul(ay, bx)),
            ],
        }
    }
}

impl Mat3 {
    /// Broadcast matrix × lane vector (mirror of `Mat3 * Vec3`):
    /// row `i` = `m[3i]·x + m[3i+1]·y + m[3i+2]·z`, left-associated.
    #[inline(always)]
    fn mul_lanes<const K: usize>(&self, v: &LaneVec3<K>) -> LaneVec3<K> {
        let m = self.as_array();
        let [x, y, z] = v.a;
        LaneVec3 {
            a: [
                ladd(ladd(smul(m[0], x), smul(m[1], y)), smul(m[2], z)),
                ladd(ladd(smul(m[3], x), smul(m[4], y)), smul(m[5], z)),
                ladd(ladd(smul(m[6], x), smul(m[7], y)), smul(m[8], z)),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Lane spatial vectors
// ---------------------------------------------------------------------

macro_rules! impl_lane_spatial_common {
    ($ty:ident, $scalar:ident) => {
        /// `K` spatial vectors, lane-major (`d[coord][lane]`, angular
        /// coordinates first), mirroring the scalar type's kernels
        /// lane-for-lane.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $ty<const K: usize> {
            d: [[f64; K]; 6],
        }

        impl<const K: usize> $ty<K> {
            /// All-zero lanes.
            #[inline(always)]
            pub const fn zero() -> Self {
                Self { d: [[0.0; K]; 6] }
            }

            /// Builds from angular and linear lane parts.
            #[inline(always)]
            pub fn new(ang: LaneVec3<K>, lin: LaneVec3<K>) -> Self {
                Self {
                    d: [ang.a[0], ang.a[1], ang.a[2], lin.a[0], lin.a[1], lin.a[2]],
                }
            }

            /// The same scalar vector in every lane.
            #[inline]
            pub fn broadcast(v: $scalar) -> Self {
                let c = v.as_array();
                Self {
                    d: [
                        lsplat(c[0]),
                        lsplat(c[1]),
                        lsplat(c[2]),
                        lsplat(c[3]),
                        lsplat(c[4]),
                        lsplat(c[5]),
                    ],
                }
            }

            /// Packs `K` scalar vectors (lane `l` = `vs[l]`).
            ///
            /// # Panics
            /// Panics if `vs.len() != K`.
            #[inline]
            pub fn gather(vs: &[$scalar]) -> Self {
                assert_eq!(vs.len(), K, "lane gather count");
                let mut d = [[0.0; K]; 6];
                for (l, v) in vs.iter().enumerate() {
                    let c = v.as_array();
                    for k in 0..6 {
                        d[k][l] = c[k];
                    }
                }
                Self { d }
            }

            /// Unpacks lane `l`.
            #[inline(always)]
            pub fn extract(&self, l: usize) -> $scalar {
                $scalar::from_array([
                    self.d[0][l],
                    self.d[1][l],
                    self.d[2][l],
                    self.d[3][l],
                    self.d[4][l],
                    self.d[5][l],
                ])
            }

            /// The angular lane part (a copy).
            #[inline(always)]
            pub fn ang(&self) -> LaneVec3<K> {
                LaneVec3 {
                    a: [self.d[0], self.d[1], self.d[2]],
                }
            }

            /// The linear lane part (a copy).
            #[inline(always)]
            pub fn lin(&self) -> LaneVec3<K> {
                LaneVec3 {
                    a: [self.d[3], self.d[4], self.d[5]],
                }
            }

            /// Per-coordinate lane blocks.
            #[inline(always)]
            pub const fn lanes(&self) -> &[[f64; K]; 6] {
                &self.d
            }

            /// Lane-wise sum (mirror of the scalar `Add`).
            #[inline(always)]
            pub fn add(&self, r: &Self) -> Self {
                let mut d = self.d;
                for k in 0..6 {
                    d[k] = ladd(d[k], r.d[k]);
                }
                Self { d }
            }

            /// Lane-wise `self += r` (mirror of the scalar `AddAssign`).
            #[inline(always)]
            pub fn add_assign(&mut self, r: &Self) {
                for k in 0..6 {
                    self.d[k] = ladd(self.d[k], r.d[k]);
                }
            }

            /// Lane-wise difference (mirror of the scalar `Sub`).
            #[inline(always)]
            pub fn sub(&self, r: &Self) -> Self {
                let mut d = self.d;
                for k in 0..6 {
                    d[k] = lsub(d[k], r.d[k]);
                }
                Self { d }
            }

            /// Lane-wise negation (mirror of the scalar `Neg`).
            #[inline(always)]
            pub fn neg(&self) -> Self {
                let mut d = self.d;
                for x in d.iter_mut() {
                    *x = lneg(*x);
                }
                Self { d }
            }

            /// Lane-wise scale by per-lane factors (mirror of the scalar
            /// `Mul<f64>` applied with lane `l`'s factor in lane `l`).
            #[inline(always)]
            pub fn scale(&self, s: [f64; K]) -> Self {
                let mut d = self.d;
                for k in 0..6 {
                    d[k] = lmul(d[k], s);
                }
                Self { d }
            }
        }
    };
}

impl_lane_spatial_common!(LaneMotionVec, MotionVec);
impl_lane_spatial_common!(LaneForceVec, ForceVec);

impl<const K: usize> LaneMotionVec<K> {
    /// Lane motion cross product (mirror of [`MotionVec::cross_motion`]):
    /// `[ω×m_ω ; ω×m_v + v×m_ω]`, with the same `(ab − cd) + (ef − gh)`
    /// association on the linear rows.
    #[inline(always)]
    pub fn cross_motion(&self, m: &Self) -> Self {
        let [w0, w1, w2, v0, v1, v2] = self.d;
        let [a0, a1, a2, b0, b1, b2] = m.d;
        Self {
            d: [
                lsub(lmul(w1, a2), lmul(w2, a1)),
                lsub(lmul(w2, a0), lmul(w0, a2)),
                lsub(lmul(w0, a1), lmul(w1, a0)),
                ladd(
                    lsub(lmul(w1, b2), lmul(w2, b1)),
                    lsub(lmul(v1, a2), lmul(v2, a1)),
                ),
                ladd(
                    lsub(lmul(w2, b0), lmul(w0, b2)),
                    lsub(lmul(v2, a0), lmul(v0, a2)),
                ),
                ladd(
                    lsub(lmul(w0, b1), lmul(w1, b0)),
                    lsub(lmul(v0, a1), lmul(v1, a0)),
                ),
            ],
        }
    }

    /// Lane force cross product (mirror of [`MotionVec::cross_force`]).
    #[inline(always)]
    pub fn cross_force(&self, f: &LaneForceVec<K>) -> LaneForceVec<K> {
        let [w0, w1, w2, v0, v1, v2] = self.d;
        let [n0, n1, n2, f0, f1, f2] = f.d;
        LaneForceVec {
            d: [
                ladd(
                    lsub(lmul(w1, n2), lmul(w2, n1)),
                    lsub(lmul(v1, f2), lmul(v2, f1)),
                ),
                ladd(
                    lsub(lmul(w2, n0), lmul(w0, n2)),
                    lsub(lmul(v2, f0), lmul(v0, f2)),
                ),
                ladd(
                    lsub(lmul(w0, n1), lmul(w1, n0)),
                    lsub(lmul(v0, f1), lmul(v1, f0)),
                ),
                lsub(lmul(w1, f2), lmul(w2, f1)),
                lsub(lmul(w2, f0), lmul(w0, f2)),
                lsub(lmul(w0, f1), lmul(w1, f0)),
            ],
        }
    }

    /// Lane duality pairing (mirror of [`MotionVec::dot_force`]):
    /// `(a0b0 + a1b1 + a2b2) + (a3b3 + a4b4 + a5b5)` per lane.
    #[inline(always)]
    pub fn dot_force(&self, f: &LaneForceVec<K>) -> [f64; K] {
        let a = &self.d;
        let b = &f.d;
        ladd(
            ladd(ladd(lmul(a[0], b[0]), lmul(a[1], b[1])), lmul(a[2], b[2])),
            ladd(ladd(lmul(a[3], b[3]), lmul(a[4], b[4])), lmul(a[5], b[5])),
        )
    }

    /// Lane weighted sum over shared scalar columns with per-lane
    /// weights (mirror of [`MotionVec::weighted_sum`] lane by lane:
    /// same column order, same `acc += x·w` accumulation).
    ///
    /// # Panics
    /// Panics if `cols.len() != w.len()`.
    #[inline]
    pub fn weighted_sum(cols: &[MotionVec], w: &[[f64; K]]) -> Self {
        assert_eq!(cols.len(), w.len(), "lane weighted_sum length mismatch");
        let mut acc = [[0.0; K]; 6];
        for (c, wk) in cols.iter().zip(w) {
            let cd = c.as_array();
            for (a, &x) in acc.iter_mut().zip(cd) {
                *a = ladd(*a, smul(x, *wk));
            }
        }
        Self { d: acc }
    }

    /// `self += col · w` with a shared scalar column and per-lane
    /// weights (mirror of the scalar `v += *s * out[k]` update).
    #[inline(always)]
    pub fn add_scaled_col(&mut self, col: &MotionVec, w: [f64; K]) {
        let cd = col.as_array();
        for (a, &x) in self.d.iter_mut().zip(cd) {
            *a = ladd(*a, smul(x, w));
        }
    }
}

impl<const K: usize> LaneForceVec<K> {
    /// Lane pairing with a shared scalar motion vector (mirror of
    /// [`ForceVec::dot_motion`], i.e. `m.dot_force(self)` per lane).
    #[inline(always)]
    pub fn dot_scalar_motion(&self, m: &MotionVec) -> [f64; K] {
        let a = m.as_array();
        let b = &self.d;
        ladd(
            ladd(ladd(smul(a[0], b[0]), smul(a[1], b[1])), smul(a[2], b[2])),
            ladd(ladd(smul(a[3], b[3]), smul(a[4], b[4])), smul(a[5], b[5])),
        )
    }

    /// Lane pairing with a lane motion vector (mirror of
    /// [`ForceVec::dot_motion`]).
    #[inline(always)]
    pub fn dot_motion(&self, m: &LaneMotionVec<K>) -> [f64; K] {
        m.dot_force(self)
    }
}

// ---------------------------------------------------------------------
// LaneMat3 / LaneXform
// ---------------------------------------------------------------------

/// Flat row-major lane 3×3 product `a · b` (mirror of `mat3::mul3`).
#[inline(always)]
fn lmul3<const K: usize>(a: &[[f64; K]; 9], b: &[[f64; K]; 9]) -> [[f64; K]; 9] {
    let mut out = [[0.0; K]; 9];
    for i in 0..3 {
        for j in 0..3 {
            out[3 * i + j] = ladd(
                ladd(lmul(a[3 * i], b[j]), lmul(a[3 * i + 1], b[3 + j])),
                lmul(a[3 * i + 2], b[6 + j]),
            );
        }
    }
    out
}

/// Flat row-major lane 3×3 product `aᵀ · b` (mirror of `mat3::mul3_tn`).
#[inline(always)]
fn lmul3_tn<const K: usize>(a: &[[f64; K]; 9], b: &[[f64; K]; 9]) -> [[f64; K]; 9] {
    let mut out = [[0.0; K]; 9];
    for i in 0..3 {
        for j in 0..3 {
            out[3 * i + j] = ladd(
                ladd(lmul(a[i], b[j]), lmul(a[3 + i], b[3 + j])),
                lmul(a[6 + i], b[6 + j]),
            );
        }
    }
    out
}

/// Element-wise sum of two lane 3×3 blocks (mirror of `mat6::add9`).
#[inline(always)]
fn ladd9<const K: usize>(a: &[[f64; K]; 9], b: &[[f64; K]; 9]) -> [[f64; K]; 9] {
    let mut out = *a;
    for (o, x) in out.iter_mut().zip(b) {
        *o = ladd(*o, *x);
    }
    out
}

/// `K` 3×3 matrices, lane-major (`m[3·row + col][lane]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneMat3<const K: usize> {
    m: [[f64; K]; 9],
}

impl<const K: usize> LaneMat3<K> {
    /// All-zero lanes.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self { m: [[0.0; K]; 9] }
    }

    /// Builds from per-entry lane blocks (`m[3·row + col][lane]`).
    #[inline(always)]
    pub const fn from_lanes(m: [[f64; K]; 9]) -> Self {
        Self { m }
    }

    /// Packs `K` scalar matrices.
    ///
    /// # Panics
    /// Panics if `ms.len() != K`.
    #[inline]
    pub fn gather(ms: &[Mat3]) -> Self {
        assert_eq!(ms.len(), K, "LaneMat3::gather lane count");
        let mut m = [[0.0; K]; 9];
        for (l, x) in ms.iter().enumerate() {
            let a = x.as_array();
            for k in 0..9 {
                m[k][l] = a[k];
            }
        }
        Self { m }
    }

    /// Unpacks lane `l`.
    #[inline]
    pub fn extract(&self, l: usize) -> Mat3 {
        let mut a = [0.0; 9];
        for k in 0..9 {
            a[k] = self.m[k][l];
        }
        Mat3::from_flat(a)
    }

    /// Lane matrix × lane vector (mirror of `Mat3 * Vec3`).
    #[inline(always)]
    pub fn mul_vec(&self, v: &LaneVec3<K>) -> LaneVec3<K> {
        let m = &self.m;
        let [x, y, z] = v.a;
        LaneVec3 {
            a: [
                ladd(ladd(lmul(m[0], x), lmul(m[1], y)), lmul(m[2], z)),
                ladd(ladd(lmul(m[3], x), lmul(m[4], y)), lmul(m[5], z)),
                ladd(ladd(lmul(m[6], x), lmul(m[7], y)), lmul(m[8], z)),
            ],
        }
    }

    /// Lane transposed matrix × lane vector (mirror of
    /// [`Mat3::tr_mul_vec`]).
    #[inline(always)]
    pub fn tr_mul_vec(&self, v: &LaneVec3<K>) -> LaneVec3<K> {
        let m = &self.m;
        let [x, y, z] = v.a;
        LaneVec3 {
            a: [
                ladd(ladd(lmul(m[0], x), lmul(m[3], y)), lmul(m[6], z)),
                ladd(ladd(lmul(m[1], x), lmul(m[4], y)), lmul(m[7], z)),
                ladd(ladd(lmul(m[2], x), lmul(m[5], y)), lmul(m[8], z)),
            ],
        }
    }
}

/// `K` Plücker transforms, lane-major — one per robot state in a lane
/// group (the transforms differ per lane because each lane is at its
/// own configuration `q`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneXform<const K: usize> {
    /// Coordinate rotations `E` per lane.
    pub rot: LaneMat3<K>,
    /// Origins of B in A coordinates per lane.
    pub trans: LaneVec3<K>,
}

impl<const K: usize> LaneXform<K> {
    /// The identity transform in every lane.
    #[inline]
    pub fn identity() -> Self {
        Self {
            rot: LaneMat3::gather(&[Mat3::identity(); K]),
            trans: LaneVec3::zero(),
        }
    }

    /// Packs `K` scalar transforms.
    ///
    /// # Panics
    /// Panics if `xs.len() != K`.
    #[inline]
    pub fn gather(xs: &[Xform]) -> Self {
        assert_eq!(xs.len(), K, "LaneXform::gather lane count");
        let mut rot = [[0.0; K]; 9];
        let mut trans = [[0.0; K]; 3];
        for (l, x) in xs.iter().enumerate() {
            let r = x.rot.as_array();
            for k in 0..9 {
                rot[k][l] = r[k];
            }
            let t = x.trans.as_array();
            trans[0][l] = t[0];
            trans[1][l] = t[1];
            trans[2][l] = t[2];
        }
        Self {
            rot: LaneMat3 { m: rot },
            trans: LaneVec3 { a: trans },
        }
    }

    /// Unpacks lane `l`.
    #[inline]
    pub fn extract(&self, l: usize) -> Xform {
        Xform::new(self.rot.extract(l), self.trans.extract(l))
    }

    /// Lane mirror of [`Xform::apply_motion`]:
    /// `ang = E ω`, `lin = E (v − r × ω)`.
    #[inline(always)]
    pub fn apply_motion(&self, v: &LaneMotionVec<K>) -> LaneMotionVec<K> {
        let ang = self.rot.mul_vec(&v.ang());
        let lin = self.rot.mul_vec(&v.lin().sub(&self.trans.cross(&v.ang())));
        LaneMotionVec::new(ang, lin)
    }

    /// Lane mirror of [`Xform::inv_apply_motion`].
    #[inline(always)]
    pub fn inv_apply_motion(&self, v: &LaneMotionVec<K>) -> LaneMotionVec<K> {
        let ang = self.rot.tr_mul_vec(&v.ang());
        let lin = self.rot.tr_mul_vec(&v.lin()).add(&self.trans.cross(&ang));
        LaneMotionVec::new(ang, lin)
    }

    /// Lane mirror of [`Xform::apply_force`].
    #[inline(always)]
    pub fn apply_force(&self, f: &LaneForceVec<K>) -> LaneForceVec<K> {
        let lin = self.rot.mul_vec(&f.lin());
        let ang = self.rot.mul_vec(&f.ang().sub(&self.trans.cross(&f.lin())));
        LaneForceVec::new(ang, lin)
    }

    /// Lane mirror of [`Xform::inv_apply_force`]:
    /// `lin = Eᵀ f`, `ang = Eᵀ n + r × lin`.
    #[inline(always)]
    pub fn inv_apply_force(&self, f: &LaneForceVec<K>) -> LaneForceVec<K> {
        let lin = self.rot.tr_mul_vec(&f.lin());
        let ang = self.rot.tr_mul_vec(&f.ang()).add(&self.trans.cross(&lin));
        LaneForceVec::new(ang, lin)
    }

    /// Lane mirror of [`Xform::compose`]: `E = E_self · E_rhs`,
    /// `r = r_rhs + E_rhsᵀ r_self`.
    #[inline(always)]
    pub fn compose(&self, rhs: &Self) -> Self {
        Self {
            rot: LaneMat3 {
                m: lmul3(&self.rot.m, &rhs.rot.m),
            },
            trans: rhs.trans.add(&rhs.rot.tr_mul_vec(&self.trans)),
        }
    }
}

/// Lane mirror of [`Mat3::skew`]: `[0, −z, y; z, 0, −x; −y, x, 0]`.
#[inline(always)]
fn lskew<const K: usize>(v: &LaneVec3<K>) -> [[f64; K]; 9] {
    let [x, y, z] = v.a;
    let zero = [0.0; K];
    [zero, lneg(z), y, z, zero, lneg(x), lneg(y), x, zero]
}

/// Element-wise difference of two lane 3×3 blocks (mirror of `Mat3::sub`).
#[inline(always)]
fn lsub9<const K: usize>(a: &[[f64; K]; 9], b: &[[f64; K]; 9]) -> [[f64; K]; 9] {
    let mut out = *a;
    for (o, x) in out.iter_mut().zip(b) {
        *o = lsub(*o, *x);
    }
    out
}

// ---------------------------------------------------------------------
// Lane spatial inertias and inertia rates (world-frame IDSVA quantities)
// ---------------------------------------------------------------------

/// `K` spatial inertias in compact form, lane-major: the world-frame
/// link and composite inertias of the lane IDSVA sweep. The mass is
/// shared by all lanes — it does not depend on the configuration, and
/// composites add the same masses in every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneSpatialInertia<const K: usize> {
    mass: f64,
    h: LaneVec3<K>,
    i_bar: [[f64; K]; 9],
}

impl<const K: usize> LaneSpatialInertia<K> {
    /// All-zero lanes.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self {
            mass: 0.0,
            h: LaneVec3::zero(),
            i_bar: [[0.0; K]; 9],
        }
    }

    /// Unpacks lane `l`.
    pub fn extract(&self, l: usize) -> SpatialInertia {
        let mut i_bar = [0.0; 9];
        for (o, x) in i_bar.iter_mut().zip(&self.i_bar) {
            *o = x[l];
        }
        SpatialInertia {
            mass: self.mass,
            h: self.h.extract(l),
            i_bar: Mat3::from_flat(i_bar),
        }
    }

    /// Lane mirror of [`SpatialInertia::mul_motion`]:
    /// `f = [Ī ω + h × v ; m v − h × ω]`.
    #[inline(always)]
    pub fn mul_motion(&self, v: &LaneMotionVec<K>) -> LaneForceVec<K> {
        let ang = LaneMat3 { m: self.i_bar }
            .mul_vec(&v.ang())
            .add(&self.h.cross(&v.lin()));
        let lin = v.lin().scale(self.mass).sub(&self.h.cross(&v.ang()));
        LaneForceVec::new(ang, lin)
    }

    /// Lane mirror of [`SpatialInertia::rate`]: the compact inertia rate
    /// `v ×* I − I v×` from the velocity `v` and momentum `h = I v`.
    #[inline(always)]
    pub fn rate(&self, v: &LaneMotionVec<K>, h: &LaneForceVec<K>) -> LaneInertiaRate<K> {
        let [w1, w2, w3, vl1, vl2, vl3] = v.d;
        let m = &self.i_bar;
        let (m11, m12, m13) = (m[0], m[1], m[2]);
        let (m22, m23, m33) = (m[4], m[5], m[8]);
        let c11 = smul(2.0, lsub(lmul(w2, m13), lmul(w3, m12)));
        let c22 = smul(2.0, lsub(lmul(w3, m12), lmul(w1, m23)));
        let c33 = smul(2.0, lsub(lmul(w1, m23), lmul(w2, m13)));
        let c12 = lsub(ladd(lmul(w3, lsub(m11, m22)), lmul(w2, m23)), lmul(w1, m13));
        let c13 = ladd(lsub(lmul(w2, lsub(m33, m11)), lmul(w3, m23)), lmul(w1, m12));
        let c23 = lsub(ladd(lmul(w1, lsub(m22, m33)), lmul(w3, m13)), lmul(w2, m12));
        let [h0, h1, h2] = self.h.a;
        let vh = ladd(ladd(lmul(vl1, h0), lmul(vl2, h1)), lmul(vl3, h2));
        let two_vh = smul(2.0, vh);
        let d12 = ladd(lmul(h0, vl2), lmul(vl1, h1));
        let d13 = ladd(lmul(h0, vl3), lmul(vl1, h2));
        let d23 = ladd(lmul(h1, vl3), lmul(vl2, h2));
        let k12 = lsub(c12, d12);
        let k13 = lsub(c13, d13);
        let k23 = lsub(c23, d23);
        let k = [
            lsub(c11, lsub(lmul(smul(2.0, h0), vl1), two_vh)),
            k12,
            k13,
            k12,
            lsub(c22, lsub(lmul(smul(2.0, h1), vl2), two_vh)),
            k23,
            k13,
            k23,
            lsub(c33, lsub(lmul(smul(2.0, h2), vl3), two_vh)),
        ];
        LaneInertiaRate { k, g: h.lin() }
    }

    /// Lane-wise `self += r` (mirror of the scalar `AddAssign`).
    #[inline(always)]
    pub fn add_assign(&mut self, r: &Self) {
        self.mass += r.mass;
        self.h = self.h.add(&r.h);
        for (o, x) in self.i_bar.iter_mut().zip(&r.i_bar) {
            *o = ladd(*o, *x);
        }
    }
}

impl SpatialInertia {
    /// Lane mirror of [`SpatialInertia::transform_to_parent`]: this
    /// (shared) inertia expressed through `K` lane transforms, with the
    /// scalar expression tree per lane.
    #[inline(always)]
    pub fn transform_to_parent_lanes<const K: usize>(
        &self,
        x: &LaneXform<K>,
    ) -> LaneSpatialInertia<K> {
        let et_h = x.rot.tr_mul_vec(&LaneVec3::broadcast(self.h));
        let h_a = et_h.add(&x.trans.scale(self.mass));
        let mut i_bar = [[0.0; K]; 9];
        for (o, &s) in i_bar.iter_mut().zip(self.i_bar.as_array()) {
            *o = lsplat(s);
        }
        let i_rot = lmul3(&lmul3_tn(&x.rot.m, &i_bar), &x.rot.m);
        let rx = lskew(&x.trans);
        let i_bar = lsub9(
            &lsub9(&i_rot, &lmul3(&rx, &lskew(&et_h))),
            &lmul3(&lskew(&h_a), &rx),
        );
        LaneSpatialInertia {
            mass: self.mass,
            h: h_a,
            i_bar,
        }
    }
}

/// `K` compact inertia rates ([`InertiaRate`]), lane-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneInertiaRate<const K: usize> {
    k: [[f64; K]; 9],
    g: LaneVec3<K>,
}

impl<const K: usize> LaneInertiaRate<K> {
    /// All-zero lanes.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self {
            k: [[0.0; K]; 9],
            g: LaneVec3::zero(),
        }
    }

    /// Unpacks lane `l`.
    pub fn extract(&self, l: usize) -> InertiaRate {
        let mut k = [0.0; 9];
        for (o, x) in k.iter_mut().zip(&self.k) {
            *o = x[l];
        }
        InertiaRate {
            k: Mat3::from_flat(k),
            g: self.g.extract(l),
        }
    }

    /// Lane mirror of [`InertiaRate::mul_motion`]:
    /// `[K ω + g × v ; −(g × ω)]`.
    #[inline(always)]
    pub fn mul_motion(&self, m: &LaneMotionVec<K>) -> LaneForceVec<K> {
        let w = m.ang();
        let ang = LaneMat3 { m: self.k }
            .mul_vec(&w)
            .add(&self.g.cross(&m.lin()));
        let gw = self.g.cross(&w);
        LaneForceVec::new(
            ang,
            LaneVec3 {
                a: [lneg(gw.a[0]), lneg(gw.a[1]), lneg(gw.a[2])],
            },
        )
    }

    /// Lane-wise `self += r` (mirror of the scalar `AddAssign`).
    #[inline(always)]
    pub fn add_assign(&mut self, r: &Self) {
        for (o, x) in self.k.iter_mut().zip(&r.k) {
            *o = ladd(*o, *x);
        }
        self.g = self.g.add(&r.g);
    }
}

// ---------------------------------------------------------------------
// Broadcast inertia application
// ---------------------------------------------------------------------

impl SpatialInertia {
    /// Broadcast lane mirror of [`SpatialInertia::mul_motion`]: applies
    /// this (shared, per-body-constant) inertia to `K` motion lanes —
    /// `f = [Ī ω + h × v ; m v − h × ω]` with the scalar expression tree
    /// per lane.
    #[inline(always)]
    pub fn mul_motion_lanes<const K: usize>(&self, v: &LaneMotionVec<K>) -> LaneForceVec<K> {
        let ang = self
            .i_bar
            .mul_lanes(&v.ang())
            .add(&self.h.cross_lanes(&v.lin()));
        let lin = v.lin().scale(self.mass).sub(&self.h.cross_lanes(&v.ang()));
        LaneForceVec::new(ang, lin)
    }
}

// ---------------------------------------------------------------------
// LaneMat6
// ---------------------------------------------------------------------

/// `K` dense 6×6 matrices, lane-major (`m[6·row + col][lane]`) —
/// articulated-body inertias of a lane group.
#[derive(Debug, Clone, Copy)]
pub struct LaneMat6<const K: usize> {
    m: [[f64; K]; 36],
}

impl<const K: usize> Default for LaneMat6<K> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const K: usize> LaneMat6<K> {
    /// All-zero lanes.
    #[inline]
    pub const fn zero() -> Self {
        Self { m: [[0.0; K]; 36] }
    }

    /// The same scalar matrix in every lane.
    #[inline]
    pub fn broadcast(src: &crate::Mat6) -> Self {
        let a = src.as_array();
        let mut m = [[0.0; K]; 36];
        for k in 0..36 {
            m[k] = lsplat(a[k]);
        }
        Self { m }
    }

    /// Lane-wise `self += r` (mirror of `Mat6`'s `AddAssign`).
    #[inline(always)]
    pub fn add_assign(&mut self, r: &Self) {
        for (o, x) in self.m.iter_mut().zip(&r.m) {
            *o = ladd(*o, *x);
        }
    }

    /// Unpacks lane `l`.
    pub fn extract(&self, l: usize) -> crate::Mat6 {
        let mut a = [0.0; 36];
        for k in 0..36 {
            a[k] = self.m[k][l];
        }
        crate::Mat6::from_flat(a)
    }

    /// Lane matrix × shared scalar motion column (mirror of
    /// [`crate::Mat6::mul_motion_to_force`] with the column broadcast):
    /// the `U = I^A S` columns of the articulated sweeps.
    #[inline(always)]
    pub fn mul_scalar_motion_to_force(&self, v: &MotionVec) -> LaneForceVec<K> {
        let a = v.as_array();
        let mut d = [[0.0; K]; 6];
        for (i, o) in d.iter_mut().enumerate() {
            let row = &self.m[6 * i..6 * i + 6];
            *o = ladd(
                ladd(
                    ladd(
                        ladd(
                            ladd(smul(a[0], row[0]), smul(a[1], row[1])),
                            smul(a[2], row[2]),
                        ),
                        smul(a[3], row[3]),
                    ),
                    smul(a[4], row[4]),
                ),
                smul(a[5], row[5]),
            );
        }
        LaneForceVec { d }
    }

    /// Lane matrix × lane motion vector (mirror of
    /// [`crate::Mat6::mul_motion_to_force`]).
    #[inline(always)]
    pub fn mul_motion_to_force(&self, v: &LaneMotionVec<K>) -> LaneForceVec<K> {
        let a = &v.d;
        let mut d = [[0.0; K]; 6];
        for (i, o) in d.iter_mut().enumerate() {
            let row = &self.m[6 * i..6 * i + 6];
            *o = ladd(
                ladd(
                    ladd(
                        ladd(
                            ladd(lmul(row[0], a[0]), lmul(row[1], a[1])),
                            lmul(row[2], a[2]),
                        ),
                        lmul(row[3], a[3]),
                    ),
                    lmul(row[4], a[4]),
                ),
                lmul(row[5], a[5]),
            );
        }
        LaneForceVec { d }
    }

    /// Lane mirror of [`crate::Mat6::sub_outer_weighted`]: the rank-`k`
    /// `I^A − U D⁻¹ Uᵀ` update with per-lane weights. The scalar kernel
    /// skips weight entries that are exactly `0.0`; here the skip is a
    /// per-lane **select** (a zero-weight lane keeps its entry
    /// untouched — the update product is computed and discarded, which
    /// is observationally identical and keeps the loop branch-free for
    /// the vectorizer), preserving bit-identity lane by lane.
    #[inline]
    pub fn sub_outer_weighted(
        &mut self,
        u: &[LaneForceVec<K>],
        w: impl Fn(usize, usize) -> [f64; K],
    ) {
        for (a, ua) in u.iter().enumerate() {
            for (b, ub) in u.iter().enumerate() {
                let wab = w(a, b);
                for r in 0..6 {
                    for c in 0..6 {
                        let slot = &mut self.m[6 * r + c];
                        for l in 0..K {
                            let upd = slot[l] - ua.d[r][l] * wab[l] * ub.d[c][l];
                            slot[l] = if wab[l] != 0.0 { upd } else { slot[l] };
                        }
                    }
                }
            }
        }
    }

    /// Lane mirror of [`crate::Mat6::add_congruence_xform_sym`]: fused
    /// `dest += Xᵀ · self · X` for symmetric lane inertias, evaluated on
    /// the `[E 0; B E]` block structure (`B = −E r̂`) with the same nine
    /// 3×3 products and the same `Y₁₂ = Y₂₁ᵀ` mirroring per lane.
    #[inline]
    pub fn add_congruence_xform_sym(&self, x: &LaneXform<K>, dest: &mut LaneMat6<K>) {
        let e = &x.rot.m;
        let b = {
            // E · r̂ per lane, then negated (mirror of the scalar `-erx`).
            let [tx, ty, tz] = x.trans.a;
            let zero = [0.0; K];
            let skew = [zero, lneg(tz), ty, tz, zero, lneg(tx), lneg(ty), tx, zero];
            let mut erx = lmul3(e, &skew);
            for v in erx.iter_mut() {
                *v = lneg(*v);
            }
            erx
        };
        // 3×3 blocks of self: [A C; D F] with C = Dᵀ (symmetry).
        let mut a = [[0.0; K]; 9];
        let mut c = [[0.0; K]; 9];
        let mut d = [[0.0; K]; 9];
        let mut f = [[0.0; K]; 9];
        for i in 0..3 {
            for j in 0..3 {
                a[3 * i + j] = self.m[6 * i + j];
                c[3 * i + j] = self.m[6 * i + j + 3];
                d[3 * i + j] = self.m[6 * (i + 3) + j];
                f[3 * i + j] = self.m[6 * (i + 3) + j + 3];
            }
        }
        let t11 = ladd9(&lmul3(&a, e), &lmul3(&c, &b));
        let t21 = ladd9(&lmul3(&d, e), &lmul3(&f, &b));
        let t22 = lmul3(&f, e);
        let y11 = ladd9(&lmul3_tn(e, &t11), &lmul3_tn(&b, &t21));
        let y21 = lmul3_tn(e, &t21);
        let y22 = lmul3_tn(e, &t22);
        for i in 0..3 {
            for j in 0..3 {
                dest.m[6 * i + j] = ladd(dest.m[6 * i + j], y11[3 * i + j]);
                dest.m[6 * i + j + 3] = ladd(dest.m[6 * i + j + 3], y21[3 * j + i]); // Y12 = Y21ᵀ
                dest.m[6 * (i + 3) + j] = ladd(dest.m[6 * (i + 3) + j], y21[3 * i + j]);
                dest.m[6 * (i + 3) + j + 3] = ladd(dest.m[6 * (i + 3) + j + 3], y22[3 * i + j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat6;

    const K: usize = 4;

    fn sample_motions() -> [MotionVec; K] {
        [
            MotionVec::from_slice(&[0.1, -0.2, 0.3, 1.0, 2.0, -0.5]),
            MotionVec::from_slice(&[0.4, 0.5, -0.6, 0.1, 0.9, 0.2]),
            MotionVec::from_slice(&[-0.7, 0.8, 0.9, 1.0, -1.1, 1.2]),
            MotionVec::from_slice(&[2.0, -0.1, 0.4, 0.9, 0.8, -0.3]),
        ]
    }

    fn sample_forces() -> [ForceVec; K] {
        [
            ForceVec::from_slice(&[0.3, 0.1, -0.2, 2.0, -1.0, 0.5]),
            ForceVec::from_slice(&[1.5, -0.1, 0.4, 0.9, 0.8, -0.3]),
            ForceVec::from_slice(&[-0.4, 1.5, 0.2, 0.0, 0.7, -0.3]),
            ForceVec::from_slice(&[1.0, 0.5, -0.2, 0.3, 0.0, 2.0]),
        ]
    }

    fn sample_xforms() -> [Xform; K] {
        [
            Xform::rot_axis(Vec3::new(0.3, -0.5, 0.8).normalized(), 1.234)
                .with_translation(Vec3::new(0.7, -0.2, 1.5)),
            Xform::new(Mat3::rotation_x(0.4).transpose(), Vec3::new(-0.3, 0.0, 0.2)),
            Xform::new(
                Mat3::rotation_y(-0.9).transpose(),
                Vec3::new(0.1, 0.9, -0.4),
            ),
            Xform::rot_z(2.1).with_translation(Vec3::new(1.2, -0.7, 0.05)),
        ]
    }

    #[test]
    fn gather_extract_roundtrip() {
        let ms = sample_motions();
        let lanes: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        for (l, m) in ms.iter().enumerate() {
            assert_eq!(lanes.extract(l), *m);
        }
        let xs = sample_xforms();
        let lx: LaneXform<K> = LaneXform::gather(&xs);
        for (l, x) in xs.iter().enumerate() {
            assert_eq!(lx.extract(l), *x);
        }
        let b: LaneForceVec<2> = LaneForceVec::broadcast(sample_forces()[0]);
        assert_eq!(b.extract(0), sample_forces()[0]);
        assert_eq!(b.extract(1), sample_forces()[0]);
    }

    #[test]
    fn cross_and_dot_match_scalar_bitwise() {
        let ms = sample_motions();
        let fs = sample_forces();
        let a: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        let mut rot = sample_motions();
        rot.rotate_left(1);
        let b: LaneMotionVec<K> = LaneMotionVec::gather(&rot);
        let f: LaneForceVec<K> = LaneForceVec::gather(&fs);

        let cm = a.cross_motion(&b);
        let cf = a.cross_force(&f);
        let dots = a.dot_force(&f);
        for l in 0..K {
            assert_eq!(cm.extract(l), ms[l].cross_motion(&rot[l]));
            assert_eq!(cf.extract(l), ms[l].cross_force(&fs[l]));
            assert_eq!(dots[l], ms[l].dot_force(&fs[l]));
            assert_eq!(f.dot_motion(&a)[l], fs[l].dot_motion(&ms[l]));
        }
    }

    #[test]
    fn add_scale_match_scalar_bitwise() {
        let ms = sample_motions();
        let mut rot = sample_motions();
        rot.rotate_left(2);
        let a: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        let b: LaneMotionVec<K> = LaneMotionVec::gather(&rot);
        let sum = a.add(&b);
        let w = [0.5, -1.5, 2.0, 0.25];
        let scaled = a.scale(w);
        let mut acc = a;
        acc.add_assign(&b);
        for l in 0..K {
            assert_eq!(sum.extract(l), ms[l] + rot[l]);
            assert_eq!(scaled.extract(l), ms[l] * w[l]);
            assert_eq!(acc.extract(l), ms[l] + rot[l]);
        }
    }

    #[test]
    fn weighted_sum_matches_scalar_bitwise() {
        let cols = [
            MotionVec::from_slice(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            MotionVec::from_slice(&[-1.0, 0.5, 0.2, 0.0, 0.7, -0.3]),
            MotionVec::from_slice(&[2.0, -0.1, 0.4, 0.9, 0.8, -0.3]),
        ];
        let w: [[f64; K]; 3] = [
            [0.5, 1.0, -0.3, 0.0],
            [-1.5, 0.25, 0.75, 2.0],
            [2.0, -0.5, 1.25, -1.0],
        ];
        let lanes = LaneMotionVec::weighted_sum(&cols, &w);
        for l in 0..K {
            let wl: Vec<f64> = w.iter().map(|c| c[l]).collect();
            assert_eq!(lanes.extract(l), MotionVec::weighted_sum(&cols, &wl));
        }

        // Incremental add_scaled_col mirrors the scalar axpy.
        let mut acc = LaneMotionVec::<K>::zero();
        let mut expect = [MotionVec::zero(); K];
        for (c, wk) in cols.iter().zip(&w) {
            acc.add_scaled_col(c, *wk);
            for (l, e) in expect.iter_mut().enumerate() {
                *e += *c * wk[l];
            }
        }
        for (l, e) in expect.iter().enumerate() {
            assert_eq!(acc.extract(l), *e);
        }
    }

    #[test]
    fn xform_kernels_match_scalar_bitwise() {
        let xs = sample_xforms();
        let ms = sample_motions();
        let fs = sample_forces();
        let lx: LaneXform<K> = LaneXform::gather(&xs);
        let lm: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        let lf: LaneForceVec<K> = LaneForceVec::gather(&fs);

        let am = lx.apply_motion(&lm);
        let im = lx.inv_apply_motion(&lm);
        let af = lx.apply_force(&lf);
        let inf = lx.inv_apply_force(&lf);
        for l in 0..K {
            assert_eq!(am.extract(l), xs[l].apply_motion(&ms[l]));
            assert_eq!(im.extract(l), xs[l].inv_apply_motion(&ms[l]));
            assert_eq!(af.extract(l), xs[l].apply_force(&fs[l]));
            assert_eq!(inf.extract(l), xs[l].inv_apply_force(&fs[l]));
        }
    }

    #[test]
    fn inertia_apply_matches_scalar_bitwise() {
        let inertia = SpatialInertia::from_mass_com_inertia(
            3.0,
            Vec3::new(0.1, -0.2, 0.3),
            Mat3::diagonal(Vec3::new(0.02, 0.03, 0.04)),
        );
        let ms = sample_motions();
        let lm: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        let lf = inertia.mul_motion_lanes(&lm);
        for l in 0..K {
            assert_eq!(lf.extract(l), inertia.mul_motion(&ms[l]));
        }
    }

    #[test]
    fn mat6_kernels_match_scalar_bitwise() {
        let xs = sample_xforms();
        let inertias: Vec<Mat6> = xs
            .iter()
            .map(|x| {
                SpatialInertia::from_mass_com_inertia(
                    2.0 + x.trans.x(),
                    x.trans,
                    Mat3::diagonal(Vec3::new(0.1, 0.2, 0.3)),
                )
                .to_mat6()
            })
            .collect();
        let mut lane_ia = LaneMat6::<K>::zero();
        for (l, ia) in inertias.iter().enumerate() {
            for k in 0..36 {
                lane_ia.m[k][l] = ia.as_array()[k];
            }
        }

        // Shared-column product.
        let col = MotionVec::from_slice(&[0.0, 0.0, 1.0, 0.2, -0.1, 0.4]);
        let u = lane_ia.mul_scalar_motion_to_force(&col);
        for (l, ia) in inertias.iter().enumerate() {
            assert_eq!(u.extract(l), ia.mul_motion_to_force(&col));
        }

        // Lane-vector product.
        let ms = sample_motions();
        let lm: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        let lv = lane_ia.mul_motion_to_force(&lm);
        for (l, ia) in inertias.iter().enumerate() {
            assert_eq!(lv.extract(l), ia.mul_motion_to_force(&ms[l]));
        }

        // Rank-k update with a zero-weight lane exercising the select.
        let fs = sample_forces();
        let mut rot = sample_forces();
        rot.rotate_left(1);
        let u0: LaneForceVec<K> = LaneForceVec::gather(&fs);
        let u1: LaneForceVec<K> = LaneForceVec::gather(&rot);
        let w: [[[f64; K]; 2]; 2] = [
            [[2.0, 0.0, 1.0, -0.5], [0.5, 0.3, 0.0, 0.1]],
            [[0.5, 0.3, 0.0, 0.1], [1.2, -1.0, 0.7, 0.0]],
        ];
        let mut lane_upd = lane_ia;
        lane_upd.sub_outer_weighted(&[u0, u1], |a, b| w[a][b]);
        for (l, ia) in inertias.iter().enumerate() {
            let mut scalar = *ia;
            scalar.sub_outer_weighted(&[fs[l], rot[l]], |a, b| w[a][b][l]);
            assert_eq!(
                lane_upd.extract(l).as_array(),
                scalar.as_array(),
                "lane {l}"
            );
        }

        // Symmetric congruence accumulation.
        let lx: LaneXform<K> = LaneXform::gather(&xs);
        let mut lane_dest = LaneMat6::<K>::broadcast(&Mat6::identity());
        lane_ia.add_congruence_xform_sym(&lx, &mut lane_dest);
        for (l, ia) in inertias.iter().enumerate() {
            let mut scalar_dest = Mat6::identity();
            ia.add_congruence_xform_sym(&xs[l], &mut scalar_dest);
            assert_eq!(
                lane_dest.extract(l).as_array(),
                scalar_dest.as_array(),
                "lane {l}"
            );
        }
    }

    #[test]
    fn idsva_kernels_match_scalar_bitwise() {
        let xs = sample_xforms();
        let ms = sample_motions();
        let fs = sample_forces();
        let mut rot = sample_xforms();
        rot.rotate_left(1);
        let lx: LaneXform<K> = LaneXform::gather(&xs);
        let lr: LaneXform<K> = LaneXform::gather(&rot);
        let lm: LaneMotionVec<K> = LaneMotionVec::gather(&ms);
        let lf: LaneForceVec<K> = LaneForceVec::gather(&fs);
        let link = SpatialInertia::from_mass_com_inertia(
            3.0,
            Vec3::new(0.1, -0.2, 0.3),
            Mat3::diagonal(Vec3::new(0.02, 0.03, 0.04)),
        );

        let composed = lx.compose(&lr);
        let iw = link.transform_to_parent_lanes(&lx);
        let h = iw.mul_motion(&lm);
        let rate = iw.rate(&lm, &h);
        let mut sum = iw;
        sum.add_assign(&link.transform_to_parent_lanes(&lr));
        let mut rate_sum = rate;
        rate_sum.add_assign(&rate);
        for l in 0..K {
            assert_eq!(composed.extract(l), xs[l].compose(&rot[l]), "lane {l}");
            let iw_l = link.transform_to_parent(&xs[l]);
            assert_eq!(iw.extract(l), iw_l, "lane {l}");
            let h_l = iw_l.mul_motion(&ms[l]);
            assert_eq!(h.extract(l), h_l, "lane {l}");
            let rate_l = iw_l.rate(&ms[l], &h_l);
            assert_eq!(rate.extract(l), rate_l, "lane {l}");
            assert_eq!(rate.mul_motion(&lm).extract(l), rate_l.mul_motion(&ms[l]));
            assert_eq!(sum.extract(l), iw_l + link.transform_to_parent(&rot[l]));
            assert_eq!(rate_sum.extract(l), rate_l + rate_l);
            assert_eq!(lm.sub(&lm.neg()).extract(l), ms[l] - (-ms[l]));
            assert_eq!(lf.sub(&lf.neg()).extract(l), fs[l] - (-fs[l]));
        }
    }

    #[test]
    fn lane_width_one_is_the_scalar_path() {
        // K = 1 must reproduce the scalar kernels exactly (lane width 1
        // is the per-sample reference of the lane sweeps).
        let m = sample_motions()[0];
        let f = sample_forces()[0];
        let x = sample_xforms()[0];
        let lm: LaneMotionVec<1> = LaneMotionVec::gather(&[m]);
        let lf: LaneForceVec<1> = LaneForceVec::gather(&[f]);
        let lx: LaneXform<1> = LaneXform::gather(&[x]);
        assert_eq!(lx.apply_motion(&lm).extract(0), x.apply_motion(&m));
        assert_eq!(lx.inv_apply_force(&lf).extract(0), x.inv_apply_force(&f));
        assert_eq!(lm.dot_force(&lf)[0], m.dot_force(&f));
    }
}
