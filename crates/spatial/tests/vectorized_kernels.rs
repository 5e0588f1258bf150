//! Pins the array-backed, autovectorization-friendly spatial kernels to
//! the textbook formulas and algebraic identities they must satisfy —
//! the Floretta-style discipline for refactoring a derivative engine:
//! every rewritten primitive is checked against an independent reference
//! evaluation (built here from `ang()`/`lin()` parts and plain `Vec3`
//! algebra) plus the adjoint/Jacobi/duality identities, over hundreds of
//! pseudo-random inputs. The fused batch entry points are additionally
//! required to be **bit-identical** to their per-vector scalar loops.

use rbd_spatial::{ForceVec, Mat3, Mat6, MotionVec, SpatialInertia, Vec3, Xform};

/// Minimal deterministic RNG (xorshift64*) — no external dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    /// Uniform in (-1, 1).
    fn f(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
    fn vec3(&mut self) -> Vec3 {
        Vec3::new(self.f(), self.f(), self.f())
    }
    fn motion(&mut self) -> MotionVec {
        MotionVec::new(self.vec3(), self.vec3())
    }
    fn force(&mut self) -> ForceVec {
        ForceVec::new(self.vec3(), self.vec3())
    }
    fn xform(&mut self) -> Xform {
        let axis = (self.vec3() + Vec3::new(1.5, 0.0, 0.0)).normalized();
        Xform::rot_axis(axis, 2.0 * self.f()).with_translation(self.vec3())
    }
    fn inertia(&mut self) -> SpatialInertia {
        let d = Vec3::new(
            0.05 + self.f().abs(),
            0.05 + self.f().abs(),
            0.05 + self.f().abs(),
        );
        SpatialInertia::from_mass_com_inertia(0.1 + self.f().abs() * 3.0, self.vec3(), {
            Mat3::diagonal(d)
        })
    }
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    let scale = 1.0 + a.iter().chain(b).fold(0.0_f64, |m, x| m.max(x.abs()));
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x - y).abs() <= tol * scale,
            "{what}: {x} vs {y} (tol {tol}, scale {scale})"
        );
    }
}

// ---------------------------------------------------------------- reference
// Old-layout reference formulas, written in terms of `Vec3` parts only.

fn ref_cross_motion(v: &MotionVec, m: &MotionVec) -> MotionVec {
    MotionVec::new(
        v.ang().cross(&m.ang()),
        v.ang().cross(&m.lin()) + v.lin().cross(&m.ang()),
    )
}

fn ref_cross_force(v: &MotionVec, f: &ForceVec) -> ForceVec {
    ForceVec::new(
        v.ang().cross(&f.ang()) + v.lin().cross(&f.lin()),
        v.ang().cross(&f.lin()),
    )
}

fn ref_apply_motion(x: &Xform, v: &MotionVec) -> MotionVec {
    MotionVec::new(x.rot * v.ang(), x.rot * (v.lin() - x.trans.cross(&v.ang())))
}

fn ref_inv_apply_motion(x: &Xform, v: &MotionVec) -> MotionVec {
    let ang = x.rot.transpose() * v.ang();
    MotionVec::new(ang, x.rot.transpose() * v.lin() + x.trans.cross(&ang))
}

fn ref_inv_apply_force(x: &Xform, f: &ForceVec) -> ForceVec {
    let lin = x.rot.transpose() * f.lin();
    ForceVec::new(x.rot.transpose() * f.ang() + x.trans.cross(&lin), lin)
}

fn ref_inertia_apply(i: &SpatialInertia, v: &MotionVec) -> ForceVec {
    ForceVec::new(
        i.i_bar * v.ang() + i.h.cross(&v.lin()),
        v.lin() * i.mass - i.h.cross(&v.ang()),
    )
}

// ----------------------------------------------------------------- kernels

#[test]
fn cross_kernels_match_reference_formulas() {
    let mut rng = Rng::new(1);
    for _ in 0..500 {
        let v = rng.motion();
        let m = rng.motion();
        let f = rng.force();
        assert_close(
            &v.cross_motion(&m).to_array(),
            &ref_cross_motion(&v, &m).to_array(),
            1e-15,
            "cross_motion",
        );
        assert_close(
            &v.cross_force(&f).to_array(),
            &ref_cross_force(&v, &f).to_array(),
            1e-15,
            "cross_force",
        );
        let refdot = v.ang().dot(&f.ang()) + v.lin().dot(&f.lin());
        assert!((v.dot_force(&f) - refdot).abs() < 1e-15);
    }
}

#[test]
fn xform_kernels_match_reference_formulas() {
    let mut rng = Rng::new(2);
    for _ in 0..500 {
        let x = rng.xform();
        let v = rng.motion();
        let f = rng.force();
        assert_close(
            &x.apply_motion(&v).to_array(),
            &ref_apply_motion(&x, &v).to_array(),
            1e-14,
            "apply_motion",
        );
        assert_close(
            &x.inv_apply_motion(&v).to_array(),
            &ref_inv_apply_motion(&x, &v).to_array(),
            1e-14,
            "inv_apply_motion",
        );
        assert_close(
            &x.inv_apply_force(&f).to_array(),
            &ref_inv_apply_force(&x, &f).to_array(),
            1e-14,
            "inv_apply_force",
        );
    }
}

#[test]
fn inertia_kernels_match_reference_formulas() {
    let mut rng = Rng::new(3);
    for _ in 0..500 {
        let i = rng.inertia();
        let v = rng.motion();
        assert_close(
            &i.mul_motion(&v).to_array(),
            &ref_inertia_apply(&i, &v).to_array(),
            1e-15,
            "inertia mul_motion",
        );
    }
}

// --------------------------------------------------------------- identities

#[test]
fn adjoint_identity_over_random_inputs() {
    // ⟨v × m, f⟩ = -⟨m, v ×* f⟩ for all v, m, f.
    let mut rng = Rng::new(4);
    for _ in 0..500 {
        let (v, m, f) = (rng.motion(), rng.motion(), rng.force());
        let lhs = v.cross_motion(&m).dot_force(&f);
        let rhs = -m.dot_force(&v.cross_force(&f));
        assert!(
            (lhs - rhs).abs() < 1e-13 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }
}

#[test]
fn jacobi_identity_over_random_inputs() {
    let mut rng = Rng::new(5);
    for _ in 0..500 {
        let (a, b, c) = (rng.motion(), rng.motion(), rng.motion());
        let total = a.cross_motion(&b.cross_motion(&c))
            + b.cross_motion(&c.cross_motion(&a))
            + c.cross_motion(&a.cross_motion(&b));
        assert!(total.max_abs() < 1e-13);
    }
}

#[test]
fn transform_equivariance_and_duality() {
    let mut rng = Rng::new(6);
    for _ in 0..300 {
        let x = rng.xform();
        let (a, b, f) = (rng.motion(), rng.motion(), rng.force());
        // X(a × b) = (Xa) × (Xb).
        let lhs = x.apply_motion(&a.cross_motion(&b));
        let rhs = x.apply_motion(&a).cross_motion(&x.apply_motion(&b));
        assert_close(&lhs.to_array(), &rhs.to_array(), 1e-12, "equivariance");
        // ⟨Xa, X*f⟩ = ⟨a, f⟩.
        let p = x.apply_motion(&a).dot_force(&x.apply_force(&f));
        assert!((p - a.dot_force(&f)).abs() < 1e-12 * (1.0 + p.abs()));
        // Roundtrip.
        let back = x.inv_apply_motion(&x.apply_motion(&a));
        assert_close(&back.to_array(), &a.to_array(), 1e-13, "roundtrip");
    }
}

// ------------------------------------------------------------------- batch

#[test]
fn batch_entry_points_are_bit_identical_to_scalar_loops() {
    let mut rng = Rng::new(7);
    for trial in 0..50 {
        let n = 1 + (trial % 7);
        let x = rng.xform();
        let i6: Mat6 = rng.inertia().to_mat6();
        let ms: Vec<MotionVec> = (0..n).map(|_| rng.motion()).collect();
        let fs: Vec<ForceVec> = (0..n).map(|_| rng.force()).collect();
        let ws: Vec<f64> = (0..n).map(|_| rng.f()).collect();

        let mut mout = vec![MotionVec::zero(); n];
        x.apply_motion_batch(&ms, &mut mout);
        for (s, d) in ms.iter().zip(&mout) {
            assert_eq!(d.to_array(), x.apply_motion(s).to_array());
        }
        x.inv_apply_motion_batch(&ms, &mut mout);
        for (s, d) in ms.iter().zip(&mout) {
            assert_eq!(d.to_array(), x.inv_apply_motion(s).to_array());
        }

        let mut fs2 = fs.clone();
        x.inv_apply_force_batch_in_place(&mut fs2);
        for (s, d) in fs.iter().zip(&fs2) {
            assert_eq!(d.to_array(), x.inv_apply_force(s).to_array());
        }

        let mut acc = fs.clone();
        let idx: Vec<usize> = (0..n).step_by(2).collect();
        x.inv_apply_force_accum(&fs, &mut acc, idx.iter().copied());
        for (j, (s, d)) in fs.iter().zip(&acc).enumerate() {
            let expect = if j % 2 == 0 {
                *s + x.inv_apply_force(s)
            } else {
                *s
            };
            assert_eq!(d.to_array(), expect.to_array());
        }

        let mut fout = vec![ForceVec::zero(); n];
        i6.mul_motion_to_force_batch(&ms, &mut fout);
        for (s, d) in ms.iter().zip(&fout) {
            assert_eq!(d.to_array(), i6.mul_motion_to_force(s).to_array());
        }

        // Fused weighted sum vs the scalar axpy loop.
        let mut expect = MotionVec::zero();
        for (c, &w) in ms.iter().zip(&ws) {
            expect += *c * w;
        }
        assert_eq!(
            MotionVec::weighted_sum(&ms, &ws).to_array(),
            expect.to_array()
        );

        // Batched torque projection vs scalar dots.
        let f0 = fs[0];
        let mut tau = vec![0.0; n];
        MotionVec::dot_force_batch(&ms, &f0, &mut tau);
        for (c, t) in ms.iter().zip(&tau) {
            assert_eq!(*t, c.dot_force(&f0));
        }
    }
}

#[test]
fn congruence_xform_matches_dense_congruence() {
    let mut rng = Rng::new(8);
    for _ in 0..200 {
        let x = rng.xform();
        let i = rng.inertia().to_mat6();
        let dense = i.congruence(&Mat6::from_xform_motion(&x));
        let mut fast = Mat6::zero();
        i.add_congruence_xform(&x, &mut fast);
        let scale = 1.0 + dense.max_abs();
        assert!((dense - fast).max_abs() < 1e-13 * scale);
        // Symmetric-input specialisation agrees for symmetric inertias.
        let mut sym = Mat6::zero();
        i.add_congruence_xform_sym(&x, &mut sym);
        assert!((dense - sym).max_abs() < 1e-13 * scale);
        assert!(sym.is_symmetric(1e-12 * scale));
    }
}

#[test]
fn sub_outer_weighted_matches_reference_loop() {
    let mut rng = Rng::new(9);
    for trial in 0..100 {
        let n = 1 + (trial % 6);
        let u: Vec<ForceVec> = (0..n).map(|_| rng.force()).collect();
        let w: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rng.f()).collect()).collect();
        let base = rng.inertia().to_mat6();
        let mut fast = base;
        fast.sub_outer_weighted(&u, |a, b| w[a][b]);
        let mut slow = base;
        for a in 0..n {
            for b in 0..n {
                let ua = u[a].to_array();
                let ub = u[b].to_array();
                for r in 0..6 {
                    for c in 0..6 {
                        slow[(r, c)] -= ua[r] * w[a][b] * ub[c];
                    }
                }
            }
        }
        assert_eq!(fast.as_array(), slow.as_array());
    }
}

/// The transposed products equal `transpose_into` followed by the plain
/// product bit for bit, on shapes up to Atlas's `72 × 36` (`nx × nv`).
/// The left operand has about a third zeros (the zero-skip path), a zero
/// row, a column of negative zeros (whose sum is a signed zero, so the
/// starting value of the sum shows) and a column that cancels exactly.
#[test]
fn transposed_products_match_transpose_then_multiply() {
    use rbd_spatial::{MatN, VecN};
    let bits = |m: &MatN| -> Vec<u64> {
        (0..m.rows())
            .flat_map(|i| m.row(i).iter().map(|x| x.to_bits()))
            .collect()
    };
    let vbits = |v: &VecN| -> Vec<u64> { v.as_slice().iter().map(|x| x.to_bits()).collect() };
    let mut rng = Rng::new(10);
    // (rows, cols) of the left operand, columns of the right one.
    let mut shapes = vec![
        (1, 1, 1),
        (2, 3, 5),
        (14, 14, 14),
        (14, 7, 14),
        (36, 36, 18),
        (72, 72, 36),
        (72, 36, 72),
    ];
    for _ in 0..8 {
        let mut draw = |n: u64| 1 + (rng.next_u64() % n) as usize;
        shapes.push((draw(72), draw(36), draw(36)));
    }
    for (m, n, p) in shapes {
        let what = format!("{m}x{n} by {m}x{p}");
        let mut a = MatN::zeros(m, n);
        let mut b = MatN::zeros(m, p);
        let mut v = VecN::zeros(m);
        for k in 0..m {
            for x in a.row_mut(k) {
                *x = if rng.next_u64() % 3 == 0 {
                    0.0
                } else {
                    rng.f()
                };
            }
            for x in b.row_mut(k) {
                *x = rng.f();
            }
            // Pairs of equal entries, so the cancelling column sums to 0.
            v[k] = if k % 2 == 1 { v[k - 1] } else { rng.f() };
        }
        let zero_row = m / 2;
        if n >= 3 {
            for k in 0..m {
                a[(k, 0)] = -0.0;
                // ±0.75 on whole pairs of rows; the zero row's pair and
                // an unpaired last row hold 0.
                let paired = k / 2 != zero_row / 2 && (k ^ 1) < m;
                a[(k, n - 1)] = match (paired, k % 2) {
                    (false, _) => 0.0,
                    (true, 0) => 0.75,
                    (true, _) => -0.75,
                };
            }
        }
        a.row_mut(zero_row).fill(0.0);
        let mut at = MatN::zeros(n, m);
        a.transpose_into(&mut at);

        let (mut out, mut expect) = (MatN::zeros(n, p), MatN::zeros(n, p));
        a.tr_mul_mat_into(&b, &mut out);
        at.mul_mat_into(&b, &mut expect);
        assert_eq!(bits(&out), bits(&expect), "{what}: tr_mul_mat_into");

        let (mut out, mut expect) = (VecN::zeros(n), VecN::zeros(n));
        a.tr_mul_vec_into(&v, &mut out);
        at.mul_vec_into(&v, &mut expect);
        assert_eq!(vbits(&out), vbits(&expect), "{what}: tr_mul_vec_into");
        if n >= 3 {
            assert_eq!(out[0], 0.0, "{what}: negative-zero column");
            assert_eq!(out[n - 1], 0.0, "{what}: cancelling column");
        }
    }
}

// ----------------------------------------------------------- IDSVA kernels

/// Dense reference for the inertia rate: `İ = crf(v)·I₆ − I₆·crm(v)`.
fn ref_inertia_rate_dense(i: &SpatialInertia, v: &MotionVec) -> Mat6 {
    let i6 = i.to_mat6();
    let crm = Mat6::cross_motion(v);
    let crf = Mat6::cross_force(v);
    crf * i6 - i6 * crm
}

#[test]
fn cross_operator_matrices_match_vector_kernels() {
    let mut rng = Rng::new(11);
    for _ in 0..300 {
        let v = rng.motion();
        let m = rng.motion();
        let f = rng.force();
        let crm = Mat6::cross_motion(&v);
        let crf = Mat6::cross_force(&v);
        assert_close(
            &crm.mul_motion(&m).to_array(),
            &v.cross_motion(&m).to_array(),
            1e-15,
            "crm(v)·m = v × m",
        );
        assert_close(
            &crf.mul_motion_to_force(&MotionVec::from_slice(&f.to_array()))
                .to_array(),
            &v.cross_force(&f).to_array(),
            1e-15,
            "crf(v)·f = v ×* f",
        );
        // crf(v) = −crm(v)ᵀ.
        let neg_t = crm.transpose();
        for (a, b) in crf.as_array().iter().zip(neg_t.as_array()) {
            assert_eq!(*a, -*b);
        }
    }
}

#[test]
fn inertia_rate_matches_dense_reference() {
    let mut rng = Rng::new(12);
    for _ in 0..500 {
        let i = rng.inertia();
        let v = rng.motion();
        let h = i.mul_motion(&v);
        let rate = i.rate(&v, &h);
        let dense = ref_inertia_rate_dense(&i, &v);
        // Compact form reproduces the dense rate (structure + values).
        assert_close(
            rate.to_mat6().as_array(),
            dense.as_array(),
            1e-13,
            "İ compact vs dense",
        );
        // The dense rate is symmetric, and its lower-right block vanishes.
        for r in 0..6 {
            for c in 0..6 {
                assert!(
                    (dense[(r, c)] - dense[(c, r)]).abs() < 1e-12,
                    "İ symmetry ({r},{c})"
                );
            }
        }
        for r in 3..6 {
            for c in 3..6 {
                assert!(dense[(r, c)].abs() < 1e-12, "İ lower-right ({r},{c})");
            }
        }
        // Application kernel against the dense product.
        let m = rng.motion();
        assert_close(
            &rate.mul_motion(&m).to_array(),
            &dense.mul_motion_to_force(&m).to_array(),
            1e-13,
            "İ·m",
        );
        // d/dt (½ vᵀIv) consistency: ⟨v, İ v⟩ = 2⟨v, v ×* (I v)⟩ = 0 when
        // applied to the generating velocity (power form of the rate).
        let p = v.dot_force(&rate.mul_motion(&v));
        let q = 2.0 * v.dot_force(&v.cross_force(&h));
        assert!((p - q).abs() < 1e-12 * (1.0 + p.abs()), "{p} vs {q}");
    }
}

#[test]
fn inertia_rate_accumulates_componentwise() {
    use rbd_spatial::InertiaRate;
    let mut rng = Rng::new(13);
    for _ in 0..100 {
        let (i1, i2) = (rng.inertia(), rng.inertia());
        let (v1, v2) = (rng.motion(), rng.motion());
        let r1 = i1.rate(&v1, &i1.mul_motion(&v1));
        let r2 = i2.rate(&v2, &i2.mul_motion(&v2));
        let mut acc = InertiaRate::zero();
        acc += r1;
        acc += r2;
        let m = rng.motion();
        assert_close(
            &acc.mul_motion(&m).to_array(),
            &(r1.mul_motion(&m) + r2.mul_motion(&m)).to_array(),
            1e-13,
            "rate accumulation",
        );
        assert_eq!((r1 + r2).k.as_array(), acc.k.as_array());
    }
}

#[test]
fn dot_pairs_are_bit_identical_to_two_dots() {
    let mut rng = Rng::new(14);
    for _ in 0..300 {
        let m = rng.motion();
        let (f1, f2) = (rng.force(), rng.force());
        let (a, b) = m.dot_force_pair(&f1, &f2);
        assert_eq!(a, m.dot_force(&f1));
        assert_eq!(b, m.dot_force(&f2));
        let (m1, m2) = (rng.motion(), rng.motion());
        let (c, d) = f1.dot_motion_pair(&m1, &m2);
        assert_eq!(c, f1.dot_motion(&m1));
        assert_eq!(d, f1.dot_motion(&m2));
    }
}
