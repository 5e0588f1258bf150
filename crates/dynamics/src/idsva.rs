//! IDSVA — analytical ΔID restructured around shared spatial quantities
//! (Singh, Russell & Wensing, *Efficient Analytical Derivatives of
//! Rigid-Body Dynamics using Spatial Vector Algebra*, RA-L 2022).
//!
//! This is the crate's only ΔID kernel; [`crate::rnea_derivatives_into`]
//! and everything downstream of it (ΔFD/ΔiFD, `BatchEval`, the trajopt
//! LQ phase) call it. The Carpentier–Mansard expansion propagates
//! per-(body, ancestor-DOF) velocity/acceleration derivative columns
//! down the tree and differentiates each body force — the per-pair work
//! is a handful of spatial crosses and inertia applications. IDSVA
//! instead pushes everything body- or DOF-dependent into **composite
//! quantities accumulated once leaves→root**, after which every matrix
//! entry is a couple of 6-D dot products:
//!
//! * per body `i`: the composite inertia `I^C_i`, composite force `F_i`
//!   (the plain RNEA backward accumulation), composite momentum
//!   `H^C_i = Σ I_l v_l` and composite inertia rate
//!   `J^C_i = Σ (v_l ×* I_l − I_l v_l×)` — the rate is symmetric with a
//!   vanishing linear-linear block, so it accumulates as nine scalars
//!   ([`rbd_spatial::InertiaRate`]);
//! * per DOF `j`: three motion vectors `w_j = S_j × v_λ(j)`,
//!   `γ_j = S_j × (v_λ(j) + v_b(j))`,
//!   `ζ_j = S_j × a_λ(j) − w_j × v_λ(j)` that carry the entire
//!   `j`-dependence of `∂v_i/∂·` and `∂a_i/∂·`;
//! * per DOF `k` at its own body: the projections `I^C S_k`,
//!   `J^C S_k`, `S_k ×* H^C` (two 6×6-by-6 products and a cross).
//!
//! Two identities make the per-pair work collapse:
//!
//! 1. the force-cross commutator `crf(v)crf(s) − crf(s)crf(v) =
//!    crf(v × s)` folds the acceleration-side operator into
//!    `S_j ×* Φ_i` with `Φ_i = Σ (I_l a_l + v_l ×* I_l v_l)` — which is
//!    exactly the composite force the RNEA backward pass already
//!    accumulates (plus the external-force sum when present). In
//!    particular the geometric `∂S_k/∂q_j` term of `∂τ/∂q` cancels
//!    against it **exactly** when no external forces act;
//! 2. the inertia rate `İ` is symmetric (`İᵀ = İ`), so row- and
//!    column-side projections share one compact operator.
//!
//! With the per-pair cost down to two fused dot pairs, the single-thread
//! hot path drops well below the expansion. The expansion survives only
//! as a test-only oracle (`crates/dynamics/tests/support/expansion.rs`):
//! `crates/dynamics/tests/backend_equivalence.rs` pins this kernel to it
//! and to central finite differences.
//!
//! The kernel is allocation-free in steady state: every composite and
//! per-DOF table lives in flat [`DynamicsWorkspace`] buffers
//! (`idsva_*`), proven by `crates/dynamics/tests/zero_alloc.rs`.

use crate::derivatives::RneaDerivatives;
use crate::workspace::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MotionVec};

/// Analytical `ΔID` via the IDSVA formulation — the kernel behind
/// [`crate::rnea_derivatives_into`].
///
/// # Panics
/// Panics on input dimension mismatches.
///
/// # Example
/// ```
/// use rbd_dynamics::{rnea_derivatives_idsva_into, RneaDerivatives, DynamicsWorkspace};
/// use rbd_model::{robots, random_state};
/// let model = robots::hyq();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let s = random_state(&model, 0);
/// let qdd = vec![0.0; model.nv()];
/// let mut out = RneaDerivatives::zeros(model.nv());
/// rnea_derivatives_idsva_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut out);
/// assert_eq!(out.dtau_dq.rows(), model.nv());
/// ```
pub fn rnea_derivatives_idsva_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
    out: &mut RneaDerivatives,
) {
    let nb = model.num_bodies();
    let nv = model.nv();
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert_eq!(qd.len(), nv, "qd dimension");
    assert_eq!(qdd.len(), nv, "qdd dimension");
    if let Some(f) = fext {
        assert_eq!(f.len(), nb, "fext dimension");
    }
    out.ensure_dims(nv);

    ws.update_kinematics(model, q);

    let DynamicsWorkspace {
        s,
        s_off,
        xworld,
        f,
        s_world,
        v_world,
        a_world,
        chain_offsets,
        chain_dofs,
        vj_w,
        aj_w,
        inertia_w,
        idsva_h,
        idsva_inertia_c,
        idsva_h_c,
        idsva_rate_c,
        idsva_fext_c,
        idsva_w,
        idsva_gamma,
        idsva_zeta,
        ..
    } = ws;
    let chain = |i: usize| &chain_dofs[chain_offsets[i]..chain_offsets[i + 1]];

    // Gravity baseline: a₀ = -g in world coordinates.
    let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity);

    // ---------------------------------------------------------- forward
    // World-frame kinematics, plus
    // the per-body seeds of every composite and the three per-DOF motion
    // vectors that carry the whole column-`j` dependence.
    for i in 0..nb {
        let x0 = xworld[i];
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        x0.inv_apply_motion_batch(&s[vo..vo + ni], &mut s_world[vo..vo + ni]);
        vj_w[i] = MotionVec::weighted_sum(&s_world[vo..vo + ni], &qd[vo..vo + ni]);
        aj_w[i] = MotionVec::weighted_sum(&s_world[vo..vo + ni], &qdd[vo..vo + ni]);

        let (vp, ap) = match model.topology().parent(i) {
            Some(p) => (v_world[p], a_world[p]),
            None => (MotionVec::zero(), a0),
        };
        let v = vp + vj_w[i];
        let a = ap + aj_w[i] + v.cross_motion(&vj_w[i]);
        v_world[i] = v;
        a_world[i] = a;

        let iw = model.link_inertia(i).transform_to_parent(&x0);
        inertia_w[i] = iw;
        let h = iw.mul_motion(&v);
        idsva_h[i] = h;
        // φ_i = I a + v ×* (I v); the net body force f_i = φ_i − f_ext,i
        // doubles as the RNEA backward accumulator.
        let mut fb = iw.mul_motion(&a) + v.cross_force(&h);
        if let Some(fx) = fext {
            fb -= fx[i]; // already world frame
            idsva_fext_c[i] = fx[i];
        }
        f[i] = fb;

        // Composite seeds (children accumulate in during the backward
        // sweep).
        idsva_inertia_c[i] = iw;
        idsva_h_c[i] = h;
        idsva_rate_c[i] = iw.rate(&v, &h);

        // Per-DOF offsets: everything `∂v_i/∂·`, `∂a_i/∂·` need besides
        // the body-`i` terms. `w_j = S_j × v_λ` is `−S̊_j`.
        for d in 0..ni {
            let j = vo + d;
            let sj = s_world[j];
            let w = sj.cross_motion(&vp);
            idsva_w[j] = w;
            idsva_gamma[j] = sj.cross_motion(&(vp + v));
            idsva_zeta[j] = sj.cross_motion(&ap) - w.cross_motion(&vp);
        }
    }

    // --------------------------------------------------------- backward
    // Leaves→root: at each body the subtree composites are final, so the
    // rows of its own DOFs (columns = ancestor chain) and the columns of
    // its own DOFs (rows = strict ancestors) are emitted with dot
    // products only, then the composites fold into the parent.
    //
    // Row fill, `j ⪯ k` (composites at body(k)):
    //   ∂τ_k/∂q_j  =  u1_k·S_j + u2_k·w_j − t2_k·ζ_j
    //   ∂τ_k/∂q̇_j = −u2_k·S_j − t2_k·γ_j
    // with t2 = I^C S_k, u2 = S_k ×* H^C − J^C S_k and
    // u1 = −S_k ×* (Σ f_ext) (exactly zero without external forces).
    //
    // Column fill, `k ≺ j` strictly (composites at body(j)):
    //   ∂τ_k/∂q_j  = S_k·e_j,   e_j = S_j ×* Φ − J^C w_j − w_j ×* H^C − I^C ζ_j
    //   ∂τ_k/∂q̇_j = S_k·d1_j,  d1_j = J^C S_j + S_j ×* H^C − I^C γ_j
    out.dtau_dq.fill(0.0);
    out.dtau_dqd.fill(0.0);

    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let parent = model.topology().parent(i);

        // τ by-product: F_i is final here (children already folded in).
        MotionVec::dot_force_batch(&s_world[vo..vo + ni], &f[i], &mut out.tau[vo..vo + ni]);

        let icomp = idsva_inertia_c[i];
        let rate = idsva_rate_c[i];
        let hc = idsva_h_c[i];
        let chain_i = chain(i);
        let parent_chain_len = chain_i.len() - ni;
        let strict_ancestors = &chain_i[..parent_chain_len];

        for d in 0..ni {
            let k = vo + d;
            let sk = s_world[k];
            let t2 = icomp.mul_motion(&sk);
            let js = rate.mul_motion(&sk);
            let sxh = sk.cross_force(&hc);
            let u2 = sxh - js;

            // ---- row k over all chain columns (incl. own-body DOFs).
            let row_q = out.dtau_dq.row_mut(k);
            if fext.is_none() {
                for &j in chain_i {
                    let (a, b) = u2.dot_motion_pair(&idsva_w[j], &s_world[j]);
                    let (c, e) = t2.dot_motion_pair(&idsva_zeta[j], &idsva_gamma[j]);
                    row_q[j] = a - c;
                    out.dtau_dqd[(k, j)] = -b - e;
                }
            } else {
                let u1 = -sk.cross_force(&idsva_fext_c[i]);
                for &j in chain_i {
                    let (a, b) = u2.dot_motion_pair(&idsva_w[j], &s_world[j]);
                    let (c, e) = t2.dot_motion_pair(&idsva_zeta[j], &idsva_gamma[j]);
                    row_q[j] = u1.dot_motion(&s_world[j]) + a - c;
                    out.dtau_dqd[(k, j)] = -b - e;
                }
            }

            // ---- column k over strict-ancestor rows.
            if !strict_ancestors.is_empty() {
                let d1 = js + sxh - icomp.mul_motion(&idsva_gamma[k]);
                let w = idsva_w[k];
                let mut e = sk.cross_force(&f[i])
                    - rate.mul_motion(&w)
                    - w.cross_force(&hc)
                    - icomp.mul_motion(&idsva_zeta[k]);
                if fext.is_some() {
                    // Φ = F + Σ f_ext: restore the external-force part
                    // that the RNEA accumulator subtracts.
                    e += sk.cross_force(&idsva_fext_c[i]);
                }
                for &kk in strict_ancestors {
                    let (dq, dqd) = s_world[kk].dot_force_pair(&e, &d1);
                    out.dtau_dq[(kk, k)] = dq;
                    out.dtau_dqd[(kk, k)] = dqd;
                }
            }
        }

        // Fold composites into the parent.
        if let Some(p) = parent {
            let fa = f[i];
            f[p] += fa;
            let ic = idsva_inertia_c[i];
            idsva_inertia_c[p] += ic;
            let hh = idsva_h_c[i];
            idsva_h_c[p] += hh;
            let rc = idsva_rate_c[i];
            idsva_rate_c[p] += rc;
            if fext.is_some() {
                let xc = idsva_fext_c[i];
                idsva_fext_c[p] += xc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff::rnea_derivatives_numeric;
    use rbd_model::{random_state, robots};

    #[test]
    fn matches_finite_differences() {
        for (model, seed) in [
            (robots::iiwa(), 5),
            (robots::hyq(), 6),
            (robots::atlas(), 7),
        ] {
            let mut ws = DynamicsWorkspace::new(&model);
            let s = random_state(&model, seed);
            let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.5 - 0.07 * k as f64).collect();
            let mut out = RneaDerivatives::zeros(model.nv());
            rnea_derivatives_idsva_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut out);
            let (ndq, ndqd) = rnea_derivatives_numeric(&model, &s.q, &s.qd, &qdd, None, 1e-6);
            let scale = 1.0 + ndq.max_abs().max(ndqd.max_abs());
            assert!(
                (&out.dtau_dq - &ndq).max_abs() / scale < 1e-5,
                "{}",
                model.name()
            );
            assert!((&out.dtau_dqd - &ndqd).max_abs() / scale < 1e-5);
        }
    }

    /// Dirty workspace reuse must be bit-deterministic: the composite
    /// buffers are fully re-seeded every call.
    #[test]
    fn workspace_reuse_is_deterministic() {
        for model in [robots::hyq(), robots::atlas(), robots::random_tree(9, 1)] {
            let mut ws = DynamicsWorkspace::new(&model);
            let mut out = RneaDerivatives::zeros(model.nv());
            let s1 = random_state(&model, 31);
            let s2 = random_state(&model, 32);
            let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.2 - 0.03 * k as f64).collect();
            rnea_derivatives_idsva_into(&model, &mut ws, &s2.q, &s2.qd, &qdd, None, &mut out);
            rnea_derivatives_idsva_into(&model, &mut ws, &s1.q, &s1.qd, &qdd, None, &mut out);

            let mut fresh_ws = DynamicsWorkspace::new(&model);
            let mut fresh = RneaDerivatives::zeros(model.nv());
            rnea_derivatives_idsva_into(
                &model,
                &mut fresh_ws,
                &s1.q,
                &s1.qd,
                &qdd,
                None,
                &mut fresh,
            );
            assert_eq!(
                (&out.dtau_dq - &fresh.dtau_dq).max_abs(),
                0.0,
                "{}",
                model.name()
            );
            assert_eq!((&out.dtau_dqd - &fresh.dtau_dqd).max_abs(), 0.0);
            assert_eq!(out.tau, fresh.tau);
        }
    }

    /// A dirty `idsva_fext_c` from a with-fext call must not leak into a
    /// subsequent no-fext evaluation (the no-fext path never reads it).
    #[test]
    fn fext_scratch_does_not_leak_across_calls() {
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 9);
        let qdd = vec![0.25; model.nv()];
        let fx = vec![ForceVec::from_slice(&[1.0; 6]); model.num_bodies()];
        let mut dirty = RneaDerivatives::zeros(model.nv());
        rnea_derivatives_idsva_into(&model, &mut ws, &s.q, &s.qd, &qdd, Some(&fx), &mut dirty);
        rnea_derivatives_idsva_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut dirty);
        let mut fresh_ws = DynamicsWorkspace::new(&model);
        let mut fresh = RneaDerivatives::zeros(model.nv());
        rnea_derivatives_idsva_into(&model, &mut fresh_ws, &s.q, &s.qd, &qdd, None, &mut fresh);
        assert_eq!((&dirty.dtau_dq - &fresh.dtau_dq).max_abs(), 0.0);
        assert_eq!((&dirty.dtau_dqd - &fresh.dtau_dqd).max_abs(), 0.0);
    }
}
