//! MMinvGen — Algorithm 2 of the paper: a single backward/forward sweep
//! that produces the mass matrix `M`, its analytical inverse `M⁻¹`, or
//! both, by fusing CRBA with a simplified articulated-body
//! factorization (Carpentier's analytical `M⁻¹`).
//!
//! Compared with running CRBA followed by a dense factorization, the
//! fused form avoids one full forward sweep and exposes the reciprocal
//! (`D⁻¹`) early — the property the paper's Backward-Forward RTP exploits
//! to overlap decomposition with generation (§III-A, §IV-B).
//!
//! The kernel is allocation-free in steady state: the per-DOF force
//! accumulators, `U` columns, `D⁻¹` blocks and forward-sweep motion
//! columns all live in flat [`DynamicsWorkspace`] buffers, and the
//! joint-space blocks (`≤ 6×6`) are factorized on the stack.

use crate::workspace::DynamicsWorkspace;
use crate::DynamicsError;
use rbd_model::RobotModel;
use rbd_spatial::matn::FactorizationError;
use rbd_spatial::{ForceVec, Mat6, MatN, MotionVec};

/// Output selector and results for [`mminv_gen`], mirroring the paper's
/// `outM` / `outMinv` flags.
#[derive(Debug, Clone, Default)]
pub struct MMinvOutput {
    /// The mass matrix, when requested.
    pub m: Option<MatN>,
    /// The inverse mass matrix, when requested.
    pub minv: Option<MatN>,
}

/// Inverts the SPD joint-space block `d` (`n ≤ 6`) on the stack via
/// unpivoted LDLᵀ, mirroring `MatN::inverse_spd` (same operation order,
/// same pivot threshold) so results are bit-identical to the dense path.
pub(crate) fn invert_spd_small(
    d: &[[f64; 6]; 6],
    n: usize,
) -> Result<[[f64; 6]; 6], FactorizationError> {
    // 1-DOF joints (the overwhelmingly common case) reduce to a scalar
    // reciprocal — identical to what the general path computes for n = 1.
    if n == 1 {
        if d[0][0].abs() < 1e-12 {
            return Err(FactorizationError::ZeroPivot { index: 0 });
        }
        let mut inv = [[0.0; 6]; 6];
        inv[0][0] = 1.0 / d[0][0];
        return Ok(inv);
    }
    let mut l = [[0.0; 6]; 6];
    let mut diag = [0.0; 6];
    for i in 0..n {
        l[i][i] = 1.0;
    }
    for j in 0..n {
        let mut dj = d[j][j];
        for k in 0..j {
            dj -= l[j][k] * l[j][k] * diag[k];
        }
        if dj.abs() < 1e-12 {
            return Err(FactorizationError::ZeroPivot { index: j });
        }
        diag[j] = dj;
        for i in (j + 1)..n {
            let mut s = d[i][j];
            for k in 0..j {
                s -= l[i][k] * l[j][k] * diag[k];
            }
            l[i][j] = s / dj;
        }
    }
    let mut inv = [[0.0; 6]; 6];
    for j in 0..n {
        // Solve L D Lᵀ x = e_j into column j.
        let mut x = [0.0; 6];
        x[j] = 1.0;
        for i in 0..n {
            let mut s = x[i];
            for k in 0..i {
                s -= l[i][k] * x[k];
            }
            x[i] = s;
        }
        for i in 0..n {
            x[i] /= diag[i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                s -= l[k][i] * x[k];
            }
            x[i] = s;
        }
        for i in 0..n {
            inv[i][j] = x[i];
        }
    }
    Ok(inv)
}

/// Runs Algorithm 2 (MMinvGen) on configuration `q`.
///
/// * `out_m` — produce the mass matrix (CRBA-equivalent path);
/// * `out_minv` — produce the analytical inverse.
///
/// Both may be requested at once; the reference implementation keeps the
/// two `F` accumulators separate (the hardware time-multiplexes one
/// buffer because the modes are distinguished by micro-instruction).
///
/// Allocates the requested output matrices per call; hot paths should
/// reuse outputs through [`mminv_gen_into`].
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] if a joint-space block
/// is singular.
///
/// # Panics
/// Panics if `q.len() != model.nq()` or neither output is requested.
///
/// # Example
/// ```
/// use rbd_dynamics::{mminv_gen, DynamicsWorkspace};
/// use rbd_model::robots;
/// let model = robots::iiwa();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let out = mminv_gen(&model, &mut ws, &model.neutral_config(), true, true).unwrap();
/// let prod = out.m.unwrap().mul_mat(&out.minv.unwrap());
/// // M · M⁻¹ = 1
/// for i in 0..7 { assert!((prod[(i, i)] - 1.0).abs() < 1e-8); }
/// ```
pub fn mminv_gen(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    out_m: bool,
    out_minv: bool,
) -> Result<MMinvOutput, DynamicsError> {
    assert!(out_m || out_minv, "request at least one output");
    let nv = model.nv();
    let mut m_mat = out_m.then(|| MatN::zeros(nv, nv));
    let mut minv = out_minv.then(|| MatN::zeros(nv, nv));
    mminv_gen_into(model, ws, q, m_mat.as_mut(), minv.as_mut())?;
    Ok(MMinvOutput { m: m_mat, minv })
}

/// [`mminv_gen`] into caller-reused output matrices: performs zero heap
/// allocation in steady state. Pass `Some(&mut m)` / `Some(&mut minv)`
/// for the outputs you need; each provided matrix is reshaped to
/// `nv × nv` (allocation-free once sized) and fully overwritten.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] if a joint-space block
/// is singular.
///
/// # Panics
/// Panics if `q.len() != model.nq()` or neither output is requested.
pub fn mminv_gen_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    mut out_m: Option<&mut MatN>,
    mut out_minv: Option<&mut MatN>,
) -> Result<(), DynamicsError> {
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert!(
        out_m.is_some() || out_minv.is_some(),
        "request at least one output"
    );
    let nb = model.num_bodies();
    let nv = model.nv();
    ws.update_kinematics(model, q);

    let want_m = out_m.is_some();
    let want_minv = out_minv.is_some();
    if let Some(m) = out_m.as_deref_mut() {
        m.resize(nv, nv);
        m.fill(0.0);
    }
    if let Some(mi) = out_minv.as_deref_mut() {
        mi.resize(nv, nv);
        mi.fill(0.0);
    }

    let DynamicsWorkspace {
        s,
        s_off,
        xup,
        ia,
        ia_m,
        f_minv,
        f_m,
        u_cols,
        u_m_cols,
        d_inv,
        p_cols,
        tp_cols,
        desc_offsets,
        desc_dofs,
        first_child_v,
        ..
    } = ws;
    let desc = |i: usize| &desc_dofs[desc_offsets[i]..desc_offsets[i + 1]];

    // Reset the accumulators this call will read before writing: the
    // articulated inertias, and each body's force-accumulator slots at
    // its own + descendant DOFs (everything else is never touched).
    for i in 0..nb {
        ia[i] = Mat6::zero();
        if want_m {
            ia_m[i] = Mat6::zero();
        }
        let row = i * nv;
        let bi = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        for j in (bi..bi + ni).chain(desc(i).iter().copied()) {
            if want_minv {
                f_minv[row + j] = ForceVec::zero();
            }
            if want_m {
                f_m[row + j] = ForceVec::zero();
            }
        }
    }

    // ------------------------------------------------------- backward pass
    for i in (0..nb).rev() {
        let bi = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let cols = &s[bi..bi + ni];
        let row = i * nv;

        // IA_i += I_i  (children already accumulated their contributions)
        ia[i] += model.link_inertia(i).to_mat6();
        if want_m {
            ia_m[i] += model.link_inertia(i).to_mat6();
        }

        // U = IA S ;  D = Sᵀ U   (articulated quantities, Minv path)
        ia[i].mul_motion_to_force_batch(cols, &mut u_cols[bi..bi + ni]);
        let mut d = [[0.0; 6]; 6];
        for a in 0..ni {
            for b in 0..ni {
                d[a][b] = cols[a].dot_force(&u_cols[bi + b]);
            }
        }
        let dinv = invert_spd_small(&d, ni).map_err(DynamicsError::SingularMassMatrix)?;
        d_inv[i] = dinv;
        // Composite-inertia variants for the M path.
        if want_m {
            ia_m[i].mul_motion_to_force_batch(cols, &mut u_m_cols[bi..bi + ni]);
        }

        if let Some(minv) = out_minv.as_deref_mut() {
            // Minv[i, i] = D⁻¹
            for a in 0..ni {
                for b in 0..ni {
                    minv[(bi + a, bi + b)] = dinv[a][b];
                }
            }
            // Minv[i, treee(i)] = -D⁻¹ Sᵀ F[:, treee(i)], with the Sᵀ F
            // dot products hoisted out of the D⁻¹ row loop.
            for &j in desc(i) {
                let fj = f_minv[row + j];
                let mut sf = [0.0; 6];
                for b in 0..ni {
                    sf[b] = cols[b].dot_force(&fj);
                }
                for a in 0..ni {
                    let mut acc = 0.0;
                    for b in 0..ni {
                        acc += dinv[a][b] * sf[b];
                    }
                    minv[(bi + a, j)] = -acc;
                }
            }
        }
        if let Some(m) = out_m.as_deref_mut() {
            // M[i, i] = Sᵀ I^c S ; M[i, treee(i)] = Sᵀ F[:, treee(i)]
            for a in 0..ni {
                for b in 0..ni {
                    m[(bi + a, bi + b)] = cols[a].dot_force(&u_m_cols[bi + b]);
                }
            }
            for &j in desc(i) {
                for a in 0..ni {
                    m[(bi + a, j)] = cols[a].dot_force(&f_m[row + j]);
                }
            }
        }

        if let Some(p) = model.topology().parent(i) {
            let prow = p * nv;
            let own_and_desc = (bi..bi + ni).chain(desc(i).iter().copied());
            if let Some(minv) = out_minv.as_deref() {
                // F[:, tree(i)] += U · Minv[i, tree(i)]
                for j in own_and_desc.clone() {
                    for a in 0..ni {
                        f_minv[row + j] += u_cols[bi + a] * minv[(bi + a, j)];
                    }
                }
                // IA_i -= U D⁻¹ Uᵀ (fused rank-k update)
                ia[i].sub_outer_weighted(&u_cols[bi..bi + ni], |a, b| dinv[a][b]);
            }
            if want_m {
                // F[:, i] = U  (composite-inertia columns)
                for a in 0..ni {
                    f_m[row + bi + a] = u_m_cols[bi + a];
                }
            }
            // F_λ[:, tree(i)] += λX*_i F_i[:, tree(i)] — batched adjoint
            // accumulation; rows `prow` and `row` are disjoint (p < i),
            // so split the flat table between them.
            if want_minv {
                let (head, tail) = f_minv.split_at_mut(row);
                xup[i].inv_apply_force_accum(
                    &tail[..nv],
                    &mut head[prow..prow + nv],
                    own_and_desc.clone(),
                );
            }
            if want_m {
                let (head, tail) = f_m.split_at_mut(row);
                xup[i].inv_apply_force_accum(&tail[..nv], &mut head[prow..prow + nv], own_and_desc);
            }
            // IA_λ += λX*_i IA_i iX_λ (fused analytic congruence; the
            // articulated/composite inertias are symmetric)
            let iai = ia[i];
            iai.add_congruence_xform_sym(&xup[i], &mut ia[p]);
            if want_m {
                let iam = ia_m[i];
                iam.add_congruence_xform_sym(&xup[i], &mut ia_m[p]);
            }
        }
    }

    // ------------------------------------------------------- forward pass
    if let Some(minv) = out_minv {
        for i in 0..nb {
            let bi = model.v_offset(i);
            let ni = s_off[i + 1] - s_off[i];
            let row = i * nv;
            let parent = model.topology().parent(i);
            if let Some(p) = parent {
                // iX_λ P_λ[:, i:] staged into one contiguous batch so E/r
                // stay hot across all trailing columns.
                xup[i].apply_motion_batch(&p_cols[p * nv + bi..p * nv + nv], &mut tp_cols[bi..nv]);
                for j in bi..nv {
                    let tp = tp_cols[j];
                    // Minv[i, i:] -= D⁻¹ Uᵀ (iX_λ P_λ[:, i:]), with the
                    // Uᵀ dot products hoisted out of the D⁻¹ row loop.
                    let mut ut = [0.0; 6];
                    for b in 0..ni {
                        ut[b] = u_cols[bi + b].dot_motion(&tp);
                    }
                    for a in 0..ni {
                        let mut acc = 0.0;
                        for b in 0..ni {
                            acc += d_inv[i][a][b] * ut[b];
                        }
                        minv[(bi + a, j)] -= acc;
                    }
                }
            }
            // P_i[:, i:] = S Minv[i, i:] (+ iX_λ P_λ[:, i:]) — only the
            // columns some child will read (from its own velocity offset
            // on); for leaves no P column is ever consumed.
            for j in first_child_v[i]..nv {
                let mut pcol = MotionVec::zero();
                for (a, sa) in s[bi..bi + ni].iter().enumerate() {
                    pcol += *sa * minv[(bi + a, j)];
                }
                if parent.is_some() {
                    pcol += tp_cols[j];
                }
                p_cols[row + j] = pcol;
            }
        }
        minv.symmetrize_from_upper();
    }
    if let Some(m) = out_m {
        m.symmetrize_from_upper();
    }

    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/crba.rs"]
mod crba_oracle;

#[cfg(test)]
mod tests {
    use super::crba_oracle::crba;
    use super::*;
    use crate::rnea::rnea;
    use rbd_model::{random_state, robots, RobotModel};

    fn check_model(model: &RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let nv = model.nv();

        let out = mminv_gen(model, &mut ws, &s.q, true, true).unwrap();
        let m = out.m.unwrap();
        let minv = out.minv.unwrap();

        // M path matches CRBA.
        let m_crba = crba(model, &mut ws, &s.q);
        assert!(
            (&m - &m_crba).max_abs() < tol,
            "{}: M vs CRBA diff {}",
            model.name(),
            (&m - &m_crba).max_abs()
        );

        // Minv really inverts M.
        let prod = m.mul_mat(&minv);
        let err = (&prod - &MatN::identity(nv)).max_abs();
        assert!(
            err < 1e-6 * (1.0 + m.max_abs()),
            "{}: M·M⁻¹ error {err}",
            model.name()
        );

        // Minv matches the dense LDLᵀ inverse.
        let dense = m_crba.inverse_spd().unwrap();
        let scale = dense.max_abs();
        assert!(
            (&minv - &dense).max_abs() < 1e-7 * (1.0 + scale),
            "{}: Minv vs dense diff {}",
            model.name(),
            (&minv - &dense).max_abs()
        );

        // Symmetry of both outputs.
        assert!(m.is_symmetric(1e-9 * (1.0 + m.max_abs())));
        assert!(minv.is_symmetric(1e-9 * (1.0 + minv.max_abs())));
    }

    #[test]
    fn iiwa() {
        check_model(&robots::iiwa(), 3, 1e-9);
    }

    #[test]
    fn hyq_floating_base() {
        check_model(&robots::hyq(), 4, 1e-8);
    }

    #[test]
    fn atlas_full_humanoid() {
        check_model(&robots::atlas(), 5, 1e-7);
    }

    #[test]
    fn tiago_planar_base() {
        check_model(&robots::tiago(), 6, 1e-8);
    }

    #[test]
    fn quadruped_arm() {
        check_model(&robots::quadruped_arm(), 7, 1e-8);
    }

    #[test]
    fn random_trees() {
        for seed in 0..6 {
            check_model(&robots::random_tree(9, seed), seed + 20, 1e-8);
        }
    }

    #[test]
    fn single_output_modes_match_dual_mode() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 2);
        let both = mminv_gen(&model, &mut ws, &s.q, true, true).unwrap();
        let only_m = mminv_gen(&model, &mut ws, &s.q, true, false).unwrap();
        let only_minv = mminv_gen(&model, &mut ws, &s.q, false, true).unwrap();
        assert!((&only_m.m.unwrap() - both.m.as_ref().unwrap()).max_abs() < 1e-12);
        assert!((&only_minv.minv.unwrap() - both.minv.as_ref().unwrap()).max_abs() < 1e-12);
        assert!(only_m.minv.is_none());
        assert!(only_minv.m.is_none());
    }

    #[test]
    fn into_reuse_matches_fresh_run() {
        // Dirty workspace + reused outputs must reproduce a fresh
        // evaluation bit-for-bit.
        for model in [robots::hyq(), robots::atlas()] {
            let mut ws = DynamicsWorkspace::new(&model);
            let s1 = random_state(&model, 31);
            let s2 = random_state(&model, 32);
            let mut m = MatN::zeros(0, 0);
            let mut minv = MatN::zeros(0, 0);
            mminv_gen_into(&model, &mut ws, &s2.q, Some(&mut m), Some(&mut minv)).unwrap();
            mminv_gen_into(&model, &mut ws, &s1.q, Some(&mut m), Some(&mut minv)).unwrap();

            let mut fresh_ws = DynamicsWorkspace::new(&model);
            let fresh = mminv_gen(&model, &mut fresh_ws, &s1.q, true, true).unwrap();
            assert_eq!((&m - &fresh.m.unwrap()).max_abs(), 0.0, "{}", model.name());
            assert_eq!((&minv - &fresh.minv.unwrap()).max_abs(), 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn no_output_requested_panics() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let _ = mminv_gen(&model, &mut ws, &model.neutral_config(), false, false);
    }

    // The CRBA oracle's own checks.

    /// M columns can be generated one at a time by ID with unit q̈ and zero
    /// velocity, less the gravity torque `ID(q, 0, 0)` — the classical
    /// cross-check.
    fn check_against_rnea_columns(model: &rbd_model::RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let nv = model.nv();
        let m = crba(model, &mut ws, &s.q);
        let zero = vec![0.0; nv];
        let g = rnea(model, &mut ws, &s.q, &zero, &zero, None);
        for j in 0..nv {
            let mut e = vec![0.0; nv];
            e[j] = 1.0;
            let col = rnea(model, &mut ws, &s.q, &zero, &e, None);
            for i in 0..nv {
                let col_i = col[i] - g[i];
                assert!(
                    (m[(i, j)] - col_i).abs() < tol,
                    "{} M[{i},{j}] = {} vs ID column {}",
                    model.name(),
                    m[(i, j)],
                    col_i
                );
            }
        }
    }

    #[test]
    fn matches_rnea_columns_iiwa() {
        check_against_rnea_columns(&robots::iiwa(), 2, 1e-9);
    }

    #[test]
    fn matches_rnea_columns_hyq() {
        check_against_rnea_columns(&robots::hyq(), 4, 1e-8);
    }

    #[test]
    fn matches_rnea_columns_atlas() {
        check_against_rnea_columns(&robots::atlas(), 6, 1e-8);
    }

    #[test]
    fn matches_rnea_columns_random_trees() {
        for seed in 0..4 {
            check_against_rnea_columns(&robots::random_tree(10, seed), seed, 1e-8);
        }
    }

    #[test]
    fn symmetric_positive_definite() {
        let model = robots::atlas();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 1);
        let m = crba(&model, &mut ws, &s.q);
        assert!(m.is_symmetric(1e-9));
        assert!(m.cholesky().is_ok(), "mass matrix must be SPD");
    }

    #[test]
    fn branch_induced_sparsity() {
        // M[i,j] = 0 when i and j are on different branches (Fig 5).
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 9);
        let m = crba(&model, &mut ws, &s.q);
        // Legs occupy bodies 1-3, 4-6, 7-9, 10-12 → dofs 6.., blocks of 3.
        for leg_a in 0..4 {
            for leg_b in 0..4 {
                if leg_a == leg_b {
                    continue;
                }
                for a in 0..3 {
                    for b in 0..3 {
                        let i = 6 + leg_a * 3 + a;
                        let j = 6 + leg_b * 3 + b;
                        assert!(
                            m[(i, j)].abs() < 1e-12,
                            "cross-leg coupling M[{i},{j}] = {}",
                            m[(i, j)]
                        );
                    }
                }
            }
        }
    }
}
