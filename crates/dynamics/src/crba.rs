//! Composite Rigid Body Algorithm (mass matrix).

use crate::workspace::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MatN};

/// Mass matrix `M(q)` via the Composite Rigid Body Algorithm.
///
/// Returns the full symmetric `nv × nv` matrix.
///
/// # Panics
/// Panics if `q.len() != model.nq()`.
///
/// # Example
/// ```
/// use rbd_dynamics::{crba, DynamicsWorkspace};
/// use rbd_model::robots;
/// let model = robots::iiwa();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let m = crba(&model, &mut ws, &model.neutral_config());
/// assert!(m.is_symmetric(1e-10));
/// ```
pub fn crba(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64]) -> MatN {
    let mut m = MatN::zeros(model.nv(), model.nv());
    crba_into(model, ws, q, &mut m);
    m
}

/// [`crba`] into a caller-reused output matrix: zero heap allocation in
/// steady state (the per-DOF force columns live on the stack, `m` is
/// reshaped only on first use).
///
/// # Panics
/// Panics if `q.len() != model.nq()`.
pub fn crba_into(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64], m: &mut MatN) {
    assert_eq!(q.len(), model.nq(), "q dimension");
    let nb = model.num_bodies();
    let nv = model.nv();
    ws.update_kinematics(model, q);
    m.resize(nv, nv);
    m.fill(0.0);

    // Composite inertias, leaves → root (fused analytic congruence
    // accumulation — no dense 6×6 transform matrices).
    for i in 0..nb {
        ws.ia[i] = model.link_inertia(i).to_mat6();
    }
    for i in (0..nb).rev() {
        if let Some(p) = model.topology().parent(i) {
            let ia = ws.ia[i];
            ia.add_congruence_xform_sym(&ws.xup[i], &mut ws.ia[p]);
        }
    }

    for i in 0..nb {
        let vo_i = model.v_offset(i);
        let ni = ws.s_off[i + 1] - ws.s_off[i];
        let cols = &ws.s[vo_i..vo_i + ni];
        // Force columns of the composite inertia along each DOF of i
        // (at most 6, so they fit on the stack).
        let mut fcols = [ForceVec::zero(); 6];
        ws.ia[i].mul_motion_to_force_batch(cols, &mut fcols[..ni]);
        // Diagonal block.
        for (a, s) in cols.iter().enumerate() {
            for (b, f) in fcols[..ni].iter().enumerate() {
                m[(vo_i + a, vo_i + b)] = s.dot_force(f);
            }
        }
        // Walk up the ancestor chain, shifting all of body i's force
        // columns one link at a time with the batched adjoint transform.
        let mut j = i;
        while let Some(p) = model.topology().parent(j) {
            ws.xup[j].inv_apply_force_batch_in_place(&mut fcols[..ni]);
            j = p;
            let vo_j = model.v_offset(j);
            let nj = ws.s_off[j + 1] - ws.s_off[j];
            for (b, f) in fcols[..ni].iter().enumerate() {
                for (a, s) in ws.s[vo_j..vo_j + nj].iter().enumerate() {
                    let val = s.dot_force(f);
                    m[(vo_j + a, vo_i + b)] = val;
                    m[(vo_i + b, vo_j + a)] = val;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnea::rnea;
    use crate::DynamicsWorkspace;
    use rbd_model::{random_state, robots};

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
