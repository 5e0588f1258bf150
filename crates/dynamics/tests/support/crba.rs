//! Test-only Composite Rigid Body Algorithm: the mass matrix `M(q)` by
//! composite inertias and one ancestor walk per body. It is the
//! independent oracle of MMinvGen's `M` path and of the dense inverse
//! its `M⁻¹` is checked against; production forms `M` with
//! `rbd_dynamics::mminv_gen`.
//!
//! Include it with `#[path = "support/crba.rs"] mod crba;`.

use rbd_dynamics::DynamicsWorkspace;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MatN};

/// Mass matrix `M(q)`, the full symmetric `nv × nv` matrix.
///
/// # Panics
/// Panics if `q.len() != model.nq()`.
pub fn crba(model: &RobotModel, ws: &mut DynamicsWorkspace, q: &[f64]) -> MatN {
    assert_eq!(q.len(), model.nq(), "q dimension");
    let nb = model.num_bodies();
    let nv = model.nv();
    ws.update_kinematics(model, q);
    let mut m = MatN::zeros(nv, nv);

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
    m
}
