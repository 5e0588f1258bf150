//! Articulated Body Algorithm (forward dynamics), the software baseline
//! the paper deliberately does *not* instantiate in hardware (§III-A). It
//! steps every rollout (the controllers' lane kernel, the plant's scalar
//! `rk4_step`) and is the reference for the `FD = M⁻¹·(τ - C)` path.
//!
//! There is one sweep, [`aba_in_ws`]; [`aba`] allocates the output and
//! calls it, the way `forward_dynamics` wraps `forward_dynamics_into`.
//! The sweep stays scalar rather than a width-1 call of the lane kernel
//! ([`crate::lanes::forward_dynamics_aba_lanes_in_ws`]): it takes
//! external forces, which the lane kernels do not, and it is the
//! reference that pins the lane kernel bit for bit.

use crate::mminv::invert_spd_small;
use crate::workspace::DynamicsWorkspace;
use crate::DynamicsError;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MotionVec};

/// Forward dynamics `q̈ = ABA(q, q̇, τ, f_ext)` — O(N) articulated-body
/// algorithm with multi-DOF joint support; allocates the returned `q̈`
/// and runs [`aba_in_ws`].
///
/// `fext` entries are world-frame spatial forces per body.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] when a joint-space
/// articulated inertia block is singular (physically impossible for
/// positive-mass models).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn aba(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
) -> Result<Vec<f64>, DynamicsError> {
    let mut qdd = vec![0.0; model.nv()];
    aba_in_ws(model, ws, q, qd, tau, fext, &mut qdd)?;
    Ok(qdd)
}

/// The ABA sweep, writing `q̈` into a caller-provided output with
/// **zero steady-state heap allocation**: every per-joint factor lives in the workspace
/// ([`DynamicsWorkspace::u_cols`] for `U = I^A S`,
/// [`DynamicsWorkspace::d_inv`] for the joint-space inverses,
/// [`DynamicsWorkspace::aba_ub`] for the joint-space bias), and the
/// joint-space blocks are inverted on the stack through the same
/// unpivoted-LDLᵀ routine MMinvGen uses.
///
/// This is the scalar **op-sequence reference for the K-lane kernels**
/// (`crate::lanes::forward_dynamics_aba_lanes_in_ws` performs exactly
/// this sequence per lane, and the lane tests pin it bit-identically)
/// and the stage dynamics of the test-local RK4 reference the lane
/// rollout is pinned to.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] when a joint-space
/// articulated inertia block is singular.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn aba_in_ws(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
    qdd_out: &mut [f64],
) -> Result<(), DynamicsError> {
    let nb = model.num_bodies();
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert_eq!(qd.len(), model.nv(), "qd dimension");
    assert_eq!(tau.len(), model.nv(), "tau dimension");
    assert_eq!(qdd_out.len(), model.nv(), "qdd output dimension");
    if let Some(f) = fext {
        assert_eq!(f.len(), nb, "fext dimension");
    }

    ws.update_kinematics(model, q);
    let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity);

    // Field-disjoint borrows of the workspace buffers for the sweeps.
    let DynamicsWorkspace {
        s,
        s_off,
        xup,
        xworld,
        v,
        a,
        c_bias,
        ia,
        pa,
        u_cols,
        d_inv,
        aba_ub,
        ..
    } = ws;

    // Pass 1: velocities, bias accelerations, articulated quantities init.
    for i in 0..nb {
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let vj = MotionVec::weighted_sum(&s[vo..vo + ni], &qd[vo..vo + ni]);
        let vi = match model.topology().parent(i) {
            Some(p) => xup[i].apply_motion(&v[p]) + vj,
            None => vj,
        };
        v[i] = vi;
        c_bias[i] = vi.cross_motion(&vj);
        let inertia = model.link_inertia(i);
        ia[i] = inertia.to_mat6();
        let mut pai = vi.cross_force(&inertia.mul_motion(&vi));
        if let Some(fx) = fext {
            pai -= xworld[i].apply_force(&fx[i]);
        }
        pa[i] = pai;
    }

    // Pass 2: articulated inertia backward sweep; factors stay in the
    // workspace (`u_cols`, `d_inv`, `aba_ub`) for pass 3.
    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let cols = &s[vo..vo + ni];
        ia[i].mul_motion_to_force_batch(cols, &mut u_cols[vo..vo + ni]);
        let mut d = [[0.0; 6]; 6];
        for (ar, drow) in cols.iter().zip(d.iter_mut()) {
            for (b, db) in drow.iter_mut().enumerate().take(ni) {
                *db = ar.dot_force(&u_cols[vo + b]);
            }
        }
        d_inv[i] = invert_spd_small(&d, ni)?;
        for k in 0..ni {
            aba_ub[vo + k] = tau[vo + k] - cols[k].dot_force(&pa[i]);
        }

        if let Some(p) = model.topology().parent(i) {
            // Ia = IA - U D⁻¹ Uᵀ
            let mut ia_i = ia[i];
            let dinv = &d_inv[i];
            ia_i.sub_outer_weighted(&u_cols[vo..vo + ni], |ar, b| dinv[ar][b]);
            // pa' = pA + Ia c + U D⁻¹ u
            let mut pai = pa[i] + ia_i.mul_motion_to_force(&c_bias[i]);
            for ar in 0..ni {
                let mut coeff = 0.0;
                for b in 0..ni {
                    coeff += dinv[ar][b] * aba_ub[vo + b];
                }
                pai += u_cols[vo + ar] * coeff;
            }
            ia_i.add_congruence_xform_sym(&xup[i], &mut ia[p]);
            pa[p] += xup[i].inv_apply_force(&pai);
        }
    }

    // Pass 3: accelerations forward sweep.
    for i in 0..nb {
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let a_par = match model.topology().parent(i) {
            Some(p) => xup[i].apply_motion(&a[p]),
            None => xup[i].apply_motion(&a0),
        };
        let a_prime = a_par + c_bias[i];
        let mut rhs = [0.0; 6];
        for (k, r) in rhs.iter_mut().enumerate().take(ni) {
            *r = aba_ub[vo + k] - u_cols[vo + k].dot_motion(&a_prime);
        }
        // qdd_i = D⁻¹ (u - Uᵀ a')
        let mut out = [0.0; 6];
        let dinv = &d_inv[i];
        for (ar, o) in out.iter_mut().enumerate().take(ni) {
            for (b, r) in rhs.iter().enumerate().take(ni) {
                *o += dinv[ar][b] * r;
            }
        }
        let mut a_i = a_prime;
        for (k, sc) in s[vo..vo + ni].iter().enumerate() {
            qdd_out[vo + k] = out[k];
            a_i += *sc * out[k];
        }
        a[i] = a_i;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rnea::rnea;
    use rbd_model::{random_state, robots};

    fn roundtrip(model: &rbd_model::RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let qdd_in: Vec<f64> = (0..model.nv()).map(|k| 0.4 - 0.03 * k as f64).collect();
        let tau = rnea(model, &mut ws, &s.q, &s.qd, &qdd_in, None);
        let qdd = aba(model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        for k in 0..model.nv() {
            assert!(
                (qdd[k] - qdd_in[k]).abs() < tol,
                "{} dof {k}: {} vs {}",
                model.name(),
                qdd[k],
                qdd_in[k]
            );
        }
    }

    #[test]
    fn inverts_rnea_iiwa() {
        roundtrip(&robots::iiwa(), 1, 1e-8);
    }

    #[test]
    fn inverts_rnea_hyq() {
        roundtrip(&robots::hyq(), 2, 1e-7);
    }

    #[test]
    fn inverts_rnea_atlas() {
        roundtrip(&robots::atlas(), 3, 1e-7);
    }

    #[test]
    fn inverts_rnea_random_trees() {
        for seed in 0..5 {
            roundtrip(&robots::random_tree(12, seed), seed + 10, 1e-7);
        }
    }

    #[test]
    fn inverts_rnea_with_external_forces() {
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 8);
        let fext: Vec<ForceVec> = (0..model.num_bodies())
            .map(|i| ForceVec::from_slice(&[0.1 * i as f64, -0.2, 0.3, 5.0, -2.0, 1.0 + i as f64]))
            .collect();
        let qdd_in: Vec<f64> = (0..model.nv()).map(|k| 0.1 * k as f64 - 0.5).collect();
        let tau = rnea(&model, &mut ws, &s.q, &s.qd, &qdd_in, Some(&fext));
        let qdd = aba(&model, &mut ws, &s.q, &s.qd, &tau, Some(&fext)).unwrap();
        for k in 0..model.nv() {
            assert!((qdd[k] - qdd_in[k]).abs() < 1e-7);
        }
    }

    #[test]
    fn reused_workspace_gives_fresh_workspace_results_bitwise() {
        // `aba` runs the one sweep, `aba_in_ws`; its output must not
        // depend on what an earlier call (other state, external forces)
        // left in the workspace.
        for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
            let s = random_state(&model, 17);
            let tau: Vec<f64> = (0..model.nv()).map(|k| 0.6 - 0.07 * k as f64).collect();
            let fresh = aba(
                &model,
                &mut DynamicsWorkspace::new(&model),
                &s.q,
                &s.qd,
                &tau,
                None,
            )
            .unwrap();
            let mut ws = DynamicsWorkspace::new(&model);
            let other = random_state(&model, 18);
            let fext: Vec<ForceVec> = (0..model.num_bodies())
                .map(|i| ForceVec::from_slice(&[0.2, -0.1 * i as f64, 0.3, 2.0, -1.0, 0.5]))
                .collect();
            aba(&model, &mut ws, &other.q, &other.qd, &tau, Some(&fext)).unwrap();
            let mut qdd = vec![0.0; model.nv()];
            aba_in_ws(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut qdd).unwrap();
            assert_eq!(qdd, fresh, "{}", model.name());
        }
    }

    #[test]
    fn free_fall_acceleration() {
        // Unactuated floating body: base must accelerate at -g.
        let model = robots::hyq();
        let mut ws = DynamicsWorkspace::new(&model);
        let q = model.neutral_config();
        let zero = vec![0.0; model.nv()];
        let qdd = aba(&model, &mut ws, &q, &zero, &zero, None).unwrap();
        // Base linear z acceleration (dof 5) = -9.81; legs see no torque
        // but gravity is uniform so relative accelerations vanish.
        assert!((qdd[5] + 9.81).abs() < 1e-9, "qdd = {qdd:?}");
        for k in 0..3 {
            assert!(qdd[k].abs() < 1e-9); // no angular acceleration
        }
        for k in 6..model.nv() {
            assert!(qdd[k].abs() < 1e-9, "joint dof {k}: {}", qdd[k]);
        }
    }
}
