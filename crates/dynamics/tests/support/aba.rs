//! Test-only scalar Articulated Body Algorithm: the oracle the lane ABA
//! (`rbd_dynamics::aba_in_ws` is its width-1 call) is pinned to bit for
//! bit. It is Featherstone's three-pass sweep over one state, with the
//! per-joint `D` blocks inverted through the same unpivoted LDLᵀ as
//! MMinvGen, so it performs the lane kernel's arithmetic exactly, lane
//! by lane. It reads and writes only public workspace fields
//! (`s`, `xup`, `xworld`, `v`, `a`, `ia`, `u_cols`, `d_inv`) and keeps
//! the bias forces, velocity products and joint-space bias in local
//! buffers.
//!
//! Include it with `#[path = "support/aba.rs"] mod aba;`.

use rbd_dynamics::{DynamicsError, DynamicsWorkspace};
use rbd_model::RobotModel;
use rbd_spatial::matn::FactorizationError;
use rbd_spatial::{ForceVec, MotionVec};

/// `q̈ = ABA(q, q̇, τ, f_ext)` into `qdd_out`; `fext` entries are
/// world-frame spatial forces per body.
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
    let nv = model.nv();
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert_eq!(qd.len(), nv, "qd dimension");
    assert_eq!(tau.len(), nv, "tau dimension");
    assert_eq!(qdd_out.len(), nv, "qdd output dimension");
    if let Some(f) = fext {
        assert_eq!(f.len(), nb, "fext dimension");
    }

    ws.update_kinematics(model, q);
    let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity);
    let mut pa = vec![ForceVec::zero(); nb];
    let mut c_bias = vec![MotionVec::zero(); nb];
    let mut ub = vec![0.0; nv];

    let DynamicsWorkspace {
        s,
        s_off,
        xup,
        xworld,
        v,
        a,
        ia,
        u_cols,
        d_inv,
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

    // Pass 2: articulated inertia backward sweep; `U`, `D⁻¹` and the
    // joint-space bias stay for pass 3.
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
            ub[vo + k] = tau[vo + k] - cols[k].dot_force(&pa[i]);
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
                    coeff += dinv[ar][b] * ub[vo + b];
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
            *r = ub[vo + k] - u_cols[vo + k].dot_motion(&a_prime);
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

/// Inverts the SPD joint-space block `d` (`n ≤ 6`) by unpivoted LDLᵀ:
/// a copy of `rbd_dynamics`' crate-private `invert_spd_small` (same
/// operation order, same pivot threshold).
fn invert_spd_small(d: &[[f64; 6]; 6], n: usize) -> Result<[[f64; 6]; 6], FactorizationError> {
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
