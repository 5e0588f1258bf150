//! Test-only ΔID oracle: the Carpentier–Mansard expansion (RSS 2018).
//!
//! Propagates per-(body, chain-DOF) velocity/acceleration derivative
//! columns down the tree, differentiates each body force, then sums the
//! force columns leaves→root. It is a different formulation from the
//! production IDSVA kernel (`rbd_dynamics::rnea_derivatives_into`), so
//! agreement between the two is evidence for both. It allocates its own
//! tables on every call and reads only the workspace's forward
//! kinematics and DOF index sets.
//!
//! Include it with `#[path = "support/expansion.rs"] mod expansion;`.

use rbd_dynamics::{DynamicsWorkspace, RneaDerivatives};
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MotionVec, SpatialInertia, Vec3};

/// Per-body quantities invariant across the chain-DOF loop.
struct BodyInvariants {
    v: MotionVec,
    a: MotionVec,
    iw: SpatialInertia,
    /// `I v`, hoisted.
    iw_v: ForceVec,
    /// `I a`, hoisted.
    iw_a: ForceVec,
}

/// Body-force derivative columns `∂f_i/∂q_j`, `∂f_i/∂q̇_j` from the
/// velocity/acceleration derivative columns of DOF `j` — the Lie
/// derivative of the inertia expanded around the hoisted `I v` / `I a`
/// products. `∂v/∂q̇_j` is exactly `S_j`, so the caller passes the shared
/// `S_j ×* (I v)` product (`sj_x_iwv`) once and both outputs reuse it.
fn body_force_derivatives(
    b: &BodyInvariants,
    sj: &MotionVec,
    sj_x_iwv: &ForceVec,
    dv_q: &MotionVec,
    da_q: &MotionVec,
    da_qd: &MotionVec,
) -> (ForceVec, ForceVec) {
    let BodyInvariants {
        v,
        a,
        iw,
        iw_v,
        iw_a,
    } = b;
    // `I` is linear, so `-I(sj×a) + I(da_q)` fuses into one application
    // to the difference (likewise for `v`).
    let df_q = sj.cross_force(iw_a)
        + iw.mul_motion(&(*da_q - sj.cross_motion(a)))
        + dv_q.cross_force(iw_v)
        + v.cross_force(&(*sj_x_iwv + iw.mul_motion(&(*dv_q - sj.cross_motion(v)))));
    let df_qd = iw.mul_motion(da_qd) + *sj_x_iwv + v.cross_force(&iw.mul_motion(sj));
    (df_q, df_qd)
}

/// `∂τ/∂q`, `∂τ/∂q̇` (and `τ`) by the expansion, into `out`. Same
/// signature as `rbd_dynamics::rnea_derivatives_into`.
///
/// # Panics
/// Panics on input dimension mismatches.
pub fn rnea_derivatives_expansion_into(
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
    let ws: &DynamicsWorkspace = ws;
    let (s, s_off) = (&ws.s, &ws.s_off);

    let mut s_world = vec![MotionVec::zero(); nv];
    let mut v_world = vec![MotionVec::zero(); nb];
    let mut a_world = vec![MotionVec::zero(); nb];
    let mut vj_w = vec![MotionVec::zero(); nb];
    let mut aj_w = vec![MotionVec::zero(); nb];
    let mut inertia_w = vec![SpatialInertia::zero(); nb];
    let mut f = vec![ForceVec::zero(); nb];
    // `∂v_i/∂q_j`, `∂a_i/∂q_j`, `∂a_i/∂q̇_j`, one row per body holding
    // exactly its chain entries. `chain(i)` extends `chain(parent)`
    // verbatim, so entry `k` of the parent row is the parent value for
    // entry `k` of the child row. `∂v/∂q̇` needs no table: it is `S_j`.
    let mut dv_dq: Vec<Vec<MotionVec>> = (0..nb)
        .map(|i| vec![MotionVec::zero(); ws.chain(i).len()])
        .collect();
    let mut da_dq = dv_dq.clone();
    let mut da_dqd = dv_dq.clone();
    // Aggregated subtree force derivatives, `nb × nv` flat.
    let mut df_dq = vec![ForceVec::zero(); nb * nv];
    let mut df_dqd = vec![ForceVec::zero(); nb * nv];

    // Gravity baseline: a₀ = -g in world coordinates.
    let a0 = MotionVec::new(Vec3::zero(), -model.gravity);

    // Forward pass: world-frame S columns, velocities, accelerations,
    // inertias.
    for i in 0..nb {
        let x0 = ws.xworld[i];
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
        v_world[i] = v;
        a_world[i] = ap + aj_w[i] + v.cross_motion(&vj_w[i]);

        inertia_w[i] = model.link_inertia(i).transform_to_parent(&x0);
    }

    // Body forces (world frame) and their derivatives along the chain
    // DOFs.
    for i in 0..nb {
        let parent = model.topology().parent(i);
        let v = v_world[i];
        let a = a_world[i];
        let iw = inertia_w[i];
        let vji = vj_w[i];
        let aji = aj_w[i];
        let iw_v = iw.mul_motion(&v);
        let iw_a = iw.mul_motion(&a);

        let mut fb = iw_a + v.cross_force(&iw_v);
        if let Some(fx) = fext {
            fb -= fx[i]; // already world frame
        }
        f[i] = fb;

        // The chain splits into inherited DOFs (ancestors, with
        // parent-table entries) and body i's own DOFs (no parent terms,
        // but the extra `S` and `v × S` contributions).
        let row = i * nv;
        let (inherited, own_dofs) = {
            let c = ws.chain(i);
            let split = c.len() - (s_off[i + 1] - s_off[i]);
            (&c[..split], &c[split..])
        };
        let body = BodyInvariants {
            v,
            a,
            iw,
            iw_v,
            iw_a,
        };
        for (k, &j) in inherited.iter().enumerate() {
            let sj = s_world[j];
            let p = parent.expect("inherited DOFs imply a parent");
            let (pdv_q, pda_q, pda_qd) = (dv_dq[p][k], da_dq[p][k], da_dqd[p][k]);
            let sjxvj = sj.cross_motion(&vji);
            let sj_x_iwv = sj.cross_force(&iw_v);
            let dv_q = pdv_q + sjxvj;
            let da_q =
                pda_q + sj.cross_motion(&aji) + dv_q.cross_motion(&vji) + v.cross_motion(&sjxvj);
            let da_qd = pda_qd + sjxvj;

            dv_dq[i][k] = dv_q;
            da_dq[i][k] = da_q;
            da_dqd[i][k] = da_qd;

            let (df_q, df_qd) = body_force_derivatives(&body, &sj, &sj_x_iwv, &dv_q, &da_q, &da_qd);
            df_dq[row + j] = df_q;
            df_dqd[row + j] = df_qd;
        }
        let split = inherited.len();
        for (k, &j) in own_dofs.iter().enumerate() {
            let sj = s_world[j];
            let sjxvj = sj.cross_motion(&vji);
            let sj_x_iwv = sj.cross_force(&iw_v);
            let dv_q = sjxvj;
            let da_q = sj.cross_motion(&aji) + dv_q.cross_motion(&vji) + v.cross_motion(&sjxvj);
            let da_qd = sjxvj + v.cross_motion(&sj);

            dv_dq[i][split + k] = dv_q;
            da_dq[i][split + k] = da_q;
            da_dqd[i][split + k] = da_qd;

            let (df_q, df_qd) = body_force_derivatives(&body, &sj, &sj_x_iwv, &dv_q, &da_q, &da_qd);
            df_dq[row + j] = df_q;
            df_dqd[row + j] = df_qd;
        }
    }

    // Backward pass: aggregate forces and derivatives up the tree, emit τ
    // derivative rows. Only the related DOFs of each body are visited —
    // every other column of its rows is exactly zero.
    out.dtau_dq.fill(0.0);
    out.dtau_dqd.fill(0.0);

    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = s_off[i + 1] - s_off[i];
        let row = i * nv;
        MotionVec::dot_force_batch(&s_world[vo..vo + ni], &f[i], &mut out.tau[vo..vo + ni]);
        let prow = model.topology().parent(i).map(|p| p * nv);
        for &j in ws.rel(i) {
            let dfq = df_dq[row + j];
            let dfqd = df_dqd[row + j];
            // Geometric term: only when joint(j) ⪯ i, i.e. j is a chain
            // DOF — within the related set those are exactly the DOFs
            // preceding the end of body i's own block. The per-pair cross
            // product is hoisted per column via the triple-product
            // identity (S_j × S_k)·f = -S_k·(S_j ×* f).
            let chain_j = j < vo + ni;
            let cj = if chain_j {
                s_world[j].cross_force(&f[i])
            } else {
                ForceVec::zero()
            };
            for k in 0..ni {
                let sk = s_world[vo + k];
                let mut dq = sk.dot_force(&dfq);
                if chain_j {
                    dq -= sk.dot_force(&cj);
                }
                out.dtau_dq[(vo + k, j)] += dq;
                out.dtau_dqd[(vo + k, j)] += sk.dot_force(&dfqd);
            }
            if let Some(pr) = prow {
                df_dq[pr + j] += dfq;
                df_dqd[pr + j] += dfqd;
            }
        }
        if let Some(p) = model.topology().parent(i) {
            let fa = f[i];
            f[p] += fa;
        }
    }
}
