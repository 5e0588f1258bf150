//! Functional (bit-true at f64 granularity) model of the multifunctional
//! dataflow. The simulator has no dynamics sweep of its own: every
//! function runs its `rbd-dynamics` kernel, so its outputs are the
//! reference's bits.
//!
//! What it keeps is the Global Trigonometric Module ([`fb_rnea`]): it
//! builds each joint's transform from its `(sin, cos)` pair, from libm or
//! from the 7-term Taylor unit (§IV-B2), and feeds the transforms to
//! [`rbd_dynamics::rnea_sweeps_in_ws`], the forward (`Rf`) and backward
//! (`Rb`) sweeps of the Forward-Backward module's RNEA mode (Fig 6). That
//! gives ID and FD's bias force `C`; with libm the transforms are
//! [`rbd_dynamics::DynamicsWorkspace::update_kinematics`]' bits, so `τ`
//! is `rnea`'s.
//!
//! The Backward-Forward module is [`rbd_dynamics::mminv_gen`], which is
//! already organised as the per-joint `Mb` (backward) / `Mf` (forward)
//! sweeps of Fig 8, and the ΔRNEA mode behind ΔID, ΔiFD and ΔFD is
//! `rbd_dynamics::rnea_derivatives` and `rbd_dynamics::fd_derivatives`.
//! The per-joint `Df`/`Db` column structure of ΔRNEA (Fig 7, §IV-A4)
//! lives on in the timing model, whose `Df`/`Db` submodules are costed
//! over their live columns.
//!
//! Integration tests assert every function's output equals the
//! `rbd-dynamics` reference.

use rbd_dynamics::{mminv_gen, rnea_sweeps_in_ws, DynamicsWorkspace};
use rbd_model::{JointType, RobotModel};
use rbd_spatial::{ForceVec, Mat3, MatN, Vec3, VecN, Xform};

/// The Forward-Backward module's RNEA mode fed by the Global
/// Trigonometric Module: each joint's transform is built from `sin_cos`
/// (the Taylor unit when `taylor_trig`, libm otherwise), composed into
/// the world transforms and handed to `rnea_sweeps_in_ws`. Returns `τ`.
///
/// # Panics
/// Panics on dimension mismatches.
pub(crate) fn fb_rnea(
    model: &RobotModel,
    taylor_trig: bool,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
    fext: Option<&[ForceVec]>,
) -> Vec<f64> {
    assert_eq!(q.len(), model.nq(), "q dimension");
    assert_eq!(qd.len(), model.nv(), "qd dimension");
    assert_eq!(qdd.len(), model.nv(), "qdd dimension");
    if let Some(f) = fext {
        assert_eq!(f.len(), model.num_bodies(), "fext dimension");
    }
    let sin_cos: fn(f64) -> (f64, f64) = if taylor_trig {
        rbd_fixed::trig::sin_cos
    } else {
        f64::sin_cos
    };
    let mut ws = DynamicsWorkspace::new(model);
    for i in 0..model.num_bodies() {
        let joint = model.joint(i);
        let qi = model.q_slice(i, q);
        let xup = match joint.jtype {
            JointType::Revolute(axis) => {
                let (s, c) = sin_cos(qi[0]);
                Xform::new(Mat3::rotation_axis_sc(axis, s, c).transpose(), Vec3::zero())
                    .compose(&joint.placement)
            }
            JointType::Planar => {
                let (s, c) = sin_cos(qi[2]);
                let e = Mat3::from_rows([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]);
                Xform::new(e, Vec3::new(qi[0], qi[1], 0.0)).compose(&joint.placement)
            }
            _ => joint.child_xform(qi),
        };
        ws.xworld[i] = match model.topology().parent(i) {
            Some(p) => xup.compose(&ws.xworld[p]),
            None => xup,
        };
        ws.xup[i] = xup;
    }
    rnea_sweeps_in_ws(model, &mut ws, qd, qdd, fext);
    ws.tau
}

/// The Backward-Forward module (`Mb_i`/`Mf_i`, Fig 8): Algorithm 2 is
/// `mminv_gen`, whose backward and forward sweeps are the per-joint
/// `Mb`/`Mf` activations. Returns `M` when `out_m`, `M⁻¹` otherwise (the
/// hardware emits one per task). Its trigonometry is `f64::sin_cos`.
///
/// # Panics
/// Panics on a dimension mismatch or a singular joint-space block.
pub(crate) fn bf(model: &RobotModel, q: &[f64], out_m: bool) -> MatN {
    let mut ws = DynamicsWorkspace::new(model);
    let out = mminv_gen(model, &mut ws, q, out_m, !out_m).expect("BF module: singular D");
    out.m.or(out.minv).unwrap()
}

/// Schedule-module product `M⁻¹ (τ - C)` (Fig 9c's `A(x-y)` unit).
pub(crate) fn sched_matvec(minv: &MatN, tau: &[f64], c: &[f64]) -> Vec<f64> {
    let rhs = VecN::from_vec(tau.iter().zip(c).map(|(t, c)| t - c).collect());
    minv.mul_vec(&rhs).as_slice().to_vec()
}

/// `-A·B`: ΔiFD's `∂q̈ = −M⁻¹ ∂τ`.
pub(crate) fn neg_mul(a: &MatN, b: &MatN) -> MatN {
    let mut out = a.mul_mat(b);
    for i in 0..out.rows() {
        for j in 0..out.cols() {
            out[(i, j)] = -out[(i, j)];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{AccelConfig, DaduRbd};
    use rbd_dynamics::{
        fd_derivatives, forward_dynamics, rnea, rnea_derivatives, DynamicsWorkspace,
    };
    use rbd_model::{random_state, robots, RobotModel};

    fn models() -> Vec<RobotModel> {
        vec![robots::iiwa(), robots::hyq(), robots::atlas()]
    }

    fn accel(m: &RobotModel, taylor_trig: bool) -> DaduRbd {
        let cfg = AccelConfig {
            taylor_trig,
            ..AccelConfig::default()
        };
        DaduRbd::configure(m, cfg)
    }

    #[test]
    fn id_matches_reference() {
        for m in models() {
            let s = random_state(&m, 1);
            let qdd: Vec<f64> = (0..m.nv()).map(|k| 0.3 - 0.02 * k as f64).collect();
            let out = accel(&m, false).run_id(&s.q, &s.qd, &qdd, None);
            let mut ws = DynamicsWorkspace::new(&m);
            let expect = rnea(&m, &mut ws, &s.q, &s.qd, &qdd, None);
            for k in 0..m.nv() {
                assert!(
                    (out.tau[k] - expect[k]).abs() < 1e-9 * (1.0 + expect[k].abs()),
                    "{} dof {k}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn fd_matches_reference() {
        for m in models() {
            let s = random_state(&m, 2);
            let tau: Vec<f64> = (0..m.nv()).map(|k| 0.5 * k as f64 - 1.0).collect();
            let out = accel(&m, false).run_fd(&s.q, &s.qd, &tau, None);
            let mut ws = DynamicsWorkspace::new(&m);
            let expect = forward_dynamics(&m, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
            for k in 0..m.nv() {
                assert!((out.qdd[k] - expect[k]).abs() < 1e-8 * (1.0 + expect[k].abs()));
            }
        }
    }

    #[test]
    fn did_matches_reference() {
        for m in models() {
            let s = random_state(&m, 3);
            let qdd: Vec<f64> = (0..m.nv()).map(|k| 0.1 * k as f64 - 0.3).collect();
            let out = accel(&m, false).run_did(&s.q, &s.qd, &qdd, None);
            let mut ws = DynamicsWorkspace::new(&m);
            let expect = rnea_derivatives(&m, &mut ws, &s.q, &s.qd, &qdd, None);
            let (dq, dqd) = out.dtau.unwrap();
            let scale = 1.0 + expect.dtau_dq.max_abs();
            assert!(
                (&dq - &expect.dtau_dq).max_abs() / scale < 1e-9,
                "{}",
                m.name()
            );
            assert!((&dqd - &expect.dtau_dqd).max_abs() / scale < 1e-9);
        }
    }

    #[test]
    fn dfd_matches_reference() {
        for m in models() {
            let s = random_state(&m, 4);
            let tau: Vec<f64> = (0..m.nv()).map(|k| 0.7 - 0.05 * k as f64).collect();
            let out = accel(&m, false).run_dfd(&s.q, &s.qd, &tau, None);
            let mut ws = DynamicsWorkspace::new(&m);
            let expect = fd_derivatives(&m, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
            let (dq, dqd) = out.dqdd.unwrap();
            let scale = 1.0 + expect.dqdd_dq.max_abs();
            assert!(
                (&dq - &expect.dqdd_dq).max_abs() / scale < 1e-8,
                "{}",
                m.name()
            );
            assert!((&dqd - &expect.dqdd_dqd).max_abs() / scale < 1e-8);
            for k in 0..m.nv() {
                assert!((out.qdd[k] - expect.qdd[k]).abs() < 1e-8 * (1.0 + expect.qdd[k].abs()));
            }
        }
    }

    #[test]
    fn taylor_trig_mode_close_to_exact() {
        let m = robots::iiwa();
        let s = random_state(&m, 5);
        let qdd = vec![0.2; m.nv()];
        let exact = accel(&m, false).run_id(&s.q, &s.qd, &qdd, None);
        let taylor = accel(&m, true).run_id(&s.q, &s.qd, &qdd, None);
        for k in 0..m.nv() {
            assert!(
                (exact.tau[k] - taylor.tau[k]).abs() < 1e-8 * (1.0 + exact.tau[k].abs()),
                "taylor deviation at dof {k}"
            );
        }
    }
}
