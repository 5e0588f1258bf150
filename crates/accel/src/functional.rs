//! Functional (bit-true at f64 granularity) model of the multifunctional
//! dataflow. The simulator keeps one dataflow of its own: the
//! Forward-Backward module's RNEA mode, executed as explicit per-joint
//! `Rf`/`Rb` activations exchanging `ftr`/`dtr`/`btr` messages through
//! FIFO slots (Figs 6, 9), including the paper's *re-updated
//! transformation matrices* (§IV-A2: `Rb` recomputes `X` from the shared
//! trigonometric outputs instead of receiving it) and *lazy updates*
//! (§IV-A3: children's contributions are applied at the parent's
//! activation). It computes ID and FD's bias force `C`, and it is what the
//! Taylor trigonometric unit feeds.
//!
//! Every other function runs its `rbd-dynamics` kernel, with
//! `f64::sin_cos` trigonometry: the Backward-Forward module is
//! [`rbd_dynamics::mminv_gen`], which is already organised as the
//! per-joint `Mb` (backward) / `Mf` (forward) sweeps of Fig 8, and the
//! ΔRNEA mode behind ΔID, ΔiFD and ΔFD is
//! `rbd_dynamics::rnea_derivatives` and `rbd_dynamics::fd_derivatives`.
//! So `M`, `M⁻¹`, ΔID and ΔFD are the reference's bits.
//! The per-joint `Df`/`Db` column structure of ΔRNEA (Fig 7, §IV-A4)
//! lives on in the timing model, whose `Df`/`Db` submodules are costed
//! over their live columns.
//!
//! Integration tests assert every function's output equals the
//! `rbd-dynamics` reference.

use rbd_dynamics::{mminv_gen, DynamicsWorkspace};
use rbd_model::{JointType, RobotModel};
use rbd_spatial::{ForceVec, Mat3, MatN, MotionVec, VecN, Xform};

/// Output of the Global Trigonometric Module for one joint: the
/// `(sin, cos)` pairs its transform needs (empty for trig-free joints).
#[derive(Debug, Clone, Default)]
struct TrigOut {
    sc: Vec<(f64, f64)>,
}

/// Forward-transfer message `ftr_i = {v_i, a_i}` (Fig 6).
#[derive(Debug, Clone, Copy, Default)]
struct Ftr {
    v: MotionVec,
    a: MotionVec,
}

/// The Forward-Backward module's RNEA round trip for one model.
#[derive(Debug)]
pub(crate) struct FunctionalEngine<'m> {
    model: &'m RobotModel,
    taylor_trig: bool,
}

impl<'m> FunctionalEngine<'m> {
    /// Creates an engine; with `taylor_trig` the Global Trigonometric
    /// Module evaluates the 7-term Taylor pipeline instead of libm.
    pub(crate) fn new(model: &'m RobotModel, taylor_trig: bool) -> Self {
        Self { model, taylor_trig }
    }

    // -----------------------------------------------------------------
    // Global Trigonometric Module
    // -----------------------------------------------------------------
    fn trig(&self, q: &[f64]) -> Vec<TrigOut> {
        let eval = |x: f64| {
            if self.taylor_trig {
                rbd_fixed::trig::sin_cos(x)
            } else {
                x.sin_cos()
            }
        };
        (0..self.model.num_bodies())
            .map(|i| {
                let qi = self.model.q_slice(i, q);
                let sc = match self.model.joint(i).jtype {
                    JointType::Revolute(_) => vec![eval(qi[0])],
                    JointType::Planar => vec![eval(qi[2])],
                    _ => Vec::new(),
                };
                TrigOut { sc }
            })
            .collect()
    }

    /// Re-updates `X_i` from the trig outputs (the `Rb` submodules
    /// recompute this rather than buffering the matrix, §IV-A2).
    fn build_xup(&self, i: usize, q: &[f64], trig: &[TrigOut]) -> Xform {
        let joint = self.model.joint(i);
        let qi = self.model.q_slice(i, q);
        match joint.jtype {
            JointType::Revolute(axis) => {
                let (s, c) = trig[i].sc[0];
                Xform::new(
                    Mat3::rotation_axis_sc(axis, s, c).transpose(),
                    rbd_spatial::Vec3::zero(),
                )
                .compose(&joint.placement)
            }
            JointType::Planar => {
                let (s, c) = trig[i].sc[0];
                let e = Mat3::from_rows([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]);
                Xform::new(e, rbd_spatial::Vec3::new(qi[0], qi[1], 0.0)).compose(&joint.placement)
            }
            _ => joint.child_xform(qi),
        }
    }

    // -----------------------------------------------------------------
    // Forward-Backward module, RNEA mode (Rf_i → … → Rb_i, Fig 6)
    // -----------------------------------------------------------------

    /// Runs the RNEA round-trip pipeline and returns `τ`.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub(crate) fn fb_rnea(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> Vec<f64> {
        assert_eq!(q.len(), self.model.nq());
        assert_eq!(qd.len(), self.model.nv());
        assert_eq!(qdd.len(), self.model.nv());
        let nb = self.model.num_bodies();
        let trig = self.trig(q);
        let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -self.model.gravity);

        // FIFO slots; the downward-transfer message `dtr_i` from `Rf_i` to
        // `Rb_i` is the body force (`Rb_i` re-updates `X_i` itself). The
        // world transforms serve the external forces only.
        let mut ftr: Vec<Ftr> = vec![Ftr::default(); nb];
        let mut dtr: Vec<ForceVec> = vec![ForceVec::zero(); nb];
        let mut xworld: Vec<Xform> = vec![Xform::identity(); nb];

        // Forward stream: Rf submodules in topological order. Broadcast
        // to branches is implicit: every child reads its parent's ftr.
        for i in 0..nb {
            let x = self.build_xup(i, q, &trig);
            let parent = self.model.topology().parent(i);
            xworld[i] = match parent {
                Some(p) => x.compose(&xworld[p]),
                None => x,
            };
            let vo = self.model.v_offset(i);
            let cols = self.model.joint(i).jtype.motion_subspace();
            let mut vj = MotionVec::zero();
            let mut aj = MotionVec::zero();
            for (k, s) in cols.iter().enumerate() {
                vj += *s * qd[vo + k];
                aj += *s * qdd[vo + k];
            }
            let (vp, ap) = match parent {
                Some(p) => (x.apply_motion(&ftr[p].v), x.apply_motion(&ftr[p].a)),
                None => (MotionVec::zero(), x.apply_motion(&a0)),
            };
            let v = vp + vj;
            let a = ap + aj + v.cross_motion(&vj);
            let inertia = self.model.link_inertia(i);
            let mut fb = inertia.mul_motion(&a) + v.cross_force(&inertia.mul_motion(&v));
            if let Some(fx) = fext {
                fb -= xworld[i].apply_force(&fx[i]);
            }
            ftr[i] = Ftr { v, a };
            dtr[i] = fb;
        }

        // Backward stream: Rb submodules in reverse order; the btr of
        // each child is lazily added at the parent's activation
        // (§IV-A3), children on different branches reduce by summation.
        let mut btr_acc: Vec<ForceVec> = vec![ForceVec::zero(); nb];
        let mut tau = vec![0.0; self.model.nv()];
        for i in (0..nb).rev() {
            // Re-update X (recompute, do not transfer).
            let x = self.build_xup(i, q, &trig);
            let f = dtr[i] + btr_acc[i];
            let vo = self.model.v_offset(i);
            for (k, s) in self
                .model
                .joint(i)
                .jtype
                .motion_subspace()
                .iter()
                .enumerate()
            {
                tau[vo + k] = s.dot_force(&f);
            }
            if let Some(p) = self.model.topology().parent(i) {
                btr_acc[p] += x.inv_apply_force(&f);
            }
        }

        tau
    }
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
