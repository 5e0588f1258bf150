//! Functional (bit-true at f64 granularity) model of the multifunctional
//! dataflow: the Forward-Backward module is executed as explicit
//! per-joint submodule activations exchanging `ftr`/`dtr`/`btr` messages
//! through FIFO slots (Figs 6, 7, 9), including the paper's
//! *re-updated transformation matrices* (§IV-A2: `Rb`/`Db` recompute `X`
//! from the shared trigonometric outputs instead of receiving it) and
//! *lazy updates* (§IV-A3: children's contributions are applied at the
//! parent's activation).
//!
//! The Backward-Forward module runs the MMinvGen reference kernel
//! ([`rbd_dynamics::mminv_gen`]), which is already organised as the
//! per-joint `Mb` (backward) / `Mf` (forward) sweeps of Fig 8: its `M`
//! and `M⁻¹` are the reference's bits, with `f64::sin_cos` trigonometry
//! (the Taylor unit feeds the Forward-Backward module only).
//!
//! Integration tests assert every function's output equals the
//! `rbd-dynamics` reference.

use crate::dataflow::{FunctionKind, FunctionOutput};
use rbd_dynamics::{mminv_gen, DynamicsWorkspace};
use rbd_model::{JointType, RobotModel};
use rbd_spatial::{ForceVec, Mat3, MatN, MotionVec, SpatialInertia, VecN, Xform};

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

/// The functional engine for one model.
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

    /// Runs one function. `u` is `q̈` for ID/ΔID/ΔiFD and `τ` for
    /// FD/ΔFD (ignored for M/Minv); `minv_in` feeds ΔiFD.
    ///
    /// # Panics
    /// Panics on dimension mismatches or a missing `minv_in` for ΔiFD.
    pub(crate) fn run(
        &self,
        f: FunctionKind,
        q: &[f64],
        qd: &[f64],
        u: &[f64],
        minv_in: Option<&MatN>,
        fext: Option<&[ForceVec]>,
    ) -> FunctionOutput {
        let nv = self.model.nv();
        assert_eq!(q.len(), self.model.nq());
        assert_eq!(qd.len(), nv);
        assert_eq!(u.len(), nv);
        let mut out = FunctionOutput::default();
        match f {
            FunctionKind::Id => {
                let (tau, _) = self.fb_rnea(q, qd, u, fext);
                out.tau = tau;
            }
            FunctionKind::MassMatrix => {
                out.m = Some(self.bf(q, true));
            }
            FunctionKind::MassMatrixInverse => {
                out.minv = Some(self.bf(q, false));
            }
            FunctionKind::Fd => {
                // ① C = RNEA(q, q̇, 0)   ② M⁻¹ = MMinvGen   ③ q̈ = M⁻¹(τ-C)
                let zero = vec![0.0; nv];
                let (c, _) = self.fb_rnea(q, qd, &zero, fext);
                let minv = self.bf(q, false);
                out.qdd = sched_matvec(&minv, u, &c);
                out.minv = Some(minv);
            }
            FunctionKind::DId => {
                let (tau, state) = self.fb_rnea(q, qd, u, fext);
                let (dq, dqd) = self.fb_delta(qd, u, &state);
                out.tau = tau;
                out.dtau = Some((dq, dqd));
            }
            FunctionKind::DiFd => {
                let minv = minv_in.expect("ΔiFD requires M⁻¹ input").clone();
                let (_, state) = self.fb_rnea(q, qd, u, fext);
                let (dq, dqd) = self.fb_delta(qd, u, &state);
                out.dqdd = Some((neg_mul(&minv, &dq), neg_mul(&minv, &dqd)));
                out.minv = Some(minv);
            }
            FunctionKind::DFd => {
                // Stage 1: FD (steps ①-③ of Fig 9a).
                let zero = vec![0.0; nv];
                let (c, _) = self.fb_rnea(q, qd, &zero, fext);
                let minv = self.bf(q, false);
                let qdd = sched_matvec(&minv, u, &c);
                // Stage 2 (feedback): ④ RNEA at q̈, ⑤ ΔRNEA.
                let (_, state) = self.fb_rnea(q, qd, &qdd, fext);
                let (dq, dqd) = self.fb_delta(qd, &qdd, &state);
                // Stage 3: ⑥ ∂q̈ = -M⁻¹ ∂τ.
                out.dqdd = Some((neg_mul(&minv, &dq), neg_mul(&minv, &dqd)));
                out.qdd = qdd;
                out.minv = Some(minv);
            }
        }
        out
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

    /// Re-updates `X_i` from the trig outputs (the `Rb`/`Db` submodules
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

    /// Runs the RNEA round-trip pipeline. Returns `τ` and the retained
    /// `[f, X]` state that the Dynamics Array forwards to the ΔRNEA
    /// submodules (Fig 9b).
    fn fb_rnea(
        &self,
        q: &[f64],
        qd: &[f64],
        qdd: &[f64],
        fext: Option<&[ForceVec]>,
    ) -> (Vec<f64>, RneaState) {
        let nb = self.model.num_bodies();
        let trig = self.trig(q);
        let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -self.model.gravity);

        // FIFO slots; the downward-transfer message `dtr_i` from `Rf_i` to
        // `Rb_i` is the body force (`Rb_i` re-updates `X_i` itself).
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

        // Per-body (un-aggregated) forces; the Db stream performs its own
        // lazy aggregation.
        (tau, RneaState { xworld, f: dtr })
    }

    // -----------------------------------------------------------------
    // Forward-Backward module, ΔRNEA mode (Df_i / Db_i, Fig 7)
    // -----------------------------------------------------------------

    /// Runs the ΔRNEA array over the retained RNEA state. Columns are
    /// world-frame incremental column vectors (§IV-A4): submodule `Df_i`
    /// extends its parent's column set by its own DOFs.
    fn fb_delta(&self, qd: &[f64], qdd: &[f64], state: &RneaState) -> (MatN, MatN) {
        let model = self.model;
        let nb = model.num_bodies();
        let nv = model.nv();

        // World-frame S columns and per-body world kinematics.
        let mut s_world = vec![MotionVec::zero(); nv];
        let mut v_w = vec![MotionVec::zero(); nb];
        let mut a_w = vec![MotionVec::zero(); nb];
        let mut vj_w = vec![MotionVec::zero(); nb];
        let mut aj_w = vec![MotionVec::zero(); nb];
        let mut iw: Vec<SpatialInertia> = Vec::with_capacity(nb);
        let a0 = MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity);
        for i in 0..nb {
            let x0 = state.xworld[i];
            let vo = model.v_offset(i);
            let cols = model.joint(i).jtype.motion_subspace();
            let mut vj = MotionVec::zero();
            let mut aj = MotionVec::zero();
            for (k, s) in cols.iter().enumerate() {
                let sw = x0.inv_apply_motion(s);
                s_world[vo + k] = sw;
                vj += sw * qd[vo + k];
                aj += sw * qdd[vo + k];
            }
            vj_w[i] = vj;
            aj_w[i] = aj;
            let (vp, ap) = match model.topology().parent(i) {
                Some(p) => (v_w[p], a_w[p]),
                None => (MotionVec::zero(), a0),
            };
            v_w[i] = vp + vj;
            a_w[i] = ap + aj + v_w[i].cross_motion(&vj);
            iw.push(model.link_inertia(i).transform_to_parent(&x0));
        }

        let d_i_apply = |sj: &MotionVec, inertia: &SpatialInertia, y: &MotionVec| -> ForceVec {
            sj.cross_force(&inertia.mul_motion(y)) - inertia.mul_motion(&sj.cross_motion(y))
        };

        // Df forward stream: each submodule consumes the parent's column
        // block (ftr) and emits its own, incrementally adding columns.
        let mut dv_q = vec![vec![MotionVec::zero(); nv]; nb];
        let mut dv_qd = vec![vec![MotionVec::zero(); nv]; nb];
        let mut da_q = vec![vec![MotionVec::zero(); nv]; nb];
        let mut da_qd = vec![vec![MotionVec::zero(); nv]; nb];
        let mut df_q = vec![vec![ForceVec::zero(); nv]; nb];
        let mut df_qd = vec![vec![ForceVec::zero(); nv]; nb];
        let mut chain: Vec<Vec<usize>> = Vec::with_capacity(nb);
        for i in 0..nb {
            let parent = model.topology().parent(i);
            let vo = model.v_offset(i);
            let ni = model.joint(i).jtype.nv();
            let mut ch = match parent {
                Some(p) => chain[p].clone(),
                None => Vec::new(),
            };
            ch.extend(vo..vo + ni);
            for &j in &ch {
                let sj = s_world[j];
                let own = j >= vo && j < vo + ni;
                let pv = parent.map(|p| dv_q[p][j]).unwrap_or_default();
                let pvd = parent.map(|p| dv_qd[p][j]).unwrap_or_default();
                let pa = parent.map(|p| da_q[p][j]).unwrap_or_default();
                let pad = parent.map(|p| da_qd[p][j]).unwrap_or_default();

                let dvq = pv + sj.cross_motion(&vj_w[i]);
                let dvqd = pvd + if own { sj } else { MotionVec::zero() };
                let daq = pa
                    + sj.cross_motion(&aj_w[i])
                    + dvq.cross_motion(&vj_w[i])
                    + v_w[i].cross_motion(&sj.cross_motion(&vj_w[i]));
                let daqd = pad
                    + dvqd.cross_motion(&vj_w[i])
                    + if own {
                        v_w[i].cross_motion(&sj)
                    } else {
                        MotionVec::zero()
                    };

                dv_q[i][j] = dvq;
                dv_qd[i][j] = dvqd;
                da_q[i][j] = daq;
                da_qd[i][j] = daqd;

                df_q[i][j] = d_i_apply(&sj, &iw[i], &a_w[i])
                    + iw[i].mul_motion(&daq)
                    + dvq.cross_force(&iw[i].mul_motion(&v_w[i]))
                    + v_w[i]
                        .cross_force(&(d_i_apply(&sj, &iw[i], &v_w[i]) + iw[i].mul_motion(&dvq)));
                df_qd[i][j] = iw[i].mul_motion(&daqd)
                    + dvqd.cross_force(&iw[i].mul_motion(&v_w[i]))
                    + v_w[i].cross_force(&iw[i].mul_motion(&dvqd));
            }
            chain.push(ch);
        }

        // Db backward stream: aggregate ∂f lazily at parents, emit ∂τ.
        // The retained local-frame f in world frame for the geometric term
        // (the Dynamics Array keeps both views).
        let mut f_agg: Vec<ForceVec> = state
            .xworld
            .iter()
            .zip(&state.f)
            .map(|(x, f)| x.inv_apply_force(f))
            .collect();
        let mut dtau_q = MatN::zeros(nv, nv);
        let mut dtau_qd = MatN::zeros(nv, nv);
        for i in (0..nb).rev() {
            let vo = model.v_offset(i);
            let ni = model.joint(i).jtype.nv();
            for k in 0..ni {
                let sk = s_world[vo + k];
                for j in 0..nv {
                    let mut dq = sk.dot_force(&df_q[i][j]);
                    let body_j = model.body_of_dof(j);
                    if model.topology().is_ancestor_or_self(body_j, i) {
                        dq += s_world[j].cross_motion(&sk).dot_force(&f_agg[i]);
                    }
                    dtau_q[(vo + k, j)] += dq;
                    dtau_qd[(vo + k, j)] += sk.dot_force(&df_qd[i][j]);
                }
            }
            if let Some(p) = model.topology().parent(i) {
                let fa = f_agg[i];
                f_agg[p] += fa;
                for j in 0..nv {
                    let (a, b) = (df_q[i][j], df_qd[i][j]);
                    df_q[p][j] += a;
                    df_qd[p][j] += b;
                }
            }
        }
        (dtau_q, dtau_qd)
    }

    // -----------------------------------------------------------------
    // Backward-Forward module (Mb_i / Mf_i, Fig 8): Algorithm 2 is
    // `mminv_gen`, whose backward and forward sweeps are the per-joint
    // `Mb`/`Mf` activations. Its trigonometry is `f64::sin_cos`.
    // -----------------------------------------------------------------

    /// `M` when `out_m`, `M⁻¹` otherwise (the hardware emits one per task).
    fn bf(&self, q: &[f64], out_m: bool) -> MatN {
        let mut ws = DynamicsWorkspace::new(self.model);
        let out = mminv_gen(self.model, &mut ws, q, out_m, !out_m).expect("BF module: singular D");
        out.m.or(out.minv).unwrap()
    }
}

/// Retained per-body RNEA state the ΔRNEA array reads: the body forces
/// and the world transforms the array shares.
#[derive(Debug, Clone)]
struct RneaState {
    xworld: Vec<Xform>,
    f: Vec<ForceVec>,
}

/// Schedule-module product `M⁻¹ (τ - C)` (Fig 9c's `A(x-y)` unit).
fn sched_matvec(minv: &MatN, tau: &[f64], c: &[f64]) -> Vec<f64> {
    let rhs = VecN::from_vec(tau.iter().zip(c).map(|(t, c)| t - c).collect());
    minv.mul_vec(&rhs).as_slice().to_vec()
}

/// `-A·B` for the ⑥ step.
fn neg_mul(a: &MatN, b: &MatN) -> MatN {
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
    use super::*;
    use rbd_dynamics::{
        fd_derivatives, forward_dynamics, rnea, rnea_derivatives, DynamicsWorkspace,
    };
    use rbd_model::{random_state, robots};

    fn models() -> Vec<RobotModel> {
        vec![robots::iiwa(), robots::hyq(), robots::atlas()]
    }

    use rbd_model::RobotModel;

    #[test]
    fn id_matches_reference() {
        for m in models() {
            let eng = FunctionalEngine::new(&m, false);
            let s = random_state(&m, 1);
            let qdd: Vec<f64> = (0..m.nv()).map(|k| 0.3 - 0.02 * k as f64).collect();
            let out = eng.run(FunctionKind::Id, &s.q, &s.qd, &qdd, None, None);
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
            let eng = FunctionalEngine::new(&m, false);
            let s = random_state(&m, 2);
            let tau: Vec<f64> = (0..m.nv()).map(|k| 0.5 * k as f64 - 1.0).collect();
            let out = eng.run(FunctionKind::Fd, &s.q, &s.qd, &tau, None, None);
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
            let eng = FunctionalEngine::new(&m, false);
            let s = random_state(&m, 3);
            let qdd: Vec<f64> = (0..m.nv()).map(|k| 0.1 * k as f64 - 0.3).collect();
            let out = eng.run(FunctionKind::DId, &s.q, &s.qd, &qdd, None, None);
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
            let eng = FunctionalEngine::new(&m, false);
            let s = random_state(&m, 4);
            let tau: Vec<f64> = (0..m.nv()).map(|k| 0.7 - 0.05 * k as f64).collect();
            let out = eng.run(FunctionKind::DFd, &s.q, &s.qd, &tau, None, None);
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
        let exact =
            FunctionalEngine::new(&m, false).run(FunctionKind::Id, &s.q, &s.qd, &qdd, None, None);
        let taylor =
            FunctionalEngine::new(&m, true).run(FunctionKind::Id, &s.q, &s.qd, &qdd, None, None);
        for k in 0..m.nv() {
            assert!(
                (exact.tau[k] - taylor.tau[k]).abs() < 1e-8 * (1.0 + exact.tau[k].abs()),
                "taylor deviation at dof {k}"
            );
        }
    }
}
