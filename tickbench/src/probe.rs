//! Per-layer kernel replays of the traced mode: after a tick has been
//! timed, the benchmark calls each layer's public kernels once more at
//! that tick's states, each call under its own span. The medians of
//! those spans are the `dynamics.*`, `integrator.*`, `lanes.*` and
//! `model.*` metrics.

use crate::trace::Recorder;
use rbd_dynamics::{
    fd_derivatives_into, forward_dynamics_aba_lanes_in_ws, forward_dynamics_into, mminv_gen_into,
    rk4_rollout_lanes_into, rnea_derivatives_into, DynamicsWorkspace, FdDerivatives,
    LaneRolloutScratch, LaneWorkspace, RneaDerivatives, LANE_WIDTH,
};
use rbd_model::{integrate_config, RobotModel};
use rbd_spatial::MatN;
use rbd_trajopt::{rk4_step, rk4_step_with_sensitivity_into, Rk4SensScratch, StepJacobians};
use std::hint::black_box;

/// Span names of the replayed kernels, paired with the metric each
/// median feeds (microseconds per call).
pub const KERNELS: [(&str, &str); 9] = [
    ("dynamics.kin", "dynamics.kin_us"),
    ("dynamics.fd", "dynamics.fd_us"),
    ("dynamics.did", "dynamics.did_us"),
    ("dynamics.minv", "dynamics.minv_us"),
    ("dynamics.dfd", "dynamics.dfd_us"),
    ("integrator.rk4_step", "integrator.rk4_step_us"),
    ("integrator.rk4_sens", "integrator.rk4_sens_us"),
    ("model.integrate", "model.integrate_us"),
    ("lanes.rollout", "lanes.rollout_us"),
];

/// Span name of the lane ABA replay (metric `lanes.aba_us`).
pub const LANE_ABA: (&str, &str) = ("lanes.aba", "lanes.aba_us");

/// Every buffer the replays need, allocated once per run.
pub struct Probe<'m> {
    model: &'m RobotModel,
    ws: DynamicsWorkspace,
    /// A configuration no replay point uses: loading it first defeats
    /// the workspace's kinematics memo, so `kin` and `dfd` are timed
    /// from cold kinematics while `fd`, `did` and `minv` reuse them.
    q_cold: Vec<f64>,
    qdd: Vec<f64>,
    did: RneaDerivatives,
    minv: MatN,
    dfd: FdDerivatives,
    sens: Rk4SensScratch,
    jac: StepJacobians,
    q_next: Vec<f64>,
    qd_next: Vec<f64>,
    lws: LaneWorkspace<LANE_WIDTH>,
    lane_rs: LaneRolloutScratch,
    lane_q: Vec<f64>,
    lane_qd: Vec<f64>,
    lane_tau: Vec<f64>,
    lane_us: Vec<f64>,
    lane_q_traj: Vec<f64>,
    lane_qd_traj: Vec<f64>,
}

impl<'m> Probe<'m> {
    pub fn new(model: &'m RobotModel) -> Self {
        let (nq, nv) = (model.nq(), model.nv());
        let q_cold = integrate_config(model, &model.neutral_config(), &vec![0.123; nv], 1.0);
        Self {
            model,
            ws: DynamicsWorkspace::new(model),
            q_cold,
            qdd: vec![0.0; nv],
            did: RneaDerivatives::zeros(nv),
            minv: MatN::zeros(nv, nv),
            dfd: FdDerivatives::zeros(nv),
            sens: Rk4SensScratch::for_model(model),
            jac: StepJacobians::zeros(nv),
            q_next: vec![0.0; nq],
            qd_next: vec![0.0; nv],
            lws: LaneWorkspace::new(model),
            lane_rs: LaneRolloutScratch::for_model(model, LANE_WIDTH),
            lane_q: vec![0.0; LANE_WIDTH * nq],
            lane_qd: vec![0.0; LANE_WIDTH * nv],
            lane_tau: vec![0.0; LANE_WIDTH * nv],
            lane_us: Vec::new(),
            lane_q_traj: Vec::new(),
            lane_qd_traj: Vec::new(),
        }
    }

    /// Replays the scalar kernels at one state `(q, q̇)` with control
    /// `u` (the torque for FD/ΔFD and the held input of the RK4 steps).
    /// The sequence runs twice and only the second pass is recorded, so
    /// every kernel is timed with the caches the tick just evicted
    /// filled again, whatever its place in the sequence.
    ///
    /// # Panics
    /// Panics if forward dynamics fails at the point.
    pub fn point(&mut self, rec: &mut Recorder, tick: u32, q: &[f64], qd: &[f64], u: &[f64], dt: f64) {
        let on = rec.set_enabled(false);
        self.point_once(rec, tick, q, qd, u, dt);
        rec.set_enabled(on);
        self.point_once(rec, tick, q, qd, u, dt);
    }

    fn point_once(&mut self, rec: &mut Recorder, tick: u32, q: &[f64], qd: &[f64], u: &[f64], dt: f64) {
        let m = self.model;
        let ws = &mut self.ws;
        ws.update_kinematics(m, &self.q_cold);
        rec.span("dynamics.kin", "dynamics", tick, || ws.update_kinematics(m, q));
        rec.span("dynamics.fd", "dynamics", tick, || {
            forward_dynamics_into(m, ws, q, qd, u, None, &mut self.qdd)
        })
        .expect("forward dynamics at a replay point");
        rec.span("dynamics.did", "dynamics", tick, || {
            rnea_derivatives_into(m, ws, q, qd, &self.qdd, None, &mut self.did)
        });
        rec.span("dynamics.minv", "dynamics", tick, || {
            mminv_gen_into(m, ws, q, None, Some(&mut self.minv))
        })
        .expect("M⁻¹ at a replay point");
        ws.update_kinematics(m, &self.q_cold);
        rec.span("dynamics.dfd", "dynamics", tick, || {
            fd_derivatives_into(m, ws, q, qd, u, None, &mut self.dfd)
        })
        .expect("ΔFD at a replay point");
        black_box(rec.span("integrator.rk4_step", "integrator", tick, || {
            rk4_step(m, ws, q, qd, u, dt)
        }));
        rec.span("integrator.rk4_sens", "integrator", tick, || {
            rk4_step_with_sensitivity_into(
                m,
                ws,
                &mut self.sens,
                q,
                qd,
                u,
                dt,
                &mut self.q_next,
                &mut self.qd_next,
                &mut self.jac,
            )
        });
        black_box(rec.span("model.integrate", "model", tick, || {
            integrate_config(m, q, qd, dt)
        }));
        black_box((&self.qdd, &self.did, &self.minv, &self.dfd, &self.jac));
    }

    /// Replays the lane kernels on one full group of `LANE_WIDTH` start
    /// states: one lockstep RK4/ABA rollout of `us` (`horizon·nv`, shared
    /// by every lane) and one lockstep ABA at the start states with the
    /// first control. Like [`Probe::point`], only the second of two
    /// passes is recorded.
    ///
    /// # Panics
    /// Panics unless exactly `LANE_WIDTH` states are given, or if a lane
    /// sweep fails.
    pub fn lanes(
        &mut self,
        rec: &mut Recorder,
        tick: u32,
        states: &[(&[f64], &[f64])],
        us: &[f64],
        horizon: usize,
        dt: f64,
    ) {
        let on = rec.set_enabled(false);
        self.lanes_once(rec, tick, states, us, horizon, dt);
        rec.set_enabled(on);
        self.lanes_once(rec, tick, states, us, horizon, dt);
    }

    fn lanes_once(
        &mut self,
        rec: &mut Recorder,
        tick: u32,
        states: &[(&[f64], &[f64])],
        us: &[f64],
        horizon: usize,
        dt: f64,
    ) {
        assert_eq!(states.len(), LANE_WIDTH, "one full lane group");
        let m = self.model;
        let (nq, nv) = (m.nq(), m.nv());
        let k = LANE_WIDTH;
        self.lane_us.resize(k * horizon * nv, 0.0);
        self.lane_q_traj.resize(k * (horizon + 1) * nq, 0.0);
        self.lane_qd_traj.resize(k * (horizon + 1) * nv, 0.0);
        for (l, (q, qd)) in states.iter().enumerate() {
            self.lane_q[l * nq..(l + 1) * nq].copy_from_slice(q);
            self.lane_qd[l * nv..(l + 1) * nv].copy_from_slice(qd);
            self.lane_tau[l * nv..(l + 1) * nv].copy_from_slice(&us[..nv]);
            self.lane_us[l * horizon * nv..(l + 1) * horizon * nv].copy_from_slice(us);
        }
        rec.span("lanes.rollout", "lanes", tick, || {
            rk4_rollout_lanes_into(
                m,
                &mut self.lws,
                &mut self.lane_rs,
                &self.lane_q,
                &self.lane_qd,
                &self.lane_us,
                horizon,
                dt,
                &mut self.lane_q_traj,
                &mut self.lane_qd_traj,
            )
        })
        .expect("lane rollout at replay states");
        rec.span(LANE_ABA.0, "lanes", tick, || {
            forward_dynamics_aba_lanes_in_ws(m, &mut self.lws, &self.lane_q, &self.lane_qd, &self.lane_tau)
        })
        .expect("lane ABA at replay states");
        black_box((&self.lane_q_traj, self.lws.qdd_lanes()));
    }
}
