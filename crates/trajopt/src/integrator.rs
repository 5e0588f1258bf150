//! Manifold integrators and their discrete sensitivities.
//!
//! The 4th-order Runge-Kutta sensitivity analysis is the paper's
//! canonical partially-serial workload (Fig 13): each step makes four
//! *serial* ΔFD calls, while steps at different sampling points are
//! independent.

use rbd_dynamics::{aba_in_ws, fd_derivatives_into, DynamicsWorkspace, FdDerivatives, Rk4Stages};
use rbd_model::RobotModel;
use rbd_spatial::MatN;
use std::time::Instant;

/// Discrete dynamics Jacobians of one integration step in tangent
/// coordinates: `δx⁺ ≈ A δx + B δu` with `x = (q, q̇) ∈ R^{2nv}`.
#[derive(Debug, Clone)]
pub struct StepJacobians {
    /// `∂x⁺/∂x`, `2nv × 2nv`.
    pub a: MatN,
    /// `∂x⁺/∂u`, `2nv × nv`.
    pub b: MatN,
}

impl StepJacobians {
    /// Zero-initialized Jacobians sized for an `nv`-DOF model (the shape
    /// [`rk4_step_with_sensitivity_into`] writes).
    pub fn zeros(nv: usize) -> Self {
        Self {
            a: MatN::zeros(2 * nv, 2 * nv),
            b: MatN::zeros(2 * nv, nv),
        }
    }
}

/// One classical RK4 step on the configuration manifold over ABA
/// ([`rbd_dynamics::aba_in_ws`], the width-1 lane sweep): one
/// [`Rk4Stages`] step, so it integrates the same bits as a lane of
/// [`rbd_dynamics::rk4_rollout_lanes_into`]. Allocates its stage
/// buffers and outputs.
///
/// # Panics
/// Panics if ABA fails.
pub fn rk4_step(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    h: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut stages = Rk4Stages::for_model(model, 1);
    for s in 0..4 {
        let (q_s, qd_s, k_s) = stages.point(model, s, q, qd, h);
        aba_in_ws(model, ws, q_s, qd_s, tau, None, k_s).expect("ABA");
    }
    let (mut q_new, mut qd_new) = (vec![0.0; model.nq()], vec![0.0; model.nv()]);
    stages.finish(model, q, qd, h, &mut q_new, &mut qd_new);
    (q_new, qd_new)
}

/// `out = base + s · x`, entry by entry.
fn axpy_into(out: &mut MatN, base: &MatN, s: f64, x: &MatN) {
    for i in 0..out.rows() {
        for ((o, b), x) in out.row_mut(i).iter_mut().zip(base.row(i)).zip(x.row(i)) {
            *o = b + s * x;
        }
    }
}

/// Reusable scratch for [`rk4_step_with_sensitivity_into`]: the RK4
/// stages, every per-stage sensitivity, the shared ΔFD output and the
/// chain-rule staging matrix. Holding one of these per evaluation thread
/// makes the whole LQ approximation allocation-free in steady state.
///
/// A stage sensitivity is one `nv × 3nv` matrix laid out
/// `[∂/∂δq | ∂/∂δq̇ | ∂/∂δu]`, so each chain-rule product is a single
/// `mul_mat_into` over all three blocks.
#[derive(Debug, Clone, Default)]
pub struct Rk4SensScratch {
    /// Seconds spent inside `fd_derivatives_into`, accumulated over
    /// calls; whoever reads it zeroes it.
    pub(crate) dfd_s: f64,
    stages: Rk4Stages,
    d: FdDerivatives,
    tmp: MatN,
    s_q0: MatN,
    s_qd0: MatN,
    s_q: [MatN; 2],
    s_qd: [MatN; 3],
    s_ka: [MatN; 4],
}

impl Rk4SensScratch {
    /// Scratch sized for `model`; also grows lazily on first use.
    pub fn for_model(model: &RobotModel) -> Self {
        let mut s = Self::default();
        s.ensure_dims(model);
        s
    }

    /// Sizes every buffer for `model`; allocation-free when already
    /// sized. The constant sensitivities of the initial state,
    /// `s_q0 = [I | 0 | 0]` and `s_q̇0 = [0 | I | 0]`, are (re)installed
    /// here.
    fn ensure_dims(&mut self, model: &RobotModel) {
        let nv = model.nv();
        self.stages.ensure_dims(model, 1);
        self.d.ensure_dims(nv);
        for s in [&mut self.tmp, &mut self.s_q0, &mut self.s_qd0]
            .into_iter()
            .chain(&mut self.s_q)
            .chain(&mut self.s_qd)
            .chain(&mut self.s_ka)
        {
            s.resize(nv, 3 * nv);
        }
        self.s_q0.fill(0.0);
        self.s_qd0.fill(0.0);
        for i in 0..nv {
            self.s_q0[(i, i)] = 1.0;
            self.s_qd0[(i, nv + i)] = 1.0;
        }
    }
}

/// The incoming state sensitivities of one RK4 stage. The first two
/// stages have structural identities whose chain-rule products are
/// exact copies or scalings, so they skip those products.
#[derive(Clone, Copy)]
enum StageInput<'a> {
    /// Stage 1: `s_q = [I | 0 | 0]`, `s_q̇ = [0 | I | 0]`.
    First,
    /// Stage 2: `s_q = [I | c·I | 0]` with `c = h/2`, `s_q̇` general.
    Second { c: f64, sqd: &'a MatN },
    /// Stages 3 and 4: both general.
    General { sq: &'a MatN, sqd: &'a MatN },
}

/// One ΔFD chain-rule stage: evaluates ΔFD at `(q_i, qd_i)` into `d`,
/// adding its wall time to `dfd_s`, and forms the stage acceleration
/// sensitivity `ka = J_q·sq + J_q̇·sqd + [0 | 0 | M⁻¹]`, one `nv × 3nv`
/// product per Jacobian.
///
/// With the identity and zero blocks of [`StageInput::First`] and
/// [`StageInput::Second`] that product reduces, bit for bit (finite
/// Jacobians), to what the general product computes: `mul_mat_into`
/// accumulates from `+0.0` and the products with the zero entries add
/// signed zeros, so `J·I` is `0.0 + J`, `J·(c·I)` is `0.0 + J·c` and
/// `J·0` is `+0.0`. That leaves 5 of the step's 8 `nv × 3nv` products
/// (`tests::structured_stages_match_the_general_chain_rule_bitwise`).
#[allow(clippy::too_many_arguments)]
fn stage_sens(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    dfd_s: &mut f64,
    d: &mut FdDerivatives,
    tmp: &mut MatN,
    tau: &[f64],
    q_i: &[f64],
    qd_i: &[f64],
    input: StageInput<'_>,
    ka_out: &mut [f64],
    ka: &mut MatN,
) {
    let t = Instant::now();
    fd_derivatives_into(model, ws, q_i, qd_i, tau, None, d).expect("ΔFD");
    *dfd_s += t.elapsed().as_secs_f64();
    let nv = d.qdd.len();
    ka_out.copy_from_slice(&d.qdd);
    // k_v = qd_i → sensitivity is sqd (referenced by the caller).
    let (jq, jqd, minv) = (&d.dqdd_dq, &d.dqdd_dqd, &d.dqdd_dtau);
    match input {
        StageInput::First => {
            for i in 0..nv {
                let blocks = jq.row(i).iter().chain(jqd.row(i)).chain(minv.row(i));
                for (o, &j) in ka.row_mut(i).iter_mut().zip(blocks) {
                    *o = 0.0 + j;
                }
            }
        }
        StageInput::Second { c, sqd } => {
            jqd.mul_mat_into(sqd, ka);
            for i in 0..nv {
                let (dq, rest) = ka.row_mut(i).split_at_mut(nv);
                let (dqd, du) = rest.split_at_mut(nv);
                for j in 0..nv {
                    dq[j] += 0.0 + jq[(i, j)];
                    dqd[j] += 0.0 + jq[(i, j)] * c;
                    du[j] = (0.0 + du[j]) + minv[(i, j)];
                }
            }
        }
        StageInput::General { sq, sqd } => {
            jq.mul_mat_into(sq, ka);
            jqd.mul_mat_into(sqd, tmp);
            *ka += &*tmp;
            for i in 0..nv {
                for (o, m) in ka.row_mut(i)[2 * nv..].iter_mut().zip(minv.row(i)) {
                    *o += m;
                }
            }
        }
    }
}

/// Writes rows `row0..row0 + nv` of the step Jacobians `[A | B]`:
/// `base + h/6 · (k1 + 2·k2 + 2·k3 + k4)`, summed left to right.
fn write_rk4_rows(jac: &mut StepJacobians, row0: usize, base: &MatN, h6: f64, k: [&MatN; 4]) {
    let StepJacobians { a, b } = jac;
    for i in 0..base.rows() {
        let out = a.row_mut(row0 + i).iter_mut().chain(b.row_mut(row0 + i));
        for (j, o) in out.enumerate() {
            let sum = k[0][(i, j)] + 2.0 * k[1][(i, j)] + 2.0 * k[2][(i, j)] + k[3][(i, j)];
            *o = base[(i, j)] + h6 * sum;
        }
    }
}

/// One RK4 step together with its discrete Jacobians, computed from four
/// serial ΔFD evaluations (the Fig 13 sub-task chain), into
/// caller-reused scratch and outputs: zero steady-state heap allocation
/// (every stage sensitivity lives in `scratch`, the outputs are resized
/// only on first use).
///
/// Derivatives are taken in tangent coordinates; for quaternion joints
/// the transport of the configuration tangent across the step is
/// approximated to first order in `h` (exact for 1-DOF joints).
///
/// # Panics
/// Panics if forward dynamics fails or on dimension mismatches.
#[allow(clippy::too_many_arguments)] // stage inputs + three outputs
pub fn rk4_step_with_sensitivity_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    scratch: &mut Rk4SensScratch,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    h: f64,
    q_new: &mut Vec<f64>,
    qd_new: &mut Vec<f64>,
    jac: &mut StepJacobians,
) {
    let nv = model.nv();
    scratch.ensure_dims(model);
    q_new.resize(model.nq(), 0.0);
    qd_new.resize(nv, 0.0);
    jac.a.resize(2 * nv, 2 * nv);
    jac.b.resize(2 * nv, nv);

    let Rk4SensScratch {
        dfd_s,
        stages,
        d,
        tmp,
        s_q0,
        s_qd0,
        s_q,
        s_qd,
        s_ka,
    } = scratch;

    // Stage s + 1 at its RK4 point; its velocity sensitivity is the
    // incoming q̇-sensitivity itself (s_k1v = s_qd0, s_k2v = s_qd2, …).
    for s in 0..4 {
        let (q_s, qd_s, k_s) = stages.point(model, s, q, qd, h);
        let c = if s == 3 { h } else { h / 2.0 };
        let input = match s {
            0 => StageInput::First,
            1 => {
                axpy_into(&mut s_qd[0], s_qd0, c, &s_ka[0]);
                StageInput::Second { c, sqd: &s_qd[0] }
            }
            _ => {
                axpy_into(&mut s_q[s - 2], s_q0, c, &s_qd[s - 2]);
                axpy_into(&mut s_qd[s - 1], s_qd0, c, &s_ka[s - 1]);
                StageInput::General {
                    sq: &s_q[s - 2],
                    sqd: &s_qd[s - 1],
                }
            }
        };
        let s_ks = &mut s_ka[s];
        stage_sens(model, ws, dfd_s, d, tmp, tau, q_s, qd_s, input, k_s, s_ks);
    }
    stages.finish(model, q, qd, h, q_new, qd_new);
    // The q rows from the stage velocities, the q̇ rows from the stage
    // accelerations.
    write_rk4_rows(jac, 0, s_q0, h / 6.0, [s_qd0, &s_qd[0], &s_qd[1], &s_qd[2]]);
    write_rk4_rows(jac, nv, s_qd0, h / 6.0, s_ka.each_ref());
}

#[cfg(test)]
#[path = "../../dynamics/tests/support/energy.rs"]
mod energy;

#[cfg(test)]
mod tests {
    use super::energy::total_energy;
    use super::*;
    use rbd_dynamics::forward_dynamics_into;
    use rbd_model::{integrate_config, random_state, robots};

    /// The six lane-test models, floating base included.
    fn lane_test_models() -> [RobotModel; 6] {
        [
            robots::iiwa(),
            robots::hyq(),
            robots::quadruped_arm(),
            robots::atlas(),
            robots::serial_chain(3),
            robots::random_tree(9, 7),
        ]
    }

    #[test]
    fn rk4_energy_drift_is_fourth_order() {
        // Unforced iiwa over 0.2 s: halving h must divide the energy
        // drift by about 2⁴ = 16; 12 leaves room for round-off.
        let model = robots::iiwa();
        let s = random_state(&model, 1);
        let tau = vec![0.0; model.nv()];
        let mut ws = DynamicsWorkspace::new(&model);
        let e0 = total_energy(&model, &mut ws, &s.q, &s.qd);
        let mut drift = |steps: usize| {
            let h = 0.2 / steps as f64;
            let (mut q, mut qd) = (s.q.clone(), s.qd.clone());
            for _ in 0..steps {
                (q, qd) = rk4_step(&model, &mut ws, &q, &qd, &tau, h);
            }
            (total_energy(&model, &mut ws, &q, &qd) - e0).abs()
        };
        let drifts = [drift(100), drift(200), drift(400)];
        for w in drifts.windows(2) {
            assert!(w[0] >= 12.0 * w[1], "drifts {drifts:?}");
        }
    }

    #[test]
    fn rk4_step_equals_lane_kernel_bitwise() {
        // The plant (`rk4_step`) and the iLQR/MPPI rollouts (the lane
        // kernel) must integrate the same bits, floating base included.
        for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
            let (nq, nv) = (model.nq(), model.nv());
            let mut ws = DynamicsWorkspace::new(&model);
            let mut lws = rbd_dynamics::LaneWorkspace::<1>::new(&model);
            let mut lane_rs = rbd_dynamics::LaneRolloutScratch::for_model(&model, 1);
            let (mut q_step, mut qd_step) = (vec![0.0; 2 * nq], vec![0.0; 2 * nv]);
            for seed in 0..8 {
                let s = random_state(&model, seed);
                let tau: Vec<f64> = (0..nv)
                    .map(|i| 0.5 - 0.1 * ((i as u64 + seed) % 11) as f64)
                    .collect();
                let (q, qd) = rk4_step(&model, &mut ws, &s.q, &s.qd, &tau, 0.01);
                rbd_dynamics::rk4_rollout_lanes_into::<1>(
                    &model,
                    &mut lws,
                    &mut lane_rs,
                    &s.q,
                    &s.qd,
                    &tau,
                    1,
                    0.01,
                    &mut q_step,
                    &mut qd_step,
                )
                .unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&q),
                    bits(&q_step[nq..]),
                    "{} q, seed {seed}",
                    model.name()
                );
                assert_eq!(
                    bits(&qd),
                    bits(&qd_step[nv..]),
                    "{} q̇, seed {seed}",
                    model.name()
                );
            }
        }
    }

    /// The structured first two stages reproduce the general chain rule
    /// (`StageInput::General` fed the stages' identity and zero blocks
    /// spelled out) bit for bit on the lane-test models, floating base
    /// included.
    #[test]
    fn structured_stages_match_the_general_chain_rule_bitwise() {
        let models = lane_test_models();
        let bits = |m: &MatN| {
            (0..m.rows())
                .flat_map(|i| m.row(i).iter().map(|x| x.to_bits()))
                .collect::<Vec<_>>()
        };
        let h = 0.01;
        for model in &models {
            let nv = model.nv();
            let mut ws = DynamicsWorkspace::new(model);
            let Rk4SensScratch {
                mut dfd_s,
                mut d,
                mut tmp,
                s_q0,
                s_qd0,
                ..
            } = Rk4SensScratch::for_model(model);
            let sens = || MatN::zeros(nv, 3 * nv);
            let (mut fast, mut oracle, mut sq2, mut sqd2) = (sens(), sens(), sens(), sens());
            let mut ka = vec![0.0; nv];
            for seed in 0..3 {
                let s = random_state(model, 40 + seed);
                let tau: Vec<f64> = (0..nv).map(|k| 0.3 - 0.05 * k as f64).collect();
                let mut stage = |input: StageInput, out: &mut MatN| {
                    stage_sens(
                        model, &mut ws, &mut dfd_s, &mut d, &mut tmp, &tau, &s.q, &s.qd, input,
                        &mut ka, out,
                    )
                };
                let what = format!("{} seed {seed}", model.name());
                stage(StageInput::First, &mut fast);
                let general = StageInput::General {
                    sq: &s_q0,
                    sqd: &s_qd0,
                };
                stage(general, &mut oracle);
                assert_eq!(bits(&fast), bits(&oracle), "{what}: stage 1");
                // Stage 2's incoming sensitivities, formed as the step forms them.
                axpy_into(&mut sqd2, &s_qd0, h / 2.0, &fast);
                axpy_into(&mut sq2, &s_q0, h / 2.0, &s_qd0);
                let second = StageInput::Second {
                    c: h / 2.0,
                    sqd: &sqd2,
                };
                stage(second, &mut fast);
                let general = StageInput::General {
                    sq: &sq2,
                    sqd: &sqd2,
                };
                stage(general, &mut oracle);
                assert_eq!(bits(&fast), bits(&oracle), "{what}: stage 2");
            }
        }
    }

    /// The sensitivity's next state `(q_new, q̇_new)` is a plain RK4 step
    /// over `forward_dynamics_into`, bit for bit: ΔFD's `q̈` is
    /// `M⁻¹(τ − C)`, computed by the same ops.
    #[test]
    fn sensitivity_next_state_is_the_rk4_step_over_forward_dynamics_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let h = 0.01;
        for model in &lane_test_models() {
            let nv = model.nv();
            let mut ws = DynamicsWorkspace::new(model);
            let mut scratch = Rk4SensScratch::for_model(model);
            let mut jac = StepJacobians::zeros(nv);
            let (mut q_new, mut qd_new) = (Vec::new(), Vec::new());
            for seed in 0..3 {
                let s = random_state(model, 70 + seed);
                let tau: Vec<f64> = (0..nv).map(|k| 0.2 - 0.03 * k as f64).collect();
                rk4_step_with_sensitivity_into(
                    model,
                    &mut ws,
                    &mut scratch,
                    &s.q,
                    &s.qd,
                    &tau,
                    h,
                    &mut q_new,
                    &mut qd_new,
                    &mut jac,
                );
                let mut fd = |q: &[f64], qd: &[f64]| {
                    let mut qdd = vec![0.0; nv];
                    forward_dynamics_into(model, &mut ws, q, qd, &tau, None, &mut qdd).unwrap();
                    qdd
                };
                let (q, qd) = (&s.q, &s.qd);
                let k1 = fd(q, qd);
                let qd2: Vec<f64> = (0..nv).map(|i| qd[i] + h / 2.0 * k1[i]).collect();
                let k2 = fd(&integrate_config(model, q, qd, h / 2.0), &qd2);
                let qd3: Vec<f64> = (0..nv).map(|i| qd[i] + h / 2.0 * k2[i]).collect();
                let k3 = fd(&integrate_config(model, q, &qd2, h / 2.0), &qd3);
                let qd4: Vec<f64> = (0..nv).map(|i| qd[i] + h * k3[i]).collect();
                let k4 = fd(&integrate_config(model, q, &qd3, h), &qd4);
                let vbar: Vec<f64> = (0..nv)
                    .map(|i| (qd[i] + 2.0 * qd2[i] + 2.0 * qd3[i] + qd4[i]) / 6.0)
                    .collect();
                let q_ref = integrate_config(model, q, &vbar, h);
                let qd_ref: Vec<f64> = (0..nv)
                    .map(|i| qd[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
                    .collect();
                let what = format!("{} seed {seed}", model.name());
                assert_eq!(bits(&q_new), bits(&q_ref), "{what}: q_new");
                assert_eq!(bits(&qd_new), bits(&qd_ref), "{what}: q̇_new");
            }
        }
    }

    #[test]
    fn sensitivity_matches_finite_difference() {
        let model = robots::iiwa();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 2);
        let tau: Vec<f64> = (0..model.nv()).map(|k| 0.4 - 0.1 * k as f64).collect();
        let h = 0.01;
        let nv = model.nv();

        let mut jac = StepJacobians::zeros(nv);
        rk4_step_with_sensitivity_into(
            &model,
            &mut ws,
            &mut Rk4SensScratch::for_model(&model),
            &s.q,
            &s.qd,
            &tau,
            h,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut jac,
        );

        let eps = 1e-6;
        // Perturb each state coordinate and difference the step.
        for j in 0..2 * nv {
            let mut perturb = |sign: f64| -> (Vec<f64>, Vec<f64>) {
                let mut q = s.q.clone();
                let mut qd = s.qd.clone();
                if j < nv {
                    let mut dv = vec![0.0; nv];
                    dv[j] = sign * eps;
                    q = integrate_config(&model, &q, &dv, 1.0);
                } else {
                    qd[j - nv] += sign * eps;
                }
                rk4_step(&model, &mut ws, &q, &qd, &tau, h)
            };
            let (qp, qdp) = perturb(1.0);
            let (qm, qdm) = perturb(-1.0);
            for i in 0..nv {
                let num_q = (qp[i] - qm[i]) / (2.0 * eps);
                let num_qd = (qdp[i] - qdm[i]) / (2.0 * eps);
                assert!(
                    (jac.a[(i, j)] - num_q).abs() < 2e-4,
                    "A[{i},{j}]: {} vs {num_q}",
                    jac.a[(i, j)]
                );
                assert!(
                    (jac.a[(nv + i, j)] - num_qd).abs() < 2e-4,
                    "A[{},{j}]: {} vs {num_qd}",
                    nv + i,
                    jac.a[(nv + i, j)]
                );
            }
        }
        // Control Jacobian.
        for j in 0..nv {
            let mut tp = tau.clone();
            let mut tm = tau.clone();
            tp[j] += eps;
            tm[j] -= eps;
            let (qp, qdp) = rk4_step(&model, &mut ws, &s.q, &s.qd, &tp, h);
            let (qm, qdm) = rk4_step(&model, &mut ws, &s.q, &s.qd, &tm, h);
            for i in 0..nv {
                let num_q = (qp[i] - qm[i]) / (2.0 * eps);
                let num_qd = (qdp[i] - qdm[i]) / (2.0 * eps);
                assert!((jac.b[(i, j)] - num_q).abs() < 2e-4);
                assert!((jac.b[(nv + i, j)] - num_qd).abs() < 2e-4);
            }
        }
    }
}
