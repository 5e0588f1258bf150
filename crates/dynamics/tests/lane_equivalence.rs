//! Pins the K-lane lockstep sweeps (ABA and the RK4 rollout over it)
//! **bit-identical** to their scalar counterparts on every test model (floating base included), at lane
//! widths 1, 2 and 4, across randomized states: lane `l` of any lane
//! kernel output must equal the scalar kernel run on lane `l`'s inputs
//! with `==`, not a tolerance. The lane rollout's scalar counterpart is
//! the test-local RK4 over `aba_in_ws` in `support/rk4.rs`.

#[path = "support/rk4.rs"]
mod rk4;

use rbd_dynamics::{
    aba_in_ws, forward_dynamics_aba_lanes_in_ws, lanes::LaneWorkspace, rk4_rollout_lanes_into,
    DynamicsWorkspace, LaneRolloutScratch,
};
use rbd_model::{random_state, robots, RobotModel};

fn test_models() -> Vec<RobotModel> {
    vec![
        robots::iiwa(),
        robots::hyq(),
        robots::quadruped_arm(),
        robots::atlas(),
        robots::serial_chain(3),
        robots::random_tree(9, 7),
    ]
}

/// Packs `K` random states (seeds `seed0..seed0+K`) into flat
/// lane-major buffers.
fn lane_states(model: &RobotModel, k: usize, seed0: u64) -> (Vec<f64>, Vec<f64>) {
    let (nq, nv) = (model.nq(), model.nv());
    let mut q = vec![0.0; k * nq];
    let mut qd = vec![0.0; k * nv];
    for l in 0..k {
        let s = random_state(model, seed0 + l as u64);
        q[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
        qd[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
    }
    (q, qd)
}

fn lane_controls(model: &RobotModel, k: usize) -> Vec<f64> {
    let nv = model.nv();
    (0..k * nv)
        .map(|i| 0.4 - 0.03 * (i % nv) as f64 + 0.05 * (i / nv) as f64)
        .collect()
}

fn check_aba<const K: usize>(model: &RobotModel) {
    let (nq, nv) = (model.nq(), model.nv());
    let (q, qd) = lane_states(model, K, 100);
    let tau = lane_controls(model, K);

    let mut lws = LaneWorkspace::<K>::new(model);
    let mut ws = DynamicsWorkspace::new(model);

    forward_dynamics_aba_lanes_in_ws(model, &mut lws, &q, &qd, &tau).unwrap();
    let mut qdd_scalar = vec![0.0; nv];
    for l in 0..K {
        aba_in_ws(
            model,
            &mut ws,
            &q[l * nq..(l + 1) * nq],
            &qd[l * nv..(l + 1) * nv],
            &tau[l * nv..(l + 1) * nv],
            None,
            &mut qdd_scalar,
        )
        .unwrap();
        for d in 0..nv {
            assert_eq!(
                lws.qdd_lanes()[d][l],
                qdd_scalar[d],
                "{} ABA lane {l}/{K} dof {d}",
                model.name()
            );
        }
    }
}

fn check_rollout<const K: usize>(model: &RobotModel) {
    let (nq, nv) = (model.nq(), model.nv());
    let horizon = 3;
    let dt = 0.01;
    let (q0, qd0) = lane_states(model, K, 200);
    let us: Vec<f64> = (0..K * horizon * nv)
        .map(|i| 0.3 - 0.02 * (i % (horizon * nv)) as f64)
        .collect();

    let mut lws = LaneWorkspace::<K>::new(model);
    let mut lane_scratch = LaneRolloutScratch::for_model(model, K);
    let mut q_traj = vec![0.0; K * (horizon + 1) * nq];
    let mut qd_traj = vec![0.0; K * (horizon + 1) * nv];
    rk4_rollout_lanes_into(
        model,
        &mut lws,
        &mut lane_scratch,
        &q0,
        &qd0,
        &us,
        horizon,
        dt,
        &mut q_traj,
        &mut qd_traj,
    )
    .unwrap();

    for l in 0..K {
        let (q_ref, qd_ref) = rk4::rk4_rollout(
            model,
            rk4::aba_stage,
            &q0[l * nq..(l + 1) * nq],
            &qd0[l * nv..(l + 1) * nv],
            &us[l * horizon * nv..(l + 1) * horizon * nv],
            dt,
        )
        .unwrap();
        assert_eq!(
            &q_traj[l * (horizon + 1) * nq..(l + 1) * (horizon + 1) * nq],
            &q_ref[..],
            "{} q trajectory lane {l}/{K}",
            model.name()
        );
        assert_eq!(
            &qd_traj[l * (horizon + 1) * nv..(l + 1) * (horizon + 1) * nv],
            &qd_ref[..],
            "{} qd trajectory lane {l}/{K}",
            model.name()
        );
    }
}

#[test]
fn lane_kernels_bit_identical_to_scalar_all_models() {
    for model in test_models() {
        check_aba::<1>(&model);
        check_aba::<2>(&model);
        check_aba::<4>(&model);
    }
}

#[test]
fn lane_rollout_bit_identical_to_scalar_all_models() {
    for model in test_models() {
        check_rollout::<1>(&model);
        check_rollout::<2>(&model);
        check_rollout::<4>(&model);
    }
}

#[test]
fn lane_rollout_matches_rk4_over_mass_matrix_dynamics() {
    // The ABA-based lane rollout must agree with RK4 over the
    // MMinvGen-based forward dynamics to numerical tolerance (the two
    // FD formulations agree to ~1e-8): sanity that the rollout
    // integrates the same dynamics, not just that lane == scalar.
    let model = robots::hyq();
    let s = random_state(&model, 5);
    let (nq, nv) = (model.nq(), model.nv());
    let horizon = 2;
    let dt = 0.01;
    let us: Vec<f64> = (0..horizon * nv).map(|i| 0.2 - 0.01 * i as f64).collect();
    let mut lws = LaneWorkspace::<1>::new(&model);
    let mut scratch = LaneRolloutScratch::for_model(&model, 1);
    let mut q_traj = vec![0.0; (horizon + 1) * nq];
    let mut qd_traj = vec![0.0; (horizon + 1) * nv];
    rk4_rollout_lanes_into(
        &model,
        &mut lws,
        &mut scratch,
        &s.q,
        &s.qd,
        &us,
        horizon,
        dt,
        &mut q_traj,
        &mut qd_traj,
    )
    .unwrap();

    let (q_ref, qd_ref) = rk4::rk4_rollout(
        &model,
        |m, ws, q, qd, tau| rbd_dynamics::forward_dynamics(m, ws, q, qd, tau, None),
        &s.q,
        &s.qd,
        &us,
        dt,
    )
    .unwrap();
    for (k, (a, b)) in q_ref.iter().zip(&q_traj).enumerate() {
        assert!((a - b).abs() < 1e-7, "q entry {k}: {a} vs {b}");
    }
    for (k, (a, b)) in qd_ref.iter().zip(&qd_traj).enumerate() {
        assert!((a - b).abs() < 1e-7, "qd entry {k}: {a} vs {b}");
    }
}
