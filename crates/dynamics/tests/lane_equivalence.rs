//! Pins the K-lane lockstep sweeps (ABA, the RK4 rollout over it and
//! ΔFD) **bit-identical** to their scalar counterparts on every test
//! model (floating base included), at lane widths 1, 2 and 4, across
//! randomized states: lane `l` of any lane kernel output must equal the
//! scalar kernel run on lane `l`'s inputs with `==`, not a tolerance.
//! The lane ABA's scalar counterpart is the oracle in `support/aba.rs`,
//! the lane rollout's the test-local RK4 over that oracle in
//! `support/rk4.rs`, and the lane ΔFD's `fd_derivatives_into`.

#[path = "support/aba.rs"]
mod aba;
#[path = "support/rk4.rs"]
mod rk4;

use aba::aba_in_ws;
use rbd_dynamics::{
    fd_derivatives_into, fd_derivatives_lanes_into, forward_dynamics_aba_lanes_in_ws,
    lanes::LaneWorkspace, rk4_rollout_lanes_into, DynamicsError, DynamicsWorkspace, FdDerivatives,
    LaneFdScratch, LaneRolloutScratch,
};
use rbd_model::{random_state, robots, JointType, ModelBuilder, RobotModel};
use rbd_spatial::{ForceVec, MatN, SpatialInertia, Vec3, Xform};

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

    // With external forces, a different set per lane: `aba_in_ws` (the
    // width-1 lane call) against the oracle. The lane-major `fext` of
    // wider lane groups is crate-private; `lanes::tests` pins it.
    let nb = model.num_bodies();
    let fext = lane_fext(model, K);
    let mut prod_ws = DynamicsWorkspace::new(model);
    let mut qdd_prod = vec![0.0; nv];
    for l in 0..K {
        let (ql, qdl, tl) = (
            &q[l * nq..(l + 1) * nq],
            &qd[l * nv..(l + 1) * nv],
            &tau[l * nv..(l + 1) * nv],
        );
        let fl = Some(&fext[l * nb..(l + 1) * nb]);
        rbd_dynamics::aba_in_ws(model, &mut prod_ws, ql, qdl, tl, fl, &mut qdd_prod).unwrap();
        aba_in_ws(model, &mut ws, ql, qdl, tl, fl, &mut qdd_scalar).unwrap();
        for d in 0..nv {
            assert_eq!(
                qdd_prod[d].to_bits(),
                qdd_scalar[d].to_bits(),
                "{} ABA with fext lane {l}/{K} dof {d}",
                model.name()
            );
        }
    }
}

/// `k` lanes of world-frame external forces, lane-major (`k·nb`
/// entries): the forces of `aba.rs`' `inverts_rnea_with_external_forces`,
/// shifted per lane.
fn lane_fext(model: &RobotModel, k: usize) -> Vec<ForceVec> {
    let nb = model.num_bodies();
    (0..k * nb)
        .map(|n| {
            let (l, i) = ((n / nb) as f64, (n % nb) as f64);
            ForceVec::from_slice(&[0.1 * i, -0.2, 0.3 + 0.1 * l, 5.0, -2.0 - l, 1.0 + i])
        })
        .collect()
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

fn mat_bits(m: &MatN) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|i| (0..m.cols()).map(move |j| m[(i, j)].to_bits()))
        .collect()
}

fn assert_fd_bits(a: &FdDerivatives, b: &FdDerivatives, what: &str) {
    assert_eq!(mat_bits(&a.dqdd_dq), mat_bits(&b.dqdd_dq), "{what}: ∂q̈/∂q");
    assert_eq!(
        mat_bits(&a.dqdd_dqd),
        mat_bits(&b.dqdd_dqd),
        "{what}: ∂q̈/∂q̇"
    );
    assert_eq!(
        mat_bits(&a.dqdd_dtau),
        mat_bits(&b.dqdd_dtau),
        "{what}: M⁻¹"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.qdd), bits(&b.qdd), "{what}: q̈");
}

/// Lane ΔFD against `fd_derivatives_into` per lane, over two rounds on
/// one workspace (the second must not see the first's state), the
/// second with fewer outputs than lanes (a padded group).
fn check_dfd<const K: usize>(model: &RobotModel) {
    let (nq, nv) = (model.nq(), model.nv());
    let mut lws = LaneWorkspace::<K>::new(model);
    let mut scratch = LaneFdScratch::<K>::new(model);
    let mut ws = DynamicsWorkspace::new(model);
    let mut reference = FdDerivatives::zeros(nv);
    for (round, n_out) in [(0, K), (1, K.div_ceil(2))] {
        let (q, qd) = lane_states(model, K, 300 + 10 * round);
        let tau = lane_controls(model, K);
        let mut outs = vec![FdDerivatives::default(); n_out];
        fd_derivatives_lanes_into(model, &ws, &mut lws, &mut scratch, &q, &qd, &tau, &mut outs)
            .unwrap();
        for (l, out) in outs.iter().enumerate() {
            let lane = |x: &[f64], n: usize| x[l * n..(l + 1) * n].to_vec();
            fd_derivatives_into(
                model,
                &mut ws,
                &lane(&q, nq),
                &lane(&qd, nv),
                &lane(&tau, nv),
                None,
                &mut reference,
            )
            .unwrap();
            let what = format!("{} ΔFD lane {l}/{K} round {round}", model.name());
            assert_fd_bits(out, &reference, &what);
        }
    }
}

/// Two revolute joints at one origin (z, then x) carrying a point mass
/// on the second joint's z axis, with a massless first link: the first
/// joint's articulated inertia is `m L² sin² q₂`, singular at `q₂ = 0`.
fn pointing_arm() -> RobotModel {
    let mut b = ModelBuilder::new("pointing_arm");
    let link0 = b.add_body(
        "yaw",
        None,
        JointType::revolute_z(),
        Xform::identity(),
        SpatialInertia::zero(),
    );
    b.add_body(
        "tip",
        Some(link0),
        JointType::revolute_x(),
        Xform::identity(),
        SpatialInertia::from_mass_com_inertia(
            1.0,
            Vec3::new(0.0, 0.0, 0.5),
            rbd_spatial::Mat3::zero(),
        ),
    );
    b.build()
}

#[test]
fn lane_dfd_bit_identical_to_scalar_all_models() {
    for model in test_models() {
        check_dfd::<1>(&model);
        check_dfd::<2>(&model);
        check_dfd::<4>(&model);
    }
}

#[test]
fn lane_dfd_reports_a_singular_lane() {
    let model = pointing_arm();
    let mut ws = DynamicsWorkspace::new(&model);
    let healthy = [0.3, 0.7];
    let singular = [0.3, 0.0];
    let scalar_err = fd_derivatives_into(
        &model,
        &mut ws,
        &singular,
        &[0.0; 2],
        &[0.0; 2],
        None,
        &mut FdDerivatives::zeros(2),
    )
    .unwrap_err();
    assert!(matches!(scalar_err, DynamicsError::SingularMassMatrix(_)));
    let mut lws = LaneWorkspace::<4>::new(&model);
    let mut scratch = LaneFdScratch::<4>::new(&model);
    let mut outs = vec![FdDerivatives::zeros(2); 4];
    for bad in 0..4 {
        let q: Vec<f64> = (0..4)
            .flat_map(|l| if l == bad { singular } else { healthy })
            .collect();
        let r = fd_derivatives_lanes_into(
            &model,
            &ws,
            &mut lws,
            &mut scratch,
            &q,
            &[0.0; 8],
            &[0.0; 8],
            &mut outs,
        );
        assert_eq!(r.unwrap_err(), scalar_err, "singular lane {bad}");
    }
    let q: Vec<f64> = (0..4).flat_map(|_| healthy).collect();
    fd_derivatives_lanes_into(
        &model,
        &ws,
        &mut lws,
        &mut scratch,
        &q,
        &[0.0; 8],
        &[0.0; 8],
        &mut outs,
    )
    .expect("healthy lanes after a failed call");
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
