//! Property tests pinning the K-lane lockstep kernels **bit-identical**
//! to the scalar path across randomized kinematic trees, the paper
//! robots (floating base included) and randomized states — plus the
//! lane-group batch dispatch, padded last group included, at every
//! worker count.
//!
//! Each property runs 24 seeded cases on the shared harness in
//! `support/cases.rs`: every assertion message names the case seed, and
//! calling the property's `*_case` function with it replays the failing
//! case alone.

#[path = "../crates/dynamics/tests/support/aba.rs"]
mod aba;
#[path = "support/cases.rs"]
mod cases;
#[path = "../crates/dynamics/tests/support/rk4.rs"]
mod rk4;

use aba::aba_in_ws;
use cases::{draw, for_each_case};

use dadu_rbd::dynamics::{
    forward_dynamics_aba_lanes_in_ws, lanes::LaneWorkspace, rk4_rollout_lanes_into, BatchEval,
    DynamicsWorkspace, LaneRolloutScratch,
};
use dadu_rbd::model::{random_state, robots, RobotModel, SplitMix64};

const K: usize = 4;

/// Cases per property.
const CASES: u64 = 24;

/// Every test model class: the three paper robots (Atlas and HyQ are
/// floating-base), the hybrid, plus a randomized tree per case.
fn model_for(idx: u64, tree_n: u64, tree_seed: u64) -> RobotModel {
    match idx {
        0 => robots::iiwa(),
        1 => robots::hyq(),
        2 => robots::atlas(),
        3 => robots::quadruped_arm(),
        _ => robots::random_tree(tree_n as usize, tree_seed),
    }
}

/// Packs `K` random lane states into flat lane-major buffers.
fn lane_states(model: &RobotModel, seed0: u64) -> (Vec<f64>, Vec<f64>) {
    let (nq, nv) = (model.nq(), model.nv());
    let mut q = vec![0.0; K * nq];
    let mut qd = vec![0.0; K * nv];
    for l in 0..K {
        let s = random_state(model, seed0.wrapping_add(l as u64));
        q[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
        qd[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
    }
    (q, qd)
}

/// Lane ABA is bit-identical to the scalar kernel, lane by lane, on
/// every model class at randomized states.
fn lane_sweeps_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let model_idx = draw(&mut rng, 0, 5);
    let tree_n = draw(&mut rng, 2, 10);
    let tree_seed = draw(&mut rng, 0, 500);
    let state_seed = draw(&mut rng, 0, 1000);
    let model = model_for(model_idx, tree_n, tree_seed);
    let (nq, nv) = (model.nq(), model.nv());
    let (q, qd) = lane_states(&model, state_seed);
    let tau: Vec<f64> = (0..K * nv).map(|i| 0.4 - 0.02 * i as f64).collect();

    let mut lws = LaneWorkspace::<K>::new(&model);
    let mut ws = DynamicsWorkspace::new(&model);

    forward_dynamics_aba_lanes_in_ws(&model, &mut lws, &q, &qd, &tau)
        .unwrap_or_else(|e| panic!("case seed {seed}: lane ABA failed: {e}"));
    let mut qdd_ref = vec![0.0; nv];
    for l in 0..K {
        aba_in_ws(
            &model,
            &mut ws,
            &q[l * nq..(l + 1) * nq],
            &qd[l * nv..(l + 1) * nv],
            &tau[l * nv..(l + 1) * nv],
            None,
            &mut qdd_ref,
        )
        .unwrap_or_else(|e| panic!("case seed {seed}: scalar ABA failed: {e}"));
        for d in 0..nv {
            assert_eq!(
                lws.qdd_lanes()[d][l],
                qdd_ref[d],
                "case seed {seed}: ABA lane {l} dof {d}"
            );
        }
    }
}

/// The lane rollout trajectory equals the scalar RK4/ABA rollout
/// bitwise, per lane, for random trees and states.
fn lane_rollout_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let model_idx = draw(&mut rng, 0, 5);
    let tree_n = draw(&mut rng, 2, 9);
    let tree_seed = draw(&mut rng, 0, 500);
    let state_seed = draw(&mut rng, 0, 1000);
    let horizon = draw(&mut rng, 1, 4) as usize;
    let model = model_for(model_idx, tree_n, tree_seed);
    let (nq, nv) = (model.nq(), model.nv());
    let (q0, qd0) = lane_states(&model, state_seed);
    let us: Vec<f64> = (0..K * horizon * nv)
        .map(|i| 0.3 - 0.01 * i as f64)
        .collect();
    let dt = 0.01;

    let mut lws = LaneWorkspace::<K>::new(&model);
    let mut lane_rs = LaneRolloutScratch::for_model(&model, K);
    let mut q_traj = vec![0.0; K * (horizon + 1) * nq];
    let mut qd_traj = vec![0.0; K * (horizon + 1) * nv];
    rk4_rollout_lanes_into(
        &model,
        &mut lws,
        &mut lane_rs,
        &q0,
        &qd0,
        &us,
        horizon,
        dt,
        &mut q_traj,
        &mut qd_traj,
    )
    .unwrap_or_else(|e| panic!("case seed {seed}: lane rollout failed: {e}"));

    for l in 0..K {
        let (q_ref, qd_ref) = rk4::rk4_rollout(
            &model,
            rk4::aba_stage,
            &q0[l * nq..(l + 1) * nq],
            &qd0[l * nv..(l + 1) * nv],
            &us[l * horizon * nv..(l + 1) * horizon * nv],
            dt,
        )
        .unwrap_or_else(|e| panic!("case seed {seed}: scalar rollout failed: {e}"));
        assert_eq!(
            &q_traj[l * (horizon + 1) * nq..(l + 1) * (horizon + 1) * nq],
            &q_ref[..],
            "case seed {seed}: q lane {l}"
        );
        assert_eq!(
            &qd_traj[l * (horizon + 1) * nv..(l + 1) * (horizon + 1) * nv],
            &qd_ref[..],
            "case seed {seed}: qd lane {l}"
        );
    }
}

/// The lane-group batch dispatch — chunking over the pool, the last
/// group padded with copies of its first sample — is bit-identical to
/// the serial per-sample scalar loop at every worker count for batch
/// sizes 1..=13.
fn lane_group_dispatch_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n_samples = draw(&mut rng, 1, 14) as usize;
    let threads = draw(&mut rng, 0, 5) as usize;
    let state_seed = draw(&mut rng, 0, 1000);
    let model = robots::hyq();
    let (nq, nv) = (model.nq(), model.nv());
    let horizon = 2;
    let dt = 0.01;
    // Per-sample states and controls.
    let states: Vec<_> = (0..n_samples)
        .map(|k| random_state(&model, state_seed.wrapping_add(k as u64)))
        .collect();
    let us_all: Vec<Vec<f64>> = (0..n_samples)
        .map(|k| {
            (0..horizon * nv)
                .map(|i| 0.2 - 0.01 * (i + k) as f64)
                .collect()
        })
        .collect();

    // Serial scalar reference: final configuration per sample.
    let reference: Vec<Vec<f64>> = (0..n_samples)
        .map(|k| {
            let (q_ref, _) = rk4::rk4_rollout(
                &model,
                rk4::aba_stage,
                &states[k].q,
                &states[k].qd,
                &us_all[k],
                dt,
            )
            .unwrap_or_else(|e| panic!("case seed {seed}: scalar rollout failed: {e}"));
            q_ref[horizon * nq..].to_vec()
        })
        .collect();

    // Lane-group dispatch through the pool.
    struct Slot {
        lws: LaneWorkspace<K>,
        lane_rs: LaneRolloutScratch,
        q0: Vec<f64>,
        qd0: Vec<f64>,
        us: Vec<f64>,
        q_traj: Vec<f64>,
        qd_traj: Vec<f64>,
    }
    let mut batch = BatchEval::with_threads(&model, threads).with_point_flops(1e9);
    let mut slots: Vec<Slot> = (0..batch.threads())
        .map(|_| Slot {
            lws: LaneWorkspace::new(&model),
            lane_rs: LaneRolloutScratch::for_model(&model, K),
            q0: vec![0.0; K * nq],
            qd0: vec![0.0; K * nv],
            us: vec![0.0; K * horizon * nv],
            q_traj: vec![0.0; K * (horizon + 1) * nq],
            qd_traj: vec![0.0; K * (horizon + 1) * nv],
        })
        .collect();
    let ids: Vec<usize> = (0..n_samples).collect();
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); n_samples];
    let r: Result<(), String> = batch.for_each_lane_groups(
        K,
        &ids,
        &mut outs,
        &mut slots,
        |model, _, sc, _start, group, group_outs| {
            for l in 0..K {
                let k = group.get(l).copied().unwrap_or(group[0]);
                sc.q0[l * nq..(l + 1) * nq].copy_from_slice(&states[k].q);
                sc.qd0[l * nv..(l + 1) * nv].copy_from_slice(&states[k].qd);
                sc.us[l * horizon * nv..(l + 1) * horizon * nv].copy_from_slice(&us_all[k]);
            }
            rk4_rollout_lanes_into(
                model,
                &mut sc.lws,
                &mut sc.lane_rs,
                &sc.q0,
                &sc.qd0,
                &sc.us,
                horizon,
                dt,
                &mut sc.q_traj,
                &mut sc.qd_traj,
            )
            .map_err(|e| e.to_string())?;
            for (l, o) in group_outs.iter_mut().enumerate() {
                *o = sc.q_traj[l * (horizon + 1) * nq + horizon * nq..][..nq].to_vec();
            }
            Ok(())
        },
    );
    r.unwrap_or_else(|e| panic!("case seed {seed}: lane dispatch failed: {e}"));
    for (k, (got, expect)) in outs.iter().zip(&reference).enumerate() {
        assert_eq!(
            got, expect,
            "case seed {seed}: sample {k} of {n_samples} at {threads} threads"
        );
    }
}

#[test]
fn lane_sweeps_bit_identical_to_scalar() {
    for_each_case(1_000, CASES, lane_sweeps_case);
}

#[test]
fn lane_rollout_bit_identical_to_scalar() {
    for_each_case(2_000, CASES, lane_rollout_case);
}

#[test]
fn lane_group_dispatch_bit_identical_at_any_worker_count() {
    for_each_case(3_000, CASES, lane_group_dispatch_case);
}
