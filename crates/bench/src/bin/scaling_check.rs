//! Multi-core `BatchEval` scaling + SIMD-lane smoke test (CI gate).
//!
//! **Thread gate** — on a host with ≥ 4 cores, the Atlas ΔFD 64-point
//! batch must run **≥ 1.5x faster with 4 workers than with 1**
//! (GitHub-hosted runners have 4 vCPUs; near-linear scaling gives ~3x,
//! so 1.5x is a conservative smoke threshold well clear of scheduling
//! noise), and the outputs at every worker count must be
//! **bit-identical** to the serial loop.
//!
//! **Lane gate** — the Atlas 64-sample RK4/ABA rollout batch through
//! the lane-major SoA path must deliver **≥ 1.8x per-sample throughput
//! at lane width 4 vs lane width 1** on a single executor (pure
//! SIMD/ILP win, no threading), with lane-4 trajectories bit-identical
//! to lane 1 — and the lane-group `BatchEval` dispatch, whose short last
//! group is padded, must stay bit-identical to lane 1 at every worker
//! count.
//!
//! **Lane ΔFD gate** — the Atlas 64-point ΔFD through the lane kernel
//! (`fd_derivatives_lanes_into`) must deliver **≥ 1.3x per-sample
//! throughput at lane width 4 vs lane width 1** on a single executor,
//! with the lane-1 outputs bit-identical to the serial
//! `fd_derivatives_into` loop (the batch check covers width 4, which
//! `BatchEval` runs). The gain is smaller than the rollout's
//! because the `−M⁻¹·∂τ` gather costs the same per point at any width.
//!
//! On hosts with fewer cores the speedup assertions are skipped (exit
//! 0 after the correctness checks) unless `RBD_SCALING_STRICT=1`
//! forces them — the 1-CPU dev containers this repo is grown in cannot
//! exhibit thread scaling and their lane ratios are noisy, which is
//! exactly why these gates live in CI.
//!
//! ```text
//! scaling_check [--min-speedup 1.5] [--threads 4] [--min-lane-speedup 1.8]
//! ```

use rbd_bench::harness::{fmt_ns, Bench};
use rbd_dynamics::{
    fd_derivatives, fd_derivatives_lanes_into, lanes::LaneWorkspace, rk4_rollout_lanes_into,
    BatchEval, DynamicsWorkspace, FdDerivatives, LaneFdScratch, LaneRolloutScratch, SamplePoint,
};
use rbd_model::{random_state, robots, RobotModel};
use std::process::ExitCode;

/// Samples and horizon of the lane rollout gate.
const LANE_SAMPLES: usize = 64;
const LANE_HORIZON: usize = 4;
const LANE_DT: f64 = 0.01;
/// Required per-sample Atlas ΔFD throughput of lane width 4 over 1.
const MIN_LANE_DFD_SPEEDUP: f64 = 1.3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_speedup = 1.5_f64;
    let mut min_lane_speedup = 1.8_f64;
    let mut threads = 4_usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"))
        };
        match a.as_str() {
            "--min-speedup" => min_speedup = num("--min-speedup"),
            "--min-lane-speedup" => min_lane_speedup = num("--min-lane-speedup"),
            "--threads" => threads = num("--threads") as usize,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: scaling_check [--min-speedup X] \
                     [--threads N] [--min-lane-speedup Y]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let model = robots::atlas();
    let nv = model.nv();
    let tau: Vec<f64> = (0..nv).map(|k| 0.5 - 0.05 * k as f64).collect();
    let points: Vec<SamplePoint> = (0..64)
        .map(|i| {
            let s = random_state(&model, i);
            (s.q, s.qd, tau.clone())
        })
        .collect();

    // ---- Correctness: bit-identical to the serial loop at 1 and
    //      `threads` workers and through the lane kernel at width 1
    //      (always checked, on any host).
    let mut ws = DynamicsWorkspace::new(&model);
    let serial: Vec<FdDerivatives> = points
        .iter()
        .map(|(q, qd, tau)| fd_derivatives(&model, &mut ws, q, qd, tau, None).unwrap())
        .collect();
    let mut runs = Vec::new();
    for t in [1, threads] {
        let mut batch = BatchEval::with_threads(&model, t);
        let mut outs = vec![FdDerivatives::zeros(nv); points.len()];
        batch.fd_derivatives_batch(&points, &mut outs).unwrap();
        runs.push((format!("{t} worker(s)"), outs));
    }
    let mut outs = vec![FdDerivatives::zeros(nv); points.len()];
    lane_dfd::<1>(&model, &points)(&mut outs);
    runs.push(("lane width 1".to_string(), outs));
    for (what, outs) in &runs {
        if let Some(k) = outs
            .iter()
            .zip(&serial)
            .position(|(b, s)| fd_bits(b) != fd_bits(s))
        {
            eprintln!("scaling_check: point {k} at {what} differs from the serial loop");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "correctness: outputs bit-identical to the serial loop at 1 and {threads} worker(s) \
         and at lane width 1"
    );

    // ---- Lane correctness: lane-1 reference trajectories, then lane
    //      width 4 and the padded lane-group pool dispatch at 1 and
    //      `threads` workers — all must match bitwise (always checked).
    if let Err(code) = lane_correctness(&model, threads) {
        return code;
    }

    // ---- Scaling assertions: skipped on small hosts unless strict.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let strict = std::env::var("RBD_SCALING_STRICT").as_deref() == Ok("1");
    if host_cores < threads && !strict {
        println!(
            "scaling_check: host has {host_cores} core(s) < {threads}; skipping the speedup \
             assertions (set RBD_SCALING_STRICT=1 to force)"
        );
        return ExitCode::SUCCESS;
    }

    // Thread speedup: median batch latency at 1 vs `threads` workers.
    let mut medians = Vec::new();
    for t in [1, threads] {
        let mut batch = BatchEval::with_threads(&model, t);
        let mut outs = vec![FdDerivatives::zeros(nv); points.len()];
        let mut group = Bench::new("scaling").quiet();
        let e = group.bench(&format!("dFD_batch64_{t}T"), || {
            batch.fd_derivatives_batch(&points, &mut outs).unwrap();
        });
        println!(
            "atlas dFD batch64 @ {t} worker(s): median {}",
            fmt_ns(e.median_ns)
        );
        medians.push(e.median_ns);
    }
    let speedup = medians[0] / medians[1];
    println!("speedup {threads}T vs 1T: {speedup:.2}x (required ≥ {min_speedup:.2}x)");
    if speedup < min_speedup {
        eprintln!(
            "scaling_check: FAILED — {threads}-worker speedup {speedup:.2}x < {min_speedup:.2}x"
        );
        return ExitCode::FAILURE;
    }

    // Lane speedup: per-sample rollout throughput at lane width 4 vs 1
    // on a single executor (same sample count both ways, so the median
    // ratio IS the per-sample throughput ratio).
    let lane1 = lane_rollout_median::<1>(&model);
    let lane4 = lane_rollout_median::<4>(&model);
    println!(
        "atlas rollout batch64 @ lane1: median {}, @ lane4: median {}",
        fmt_ns(lane1),
        fmt_ns(lane4)
    );
    let lane_speedup = lane1 / lane4;
    println!(
        "lane4 vs lane1 per-sample rollout throughput: {lane_speedup:.2}x \
         (required ≥ {min_lane_speedup:.2}x)"
    );
    if lane_speedup < min_lane_speedup {
        eprintln!(
            "scaling_check: FAILED — lane4 speedup {lane_speedup:.2}x < {min_lane_speedup:.2}x"
        );
        return ExitCode::FAILURE;
    }

    // Lane ΔFD speedup: the same 64 points at lane width 4 vs 1.
    let dfd1 = lane_dfd_median::<1>(&model, &points);
    let dfd4 = lane_dfd_median::<4>(&model, &points);
    println!(
        "atlas dFD batch64 @ lane1: median {}, @ lane4: median {}",
        fmt_ns(dfd1),
        fmt_ns(dfd4)
    );
    let dfd_speedup = dfd1 / dfd4;
    println!(
        "lane4 vs lane1 per-sample dFD throughput: {dfd_speedup:.2}x \
         (required ≥ {MIN_LANE_DFD_SPEEDUP:.2}x)"
    );
    if dfd_speedup < MIN_LANE_DFD_SPEEDUP {
        eprintln!(
            "scaling_check: FAILED — lane4 dFD speedup {dfd_speedup:.2}x < \
             {MIN_LANE_DFD_SPEEDUP:.2}x"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Every output entry of one ΔFD point, as bits.
fn fd_bits(d: &FdDerivatives) -> Vec<u64> {
    let mats = [&d.dqdd_dq, &d.dqdd_dqd, &d.dqdd_dtau];
    let entries = mats
        .into_iter()
        .flat_map(|m| (0..m.rows()).flat_map(|i| m.row(i)));
    entries.chain(&d.qdd).map(|x| x.to_bits()).collect()
}

/// A runner of the ΔFD points through `fd_derivatives_lanes_into` at
/// lane width `K` on one executor: each call writes every point's output.
fn lane_dfd<'a, const K: usize>(
    model: &'a RobotModel,
    points: &[SamplePoint],
) -> impl FnMut(&mut [FdDerivatives]) + 'a {
    let (nq, nv) = (model.nq(), model.nv());
    let packed: Vec<[Vec<f64>; 3]> = points
        .chunks(K)
        .map(|group| {
            let mut lanes = [vec![0.0; K * nq], vec![0.0; K * nv], vec![0.0; K * nv]];
            for (l, (q, qd, tau)) in group.iter().enumerate() {
                lanes[0][l * nq..(l + 1) * nq].copy_from_slice(q);
                lanes[1][l * nv..(l + 1) * nv].copy_from_slice(qd);
                lanes[2][l * nv..(l + 1) * nv].copy_from_slice(tau);
            }
            lanes
        })
        .collect();
    let ws = DynamicsWorkspace::new(model);
    let mut lws = LaneWorkspace::<K>::new(model);
    let mut scratch = LaneFdScratch::<K>::new(model);
    move |outs| {
        for ([q, qd, tau], group_outs) in packed.iter().zip(outs.chunks_mut(K)) {
            fd_derivatives_lanes_into(model, &ws, &mut lws, &mut scratch, q, qd, tau, group_outs)
                .unwrap();
        }
    }
}

/// Median latency in ns of the 64 ΔFD points at lane width `K` on one
/// executor.
fn lane_dfd_median<const K: usize>(model: &RobotModel, points: &[SamplePoint]) -> f64 {
    let mut run = lane_dfd::<K>(model, points);
    let mut outs = vec![FdDerivatives::zeros(model.nv()); points.len()];
    let mut group = Bench::new("lanes").quiet();
    group
        .bench(&format!("dFD_lane{K}"), || run(&mut outs))
        .median_ns
}

/// Lane-packed initial states of the 64-sample rollout gate.
fn lane_states<const K: usize>(model: &RobotModel) -> Vec<(Vec<f64>, Vec<f64>)> {
    let (nq, nv) = (model.nq(), model.nv());
    (0..LANE_SAMPLES / K)
        .map(|g| {
            let mut q0 = vec![0.0; K * nq];
            let mut qd0 = vec![0.0; K * nv];
            for l in 0..K {
                let s = random_state(model, (g * K + l) as u64);
                q0[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
                qd0[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
            }
            (q0, qd0)
        })
        .collect()
}

/// Control sequences of the rollout gate: identical per lane (the
/// per-lane index is reduced mod one sequence length), so the same
/// sample is driven by the same controls at every lane width — the
/// bit-identity comparison against the lane-1 reference depends on it.
fn lane_controls<const K: usize>(model: &RobotModel) -> Vec<f64> {
    let hn = LANE_HORIZON * model.nv();
    (0..K * hn).map(|i| 0.3 - 0.002 * (i % hn) as f64).collect()
}

/// Median latency of the full 64-sample rollout batch at lane width `K`
/// on a single executor.
fn lane_rollout_median<const K: usize>(model: &RobotModel) -> f64 {
    let (nq, nv) = (model.nq(), model.nv());
    let mut lws = LaneWorkspace::<K>::new(model);
    let mut rs = LaneRolloutScratch::for_model(model, K);
    let packed = lane_states::<K>(model);
    let us = lane_controls::<K>(model);
    let mut q_traj = vec![0.0; K * (LANE_HORIZON + 1) * nq];
    let mut qd_traj = vec![0.0; K * (LANE_HORIZON + 1) * nv];
    let mut group = Bench::new("lanes").quiet();
    let e = group.bench(&format!("rollout_lane{K}"), || {
        for (q0, qd0) in &packed {
            rk4_rollout_lanes_into(
                model,
                &mut lws,
                &mut rs,
                q0,
                qd0,
                &us,
                LANE_HORIZON,
                LANE_DT,
                &mut q_traj,
                &mut qd_traj,
            )
            .unwrap();
        }
        std::hint::black_box(&q_traj);
    });
    e.median_ns
}

/// Verifies the lane rollouts against lane width 1, bitwise: the direct
/// sweep at width 4, and the lane-group `BatchEval` dispatch at 1 and
/// `threads` workers with its short last group padded the way MPPI pads
/// it. (The lane kernels against the scalar ABA oracle are pinned by
/// the dynamics crate's `lane_equivalence` tests.)
fn lane_correctness(model: &RobotModel, threads: usize) -> Result<(), ExitCode> {
    let (nq, nv) = (model.nq(), model.nv());
    let horizon = LANE_HORIZON;
    let us1 = lane_controls::<1>(model);

    // Lane-1 reference trajectories per sample. Two extra samples
    // beyond the 64 of the timing rows: 66 is not a multiple of the
    // lane width, so the pool-dispatch check below also exercises the
    // padded last group (the 64 direct-sweep samples stay lane-aligned
    // for `check_lanes`).
    let mut lws = LaneWorkspace::<1>::new(model);
    let mut rs = LaneRolloutScratch::for_model(model, 1);
    let mut q_traj = vec![0.0; (horizon + 1) * nq];
    let mut qd_traj = vec![0.0; (horizon + 1) * nv];
    let n_dispatch = LANE_SAMPLES + 2;
    let mut reference: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(n_dispatch);
    for i in 0..n_dispatch {
        let s = random_state(model, i as u64);
        rk4_rollout_lanes_into(
            model,
            &mut lws,
            &mut rs,
            &s.q,
            &s.qd,
            &us1,
            horizon,
            LANE_DT,
            &mut q_traj,
            &mut qd_traj,
        )
        .unwrap();
        reference.push((q_traj.clone(), qd_traj.clone()));
    }

    // Direct lane sweep at width 4.
    if let Err(e) = check_lanes::<4>(model, &reference) {
        eprintln!("scaling_check: lane4 rollout differs from lane1: {e}");
        return Err(ExitCode::FAILURE);
    }

    // Lane-group dispatch through the pool at 1 and `threads` workers.
    for t in [1, threads] {
        let mut batch = BatchEval::with_threads(model, t)
            .with_point_flops(rbd_accel::ops::rk4_rollout_point_flops(model, horizon));
        struct Slot {
            lws: LaneWorkspace<4>,
            lane_rs: LaneRolloutScratch,
            q0: Vec<f64>,
            qd0: Vec<f64>,
            q_traj: Vec<f64>,
            qd_traj: Vec<f64>,
        }
        let mut slots: Vec<Slot> = (0..batch.threads())
            .map(|_| Slot {
                lws: LaneWorkspace::new(model),
                lane_rs: LaneRolloutScratch::for_model(model, 4),
                q0: vec![0.0; 4 * nq],
                qd0: vec![0.0; 4 * nv],
                q_traj: vec![0.0; 4 * (horizon + 1) * nq],
                qd_traj: vec![0.0; 4 * (horizon + 1) * nv],
            })
            .collect();
        let us4 = lane_controls::<4>(model);
        let ids: Vec<usize> = (0..n_dispatch).collect();
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); n_dispatch];
        let us4_ref = &us4;
        let r: Result<(), std::convert::Infallible> = batch.for_each_lane_groups(
            4,
            &ids,
            &mut outs,
            &mut slots,
            |model, _, sc, _start, group, group_outs| {
                // Spare lanes of a short group copy its first sample.
                for l in 0..4 {
                    let s = random_state(model, group.get(l).copied().unwrap_or(group[0]) as u64);
                    sc.q0[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
                    sc.qd0[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
                }
                rk4_rollout_lanes_into(
                    model,
                    &mut sc.lws,
                    &mut sc.lane_rs,
                    &sc.q0,
                    &sc.qd0,
                    us4_ref,
                    horizon,
                    LANE_DT,
                    &mut sc.q_traj,
                    &mut sc.qd_traj,
                )
                .unwrap();
                for (l, o) in group_outs.iter_mut().enumerate() {
                    *o = sc.q_traj[l * (horizon + 1) * nq + horizon * nq..][..nq].to_vec();
                }
                Ok(())
            },
        );
        r.expect("infallible");
        for (k, (got, (q_ref, _))) in outs.iter().zip(&reference).enumerate() {
            if got[..] != q_ref[horizon * nq..(horizon + 1) * nq] {
                eprintln!(
                    "scaling_check: lane-group dispatch at {t} worker(s) differs from the \
                     lane1 rollout at sample {k}"
                );
                return Err(ExitCode::FAILURE);
            }
        }
    }
    println!(
        "lane correctness: lane4 rollouts and the padded lane-group dispatch at 1 and \
         {threads} worker(s) bit-identical to lane1"
    );
    Ok(())
}

/// Compares the direct lane sweep at width `K` against the lane-1
/// reference trajectories.
fn check_lanes<const K: usize>(
    model: &RobotModel,
    reference: &[(Vec<f64>, Vec<f64>)],
) -> Result<(), String> {
    let (nq, nv) = (model.nq(), model.nv());
    let horizon = LANE_HORIZON;
    let mut lws = LaneWorkspace::<K>::new(model);
    let mut rs = LaneRolloutScratch::for_model(model, K);
    let packed = lane_states::<K>(model);
    let us = lane_controls::<K>(model);
    let mut q_traj = vec![0.0; K * (horizon + 1) * nq];
    let mut qd_traj = vec![0.0; K * (horizon + 1) * nv];
    for (g, (q0, qd0)) in packed.iter().enumerate() {
        rk4_rollout_lanes_into(
            model,
            &mut lws,
            &mut rs,
            q0,
            qd0,
            &us,
            horizon,
            LANE_DT,
            &mut q_traj,
            &mut qd_traj,
        )
        .unwrap();
        for l in 0..K {
            let k = g * K + l;
            let (q_ref, qd_ref) = &reference[k];
            if q_traj[l * (horizon + 1) * nq..(l + 1) * (horizon + 1) * nq] != q_ref[..]
                || qd_traj[l * (horizon + 1) * nv..(l + 1) * (horizon + 1) * nv] != qd_ref[..]
            {
                return Err(format!("sample {k} (lane {l} of group {g})"));
            }
        }
    }
    Ok(())
}
