//! Proves the `*_into` kernels perform zero steady-state heap
//! allocation: a counting global allocator watches every alloc while the
//! hot paths run against reused workspaces/outputs.
//!
//! The counter is process-global so that allocations on pool worker
//! threads count too. Every test therefore holds [`COUNTING`] from its
//! first allocation to its last check, so no concurrently running test
//! of this file can pollute another's count. libtest's own threads (the
//! harness and the other tests' threads) still allocate at test
//! boundaries while a count may be running, so only the measuring
//! thread and the pool workers are counted (see [`record_alloc`]).

use rbd_dynamics::{
    bias_force_in_ws, fd_derivatives_into, forward_dynamics_into, mminv_gen_into,
    rnea_derivatives_idsva_into, rnea_derivatives_into, rnea_in_ws, BatchEval, DynamicsWorkspace,
    FdDerivatives, RneaDerivatives, SamplePoint,
};
use rbd_model::{random_state, robots};
use rbd_spatial::{ForceVec, MatN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Set while [`alloc_count`] runs its closure.
static MEASURING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread running [`alloc_count`]'s closure.
    static MEASURER: Cell<bool> = const { Cell::new(false) };
}

/// Counts an allocation made during [`alloc_count`] by the measuring
/// thread or by a `BatchEval` pool worker (threads named `rbd-batch-*`).
fn record_alloc() {
    if MEASURER.get()
        || (MEASURING.load(Ordering::Relaxed)
            && std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("rbd-batch-")))
    {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests of this file (see the module docs).
static COUNTING: Mutex<()> = Mutex::new(());

/// Takes [`COUNTING`]; a test that failed while holding it must not
/// fail the others, so poisoning is ignored.
fn serialize() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns how many allocator calls it and the pool
/// workers made meanwhile.
fn alloc_count(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    MEASURER.set(true);
    MEASURING.store(true, Ordering::SeqCst);
    f();
    MEASURING.store(false, Ordering::SeqCst);
    MEASURER.set(false);
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_kernels_do_not_allocate() {
    let _serial = serialize();
    for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let nv = model.nv();
        let s = random_state(&model, 7);
        let qdd: Vec<f64> = (0..nv).map(|k| 0.3 - 0.05 * k as f64).collect();
        let tau: Vec<f64> = (0..nv).map(|k| 0.2 * k as f64 - 0.6).collect();
        let mut qdd_out = vec![0.0; nv];
        let mut m = MatN::zeros(nv, nv);
        let mut minv = MatN::zeros(nv, nv);
        let mut did = RneaDerivatives::zeros(nv);
        let mut dfd = FdDerivatives::zeros(nv);

        // Warm-up: first calls may size output buffers.
        rnea_in_ws(&model, &mut ws, &s.q, &s.qd, &qdd, None);
        bias_force_in_ws(&model, &mut ws, &s.q, &s.qd, None);
        mminv_gen_into(&model, &mut ws, &s.q, Some(&mut m), Some(&mut minv)).unwrap();
        forward_dynamics_into(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut qdd_out).unwrap();
        rnea_derivatives_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut did);
        fd_derivatives_into(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut dfd).unwrap();

        // Steady state: every hot-path kernel must be allocation-free.
        let checks: [(&str, u64); 7] = [
            (
                "rnea_derivatives_idsva_into",
                alloc_count(|| {
                    rnea_derivatives_idsva_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut did)
                }),
            ),
            (
                "rnea_in_ws",
                alloc_count(|| rnea_in_ws(&model, &mut ws, &s.q, &s.qd, &qdd, None)),
            ),
            (
                "bias_force_in_ws",
                alloc_count(|| bias_force_in_ws(&model, &mut ws, &s.q, &s.qd, None)),
            ),
            (
                "mminv_gen_into",
                alloc_count(|| {
                    mminv_gen_into(&model, &mut ws, &s.q, Some(&mut m), Some(&mut minv)).unwrap()
                }),
            ),
            (
                "forward_dynamics_into",
                alloc_count(|| {
                    forward_dynamics_into(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut qdd_out)
                        .unwrap()
                }),
            ),
            (
                "rnea_derivatives_into",
                alloc_count(|| {
                    rnea_derivatives_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut did)
                }),
            ),
            (
                "fd_derivatives_into",
                alloc_count(|| {
                    fd_derivatives_into(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut dfd).unwrap()
                }),
            ),
        ];
        for (name, count) in checks {
            assert_eq!(
                count,
                0,
                "{name} allocated {count} time(s) in steady state on {}",
                model.name()
            );
        }
    }
}

#[test]
fn lane_kernels_do_not_allocate_in_steady_state() {
    let _serial = serialize();
    use rbd_dynamics::{
        aba_in_ws, fd_derivatives_lanes_into, forward_dynamics_aba_lanes_in_ws,
        lanes::LaneWorkspace, rk4_rollout_lanes_into, LaneFdScratch, LaneRolloutScratch,
    };
    const K: usize = 4;
    for model in [robots::iiwa(), robots::atlas()] {
        let (nq, nv) = (model.nq(), model.nv());
        let mut ws = DynamicsWorkspace::new(&model);
        let mut lws = LaneWorkspace::<K>::new(&model);
        let mut lane_rs = LaneRolloutScratch::for_model(&model, K);
        let horizon = 2;
        let mut q = vec![0.0; K * nq];
        let mut qd = vec![0.0; K * nv];
        for l in 0..K {
            let s = random_state(&model, l as u64);
            q[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
            qd[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
        }
        let tau: Vec<f64> = (0..K * nv).map(|i| 0.3 - 0.004 * i as f64).collect();
        let us: Vec<f64> = (0..K * horizon * nv)
            .map(|i| 0.2 - 0.001 * i as f64)
            .collect();
        let mut q_traj = vec![0.0; K * (horizon + 1) * nq];
        let mut qd_traj = vec![0.0; K * (horizon + 1) * nv];
        let mut qdd_out = vec![0.0; nv];
        let mut fd_scratch = LaneFdScratch::<K>::new(&model);
        let mut fd_outs = vec![FdDerivatives::zeros(nv); K];
        let fext: Vec<ForceVec> = (0..model.num_bodies())
            .map(|i| ForceVec::from_slice(&[0.1 * i as f64, -0.2, 0.3, 5.0, -2.0, 1.0 + i as f64]))
            .collect();

        // Warm-up: sizes the rollout scratch and the kinematics memo.
        forward_dynamics_aba_lanes_in_ws(&model, &mut lws, &q, &qd, &tau).unwrap();
        fd_derivatives_lanes_into(
            &model,
            &ws,
            &mut lws,
            &mut fd_scratch,
            &q,
            &qd,
            &tau,
            &mut fd_outs,
        )
        .unwrap();
        rk4_rollout_lanes_into(
            &model,
            &mut lws,
            &mut lane_rs,
            &q,
            &qd,
            &us,
            horizon,
            0.01,
            &mut q_traj,
            &mut qd_traj,
        )
        .unwrap();
        let s0 = random_state(&model, 0);
        aba_in_ws(
            &model,
            &mut ws,
            &s0.q,
            &s0.qd,
            &tau[..nv],
            None,
            &mut qdd_out,
        )
        .unwrap();

        // Steady state: the whole lane sweep family plus `aba_in_ws`, its
        // width-1 call, with and without external forces must be
        // allocation-free.
        let checks: [(&str, u64); 5] = [
            (
                "fd_derivatives_lanes_into",
                alloc_count(|| {
                    fd_derivatives_lanes_into(
                        &model,
                        &ws,
                        &mut lws,
                        &mut fd_scratch,
                        &q,
                        &qd,
                        &tau,
                        &mut fd_outs,
                    )
                    .unwrap()
                }),
            ),
            (
                "forward_dynamics_aba_lanes_in_ws",
                alloc_count(|| {
                    forward_dynamics_aba_lanes_in_ws(&model, &mut lws, &q, &qd, &tau).unwrap()
                }),
            ),
            (
                "rk4_rollout_lanes_into",
                alloc_count(|| {
                    rk4_rollout_lanes_into(
                        &model,
                        &mut lws,
                        &mut lane_rs,
                        &q,
                        &qd,
                        &us,
                        horizon,
                        0.01,
                        &mut q_traj,
                        &mut qd_traj,
                    )
                    .unwrap()
                }),
            ),
            (
                "aba_in_ws",
                alloc_count(|| {
                    aba_in_ws(
                        &model,
                        &mut ws,
                        &s0.q,
                        &s0.qd,
                        &tau[..nv],
                        None,
                        &mut qdd_out,
                    )
                    .unwrap()
                }),
            ),
            (
                "aba_in_ws with fext",
                alloc_count(|| {
                    aba_in_ws(
                        &model,
                        &mut ws,
                        &s0.q,
                        &s0.qd,
                        &tau[..nv],
                        Some(&fext),
                        &mut qdd_out,
                    )
                    .unwrap()
                }),
            ),
        ];
        for (name, count) in checks {
            assert_eq!(
                count,
                0,
                "{name} allocated {count} time(s) in steady state on {}",
                model.name()
            );
        }
    }
}

#[test]
fn single_worker_batch_does_not_allocate_in_steady_state() {
    let _serial = serialize();
    let model = robots::hyq();
    let nv = model.nv();
    let tau: Vec<f64> = (0..nv).map(|k| 0.1 * k as f64).collect();
    let points: Vec<SamplePoint> = (0..6)
        .map(|i| {
            let s = random_state(&model, i);
            (s.q, s.qd, tau.clone())
        })
        .collect();
    let mut outs = vec![FdDerivatives::zeros(nv); points.len()];
    let mut batch = BatchEval::with_threads(&model, 1);

    // Warm-up sizes everything (the lane workspaces included). Six
    // points are a full lane group and a padded one.
    batch.fd_derivatives_batch(&points, &mut outs).unwrap();

    let count = alloc_count(|| batch.fd_derivatives_batch(&points, &mut outs).unwrap());
    assert_eq!(count, 0, "single-worker batch allocated {count} time(s)");
}

#[test]
fn batch_in_place_ldlt_does_not_allocate() {
    let _serial = serialize();
    // The MatN in-place factorization/product kit used by the Riccati
    // backward pass.
    let n = 12;
    let a = MatN::from_fn(n, n, |i, j| {
        if i == j {
            20.0
        } else {
            1.0 / (1.0 + (i + j) as f64)
        }
    });
    let mut l = MatN::zeros(n, n);
    let mut d = rbd_spatial::VecN::zeros(n);
    let mut inv = MatN::zeros(n, n);
    let mut out = MatN::zeros(n, n);
    let b = MatN::from_fn(n, n, |i, j| (i * 3 + j) as f64 * 0.1 - 1.0);
    let v = rbd_spatial::VecN::from_vec((0..n).map(|i| i as f64 * 0.5 - 2.0).collect());
    let mut x = rbd_spatial::VecN::zeros(n);

    let count = alloc_count(|| {
        a.ldlt_into(&mut l, &mut d).unwrap();
        a.inverse_spd_into(&mut inv, &mut l, &mut d).unwrap();
        // A solve into caller storage: the factors, then the in-place
        // substitution.
        a.ldlt_into(&mut l, &mut d).unwrap();
        x.copy_from(&v);
        rbd_spatial::matn::ldlt_solve_in_place(&l, &d, x.as_mut_slice());
        a.mul_mat_into(&b, &mut out);
        a.mul_vec_into(&v, &mut x);
        a.transpose_into(&mut out);
    });
    assert_eq!(count, 0, "in-place MatN kit allocated {count} time(s)");
}
