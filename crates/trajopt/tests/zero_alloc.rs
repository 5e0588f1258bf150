//! Proves the RK4 sensitivity chain — the per-point unit of the LQ
//! approximation — performs zero steady-state heap allocation once its
//! [`Rk4SensScratch`] and outputs are warm: a counting global allocator
//! watches every alloc while the hot path runs against reused storage.
//!
//! The counter is process-global so that allocations on pool worker
//! threads count too. Every test therefore holds [`COUNTING`] from its
//! first allocation to its last check, so no concurrently running test
//! of this file can pollute another's count. libtest's own threads (the
//! harness and the other tests' threads) still allocate at test
//! boundaries while a count may be running, so only the measuring
//! thread and the pool workers are counted (see [`record_alloc`]).

use rbd_dynamics::{BatchEval, DynamicsWorkspace};
use rbd_model::{integrate_config_into, random_state, robots};
use rbd_spatial::MatN;
use rbd_trajopt::{
    lq_jacobians_batched, rk4_step, rk4_step_with_sensitivity_into, LqScratch, Rk4SensScratch,
    StepJacobians,
};
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
fn rk4_sensitivity_chain_does_not_allocate_in_steady_state() {
    let _serial = serialize();
    for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let mut scratch = Rk4SensScratch::for_model(&model);
        let nv = model.nv();
        let s = random_state(&model, 3);
        let tau: Vec<f64> = (0..nv).map(|k| 0.3 - 0.04 * k as f64).collect();
        let mut q_new = vec![0.0; model.nq()];
        let mut qd_new = vec![0.0; nv];
        let mut jac = StepJacobians {
            a: MatN::zeros(0, 0),
            b: MatN::zeros(0, 0),
        };

        // Warm-up: sizes the outputs and every scratch buffer.
        rk4_step_with_sensitivity_into(
            &model,
            &mut ws,
            &mut scratch,
            &s.q,
            &s.qd,
            &tau,
            0.01,
            &mut q_new,
            &mut qd_new,
            &mut jac,
        );

        // Steady state: the full four-stage ΔFD chain-rule evaluation —
        // the per-point unit of the LQ approximation — must be
        // allocation-free end to end.
        let count = alloc_count(|| {
            rk4_step_with_sensitivity_into(
                &model,
                &mut ws,
                &mut scratch,
                &s.q,
                &s.qd,
                &tau,
                0.01,
                &mut q_new,
                &mut qd_new,
                &mut jac,
            )
        });
        assert_eq!(
            count,
            0,
            "rk4_step_with_sensitivity_into allocated {count} time(s) on {}",
            model.name()
        );

        // The manifold integrator it is built on is allocation-free too.
        let count = alloc_count(|| {
            integrate_config_into(&model, &s.q, &s.qd, 0.01, &mut q_new);
        });
        assert_eq!(count, 0, "integrate_config_into allocated {count} time(s)");
    }
}

#[test]
fn mppi_iteration_does_not_allocate_in_steady_state() {
    let _serial = serialize();
    // The FULL sampling-MPC dispatch chain — Gaussian noise fill,
    // lane-group pool dispatch, lockstep lane rollouts, trajectory
    // scoring and the softmax control blend — must be allocation-free
    // once the controller is warm, with multiple workers engaged. 10
    // samples at lane width 4 exercise two full lane groups AND the
    // remainder of 2, padded to the lane width with copies of its
    // first sample, so the count covers the padding too.
    use rbd_trajopt::{Mppi, MppiOptions};
    let model = robots::iiwa();
    let opts = MppiOptions {
        samples: 10,
        horizon: 3,
        ..Default::default()
    };
    let mut mppi = Mppi::with_threads(&model, opts, 4);
    let q0 = model.neutral_config();
    let qd0 = vec![0.0; model.nv()];

    // Warm-up sizes every per-executor buffer.
    mppi.iterate(&q0, &qd0);

    let count = alloc_count(|| {
        mppi.iterate(&q0, &qd0);
    });
    assert_eq!(count, 0, "MPPI iteration allocated {count} time(s)");
}

#[test]
fn warm_ilqr_solve_allocates_only_its_result() {
    let _serial = serialize();
    // A warm solve — the shifted last plan and its rollout, LQ passes,
    // Riccati and every line-search candidate — allocates nothing but
    // the `IlqrResult` it returns: `cost_history` (1), `us` (1 + horizon)
    // and `trajectory` (1 + 2·(horizon + 1)), i.e. 3·horizon + 5. The
    // Fig 2c configuration (iiwa, horizon 20, `max_iters` 8).
    use rbd_trajopt::{Ilqr, IlqrOptions};
    let model = robots::iiwa();
    let q0 = model.neutral_config();
    let qd0 = vec![0.0; model.nv()];
    let goal = q0
        .iter()
        .enumerate()
        .map(|(i, q)| q + 0.5 - 0.15 * i as f64)
        .collect();
    let horizon = 20;
    let options = IlqrOptions {
        horizon,
        dt: 0.02,
        max_iters: 8,
        ..IlqrOptions::default()
    };
    let mut ilqr = Ilqr::new(&model, goal, options);
    // Warm-up spawns the pool and sizes every per-executor buffer.
    ilqr.solve(&q0, &qd0);

    let mut result = None;
    let count = alloc_count(|| result = Some(ilqr.solve(&q0, &qd0)));
    let result = result.expect("solved");
    assert!(result.cost_history.len() >= 2, "no accepted iteration");
    assert_eq!(
        count,
        3 * horizon as u64 + 5,
        "a warm iLQR solve allocated {count} time(s)"
    );
}

#[test]
fn batched_multi_worker_lq_phase_does_not_allocate_in_steady_state() {
    let _serial = serialize();
    // The *whole* batched LQ approximation — persistent-pool dispatch,
    // per-executor workspace + Rk4SensScratch slots, the four-stage ΔFD
    // chain at every sampling point, and the Jacobian writes — must be
    // allocation-free once warm, with multiple workers actually engaged.
    // The counting allocator is process-global, so worker-thread
    // allocations are counted too: this covers the
    // `for_each_with_scratch` dispatch path end to end.
    let model = robots::iiwa();
    let nv = model.nv();
    let horizon = 40;
    let dt = 0.01;
    let mut batch = BatchEval::with_threads(&model, 4)
        .with_point_flops(rbd_accel::ops::rk4_sens_point_flops(&model));

    // A short rollout provides the sampling points (allocates; outside
    // the counted window).
    let mut ws = DynamicsWorkspace::new(&model);
    let s = random_state(&model, 5);
    let us: Vec<Vec<f64>> = (0..horizon)
        .map(|k| (0..nv).map(|i| 0.2 - 0.01 * (k + i) as f64).collect())
        .collect();
    let mut traj = vec![(s.q.clone(), s.qd.clone())];
    for u in &us {
        let (q, qd) = traj.last().unwrap();
        traj.push(rk4_step(&model, &mut ws, q, qd, u, dt));
    }
    let mut jacs: Vec<StepJacobians> = (0..horizon).map(|_| StepJacobians::zeros(nv)).collect();
    let mut scratch: Vec<LqScratch> = (0..batch.threads())
        .map(|_| LqScratch::for_model(&model))
        .collect();

    // Warm-up: sizes every per-executor buffer.
    lq_jacobians_batched(&mut batch, dt, &traj, &us, &mut jacs, &mut scratch);
    assert_eq!(
        batch.last_workers(),
        4,
        "work gate must engage all four executors for this batch"
    );

    let count = alloc_count(|| {
        lq_jacobians_batched(&mut batch, dt, &traj, &us, &mut jacs, &mut scratch);
    });
    assert_eq!(
        count, 0,
        "multi-worker batched LQ phase allocated {count} time(s)"
    );
    assert_eq!(batch.last_workers(), 4);
}
