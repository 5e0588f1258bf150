//! Batched parallel evaluation of dynamics kernels across sampling
//! points — the paper's core observation (Fig 2c, Fig 13): the LQ
//! approximation of an MPC iteration evaluates dynamics + derivatives at
//! N independent sampling points, so it parallelizes embarrassingly
//! across OS threads, one [`DynamicsWorkspace`] per worker.
//!
//! [`BatchEval`] owns a **persistent worker pool** (`crate::pool`):
//! the workers are spawned once in the constructor and live behind a
//! futex-backed epoch protocol, so a dispatch costs a condvar wake + a
//! join rendezvous instead of per-call `std::thread::scope` spawn/join
//! (the ROADMAP item for short-horizon many-core MPC loops). The calling
//! thread participates as executor 0. Every dispatch is
//! allocation-free in steady state.
//!
//! All entry points share one dispatch body,
//! [`BatchEval::for_each_lane_groups`]: the per-item entry point
//! `for_each_with_scratch` runs lane groups of width 1, and
//! `fd_derivatives_batch` runs the lane ΔFD on groups of
//! [`LANE_WIDTH`]. Each executor owns a
//! [`DynamicsWorkspace`] **and a caller-provided generic scratch slot**
//! (any `S: Send`), which is what lets consumers like iLQR route
//! per-point work through fully preallocated state (e.g.
//! `rk4_step_with_sensitivity_into` with one `Rk4SensScratch` per
//! worker) and MPPI hold one lane workspace per executor.
//!
//! How many executors actually run is decided per call by **work-based
//! gating**: the estimated FLOP volume of the batch (per-point cost ×
//! point count, see [`BatchEval::set_point_flops`]) is divided into
//! chunks of at least [`FLOPS_PER_WORKER`] so that tiny batches run
//! inline on the caller and never pay a wake-up. Outputs are written to
//! per-point slots and every point depends only on its own inputs, so
//! the result is **bit-identical to the serial loop at any worker
//! count** — including 1 and the 0-worker serial fallback
//! (`with_threads(model, 0)`).
//!
//! # Example
//! ```
//! use rbd_dynamics::{BatchEval, FdDerivatives};
//! use rbd_model::{robots, random_state};
//! let model = robots::iiwa();
//! let mut batch = BatchEval::with_threads(&model, 2);
//! let pts: Vec<_> = (0..8).map(|i| {
//!     let s = random_state(&model, i);
//!     (s.q, s.qd, vec![0.1; model.nv()])
//! }).collect();
//! let mut outs = vec![FdDerivatives::zeros(model.nv()); pts.len()];
//! batch.fd_derivatives_batch(&pts, &mut outs).unwrap();
//! assert_eq!(outs[3].dqdd_dq.rows(), model.nv());
//! ```

use crate::fd::{fd_derivatives_into, FdDerivatives};
use crate::lanes::{fd_derivatives_lanes_into, LaneFdScratch, LaneWorkspace, LANE_WIDTH};
use crate::ops;
use crate::pool::WorkerPool;
use crate::workspace::DynamicsWorkspace;
use crate::DynamicsError;
use rbd_model::RobotModel;
use std::sync::Mutex;

/// A sampling point `(q, q̇, u)` where `u` is `τ` for forward-dynamics
/// kernels and `q̈` for inverse-dynamics kernels.
pub type SamplePoint = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Work-gating granule: an executor is only engaged for every
/// ~`FLOPS_PER_WORKER` of batch work as estimated by the [`ops`]
/// model. At the ~3 flops/ns the measured ΔFD kernels sustain this is
/// ≈50 µs of work per worker — an order of magnitude above the pool's
/// wake+join rendezvous cost — so the parallel path is only taken when
/// dispatch overhead is noise, replacing iLQR's old `nv >= 4`
/// model-size heuristic with an estimated-FLOP threshold.
pub const FLOPS_PER_WORKER: f64 = 1.5e5;

/// Raw-pointer cell that lets the dispatched closure hand each executor
/// `&mut` access to its own disjoint slot (workspace, scratch, output
/// chunk).
#[derive(Clone, Copy)]
struct SlotPtr<T>(*mut T);

// SAFETY: each executor dereferences only indices in its own disjoint
// range/slot (enforced by the chunking in `for_each_lane_groups`), and
// the caller blocks until all executors finish, so the pointee outlives
// every access. The `T: Send` bound keeps the compiler enforcing that
// everything shipped across pool threads is actually sendable.
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Parallel batched evaluator with a persistent worker pool and
/// per-executor workspace + user-scratch slots.
pub struct BatchEval<'m> {
    model: &'m RobotModel,
    /// One workspace per executor (caller = slot 0, workers = 1..).
    workspaces: Vec<DynamicsWorkspace>,
    /// Background threads; `None` for the 0/1-executor serial fallback.
    pool: Option<WorkerPool>,
    /// Estimated flops of one point, for work gating.
    point_flops: f64,
    /// Executors engaged by the most recent dispatch.
    last_workers: usize,
    /// One lane-ΔFD slot per executor; empty until the first
    /// [`BatchEval::fd_derivatives_batch`].
    lane_fd: Vec<LaneFdSlot>,
}

/// An executor's lane-ΔFD state: the lane workspaces and the lane-major
/// inputs of the group it is evaluating. The topology index sets come
/// from the executor's `DynamicsWorkspace`.
struct LaneFdSlot {
    lws: LaneWorkspace<LANE_WIDTH>,
    scratch: LaneFdScratch<LANE_WIDTH>,
    q: Vec<f64>,
    qd: Vec<f64>,
    tau: Vec<f64>,
}

impl LaneFdSlot {
    fn new(model: &RobotModel) -> Self {
        Self {
            lws: LaneWorkspace::new(model),
            scratch: LaneFdScratch::new(model),
            q: vec![0.0; LANE_WIDTH * model.nq()],
            qd: vec![0.0; LANE_WIDTH * model.nv()],
            tau: vec![0.0; LANE_WIDTH * model.nv()],
        }
    }

    /// ΔFD of one lane group (`group.len() <= LANE_WIDTH`, a short group
    /// padded with copies of its first point). A group with a singular
    /// lane is re-run point by point through the scalar kernel, so its
    /// outputs and error are those of the serial loop.
    fn eval(
        &mut self,
        model: &RobotModel,
        ws: &mut DynamicsWorkspace,
        group: &[SamplePoint],
        outs: &mut [FdDerivatives],
    ) -> Result<(), DynamicsError> {
        let (nq, nv) = (model.nq(), model.nv());
        for l in 0..LANE_WIDTH {
            let (q, qd, tau) = group.get(l).unwrap_or(&group[0]);
            self.q[l * nq..(l + 1) * nq].copy_from_slice(q);
            self.qd[l * nv..(l + 1) * nv].copy_from_slice(qd);
            self.tau[l * nv..(l + 1) * nv].copy_from_slice(tau);
        }
        let lanes = fd_derivatives_lanes_into(
            model,
            ws,
            &mut self.lws,
            &mut self.scratch,
            &self.q,
            &self.qd,
            &self.tau,
            outs,
        );
        if lanes.is_ok() {
            return lanes;
        }
        let mut first = Ok(());
        for ((q, qd, tau), out) in group.iter().zip(outs) {
            let r = fd_derivatives_into(model, ws, q, qd, tau, None, out);
            if first.is_ok() {
                first = r;
            }
        }
        first
    }
}

impl std::fmt::Debug for BatchEval<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEval")
            .field("model", &self.model.name())
            .field("threads", &self.threads())
            .field("point_flops", &self.point_flops)
            .field("last_workers", &self.last_workers)
            .finish()
    }
}

impl<'m> BatchEval<'m> {
    /// Evaluator using all available parallelism.
    pub fn new(model: &'m RobotModel) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(model, threads)
    }

    /// Evaluator with an explicit executor count. `0` (and `1`) select
    /// the serial fallback: no background threads are spawned and every
    /// call runs inline on the caller. For `n >= 2`, `n - 1` persistent
    /// background workers are spawned (the caller is executor 0).
    pub fn with_threads(model: &'m RobotModel, threads: usize) -> Self {
        let executors = threads.max(1);
        Self {
            model,
            workspaces: (0..executors)
                .map(|_| DynamicsWorkspace::new(model))
                .collect(),
            pool: (executors > 1).then(|| WorkerPool::spawn(executors - 1)),
            point_flops: ops::delta_fd_flops(model),
            last_workers: 0,
            lane_fd: Vec::new(),
        }
    }

    /// Maximum number of executors (caller + persistent workers).
    pub fn threads(&self) -> usize {
        self.workspaces.len()
    }

    /// The model this evaluator is bound to.
    pub fn model(&self) -> &'m RobotModel {
        self.model
    }

    /// Installs the estimated per-point cost (total flops) used by the
    /// work gate. Defaults to one ΔFD evaluation
    /// ([`ops::delta_fd_flops`]); consumers evaluating heavier per-point
    /// closures (e.g. a full RK4 sensitivity chain) should install their
    /// own from [`ops`] (e.g. [`ops::rk4_sens_point_flops`]).
    pub fn set_point_flops(&mut self, flops: f64) {
        self.point_flops = flops.max(1.0);
    }

    /// Builder-style [`BatchEval::set_point_flops`].
    #[must_use]
    pub fn with_point_flops(mut self, flops: f64) -> Self {
        self.set_point_flops(flops);
        self
    }

    /// Executors engaged by the most recent dispatch
    /// (1 = ran inline on the caller). 0 before the first dispatch.
    pub fn last_workers(&self) -> usize {
        self.last_workers
    }

    /// Work gate: how many executors to engage for `n_items` points of
    /// the configured per-point cost.
    fn effective_workers(&self, n_items: usize) -> usize {
        let total = self.point_flops * n_items as f64;
        let by_work = (total / FLOPS_PER_WORKER) as usize;
        by_work.clamp(1, self.threads().min(n_items.max(1)))
    }

    /// Applies `f` to every `(item, out)` pair with a per-executor
    /// workspace **and user scratch slot**, writing results into the
    /// caller's slots: it runs [`BatchEval::for_each_lane_groups`] with
    /// one item per group. `scratch` must hold at least
    /// [`BatchEval::threads`] slots (slot `w` is private to executor `w`;
    /// slot 0 serves the serial path). All items are evaluated even when
    /// some fail.
    ///
    /// `f(model, ws, scratch, index, item, out)` must depend only on its
    /// arguments for the output to be executor-count independent (true
    /// of all kernels in this crate), which makes the results
    /// bit-identical to the serial loop at any worker count.
    ///
    /// # Errors
    /// Propagates the `Err` with the smallest item index.
    ///
    /// # Panics
    /// Panics if `items`/`outs` lengths differ or `scratch` is shorter
    /// than [`BatchEval::threads`]; re-raises worker panics after the
    /// pool has quiesced (the pool survives for subsequent calls).
    pub fn for_each_with_scratch<I, T, S, E, F>(
        &mut self,
        items: &[I],
        outs: &mut [T],
        scratch: &mut [S],
        f: F,
    ) -> Result<(), E>
    where
        I: Sync,
        T: Send,
        S: Send,
        E: Send,
        F: Fn(&RobotModel, &mut DynamicsWorkspace, &mut S, usize, &I, &mut T) -> Result<(), E>
            + Sync,
    {
        self.for_each_lane_groups(1, items, outs, scratch, |model, ws, sc, k, it, out| {
            f(model, ws, sc, k, &it[0], &mut out[0])
        })
    }

    /// The dispatch core every entry point runs through: the batch is
    /// cut into **lane groups** of `lane_width` consecutive items, pool
    /// chunks are aligned to group boundaries (a group is never split
    /// across executors), and `f` is invoked once per group with the
    /// group's item/output slices. Only the final group can be shorter
    /// (`items.len() % lane_width` items); lane consumers pad it to the
    /// full width themselves. Zero steady-state heap allocation, and
    /// each group's outputs depend only on that group's inputs, so the
    /// result is bit-identical to the serial loop at any worker count.
    ///
    /// `f(model, ws, scratch, group_start, group_items, group_outs)`
    /// where `group_start` is the item index of the group's first
    /// element and the two slices have equal length `<= lane_width`.
    ///
    /// # Errors
    /// Propagates the `Err` with the smallest group start index (all
    /// groups are still evaluated).
    ///
    /// # Panics
    /// Panics if `items`/`outs` lengths differ, `lane_width == 0` or
    /// `scratch` is shorter than [`BatchEval::threads`]; re-raises
    /// worker panics after the pool has quiesced.
    pub fn for_each_lane_groups<I, T, S, E, F>(
        &mut self,
        lane_width: usize,
        items: &[I],
        outs: &mut [T],
        scratch: &mut [S],
        f: F,
    ) -> Result<(), E>
    where
        I: Sync,
        T: Send,
        S: Send,
        E: Send,
        F: Fn(&RobotModel, &mut DynamicsWorkspace, &mut S, usize, &[I], &mut [T]) -> Result<(), E>
            + Sync,
    {
        assert_eq!(items.len(), outs.len(), "items/outs length mismatch");
        assert!(lane_width > 0, "lane width must be positive");
        assert!(
            scratch.len() >= self.threads(),
            "need one scratch slot per executor ({} < {})",
            scratch.len(),
            self.threads()
        );
        let n = items.len();
        let n_groups = n.div_ceil(lane_width);
        let par = self.effective_workers(n).min(n_groups.max(1));
        self.last_workers = par;
        let model = self.model;
        if par <= 1 || self.pool.is_none() {
            let ws = &mut self.workspaces[0];
            let sc = &mut scratch[0];
            let mut first_err = None;
            for g in 0..n_groups {
                let start = g * lane_width;
                let end = (start + lane_width).min(n);
                if let Err(e) = f(
                    model,
                    ws,
                    sc,
                    start,
                    &items[start..end],
                    &mut outs[start..end],
                ) {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
            return match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }

        let chunk_groups = n_groups.div_ceil(par);
        // First error by group start, shared across executors. Lives on
        // the caller's stack: no steady-state heap allocation.
        let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let ws_ptr = SlotPtr(self.workspaces.as_mut_ptr());
        let sc_ptr = SlotPtr(scratch.as_mut_ptr());
        let out_ptr = SlotPtr(outs.as_mut_ptr());
        let task = |w: usize| {
            let g0 = w * chunk_groups;
            if g0 >= n_groups {
                return;
            }
            let g1 = (g0 + chunk_groups).min(n_groups);
            // SAFETY: executor `w` exclusively owns workspace/scratch
            // slot `w` and the item range `g0*lane_width .. g1*lane_width`
            // (group-aligned chunks of distinct executors are disjoint);
            // the caller blocks in `WorkerPool::run` until all executors
            // finish.
            let ws = unsafe { &mut *ws_ptr.get().add(w) };
            let sc = unsafe { &mut *sc_ptr.get().add(w) };
            for g in g0..g1 {
                let start = g * lane_width;
                let end = (start + lane_width).min(n);
                let group_outs = unsafe {
                    std::slice::from_raw_parts_mut(out_ptr.get().add(start), end - start)
                };
                if let Err(e) = f(model, ws, sc, start, &items[start..end], group_outs) {
                    let mut g_lock = first_err
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if g_lock.as_ref().is_none_or(|(j, _)| start < *j) {
                        *g_lock = Some((start, e));
                    }
                }
            }
        };
        self.pool
            .as_mut()
            .expect("pool present when par > 1")
            .run(par, &task);
        match first_err
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Batched `ΔFD` over sampling points `(q, q̇, τ)`: fills `outs[k]`
    /// with the derivatives at point `k`, bit-identical to
    /// [`fd_derivatives_into`] point by point. The points run through the
    /// lane kernel ([`fd_derivatives_lanes_into`]) in groups of
    /// [`LANE_WIDTH`], the last group padded. The first call allocates one
    /// lane workspace per executor; after that, zero allocation in steady
    /// state (reuse `outs` across calls).
    ///
    /// # Errors
    /// Returns the first singular-mass-matrix error in point order; every
    /// other point's output is still written.
    ///
    /// # Panics
    /// Panics if `points` and `outs` lengths differ.
    pub fn fd_derivatives_batch(
        &mut self,
        points: &[SamplePoint],
        outs: &mut [FdDerivatives],
    ) -> Result<(), DynamicsError> {
        // The slots move out for the dispatch (a pointer move, no heap
        // traffic) so `self` can be borrowed alongside them.
        let mut slots = std::mem::take(&mut self.lane_fd);
        if slots.is_empty() {
            slots = (0..self.threads())
                .map(|_| LaneFdSlot::new(self.model))
                .collect();
        }
        let r = self.for_each_lane_groups(
            LANE_WIDTH,
            points,
            outs,
            &mut slots,
            |model, ws, slot, _, group, group_outs| slot.eval(model, ws, group, group_outs),
        );
        self.lane_fd = slots;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivatives::{rnea_derivatives_into, RneaDerivatives};
    use crate::fd::fd_derivatives;
    use crate::rnea_derivatives;
    use rbd_model::{random_state, robots};
    use std::convert::Infallible;

    /// Per-item dispatch of `f(index, item)` through
    /// `for_each_with_scratch` (unit scratch slots), results in item
    /// order.
    fn indexed<T: Clone + Default + Send>(
        batch: &mut BatchEval,
        items: &[usize],
        f: impl Fn(usize, usize) -> T + Sync,
    ) -> Vec<T> {
        let mut outs = vec![T::default(); items.len()];
        let mut unit = vec![(); batch.threads()];
        let r: Result<(), Infallible> =
            batch.for_each_with_scratch(items, &mut outs, &mut unit, |_, _, (), k, &it, out| {
                *out = f(k, it);
                Ok(())
            });
        r.unwrap();
        outs
    }

    fn points(model: &rbd_model::RobotModel, n: usize) -> Vec<SamplePoint> {
        (0..n)
            .map(|i| {
                let s = random_state(model, i as u64);
                let u: Vec<f64> = (0..model.nv())
                    .map(|k| 0.3 - 0.04 * k as f64 + 0.01 * i as f64)
                    .collect();
                (s.q, s.qd, u)
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_fd_derivatives() {
        for threads in [0, 1, 2, 4] {
            let model = robots::hyq();
            let pts = points(&model, 11);
            let mut batch = BatchEval::with_threads(&model, threads);
            let mut outs = vec![FdDerivatives::zeros(model.nv()); pts.len()];
            batch.fd_derivatives_batch(&pts, &mut outs).unwrap();

            let mut ws = DynamicsWorkspace::new(&model);
            for (k, (q, qd, tau)) in pts.iter().enumerate() {
                let serial = fd_derivatives(&model, &mut ws, q, qd, tau, None).unwrap();
                assert_eq!(
                    (&outs[k].dqdd_dq - &serial.dqdd_dq).max_abs(),
                    0.0,
                    "point {k} with {threads} threads"
                );
                assert_eq!((&outs[k].dqdd_dqd - &serial.dqdd_dqd).max_abs(), 0.0);
                assert_eq!((&outs[k].dqdd_dtau - &serial.dqdd_dtau).max_abs(), 0.0);
                assert_eq!(outs[k].qdd, serial.qdd);
            }
        }
    }

    #[test]
    fn batch_matches_serial_rnea_derivatives() {
        let model = robots::atlas();
        let pts = points(&model, 7);
        let mut batch = BatchEval::with_threads(&model, 3);
        let mut outs = vec![RneaDerivatives::zeros(model.nv()); pts.len()];
        let mut unit = vec![(); batch.threads()];
        let r: Result<(), Infallible> = batch.for_each_with_scratch(
            &pts,
            &mut outs,
            &mut unit,
            |model, ws, (), _, (q, qd, qdd), out| {
                rnea_derivatives_into(model, ws, q, qd, qdd, None, out);
                Ok(())
            },
        );
        r.unwrap();

        let mut ws = DynamicsWorkspace::new(&model);
        for (k, (q, qd, qdd)) in pts.iter().enumerate() {
            let serial = rnea_derivatives(&model, &mut ws, q, qd, qdd, None);
            assert_eq!(
                (&outs[k].dtau_dq - &serial.dtau_dq).max_abs(),
                0.0,
                "point {k}"
            );
            assert_eq!((&outs[k].dtau_dqd - &serial.dtau_dqd).max_abs(), 0.0);
            assert_eq!(outs[k].tau, serial.tau);
        }
    }

    #[test]
    fn dispatch_preserves_item_order() {
        let model = robots::iiwa();
        let mut batch = BatchEval::with_threads(&model, 3);
        let items: Vec<usize> = (0..17).collect();
        let out = indexed(&mut batch, &items, |idx, item| (idx, item * 2));
        for (k, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, k);
            assert_eq!(*doubled, 2 * k);
        }
    }

    #[test]
    fn uneven_chunking_with_trailing_empty_worker() {
        // 5 items over 4 executors ceil-chunk as 2,2,1,0 when the work
        // gate engages all of them — the empty trailing chunk must be a
        // no-op without losing order. Force full engagement with a huge
        // per-point cost.
        let model = robots::iiwa();
        let mut batch = BatchEval::with_threads(&model, 4).with_point_flops(1e9);
        let items: Vec<usize> = (0..5).collect();
        let out = indexed(&mut batch, &items, |idx, item| (idx, item));
        assert_eq!(out, (0..5).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(batch.last_workers(), 4);

        let pts = points(&model, 5);
        let mut outs = vec![FdDerivatives::zeros(model.nv()); pts.len()];
        batch.fd_derivatives_batch(&pts, &mut outs).unwrap();
        let mut ws = DynamicsWorkspace::new(&model);
        for (k, (q, qd, tau)) in pts.iter().enumerate() {
            let serial = fd_derivatives(&model, &mut ws, q, qd, tau, None).unwrap();
            assert_eq!(
                (&outs[k].dqdd_dq - &serial.dqdd_dq).max_abs(),
                0.0,
                "point {k}"
            );
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let model = robots::iiwa();
        let pts = points(&model, 2);
        let mut batch = BatchEval::with_threads(&model, 8);
        let mut outs = vec![FdDerivatives::zeros(model.nv()); pts.len()];
        batch.fd_derivatives_batch(&pts, &mut outs).unwrap();
        assert_eq!(batch.threads(), 8);
        assert!(batch.last_workers() <= 2, "gate must clamp to item count");
        let mut ws = DynamicsWorkspace::new(&model);
        let serial =
            fd_derivatives(&model, &mut ws, &pts[1].0, &pts[1].1, &pts[1].2, None).unwrap();
        assert_eq!((&outs[1].dqdd_dq - &serial.dqdd_dq).max_abs(), 0.0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let model = robots::iiwa();
        let mut batch = BatchEval::with_threads(&model, 4);
        let mut outs: Vec<FdDerivatives> = Vec::new();
        batch.fd_derivatives_batch(&[], &mut outs).unwrap();
        let out: Vec<u32> = indexed(&mut batch, &[], |_, _| 1);
        assert!(out.is_empty());
        let mut unit: Vec<()> = vec![(); batch.threads()];
        let r: Result<(), Infallible> = batch.for_each_lane_groups(
            4,
            &[] as &[usize],
            &mut [] as &mut [usize],
            &mut unit,
            |_, _, (), _, _, _| panic!("no group to visit"),
        );
        r.unwrap();
    }

    #[test]
    fn work_gate_serializes_tiny_batches() {
        // A couple of cheap points is far below FLOPS_PER_WORKER, so the
        // dispatch must stay inline even with a big pool.
        let model = robots::serial_chain(2);
        let mut batch = BatchEval::with_threads(&model, 4);
        let pts = points(&model, 9);
        let mut outs = vec![FdDerivatives::zeros(model.nv()); pts.len()];
        batch.fd_derivatives_batch(&pts, &mut outs).unwrap();
        assert_eq!(batch.last_workers(), 1);

        // Scaling the per-point estimate up forces the parallel path.
        batch.set_point_flops(1e9);
        batch.fd_derivatives_batch(&pts, &mut outs).unwrap();
        assert_eq!(batch.last_workers(), 3, "clamped by lane-group count");
    }

    #[test]
    fn scratch_dispatch_gives_each_executor_its_slot() {
        let model = robots::iiwa();
        let mut batch = BatchEval::with_threads(&model, 3).with_point_flops(1e9);
        let items: Vec<usize> = (0..12).collect();
        // Each executor counts its items in its own scratch slot.
        let mut tallies = vec![0usize; batch.threads()];
        let mut out = vec![0usize; items.len()];
        let r: Result<(), Infallible> = batch.for_each_with_scratch(
            &items,
            &mut out,
            &mut tallies,
            |_, _, tally, idx, &item, o| {
                *tally += 1;
                *o = idx + item;
                Ok(())
            },
        );
        r.unwrap();
        assert_eq!(out, (0..12).map(|k| 2 * k).collect::<Vec<_>>());
        assert_eq!(tallies.iter().sum::<usize>(), items.len());
        assert!(
            tallies.iter().filter(|&&t| t > 0).count() >= 2,
            "expected multiple executors to participate: {tallies:?}"
        );
    }

    #[test]
    fn error_with_smallest_index_wins() {
        let model = robots::iiwa();
        for threads in [1, 4] {
            let mut batch = BatchEval::with_threads(&model, threads).with_point_flops(1e9);
            let items: Vec<usize> = (0..16).collect();
            let mut outs = vec![0usize; 16];
            let mut unit = vec![(); batch.threads()];
            let r = batch.for_each_with_scratch(
                &items,
                &mut outs,
                &mut unit,
                |_, _, (), _, &it, out| {
                    *out = it;
                    if it >= 5 {
                        Err(it)
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(r, Err(5), "{threads} threads");
            // All items were still evaluated.
            assert_eq!(outs, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lane_groups_cover_every_item_with_remainder() {
        // 13 items at lane width 4 → groups of 4, 4, 4, 1; every group
        // must arrive intact (never split across executors), the short
        // remainder group last.
        let model = robots::iiwa();
        for threads in [0, 1, 2, 4] {
            let mut batch = BatchEval::with_threads(&model, threads).with_point_flops(1e9);
            let items: Vec<usize> = (0..13).collect();
            let mut outs = vec![(0usize, 0usize); 13];
            let mut unit: Vec<()> = vec![(); batch.threads()];
            let r: Result<(), Infallible> = batch.for_each_lane_groups(
                4,
                &items,
                &mut outs,
                &mut unit,
                |_, _, (), start, group, group_outs| {
                    assert_eq!(group.len(), group_outs.len());
                    assert!(group.len() <= 4);
                    assert_eq!(start % 4, 0, "groups start on lane boundaries");
                    for (off, (it, out)) in group.iter().zip(group_outs.iter_mut()).enumerate() {
                        *out = (start + off, *it * 10);
                    }
                    Ok(())
                },
            );
            r.unwrap();
            for (k, (idx, val)) in outs.iter().enumerate() {
                assert_eq!(*idx, k, "{threads} threads");
                assert_eq!(*val, k * 10);
            }
        }
    }

    #[test]
    fn lane_groups_match_per_item_dispatch() {
        let model = robots::hyq();
        let mut batch = BatchEval::with_threads(&model, 3).with_point_flops(1e9);
        let items: Vec<usize> = (0..10).collect();
        let mut unit: Vec<()> = vec![(); batch.threads()];
        let mut out = vec![0usize; items.len()];
        let r: Result<(), Infallible> = batch.for_each_lane_groups(
            4,
            &items,
            &mut out,
            &mut unit,
            |_, _, (), start, group, outs| {
                for (off, (it, o)) in group.iter().zip(outs.iter_mut()).enumerate() {
                    *o = *it + start + off;
                }
                Ok(())
            },
        );
        r.unwrap();
        assert_eq!(out, indexed(&mut batch, &items, |idx, item| idx + item));
        assert_eq!(out, (0..10).map(|k| 2 * k).collect::<Vec<_>>());
    }

    #[test]
    fn lane_group_error_with_smallest_start_wins() {
        let model = robots::iiwa();
        for threads in [1, 4] {
            let mut batch = BatchEval::with_threads(&model, threads).with_point_flops(1e9);
            let items: Vec<usize> = (0..16).collect();
            let mut outs = vec![0usize; 16];
            let mut unit: Vec<()> = vec![(); batch.threads()];
            let r = batch.for_each_lane_groups(
                4,
                &items,
                &mut outs,
                &mut unit,
                |_, _, (), start, group, group_outs| {
                    for (it, o) in group.iter().zip(group_outs.iter_mut()) {
                        *o = *it;
                    }
                    if start >= 8 {
                        Err(start)
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(r, Err(8), "{threads} threads");
            assert_eq!(outs, (0..16).collect::<Vec<_>>(), "all groups evaluated");
        }
    }

    #[test]
    fn lane_group_panic_propagates_and_pool_survives() {
        // A panic inside a lane-group closure (e.g. a poisoned sample
        // blowing an assert in the lane kernels) must surface on the
        // caller with its payload, after the pool has quiesced — and the
        // pool must stay usable.
        let model = robots::iiwa();
        let mut batch = BatchEval::with_threads(&model, 4).with_point_flops(1e9);
        let items: Vec<usize> = (0..16).collect();
        let mut unit: Vec<()> = vec![(); batch.threads()];

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut outs = vec![0usize; 16];
            let r: Result<(), Infallible> = batch.for_each_lane_groups(
                4,
                &items,
                &mut outs,
                &mut unit,
                |_, _, (), start, group, group_outs| {
                    if start == 12 {
                        panic!("lane group failed at {start}");
                    }
                    for (it, o) in group.iter().zip(group_outs.iter_mut()) {
                        *o = *it;
                    }
                    Ok(())
                },
            );
            r.unwrap();
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("lane group failed at 12"),
            "payload preserved, got: {msg:?}"
        );

        // The pool is not poisoned: the same evaluator keeps working.
        let out = indexed(&mut batch, &items, |idx, it| idx + it);
        assert_eq!(out, (0..16).map(|k| 2 * k).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let model = robots::iiwa();
        let mut batch = BatchEval::with_threads(&model, 4).with_point_flops(1e9);
        let items: Vec<usize> = (0..8).collect();

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            indexed(&mut batch, &items, |_, it| {
                if it == 6 {
                    panic!("batch closure failed at {it}");
                }
                it
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("batch closure failed at 6"),
            "payload preserved, got: {msg:?}"
        );

        // The pool is not poisoned: the same evaluator keeps working.
        let out = indexed(&mut batch, &items, |idx, it| idx + it);
        assert_eq!(out, (0..8).map(|k| 2 * k).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_workers() {
        // Dropping an active pool must join every worker (a hang here
        // fails the test harness); repeat a few times to cover spawn +
        // immediate teardown and teardown right after a dispatch.
        let model = robots::iiwa();
        for _ in 0..3 {
            let mut batch = BatchEval::with_threads(&model, 3).with_point_flops(1e9);
            let items: Vec<usize> = (0..6).collect();
            let out = indexed(&mut batch, &items, |_, it| it);
            assert_eq!(out, items);
            drop(batch);
        }
        // Spawn-and-drop without ever dispatching.
        drop(BatchEval::with_threads(&model, 5));
    }

    /// A singular point inside a lane group: the batch returns the
    /// serial loop's error and still writes every other point, bitwise.
    #[test]
    fn singular_point_in_a_lane_group_matches_serial_loop() {
        use rbd_model::{JointType, ModelBuilder};
        use rbd_spatial::{Mat3, SpatialInertia, Vec3, Xform};
        // Yaw joint with a massless link, then a pitch joint whose tip
        // mass sits on the yaw axis at zero pitch: M is singular there.
        let mut b = ModelBuilder::new("pointing_arm");
        let yaw = b.add_body(
            "yaw",
            None,
            JointType::revolute_z(),
            Xform::identity(),
            SpatialInertia::zero(),
        );
        b.add_body(
            "tip",
            Some(yaw),
            JointType::revolute_x(),
            Xform::identity(),
            SpatialInertia::from_mass_com_inertia(1.0, Vec3::new(0.0, 0.0, 0.5), Mat3::zero()),
        );
        let model = b.build();
        let pts: Vec<SamplePoint> = (0..6)
            .map(|i| {
                let pitch = if i == 2 || i == 5 {
                    0.0
                } else {
                    0.2 + 0.1 * i as f64
                };
                (vec![0.1, pitch], vec![0.3, -0.2], vec![0.5, 0.1])
            })
            .collect();
        let mut ws = DynamicsWorkspace::new(&model);
        let mut serial = vec![FdDerivatives::zeros(2); pts.len()];
        let mut serial_err = None;
        for (p, out) in pts.iter().zip(serial.iter_mut()) {
            if let Err(e) = fd_derivatives_into(&model, &mut ws, &p.0, &p.1, &p.2, None, out) {
                serial_err.get_or_insert(e);
            }
        }
        let mut batch = BatchEval::with_threads(&model, 1);
        let mut outs = vec![FdDerivatives::zeros(2); pts.len()];
        let err = batch.fd_derivatives_batch(&pts, &mut outs).unwrap_err();
        assert_eq!(Some(err), serial_err);
        for k in [0, 1, 3, 4] {
            assert_eq!(outs[k].dqdd_dq, serial[k].dqdd_dq, "point {k}");
            assert_eq!(outs[k].dqdd_dqd, serial[k].dqdd_dqd, "point {k}");
            assert_eq!(outs[k].qdd, serial[k].qdd, "point {k}");
        }
    }

    #[test]
    fn zero_worker_serial_fallback() {
        let model = robots::hyq();
        let mut batch = BatchEval::with_threads(&model, 0);
        assert_eq!(batch.threads(), 1);
        let pts = points(&model, 4);
        let mut outs = vec![FdDerivatives::zeros(model.nv()); pts.len()];
        batch.fd_derivatives_batch(&pts, &mut outs).unwrap();
        assert_eq!(batch.last_workers(), 1);
        let mut ws = DynamicsWorkspace::new(&model);
        for (k, (q, qd, tau)) in pts.iter().enumerate() {
            let serial = fd_derivatives(&model, &mut ws, q, qd, tau, None).unwrap();
            assert_eq!((&outs[k].dqdd_dq - &serial.dqdd_dq).max_abs(), 0.0, "{k}");
        }
    }
}
