//! Fault injection into the controllers: degenerate sizes (zero or
//! one sample, horizons of 0–2) and non-finite or huge initial states.
//! Every case must return without panicking and report a typed outcome
//! that tells the fault apart from a result: iLQR never claims
//! `converged` at a non-finite cost and never warm-starts from a solve
//! that ended at one, and MPPI gives diverged samples zero weight,
//! counts them, and leaves its nominal controls finite.
//!
//! The seeded property runs 24 cases on the shared harness in
//! `support/cases.rs`; its assertion messages name the case seed, and
//! calling `injected_fault_case` with it replays the failing case alone.

#[path = "support/cases.rs"]
mod cases;

use cases::{draw, for_each_case};
use dadu_rbd::model::{robots, RobotModel, SplitMix64};
use dadu_rbd::trajopt::{Ilqr, IlqrOptions, IlqrResult, Mppi, MppiOptions, MppiStep};

fn ilqr(model: &RobotModel, horizon: usize) -> Ilqr<'_> {
    let goal: Vec<f64> = model.neutral_config().iter().map(|x| x + 0.3).collect();
    let opts = IlqrOptions {
        horizon,
        max_iters: 8,
        ..Default::default()
    };
    Ilqr::new(model, goal, opts)
}

fn ilqr_solve(model: &RobotModel, horizon: usize, q0: &[f64], qd0: &[f64]) -> IlqrResult {
    ilqr(model, horizon).solve(q0, qd0)
}

fn mppi_iterate(
    model: &RobotModel,
    samples: usize,
    horizon: usize,
    q0: &[f64],
    qd0: &[f64],
) -> (MppiStep, Vec<f64>) {
    let opts = MppiOptions {
        samples,
        horizon,
        ..Default::default()
    };
    let mut mppi = Mppi::with_threads(model, opts, 1);
    let step = mppi.iterate(q0, qd0);
    assert_eq!(mppi.costs().len(), samples);
    (step, mppi.nominal().to_vec())
}

#[test]
fn ilqr_short_horizons_finish() {
    let model = robots::iiwa();
    let q0 = model.neutral_config();
    let qd0 = vec![0.0; model.nv()];
    for horizon in 0..3 {
        let r = ilqr_solve(&model, horizon, &q0, &qd0);
        let h = &r.cost_history;
        assert!(h.iter().all(|c| c.is_finite()), "horizon {horizon}: {h:?}");
        assert!(
            h.windows(2).all(|w| w[1] < w[0]),
            "horizon {horizon}: {h:?}"
        );
        // With no control to optimize only the initial rollout is costed.
        assert_eq!(h.len() == 1, horizon == 0, "horizon {horizon}: {h:?}");
        assert!(r.converged, "horizon {horizon}");
        assert_eq!(r.us.len(), horizon);
        assert_eq!(r.trajectory.len(), horizon + 1);
    }
}

#[test]
fn ilqr_non_finite_start_is_not_converged() {
    let model = robots::iiwa();
    let qd0 = vec![0.0; model.nv()];
    for (q, expect_nan) in [(f64::NAN, true), (1e200, false)] {
        let r = ilqr_solve(&model, 5, &vec![q; model.nq()], &qd0);
        assert_eq!(r.cost_history.len(), 1, "q0 = {q}");
        let cost = r.cost_history[0];
        if expect_nan {
            assert!(cost.is_nan(), "q0 = {q}: cost {cost}");
        } else {
            assert_eq!(cost, f64::INFINITY, "q0 = {q}");
        }
        assert!(!r.converged, "q0 = {q}: converged at cost {cost}");
    }
}

#[test]
fn ilqr_non_finite_solve_does_not_poison_the_next() {
    // After a solve that ends at a non-finite cost the next one starts
    // cold, bit for bit like a fresh controller; a third solve then runs
    // the warm shift, at horizons 0 and 1 too.
    let model = robots::iiwa();
    let q0: Vec<f64> = model.neutral_config().iter().map(|x| x + 0.1).collect();
    let qd0 = vec![0.0; model.nv()];
    let bits = |r: &IlqrResult| -> Vec<u64> {
        let states = r.trajectory.iter().flat_map(|(q, qd)| q.iter().chain(qd));
        let all = r
            .cost_history
            .iter()
            .chain(states)
            .chain(r.us.iter().flatten());
        all.map(|x| x.to_bits()).collect()
    };
    for horizon in [0, 1, 2, 5] {
        for q in [f64::NAN, 1e200] {
            let mut ilqr = ilqr(&model, horizon);
            let bad = ilqr.solve(&vec![q; model.nq()], &qd0);
            assert!(!bad.cost_history[0].is_finite(), "q0 = {q}");
            let r = ilqr.solve(&q0, &qd0);
            let cold = ilqr_solve(&model, horizon, &q0, &qd0);
            assert_eq!(bits(&r), bits(&cold), "horizon {horizon}, q0 = {q}");
            assert_eq!(r.converged, cold.converged, "horizon {horizon}, q0 = {q}");
            let warm = ilqr.solve(&q0, &qd0);
            assert!(
                warm.cost_history.iter().all(|c| c.is_finite()),
                "horizon {horizon}"
            );
        }
    }
}

#[test]
fn mppi_degenerate_sizes_finish() {
    let model = robots::iiwa();
    let q0 = model.neutral_config();
    let qd0 = vec![0.0; model.nv()];

    // No samples: nothing to weigh, the nominal stays put.
    let (step, nominal) = mppi_iterate(&model, 0, 3, &q0, &qd0);
    assert_eq!(step.best_cost, f64::INFINITY);
    assert_eq!(step.mean_cost, f64::INFINITY);
    assert_eq!(step.effective_samples, 0.0);
    assert_eq!(step.nonfinite_samples, 0);
    assert!(nominal.iter().all(|&u| u == 0.0));

    // Zero horizon: every trajectory is empty and costs 0.
    let (step, nominal) = mppi_iterate(&model, 8, 0, &q0, &qd0);
    assert_eq!(step.best_cost, 0.0);
    assert_eq!(step.mean_cost, 0.0);
    assert_eq!(step.effective_samples, 8.0);
    assert_eq!(step.nonfinite_samples, 0);
    assert!(nominal.is_empty());

    // One unperturbed sample over one step: it takes the whole weight.
    let (step, nominal) = mppi_iterate(&model, 1, 1, &q0, &qd0);
    assert!(step.best_cost.is_finite());
    assert_eq!(step.mean_cost, step.best_cost);
    assert_eq!(step.effective_samples, 1.0);
    assert_eq!(step.nonfinite_samples, 0);
    assert!(nominal.iter().all(|&u| u == 0.0));
}

#[test]
fn mppi_nan_start_on_floating_base_keeps_nominal() {
    let model = robots::hyq();
    let q0 = vec![f64::NAN; model.nq()];
    let qd0 = vec![0.0; model.nv()];
    let (step, nominal) = mppi_iterate(&model, 16, 3, &q0, &qd0);
    assert_eq!(step.best_cost, f64::INFINITY);
    assert_eq!(step.mean_cost, f64::INFINITY);
    assert_eq!(step.effective_samples, 0.0);
    assert_eq!(step.nonfinite_samples, 16);
    assert!(nominal.iter().all(|&u| u == 0.0));
}

/// One NaN, ±∞ or ±1e200 entry injected at a random coordinate of the
/// start state of iLQR on iiwa or MPPI on HyQ.
fn injected_fault_case(seed: u64) {
    const FAULTS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200, -1e200];
    let mut rng = SplitMix64::new(seed);
    let use_mppi = draw(&mut rng, 0, 2) == 1;
    let model = if use_mppi {
        robots::hyq()
    } else {
        robots::iiwa()
    };
    let mut q0 = model.neutral_config();
    let mut qd0 = vec![0.0; model.nv()];
    let fault = FAULTS[draw(&mut rng, 0, FAULTS.len() as u64) as usize];
    let k = draw(&mut rng, 0, (model.nq() + model.nv()) as u64) as usize;
    if k < model.nq() {
        q0[k] = fault;
    } else {
        qd0[k - model.nq()] = fault;
    }
    let what = format!("case seed {seed}: {fault} at state coordinate {k}");

    if use_mppi {
        let (step, nominal) = mppi_iterate(&model, 8, 2, &q0, &qd0);
        assert!(step.nonfinite_samples <= 8, "{what}");
        assert_eq!(
            step.effective_samples == 0.0,
            step.nonfinite_samples == 8,
            "{what}: {step:?}"
        );
        assert!(nominal.iter().all(|u| u.is_finite()), "{what}");
    } else {
        let r = ilqr_solve(&model, 3, &q0, &qd0);
        let last = *r.cost_history.last().unwrap();
        assert!(
            !r.converged || last.is_finite(),
            "{what}: {:?}",
            r.cost_history
        );
        assert!(r.cost_history.len() <= 9, "{what}");
    }
}

#[test]
fn injected_faults_never_panic_a_controller() {
    for_each_case(1_000, 24, injected_fault_case);
}
