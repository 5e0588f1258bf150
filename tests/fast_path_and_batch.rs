//! Integration tests of the PR's perf surface through the `dadu_rbd`
//! facade: the flat-workspace zero-allocation derivative kernels must
//! match finite differences, and `BatchEval` must reproduce the serial
//! loop exactly for the same inputs.

use dadu_rbd::dynamics::{
    fd_derivatives, fd_derivatives_into, fd_derivatives_numeric, rnea_derivatives_into,
    rnea_derivatives_numeric, BatchEval, DynamicsWorkspace, FdDerivatives, RneaDerivatives,
    SamplePoint,
};
use dadu_rbd::model::{random_state, robots};

#[test]
fn flat_workspace_rnea_derivatives_match_finite_differences() {
    for model in [robots::iiwa(), robots::hyq(), robots::atlas()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let nv = model.nv();
        let s = random_state(&model, 17);
        let qdd: Vec<f64> = (0..nv).map(|k| 0.4 - 0.06 * k as f64).collect();
        let mut out = RneaDerivatives::zeros(nv);
        // Two calls with different states: the second runs on a dirty
        // workspace, exactly the steady-state regime.
        let s0 = random_state(&model, 18);
        rnea_derivatives_into(&model, &mut ws, &s0.q, &s0.qd, &qdd, None, &mut out);
        rnea_derivatives_into(&model, &mut ws, &s.q, &s.qd, &qdd, None, &mut out);

        let (num_dq, num_dqd) = rnea_derivatives_numeric(&model, &s.q, &s.qd, &qdd, None, 1e-6);
        let scale = 1.0 + num_dq.max_abs().max(num_dqd.max_abs());
        assert!(
            (&out.dtau_dq - &num_dq).max_abs() / scale < 1e-5,
            "{}: ∂τ/∂q mismatch",
            model.name()
        );
        assert!(
            (&out.dtau_dqd - &num_dqd).max_abs() / scale < 1e-5,
            "{}: ∂τ/∂q̇ mismatch",
            model.name()
        );
    }
}

#[test]
fn flat_workspace_fd_derivatives_match_finite_differences() {
    for model in [robots::iiwa(), robots::hyq()] {
        let mut ws = DynamicsWorkspace::new(&model);
        let nv = model.nv();
        let s = random_state(&model, 23);
        let tau: Vec<f64> = (0..nv).map(|k| 0.7 - 0.09 * k as f64).collect();
        let mut out = FdDerivatives::zeros(nv);
        let s0 = random_state(&model, 24);
        fd_derivatives_into(&model, &mut ws, &s0.q, &s0.qd, &tau, None, &mut out).unwrap();
        fd_derivatives_into(&model, &mut ws, &s.q, &s.qd, &tau, None, &mut out).unwrap();

        let (ndq, ndqd, ndtau) = fd_derivatives_numeric(&model, &s.q, &s.qd, &tau, None, 1e-6);
        let scale = 1.0 + ndq.max_abs().max(ndqd.max_abs());
        assert!(
            (&out.dqdd_dq - &ndq).max_abs() / scale < 1e-4,
            "{}",
            model.name()
        );
        assert!((&out.dqdd_dqd - &ndqd).max_abs() / scale < 1e-4);
        assert!((&out.dqdd_dtau - &ndtau).max_abs() / (1.0 + ndtau.max_abs()) < 1e-4);
    }
}

#[test]
fn batch_eval_identical_to_serial_for_same_seeds() {
    let model = robots::atlas();
    let nv = model.nv();
    let points: Vec<SamplePoint> = (0..9)
        .map(|seed| {
            let s = random_state(&model, seed);
            let tau: Vec<f64> = (0..nv).map(|k| 0.2 - 0.03 * k as f64).collect();
            (s.q, s.qd, tau)
        })
        .collect();

    // Serial reference.
    let mut ws = DynamicsWorkspace::new(&model);
    let serial: Vec<FdDerivatives> = points
        .iter()
        .map(|(q, qd, tau)| fd_derivatives(&model, &mut ws, q, qd, tau, None).unwrap())
        .collect();

    // Batched at several worker counts: bit-identical output required.
    for threads in [1, 2, 5] {
        let mut batch = BatchEval::with_threads(&model, threads);
        let mut outs = vec![FdDerivatives::zeros(nv); points.len()];
        batch.fd_derivatives_batch(&points, &mut outs).unwrap();
        for (k, (b, s)) in outs.iter().zip(&serial).enumerate() {
            assert_eq!(
                (&b.dqdd_dq - &s.dqdd_dq).max_abs(),
                0.0,
                "point {k}, {threads} threads"
            );
            assert_eq!((&b.dqdd_dqd - &s.dqdd_dqd).max_abs(), 0.0);
            assert_eq!((&b.dqdd_dtau - &s.dqdd_dtau).max_abs(), 0.0);
            assert_eq!(b.qdd, s.qdd);
        }
    }
}

#[test]
fn ilqr_still_converges_with_batched_lq() {
    use dadu_rbd::trajopt::{Ilqr, IlqrOptions};
    let model = robots::serial_chain(2);
    let mut ilqr = Ilqr::new(
        &model,
        vec![0.5, -0.2],
        IlqrOptions {
            horizon: 20,
            max_iters: 10,
            ..IlqrOptions::default()
        },
    );
    let r = ilqr.solve(&[0.0, 0.0], &[0.0, 0.0]);
    assert!(r.cost_history.len() >= 2);
    for w in r.cost_history.windows(2) {
        assert!(w[1] <= w[0] + 1e-12, "cost increased: {:?}", r.cost_history);
    }
    assert!(*r.cost_history.last().unwrap() < 0.5 * r.cost_history[0]);
}
