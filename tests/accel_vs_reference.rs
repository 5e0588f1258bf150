//! Integration: the accelerator's functional dataflow must agree with
//! the reference dynamics library on every function of Table I, every
//! evaluation robot, external forces included.

use dadu_rbd::accel::{AccelConfig, DaduRbd};
use dadu_rbd::dynamics::{
    fd_derivatives, forward_dynamics, mminv_gen, rnea, rnea_derivatives, DynamicsWorkspace,
};
use dadu_rbd::model::{random_state, robots, RobotModel};
use dadu_rbd::spatial::{ForceVec, MatN};

fn all_models() -> Vec<RobotModel> {
    vec![
        robots::iiwa(),
        robots::hyq(),
        robots::atlas(),
        robots::tiago(),
        robots::spot_arm(),
        robots::quadruped_arm(),
    ]
}

fn fext_for(model: &RobotModel, seed: f64) -> Vec<ForceVec> {
    (0..model.num_bodies())
        .map(|i| {
            ForceVec::from_slice(&[
                seed * 0.1 * i as f64,
                -0.4,
                0.7,
                3.0 - seed,
                1.5,
                -2.0 + 0.2 * i as f64,
            ])
        })
        .collect()
}

#[test]
fn id_matches_reference_everywhere() {
    for model in all_models() {
        let accel = DaduRbd::configure(&model, AccelConfig::default());
        let mut ws = DynamicsWorkspace::new(&model);
        for seed in 0..3 {
            let s = random_state(&model, seed);
            let qdd: Vec<f64> = (0..model.nv()).map(|k| 0.2 * k as f64 - 0.5).collect();
            let fext = fext_for(&model, seed as f64);
            let out = accel.run_id(&s.q, &s.qd, &qdd, Some(&fext));
            let expect = rnea(&model, &mut ws, &s.q, &s.qd, &qdd, Some(&fext));
            for k in 0..model.nv() {
                assert!(
                    (out.tau[k] - expect[k]).abs() < 1e-9 * (1.0 + expect[k].abs()),
                    "{} seed {seed} dof {k}",
                    model.name()
                );
            }
        }
    }
}

#[test]
fn fd_matches_reference_everywhere() {
    for model in all_models() {
        let accel = DaduRbd::configure(&model, AccelConfig::default());
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 7);
        let tau: Vec<f64> = (0..model.nv()).map(|k| 1.0 - 0.1 * k as f64).collect();
        let fext = fext_for(&model, 1.0);
        let out = accel.run_fd(&s.q, &s.qd, &tau, Some(&fext));
        let expect = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, Some(&fext)).unwrap();
        for k in 0..model.nv() {
            assert!(
                (out.qdd[k] - expect[k]).abs() < 1e-7 * (1.0 + expect[k].abs()),
                "{} dof {k}: {} vs {}",
                model.name(),
                out.qdd[k],
                expect[k]
            );
        }
    }
}

/// Entries of `a` whose bits differ from `b`'s.
fn bit_mismatches(a: &MatN, b: &MatN) -> usize {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    (0..a.rows())
        .flat_map(|i| a.row(i).iter().zip(b.row(i)))
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

#[test]
fn mass_matrix_paths_agree_everywhere() {
    // The Backward-Forward module runs MMinvGen, so `M` and `M⁻¹` are the
    // reference's bits whether or not the Taylor trig unit is on.
    for model in all_models() {
        let mut ws = DynamicsWorkspace::new(&model);
        for taylor_trig in [false, true] {
            let cfg = AccelConfig {
                taylor_trig,
                ..AccelConfig::default()
            };
            let accel = DaduRbd::configure(&model, cfg);
            for seed in [11, 12, 13] {
                let s = random_state(&model, seed);
                let m = accel.run_mass_matrix(&s.q).m.unwrap();
                let minv = accel.run_minv(&s.q).minv.unwrap();
                let mut mminv = |out_m| mminv_gen(&model, &mut ws, &s.q, out_m, !out_m).unwrap();
                let m_ref = mminv(true).m.unwrap();
                let minv_ref = mminv(false).minv.unwrap();
                let at = format!("{} taylor {taylor_trig} seed {seed}", model.name());
                assert_eq!(bit_mismatches(&m, &m_ref), 0, "M entries off, {at}");
                assert_eq!(bit_mismatches(&minv, &minv_ref), 0, "M⁻¹ entries off, {at}");
                // M · Minv = 1.
                let prod = m.mul_mat(&minv);
                let nv = model.nv();
                for i in 0..nv {
                    for j in 0..nv {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        assert!(
                            (prod[(i, j)] - expect).abs() < 1e-6 * (1.0 + m.max_abs()),
                            "{} ({i},{j})",
                            model.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn derivative_functions_match_reference_everywhere() {
    for model in all_models() {
        let accel = DaduRbd::configure(&model, AccelConfig::default());
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 13);
        let nv = model.nv();
        let qdd: Vec<f64> = (0..nv).map(|k| 0.1 * (k % 4) as f64 - 0.2).collect();
        let tau: Vec<f64> = (0..nv).map(|k| 0.3 - 0.02 * k as f64).collect();
        let fext = fext_for(&model, 0.5);

        // ΔID
        let did = accel.run_did(&s.q, &s.qd, &qdd, Some(&fext));
        let did_ref = rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, Some(&fext));
        let (dq, dqd) = did.dtau.unwrap();
        let scale = 1.0 + did_ref.dtau_dq.max_abs();
        assert!(
            (&dq - &did_ref.dtau_dq).max_abs() / scale < 1e-9,
            "{}",
            model.name()
        );
        assert!((&dqd - &did_ref.dtau_dqd).max_abs() / scale < 1e-9);

        // ΔFD (3-stage feedback dataflow)
        let dfd = accel.run_dfd(&s.q, &s.qd, &tau, Some(&fext));
        let dfd_ref = fd_derivatives(&model, &mut ws, &s.q, &s.qd, &tau, Some(&fext)).unwrap();
        let (dq, dqd) = dfd.dqdd.unwrap();
        let scale = 1.0 + dfd_ref.dqdd_dq.max_abs();
        assert!(
            (&dq - &dfd_ref.dqdd_dq).max_abs() / scale < 1e-7,
            "{}",
            model.name()
        );
        assert!((&dqd - &dfd_ref.dqdd_dqd).max_abs() / scale < 1e-7);

        // ΔiFD with host-provided M⁻¹
        let difd = accel.run_difd(&s.q, &s.qd, &dfd_ref.qdd, &dfd_ref.dqdd_dtau, Some(&fext));
        let (dq, dqd) = difd.dqdd.unwrap();
        assert!((&dq - &dfd_ref.dqdd_dq).max_abs() / scale < 1e-7);
        assert!((&dqd - &dfd_ref.dqdd_dqd).max_abs() / scale < 1e-7);
    }
}

#[test]
fn functional_results_independent_of_hardware_options() {
    // Root mode / reroot / FIFO sizing change timing only — never values.
    let model = robots::hyq();
    let s = random_state(&model, 21);
    let qdd = vec![0.2; model.nv()];
    let configs = [
        AccelConfig::default(),
        AccelConfig {
            auto_reroot: false,
            ..AccelConfig::default()
        },
        AccelConfig {
            fifo_capacity: 2,
            base_ii: 12,
            col_ii: 8,
            ..AccelConfig::default()
        },
    ];
    let outs: Vec<Vec<f64>> = configs
        .iter()
        .map(|c| {
            DaduRbd::configure(&model, *c)
                .run_id(&s.q, &s.qd, &qdd, None)
                .tau
        })
        .collect();
    for other in &outs[1..] {
        for (a, b) in outs[0].iter().zip(other) {
            assert_eq!(a, b, "hardware options changed numerics");
        }
    }
}
