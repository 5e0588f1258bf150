//! Micro-benchmarks of the reference dynamics kernels on the three
//! evaluation robots — the live host-CPU counterpart of the paper's
//! Pinocchio baseline (Fig 15's CPU bars). Uses the in-tree harness.

use rbd_bench::harness::Bench;
use rbd_dynamics::{
    aba, fd_derivatives, forward_dynamics, mminv_gen, rnea, rnea_derivatives, DynamicsWorkspace,
    FdDerivatives, RneaDerivatives,
};
use rbd_model::{random_state, robots};

fn main() {
    let mut report = rbd_bench::harness::BenchReport::default();
    for model in robots::paper_robots() {
        let name = model.name().to_string();
        let mut group = Bench::new(format!("dynamics/{name}"));
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 1);
        let nv = model.nv();
        let qdd: Vec<f64> = (0..nv).map(|k| 0.1 * k as f64 - 0.2).collect();
        let tau: Vec<f64> = (0..nv).map(|k| 0.5 - 0.05 * k as f64).collect();

        group.bench("ID_rnea", || rnea(&model, &mut ws, &s.q, &s.qd, &qdd, None));
        group.bench("FD_minv_path", || {
            forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap()
        });
        group.bench("FD_aba", || {
            aba(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap()
        });
        group.bench("Minv_mminvgen", || {
            mminv_gen(&model, &mut ws, &s.q, false, true).unwrap()
        });
        group.bench("dID", || {
            rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, None)
        });
        group.bench("dFD", || {
            fd_derivatives(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap()
        });
        // Zero-allocation fast paths (outputs reused across calls).
        {
            let mut out = RneaDerivatives::zeros(nv);
            group.bench("dID_into", || {
                rbd_dynamics::rnea_derivatives_into(
                    &model, &mut ws, &s.q, &s.qd, &qdd, None, &mut out,
                );
            });
        }
        {
            let mut out = FdDerivatives::zeros(nv);
            group.bench("dFD_into", || {
                rbd_dynamics::fd_derivatives_into(
                    &model, &mut ws, &s.q, &s.qd, &tau, None, &mut out,
                )
                .unwrap();
            });
        }
        report.merge(group.finish());
    }
    report
        .write_json("BENCH_dynamics_kernels.json")
        .expect("write BENCH_dynamics_kernels.json");
}
