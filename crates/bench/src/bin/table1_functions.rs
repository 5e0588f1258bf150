//! Table I — the rigid-body dynamics functions, exercised end-to-end on
//! the accelerator's functional model and verified against the
//! `rbd-dynamics` reference: ID, FD, M, M⁻¹, ΔID and ΔFD bit for bit
//! (the simulator runs those kernels; FD's `M⁻¹(τ − C)` takes the same
//! products as `forward_dynamics`), and ΔiFD's `−M⁻¹·∂τ` equal in value
//! to ΔFD's.

use rbd_accel::{AccelConfig, DaduRbd};
use rbd_bench::print_table;
use rbd_dynamics::{mminv_gen, rnea, DynamicsWorkspace};
use rbd_model::{random_state, robots};
use rbd_spatial::MatN;

/// `true` when both slices hold the same `f64` bit patterns.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// [`same_bits`] row by row.
fn same_mat_bits(a: &MatN, b: &MatN) -> bool {
    a.rows() == b.rows() && (0..a.rows()).all(|i| same_bits(a.row(i), b.row(i)))
}

fn main() {
    let model = robots::iiwa();
    let accel = DaduRbd::configure(&model, AccelConfig::default());
    let s = random_state(&model, 0);
    let nv = model.nv();
    let qdd: Vec<f64> = (0..nv).map(|k| 0.1 * k as f64 - 0.2).collect();
    let tau_in: Vec<f64> = (0..nv).map(|k| 0.5 - 0.1 * k as f64).collect();
    let mut ws = DynamicsWorkspace::new(&model);

    let mut rows = Vec::new();
    let mut ok = |name: &str, def: &str, passed: bool, out: String| {
        rows.push(vec![
            name.to_string(),
            def.to_string(),
            out,
            if passed { "verified" } else { "MISMATCH" }.to_string(),
        ]);
        assert!(passed, "{name} mismatch");
    };

    // ID
    let id = accel.run_id(&s.q, &s.qd, &qdd, None);
    let id_ref = rnea(&model, &mut ws, &s.q, &s.qd, &qdd, None);
    ok(
        "Inverse Dynamics",
        "tau = ID(q, qd, qdd, fext)",
        same_bits(&id.tau, &id_ref),
        format!("tau[{nv}]"),
    );

    // FD
    let fd = accel.run_fd(&s.q, &s.qd, &tau_in, None);
    let fd_ref =
        rbd_dynamics::forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau_in, None).unwrap();
    ok(
        "Forward Dynamics",
        "qdd = FD(q, qd, tau, fext)",
        same_bits(&fd.qdd, &fd_ref),
        format!("qdd[{nv}]"),
    );

    // M
    let m = accel.run_mass_matrix(&s.q);
    let m_ref = mminv_gen(&model, &mut ws, &s.q, true, false)
        .unwrap()
        .m
        .unwrap();
    ok(
        "Mass Matrix",
        "M = M(q)",
        same_mat_bits(m.m.as_ref().unwrap(), &m_ref),
        format!("M[{nv}x{nv}]"),
    );

    // Minv
    let mi = accel.run_minv(&s.q);
    let mi_ref = mminv_gen(&model, &mut ws, &s.q, false, true)
        .unwrap()
        .minv
        .unwrap();
    ok(
        "Inverse of Mass Matrix",
        "Minv = Minv(q)",
        same_mat_bits(mi.minv.as_ref().unwrap(), &mi_ref),
        format!("Minv[{nv}x{nv}]"),
    );

    // dID
    let did = accel.run_did(&s.q, &s.qd, &qdd, None);
    let did_ref = rbd_dynamics::rnea_derivatives(&model, &mut ws, &s.q, &s.qd, &qdd, None);
    let (dq, dqd) = did.dtau.unwrap();
    ok(
        "Derivatives of ID",
        "du_tau = dID(q, qd, qdd, fext)",
        same_mat_bits(&dq, &did_ref.dtau_dq) && same_mat_bits(&dqd, &did_ref.dtau_dqd),
        format!("2x[{nv}x{nv}]"),
    );

    // dFD
    let dfd = accel.run_dfd(&s.q, &s.qd, &tau_in, None);
    let dfd_ref =
        rbd_dynamics::fd_derivatives(&model, &mut ws, &s.q, &s.qd, &tau_in, None).unwrap();
    let (dq, dqd) = dfd.dqdd.unwrap();
    ok(
        "Derivatives of FD",
        "du_qdd = dFD(q, qd, tau, fext)",
        same_mat_bits(&dq, &dfd_ref.dqdd_dq) && same_mat_bits(&dqd, &dfd_ref.dqdd_dqd),
        format!("2x[{nv}x{nv}]"),
    );

    // diFD
    let difd = accel.run_difd(&s.q, &s.qd, &dfd_ref.qdd, &dfd_ref.dqdd_dtau, None);
    let (dq, dqd) = difd.dqdd.unwrap();
    ok(
        "Derivatives of Dynamics",
        "du_qdd = diFD(q, qd, qdd, Minv, fext)",
        (&dq - &dfd_ref.dqdd_dq).max_abs() == 0.0 && (&dqd - &dfd_ref.dqdd_dqd).max_abs() == 0.0,
        format!("2x[{nv}x{nv}]"),
    );

    print_table(
        "Table I — rigid body dynamics functions (functional model vs reference, iiwa)",
        &["Function Name", "Definition", "Output", "Check"],
        &rows,
    );
    println!("\nAll seven Table I functions verified against rbd-dynamics.");
}
