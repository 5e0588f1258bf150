//! Forward dynamics and its derivatives through the paper's key
//! relationships (Eqs. 2-3):
//!
//! * `FD = M⁻¹ · (τ - C)` — the accelerator computes FD without ever
//!   instantiating the ABA (§III-A);
//! * `ΔFD = -M⁻¹ · ΔID` evaluated at `q̈ = FD(q, q̇, τ)`, with `M⁻¹`
//!   from MMinvGen. The ΔiFD of Table I's last row (the same product
//!   with a caller-supplied `M⁻¹`, Robomorphic's signature) is modelled
//!   by the accelerator (`rbd_accel::DaduRbd::run_difd`) and checked
//!   against [`fd_derivatives`].
//!
//! All entry points have `*_into` variants that reuse caller-held
//! outputs and workspace scratch, performing zero heap allocation in
//! steady state.
//!
//! [`fd_derivatives_into`] is the per-point kernel and the one that
//! takes external forces. Batches of points without external forces
//! (`BatchEval::fd_derivatives_batch`) run the lane kernel
//! [`crate::fd_derivatives_lanes_into`] instead, which repeats this
//! pipeline's op sequence on four points at once and equals it bit for
//! bit.

use crate::derivatives::rnea_derivatives_into;
use crate::mminv::mminv_gen_into;
use crate::rnea::bias_force_in_ws;
use crate::workspace::DynamicsWorkspace;
use crate::DynamicsError;
use rbd_model::RobotModel;
use rbd_spatial::{ForceVec, MatN};

/// Forward dynamics via `q̈ = M⁻¹ (τ - C)` (Eq. 2), the accelerator's FD; rollouts use ABA.
///
/// # Errors
/// Returns an error when the mass matrix is singular.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn forward_dynamics(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
) -> Result<Vec<f64>, DynamicsError> {
    let mut qdd = vec![0.0; model.nv()];
    forward_dynamics_into(model, ws, q, qd, tau, fext, &mut qdd)?;
    Ok(qdd)
}

/// [`forward_dynamics`] into a caller-provided output slice: zero heap
/// allocation in steady state (`M⁻¹` and the bias force live in `ws`).
///
/// # Errors
/// Returns an error when the mass matrix is singular.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn forward_dynamics_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
    qdd_out: &mut [f64],
) -> Result<(), DynamicsError> {
    let nv = model.nv();
    assert_eq!(tau.len(), nv, "tau dimension");
    assert_eq!(qdd_out.len(), nv, "qdd output dimension");
    // M⁻¹ into the workspace scratch (temporarily moved out so `ws` can
    // be passed down; `mem::take`/restore moves the buffer, not the heap).
    let mut minv = std::mem::take(&mut ws.minv_scratch);
    let result = mminv_gen_into(model, ws, q, None, Some(&mut minv));
    if let Err(e) = result {
        ws.minv_scratch = minv;
        return Err(e);
    }
    // C into ws.tau, rhs = τ - C into ws.rhs_scratch.
    bias_force_in_ws(model, ws, q, qd, fext);
    for i in 0..nv {
        ws.rhs_scratch[i] = tau[i] - ws.tau[i];
    }
    minv.mul_slice_into(&ws.rhs_scratch, qdd_out);
    ws.minv_scratch = minv;
    Ok(())
}

/// Result of [`fd_derivatives`].
#[derive(Debug, Clone, Default)]
pub struct FdDerivatives {
    /// `∂q̈/∂q` (tangent space), `nv × nv`.
    pub dqdd_dq: MatN,
    /// `∂q̈/∂q̇`, `nv × nv`.
    pub dqdd_dqd: MatN,
    /// `∂q̈/∂τ = M⁻¹`, `nv × nv`.
    pub dqdd_dtau: MatN,
    /// The forward-dynamics solution at the evaluation point.
    pub qdd: Vec<f64>,
}

impl FdDerivatives {
    /// Zero-initialized output storage for an `nv`-DOF model, meant to be
    /// reused across [`fd_derivatives_into`] calls.
    pub fn zeros(nv: usize) -> Self {
        Self {
            dqdd_dq: MatN::zeros(nv, nv),
            dqdd_dqd: MatN::zeros(nv, nv),
            dqdd_dtau: MatN::zeros(nv, nv),
            qdd: vec![0.0; nv],
        }
    }

    /// Reshapes the buffers for an `nv`-DOF model; a no-op (and hence
    /// allocation-free) when the dimensions already match.
    pub fn ensure_dims(&mut self, nv: usize) {
        self.dqdd_dq.resize(nv, nv);
        self.dqdd_dqd.resize(nv, nv);
        self.dqdd_dtau.resize(nv, nv);
        self.qdd.resize(nv, 0.0);
    }
}

/// `ΔFD`: derivatives of forward dynamics,
/// `∂_u q̈ = -M⁻¹ ∂_u τ|_{q̈ = FD}` (Eq. 3; the paper's 6-step pipeline of
/// Fig 9a).
///
/// Allocates a fresh [`FdDerivatives`] per call; hot paths should hold
/// one and call [`fd_derivatives_into`] instead.
///
/// # Errors
/// Returns an error when the mass matrix is singular.
pub fn fd_derivatives(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
) -> Result<FdDerivatives, DynamicsError> {
    let mut out = FdDerivatives::zeros(model.nv());
    fd_derivatives_into(model, ws, q, qd, tau, fext, &mut out)?;
    Ok(out)
}

/// [`fd_derivatives`] into caller-reused output storage: zero heap
/// allocation in steady state.
///
/// # Errors
/// Returns an error when the mass matrix is singular.
///
/// # Panics
/// Panics on input dimension mismatches.
pub fn fd_derivatives_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
    out: &mut FdDerivatives,
) -> Result<(), DynamicsError> {
    let nv = model.nv();
    assert_eq!(tau.len(), nv, "tau dimension");
    out.ensure_dims(nv);
    // Steps ①-③: C, M⁻¹, q̈ (Fig 9a).
    mminv_gen_into(model, ws, q, None, Some(&mut out.dqdd_dtau))?;
    bias_force_in_ws(model, ws, q, qd, fext);
    for i in 0..nv {
        ws.rhs_scratch[i] = tau[i] - ws.tau[i];
    }
    out.dqdd_dtau.mul_slice_into(&ws.rhs_scratch, &mut out.qdd);
    // Steps ④-⑥: ΔID at q̈, then the M⁻¹ products.
    difd_core_into(model, ws, q, qd, fext, out);
    Ok(())
}

/// ΔFD tail: expects `out.dqdd_dtau = M⁻¹` and `out.qdd` set, fills
/// `out.dqdd_dq` / `out.dqdd_dqd` via `∂q̈/∂u = -M⁻¹ ∂τ/∂u`.
fn difd_core_into(
    model: &RobotModel,
    ws: &mut DynamicsWorkspace,
    q: &[f64],
    qd: &[f64],
    fext: Option<&[ForceVec]>,
    out: &mut FdDerivatives,
) {
    // ΔID scratch lives in the workspace; moved out so `ws` can be
    // passed down (the move swaps buffers, no heap traffic).
    let mut did = std::mem::take(&mut ws.did_scratch);
    // Borrow dance: `out.qdd` is read while `out` matrices are written
    // afterwards, so the ΔID call only borrows disjoint pieces.
    rnea_derivatives_into(model, ws, q, qd, &out.qdd, fext, &mut did);
    // ∂q̈/∂u = -M⁻¹ ∂τ/∂u, computed as (-∂τ/∂uᵀ · M⁻¹ᵀ)ᵀ: putting the
    // branch-sparse ∂τ matrix on the left lets the product skip its zero
    // blocks (Fig 5 sparsity) — same multiply pairs, same k-summation
    // order as the direct product; skipped terms are exact zeros. The
    // transposed-left product and the -1 scale are fused into
    // `neg_sparse_tr_product`, so only the two outputs are transposed.
    // MMinvGen's M⁻¹ is bitwise symmetric (`symmetrize_from_upper`;
    // pinned by `tests::tail_is_the_dense_product_and_minv_is_symmetric`),
    // so it serves as its own transpose.
    let nv = model.nv();
    let mut prod_t = std::mem::take(&mut ws.mat_scratch_b);
    prod_t.resize(nv, nv);
    let minv = &out.dqdd_dtau;
    neg_sparse_tr_product(&did.dtau_dq, minv, ws, &mut prod_t);
    prod_t.transpose_into(&mut out.dqdd_dq);
    neg_sparse_tr_product(&did.dtau_dqd, minv, ws, &mut prod_t);
    prod_t.transpose_into(&mut out.dqdd_dqd);
    ws.mat_scratch_b = prod_t;
    ws.did_scratch = did;
}

/// `out_t[j][:] = -Σ_k ∂τ[k][j] · b[k][:]`, i.e. `out_t = (-M⁻¹·∂τ)ᵀ`
/// with `b = M⁻¹ᵀ` — the ΔiFD product evaluated column-major over the
/// *structural* non-zeros of `∂τ`: column `j` only sums over the related
/// DOFs of joint `j`'s body (Fig 5 branch sparsity), walked from the
/// precomputed workspace index sets instead of value tests. The k-chunked
/// accumulation keeps one output row hot across four scaled-row
/// additions, quartering the store pressure of a per-nonzero AXPY.
fn neg_sparse_tr_product(dtau: &MatN, b: &MatN, ws: &DynamicsWorkspace, out_t: &mut MatN) {
    let nv = b.cols();
    for j in 0..nv {
        let bj = ws.dof_body[j];
        let ks = &ws.rel_dofs[ws.rel_offsets[bj]..ws.rel_offsets[bj + 1]];
        let row = &mut out_t.row_mut(j)[..nv];
        row.fill(0.0);
        let mut chunks = ks.chunks_exact(4);
        for ch in &mut chunks {
            let c = [
                -dtau[(ch[0], j)],
                -dtau[(ch[1], j)],
                -dtau[(ch[2], j)],
                -dtau[(ch[3], j)],
            ];
            let b0 = &b.row(ch[0])[..nv];
            let b1 = &b.row(ch[1])[..nv];
            let b2 = &b.row(ch[2])[..nv];
            let b3 = &b.row(ch[3])[..nv];
            for i in 0..nv {
                // Sequential adds in ascending-k order (no reassociation)
                // so the sum matches the one-AXPY-per-k evaluation.
                let mut o = row[i];
                o += c[0] * b0[i];
                o += c[1] * b1[i];
                o += c[2] * b2[i];
                o += c[3] * b3[i];
                row[i] = o;
            }
        }
        for &k in chunks.remainder() {
            let c = -dtau[(k, j)];
            let bk = &b.row(k)[..nv];
            for i in 0..nv {
                row[i] += c * bk[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aba::aba;
    use crate::finite_diff::fd_derivatives_numeric;
    use rbd_model::{random_state, robots, RobotModel, SplitMix64};

    fn check_fd_matches_aba(model: &RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let tau: Vec<f64> = (0..model.nv()).map(|k| 1.0 - 0.2 * k as f64).collect();
        let via_minv = forward_dynamics(model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        let via_aba = aba(model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        for k in 0..model.nv() {
            assert!(
                (via_minv[k] - via_aba[k]).abs() < tol * (1.0 + via_aba[k].abs()),
                "{} dof {k}: {} vs {}",
                model.name(),
                via_minv[k],
                via_aba[k]
            );
        }
    }

    #[test]
    fn fd_equals_aba_iiwa() {
        check_fd_matches_aba(&robots::iiwa(), 1, 1e-8);
    }

    #[test]
    fn fd_equals_aba_hyq() {
        check_fd_matches_aba(&robots::hyq(), 2, 1e-8);
    }

    #[test]
    fn fd_equals_aba_atlas() {
        check_fd_matches_aba(&robots::atlas(), 3, 1e-7);
    }

    fn check_dfd(model: &RobotModel, seed: u64, tol: f64) {
        let mut ws = DynamicsWorkspace::new(model);
        let s = random_state(model, seed);
        let tau: Vec<f64> = (0..model.nv()).map(|k| 0.8 - 0.1 * k as f64).collect();
        let d = fd_derivatives(model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        let (ndq, ndqd, ndtau) = fd_derivatives_numeric(model, &s.q, &s.qd, &tau, None, 1e-6);
        let scale = 1.0 + ndq.max_abs().max(ndqd.max_abs());
        assert!(
            (&d.dqdd_dq - &ndq).max_abs() / scale < tol,
            "{}: ∂q̈/∂q error {}",
            model.name(),
            (&d.dqdd_dq - &ndq).max_abs() / scale
        );
        assert!(
            (&d.dqdd_dqd - &ndqd).max_abs() / scale < tol,
            "{}: ∂q̈/∂q̇ error {}",
            model.name(),
            (&d.dqdd_dqd - &ndqd).max_abs() / scale
        );
        assert!(
            (&d.dqdd_dtau - &ndtau).max_abs() / (1.0 + ndtau.max_abs()) < tol,
            "{}: ∂q̈/∂τ error",
            model.name()
        );
    }

    #[test]
    fn dfd_matches_finite_diff_iiwa() {
        check_dfd(&robots::iiwa(), 4, 1e-4);
    }

    #[test]
    fn dfd_matches_finite_diff_hyq() {
        check_dfd(&robots::hyq(), 5, 1e-4);
    }

    #[test]
    fn dfd_matches_finite_diff_atlas() {
        check_dfd(&robots::atlas(), 6, 1e-4);
    }

    /// The sparse ΔFD tail is exactly the dense `-M⁻¹ · ∂τ` at the
    /// returned `q̈`, and MMinvGen's `M⁻¹` is bitwise symmetric — the
    /// property that lets the tail use `M⁻¹` as its own transpose.
    #[test]
    fn tail_is_the_dense_product_and_minv_is_symmetric() {
        let models = [
            robots::iiwa(),
            robots::hyq(),
            robots::atlas(),
            robots::quadruped_arm(),
            robots::serial_chain(5),
        ];
        for model in &models {
            let (nv, nb) = (model.nv(), model.num_bodies());
            let mut ws = DynamicsWorkspace::new(model);
            for seed in 0..8 {
                let s = random_state(model, 100 + seed);
                let mut rng = SplitMix64::new(200 + seed);
                let tau: Vec<f64> = (0..nv).map(|_| rng.next_symmetric()).collect();
                let fx: Vec<ForceVec> = (0..nb)
                    .map(|_| ForceVec::from_array(std::array::from_fn(|_| rng.next_symmetric())))
                    .collect();
                for fext in [None, Some(&fx[..])] {
                    let d = fd_derivatives(model, &mut ws, &s.q, &s.qd, &tau, fext).unwrap();
                    let did = crate::rnea_derivatives(model, &mut ws, &s.q, &s.qd, &d.qdd, fext);
                    let mut expect_dq = d.dqdd_dtau.mul_mat(&did.dtau_dq);
                    expect_dq.scale(-1.0);
                    let mut expect_dqd = d.dqdd_dtau.mul_mat(&did.dtau_dqd);
                    expect_dqd.scale(-1.0);
                    let what = format!("{} seed {seed} fext {}", model.name(), fext.is_some());
                    assert_eq!((&d.dqdd_dq - &expect_dq).max_abs(), 0.0, "{what}: ∂q̈/∂q");
                    assert_eq!((&d.dqdd_dqd - &expect_dqd).max_abs(), 0.0, "{what}: ∂q̈/∂q̇");
                    for i in 0..nv {
                        for j in 0..i {
                            assert_eq!(
                                d.dqdd_dtau[(i, j)].to_bits(),
                                d.dqdd_dtau[(j, i)].to_bits(),
                                "{what}: M⁻¹ ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn into_reuse_matches_fresh_run() {
        for model in [robots::hyq(), robots::atlas()] {
            let mut ws = DynamicsWorkspace::new(&model);
            let mut out = FdDerivatives::zeros(model.nv());
            let s1 = random_state(&model, 41);
            let s2 = random_state(&model, 42);
            let tau: Vec<f64> = (0..model.nv()).map(|k| 0.4 - 0.02 * k as f64).collect();
            fd_derivatives_into(&model, &mut ws, &s2.q, &s2.qd, &tau, None, &mut out).unwrap();
            fd_derivatives_into(&model, &mut ws, &s1.q, &s1.qd, &tau, None, &mut out).unwrap();

            let mut fresh_ws = DynamicsWorkspace::new(&model);
            let fresh = fd_derivatives(&model, &mut fresh_ws, &s1.q, &s1.qd, &tau, None).unwrap();
            assert_eq!(
                (&out.dqdd_dq - &fresh.dqdd_dq).max_abs(),
                0.0,
                "{}",
                model.name()
            );
            assert_eq!((&out.dqdd_dqd - &fresh.dqdd_dqd).max_abs(), 0.0);
            assert_eq!((&out.dqdd_dtau - &fresh.dqdd_dtau).max_abs(), 0.0);
            assert_eq!(out.qdd, fresh.qdd);
        }
    }

    #[test]
    fn fd_id_roundtrip_through_eq2() {
        // q̈ → ID → FD → q̈ closes the loop entirely via Eq. 2.
        let model = robots::quadruped_arm();
        let mut ws = DynamicsWorkspace::new(&model);
        let s = random_state(&model, 8);
        let qdd_in: Vec<f64> = (0..model.nv())
            .map(|k| 0.2 * (k % 5) as f64 - 0.4)
            .collect();
        let tau = crate::rnea::rnea(&model, &mut ws, &s.q, &s.qd, &qdd_in, None);
        let qdd = forward_dynamics(&model, &mut ws, &s.q, &s.qd, &tau, None).unwrap();
        for k in 0..model.nv() {
            assert!((qdd[k] - qdd_in[k]).abs() < 1e-7);
        }
    }
}
