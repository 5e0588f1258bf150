//! K-lane lockstep dynamics sweeps over structure-of-arrays state
//! batches — the throughput path that turns the idle f64 SIMD lanes of
//! the scalar kernels into per-sample parallelism.
//!
//! A [`LaneWorkspace`] holds lane-major (`[coord][lane]`) buffers for
//! `K` robot states evaluated **in lockstep through one tree
//! traversal**: the per-body bookkeeping (topology walks, motion
//! subspace columns, branch decisions) is amortized across all `K`
//! samples while the spatial arithmetic runs on `rbd_spatial::lane`
//! SoA kernels.
//!
//! # Bit-identity contract
//!
//! Every lane kernel performs the identical op sequence as its scalar
//! reference, lane by lane:
//!
//! * the lane ABA ([`forward_dynamics_aba_lanes_in_ws`]) is the one ABA
//!   body: [`crate::aba_in_ws`] is its width-1 call, external forces
//!   included. Its scalar reference is Featherstone's three-pass sweep,
//!   kept as a test oracle (`tests/support/aba.rs`);
//! * [`rk4_rollout_lanes_into`] mirrors a scalar RK4 step over that
//!   oracle, run per sample — both are [`Rk4Stages`] steps, whose
//!   arithmetic is element by element and so the same at any lane count;
//! * [`fd_derivatives_lanes_into`] mirrors [`crate::fd_derivatives_into`]
//!   (without external forces): MMinvGen, the bias force, IDSVA and the
//!   `−M⁻¹·∂τ` gather, each sweep lane by lane.
//!
//! Lane `l` of any output is therefore **bit-identical** to running
//! the scalar reference on lane `l`'s inputs, and no lane reads another
//! lane's inputs. `tests/lane_equivalence.rs` pins this per model
//! (floating base included) against the ABA oracle, a test-local
//! scalar RK4 over it and [`crate::fd_derivatives_into`], and
//! `tests/lane_properties.rs` at seeded random states. The lane
//! kernels are MPPI's rollout path and the batched-ΔFD path: batch
//! consumers cut a sample batch into lane groups
//! (`BatchEval::for_each_lane_groups`) and pad the last, short group
//! with copies of one of its samples, and the result is still
//! indistinguishable from the serial per-sample loop.
//!
//! # Memory layout
//!
//! Flat state batches are **lane-major**: `K` configurations are one
//! `[f64]` of length `K·nq` with lane `l` at `l·nq..(l+1)·nq`, and
//! control/trajectory buffers nest as `[lane][step][dim]`.
//!
//! # Example
//! ```
//! use rbd_dynamics::{lanes, DynamicsWorkspace};
//! use rbd_model::{random_state, robots};
//! let model = robots::iiwa();
//! let mut lws = lanes::LaneWorkspace::<4>::new(&model);
//! let (nq, nv) = (model.nq(), model.nv());
//! let mut q = vec![0.0; 4 * nq];
//! let mut qd = vec![0.0; 4 * nv];
//! for l in 0..4 {
//!     let s = random_state(&model, l as u64);
//!     q[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
//!     qd[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
//! }
//! let tau = vec![0.1; 4 * nv];
//! lanes::forward_dynamics_aba_lanes_in_ws(&model, &mut lws, &q, &qd, &tau).unwrap();
//! // Lane 2's acceleration equals the width-1 call at lane 2's state.
//! let mut ws = DynamicsWorkspace::new(&model);
//! let s2 = random_state(&model, 2);
//! let qdd2 = rbd_dynamics::aba(&model, &mut ws, &s2.q, &s2.qd, &vec![0.1; nv], None).unwrap();
//! for d in 0..nv {
//!     assert_eq!(lws.qdd_lanes()[d][2], qdd2[d]);
//! }
//! ```

use crate::DynamicsError;
use rbd_model::{integrate_config_into, RobotModel};
use rbd_spatial::{ForceVec, LaneForceVec, LaneMat6, LaneMotionVec, LaneXform, MotionVec, Xform};

/// Default lane width of the dynamics sweeps (re-exported from
/// `rbd_spatial`): four samples per lockstep traversal.
pub const LANE_WIDTH: usize = rbd_spatial::DEFAULT_LANE_WIDTH;

/// Lane-major scratch for the lockstep sweeps: one slot per body/DOF,
/// each slot `K` lanes wide. Allocate once per (model, executor) and
/// reuse — every kernel here performs zero steady-state heap
/// allocation (proven by the counting-allocator test in
/// `tests/zero_alloc.rs`).
#[derive(Debug, Clone)]
pub struct LaneWorkspace<const K: usize> {
    /// Local motion-subspace columns, flat per DOF (constant).
    s: Vec<MotionVec>,
    /// Offsets into [`Self::s`], length `nb + 1`.
    s_off: Vec<usize>,
    /// Parent→child transforms per body, one lane per state.
    xup: Vec<LaneXform<K>>,
    /// World→body transforms per body, filled by [`Self::update_xworld`]
    /// for the kernels that read them.
    xworld: Vec<LaneXform<K>>,
    /// Spatial velocities per body.
    v: Vec<LaneMotionVec<K>>,
    /// Spatial accelerations per body.
    a: Vec<LaneMotionVec<K>>,
    /// Velocity-product accelerations `c_i = v_i × vJ_i` (ABA).
    c_bias: Vec<LaneMotionVec<K>>,
    /// ABA bias forces.
    pa: Vec<LaneForceVec<K>>,
    /// Articulated inertias per body.
    ia: Vec<LaneMat6<K>>,
    /// Broadcast link inertias (constant per model): pass 1 of the lane
    /// ABA copies these instead of re-broadcasting `to_mat6` per call.
    ia_init: Vec<LaneMat6<K>>,
    /// `U = I^A S` columns per DOF.
    u: Vec<LaneForceVec<K>>,
    /// Joint-space inverses per body, lane-major.
    d_inv: Vec<[[[f64; K]; 6]; 6]>,
    /// Joint-space bias `u = τ − Sᵀ p^A` per DOF.
    ub: Vec<[f64; K]>,
    /// Lane-packed generalized velocity input.
    qd_l: Vec<[f64; K]>,
    /// Lane-packed `q̈` output.
    qdd_l: Vec<[f64; K]>,
    /// Lane-packed torque input.
    tau_l: Vec<[f64; K]>,
    /// Per-lane scalar staging for the kinematics gather (fallback
    /// path of non-revolute joints).
    xf_stage: Vec<Xform>,
    /// Per-body constants of the lane-vectorized revolute kinematics
    /// (`None` for non-revolute joints, which fall back to per-lane
    /// scalar `child_xform` calls).
    rev_const: Vec<Option<RevoluteLaneConst>>,
}

/// Constants of one revolute joint's lane kinematics: the Rodrigues
/// skew matrices `k = axis×` and `k²` (recomputed per call by the
/// scalar path, but constant — same values every call), the placement
/// rotation for the compose product, and the composed translation
/// `placement.trans + placement.rotᵀ·0` (the joint translation of a
/// revolute joint is exactly zero, so this term is call-invariant;
/// evaluated once through the scalar expression so the stored bits
/// match what the scalar path produces every call).
#[derive(Debug, Clone)]
struct RevoluteLaneConst {
    /// `k = skew(axis)`, flat row-major.
    k: [f64; 9],
    /// `k² = mul3(k, k)`, flat row-major.
    kk: [f64; 9],
    /// Placement rotation, flat row-major.
    p_rot: [f64; 9],
    /// Composed translation (constant across `q`).
    t0: rbd_spatial::Vec3,
    /// Configuration offset of the joint's single coordinate.
    q_off: usize,
}

impl<const K: usize> LaneWorkspace<K> {
    /// Allocates lane buffers sized for `model`.
    pub fn new(model: &RobotModel) -> Self {
        assert!(K >= 1, "lane width must be at least 1");
        let nb = model.num_bodies();
        let nv = model.nv();
        let mut s = Vec::with_capacity(nv);
        let mut s_off = Vec::with_capacity(nb + 1);
        s_off.push(0);
        for i in 0..nb {
            s.extend(model.joint(i).jtype.motion_subspace());
            s_off.push(s.len());
        }
        Self {
            s,
            s_off,
            xup: vec![LaneXform::identity(); nb],
            xworld: vec![LaneXform::identity(); nb],
            v: vec![LaneMotionVec::zero(); nb],
            a: vec![LaneMotionVec::zero(); nb],
            c_bias: vec![LaneMotionVec::zero(); nb],
            pa: vec![LaneForceVec::zero(); nb],
            ia: vec![LaneMat6::zero(); nb],
            ia_init: (0..nb)
                .map(|i| LaneMat6::broadcast(&model.link_inertia(i).to_mat6()))
                .collect(),
            u: vec![LaneForceVec::zero(); nv],
            d_inv: vec![[[[0.0; K]; 6]; 6]; nb],
            ub: vec![[0.0; K]; nv],
            qd_l: vec![[0.0; K]; nv],
            qdd_l: vec![[0.0; K]; nv],
            tau_l: vec![[0.0; K]; nv],
            xf_stage: vec![Xform::identity(); K],
            rev_const: (0..nb)
                .map(|i| {
                    let joint = model.joint(i);
                    let rbd_model::JointType::Revolute(axis) = joint.jtype else {
                        return None;
                    };
                    let k = rbd_spatial::Mat3::skew(axis);
                    let kk = k * k;
                    // Exactly the scalar compose's translation with the
                    // revolute joint's zero translation.
                    let t0 = joint.placement.trans
                        + joint.placement.rot.tr_mul_vec(&rbd_spatial::Vec3::zero());
                    Some(RevoluteLaneConst {
                        k: *k.as_array(),
                        kk: *kk.as_array(),
                        p_rot: *joint.placement.rot.as_array(),
                        t0,
                        q_off: model.q_offset(i),
                    })
                })
                .collect(),
        }
    }

    /// Lane-packed joint accelerations (ABA output), one `[f64; K]` per
    /// DOF.
    pub fn qdd_lanes(&self) -> &[[f64; K]] {
        &self.qdd_l
    }

    /// Scatters the ABA output into a flat lane-major slice
    /// (`out[l·nv + d] = q̈_l[d]`, `out.len() == K·nv`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn scatter_qdd(&self, out: &mut [f64]) {
        let nv = self.qdd_l.len();
        assert_eq!(out.len(), K * nv, "scatter_qdd length");
        for (d, lanes) in self.qdd_l.iter().enumerate() {
            for (l, &x) in lanes.iter().enumerate() {
                out[l * nv + d] = x;
            }
        }
    }

    /// Per-lane forward kinematics into lane transforms. Revolute
    /// joints (the bulk of every model) take a lane-vectorized path:
    /// `sin_cos` stays a scalar libm call per lane — the only
    /// inherently serial step — while the Rodrigues rotation build and
    /// the placement compose run lane-wise with the scalar expression
    /// tree mirrored exactly, so the transforms are bit-identical to
    /// per-lane `child_xform` calls (`Mat3::rotation_axis_sc` +
    /// transpose + `Xform::compose`, same association order per
    /// entry). Non-revolute joints fall back to the scalar
    /// `child_xform` per lane, gathered.
    fn update_kinematics(&mut self, model: &RobotModel, q: &[f64]) {
        let nq = model.nq();
        assert_eq!(q.len(), K * nq, "lane q dimension");
        for i in 0..model.num_bodies() {
            if let Some(rc) = &self.rev_const[i] {
                // Per-lane trig (serial: libm).
                let mut s = [0.0; K];
                let mut c = [0.0; K];
                for l in 0..K {
                    let (sl, cl) = q[l * nq + rc.q_off].sin_cos();
                    s[l] = sl;
                    c[l] = cl;
                }
                // E_J = (I + k·s + k²·(1−c))ᵀ lane-wise: entry (r,cc)
                // reads source index (cc,r) — the transpose fused into
                // the build. Mirrors `rotation_axis_sc` + `transpose`.
                const ID: [f64; 9] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
                let mut e = [[0.0; K]; 9];
                for r in 0..3 {
                    for cc in 0..3 {
                        let src = 3 * cc + r;
                        let (idv, kv, kkv) = (ID[src], rc.k[src], rc.kk[src]);
                        let dst = &mut e[3 * r + cc];
                        for l in 0..K {
                            dst[l] = (idv + kv * s[l]) + kkv * (1.0 - c[l]);
                        }
                    }
                }
                // Compose with the placement: rot = E_J · P.rot
                // (mirrors `mul3` with a broadcast right operand);
                // trans = P.trans + P.rotᵀ·0, the precomputed constant.
                let mut rot = [[0.0; K]; 9];
                for r in 0..3 {
                    for cc in 0..3 {
                        let (p0, p1, p2) = (rc.p_rot[cc], rc.p_rot[3 + cc], rc.p_rot[6 + cc]);
                        let (a0, a1, a2) = (&e[3 * r], &e[3 * r + 1], &e[3 * r + 2]);
                        let dst = &mut rot[3 * r + cc];
                        for l in 0..K {
                            dst[l] = a0[l] * p0 + a1[l] * p1 + a2[l] * p2;
                        }
                    }
                }
                self.xup[i] = LaneXform {
                    rot: rbd_spatial::LaneMat3::from_lanes(rot),
                    trans: rbd_spatial::LaneVec3::broadcast(rc.t0),
                };
            } else {
                for (l, xf) in self.xf_stage.iter_mut().enumerate() {
                    *xf = model
                        .joint(i)
                        .child_xform(model.q_slice(i, &q[l * nq..(l + 1) * nq]));
                }
                self.xup[i] = LaneXform::gather(&self.xf_stage);
            }
        }
    }

    /// World→body transforms from the current `xup`, composed root to
    /// leaf as [`crate::DynamicsWorkspace::update_kinematics`] does, bit
    /// for bit (`LaneXform::compose` mirrors `Xform::compose`). Inlined
    /// so the AVX2 clones of the kernels compile it with AVX2.
    #[inline(always)]
    fn update_xworld(&mut self, model: &RobotModel) {
        for i in 0..model.num_bodies() {
            self.xworld[i] = match model.topology().parent(i) {
                Some(p) => self.xup[i].compose(&self.xworld[p]),
                None => self.xup[i],
            };
        }
    }

    /// Packs a flat lane-major `K·nv` slice into per-DOF lane blocks.
    fn pack_dof(src: &[f64], dst: &mut [[f64; K]]) {
        let nv = dst.len();
        assert_eq!(src.len(), K * nv, "lane dof dimension");
        for (d, lanes) in dst.iter_mut().enumerate() {
            for (l, x) in lanes.iter_mut().enumerate() {
                *x = src[l * nv + d];
            }
        }
    }
}

#[inline(always)]
fn lane_sub<const K: usize>(a: [f64; K], b: [f64; K]) -> [f64; K] {
    let mut o = a;
    for l in 0..K {
        o[l] -= b[l];
    }
    o
}

/// Lane mirror of `invert_spd_small` for `2 <= n <= 6` (the `n == 1`
/// reciprocal fast path lives at the call site): the unpivoted LDLᵀ has
/// data-independent control flow, so all `K` factorizations run in
/// lockstep with the scalar op order per lane — bit-identical to `K`
/// scalar `invert_spd_small` calls. Only the pivot-threshold check
/// inspects lane values, and it only decides success vs failure.
fn invert_spd_small_lanes<const K: usize>(
    d: &[[[f64; K]; 6]; 6],
    n: usize,
    out: &mut [[[f64; K]; 6]; 6],
) -> Result<(), rbd_spatial::matn::FactorizationError> {
    let mut l = [[[0.0; K]; 6]; 6];
    let mut diag = [[0.0; K]; 6];
    for (i, lrow) in l.iter_mut().enumerate().take(n) {
        lrow[i] = [1.0; K];
    }
    for j in 0..n {
        let mut dj = d[j][j];
        for k in 0..j {
            for (x, (ljk, dk)) in dj.iter_mut().zip(l[j][k].iter().zip(&diag[k])) {
                *x -= ljk * ljk * dk;
            }
        }
        if dj.iter().any(|x| x.abs() < 1e-12) {
            return Err(rbd_spatial::matn::FactorizationError::ZeroPivot { index: j });
        }
        diag[j] = dj;
        for i in (j + 1)..n {
            let mut s = d[i][j];
            for k in 0..j {
                for (x, (lik, (ljk, dk))) in s
                    .iter_mut()
                    .zip(l[i][k].iter().zip(l[j][k].iter().zip(&diag[k])))
                {
                    *x -= lik * ljk * dk;
                }
            }
            for (x, dv) in s.iter_mut().zip(&dj) {
                *x /= dv;
            }
            l[i][j] = s;
        }
    }
    for j in 0..n {
        // Solve L D Lᵀ x = e_j into column j.
        let mut x = [[0.0; K]; 6];
        x[j] = [1.0; K];
        for i in 0..n {
            let mut s = x[i];
            for k in 0..i {
                for (sv, (lik, xk)) in s.iter_mut().zip(l[i][k].iter().zip(&x[k])) {
                    *sv -= lik * xk;
                }
            }
            x[i] = s;
        }
        for i in 0..n {
            for (xv, dv) in x[i].iter_mut().zip(&diag[i]) {
                *xv /= dv;
            }
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for k in (i + 1)..n {
                for (sv, (lki, xk)) in s.iter_mut().zip(l[k][i].iter().zip(&x[k])) {
                    *sv -= lki * xk;
                }
            }
            x[i] = s;
        }
        for (i, xi) in x.iter().enumerate().take(n) {
            out[i][j] = *xi;
        }
    }
    Ok(())
}

/// Inverts every lane's `ni × ni` joint-space block `d` into `out`,
/// bit-identical to `invert_spd_small` per lane: the 1-DOF reciprocal
/// (same pivot check, without the 6×6 extract/scatter round-trip) or
/// the lane LDLᵀ.
#[inline(always)]
fn invert_block_lanes<const K: usize>(
    d: &[[[f64; K]; 6]; 6],
    ni: usize,
    out: &mut [[[f64; K]; 6]; 6],
) -> Result<(), DynamicsError> {
    if ni > 1 {
        return invert_spd_small_lanes(d, ni, out).map_err(DynamicsError::from);
    }
    for (l, &x) in d[0][0].iter().enumerate() {
        if x.abs() < 1e-12 {
            return Err(DynamicsError::SingularMassMatrix(
                rbd_spatial::matn::FactorizationError::ZeroPivot { index: 0 },
            ));
        }
        out[0][0][l] = 1.0 / x;
    }
    Ok(())
}

/// Defines the public entry point `$name` around the `#[inline(always)]`
/// body `$body`, plus `$avx2`, a clone of the body compiled for AVX2 (in
/// which every inlined callee is compiled for AVX2 too). On x86-64 hosts
/// with AVX2 (runtime-detected, once per call) the entry point runs the
/// clone; elsewhere it runs the baseline build. The per-lane op
/// sequences are the same in both — IEEE f64 arithmetic does not depend
/// on the vector width — so outputs stay bit-identical; only the codegen
/// widens from 2-wide SSE2 to 4-wide registers
/// (`tests::avx2_clones_match_baseline_bodies` runs both).
macro_rules! avx2_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident<const $k:ident: usize>($($arg:ident: $ty:ty),* $(,)?)
            $(-> $ret:ty)? => $body:ident, $avx2:ident
    ) => {
        /// AVX2-compiled clone of the body.
        ///
        /// # Safety
        /// The caller must have verified AVX2 support at runtime.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        pub(crate) unsafe fn $avx2<const $k: usize>($($arg: $ty),*) $(-> $ret)? {
            $body($($arg),*)
        }

        $(#[$attr])*
        $vis fn $name<const $k: usize>($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 presence was just verified at runtime.
                return unsafe { $avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}

/// Lane-batched O(n) forward dynamics: `K` articulated-body sweeps in
/// lockstep, without external forces. Inputs are flat lane-major
/// slices; the accelerations land in [`LaneWorkspace::qdd_lanes`]. Zero
/// steady-state allocation. AVX2 hosts run an AVX2-compiled clone with
/// bit-identical outputs. At `K = 1` this is [`crate::aba_in_ws`]'s
/// sweep.
///
/// # Errors
/// Returns [`DynamicsError::SingularMassMatrix`] when any lane's
/// joint-space articulated inertia block is singular.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn forward_dynamics_aba_lanes_in_ws<const K: usize>(
    model: &RobotModel,
    lws: &mut LaneWorkspace<K>,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
) -> Result<(), DynamicsError> {
    aba_lanes_in_ws(model, lws, q, qd, tau, None)
}

avx2_dispatch! {
/// The lane ABA with optional external forces: `fext` is lane-major,
/// `K·nb` world-frame forces with lane `l`'s force on body `i` at
/// `l·nb + i` (at `K = 1`, [`crate::aba_in_ws`]'s layout). Errors and
/// panics as [`forward_dynamics_aba_lanes_in_ws`].
pub(crate) fn aba_lanes_in_ws<const K: usize>(
    model: &RobotModel,
    lws: &mut LaneWorkspace<K>,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
) -> Result<(), DynamicsError> => fd_aba_lanes_impl, fd_aba_lanes_avx2
}

#[inline(always)]
fn fd_aba_lanes_impl<const K: usize>(
    model: &RobotModel,
    lws: &mut LaneWorkspace<K>,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
    fext: Option<&[ForceVec]>,
) -> Result<(), DynamicsError> {
    let nb = model.num_bodies();
    lws.update_kinematics(model, q);
    if let Some(f) = fext {
        assert_eq!(f.len(), K * nb, "fext dimension");
        lws.update_xworld(model);
    }
    LaneWorkspace::pack_dof(qd, &mut lws.qd_l);
    LaneWorkspace::pack_dof(tau, &mut lws.tau_l);
    let a0 = LaneMotionVec::broadcast(MotionVec::new(rbd_spatial::Vec3::zero(), -model.gravity));

    // Pass 1: velocities, bias accelerations, articulated init.
    for i in 0..nb {
        let vo = model.v_offset(i);
        let ni = lws.s_off[i + 1] - lws.s_off[i];
        let vj = LaneMotionVec::weighted_sum(&lws.s[vo..vo + ni], &lws.qd_l[vo..vo + ni]);
        let v = match model.topology().parent(i) {
            Some(p) => lws.xup[i].apply_motion(&lws.v[p]).add(&vj),
            None => vj,
        };
        lws.c_bias[i] = v.cross_motion(&vj);
        let inertia = model.link_inertia(i);
        lws.ia[i] = lws.ia_init[i];
        let mut pa = v.cross_force(&inertia.mul_motion_lanes(&v));
        if let Some(fx) = fext {
            let f = LaneForceVec::gather(&std::array::from_fn::<_, K, _>(|l| fx[l * nb + i]));
            pa = pa.sub(&lws.xworld[i].apply_force(&f));
        }
        lws.pa[i] = pa;
        lws.v[i] = v;
    }

    // Pass 2: articulated inertia backward sweep.
    for i in (0..nb).rev() {
        let vo = model.v_offset(i);
        let ni = lws.s_off[i + 1] - lws.s_off[i];
        for k in 0..ni {
            lws.u[vo + k] = lws.ia[i].mul_scalar_motion_to_force(&lws.s[vo + k]);
        }
        // Joint-space matrix D = Sᵀ U, then its inverse per lane via the
        // same stack LDLᵀ routine the scalar path calls — bit-identical
        // lane by lane.
        let mut d = [[[0.0; K]; 6]; 6];
        for (ar, drow) in d.iter_mut().enumerate().take(ni) {
            for (b, db) in drow.iter_mut().enumerate().take(ni) {
                *db = lws.u[vo + b].dot_scalar_motion(&lws.s[vo + ar]);
            }
        }
        invert_block_lanes(&d, ni, &mut lws.d_inv[i])?;
        for k in 0..ni {
            lws.ub[vo + k] = lane_sub(
                lws.tau_l[vo + k],
                lws.pa[i].dot_scalar_motion(&lws.s[vo + k]),
            );
        }

        if let Some(p) = model.topology().parent(i) {
            // Ia = IA - U D⁻¹ Uᵀ, updated in place: body `i`'s lane
            // inertia is never read again after this backward visit
            // (pass 3 only uses `u`/`d_inv`/`ub`), so no copy is needed.
            // `p < i` under the topological numbering, letting the two
            // lane inertias borrow disjointly.
            let (head, tail) = lws.ia.split_at_mut(i);
            let ia_i = &mut tail[0];
            let dinv = &lws.d_inv[i];
            ia_i.sub_outer_weighted(&lws.u[vo..vo + ni], |ar, b| dinv[ar][b]);
            // pa' = pA + Ia c + U D⁻¹ u
            let mut pai = lws.pa[i].add(&ia_i.mul_motion_to_force(&lws.c_bias[i]));
            for ar in 0..ni {
                let mut coeff = [0.0; K];
                for b in 0..ni {
                    for (l, c) in coeff.iter_mut().enumerate() {
                        *c += dinv[ar][b][l] * lws.ub[vo + b][l];
                    }
                }
                pai.add_assign(&lws.u[vo + ar].scale(coeff));
            }
            ia_i.add_congruence_xform_sym(&lws.xup[i], &mut head[p]);
            let fp = lws.xup[i].inv_apply_force(&pai);
            lws.pa[p].add_assign(&fp);
        }
    }

    // Pass 3: accelerations forward sweep.
    for i in 0..nb {
        let vo = model.v_offset(i);
        let ni = lws.s_off[i + 1] - lws.s_off[i];
        let a_par = match model.topology().parent(i) {
            Some(p) => lws.xup[i].apply_motion(&lws.a[p]),
            None => lws.xup[i].apply_motion(&a0),
        };
        let a_prime = a_par.add(&lws.c_bias[i]);
        let mut rhs = [[0.0; K]; 6];
        for (k, r) in rhs.iter_mut().enumerate().take(ni) {
            *r = lane_sub(lws.ub[vo + k], lws.u[vo + k].dot_motion(&a_prime));
        }
        let mut out = [[0.0; K]; 6];
        let dinv = &lws.d_inv[i];
        for (ar, o) in out.iter_mut().enumerate().take(ni) {
            for (b, r) in rhs.iter().enumerate().take(ni) {
                for (l, x) in o.iter_mut().enumerate() {
                    *x += dinv[ar][b][l] * r[l];
                }
            }
        }
        let mut a_i = a_prime;
        for k in 0..ni {
            lws.qdd_l[vo + k] = out[k];
            a_i.add_scaled_col(&lws.s[vo + k], out[k]);
        }
        lws.a[i] = a_i;
    }
    Ok(())
}

mod dfd;
pub use dfd::{fd_derivatives_lanes_into, LaneFdScratch};

// ---------------------------------------------------------------------
// The RK4 tableau and the rollout kernel (the sampling-MPC workload unit).
// ---------------------------------------------------------------------

/// Classical RK4 on the configuration manifold over any number of lanes
/// (`q.len() / nq`, lane-major): the stage points and the combine, with
/// the stage dynamics left to the caller. It is the workspace's one RK4
/// body: [`rk4_rollout_lanes_into`], the plant step, iLQR's forward pass
/// and the RK4 sensitivity each run the four-stage loop of the example
/// with their own stage dynamics.
///
/// `point(…, s, …)` returns stage `s + 1`: with `q̇ᵢ`, `kᵢ` the velocity
/// and acceleration of stage `i`, stage 1 is `(q, q̇)` and stage `i + 1`
/// `(q ⊕ c·q̇ᵢ, q̇ + c·kᵢ)` with `c = h/2, h/2, h`. The step ends at
/// `q ⊕ h·(q̇₁ + 2q̇₂ + 2q̇₃ + q̇₄)/6` and `q̇ + h/6·(k₁ + 2k₂ + 2k₃ + k₄)`.
/// Every expression is evaluated element by element (configurations lane
/// by lane), so lane `l` of the next state depends only on lane `l`'s
/// inputs and its bits do not depend on the lane count.
///
/// # Example
/// ```
/// use rbd_dynamics::{aba_in_ws, DynamicsWorkspace, Rk4Stages};
/// use rbd_model::{random_state, robots};
/// let model = robots::iiwa();
/// let mut ws = DynamicsWorkspace::new(&model);
/// let mut stages = Rk4Stages::for_model(&model, 1);
/// let s = random_state(&model, 1);
/// let tau = vec![0.0; model.nv()];
/// for stage in 0..4 {
///     let (q, qd, k) = stages.point(&model, stage, &s.q, &s.qd, 0.01);
///     aba_in_ws(&model, &mut ws, q, qd, &tau, None, k).unwrap();
/// }
/// let (mut q_next, mut qd_next) = (vec![0.0; model.nq()], vec![0.0; model.nv()]);
/// stages.finish(&model, &s.q, &s.qd, 0.01, &mut q_next, &mut qd_next);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rk4Stages {
    /// The current stage's configuration (stages 2–4).
    q_s: Vec<f64>,
    /// Stage velocities `q̇₂, q̇₃, q̇₄`.
    qd_s: [Vec<f64>; 3],
    /// Stage accelerations `k₁ … k₄`, written by the caller.
    k: [Vec<f64>; 4],
    /// The step's mean velocity `(q̇₁ + 2q̇₂ + 2q̇₃ + q̇₄)/6`.
    vbar: Vec<f64>,
}

impl Rk4Stages {
    /// Stage buffers sized for `lanes` lanes of `model`.
    pub fn for_model(model: &RobotModel, lanes: usize) -> Self {
        let mut s = Self::default();
        s.ensure_dims(model, lanes);
        s
    }

    /// Sizes every buffer for `lanes` lanes; allocation-free when
    /// already sized.
    pub fn ensure_dims(&mut self, model: &RobotModel, lanes: usize) {
        self.q_s.resize(lanes * model.nq(), 0.0);
        self.vbar.resize(lanes * model.nv(), 0.0);
        for v in self.qd_s.iter_mut().chain(&mut self.k) {
            v.resize(lanes * model.nv(), 0.0);
        }
    }

    /// Stage `s + 1` (`s` in `0..4`) of the step from `(q, q̇)` with
    /// step `h`: the stage configuration, the stage velocity and the slot
    /// of the stage acceleration `k_{s+1}`, which the caller fills before
    /// asking for the next stage (which reads it).
    ///
    /// # Panics
    /// Panics if `s ≥ 4` or `q`/`q̇` do not match the sized lane count.
    #[inline(always)]
    pub fn point<'a>(
        &'a mut self,
        model: &RobotModel,
        s: usize,
        q: &'a [f64],
        qd: &'a [f64],
        h: f64,
    ) -> (&'a [f64], &'a [f64], &'a mut [f64]) {
        assert_eq!(q.len(), self.q_s.len(), "stage q dimension");
        assert_eq!(qd.len(), self.vbar.len(), "stage q̇ dimension");
        let Self { q_s, qd_s, k, .. } = self;
        if s == 0 {
            return (q, qd, &mut k[0]);
        }
        let c = if s == 3 { h } else { h / 2.0 };
        let (nq, nv) = (model.nq(), model.nv());
        let (done, rest) = qd_s.split_at_mut(s - 1);
        let v_prev = done.last().map_or(qd, Vec::as_slice);
        for (qs, (qc, vc)) in q_s.chunks_mut(nq).zip(q.chunks(nq).zip(v_prev.chunks(nv))) {
            integrate_config_into(model, qc, vc, c, qs);
        }
        let qd_now = &mut rest[0];
        for (o, (&v, &a)) in qd_now.iter_mut().zip(qd.iter().zip(&k[s - 1])) {
            *o = v + c * a;
        }
        (q_s, qd_now, &mut k[s])
    }

    /// Combines the four filled stages into the next state `(q_next,
    /// q̇_next)` of the step from `(q, q̇)` with step `h` (the arguments
    /// of every [`Self::point`] call of the step).
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    #[inline(always)]
    pub fn finish(
        &mut self,
        model: &RobotModel,
        q: &[f64],
        qd: &[f64],
        h: f64,
        q_next: &mut [f64],
        qd_next: &mut [f64],
    ) {
        assert_eq!(q_next.len(), q.len(), "next q dimension");
        assert_eq!(qd_next.len(), qd.len(), "next q̇ dimension");
        let (nq, nv) = (model.nq(), model.nv());
        let Self {
            qd_s: [qd2, qd3, qd4],
            k: [k1a, k2a, k3a, k4a],
            vbar,
            ..
        } = self;
        for i in 0..qd.len() {
            vbar[i] = (qd[i] + 2.0 * qd2[i] + 2.0 * qd3[i] + qd4[i]) / 6.0;
        }
        for (qn, (qc, vb)) in q_next.chunks_mut(nq).zip(q.chunks(nq).zip(vbar.chunks(nv))) {
            integrate_config_into(model, qc, vb, h, qn);
        }
        for i in 0..qd_next.len() {
            qd_next[i] = qd[i] + h / 6.0 * (k1a[i] + 2.0 * k2a[i] + 2.0 * k3a[i] + k4a[i]);
        }
    }
}

/// Reusable lane-major buffers for [`rk4_rollout_lanes_into`]: the RK4
/// stages and the current and next states (`K·nq` / `K·nv` flat blocks,
/// lane `l` contiguous at `l·dim`).
#[derive(Debug, Clone, Default)]
pub struct LaneRolloutScratch {
    stages: Rk4Stages,
    q_cur: Vec<f64>,
    qd_cur: Vec<f64>,
    q_next: Vec<f64>,
    qd_next: Vec<f64>,
    tau_cur: Vec<f64>,
}

impl LaneRolloutScratch {
    /// Scratch sized for `model` at lane width `k`.
    pub fn for_model(model: &RobotModel, k: usize) -> Self {
        let mut s = Self::default();
        s.ensure_dims(model, k);
        s
    }

    /// Sizes every buffer; allocation-free when already sized.
    pub fn ensure_dims(&mut self, model: &RobotModel, k: usize) {
        self.stages.ensure_dims(model, k);
        for v in [&mut self.q_cur, &mut self.q_next] {
            v.resize(k * model.nq(), 0.0);
        }
        for v in [&mut self.qd_cur, &mut self.qd_next, &mut self.tau_cur] {
            v.resize(k * model.nv(), 0.0);
        }
    }
}

avx2_dispatch! {
/// Lane-batched RK4/ABA rollout: `K` control sequences rolled out in
/// lockstep through the lane forward-dynamics sweep. Layouts are
/// lane-major: `q0` is `K·nq`, `us` is `[lane][step][nv]` (flat
/// `K·horizon·nv`), and the trajectories nest as `[lane][step][dim]`
/// (flat `K·(horizon+1)·nq` / `K·(horizon+1)·nv`) so each lane's
/// trajectory is contiguous for downstream cost evaluation.
///
/// Each step is one [`Rk4Stages`] step whose four stages run the
/// lockstep lane ABA sweep. Lane `l`'s trajectory is bit-identical to
/// the same RK4 run per sample over its width-1 call
/// [`crate::aba_in_ws`], and it depends only on lane `l`'s inputs —
/// which is what lets a batch pad its last, short group with copies of
/// a real sample. Zero
/// steady-state allocation; AVX2 hosts run an AVX2-compiled clone of
/// the whole rollout (the stages and the lane ABA sweeps inlined), so
/// the feature check runs once per rollout.
///
/// # Errors
/// Propagates a singular joint-space block from any lane/stage.
///
/// # Panics
/// Panics on dimension mismatches.
#[allow(clippy::too_many_arguments)] // initial states + controls + two trajectory outputs
pub fn rk4_rollout_lanes_into<const K: usize>(
    model: &RobotModel,
    lws: &mut LaneWorkspace<K>,
    scratch: &mut LaneRolloutScratch,
    q0: &[f64],
    qd0: &[f64],
    us: &[f64],
    horizon: usize,
    dt: f64,
    q_traj: &mut [f64],
    qd_traj: &mut [f64],
) -> Result<(), DynamicsError> => rk4_rollout_lanes_impl, rk4_rollout_lanes_avx2
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rk4_rollout_lanes_impl<const K: usize>(
    model: &RobotModel,
    lws: &mut LaneWorkspace<K>,
    scratch: &mut LaneRolloutScratch,
    q0: &[f64],
    qd0: &[f64],
    us: &[f64],
    horizon: usize,
    dt: f64,
    q_traj: &mut [f64],
    qd_traj: &mut [f64],
) -> Result<(), DynamicsError> {
    let (nq, nv) = (model.nq(), model.nv());
    assert_eq!(q0.len(), K * nq, "q0 dimension");
    assert_eq!(qd0.len(), K * nv, "qd0 dimension");
    assert_eq!(us.len(), K * horizon * nv, "controls dimension");
    assert_eq!(
        q_traj.len(),
        K * (horizon + 1) * nq,
        "q trajectory dimension"
    );
    assert_eq!(
        qd_traj.len(),
        K * (horizon + 1) * nv,
        "qd trajectory dimension"
    );
    scratch.ensure_dims(model, K);
    let LaneRolloutScratch {
        stages,
        q_cur,
        qd_cur,
        q_next,
        qd_next,
        tau_cur,
    } = scratch;

    q_cur.copy_from_slice(q0);
    qd_cur.copy_from_slice(qd0);
    for step in 0..=horizon {
        // Record the current state.
        for l in 0..K {
            q_traj[(l * (horizon + 1) + step) * nq..][..nq]
                .copy_from_slice(&q_cur[l * nq..(l + 1) * nq]);
            qd_traj[(l * (horizon + 1) + step) * nv..][..nv]
                .copy_from_slice(&qd_cur[l * nv..(l + 1) * nv]);
        }
        if step == horizon {
            break;
        }
        for l in 0..K {
            tau_cur[l * nv..(l + 1) * nv]
                .copy_from_slice(&us[l * horizon * nv + step * nv..][..nv]);
        }
        for s in 0..4 {
            let (q_s, qd_s, k_s) = stages.point(model, s, q_cur, qd_cur, dt);
            fd_aba_lanes_impl(model, lws, q_s, qd_s, tau_cur, None)?;
            lws.scatter_qdd(k_s);
        }
        stages.finish(model, q_cur, qd_cur, dt, q_next, qd_next);
        std::mem::swap(q_cur, q_next);
        std::mem::swap(qd_cur, qd_next);
    }
    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/aba.rs"]
mod aba_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicsWorkspace, FdDerivatives};
    use rbd_model::{random_state, robots};

    fn bits<'a>(x: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
        x.into_iter().map(|v| v.to_bits()).collect()
    }

    fn fd_bits(d: &FdDerivatives) -> Vec<u64> {
        let mut out = bits(&d.qdd);
        for m in [&d.dqdd_dq, &d.dqdd_dqd, &d.dqdd_dtau] {
            for i in 0..m.rows() {
                out.extend(bits(m.row(i)));
            }
        }
        out
    }

    /// Stress test of the `avx2_dispatch!` `unsafe` blocks: every
    /// dispatched body runs through its AVX2 clone (when the host has
    /// AVX2) and through the baseline build, on seeded states of the six
    /// lane-test models, and the two must agree bit for bit. The ABA
    /// also runs with lane-major external forces, a different set per
    /// lane, and each lane must equal the scalar oracle's bits.
    #[test]
    fn avx2_clones_match_baseline_bodies() {
        const K: usize = 4;
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let models = [
            robots::iiwa(),
            robots::hyq(),
            robots::quadruped_arm(),
            robots::atlas(),
            robots::serial_chain(3),
            robots::random_tree(9, 7),
        ];
        for model in &models {
            let (nq, nv) = (model.nq(), model.nv());
            let horizon = 2;
            let mut runs = [
                (
                    LaneWorkspace::<K>::new(model),
                    LaneRolloutScratch::for_model(model, K),
                ),
                (
                    LaneWorkspace::<K>::new(model),
                    LaneRolloutScratch::for_model(model, K),
                ),
            ];
            let mut ws = DynamicsWorkspace::new(model);
            let nb = model.num_bodies();
            let fext: Vec<ForceVec> = (0..K * nb)
                .map(|n| {
                    let (l, i) = ((n / nb) as f64, (n % nb) as f64);
                    ForceVec::from_slice(&[0.1 * i, -0.2, 0.3 + 0.1 * l, 5.0, -2.0 - l, 1.0 + i])
                })
                .collect();
            let mut fd_scratch = [
                LaneFdScratch::<K>::new(model),
                LaneFdScratch::<K>::new(model),
            ];
            for seed in 0..4 {
                let mut q = vec![0.0; K * nq];
                let mut qd = vec![0.0; K * nv];
                for l in 0..K {
                    let s = random_state(model, 50 * seed + l as u64);
                    q[l * nq..(l + 1) * nq].copy_from_slice(&s.q);
                    qd[l * nv..(l + 1) * nv].copy_from_slice(&s.qd);
                }
                let tau: Vec<f64> = (0..K * nv).map(|i| 0.3 - 0.01 * (i % 17) as f64).collect();
                let us: Vec<f64> = (0..K * horizon * nv)
                    .map(|i| 0.1 - 0.002 * i as f64)
                    .collect();
                let mut qdd = [vec![], vec![]];
                let mut qdd_fext = [vec![], vec![]];
                let mut traj = [(vec![], vec![]), (vec![], vec![])];
                let mut dfd = [
                    vec![FdDerivatives::default(); K],
                    vec![FdDerivatives::default(); K],
                ];
                for (r, (lws, rs)) in runs.iter_mut().enumerate() {
                    let (qt, qdt) = &mut traj[r];
                    qt.resize(K * (horizon + 1) * nq, 0.0);
                    qdt.resize(K * (horizon + 1) * nv, 0.0);
                    let sc = &mut fd_scratch[r];
                    let outs = &mut dfd[r];
                    if r == 0 || !avx2 {
                        fd_aba_lanes_impl(model, lws, &q, &qd, &tau, None).unwrap();
                        qdd[r] = bits(lws.qdd_lanes().iter().flatten());
                        fd_aba_lanes_impl(model, lws, &q, &qd, &tau, Some(&fext)).unwrap();
                        qdd_fext[r] = bits(lws.qdd_lanes().iter().flatten());
                        rk4_rollout_lanes_impl(
                            model, lws, rs, &q, &qd, &us, horizon, 0.01, qt, qdt,
                        )
                        .unwrap();
                        dfd::fd_lanes_impl(model, &ws, lws, sc, &q, &qd, &tau, outs).unwrap();
                        continue;
                    }
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: AVX2 support was detected above.
                    unsafe {
                        fd_aba_lanes_avx2(model, lws, &q, &qd, &tau, None).unwrap();
                        qdd[r] = bits(lws.qdd_lanes().iter().flatten());
                        fd_aba_lanes_avx2(model, lws, &q, &qd, &tau, Some(&fext)).unwrap();
                        qdd_fext[r] = bits(lws.qdd_lanes().iter().flatten());
                        rk4_rollout_lanes_avx2(
                            model, lws, rs, &q, &qd, &us, horizon, 0.01, qt, qdt,
                        )
                        .unwrap();
                        dfd::fd_lanes_avx2(model, &ws, lws, sc, &q, &qd, &tau, outs).unwrap();
                    }
                }
                let what = format!("{} seed {seed} (AVX2 {avx2})", model.name());
                assert_eq!(qdd[0], qdd[1], "{what}: ABA");
                assert_eq!(qdd_fext[0], qdd_fext[1], "{what}: ABA with fext");
                let mut qdd_oracle = vec![0.0; nv];
                for l in 0..K {
                    super::aba_oracle::aba_in_ws(
                        model,
                        &mut ws,
                        &q[l * nq..(l + 1) * nq],
                        &qd[l * nv..(l + 1) * nv],
                        &tau[l * nv..(l + 1) * nv],
                        Some(&fext[l * nb..(l + 1) * nb]),
                        &mut qdd_oracle,
                    )
                    .unwrap();
                    for d in 0..nv {
                        assert_eq!(
                            qdd_fext[0][d * K + l],
                            qdd_oracle[d].to_bits(),
                            "{what}: ABA with fext lane {l} dof {d} vs oracle"
                        );
                    }
                }
                assert_eq!(bits(&traj[0].0), bits(&traj[1].0), "{what}: rollout q");
                assert_eq!(bits(&traj[0].1), bits(&traj[1].1), "{what}: rollout q̇");
                for l in 0..K {
                    assert_eq!(
                        fd_bits(&dfd[0][l]),
                        fd_bits(&dfd[1][l]),
                        "{what}: ΔFD lane {l}"
                    );
                }
            }
        }
    }
}
